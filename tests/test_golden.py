"""The byte-identity tool (``tests/golden.py``) on a slice of its matrix:
every row runs cleanly, and the digests repeat across runs and do not depend
on ``--threads``."""

import golden


def test_slice_digests_repeat_at_any_thread_count(tmp_path):
    runs = []
    for i, threads in enumerate((1, 1, 2)):
        results = golden.run(golden.rows(threads, models=("toy:2,1,5,4",)), tmp_path / str(i))
        assert [(r.row.id, r.code, r.stderr) for r in results if r.code or r.stderr] == []
        runs.append(golden.digests(results))
    assert runs[0] == runs[1] == runs[2]
    assert len(set(runs[0].values())) == len(runs[0])
