"""Entry point of the relprop benchmark; run it from the root of a checkout.

    python3 perfbench/run.py --workload explain-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

See perfbench/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    # With more than one BLAS thread, OpenBLAS's pool and the CLI's --threads
    # pool compete for the same cores, and the figures measure that contention.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = (Path.cwd() / "src").resolve()
    if not (src / "relprop" / "__init__.py").is_file():
        print("error: no src/relprop here; run from the root of a relprop checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import relprop
    if not Path(relprop.__file__).resolve().is_relative_to(src):
        print(f"error: relprop imported from {relprop.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness
    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
