"""Binary PPM/PGM image handling and attribution map export.

PPM (P6, maxval 255) is the only input format; PGM (P5) and CSV are the only
outputs. Both are byte-exact and dependency-free, which keeps round trips and
regression diffs trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .model import Preprocess

if TYPE_CHECKING:  # pragma: no cover
    from .lrp import AttributionMap


class ImageFormatError(Exception):
    """The file is not a conforming binary PPM."""


@dataclass
class ImageSample:
    """An RGB image as both raw [0, 255] planes and normalized model input."""

    raw: np.ndarray         # 3 x H x W float32 in [0, 255]
    normalized: np.ndarray  # 3 x H x W float32, (raw/255 - mean) / std
    path: str


def normalize(raw: np.ndarray, preprocess: Preprocess) -> np.ndarray:
    """Apply the manifest's preprocessing; bit-reproducible from raw + constants."""
    mean = np.asarray(preprocess.mean, dtype=np.float32)[:, None, None]
    std = np.asarray(preprocess.std, dtype=np.float32)[:, None, None]
    return (raw / np.float32(255.0) - mean) / std


def _read_header_token(data: bytes, pos: int, path: Path) -> tuple[bytes, int]:
    # Skip whitespace and '#' comment lines between header fields.
    n = len(data)
    while pos < n:
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ImageFormatError(f"{path}: truncated PPM header")
    return data[start:pos], pos


def load_ppm(path: str | Path, preprocess: Preprocess) -> ImageSample:
    """Read a binary P6 PPM with maxval 255 and attach its normalized form."""
    path = Path(path)
    data = path.read_bytes()
    if data[:2] != b"P6":
        raise ImageFormatError(f"{path}: bad magic, expected P6")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_header_token(data, pos, path)
        try:
            fields.append(int(token))
        except ValueError as exc:
            raise ImageFormatError(f"{path}: non-numeric header field {token!r}") from exc
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: non-positive dimensions {width} x {height}")
    if maxval != 255:
        raise ImageFormatError(f"{path}: maxval must be 255, got {maxval}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ImageFormatError(f"{path}: missing whitespace after maxval")
    pos += 1  # single whitespace byte after maxval
    need = 3 * width * height
    pixels = data[pos : pos + need]
    if len(pixels) < need:
        raise ImageFormatError(f"{path}: truncated pixel data "
                               f"({len(pixels)} of {need} bytes)")
    interleaved = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)
    raw = np.ascontiguousarray(interleaved.transpose(2, 0, 1)).astype(np.float32)
    return ImageSample(raw=raw, normalized=normalize(raw, preprocess), path=str(path))


def write_ppm(path: str | Path, raw: np.ndarray) -> None:
    """Write 3 x H x W raw values (integral, in [0, 255]) as a canonical P6 file."""
    raw = np.asarray(raw)
    if raw.ndim != 3 or raw.shape[0] != 3:
        raise ValueError(f"raw image must be 3 x H x W, got {raw.shape}")
    _, h, w = raw.shape
    body = np.clip(np.rint(raw), 0, 255).astype(np.uint8).transpose(1, 2, 0).tobytes()
    Path(path).write_bytes(b"P6\n%d %d\n255\n" % (w, h) + body)


def write_pgm(path: str | Path, values: np.ndarray) -> None:
    """Write an H x W map as binary P5, min-max scaled to 0..255 (constant -> 0)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"map must be H x W, got shape {values.shape}")
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        scaled = np.rint((values - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(values)
    body = np.clip(scaled, 0, 255).astype(np.uint8).tobytes()
    h, w = values.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + body)


def format_float(v: float) -> str:
    """Shortest decimal string that round-trips the float64 value."""
    return repr(float(v))


def write_map_csv(path: str | Path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"map must be H x W, got shape {values.shape}")
    lines = [",".join(format_float(v) for v in row) for row in values]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def read_map_csv(path: str | Path) -> np.ndarray:
    rows = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path}: malformed attribution CSV")
    values = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: attribution CSV holds NaN or infinite values")
    return values


def write_attribution(amap: "AttributionMap", out_prefix: str | Path) -> list[Path]:
    """Write <prefix>.csv (full-precision values) and <prefix>.pgm (scaled view).

    Uses the quantized map when quantization is on, else the raw map.
    """
    prefix = str(out_prefix)
    csv_path, pgm_path = Path(prefix + ".csv"), Path(prefix + ".pgm")
    write_map_csv(csv_path, amap.values)
    write_pgm(pgm_path, amap.values)
    return [csv_path, pgm_path]
