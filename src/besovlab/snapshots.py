"""Field snapshot files: one JSON header line, then raw little-endian
float64 physical samples per named field, concatenated in header order.
A saved fluid state's fields are `state_samples(grid, s, grad_p)`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .spectral import GridSpec, forward_transform, samples


class SnapshotFormatError(ValueError):
    """Malformed snapshot header, truncated payload or non-finite sample."""


def write_snapshot(path, grid: GridSpec, fields: dict[str, np.ndarray]):
    """Write named fields (insertion order preserved) to `path`, each given
    by its real grid samples."""
    header = {
        "dim": grid.dim,
        "M": grid.points_per_axis,
        "fields": list(fields.keys()),
        "layout": "row-major",
        "scalar": "float64-le",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for name in header["fields"]:
            fh.write(np.ascontiguousarray(fields[name], dtype="<f8").tobytes())


def read_snapshot(path) -> tuple[GridSpec, dict[str, np.ndarray]]:
    """The grid of the snapshot at `path` and the coefficients of its fields."""
    path = Path(path)
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise SnapshotFormatError("missing header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotFormatError(f"bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise SnapshotFormatError("header is not a JSON object")
    for key in ("dim", "M", "fields", "layout", "scalar"):
        if key not in header:
            raise SnapshotFormatError(f"header missing {key!r}")
    if header["layout"] != "row-major" or header["scalar"] != "float64-le":
        raise SnapshotFormatError("unsupported layout or scalar type")
    dim, m, names = header["dim"], header["M"], header["fields"]
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (dim, m)):
        raise SnapshotFormatError(f"dim and M must be integers, got {dim!r} and {m!r}")
    if not (isinstance(names, list) and all(isinstance(x, str) for x in names)
            and len(set(names)) == len(names)):
        raise SnapshotFormatError(f"fields must be a list of distinct names, got {names!r}")
    try:
        grid = GridSpec(dim, m)
    except ValueError as exc:
        raise SnapshotFormatError(str(exc)) from exc
    count = grid.points_per_axis ** grid.dim
    payload = raw[nl + 1:]
    expected = 8 * count * len(names)
    if len(payload) != expected:
        raise SnapshotFormatError(
            f"payload holds {len(payload)} bytes, expected {expected}")
    fields: dict[str, np.ndarray] = {}
    for i, name in enumerate(names):
        chunk = payload[8 * count * i: 8 * count * (i + 1)]
        samples = np.frombuffer(chunk, dtype="<f8").reshape(grid.shape)
        if not np.isfinite(samples).all():
            raise SnapshotFormatError(f"field {name!r} holds non-finite samples")
        fields[name] = forward_transform(grid, samples.copy())
    return grid, fields


def state_samples(grid: GridSpec, s: np.ndarray, grad_p) -> dict[str, np.ndarray]:
    """Named grid samples of a fluid state for a snapshot: `s`, the samples
    of its stacked (sigma, v, h) (a save passes those its first stage
    formed), and the coefficients `grad_p` of its pressure gradient, when
    not None, sampled in one call."""
    n = grid.dim
    names = ["sigma"] + [f"v{i}" for i in range(n)] \
        + [f"h{i}{j}" for i in range(n) for j in range(n)]
    out = dict(zip(names, s))
    if grad_p is not None:
        out.update((f"gradp{i}", g) for i, g in enumerate(samples(grid, grad_p)))
    return out
