import json

import numpy as np
import pytest

from besovlab.linsolve import TimeGrid
from besovlab.oldroyd import (PhysicalParams, compute_pressure, make_initial_data,
                              momentum_forcing, run, split_state)
from besovlab.snapshots import (
    SnapshotFormatError,
    read_snapshot,
    state_samples,
    write_snapshot,
)
from besovlab.spectral import GridSpec, gradient, samples
from conftest import field_of


def test_round_trip(tmp_path, grid2_32):
    f = field_of(grid2_32, lambda x, y: np.cos(x) + 0.3 * np.sin(2 * y))
    g = field_of(grid2_32, lambda x, y: np.sin(x + y))
    path = tmp_path / "snap.bin"
    write_snapshot(path, grid2_32, {"alpha": samples(grid2_32, f), "beta": samples(grid2_32, g)})
    grid, fields = read_snapshot(path)
    assert grid == grid2_32
    assert list(fields) == ["alpha", "beta"]
    for name, orig in (("alpha", f), ("beta", g)):
        assert np.max(np.abs(fields[name] - orig)) < 1e-14


def test_header_contents(tmp_path, grid2_32):
    f = field_of(grid2_32, lambda x, y: np.cos(x))
    path = tmp_path / "snap.bin"
    write_snapshot(path, grid2_32, {"u": samples(grid2_32, f)})
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header == {"dim": 2, "M": 32, "fields": ["u"],
                      "layout": "row-major", "scalar": "float64-le"}


def test_missing_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 64)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_bad_json(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"{not json\n" + b"\x00" * 16)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_truncated_payload(tmp_path, grid2_32):
    f = field_of(grid2_32, lambda x, y: np.cos(x))
    path = tmp_path / "snap.bin"
    write_snapshot(path, grid2_32, {"u": samples(grid2_32, f)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


GOOD_HEADER = {"dim": 2, "M": 16, "fields": ["u", "v"], "layout": "row-major",
               "scalar": "float64-le"}


@pytest.mark.parametrize("header", [
    5,
    {**GOOD_HEADER, "fields": 3},
    {**GOOD_HEADER, "fields": "uv"},
    {**GOOD_HEADER, "fields": ["u", 5]},
    {**GOOD_HEADER, "fields": ["u", "u"]},
    {**GOOD_HEADER, "dim": [2]},
    {**GOOD_HEADER, "dim": 2.7},
    {**GOOD_HEADER, "M": "16"},
], ids=["number", "fields_number", "fields_string", "fields_not_names",
        "fields_duplicate", "dim_list", "dim_float", "M_string"])
def test_bad_header_rejected(tmp_path, header):
    # the payload holds two 16 x 16 fields, so only the header is at fault
    path = tmp_path / "bad.bin"
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"\0" * (2 * 8 * 16 * 16))
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_state_fields_names(grid2_32):
    st, _ = make_initial_data("general", 1e-2, 3, grid2_32)
    fields = state_samples(grid2_32, samples(grid2_32, st), None)
    assert set(fields) == {"sigma", "v0", "v1", "h00", "h01", "h10", "h11"}
    terms, s, _ = momentum_forcing(grid2_32, st, 1.0)
    grad_p = gradient(grid2_32, compute_pressure(grid2_32, s[0], terms[1:3]).u)
    fields = state_samples(grid2_32, samples(grid2_32, st), grad_p)
    assert "gradp0" in fields and "gradp1" in fields


@pytest.mark.parametrize("dim,m", [(2, 32), (3, 16)], ids=["2d_m32", "3d_m16"])
def test_save_snapshot_from_stage_samples(tmp_path, dim, m):
    """A run's save writes the (sigma, v, h) samples its first stage formed
    and one batched sample of grad P: the bytes of sampling each field on
    its own."""
    grid = GridSpec(dim, m)
    st, _ = make_initial_data("general", 0.05, 5, grid)
    saved = []
    res = run(grid, st, PhysicalParams(), TimeGrid(0.01, 5e-3),
              on_save=lambda t, s, grad_p: saved.append((s, grad_p)))
    assert len(saved) == 3
    assert np.array_equal(res.pressure_grad, np.stack([grad_p for _, grad_p in saved]))
    for state, (s, grad_p) in zip(res.coeffs, saved):
        sigma, vel, h = split_state(grid, state)
        by_field = {"sigma": sigma}
        by_field.update((f"v{i}", v) for i, v in enumerate(vel))
        by_field.update((f"h{i}{j}", h[i][j]) for i in range(dim) for j in range(dim))
        by_field.update((f"gradp{i}", g) for i, g in enumerate(grad_p))
        write_snapshot(tmp_path / "samples.bin", grid, state_samples(grid, s, grad_p))
        write_snapshot(tmp_path / "fields.bin", grid,
                       {name: samples(grid, f) for name, f in by_field.items()})
        assert (tmp_path / "samples.bin").read_bytes() == (tmp_path / "fields.bin").read_bytes()
        # the state's own samples, taken in one call, give the same bytes
        write_snapshot(tmp_path / "state.bin", grid,
                       state_samples(grid, samples(grid, state), grad_p))
        assert (tmp_path / "state.bin").read_bytes() == (tmp_path / "fields.bin").read_bytes()
