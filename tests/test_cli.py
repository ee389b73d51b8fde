import csv
import json

import numpy as np
import pytest

from besovlab.cli import main
from besovlab.norms import BesovSpec, besov_norm
from besovlab.oldroyd import make_initial_data
from besovlab.snapshots import read_snapshot, write_snapshot
from besovlab.spectral import inverse_transform, make_grid

from conftest import field_of


def config_dict(**overrides):
    cfg = {
        "grid": {"dim": 2, "M": 16},
        "params": {"mu": 1.0, "sigma_floor": 0.1},
        "time": {"T": 0.05, "dt": 0.01, "save_stride": 2},
        "initial": {"family": "exact_gradient", "amplitude": 0.0, "seed": 4},
        "mode": "direct",
        "norms": [{"name": "velocity", "s": 0.0, "p": 2, "r": 1},
                  {"name": "sigma", "s": 1.0, "p": 2, "r": "inf"}],
    }
    cfg.update(overrides)
    return cfg


def base_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_dict(**overrides)))
    return path


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestNormsCommand:
    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["norms", str(tmp_path / "nope.bin")]) == 2

    def test_malformed_snapshot_exit_2(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"junk with no newline")
        assert main(["norms", str(bad)]) == 2

    def test_zero_snapshot(self, tmp_path, capsys):
        grid = make_grid(2, 16)
        f = field_of(grid, lambda x, y: 0.0 * x)
        path = tmp_path / "zero.bin"
        write_snapshot(path, grid, {"u": f})
        assert main(["norms", str(path), "--spec", "1:2:1"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert float(rows[0]["value"]) == 0.0

    def test_matches_library_bitwise(self, tmp_path, capsys):
        grid = make_grid(2, 32)
        f = field_of(grid, lambda x, y: np.cos(x))
        path = tmp_path / "cos.bin"
        write_snapshot(path, grid, {"u": f})
        assert main(["norms", str(path), "--spec", "1:2:1"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        # the snapshot round-trips through samples, exactly as the CLI reads
        _, fields = read_snapshot(path)
        want = besov_norm(fields["u"], BesovSpec(1.0, 2.0, 1.0)).value
        assert rows[0]["value"] == f"{want:.17g}"

    def test_bad_spec_exit_2(self, tmp_path):
        grid = make_grid(2, 16)
        f = field_of(grid, lambda x, y: 0.0 * x)
        path = tmp_path / "zero.bin"
        write_snapshot(path, grid, {"u": f})
        assert main(["norms", str(path), "--spec", "nonsense"]) == 2


class TestSimulateCommand:
    def test_config_required(self):
        assert main(["simulate"]) == 2

    @pytest.mark.parametrize("cfg", [
        {"grid": {"dim": 5, "M": 16}},
        config_dict(time={"T": 0.05, "dt": 0.03, "save_stride": 1}),
        config_dict(params={"mu": "1", "sigma_floor": 0.1}),
        config_dict(initial={"family": "exact_gradient", "amplitude": "0.1", "seed": 4}),
        config_dict(norms=[{"name": "velocity", "s": 0.0, "p": 0.5, "r": 1}]),
    ], ids=["dim_5", "steps_not_integer", "mu_string", "amplitude_string",
            "norm_p_below_1"])
    def test_schema_violation_exit_2(self, tmp_path, capsys, cfg):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_zero_amplitude_run(self, tmp_path):
        cfg = base_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        norms = list(csv.DictReader((out / "norms.csv").read_text().splitlines()))
        assert norms and all(float(r["value"]) == 0.0 for r in norms)
        residuals = list(csv.DictReader((out / "residuals.csv").read_text().splitlines()))
        assert residuals and all(float(r["div_velocity"]) == 0.0 for r in residuals)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["aborted"] is False
        listed = set(manifest["files"])
        for name in ("config.json", "norms.csv", "residuals.csv"):
            assert name in listed
        assert any(name.startswith("snapshot_") for name in listed)
        # stored config hash matches the stored copy
        import hashlib

        stored = json.loads((out / "config.json").read_text())
        blob = json.dumps(json.loads(cfg.read_text()), sort_keys=True).encode()
        assert manifest["config_hash"] == hashlib.sha256(blob).hexdigest()
        del stored

    def test_determinism_byte_identical(self, tmp_path):
        cfg = base_config(tmp_path, initial={"family": "general",
                                             "amplitude": 1e-3, "seed": 9})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("norms.csv", "residuals.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        snaps1 = sorted(p.name for p in out1.glob("snapshot_*.bin"))
        for name in snaps1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_solver_abort_exit_3(self, tmp_path):
        # CFL-hostile step size aborts mid-run and preserves partials
        cfg = base_config(
            tmp_path,
            time={"T": 1.0, "dt": 0.5, "save_stride": 1},
            initial={"family": "exact_gradient", "amplitude": 5.0, "seed": 2},
        )
        out = tmp_path / "out_abort"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["aborted"] is True
        assert "CflViolationError" in manifest["error"]
        assert (out / "config.json").exists()

    def test_coupled_density_floor_exit_3(self, tmp_path):
        # same data as the run below: the floor sits above min(1 + sigma0)
        st, _ = make_initial_data("general", 0.2, 5, make_grid(2, 16))
        floor = float(inverse_transform(st.sigma).min()) + 1.0 + 0.01
        cfg = base_config(
            tmp_path,
            params={"mu": 1.0, "sigma_floor": floor},
            initial={"family": "general", "amplitude": 0.2, "seed": 5},
            mode="coupled",
        )
        out = tmp_path / "floor_out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["aborted"] is True
        assert "DensityFloorError" in manifest["error"]
        # the coupled run itself aborts in its first step, not the direct
        # comparison run after it: only the initial slice was saved
        assert [p.name for p in out.glob("snapshot_*.bin")] == ["snapshot_000000.bin"]

    def test_phi_mode(self, tmp_path):
        cfg = base_config(
            tmp_path,
            time={"T": 0.05, "dt": 0.01, "save_stride": 5},
            initial={"family": "exact_gradient", "amplitude": 1e-3, "seed": 5},
            mode="phi",
        )
        out = tmp_path / "phi_out"
        assert main(["phi", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "contraction.csv").read_text().splitlines()))
        assert rows
        dists = [float(r["distance"]) for r in rows]
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_coupled_mode(self, tmp_path):
        cfg = base_config(
            tmp_path,
            time={"T": 0.04, "dt": 0.01, "save_stride": 4},
            initial={"family": "exact_gradient", "amplitude": 1e-3, "seed": 5},
            mode="coupled",
        )
        out = tmp_path / "coupled_out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = list(csv.DictReader(
            (out / "cross_formulation.csv").read_text().splitlines()))
        assert rows
        assert float(rows[-1]["l2_distance"]) <= 1e-6


class TestVerifyCommand:
    def test_unknown_suite_exit_2(self, tmp_path, capsys):
        # argparse rejects the choice; the usage exit code passes through
        assert main(["verify", "bogus", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("option, value", [("--count", "0"), ("--grid-m", "24")])
    def test_bad_option_value_exit_2(self, tmp_path, capsys, option, value):
        out = tmp_path / "v"
        assert main(["verify", "bernstein", option, value, "--out", str(out)]) == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    def test_bernstein_passes(self, tmp_path):
        assert main(["verify", "bernstein", "--count", "8", "--grid-m", "32",
                     "--out", str(tmp_path / "v")]) == 0
        summary = json.loads((tmp_path / "v" / "summary.json").read_text())
        assert all(item["stable"] for item in summary)

    def test_scaling_passes(self, tmp_path):
        assert main(["verify", "scaling", "--out", str(tmp_path / "v")]) == 0

    def test_tiny_ensemble_unstable_exit_1(self, tmp_path):
        # with two samples the ratio maxima move by > 20% (this seed)
        code = main(["verify", "all", "--count", "2", "--grid-m", "32",
                     "--seed", "9", "--alphas", "1e-3,1e-2", "--T", "0.1",
                     "--dt", "0.01", "--out", str(tmp_path / "v")])
        assert code == 1

    def test_smallness_command(self, tmp_path):
        assert main(["smallness", "--alphas", "1e-3,1e-2", "--T", "0.1",
                     "--dt", "0.01", "--grid-m", "16",
                     "--out", str(tmp_path / "s")]) == 0
        rows = list(csv.DictReader(
            (tmp_path / "s" / "smallness.csv").read_text().splitlines()))
        assert len(rows) == 2
