import csv
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import besovlab
from besovlab import cli
from besovlab.cli import main
from besovlab.linsolve import TimeGrid
from besovlab.norms import BesovSpec, besov_norm
from besovlab.oldroyd import (PhysicalParams, compute_pressure, make_initial_data,
                              momentum_forcing, phi_iteration, run)
from besovlab.snapshots import read_snapshot, write_snapshot
from besovlab.spectral import GridSpec, inverse_transform
from besovlab.verify import SMALLNESS_COLUMNS

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

    def test_directory_exit_2(self, tmp_path, capsys):
        assert main(["norms", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot read snapshot {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_sample_exit_2(self, tmp_path, capsys, value):
        grid = GridSpec(2, 16)
        bad = np.zeros(grid.shape)
        bad[3, 5] = value
        path = tmp_path / "bad.bin"
        write_snapshot(path, grid, {"u": np.ones(grid.shape), "v": bad})
        assert main(["norms", str(path)]) == 2
        assert capsys.readouterr().err == "error: field 'v' holds non-finite samples\n"

    def test_malformed_snapshot_exit_2(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"junk with no newline")
        assert main(["norms", str(bad)]) == 2

    def test_zero_snapshot(self, tmp_path, capsys):
        grid = GridSpec(2, 16)
        f = field_of(grid, lambda x, y: 0.0 * x)
        path = tmp_path / "zero.bin"
        write_snapshot(path, grid, {"u": f})
        assert main(["norms", str(path), "--spec", "1:2:1"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert float(rows[0]["value"]) == 0.0

    def test_matches_library_bitwise(self, tmp_path, capsys):
        grid = GridSpec(2, 32)
        f = field_of(grid, lambda x, y: np.cos(x))
        path = tmp_path / "cos.bin"
        write_snapshot(path, grid, {"u": f})
        assert main(["norms", str(path), "--spec", "1:2:1"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        # the snapshot round-trips through samples, exactly as the CLI reads
        _, fields = read_snapshot(path)
        want = besov_norm(fields["u"], BesovSpec(1.0, 2.0, 1.0)).value
        assert rows[0]["value"] == f"{want:.17g}"

    def test_bad_header_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        header = {"dim": [2], "M": 16, "fields": ["u"], "layout": "row-major",
                  "scalar": "float64-le"}
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"\0" * (8 * 16 * 16))
        assert main(["norms", str(path)]) == 2
        assert_one_line_error(capsys)

    def test_bad_spec_exit_2(self, tmp_path, capsys):
        grid = GridSpec(2, 16)
        f = field_of(grid, lambda x, y: 0.0 * x)
        path = tmp_path / "zero.bin"
        write_snapshot(path, grid, {"u": f})
        assert main(["norms", str(path), "--spec", "nonsense"]) == 2
        assert_one_line_error(capsys)
        # a non-finite s is rejected as a config's is, naming s
        for spec in ("nan:2:1", "inf:2:1", "-inf:2:1"):
            assert main(["norms", str(path), f"--spec={spec}"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "norm s must be finite" in err

    def test_negative_s_as_separate_token(self, tmp_path, capsys):
        """`--spec -1:2:1` reads -1:2:1 as the spec, not as an option."""
        grid = GridSpec(2, 16)
        path = tmp_path / "cos.bin"
        write_snapshot(path, grid, {"u": field_of(grid, lambda x, y: np.cos(x + 2 * y))})
        for spec in ("-1:2:1", "-0.5:2:inf"):
            assert main(["norms", str(path), "--spec", spec]) == 0
            separate = capsys.readouterr().out
            assert main(["norms", str(path), f"--spec={spec}"]) == 0
            joined = capsys.readouterr().out
            assert separate == joined and len(joined.splitlines()) == 2
        # a bare trailing --spec is still a usage error
        assert main(["norms", str(path), "--spec"]) == 2


class TestSimulateCommand:
    def test_config_required(self):
        assert main(["simulate"]) == 2

    @pytest.mark.parametrize("cfg", [
        {"grid": {"dim": 5, "M": 16}},
        config_dict(time={"T": 0.05, "dt": 0.03, "save_stride": 1}),
        config_dict(params={"mu": "1", "sigma_floor": 0.1}),
        config_dict(initial={"family": "exact_gradient", "amplitude": "0.1", "seed": 4}),
        config_dict(norms=[{"name": "velocity", "s": 0.0, "p": 0.5, "r": 1}]),
        config_dict(norms=[1]),
        config_dict(norms="velocity"),
        config_dict(norms={"name": "velocity", "s": 0.0}),
        config_dict(time={"T": 0.05, "dt": 0.01, "save_stride": 1.5}),
        config_dict(time={"T": 0.05, "dt": 0.01, "save_stride": "3"}),
        config_dict(time={"T": 0.05, "dt": 0.01, "save_stride": True}),
        config_dict(grid={"dim": "2", "M": 16}),
        config_dict(params={"mu": 1.0, "sigma_floor": [0.1]}),
        config_dict(time={"T": 0.05, "dt": "0.01", "save_stride": 1}),
        config_dict(time={"T": float("inf"), "dt": 0.01, "save_stride": 1}),
        config_dict(time={"T": 0.05, "dt": float("inf"), "save_stride": 1}),
        config_dict(params={"mu": float("inf"), "sigma_floor": 0.1}),
        config_dict(initial={"family": "exact_gradient", "amplitude": float("inf"),
                             "seed": 4}),
        config_dict(initial={"family": "exact_gradient", "amplitude": True, "seed": 4}),
        config_dict(initial={"family": "exact_gradient", "amplitude": 0.0, "seed": True}),
        config_dict(time={"T": 1e-12, "dt": 0.01, "save_stride": 1}),
        config_dict(norms=[{"name": "velocity", "s": True}]),
        config_dict(norms=[{"name": "velocity", "s": "1"}]),
        config_dict(norms=[{"name": "velocity", "s": float("inf")}]),
        config_dict(norms=[{"name": "velocity", "s": 0.0, "p": True}]),
    ], ids=["dim_5", "steps_not_integer", "mu_string", "amplitude_string",
            "norm_p_below_1", "norms_item_not_object", "norms_string", "norms_object",
            "save_stride_float", "save_stride_string", "save_stride_bool",
            "grid_int_string", "params_float_list", "time_float_string",
            "T_infinity", "dt_infinity", "mu_infinity", "amplitude_infinity",
            "amplitude_bool", "seed_bool", "no_time_step", "norm_s_bool", "norm_s_string",
            "norm_s_infinity", "norm_p_bool"])
    def test_schema_violation_exit_2(self, tmp_path, capsys, cfg):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("cfg,message", [
        (config_dict(grid={"dim": "2", "M": 16}), "grid.dim must be an integer, got '2'"),
        (config_dict(grid={"dim": 2, "M": 16.0}), "grid.M must be an integer, got 16.0"),
        (config_dict(params={"mu": "1", "sigma_floor": 0.1}),
         "params.mu must be a number, got '1'"),
        (config_dict(time={"T": 0.05, "dt": True, "save_stride": 1}),
         "time.dt must be a number, got True"),
    ], ids=["grid_dim", "grid_M", "params_mu", "time_dt"])
    def test_type_error_names_field(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, seed, option, message", [
        ("simulate", -1, [], "initial.seed must be nonnegative, got -1"),
        ("phi", -1, [], "initial.seed must be nonnegative, got -1"),
        ("simulate", 4, ["--seed", "-2"], "--seed must be nonnegative, got -2"),
        ("phi", 4, ["--seed", "-2"], "--seed must be nonnegative, got -2"),
    ], ids=["simulate_config", "phi_config", "simulate_option", "phi_option"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, command, seed, option, message):
        """A negative seed is a configuration error named by its field,
        caught before the output directory is made."""
        cfg = base_config(tmp_path, initial={"family": "exact_gradient",
                                             "amplitude": 1e-3, "seed": seed})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), *option]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        ("params", "sigma_flor"), ("time", "save_strid"), ("initial", "seeed"), (None, "nrms"),
        ("norms", "rr"),
    ], ids=["params_sigma_flor", "time_save_strid", "initial_seeed", "top_nrms", "norm_rr"])
    def test_unknown_key_exit_2(self, tmp_path, capsys, section, key):
        """A key the config schema does not read is a misspelling: it exits 2
        and names the key, before the output directory is made."""
        cfg = config_dict()
        if section is None:
            cfg[key] = cfg["norms"]
        elif section == "norms":
            cfg["norms"][1][key] = 1
        else:
            cfg[section][key] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        name = key if section is None else f"{section}.{key}"
        assert capsys.readouterr().err == f"error: unknown config key {name!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", [
        "grid", "params", "time", "initial", "mode", "grid.dim", "grid.M", "params.mu",
        "time.T", "time.dt", "initial.family", "initial.amplitude"])
    def test_missing_required_key_exit_2(self, tmp_path, capsys, name):
        """Every key without a default is reported the same way when it is
        absent, before the output directory is made."""
        cfg = config_dict()
        *section, key = name.split(".")
        del (cfg[section[0]] if section else cfg)[key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config missing {name!r}\n"
        assert not out.exists()

    def test_defaults_resolved_once(self, tmp_path, monkeypatch):
        """A config that leaves out the keys with defaults writes the same
        outputs to the default directory as one that spells them out."""
        spelled = config_dict(params={"mu": 1.0, "sigma_floor": 0.1},
                              time={"T": 0.05, "dt": 0.01, "save_stride": 1},
                              initial={"family": "general", "amplitude": 1e-3, "seed": 0},
                              output_dir="out")
        omitted = config_dict(params={"mu": 1.0}, time={"T": 0.05, "dt": 0.01},
                              initial={"family": "general", "amplitude": 1e-3})
        files = {}
        for name, cfg in (("spelled", spelled), ("omitted", omitted)):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            Path("run.json").write_text(json.dumps(cfg))
            assert main(["simulate", "--config", "run.json"]) == 0
            files[name] = {p.name: p.read_bytes() for p in Path("out").iterdir()
                           if p.name not in ("config.json", "manifest.json")}
        assert len(files["spelled"]) == 8  # six snapshots and two CSVs
        assert files["omitted"] == files["spelled"]
        stored = json.loads((tmp_path / "omitted" / "out" / "config.json").read_text())
        assert stored == {**omitted, "initial": {**omitted["initial"], "seed": 0}}

    def test_output_dir_not_a_string_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = base_config(tmp_path, output_dir=5)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: output_dir must be a string, got 5\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_out_is_a_file_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        args = (["simulate", "--config", str(base_config(tmp_path))] if command == "simulate"
                else ["verify", "bernstein"])
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot create output directory {out}: File exists\n"
        assert out.read_text() == "not a directory"

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
        st, _ = make_initial_data("general", 0.2, 5, GridSpec(2, 16))
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

    @pytest.mark.parametrize("stride", [2, 3], ids=["at_a_save", "between_saves"])
    def test_density_floor_mid_run_exit_3(self, tmp_path, capsys, stride):
        """min(1 + sigma) of this run falls step by step; the floor sits
        between its values at steps 3 and 4.  The state of step 4 fails the
        check its own first stage makes, the save's (stride 2) or the next
        step's (stride 3), before any output of it: the partial outputs are
        the files of a run that ends at the last save before it."""
        grid = GridSpec(2, 16)
        initial = {"family": "general", "amplitude": 0.5, "seed": 10}
        st, _ = make_initial_data("general", 0.5, 10, grid)
        every = run(st, PhysicalParams(), TimeGrid(0.05, 0.01, save_stride=1))
        mins = [float(inverse_transform(s.sigma).min()) + 1.0 for s in every.states]
        floor = round(0.5 * (mins[3] + mins[4]), 8)
        assert min(mins[:4]) > floor > mins[4]
        last = 3 // stride * stride  # the last save before step 4
        params = {"mu": 1.0, "sigma_floor": floor}

        def simulate(name, t_end):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config_dict(
                params=params, initial=initial,
                time={"T": t_end, "dt": 0.01, "save_stride": stride})))
            return main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)])

        capsys.readouterr()
        assert simulate("aborted", 0.1) == 3
        message = f"min(sigma+1) = {mins[4]:.3g} fell below the floor {floor}"
        assert capsys.readouterr().err == f"solver abort: {message}\n"
        out = tmp_path / "aborted"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["aborted"] is True
        assert manifest["error"] == f"DensityFloorError: {message}"
        names = sorted(p.name for p in out.iterdir())
        snaps = [f"snapshot_{i:06d}.bin" for i in range(last // stride + 1)]
        assert names == ["config.json", "manifest.json"] + snaps
        assert sorted(manifest["files"]) == ["config.json"] + snaps
        assert simulate("completed", last * 0.01) == 0
        for name in snaps:
            assert (out / name).read_bytes() == (tmp_path / "completed" / name).read_bytes()

    @pytest.mark.parametrize("amplitude, error", [
        (2.0, "EllipticConvergenceError"),
        (3.0, "NonPositiveCoefficientError"),
    ])
    def test_initial_data_failure_exit_3(self, tmp_path, capsys, amplitude, error):
        # the weighted-divergence correction of the initial data fails: at 2.0
        # it stalls above its target, at 3.0 the dealiased 1/(1 + sigma0) dips
        # below zero
        cfg = base_config(tmp_path, initial={"family": "general",
                                             "amplitude": amplitude, "seed": 4})
        out = tmp_path / "init_out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["aborted"] is True
        assert manifest["error"].startswith(f"{error}: ")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_initial_sigma_not_positive_exit_3(self, tmp_path, capsys):
        # 1 + sigma0 itself is negative somewhere: the abort names it, not
        # the coefficient of the weighted-divergence correction
        cfg = base_config(tmp_path, time={"T": 0.02, "dt": 0.01, "save_stride": 1},
                          initial={"family": "general", "amplitude": 50.0, "seed": 0})
        out = tmp_path / "init_out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        message = "initial data: min(1+sigma0) = -19.2 is not positive"
        assert capsys.readouterr().err == f"solver abort: {message}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == f"NonPositiveCoefficientError: {message}"

    @pytest.mark.parametrize("mode", ["direct", "coupled", "phi"])
    def test_density_floor_every_mode_exit_3(self, tmp_path, capsys, mode):
        # min(1 + sigma) stays near 0.96 over the run, far below the floor;
        # the initial state is not checked, its first evolved stage is
        cfg = base_config(tmp_path, params={"mu": 1.0, "sigma_floor": 1.5},
                          time={"T": 0.02, "dt": 0.01, "save_stride": 1},
                          initial={"family": "general", "amplitude": 0.1, "seed": 0}, mode=mode)
        out = tmp_path / "floor_out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        message = "min(sigma+1) = 0.96 fell below the floor 1.5"
        assert capsys.readouterr().err.endswith(f"solver abort: {message}\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["aborted"] is True
        assert manifest["error"] == f"DensityFloorError: {message}"

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
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["aborted"] is False and manifest["converged"] is True
        assert manifest["last_distance"] == dists[-1] < 1e-8
        assert "warnings" not in manifest

    def test_phi_unconverged_exit_3(self, tmp_path, capsys, monkeypatch):
        """A fixed-point iteration that stops at `max_outer` above `tol` is a
        solver abort: every output is written, the manifest says so, and
        stderr holds one line naming the last distance and `tol`."""
        monkeypatch.setattr(cli, "phi_iteration", lambda *a, **k: phi_iteration(
            *a, **k, max_outer=1, tol=0.0))
        cfg = base_config(tmp_path, initial={"family": "exact_gradient",
                                             "amplitude": 1e-3, "seed": 5})
        out = tmp_path / "phi_out"
        capsys.readouterr()
        assert main(["phi", "--config", str(cfg), "--out", str(out)]) == 3
        rows = list(csv.DictReader((out / "contraction.csv").read_text().splitlines()))
        last = float(rows[-1]["distance"])
        message = f"fixed point not reached: last distance {last:.3g} > tol 0 after 1 iterations"
        assert capsys.readouterr().err == f"solver abort: {message}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["aborted"] is True and manifest["error"] == message
        assert manifest["converged"] is False and manifest["last_distance"] == last
        snaps = [f"snapshot_{i:06d}.bin" for i in range(4)]  # T 0.05, stride 2
        assert sorted(manifest["files"]) == sorted(
            ["config.json", "contraction.csv", "norms.csv", "residuals.csv"] + snaps)
        assert all((out / name).exists() for name in manifest["files"])

    def test_phi_sigma_warning_one_line(self, tmp_path, capsys, monkeypatch):
        """A large initial sigma is reported once, as a line of the CLI's own
        and a manifest entry, never through Python's warning format."""
        monkeypatch.setattr(cli, "phi_iteration", lambda *a, **k: phi_iteration(
            *a, **k, max_outer=1, tol=1.0))
        cfg = base_config(tmp_path, time={"T": 0.02, "dt": 0.01, "save_stride": 1},
                          initial={"family": "general", "amplitude": 0.3, "seed": 1})
        out = tmp_path / "phi_out"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            assert main(["phi", "--config", str(cfg), "--out", str(out)]) == 0
        assert not leaked
        err = capsys.readouterr().err
        assert err.startswith("warning: initial sigma norm ") and err.count("\n") == 1
        assert err.endswith(" > 0.1; the linearization map may not contract\n")
        assert "UserWarning" not in err and "cli.py" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"] == [err[len("warning: "):-1]]
        assert manifest["converged"] is True

    def test_step_count_beyond_any_index_exit_2(self, tmp_path, capsys):
        """A step count no index can hold is refused before anything is
        allocated; only that value is tested, since a large but
        representable count would allocate."""
        cfg = base_config(tmp_path, time={"T": 0.02, "dt": 1e-300, "save_stride": 1})
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: time: t_end/dt = 2e+298 steps exceed the largest ")
        assert err.count("\n") == 1 and "Traceback" not in err

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


class TestModuleEntryPoint:
    def test_python_m_besovlab(self):
        src = str(Path(besovlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "besovlab", "verify", "--help"],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert "usage:" in run.stdout


class TestVerifyCommand:
    def test_unknown_suite_exit_2(self, tmp_path, capsys):
        # argparse rejects the choice; the usage exit code passes through
        assert main(["verify", "bogus", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("option, value", [
        ("--count", "0"), ("--grid-m", "24"), ("--alphas", "abc"), ("--alphas", ",1e-3"),
        ("--alphas", "0,1e-3"), ("--alphas", "1e-3,inf"), ("--T", "0"), ("--T", "-1"),
        ("--dt", "0")])
    def test_bad_option_value_exit_2(self, tmp_path, capsys, option, value):
        out = tmp_path / "v"
        assert main(["verify", "bernstein", option, value, "--out", str(out)]) == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", [["verify", "bernstein"], ["smallness"]],
                             ids=["verify", "smallness"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "v"
        assert main([*command, "--seed", "-2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed must be nonnegative, got -2\n"
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

    def test_smallness_columns_fixed(self, tmp_path, capsys):
        """A failed run, first or last, neither drops the other rows' columns
        nor loses its own error text, and it is a hard failure (exit 1) that
        names its alpha and error, with the verdict `stable` false."""
        headers = []
        for alphas in ("5000,1e-3,2e-3", "1e-3,2e-3,5000"):
            out = tmp_path / alphas
            assert main(["smallness", "--alphas", alphas, "--T", "0.5", "--dt", "0.01",
                         "--grid-m", "16", "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert "smallness: alpha 5000 failed: CflViolationError: CFL number" in err
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["hard_failures"][0].startswith(
                "smallness: alpha 5000 failed: CflViolationError: CFL number")
            summary, = json.loads((out / "summary.json").read_text())
            assert summary["stable"] is False
            lines = (out / "smallness.csv").read_text().splitlines()
            headers.append(lines[0])
            rows = {r["alpha"]: r for r in csv.DictReader(lines)}
            assert rows["5000"]["ok"] == "False"
            assert rows["5000"]["error"].startswith("CflViolationError: CFL number")
            for alpha in ("0.001", "0.002"):
                assert rows[alpha]["ok"] == "True" and rows[alpha]["error"] == ""
                assert float(rows[alpha]["energy_over_alpha"]) > 0
        assert headers[0] == headers[1] == ",".join(SMALLNESS_COLUMNS)

    def test_smallness_command(self, tmp_path):
        assert main(["smallness", "--alphas", "1e-3,1e-2", "--T", "0.1",
                     "--dt", "0.01", "--grid-m", "16",
                     "--out", str(tmp_path / "s")]) == 0
        rows = list(csv.DictReader(
            (tmp_path / "s" / "smallness.csv").read_text().splitlines()))
        assert len(rows) == 2


class TestBenchmarkContract:
    """What the benchmark harness reads of the package: a run's result has
    no `report`, a fixed point's report counts the map's applications, a
    pressure solve reports its iterations and stagnation, and the commands
    call their work entry points through this module's attributes, looked
    up at call time, so that rebinding one in `cli` reaches every call."""

    ENTRY_POINTS = ("run", "run_coupled", "phi_iteration", "verify_bernstein",
                    "verify_product_laws", "verify_log_interpolation", "verify_commutator",
                    "verify_scaling")

    def test_results(self):
        grid = GridSpec(2, 16)
        st, _ = make_initial_data("exact_gradient", 1e-3, 5, grid)
        tg = TimeGrid(0.02, 0.01)
        assert not hasattr(run(st, PhysicalParams(), tg), "report")
        report = phi_iteration(st, PhysicalParams(), tg).report
        assert report.distances and report.applications == 1 + len(report.distances)
        terms, s, _ = momentum_forcing(grid, st.coeffs, 1.0)
        res = compute_pressure(grid, s[0], terms[1:3])
        assert isinstance(res.iterations, int) and isinstance(res.stagnated, bool)

    def test_entry_points_looked_up_at_call_time(self, tmp_path, monkeypatch):
        calls = Counter()
        for name in self.ENTRY_POINTS:
            monkeypatch.setattr(cli, name, lambda *a, _fn=getattr(cli, name), _name=name, **k:
                                calls.update([_name]) or _fn(*a, **k))
        for mode in ("direct", "coupled", "phi"):
            cfg = base_config(tmp_path, mode=mode, time={"T": 0.02, "dt": 0.01})
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / mode)]) == 0
        # the coupled mode runs the direct evolution too, for its comparison
        assert calls == {"run": 2, "run_coupled": 1, "phi_iteration": 1}
        for suite in ("bernstein", "products", "loginterp", "commutator", "scaling"):
            main(["verify", suite, "--count", "2", "--grid-m", "16",
                  "--out", str(tmp_path / suite)])
        assert calls == {"run": 2, "run_coupled": 1, "phi_iteration": 1,
                         "verify_bernstein": 3, "verify_product_laws": 1,
                         "verify_log_interpolation": 1, "verify_commutator": 1,
                         "verify_scaling": 1}
