"""Command-line harness.

Commands: norms, simulate, phi (simulate with mode=phi), verify,
smallness.  Exit codes: 0 pass, 1 soft verification failure, 2 usage or
configuration error, 3 solver abort (partial outputs preserved).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .linsolve import CflViolationError, EllipticConvergenceError, TimeGrid
from .norms import BesovSpec, besov_norm, write_norm_rows
from .oldroyd import (
    ConstraintResiduals,
    DensityFloorError,
    PhysicalParams,
    _norm_rows_for,
    constraint_residuals,
    make_initial_data,
    phi_iteration,
    run,
    run_coupled,
)
from .snapshots import SnapshotFormatError, read_snapshot, state_fields, write_snapshot
from .spectral import GridSpec
from .verify import (
    EnsembleSpec,
    RatioReport,
    make_grid,
    pressure_slope,
    smallness_experiment,
    verify_bernstein,
    verify_commutator,
    verify_log_interpolation,
    verify_product_laws,
    verify_scaling,
)

EXIT_OK = 0
EXIT_SOFT_FAIL = 1
EXIT_USAGE = 2
EXIT_SOLVER_ABORT = 3

ABORT_ERRORS = (CflViolationError, DensityFloorError, EllipticConvergenceError)
RESIDUAL_COLUMNS = ["time"] + [f.name for f in fields(ConstraintResiduals)]


class ConfigError(ValueError):
    pass


# -- config handling ----------------------------------------------------------


def _expect(cond, message):
    if not cond:
        raise ConfigError(message)


def _build(section: str, make):
    """Return make(); a value the constructors reject becomes a ConfigError."""
    try:
        return make()
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _exponent(value, name):
    if value in ("inf", "Infinity"):
        return math.inf
    _expect(isinstance(value, (int, float)), f"{name} must be a number or 'inf'")
    return float(value)


def load_config(path):
    """Read a run configuration; returns (cfg, (grid, params, tg, norm_specs))."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return cfg, validate_config(cfg)


def validate_config(cfg: dict):
    """Check the schema and build the run objects once; returns (grid,
    params, tg, norm_specs).  Value checks are the constructors' own."""
    _expect(isinstance(cfg, dict), "config must be a JSON object")
    for key in ("grid", "params", "time", "initial", "mode"):
        _expect(key in cfg, f"config missing {key!r}")
    for key in ("grid", "params", "time", "initial"):
        _expect(isinstance(cfg[key], dict), f"{key} must be a JSON object")
    g, p, t, ini = cfg["grid"], cfg["params"], cfg["time"], cfg["initial"]
    _expect("dim" in g and "M" in g, "grid needs dim and M")
    grid = _build("grid", lambda: GridSpec(g["dim"], g["M"]))
    params = _build("params", lambda: PhysicalParams(p.get("mu", 0),
                                                     p.get("sigma_floor", 0.1)))
    tg = _build("time", lambda: TimeGrid(t.get("T", 0), t.get("dt", 0),
                                         int(t.get("save_stride", 1))))
    _expect(ini.get("family") in ("exact_gradient", "general"),
            "initial.family must be exact_gradient or general")
    amplitude = ini.get("amplitude")
    _expect(isinstance(amplitude, (int, float)) and amplitude >= 0,
            "initial.amplitude must be a nonnegative number")
    _expect(isinstance(ini.get("seed", 0), int), "initial.seed must be an integer")
    _expect(cfg["mode"] in ("direct", "phi", "coupled"),
            "mode must be direct, phi, or coupled")
    norm_specs = []
    for spec in cfg.get("norms", []):
        _expect(spec.get("name") in ("sigma", "velocity", "h", "grad_p"),
                "norm name must be one of sigma, velocity, h, grad_p")
        _expect("s" in spec, "norm spec needs s")
        norm_specs.append((spec["name"], _build("norms", lambda: BesovSpec(
            float(spec["s"]), _exponent(spec.get("p", 2), "norm p"),
            _exponent(spec.get("r", 1), "norm r")))))
    return grid, params, tg, norm_specs


# -- manifest ------------------------------------------------------------------


class Manifest:
    def __init__(self, out_dir: Path, config: dict | None):
        self.out_dir = out_dir
        self.files: list[str] = []
        self.started = datetime.now(timezone.utc).isoformat()
        self.config_hash = None
        if config is not None:
            blob = json.dumps(config, sort_keys=True).encode()
            self.config_hash = hashlib.sha256(blob).hexdigest()

    def add(self, path: Path) -> Path:
        rel = path.relative_to(self.out_dir)
        self.files.append(str(rel))
        return path

    def write(self, extra: dict | None = None):
        doc = {
            "tool": "besovlab",
            "version": __version__,
            "started": self.started,
            "finished": datetime.now(timezone.utc).isoformat(),
            "output_dir": str(self.out_dir),
            "config_hash": self.config_hash,
            "files": sorted(self.files),
        }
        if extra:
            doc.update(extra)
        (self.out_dir / "manifest.json").write_text(json.dumps(doc, indent=2))


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]):
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames)
        w.writeheader()
        for row in rows:
            w.writerow({k: _fmt_cell(row.get(k)) for k in fieldnames})


def _fmt_cell(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return x


# -- norms command ----------------------------------------------------------------


def cmd_norms(args) -> int:
    try:
        grid, fields = read_snapshot(args.snapshot)
    except FileNotFoundError:
        print(f"error: snapshot {args.snapshot} not found", file=sys.stderr)
        return EXIT_USAGE
    except SnapshotFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    specs = []
    for text in args.spec or [f"{grid.dim / 2.0}:2:1"]:
        try:
            s_str, p_str, r_str = text.split(":")
            specs.append(BesovSpec(float(s_str),
                                   math.inf if p_str == "inf" else float(p_str),
                                   math.inf if r_str == "inf" else float(r_str)))
        except ValueError as exc:
            print(f"error: bad norm spec {text!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    rows = []
    for name, field in fields.items():
        for spec in specs:
            val = besov_norm(field, spec).value
            rows.append({"time": 0.0, "norm_name": f"{name}:{spec.name}",
                         "s": spec.s, "p": spec.p, "r": spec.r, "value": val})
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_norm_rows(out_dir / "norms.csv", rows)
    else:
        w = csv.writer(sys.stdout)
        w.writerow(["time", "norm_name", "s", "p", "r", "value"])
        for row in rows:
            w.writerow([_fmt_cell(row[k]) for k in
                        ("time", "norm_name", "s", "p", "r", "value")])
    return EXIT_OK


# -- simulate ----------------------------------------------------------------------


def cmd_simulate(args, mode_override: str | None = None) -> int:
    cfg, (grid, params, tg, norm_specs) = load_config(args.config)
    mode = mode_override or cfg["mode"]
    out_dir = Path(args.out or cfg.get("output_dir", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(out_dir, cfg)

    ini = cfg["initial"]
    seed = args.seed if args.seed is not None else int(ini.get("seed", 0))
    state0, compat = make_initial_data(ini["family"], float(ini["amplitude"]),
                                       seed, grid)
    cfg_copy = dict(cfg)
    cfg_copy["initial"] = {**ini, "seed": seed}
    path = out_dir / "config.json"
    path.write_text(json.dumps(cfg_copy, indent=2, sort_keys=True))
    manifest.add(path)

    snap_index = [0]

    def on_save(t, state):
        name = f"snapshot_{snap_index[0]:06d}.bin"
        write_snapshot(out_dir / name, grid, state_fields(state))
        manifest.add(out_dir / name)
        snap_index[0] += 1

    try:
        if mode == "phi":
            phi = phi_iteration(state0, params, tg)
            for i, t in enumerate(phi.times):
                on_save(t, phi.states[i])
            norm_rows = [row for t, st in zip(phi.times, phi.states)
                         for row in _norm_rows_for(st, float(t), norm_specs)]
            residual_rows = [{"time": t, **constraint_residuals(st).as_dict()}
                             for t, st in zip(phi.times, phi.states)]
            rows = []
            for i, (dist, mon) in enumerate(zip(phi.report.distances,
                                                phi.report.monitors)):
                rows.append({"outer_iter": i + 1, "distance": dist,
                             "in_admissible_set": mon.get("in_admissible_set", ""),
                             **{k: v for k, v in mon.items()
                                if k != "in_admissible_set"}})
            path = out_dir / "contraction.csv"
            _write_csv(path, ["outer_iter", "distance", "in_admissible_set",
                              "sigma_sup", "velocity_smoothing", "sup_energy"], rows)
            manifest.add(path)
        else:
            evolve = run_coupled if mode == "coupled" else run
            result = evolve(state0, params, tg, norm_specs=norm_specs, on_save=on_save)
            norm_rows, residual_rows = result.norm_rows, result.residual_rows
        if mode == "coupled":
            direct = run(state0, params, tg)
            rows = [{"time": t, "l2_distance": _state_l2_distance(a, b)}
                    for t, a, b in zip(result.times, result.states, direct.states)]
            path = out_dir / "cross_formulation.csv"
            _write_csv(path, ["time", "l2_distance"], rows)
            manifest.add(path)
    except ABORT_ERRORS as exc:
        manifest.write({"aborted": True, "error": f"{type(exc).__name__}: {exc}",
                        "compatibility": vars(compat)})
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ABORT

    path = out_dir / "norms.csv"
    write_norm_rows(path, norm_rows)
    manifest.add(path)
    path = out_dir / "residuals.csv"
    _write_csv(path, RESIDUAL_COLUMNS, residual_rows)
    manifest.add(path)
    manifest.write({"aborted": False, "compatibility": vars(compat)})
    return EXIT_OK


def _state_l2_distance(a, b) -> float:
    acc = 0.0
    acc += float(np.sum(np.abs(a.sigma.coeffs - b.sigma.coeffs) ** 2))
    for x, y in zip(a.velocity, b.velocity):
        acc += float(np.sum(np.abs(x.coeffs - y.coeffs) ** 2))
    for x, y in zip(a.h_flat(), b.h_flat()):
        acc += float(np.sum(np.abs(x.coeffs - y.coeffs) ** 2))
    dim = a.grid.dim
    return math.sqrt(acc) * (2 * math.pi) ** (dim / 2.0)


# -- verify --------------------------------------------------------------------------


SUITES = ("bernstein", "products", "loginterp", "commutator", "scaling",
          "smallness", "all")


def _report_rows(reports: list[RatioReport]):
    rows = []
    for rep in reports:
        rows.append({
            "experiment": rep.name, "params": json.dumps(rep.params),
            "max_ratio": rep.max_ratio, "min_ratio": rep.min_ratio,
            "count": rep.count, "stable": rep.stable,
            "max_ratio_doubled": rep.max_ratio_doubled,
        })
    return rows


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; choose from {SUITES}",
              file=sys.stderr)
        return EXIT_USAGE
    seed = args.seed if args.seed is not None else 7
    grid = _build("--grid-m", lambda: make_grid(2, args.grid_m))
    wide_grid = make_grid(2, max(64, args.grid_m))
    ens = _build("--count", lambda: EnsembleSpec(count=args.count, seed=seed))
    out_dir = Path(args.out or "verify_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(out_dir, None)
    hard_failures: list[str] = []
    reports: list[RatioReport] = []
    summary: list[dict] = []

    suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
    for suite in suites:
        t0 = time.perf_counter()
        try:
            if suite == "bernstein":
                for s in (0.0, 1.0, grid.dim / 2.0):
                    reports.append(verify_bernstein(BesovSpec(s, 2.0, 1.0), ens, grid))
            elif suite == "products":
                reports.extend(verify_product_laws(1.0, 1.0, 2.0, ens, wide_grid))
            elif suite == "loginterp":
                reports.append(verify_log_interpolation(ens, 1.0, 0.5, 2.0, grid))
            elif suite == "commutator":
                reports.append(verify_commutator(ens, 1.0, 1.0, 2.0, wide_grid))
            elif suite == "scaling":
                from .verify import band_safe_tuple

                sig, vel, h = band_safe_tuple(wide_grid, seed, m=1)
                info = verify_scaling(sig, vel, h, m=1)
                summary.append({"experiment": "scaling", "params": info,
                                "stable": True})
            elif suite == "smallness":
                alphas = [float(a) for a in (args.alphas or "1e-3,3e-3,1e-2").split(",")]
                rows = smallness_experiment(
                    alphas, args.T, grid, PhysicalParams(mu=1.0),
                    dt=args.dt, seed=seed)
                path = out_dir / "smallness.csv"
                _write_csv(path, list(rows[0].keys()), rows)
                manifest.add(path)
                ok_rows = [r for r in rows if r.get("ok")]
                ratios = [r["energy_over_alpha"] for r in ok_rows if r["alpha"] > 0]
                spread_ok = bool(ratios) and max(ratios) <= 2.0 * min(ratios)
                slope = pressure_slope(rows) if len(ok_rows) >= 2 else float("nan")
                slope_ok = abs(slope - 2.0) <= 0.3
                summary.append({"experiment": "smallness",
                                "params": {"alphas": alphas, "T": args.T},
                                "energy_ratio_spread_ok": spread_ok,
                                "pressure_slope": slope,
                                "stable": spread_ok and slope_ok})
                if not (spread_ok and slope_ok):
                    hard_failures.append("smallness criteria not met")
        except AssertionError as exc:
            hard_failures.append(f"{suite}: {exc}")
        print(f"verify {suite}: {time.perf_counter() - t0:.2f}s")

    rows = _report_rows(reports)
    if rows:
        path = out_dir / "ratio_reports.csv"
        _write_csv(path, list(rows[0].keys()), rows)
        manifest.add(path)
    summary.extend(rep.as_dict() for rep in reports)
    path = out_dir / "summary.json"
    path.write_text(json.dumps(summary, indent=2, default=str))
    manifest.add(path)
    manifest.write({"hard_failures": hard_failures})

    unstable = [rep.name for rep in reports if not rep.stable]
    if hard_failures:
        print("hard failures:", "; ".join(hard_failures), file=sys.stderr)
        return EXIT_SOFT_FAIL
    if unstable:
        print("unstable ratios:", ", ".join(unstable), file=sys.stderr)
        return EXIT_SOFT_FAIL
    return EXIT_OK


def cmd_smallness(args) -> int:
    args.suite = "smallness"
    return cmd_verify(args)


# -- entry point ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="besovlab",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("norms", help="dyadic norms of a snapshot file")
    p.add_argument("snapshot")
    p.add_argument("--spec", action="append",
                   help="norm spec s:p:r (repeatable; p, r may be 'inf')")
    add_common(p)
    p.set_defaults(fn=cmd_norms)

    for name, mode in (("simulate", None), ("phi", "phi")):
        p = sub.add_parser(name, help=f"run the evolution ({name})")
        add_common(p)
        p.set_defaults(fn=lambda a, m=mode: cmd_simulate(a, m))

    for name, fn in (("verify", cmd_verify), ("smallness", cmd_smallness)):
        p = sub.add_parser(name, help=f"{name} experiments")
        if name == "verify":
            p.add_argument("suite", choices=SUITES)
        p.add_argument("--count", type=int, default=48, help="ensemble size")
        p.add_argument("--grid-m", type=int, default=32, help="grid points per axis")
        p.add_argument("--alphas", default=None, help="comma list of data sizes")
        p.add_argument("--T", type=float, default=10.0, help="horizon for smallness")
        p.add_argument("--dt", type=float, default=0.01, help="time step for smallness")
        add_common(p)
        p.set_defaults(fn=fn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; keep that contract
        return int(exc.code) if exc.code else 0
    if args.command in ("simulate", "phi") and not args.config:
        print("error: --config is required for simulate/phi", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
