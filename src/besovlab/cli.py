"""Command-line harness.

Commands: norms, simulate, phi (simulate with mode=phi), verify,
smallness.  Exit codes: 0 pass, 1 soft verification failure, 2 usage or
configuration error, 3 solver abort (partial outputs preserved).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import sys
import time
import warnings
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .linsolve import (CflViolationError, EllipticConvergenceError,
                       NonPositiveCoefficientError, TimeGrid)
from .norms import BesovSpec, besov_norm, l2_norm
from .oldroyd import (
    ConstraintResiduals,
    DensityFloorError,
    FluidState,
    PhysicalParams,
    make_initial_data,
    phi_iteration,
    run,
    run_coupled,
)
from .snapshots import SnapshotFormatError, read_snapshot, state_samples, write_snapshot
from .spectral import GridSpec, SpectralField
from .verify import (
    SMALLNESS_COLUMNS,
    EnsembleSpec,
    RatioReport,
    band_safe_tuple,
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

ABORT_ERRORS = (CflViolationError, DensityFloorError, EllipticConvergenceError,
                NonPositiveCoefficientError)
RESIDUAL_COLUMNS = ["time"] + [f.name for f in fields(ConstraintResiduals)]
NORM_COLUMNS = ["time", "norm_name", "s", "p", "r", "value"]


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


REQUIRED = None  # the default of a key that a config must spell out
# The config schema, one row a key: (section, key, kind, default).  Section ""
# is the top level and "norms" each norm spec.  A kind is "object", "str",
# "norms" (a list of objects), "int", "number" (finite; JSON true and false
# count as neither), "exponent" (a number or "inf") or a tuple of the values
# allowed.  Value checks are the run objects' constructors' own.
CONFIG_SCHEMA = (
    ("", "grid", "object", REQUIRED), ("", "params", "object", REQUIRED),
    ("", "time", "object", REQUIRED), ("", "initial", "object", REQUIRED),
    ("", "mode", ("direct", "phi", "coupled"), REQUIRED),
    ("", "output_dir", "str", "out"), ("", "norms", "norms", []),
    ("grid", "dim", "int", REQUIRED), ("grid", "M", "int", REQUIRED),
    ("params", "mu", "number", REQUIRED), ("params", "sigma_floor", "number", 0.1),
    ("time", "T", "number", REQUIRED), ("time", "dt", "number", REQUIRED),
    ("time", "save_stride", "int", 1),
    ("initial", "family", ("exact_gradient", "general"), REQUIRED),
    ("initial", "amplitude", "number", REQUIRED), ("initial", "seed", "int", 0),
    ("norms", "name", ("sigma", "velocity", "h", "grad_p"), REQUIRED),
    ("norms", "s", "number", REQUIRED), ("norms", "p", "exponent", 2),
    ("norms", "r", "exponent", 1),
)


def _checked(name: str, value, kind):
    """`value` of the config key `name` if it is of `kind`: an object comes
    back resolved (`_resolved`), a norm list as its resolved specs and an
    exponent as a float (math.inf for "inf")."""
    if kind == "object":
        _expect(isinstance(value, dict), f"{name} must be a JSON object")
        return _resolved(name, value)
    if kind == "norms":
        _expect(isinstance(value, list) and all(isinstance(v, dict) for v in value),
                f"{name} must be a list of objects")
        return [_resolved("norms", spec) for spec in value]
    if kind == "exponent":
        if value in ("inf", "Infinity"):
            return math.inf
        _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
                f"{name} must be a number or 'inf'")
        return float(value)
    if kind == "str":
        _expect(isinstance(value, str), f"{name} must be a string, got {value!r}")
    elif isinstance(kind, tuple):
        _expect(value in kind, f"{name} must be one of {', '.join(kind)}, got {value!r}")
    else:
        integer = kind == "int"
        ok = isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
        _expect(ok, f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
        _expect(isinstance(value, int) or math.isfinite(value),
                f"{name} must be finite, got {value!r}")
    return value


def _resolved(section: str, values: dict) -> dict:
    """The keys of `section`'s schema rows, each read from `values` or, when
    absent, its default, and checked; any other key in `values` is a
    misspelling."""
    rows = {key: (kind, default) for sec, key, kind, default in CONFIG_SCHEMA if sec == section}
    prefix = f"{section}." if section else ""
    for key in values:
        _expect(key in rows, f"unknown config key {prefix + key!r}")
    out = {}
    for key, (kind, default) in rows.items():
        _expect(key in values or default is not REQUIRED, f"config missing {prefix + key!r}")
        out[key] = _checked(prefix + key, values.get(key, default), kind)
    return out


def load_config(path):
    """Read a run configuration; returns (cfg, validate_config(cfg))."""
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
    """Check `cfg` against CONFIG_SCHEMA and build the run objects once;
    returns (values, grid, params, tg, norm_specs), `values` being `cfg`
    resolved (`_resolved`): every default filled in."""
    _expect(isinstance(cfg, dict), "config must be a JSON object")
    values = _resolved("", cfg)
    g, p, t, ini = (values[key] for key in ("grid", "params", "time", "initial"))
    _expect(ini["amplitude"] >= 0, "initial.amplitude must be nonnegative")
    _expect(ini["seed"] >= 0, f"initial.seed must be nonnegative, got {ini['seed']}")
    grid = _build("grid", lambda: GridSpec(g["dim"], g["M"]))
    params = _build("params", lambda: PhysicalParams(p["mu"], p["sigma_floor"]))
    tg = _build("time", lambda: TimeGrid(t["T"], t["dt"], t["save_stride"]))
    norm_specs = [(spec["name"], _build("norms", lambda: BesovSpec(
        float(spec["s"]), spec["p"], spec["r"]))) for spec in values["norms"]]
    return values, grid, params, tg, norm_specs


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


def _make_out_dir(path) -> Path:
    """Create the output directory `path` and its parents; a path that
    cannot be made a directory is a ConfigError that names it."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: "
                          f"{exc.strerror or exc}") from exc
    return out_dir


def _write_csv(path: Path | None, fieldnames: list[str], rows: list[dict]) -> Path | None:
    """Write `rows` under the header `fieldnames` to `path`, or to stdout
    when it is None: floats as %.17g, a key a row lacks as an empty cell.
    Returns `path`."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames)
        w.writeheader()
        for row in rows:
            cells = {k: row.get(k) for k in fieldnames}
            w.writerow({k: f"{v:.17g}" if isinstance(v, float) else v for k, v in cells.items()})
    return path


def _groups(state: FluidState) -> dict[str, SpectralField]:
    """The fields a config's norm specs name, by name; grad_p is zero when
    the state has no pressure gradient."""
    grid, grad_p = state.grid, state.pressure_grad
    if grad_p is None:
        grad_p = SpectralField(grid, np.zeros((grid.dim,) + grid.coeff_shape, complex))
    return {"sigma": state.sigma, "velocity": state.velocity, "h": state.h,
            "grad_p": grad_p}


def _norm_rows(fields: dict[str, SpectralField], t: float, norm_specs) -> list[dict]:
    """The `norms.csv` rows at time t: one per (name, spec) of `norm_specs`,
    the spec's norm of fields[name]."""
    return [{"time": t, "norm_name": f"{name}:{spec.name}", "s": spec.s, "p": spec.p,
             "r": spec.r, "value": besov_norm(fields[name], spec).value}
            for name, spec in norm_specs]


# -- norms command ----------------------------------------------------------------


def cmd_norms(args) -> int:
    try:
        grid, fields = read_snapshot(args.snapshot)
    except FileNotFoundError:
        print(f"error: snapshot {args.snapshot} not found", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot read snapshot {args.snapshot}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except SnapshotFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    specs = []
    for text in args.spec or [f"{grid.dim / 2.0}:2:1"]:
        try:
            s, p, r = (float(x) for x in text.split(":"))
            _expect(math.isfinite(s), f"norm s must be finite, got {s!r}")
            specs.append(BesovSpec(s, p, r))
        except ValueError as exc:
            print(f"error: bad norm spec {text!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    rows = _norm_rows(fields, 0.0, [(name, spec) for name in fields for spec in specs])
    path = _make_out_dir(args.out) / "norms.csv" if args.out else None
    _write_csv(path, NORM_COLUMNS, rows)
    return EXIT_OK


# -- simulate ----------------------------------------------------------------------


def cmd_simulate(args, mode_override: str | None = None) -> int:
    cfg, (values, grid, params, tg, norm_specs) = load_config(args.config)
    mode = mode_override or values["mode"]
    out_dir = _make_out_dir(args.out or values["output_dir"])
    manifest = Manifest(out_dir, cfg)

    ini = values["initial"]
    seed = args.seed if args.seed is not None else ini["seed"]
    path = out_dir / "config.json"
    path.write_text(json.dumps({**cfg, "initial": {**cfg["initial"], "seed": seed}},
                               indent=2, sort_keys=True))
    manifest.add(path)

    snap_index = [0]

    def on_save(t, state, s):
        name = f"snapshot_{snap_index[0]:06d}.bin"
        write_snapshot(out_dir / name, grid, state_samples(state, s))
        manifest.add(out_dir / name)
        snap_index[0] += 1

    report = {}

    def note(message, *_):  # a warning: one line of ours and a manifest entry
        print(f"warning: {message}", file=sys.stderr)
        report.setdefault("warnings", []).append(str(message))

    try:
        state0, compat = make_initial_data(ini["family"], float(ini["amplitude"]), seed, grid)
        report["compatibility"] = compat.as_dict()
        # built per call, so that a rebinding of `run` or `phi_iteration` here is called
        evolve = {"direct": run, "coupled": run_coupled, "phi": phi_iteration}[mode]
        with warnings.catch_warnings():
            warnings.simplefilter("default")  # once per warning and call site
            warnings.showwarning = note
            result = evolve(state0, params, tg, on_save=on_save)
        if mode == "phi":
            phi = result.report
            rows = [{"outer_iter": i + 1, "distance": dist, **mon} for i, (dist, mon)
                    in enumerate(zip(phi.distances, phi.monitors))]
            manifest.add(_write_csv(out_dir / "contraction.csv", [
                "outer_iter", "distance", "in_admissible_set", "sigma_sup",
                "velocity_smoothing", "sup_energy"], rows))
            report.update(converged=phi.converged, last_distance=phi.distances[-1])
        if mode == "coupled":
            direct = run(state0, params, tg)
            rows = [{"time": t, "l2_distance": l2_norm(a.coeffs - b.coeffs, grid)}
                    for t, a, b in zip(result.times, result.states, direct.states)]
            manifest.add(_write_csv(out_dir / "cross_formulation.csv",
                                    ["time", "l2_distance"], rows))
    except ABORT_ERRORS as exc:
        manifest.write({"aborted": True, "error": f"{type(exc).__name__}: {exc}", **report})
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ABORT

    norm_rows = [row for t, st in zip(result.times, result.states)
                 for row in _norm_rows(_groups(st), float(t), norm_specs)]
    manifest.add(_write_csv(out_dir / "norms.csv", NORM_COLUMNS, norm_rows))
    manifest.add(_write_csv(out_dir / "residuals.csv", RESIDUAL_COLUMNS, result.residual_rows))
    if mode == "phi" and not phi.converged:
        message = (f"fixed point not reached: last distance {phi.distances[-1]:.3g} > "
                   f"tol {phi.tol:g} after {phi.iterations} iterations")
        manifest.write({"aborted": True, "error": message, **report})
        print(f"solver abort: {message}", file=sys.stderr)
        return EXIT_SOLVER_ABORT
    manifest.write({"aborted": False, **report})
    return EXIT_OK


# -- verify --------------------------------------------------------------------------


SUITES = ("bernstein", "products", "loginterp", "commutator", "scaling",
          "smallness", "all")


def _report_rows(reports: list[RatioReport]):
    """A report's summary without its extras, its params as JSON."""
    return [{**{key: value for key, value in rep.as_dict().items() if key not in rep.extras},
             "params": json.dumps(rep.params)} for rep in reports]


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 7
    grid = _build("--grid-m", lambda: GridSpec(2, args.grid_m))
    wide_grid = GridSpec(2, max(64, args.grid_m))
    ens = _build("--count", lambda: EnsembleSpec(count=args.count, seed=seed))
    text = args.alphas or "1e-3,3e-3,1e-2"
    alphas = _build("--alphas", lambda: [float(a) for a in text.split(",")])
    _expect(all(0 <= a < math.inf for a in alphas) and sum(a > 0 for a in alphas) >= 2,
            f"--alphas must be finite, nonnegative and hold at least two positive "
            f"values, got {text!r}")
    _build("--T/--dt", lambda: TimeGrid(args.T, args.dt))
    out_dir = _make_out_dir(args.out or "verify_out")
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
                sig, vel, h = band_safe_tuple(wide_grid, seed, m=1)
                info = verify_scaling(sig, vel, h, m=1)
                summary.append({"experiment": "scaling", "params": info,
                                "stable": True})
            elif suite == "smallness":
                rows = smallness_experiment(
                    alphas, args.T, grid, PhysicalParams(mu=1.0),
                    dt=args.dt, seed=seed)
                manifest.add(_write_csv(out_dir / "smallness.csv", SMALLNESS_COLUMNS, rows))
                failed = [f"smallness: alpha {r['alpha']:g} failed: {r['error']}"
                          for r in rows if not r["ok"]]
                ratios = [r["energy_over_alpha"] for r in rows if r["ok"] and r["alpha"] > 0]
                spread_ok = bool(ratios) and max(ratios) <= 2.0 * min(ratios)
                try:
                    slope = pressure_slope(rows)
                except ValueError:  # fewer than two successful runs to fit
                    slope = float("nan")
                slope_ok = abs(slope - 2.0) <= 0.3
                summary.append({"experiment": "smallness",
                                "params": {"alphas": alphas, "T": args.T},
                                "energy_ratio_spread_ok": spread_ok,
                                "pressure_slope": slope,
                                "stable": spread_ok and slope_ok and not failed})
                hard_failures += failed
                if not (spread_ok and slope_ok):
                    hard_failures.append("smallness criteria not met")
        except AssertionError as exc:
            hard_failures.append(f"{suite}: {exc}")
        print(f"verify {suite}: {time.perf_counter() - t0:.2f}s")

    rows = _report_rows(reports)
    if rows:
        manifest.add(_write_csv(out_dir / "ratio_reports.csv", list(rows[0]), rows))
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
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in reversed(range(len(argv) - 1)):  # argparse would read `-1:2:1` as an option
        if argv[i] == "--spec":
            argv[i:i + 2] = [f"--spec={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; keep that contract
        return int(exc.code) if exc.code else 0
    if args.command in ("simulate", "phi") and not args.config:
        print("error: --config is required for simulate/phi", file=sys.stderr)
        return EXIT_USAGE
    try:
        _expect(args.seed is None or args.seed >= 0,
                f"--seed must be nonnegative, got {args.seed}")
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
