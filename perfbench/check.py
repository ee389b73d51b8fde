"""Compare one invocation's outputs with the reference outputs that the
frozen seed package produced for the same inputs.

The checks return lists of mismatch messages; an empty list means the
outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-12                     # ROADMAP: trajectories agree to 1e-12 relative
PHI_TOL = 1e-8                   # phi_iteration's default convergence tolerance
SHELL_LO, SHELL_HI = 0.75, 8.0 / 3.0
BRACKET_SLACK = 1e-9             # the slack verify_bernstein itself allows
SCALING_TOL = 1e-10              # verify_scaling's default defect tolerance


def _read_snapshot(path: Path) -> dict[str, np.ndarray]:
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    data = np.frombuffer(raw[nl + 1:], dtype="<f8")
    return dict(zip(header["fields"], np.split(data, len(header["fields"]))))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(b), scale)


def compare_snapshots(out: Path, ref: Path) -> list[str]:
    """Final snapshot, each field within RTOL of the largest reference sample."""
    names = sorted(p.name for p in ref.glob("snapshot_*.bin"))
    got = sorted(p.name for p in out.glob("snapshot_*.bin"))
    if got != names:
        return [f"snapshot files {got[:3]}... differ from reference {names[:3]}..."]
    a, b = _read_snapshot(out / names[-1]), _read_snapshot(ref / names[-1])
    if list(a) != list(b):
        return [f"{names[-1]}: fields {list(a)} != reference {list(b)}"]
    scale = max(float(np.max(np.abs(v))) for v in b.values())
    errors = []
    for name in b:
        if a[name].shape != b[name].shape:
            errors.append(f"{names[-1]}:{name}: shape differs from reference")
            continue
        err = float(np.max(np.abs(a[name] - b[name])))
        if err > RTOL * scale:
            errors.append(f"{names[-1]}:{name}: max deviation {err:.3g} "
                          f"> {RTOL:g} x {scale:.3g}")
    return errors


def compare_csv(out: Path, ref: Path, keys: list[str], scale_of) -> list[str]:
    """Same rows, columns and key cells; every other cell within RTOL
    relative to the larger of its reference value and `scale_of(row, col)`."""
    a, b = _read_csv(out), _read_csv(ref)
    if len(a) != len(b) or (b and list(a[0]) != list(b[0])):
        return [f"{out.name}: rows or columns differ from reference"]
    errors = []
    for i, (ra, rb) in enumerate(zip(a, b)):
        if any(ra[k] != rb[k] for k in keys):
            return [f"{out.name} row {i}: {keys} differ from reference"]
        for col in rb:
            if col in keys:
                continue
            x, y = float(ra[col]), float(rb[col])
            if not _close(x, y, scale_of(rb, col)):
                errors.append(f"{out.name} row {i} {col}: {x!r} vs reference {y!r}")
    return errors


def _norm_scale(rows: list[dict]) -> dict[str, float]:
    """Largest value of each named norm over the trajectory."""
    out: dict[str, float] = {}
    for r in rows:
        out[r["norm_name"]] = max(out.get(r["norm_name"], 0.0), abs(float(r["value"])))
    return out


def check_run(out: Path, ref: Path, phi: bool) -> list[str]:
    """simulate / phi outputs: final snapshot, residuals.csv, norms.csv and,
    for phi, convergence of the fixed-point iteration."""
    for name in ("norms.csv", "residuals.csv"):
        if not (out / name).exists():
            return [f"{name} missing"]
    norm_scale = _norm_scale(_read_csv(ref / "norms.csv"))
    # residuals are rounding-level or O(amplitude^2): measure them against
    # the size of the state, read from the norms
    state_scale = max(norm_scale.values(), default=0.0)
    errors = compare_snapshots(out, ref)
    errors += compare_csv(out / "norms.csv", ref / "norms.csv",
                          ["time", "norm_name", "s", "p", "r"],
                          lambda row, col: norm_scale[row["norm_name"]])
    errors += compare_csv(out / "residuals.csv", ref / "residuals.csv", ["time"],
                          lambda row, col: state_scale)
    if phi:
        rows = _read_csv(out / "contraction.csv")
        last = float(rows[-1]["distance"]) if rows else math.inf
        if not last < PHI_TOL:
            errors.append(f"phi iteration did not converge: last distance {last:.3g}")
    return errors


def check_verify_suite(out: Path, ref: Path) -> tuple[list[str], int]:
    """One verify suite: no hard failure; each ratio report has the
    reference's experiment, stability verdict and (for the static ratios)
    extremes; time-integrated product ratios are finite; the Bernstein
    bracket and scaling invariance hold.  Returns (errors, reports checked).

    A stability verdict of False is a legitimate outcome of a seeded
    ensemble (the CLI then exits 1); it is correct when the reference
    reaches the same verdict on the same draws.
    """
    hard = json.loads((out / "manifest.json").read_text()).get("hard_failures")
    if hard:
        return [f"{out.name}: hard failures {hard}"], 0
    errors = []
    reports = 0
    if (ref / "ratio_reports.csv").exists():
        a = _read_csv(out / "ratio_reports.csv")
        b = _read_csv(ref / "ratio_reports.csv")
        if [(r["experiment"], r["params"], r["count"]) for r in a] != \
                [(r["experiment"], r["params"], r["count"]) for r in b]:
            return [f"{out.name}: report list differs from reference"], len(b)
        for ra, rb in zip(a, b):
            reports += 1
            tag = f"{out.name}/{ra['experiment']}"
            if ra["stable"] != rb["stable"]:
                errors.append(f"{tag}: stable={ra['stable']}, reference {rb['stable']}")
            for col in ("max_ratio", "min_ratio", "max_ratio_doubled"):
                x, y = float(ra[col]), float(rb[col])
                if ra["experiment"].endswith("_time"):
                    if not math.isfinite(x):
                        errors.append(f"{tag} {col} not finite: {x!r}")
                elif not _close(x, y, 0.0):
                    errors.append(f"{tag} {col}: {x!r} vs reference {y!r}")
    summary = json.loads((out / "summary.json").read_text())
    for entry in summary:
        if entry["experiment"] == "bernstein":
            lo, hi = entry["min_ratio"], entry["max_ratio_doubled"]
            if not (SHELL_LO - BRACKET_SLACK <= lo and hi <= SHELL_HI + BRACKET_SLACK):
                errors.append(f"bernstein bracket violated: [{lo}, {hi}]")
        elif entry["experiment"] == "scaling":
            reports += 1
            worst = max(entry["params"]["defects"].values())
            if not worst <= SCALING_TOL:
                errors.append(f"scaling invariance defect {worst:.3g}")
    return errors, reports
