"""The benchmark's workloads: what each one asks of the `besovlab` CLI.

Every workload is a list of CLI calls (one invocation) built from the
workload seed.  Sizes are chosen so that one invocation takes one to three
seconds on a 2-core machine, so a run holds ten or more of them, and so
that each workload stresses a different mix of layers; see README.md for
the per-layer map.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

from check import check_run, check_verify_suite

NORM_SPECS = [{"name": "velocity", "s": 0.0, "p": 2, "r": 1},
              {"name": "h", "s": 1.0, "p": 2, "r": "inf"}]

# the verify suites whose ensembles run; `smallness` is left out because
# its stepper is the one direct_2d already measures
VERIFY_SUITES = ("bernstein", "products", "loginterp", "commutator", "scaling")

# traced names that must record at least one call on every workload
COMMON_LAYERS = ("cli.main", "numpy.fft.", "spectral.product", "norms.besov_norm",
                 "norms.block_lp", "paley.block_multipliers")
DIRECT_LAYERS = COMMON_LAYERS + (
    "cli.cmd_simulate", "oldroyd.run", "oldroyd.make_initial_data",
    "oldroyd.momentum_forcing", "oldroyd.compute_pressure",
    "oldroyd.constraint_residuals", "linsolve.solve_variable_poisson",
    "spectral.advect", "snapshots.write_snapshot", "randfields.")


def run_config(dim: int, m: int, family: str, amplitude: float, t_end: float,
               dt: float, save_stride: int, mode: str) -> dict:
    return {"grid": {"dim": dim, "M": m},
            "params": {"mu": 1.0, "sigma_floor": 0.1},
            "time": {"T": t_end, "dt": dt, "save_stride": save_stride},
            "initial": {"family": family, "amplitude": amplitude, "seed": 0},
            "mode": mode, "norms": NORM_SPECS}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                    # "simulate", "phi" or "verify"
    required: tuple[str, ...]       # traced name prefixes that must be called
    config: dict = field(default_factory=dict)   # simulate / phi run config
    count: int = 0                  # verify ensemble size

    @property
    def steps(self) -> int:
        """Time steps integrated by one direct run or one Φ application."""
        if not self.config:
            return 0
        t = self.config["time"]
        return round(t["T"] / t["dt"])

    def calls(self, seed: int, root: Path) -> list[list[str]]:
        """CLI argument lists of one invocation; inputs and outputs go
        under `root`."""
        root.mkdir(parents=True, exist_ok=True)
        if self.command == "verify":
            return [["verify", suite, "--count", str(self.count), "--seed", str(seed),
                     "--out", str(root / suite)] for suite in VERIFY_SUITES]
        cfg = copy.deepcopy(self.config)
        cfg["initial"]["seed"] = seed
        path = root / "config.json"
        path.write_text(json.dumps(cfg))
        return [[self.command, "--config", str(path), "--out", str(root / "out")]]

    def check(self, root: Path, ref: Path) -> tuple[list[str], int]:
        """(mismatches against the reference outputs, reports checked)."""
        if self.command == "verify":
            errors, reports = [], 0
            for suite in VERIFY_SUITES:
                e, r = check_verify_suite(root / suite, ref / suite)
                errors += e
                reports += r
            return errors, reports
        return check_run(root / "out", ref / "out", phi=self.command == "phi"), 0


WORKLOADS = {w.name: w for w in (
    Workload(
        "direct_2d",
        "2D M=64 direct run: time goes to products, advect and the pressure "
        "solve (~8 iterations a call); monitors and I/O are minor",
        "simulate", DIRECT_LAYERS,
        run_config(2, 64, "general", 0.2, 0.05, 0.005, 10, "direct")),
    Workload(
        "direct_3d",
        "3D M=16 direct run: O(N^4) products, constraint monitors and snapshot "
        "I/O every other step, few pressure iterations",
        "simulate", DIRECT_LAYERS,
        run_config(3, 16, "general", 0.05, 0.02, 0.005, 2, "direct")),
    Workload(
        "phi_2d",
        "2D M=32 fixed-point (phi) mode: the only user of the transport and "
        "heat solvers and of the whole-trajectory norm monitors",
        "phi", COMMON_LAYERS + (
            "cli.cmd_simulate", "oldroyd.phi_iteration", "linsolve.solve_transport",
            "linsolve.solve_heat", "linsolve.solve_variable_poisson",
            "oldroyd.momentum_forcing", "norms.norm_series", "snapshots.write_snapshot"),
        run_config(2, 32, "exact_gradient", 1e-3, 0.05, 2.5e-3, 10, "phi")),
    Workload(
        "verify_2d",
        "seeded verify ensembles (bernstein, products, loginterp, commutator, "
        "scaling): dyadic norms and random draws, no solver",
        "verify", COMMON_LAYERS + (
            "cli.cmd_verify", "verify.verify_bernstein", "verify.verify_product_laws",
            "verify.verify_log_interpolation", "verify.verify_commutator",
            "verify.verify_scaling", "randfields."),
        count=64),
)}
