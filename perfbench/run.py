"""besovlab benchmark: one workload, one seed, measured through the CLI.

    python3 perfbench/run.py --workload direct_2d --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The run

1. builds the workload's CLI calls from the seed and has the frozen seed
   package (perfbench/reference/) produce reference outputs for them in a
   child process;
2. calls `besovlab.cli.main` from ./src in this process, in a closed loop
   with one caller, until the time is used, checking every invocation's
   outputs against the reference;
3. with `--trace 1`, spends half the time untraced, then traces exactly
   one invocation (so counts repeat across runs of a seed) and writes its
   spans to perfbench/traces/.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics untraced, the
per-layer metrics traced.  The exit code is 0 only when every operation
succeeded and every output matched.
"""

from __future__ import annotations

import os

# one thread per process: set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import Probe, Tracer, clear_caches
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE_TIMEOUT_S = 150
# CLI exit codes that complete an invocation: pass, and a soft verification
# verdict (an unstable ratio), which is correct when the reference agrees
COMPLETED = (0, 1)


@dataclass
class Invocation:
    wall_s: float
    setup_s: float
    unit_ms: float
    attempted: int
    errors: list[str]


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def load_program(root: Path):
    """Import besovlab from the checkout's src/ (never an installed copy)."""
    src = root / "src"
    if not (src / "besovlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no besovlab package under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("besovlab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"besovlab resolved to {cli.__file__}, not under {src}")
    return cli


class Runner:
    def __init__(self, cli, workload, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ref = work / "ref"
        self.ref_codes: list[int] = []
        self.probe = Probe(cli)

    def make_reference(self) -> list[str]:
        """Reference outputs and exit codes from the frozen seed package."""
        calls = self.workload.calls(self.seed, self.ref)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "reference.py"), json.dumps(calls)],
                capture_output=True, text=True, timeout=REFERENCE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return [f"reference run took over {REFERENCE_TIMEOUT_S} s"]
        if proc.returncode != 0:
            return [f"reference run exited {proc.returncode}: {proc.stderr[-500:]}"]
        self.ref_codes = json.loads(proc.stdout.splitlines()[-1])
        if any(c not in COMPLETED for c in self.ref_codes):
            return [f"reference exit codes {self.ref_codes}: {proc.stderr[-500:]}"]
        return []

    def invoke(self) -> Invocation:
        """One invocation through `cli.main`, timed, then checked."""
        wl = self.workload
        root = self.work / "run"
        shutil.rmtree(root, ignore_errors=True)
        calls = wl.calls(self.seed, root)
        clear_caches()
        self.probe.reset()
        log = io.StringIO()
        errors: list[str] = []
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                codes = [self.cli.main(argv) for argv in calls]
        except Exception as exc:  # a raw traceback is a failed invocation
            codes = []
            errors.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        if codes and codes != self.ref_codes:
            errors.append(f"exit codes {codes}, reference {self.ref_codes}: "
                          f"{log.getvalue()[-300:]}")

        first = self.probe.first_work if self.probe.first_work is not None \
            else start + wall
        units = {"simulate": wl.steps, "phi": self.probe.phi_applications,
                 "verify": len(calls)}[wl.command]
        reports = 0
        if not errors:
            mismatches, reports = wl.check(root, self.ref)
            errors += mismatches
        return Invocation(wall, first - start,
                          1e3 * self.probe.work_s / max(units, 1),
                          len(calls) + units + reports, errors)

    def loop(self, seconds: float) -> list[Invocation]:
        """Closed loop with one caller: invoke while another invocation of
        typical length still fits in `seconds` (at least once)."""
        self.probe.install()
        try:
            deadline = time.perf_counter() + seconds
            done: list[Invocation] = []
            while not done or time.perf_counter() + statistics.median(
                    i.wall_s for i in done) <= deadline:
                done.append(self.invoke())
            return done
        finally:
            self.probe.uninstall()

    def traced(self):
        """Exactly one invocation with every layer traced."""
        tracer = Tracer()
        tracer.install()
        try:
            inv = self.loop(0.0)[0]
        finally:
            tracer.uninstall()
        return tracer, inv


def end_to_end(invs: list[Invocation]) -> dict:
    """End-to-end metrics of a run: the median of each timing over its
    invocations, and the process's peak resident set size."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    med = statistics.median
    return {
        "wall_s": (med(i.wall_s for i in invs), "s"),
        "setup_s": (med(i.setup_s for i in invs), "s"),
        "unit_ms": (med(i.unit_ms for i in invs), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(t, wl, traced: Invocation, untraced: list[Invocation]) -> dict:
    """Per-layer metrics of one traced invocation (self times unless the
    name says `incl`)."""

    def calls(name):
        return t.by_name(t.calls, name)

    def self_s(name):
        return t.by_name(t.self_s, name)

    def incl_s(name):
        return t.by_name(t.incl_s, name)

    def per(num, den):
        return num / den if den else 0.0

    fft = "numpy.fft."
    applications = t.values["phi_applications"]
    steps = wl.steps * (applications if wl.command == "phi" else 1)
    stepping = t.by_name(t.fft_within, "oldroyd.run") + \
        t.by_name(t.fft_within, "oldroyd.phi_iteration")
    poisson = "linsolve.solve_variable_poisson"
    constraint = "oldroyd.constraint_residuals"
    untraced_wall = statistics.median(i.wall_s for i in untraced)
    c, s, b = "count", "s", "bytes"
    return {
        "spectral.fft_calls": (t.calls_of(fft), c),
        "spectral.fft_elems": (t.values["fft_elems"], c),
        "spectral.fft_s": (t.self_of(fft), s),
        "spectral.fft_per_step": (per(stepping, steps), c),
        "spectral.product_calls": (calls("spectral.product"), c),
        "spectral.product_s": (self_s("spectral.product"), s),
        "spectral.advect_calls": (calls("spectral.advect"), c),
        "spectral.advect_s": (self_s("spectral.advect"), s),
        "linsolve.poisson_calls": (calls(poisson), c),
        "linsolve.poisson_iters": (t.values["poisson_iters"], c),
        "linsolve.poisson_iters_per_call": (per(t.values["poisson_iters"], calls(poisson)), c),
        "linsolve.poisson_s": (self_s(poisson), s),
        "linsolve.poisson_incl_s": (incl_s(poisson), s),
        "linsolve.poisson_stagnated": (t.values["poisson_stagnated"], c),
        "linsolve.poisson_failed": (t.by_name(t.failed, poisson), c),
        "linsolve.transport_s": (self_s("linsolve.solve_transport"), s),
        "linsolve.heat_s": (self_s("linsolve.solve_heat"), s),
        "oldroyd.momentum_forcing_calls": (calls("oldroyd.momentum_forcing"), c),
        "oldroyd.momentum_forcing_s": (self_s("oldroyd.momentum_forcing"), s),
        "oldroyd.momentum_forcing_incl_s": (incl_s("oldroyd.momentum_forcing"), s),
        "oldroyd.compute_pressure_s": (self_s("oldroyd.compute_pressure"), s),
        "oldroyd.constraint_calls": (calls(constraint), c),
        "oldroyd.constraint_s": (self_s(constraint), s),
        "oldroyd.constraint_incl_s": (incl_s(constraint), s),
        "oldroyd.fft_per_constraint_call": (
            per(t.by_name(t.fft_within, constraint), calls(constraint)), c),
        "oldroyd.initial_data_s": (self_s("oldroyd.make_initial_data"), s),
        "paley.block_multipliers_s": (self_s("paley.block_multipliers"), s),
        "norms.besov_norm_calls": (calls("norms.besov_norm"), c),
        "norms.besov_norm_s": (self_s("norms.besov_norm"), s),
        "norms.block_lp_s": (self_s("norms.block_lp"), s),
        "norms.norm_series_s": (self_s("norms.norm_series"), s),
        "norms.fft_per_block_lp": (
            per(t.by_name(t.fft_within, "norms.block_lp"), calls("norms.block_lp")), c),
        "norms.incl_s": (t.layer_incl_s["norms"], s),
        "verify.bernstein_s": (self_s("verify.verify_bernstein"), s),
        "verify.products_s": (self_s("verify.verify_product_laws"), s),
        "verify.loginterp_s": (self_s("verify.verify_log_interpolation"), s),
        "verify.commutator_s": (self_s("verify.verify_commutator"), s),
        "verify.scaling_s": (self_s("verify.verify_scaling"), s),
        "randfields.draw_calls": (t.layer_calls["randfields"], c),
        "randfields.draw_s": (t.self_of("randfields."), s),
        "snapshots.write_calls": (calls("snapshots.write_snapshot"), c),
        "snapshots.bytes_written": (t.values["bytes_written"], b),
        "snapshots.write_s": (self_s("snapshots.write_snapshot"), s),
        "cli.self_s": (t.self_of("cli."), s),
        "trace.wall_s": (traced.wall_s, s),
        "trace.overhead_frac": (traced.wall_s / untraced_wall - 1.0, "ratio"),
    }


def report(workload: str, seed: int, invs: list[Invocation], metrics: dict) -> int:
    """Print the human-readable summary and the JSON result line; return
    the exit code."""
    attempted = sum(i.attempted for i in invs)
    failed = sum(i.attempted for i in invs if i.errors)
    for inv in invs:
        for err in inv.errors[:5]:
            print(f"FAILED: {err}", file=sys.stderr)
    print(f"workload {workload} seed {seed}: {len(invs)} invocations, "
          f"error_rate {failed}/{attempted}")
    print(" ".join(f"{k}={v}" for k, v in machine_info().items()))
    print("  per invocation (wall_s/setup_s): "
          + " ".join(f"{i.wall_s:.3f}/{i.setup_s:.4f}" for i in invs))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_program(Path.cwd())
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}; run from the root of a besovlab checkout",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{wl.name}-{os.getpid()}"
    try:
        runner = Runner(cli, wl, args.seed, work)
        errors = runner.make_reference()
        if errors:
            print(f"error: {errors[0]}", file=sys.stderr)
            return 1
        if not args.trace:
            invs = runner.loop(args.seconds)
            return report(wl.name, args.seed, invs, end_to_end(invs))
        untraced = runner.loop(args.seconds / 2.0)
        tracer, traced = runner.traced()
        missing = [p for p in wl.required if tracer.calls_of(p) == 0]
        traced.errors += [f"traced layer {p!r} recorded no calls" for p in missing]
        tracer.write(str(HERE / "traces" / f"{wl.name}-seed{args.seed}.json"),
                     {"workload": wl.name, "seed": args.seed, **machine_info()})
        metrics = per_layer(tracer, wl, traced, untraced)
        return report(wl.name, args.seed, untraced + [traced], metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
