"""In-memory span tracer and light boundary probes for the besovlab benchmark.

`Tracer.install()` rebinds every public function of the traced besovlab
modules, in every besovlab module that holds a reference to it (so
`from .spectral import product` call sites are traced too), and every
transform entry point of `numpy.fft`.  Each call records a span (name,
start, end, parent) and counts; self time is a span's duration minus the
part covered by its child spans.  `uninstall()` restores the originals,
so untraced invocations in the same process run the plain code.

`Probe` wraps only the few work entry points the CLI calls (one call per
step loop, Φ iteration or verify suite), which is what the untraced
end-to-end runs use to split set-up from work.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("spectral", "paley", "norms", "linsolve", "oldroyd", "verify",
          "randfields", "snapshots", "cli")
FFT_LAYER = "numpy.fft"
# c2c and real, 1-D, 2-D and n-D, forward and inverse
FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                    "hfft", "ihfft")

_clock = time.perf_counter


def besovlab_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "besovlab" or n.startswith("besovlab."))]


def clear_caches():
    """Empty besovlab's memo caches so each invocation pays its own
    first-touch cost, as a fresh `besovlab` process does."""
    for mod in besovlab_modules():
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
            elif "CACHE" in name.upper() and hasattr(obj, "clear"):
                obj.clear()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []   # [span id, name id, start, child time]
        self._active = Counter()       # name id -> open spans of that name
        self._layer_active = Counter()  # layer -> open spans of that layer
        self.calls = Counter()
        self.failed = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)   # outermost spans of a name only
        self.layer_incl_s = defaultdict(float)
        self.layer_calls = Counter()       # outermost spans of a layer only
        self.fft_within = Counter()        # name -> FFT calls under it
        self.values = Counter()            # counts read from arguments/results
        self._layer_of: list[str] = []
        self._saved: list[tuple] = []

    # -- span bookkeeping ----------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(name.rsplit(".", 1)[0])
        return nid

    def _enter(self, nid: int):
        stack = self._stack
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._active[nid] += 1
        layer = self._layer_of[nid]
        if self._layer_active[layer] == 0:
            self.layer_calls[layer] += 1
        self._layer_active[layer] += 1
        stack.append([sid, nid, _clock(), 0.0])

    def _exit(self, failed: bool):
        end = _clock()
        sid, nid, start, child = self._stack.pop()
        dur = end - start
        self.span_start[sid] = start
        self.span_end[sid] = end
        self.calls[nid] += 1
        if failed:
            self.failed[nid] += 1
        self.self_s[nid] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        self._active[nid] -= 1
        if self._active[nid] == 0:
            self.incl_s[nid] += dur
        layer = self._layer_of[nid]
        self._layer_active[layer] -= 1
        if self._layer_active[layer] == 0:
            self.layer_incl_s[layer] += dur

    def _wrap(self, name: str, fn, on_return=None, on_call=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call()
            self._enter(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._exit(True)
                raise
            self._exit(False)
            if on_return is not None:
                on_return(out, args)
            return out

        return traced

    # -- counters read at the boundaries -------------------------------------
    def _count_fft_within(self):
        for nid in {frame[1] for frame in self._stack}:
            self.fft_within[nid] += 1

    def _fft_done(self, out, args):
        self.values["fft_elems"] += out.size

    def _poisson_done(self, res, args):
        self.values["poisson_iters"] += res.iterations
        self.values["poisson_stagnated"] += bool(res.stagnated)

    def _snapshot_done(self, out, args):
        self.values["bytes_written"] += os.path.getsize(args[0])

    def _phi_done(self, res, args):
        self.values["phi_applications"] += res.report.applications

    # -- installation ----------------------------------------------------------
    def _rebind(self, namespace, attr, new):
        self._saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    def install(self):
        hooks = {"linsolve.solve_variable_poisson": self._poisson_done,
                 "snapshots.write_snapshot": self._snapshot_done,
                 "oldroyd.phi_iteration": self._phi_done}
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"besovlab.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(name, obj, hooks.get(name))
        for mod in besovlab_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(mod, attr, wrapped[obj])
        for attr in FFT_ENTRY_POINTS:
            fn = getattr(np.fft, attr)
            self._rebind(np.fft, attr, self._wrap(
                f"{FFT_LAYER}.{attr}", fn, self._fft_done, self._count_fft_within))

    def uninstall(self):
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    # -- summaries -------------------------------------------------------------
    def _sum(self, table, prefix: str) -> float:
        return sum(v for nid, v in table.items()
                   if self.names[nid].startswith(prefix))

    def by_name(self, table, name: str):
        nid = self._ids.get(name)
        return table.get(nid, 0) if nid is not None else 0

    def self_of(self, prefix: str) -> float:
        """Total self time of every span whose name starts with `prefix`."""
        return self._sum(self.self_s, prefix)

    def calls_of(self, prefix: str) -> int:
        return self._sum(self.calls, prefix)

    def write(self, path: str, meta: dict):
        """Write every span plus per-name totals as one JSON document."""
        origin = min(self.span_start) if self.span_start else 0.0
        doc = {
            **meta,
            "names": self.names,
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start_s": [round(t - origin, 9) for t in self.span_start],
                "end_s": [round(t - origin, 9) for t in self.span_end],
            },
            "per_name": {
                self.names[nid]: {"calls": self.calls[nid],
                                  "self_s": self.self_s[nid],
                                  "incl_s": self.incl_s[nid],
                                  "fft_calls_within": self.fft_within[nid]}
                for nid in range(len(self.names)) if self.calls[nid]
            },
            "per_layer": {layer: {"calls": self.layer_calls[layer],
                                  "self_s": self.self_of(layer + "."),
                                  "incl_s": self.layer_incl_s[layer]}
                          for layer in (*LAYERS, FFT_LAYER)},
            "values": dict(self.values),
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class Probe:
    """Times the CLI's work entry points during untraced invocations.

    `first_work` is the clock at the first entry into any probed function
    since `reset()`; `work_s` is the time spent inside them; `units` counts
    Φ applications read from `phi_iteration`'s result.
    """

    WORK_ENTRY_POINTS = ("run", "phi_iteration", "verify_bernstein",
                         "verify_product_laws", "verify_log_interpolation",
                         "verify_commutator", "verify_scaling")

    def __init__(self, cli_module):
        self._cli = cli_module
        self._saved: list[tuple] = []
        self.reset()

    def reset(self):
        self.first_work = None
        self.work_s = 0.0
        self.phi_applications = 0

    def _wrap(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            start = _clock()
            if self.first_work is None:
                self.first_work = start
            try:
                out = fn(*args, **kwargs)
            finally:
                self.work_s += _clock() - start
            if hasattr(out, "report"):
                self.phi_applications += out.report.applications
            return out

        return probed

    def install(self):
        for attr in self.WORK_ENTRY_POINTS:
            fn = getattr(self._cli, attr, None)
            if fn is not None:
                self._saved.append((attr, fn))
                setattr(self._cli, attr, self._wrap(fn))

    def uninstall(self):
        while self._saved:
            attr, fn = self._saved.pop()
            setattr(self._cli, attr, fn)
