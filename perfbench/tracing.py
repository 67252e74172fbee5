"""Per-layer tracing by wrapping greenspec's public functions from outside.

Each span wraps one or more public functions; every greenspec module
attribute bound to the original (including names imported with
``from .x import y``) is rebound to the wrapper for the traced round and
restored afterwards.  A span's self time is its duration minus the time of
the spans nested inside it.  Counters only count calls.  A function the
tracer cannot find is reported as absent; its metrics read zero.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# span name -> public functions whose calls make up the span
SPANS = {
    "cli.main": [("greenspec.cli", "main")],
    "pipeline.run_sweep": [("greenspec.pipeline", "run_sweep")],
    "qsim.simulate": [("greenspec.pipeline", "simulate_signal")],
    "pipeline.reconstruct": [("greenspec.pipeline", "reconstruct")],
    "spectrum.rescale": [
        ("greenspec.spectrum", "to_canonical"),
        ("greenspec.spectrum", "from_canonical"),
    ],
    "anm.solve": [("greenspec.anm", "atomic_denoise")],
    "anm.peaks": [("greenspec.anm", "locate_peaks")],
    "anm.amplitudes": [("greenspec.anm", "recover_amplitudes")],
    "dft.extract": [("greenspec.dft", "extract_peaks_clean")],
    "metrics.match": [("greenspec.metrics", "match_poles")],
}

COUNTERS = {
    "qsim.evolutions": [("greenspec.qsim", "trotter2_evolve"), ("greenspec.qsim", "exact_evolve")],
    "qsim.hadamard_tests": [("greenspec.qsim", "hadamard_test")],
}

# per-layer metric -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "qsim.simulate_s": "s",
    "qsim.evolutions": "count",
    "qsim.hadamard_tests": "count",
    "spectrum.rescale_s": "s",
    "metrics.match_s": "s",
    "anm.solve_s": "s",
    "anm.solves": "count",
    "anm.admm_iters": "count",
    "anm.iter_us": "us",
    "anm.eig_work": "iter_n3_computed",
    "anm.unconverged_solves": "count",
    "anm.capped_solves": "count",
    "anm.peaks_s": "s",
    "anm.amplitudes_s": "s",
    "pipeline.solves_per_anm_cell": "solves/cell",
    "pipeline.reconstruct_s": "s",
    "pipeline.self_s": "s",
    "pipeline.slowest_cell_s": "s",
    "dft.extract_s": "s",
    "dft.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        # solver and cell bookkeeping filled by the result hooks
        self.admm_iters = 0
        self.eig_work = 0
        self.unconverged = 0
        self.capped = 0
        self.anm_cells = 0
        self.cell_seconds: list[float] = []

    def install(self) -> None:
        hooks = {
            "anm.solve": self._on_solve,
            "qsim.simulate": self._on_simulate,
            "pipeline.reconstruct": self._on_reconstruct,
        }
        for name, targets in SPANS.items():
            for module, attr in targets:
                self._rebind(name, module, attr, lambda f, n=name: self._span(n, f, hooks.get(n)))
        for name, targets in COUNTERS.items():
            for module, attr in targets:
                self._rebind(name, module, attr, lambda f, n=name: self._counter(n, f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _rebind(self, name, module, attr, make) -> None:
        try:
            original = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{name} ({module}.{attr})")
            return
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "greenspec" and not mod_name.startswith("greenspec."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _span(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self._stack.pop()
                self.time[name] += seconds
                self.self_time[name] += seconds - frame[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += seconds
            if hook is not None:
                hook(args, kwargs, result, seconds)
            return result

        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_solve(self, args, kwargs, sol, seconds) -> None:
        n = len(sol.x_hat)
        self.admm_iters += sol.iterations
        self.eig_work += sol.iterations * (n + 1) ** 3
        self.unconverged += not sol.converged
        self.capped += sol.iterations >= _arg(args, kwargs, 1, "config").max_iters

    def _on_simulate(self, args, kwargs, signal, seconds) -> None:
        # every sweep cell simulates its own signal, so a simulate call opens a cell
        self.cell_seconds.append(seconds)

    def _on_reconstruct(self, args, kwargs, out, seconds) -> None:
        if self.cell_seconds:
            self.cell_seconds[-1] += seconds
        self.anm_cells += _arg(args, kwargs, 2, "method") == "anm"

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        t, own, calls = self.time, self.self_time, self.calls
        values = {
            "qsim.simulate_s": t["qsim.simulate"],
            "qsim.evolutions": calls["qsim.evolutions"],
            "qsim.hadamard_tests": calls["qsim.hadamard_tests"],
            "spectrum.rescale_s": t["spectrum.rescale"],
            "metrics.match_s": t["metrics.match"],
            "anm.solve_s": t["anm.solve"],
            "anm.solves": calls["anm.solve"],
            "anm.admm_iters": self.admm_iters,
            "anm.iter_us": 1e6 * t["anm.solve"] / self.admm_iters if self.admm_iters else 0.0,
            "anm.eig_work": self.eig_work,
            "anm.unconverged_solves": self.unconverged,
            "anm.capped_solves": self.capped,
            "anm.peaks_s": t["anm.peaks"],
            "anm.amplitudes_s": t["anm.amplitudes"],
            "pipeline.solves_per_anm_cell": (
                calls["anm.solve"] / self.anm_cells if self.anm_cells else 0.0
            ),
            "pipeline.reconstruct_s": t["pipeline.reconstruct"],
            "pipeline.self_s": own["pipeline.run_sweep"] + own["pipeline.reconstruct"],
            "pipeline.slowest_cell_s": max(self.cell_seconds, default=0.0),
            "dft.extract_s": t["dft.extract"],
            "dft.calls": calls["dft.extract"],
            "cli.self_s": own["cli.main"],
            "trace.overhead_s": traced_s - untraced_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
