"""The benchmark's workloads, built from the acceptance-gate configurations.

Each workload runs whole rounds of the same sweep cells and checks every
round's outputs.  A cell fails when it carries an error or when its chosen
ANM solve did not converge; failed cells are counted, not checked.  The
seed sets the order in which windows (and shot seeds) are visited, and the
shot seed of ``dft_long_window``.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from greenspec import cli, pipeline
from greenspec.anm import AnmConfig
from greenspec.pipeline import ExperimentConfig, SignalConfig
from greenspec.qsim import ModelParams

MODEL = ModelParams(4.0, 0.745)
Q_MAX_BOUND = 1.0 + 1e-3
DFT_FLOOR = 0.05
SAMPLE_TOL = 1e-9


@dataclass(frozen=True)
class Cell:
    part: str
    t_max: float
    method: str
    variant: str
    n: int
    seed: int
    epsilon: float
    q_max: float | None = None
    converged: bool | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or (self.method == "anm" and self.converged is False)

    def label(self) -> str:
        return f"{self.part} t_max={self.t_max:g} {self.method} {self.variant} seed={self.seed}"


def _from_sweep(part: str, cells) -> list[Cell]:
    return [
        Cell(part, c.t_max, c.method, c.variant, c.n, c.seed, c.epsilon, c.q_max, c.converged, c.error)
        for c in cells
    ]


def _sample_problems(what: str, samples: np.ndarray, expected: np.ndarray) -> list[str]:
    worst = float(np.max(np.abs(samples - expected)))
    if worst > SAMPLE_TOL:
        return [f"{what}: exact-evolver samples differ from the pole table by {worst:.3g}"]
    return []


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)

    def _shuffled(self, items) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items

    def run_round(self) -> list[Cell]:
        raise NotImplementedError

    def check_round(self, cells: list[Cell], table) -> list[str]:
        """Checks shared by every workload, on the cells that did not fail."""
        problems = []
        fourier_span = table.fourier_span()
        for c in cells:
            if c.failed:
                continue
            if math.isnan(c.epsilon):
                problems.append(f"{c.label()}: epsilon is NaN")
            if c.method == "anm" and c.q_max > Q_MAX_BOUND:
                problems.append(f"{c.label()}: certificate q_max {c.q_max:.6f} > {Q_MAX_BOUND}")
            if c.method == "dft" and 2.0 * c.t_max < fourier_span and not c.epsilon >= DFT_FLOOR:
                problems.append(
                    f"{c.label()}: DFT epsilon {c.epsilon:.4g} < {DFT_FLOOR} below the "
                    f"Fourier limit (two-sided span {2 * c.t_max:g} < {fourier_span:.3f})"
                )
        return problems

    def check_once(self, table) -> list[str]:
        """Checks that need no sweep output, run once after the rounds."""
        return []


class WindowCurve(Workload):
    """Criterion 04 curve on a subset of windows plus the criterion 03 headline."""

    name = "window_curve"
    # criterion 04: trotter2, two steps, noiseless, tau ladder
    CURVE = ExperimentConfig(
        model=MODEL,
        signal=SignalConfig(evolver="trotter2", trotter_steps=2, t_max=0.27, n=8),
        anm=AnmConfig(tau="ladder"),
    )
    CURVE_WINDOWS = (0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.8, 1.5)
    # criterion 03: exact evolver, tau path, at t_max = 0.27 (n = 24) and its neighbours
    HEADLINE = ExperimentConfig(
        model=MODEL,
        signal=SignalConfig(evolver="exact", t_max=0.27, n=24),
        anm=AnmConfig(tau="path"),
    )
    HEADLINE_WINDOWS = (0.26, 0.27, 0.28)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.parts = self._shuffled(
            [
                ("curve", self.CURVE, self._shuffled(self.CURVE_WINDOWS), "trotter2_noiseless"),
                ("headline", self.HEADLINE, self._shuffled(self.HEADLINE_WINDOWS), "exact_noiseless"),
            ]
        )

    def run_round(self) -> list[Cell]:
        cells = []
        for part, config, windows, variant in self.parts:
            swept = pipeline.run_sweep(config, windows, [0], ("anm", "dft"), (variant,))
            cells += _from_sweep(part, swept)
        return cells

    def check_round(self, cells, table) -> list[str]:
        problems = super().check_round(cells, table)
        curve = sorted(
            (c for c in cells if c.part == "curve" and c.method == "anm" and not c.failed),
            key=lambda c: c.t_max,
        )
        if not curve:
            return problems + ["no curve cell succeeded"]
        low = min(curve, key=lambda c: c.epsilon)
        if not 0.1 < low.t_max < 1.0:
            problems.append(f"curve minimum at t_max={low.t_max:g}, outside (0.1, 1.0)")
        for c in curve:
            if c.t_max > low.t_max and not c.epsilon > low.epsilon:
                problems.append(
                    f"curve: epsilon {c.epsilon:.4g} at t_max={c.t_max:g} is not above the "
                    f"minimum {low.epsilon:.4g} at t_max={low.t_max:g}"
                )
        head = {c.method: c for c in cells if c.part == "headline" and c.t_max == 0.27}
        if head["anm"].failed or not head["anm"].epsilon <= 1e-3:
            problems.append(f"headline ANM epsilon {head['anm'].epsilon:.3g} > 1e-3 or failed")
        if not head["dft"].epsilon >= DFT_FLOOR:
            problems.append(f"headline DFT epsilon {head['dft'].epsilon:.3g} < {DFT_FLOOR}")
        return problems

    def check_once(self, table) -> list[str]:
        signal = pipeline.simulate_signal(self.HEADLINE)
        return _sample_problems(
            "headline signal", signal.samples, table.one_sided(signal.grid.times())
        )


class TwoSidedShots(Workload):
    """A subset of criterion 05: two-sided windows with 10^5-shot readout."""

    name = "two_sided_shots"
    CONFIG = ExperimentConfig(
        model=MODEL,
        signal=SignalConfig(
            evolver="trotter2", trotter_steps=2, t_max=0.5, t0=-0.5, n=52, shots=100000
        ),
        anm=AnmConfig(tau="ladder"),
    )
    WINDOWS = (0.35, 0.45)  # n = 36 and 46
    SHOT_SEEDS = (0, 1, 2)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.windows = self._shuffled(self.WINDOWS)
        self.shot_seeds = self._shuffled(self.SHOT_SEEDS)

    def run_round(self) -> list[Cell]:
        swept = pipeline.run_sweep(
            self.CONFIG, self.windows, self.shot_seeds, ("anm", "dft"), ("trotter2_shots",)
        )
        return _from_sweep("shots", swept)

    def check_round(self, cells, table) -> list[str]:
        problems = super().check_round(cells, table)
        ok = [c for c in cells if not c.failed]
        if not {"anm", "dft"} <= {c.method for c in ok}:
            return problems + ["no ANM or no DFT cell succeeded"]
        anm_eps = statistics.median(c.epsilon for c in ok if c.method == "anm")
        dft_eps = statistics.median(c.epsilon for c in ok if c.method == "dft")
        if not anm_eps <= 0.1 * dft_eps:
            problems.append(
                f"median ANM epsilon {anm_eps:.4g} is not a tenth of median DFT epsilon {dft_eps:.4g}"
            )
        return problems


class DftLongWindow(Workload):
    """``greenspec sweep`` in process: DFT only, general two-sided assembly."""

    name = "dft_long_window"
    # t0 = -t_max and n = 101 at t_max = 1 fix the sampling rate at 50 per unit time
    CONFIG = {
        "model": {"u": MODEL.u, "v": MODEL.v},
        "signal": {"evolver": "exact", "t0": -1.0, "t_max": 1.0, "n": 101, "use_sym": False},
    }
    WINDOWS = (0.3, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0)  # n = 31 .. 801
    LONGEST_N = 801
    VARIANTS = ("exact_noiseless", "trotter2_shots")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.CONFIG))
        self.out = workdir / "sweep"
        windows = ",".join(f"{t:g}" for t in self._shuffled(self.WINDOWS))
        self.argv = [
            "sweep", "--config", str(self.config_path), "--out", str(self.out),
            "--t-max", windows, "--seeds", str(seed), "--method", "dft", "--quiet",
        ]
        for variant in self.VARIANTS:
            self.argv += ["--variant", variant]

    def run_round(self) -> list[Cell]:
        code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"greenspec sweep exited {code}")
        with open(self.out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return [
            Cell(
                "cli",
                float(r["t_max"]),
                r["method"],
                r["variant"],
                int(r["n"]),
                int(r["seed"]),
                float(r["epsilon"]),
                error="recorded as n = -1 in sweep.csv" if r["n"] == "-1" else None,
            )
            for r in rows
        ]

    def check_round(self, cells, table) -> list[str]:
        problems = super().check_round(cells, table)
        expected = len(self.WINDOWS) * len(self.VARIANTS)
        if len(cells) != expected:
            problems.append(f"sweep.csv has {len(cells)} rows, expected {expected}")
        longest = {c.n for c in cells if c.t_max == max(self.WINDOWS)}
        if longest != {self.LONGEST_N}:
            problems.append(f"longest window has n = {longest}, expected {self.LONGEST_N}")
        if not (self.out / "sweep_meta.json").is_file():
            problems.append("sweep_meta.json was not written")
        return problems

    def check_once(self, table) -> list[str]:
        t_max = max(self.WINDOWS)
        signal = pipeline.simulate_signal(
            ExperimentConfig(
                model=MODEL,
                signal=SignalConfig(
                    evolver="exact", t0=-t_max, t_max=t_max, n=self.LONGEST_N, use_sym=False
                ),
            )
        )
        return _sample_problems(
            f"longest window t_max={t_max:g} (n={self.LONGEST_N})",
            signal.samples,
            table.two_sided(signal.grid.times()),
        )


WORKLOADS = {w.name: w for w in (WindowCurve, TwoSidedShots, DftLongWindow)}
