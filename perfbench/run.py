"""Benchmark entry point for greenspec.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process against the greenspec sources in ``src/``
of the checkout, checks every output, and prints one JSON object as the last
line of standard output: with ``--trace 0`` the end-to-end metrics
(``sweep_s`` and ``setup_s`` at reference machine speed, see ``speed.py``,
and ``peak_rss_mb``), with ``--trace 1`` the per-layer metrics of one traced
round and the tracing overhead against one untraced round.  A record of the run, with the pinned environment, is written to
``perfbench/runs/``.  See ``perfbench/README.md``.
"""

import os

# BLAS threading gives no wall-time gain at these matrix sizes and makes
# timings noisy; it must be pinned before numpy is first imported
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in PINNED_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "runs"
WORKLOAD_NAMES = ("window_curve", "two_sided_shots", "dft_long_window")
SETUP_SAMPLES = 3  # this process plus two short child processes


def set_up(workload_name: str, seed: int, workdir: Path):
    """Imports, configs, the independent pole table and one small warm-up solve."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import greenspec
    from greenspec import anm, pipeline
    from greenspec.spectrum import CANONICAL, SamplingGrid, TimeSignal

    source = Path(greenspec.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"greenspec was imported from {source}, not from {ROOT / 'src'}")

    import reference
    import workloads

    workload = workloads.WORKLOADS[workload_name](seed, workdir)
    table = reference.pole_table(workloads.MODEL.u, workloads.MODEL.v)
    problems = reference.table_problems(table, pipeline.oracle_spectrum(pipeline.ExperimentConfig()))
    j = np.arange(8)
    warm = TimeSignal(
        SamplingGrid(0.0, 8, 1.0),
        np.exp(2j * np.pi * 0.2 * j) + 0.5 * np.exp(2j * np.pi * 0.6 * j),
        CANONICAL,
    )
    anm.atomic_denoise(warm, anm.AnmConfig(tau=0.1))
    return workload, table, problems, time.perf_counter() - start


def probe_setup(workload_name: str, seed: int) -> float:
    """Set-up time of a fresh process, which pays for every import again."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def timed_round(workload, probe=None):
    """(wall seconds, seconds at reference speed or None, cells) of one round."""
    if probe is None:
        start = time.perf_counter()
        cells = workload.run_round()
        return time.perf_counter() - start, None, cells
    with probe:
        start = time.perf_counter()
        cells = workload.run_round()
        wall = time.perf_counter() - start
        own = wall - sum(probe.samples)
    return wall, own * probe.scale(), cells


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        **{name: os.environ[name] for name in PINNED_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    try:
        try:
            workload, table, problems, setup_s = set_up(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"error: cannot load greenspec from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return run(args, workload, table, problems, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload, table, problems, setup_s) -> int:
    from speed import SpeedProbe
    from tracing import Tracer

    rounds = []
    tracer = None
    if args.trace:
        # per-layer times are raw: a speed probe would run inside the spans
        rounds.append(timed_round(workload))
        tracer = Tracer()
        tracer.install()
        try:
            rounds.append(timed_round(workload))
        finally:
            tracer.uninstall()
    else:
        probe = SpeedProbe()
        scales = []
        # whole rounds only, so every run attempts the same cells in the same proportion
        while True:
            rounds.append(timed_round(workload, probe))
            scales.append(probe.scale())
            elapsed = sum(wall for wall, _, _ in rounds)
            if elapsed + elapsed / len(rounds) > args.seconds:
                break

    def outputs(cells):
        return [(c.label(), c.n, repr(c.epsilon)) for c in cells]

    for k, (wall, scaled, cells) in enumerate(rounds):
        problems += [f"round {k}: {p}" for p in workload.check_round(cells, table)]
        if outputs(cells) != outputs(rounds[0][2]):
            problems.append(f"round {k}: outputs differ from round 0")
        at_reference = "" if scaled is None else f" ({scaled:.3f} s at reference speed)"
        print(f"round {k}: {wall:.3f} s wall{at_reference}, {len(cells)} cells, "
              f"{sum(c.failed for c in cells)} failed")
    problems += workload.check_once(table)
    for c in rounds[0][2]:
        if c.failed:
            print(f"failed cell: {c.label()} n={c.n} epsilon={c.epsilon:.6g} "
                  f"converged={c.converged} q_max={c.q_max} error={c.error}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    attempted = sum(len(cells) for _, _, cells in rounds)
    failed = sum(c.failed for _, _, cells in rounds for c in cells)
    setup_samples = []
    if tracer is not None:
        metrics = tracer.metrics(rounds[1][0], rounds[0][0])
        if tracer.absent:
            print(f"absent layers (reported as zero): {', '.join(tracer.absent)}")
    else:
        setup_samples = [setup_s] + [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        # set-up runs next to the rounds, so it is rescaled by their median speed
        metrics = {
            "sweep_s": {"value": statistics.median(s for _, s, _ in rounds), "unit": "s"},
            "setup_s": {
                "value": statistics.median(setup_samples) * statistics.median(scales),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "round_wall_s": [wall for wall, _, _ in rounds],
        "round_reference_s": [scaled for _, scaled, _ in rounds],
        "setup_wall_s": setup_samples,
        "absent_layers": tracer.absent if tracer is not None else [],
        "problems": problems,
        "result": result,
    }
    record_path = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"environment: {json.dumps(record['environment'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
