"""Command-line experiment runner.

Subcommands:
  simulate     sample the model Green's function and write signal JSON
  reconstruct  run ANM and/or the DFT baseline on a signal file and score it
  sweep        full pipeline over a grid of window lengths and seeds (CSV)
  oracle       print the exact pole table of the configured model

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import anm, pipeline
from .spectrum import (
    PHYSICAL,
    TimeSignal,
    dump_json,
    load_json,
    signal_from_json,
    signal_to_json,
    spectrum_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


def _load_config(path: str | None) -> pipeline.ExperimentConfig:
    if path is None:
        return pipeline.ExperimentConfig()
    try:
        data = load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise _IoError(f"cannot read config {path}: {exc}") from exc
    try:
        return pipeline.ExperimentConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad config {path}: {exc}") from exc


class _UsageError(Exception):
    pass


class _IoError(Exception):
    pass


def _apply_seed(config: pipeline.ExperimentConfig, seed: int | None) -> pipeline.ExperimentConfig:
    if seed is None:
        return config
    return replace(config, signal=replace(config.signal, seed=seed))


def _retarded(signal: TimeSignal, factor: complex) -> TimeSignal:
    """Multiply a non-negative-time signal by ``factor``.

    -1j attaches the retarded prefactor -i theta(t) (theta(0) = 1); 1j strips it.
    """
    if np.any(signal.grid.times() < 0):
        raise _UsageError("retarded convention cannot represent negative times")
    return TimeSignal(signal.grid, factor * signal.samples, signal.domain)


def cmd_simulate(args) -> int:
    config = _apply_seed(_load_config(args.config), args.seed)
    signal = pipeline.simulate_signal(config)
    if args.convention == "retarded":
        signal = _retarded(signal, -1j)
    os.makedirs(args.out, exist_ok=True)
    sig_path = os.path.join(args.out, "signal.json")
    dump_json(signal_to_json(signal), sig_path)
    meta = {
        "model": {"u": config.model.u, "v": config.model.v},
        "evolver": config.signal.evolver,
        "trotter_steps": config.signal.trotter_steps,
        "shots": config.signal.shots,
        "seed": config.signal.seed,
        "sigma": config.signal.sigma,
        "use_sym": config.signal.use_sym,
        "convention": args.convention,
    }
    dump_json(meta, os.path.join(args.out, "signal_meta.json"))
    if not args.quiet:
        print(f"wrote {sig_path} ({signal.grid.n} samples)")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    config = _apply_seed(_load_config(args.config), args.seed)
    try:
        signal = signal_from_json(load_json(args.signal), PHYSICAL)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise _IoError(f"cannot read signal {args.signal}: {exc}") from exc
    if args.convention == "retarded":
        signal = _retarded(signal, 1j)
    os.makedirs(args.out, exist_ok=True)
    methods = ("anm", "dft") if args.method == "both" else (args.method,)
    for method in methods:
        out = pipeline.reconstruct(signal, config, method, mitigate=args.mitigate)
        if not math.isfinite(out.epsilon):
            raise _NumericError(f"{method} reconstruction produced non-finite error")
        dump_json(
            spectrum_to_json(out.spectrum),
            os.path.join(args.out, f"spectrum_{method}.json"),
        )
        report = out.report.to_json()
        report["method"] = method
        if out.tau is not None:
            report["tau"] = out.tau
        if out.q_max is not None:
            report["q_max"] = out.q_max
        if out.dual_solution is not None:
            sol = out.dual_solution
            report["solver"] = {
                "iterations": sol.iterations,
                "primal_residual": sol.primal_residual,
                "dual_residual": sol.dual_residual,
                "objective": sol.objective,
                "converged": sol.converged,
            }
        dump_json(report, os.path.join(args.out, f"report_{method}.json"))
        if method == "anm" and out.dual_solution is not None:
            qvals = anm.dual_polynomial_grid(out.dual_solution)
            grid = len(qvals)
            path = os.path.join(args.out, "dual_polynomial.csv")
            with open(path, "w") as fh:
                fh.write("f,q\n")
                for k, q in enumerate(qvals):
                    fh.write(f"{k / grid:.12g},{q:.12g}\n")
        if not args.quiet:
            print(f"{method}: epsilon = {out.epsilon:.6g}")
    return EXIT_OK


class _NumericError(Exception):
    pass


def cmd_sweep(args) -> int:
    config = _apply_seed(_load_config(args.config), args.seed)
    t_max_list = [float(v) for v in args.t_max.split(",")]
    seeds = [int(v) for v in args.seeds.split(",")]
    methods = ("anm", "dft") if args.method == "both" else (args.method,)
    variants = tuple(args.variant) if args.variant else None
    cells = pipeline.run_sweep(config, t_max_list, seeds, methods=methods, variants=variants)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "sweep.csv")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(pipeline.sweep_to_csv_rows(cells)) + "\n")
    meta = {"theory_threshold_t_max": pipeline.theory_threshold_t_max(config)}
    dump_json(meta, os.path.join(args.out, "sweep_meta.json"))
    failed = sum(1 for c in cells if c.error)
    unconverged = sum(1 for c in cells if c.converged is False)
    if not args.quiet:
        print(f"wrote {csv_path} ({len(cells)} cells, {failed} failed, {unconverged} not converged)")
        print(f"theory-guaranteed window: t_max >= {meta['theory_threshold_t_max']:.4g}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    config = _load_config(args.config)
    spectrum = pipeline.oracle_spectrum(config)
    if not args.quiet:
        print(f"model: U = {config.model.u}, V = {config.model.v}")
        print("amplitude   frequency     z")
    for p in spectrum.poles:
        z = 0.0 if p.z_expect is None else p.z_expect
        print(f"{abs(p.amplitude):9.6f}  {p.frequency:+10.6f}  {z:+.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenspec",
        description="Sparse spectral reconstruction from short-time Green's function samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true")

    convention_help = (
        "signal file convention: bare exponential sum (gtilde) or with the "
        "retarded -i theta(t) prefactor attached"
    )

    p_sim = sub.add_parser("simulate", help="sample the Green's function")
    common(p_sim)
    p_sim.add_argument(
        "--convention", choices=("gtilde", "retarded"), default="gtilde", help=convention_help
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser("reconstruct", help="reconstruct a spectrum from a signal file")
    common(p_rec)
    p_rec.add_argument("signal", help="signal JSON produced by simulate")
    p_rec.add_argument("--method", choices=("anm", "dft", "both"), default="both")
    p_rec.add_argument("--mitigate", action="store_true", help="rescale using the known t=0 value")
    p_rec.add_argument(
        "--convention", choices=("gtilde", "retarded"), default="gtilde", help=convention_help
    )
    p_rec.set_defaults(func=cmd_reconstruct)

    p_sweep = sub.add_parser("sweep", help="error versus window length")
    common(p_sweep)
    p_sweep.add_argument("--t-max", required=True, help="comma-separated window lengths")
    p_sweep.add_argument("--seeds", default="0", help="comma-separated seeds")
    p_sweep.add_argument("--method", choices=("anm", "dft", "both"), default="both")
    p_sweep.add_argument(
        "--variant",
        action="append",
        choices=sorted(pipeline.VARIANTS),
        help="signal variant(s); default: the one implied by the config",
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: cells run in order in one process",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="print the exact pole table")
    common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (_NumericError, FloatingPointError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
