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
from contextlib import contextmanager, suppress
from dataclasses import replace

import numpy as np

from . import anm, pipeline, qsim
from .spectrum import (
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
    with _bad_config(path):
        config = pipeline.ExperimentConfig.from_dict(data)
        qsim.prepare_ground_state(config.model)  # V = 0 or an overflowing U^2 + (8V)^2
    return config


@contextmanager
def _bad_config(path: str | None, errors=(TypeError, ValueError)):
    """Report a config the block rejects as a usage error, not a numeric failure."""
    try:
        yield
    except errors as exc:
        raise _UsageError(f"bad config {path or '(defaults)'}: {exc}") from exc


@contextmanager
def _out_dir(path: str):
    """Make the output directory before the work; work that fails takes back what this made."""
    made, head = [], os.path.abspath(path)  # the missing directories, deepest first
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    try:
        yield
    except BaseException:
        with suppress(OSError):  # stops at a directory something wrote into
            for directory in made:
                os.rmdir(directory)
        raise


class _UsageError(Exception):
    pass


class _IoError(Exception):
    pass


def _seed(text: str) -> int:
    """argparse type: a seed, which numpy takes only as a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"a seed is a non-negative integer, not {text!r}")
    return int(text)


def _window(text: str) -> float:
    """argparse type: a window t_max, a positive finite number.

    No cell can hold a window of zero or less: two-sided cells start at
    -t_max, and one-sided ones need t_max > t0 >= 0.
    """
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"a window is a positive finite number, not {text!r}")
    return value


def _comma_list(kind):
    """argparse type: a comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        return [kind(v) for v in text.split(",")]
    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse names the type in errors
    return parse


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config = replace(config, signal=replace(config.signal, seed=args.seed))
    with _bad_config(args.config):  # a config with no extent, or too coarse a one
        pipeline.resolve_grid(config)
    with _out_dir(args.out):
        signal = pipeline.simulate_signal(config)
    sig_path = os.path.join(args.out, "signal.json")
    dump_json(signal_to_json(signal), sig_path)
    meta = {
        "model": {"u": config.model.u, "v": config.model.v},
        "evolver": config.signal.evolver,
        "trotter_steps": config.signal.trotter_steps,
        "shots": config.signal.shots,
        "seed": config.signal.seed,
        "use_sym": config.signal.use_sym,
    }
    dump_json(meta, os.path.join(args.out, "signal_meta.json"))
    if not args.quiet:
        print(f"wrote {sig_path} ({signal.grid.n} samples)")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    config = _load_config(args.config)
    try:
        signal = signal_from_json(load_json(args.signal))
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise _IoError(f"cannot read signal {args.signal}: {exc}") from exc
    with _bad_config(args.config):  # the model's energy range must fit the file's sampling
        pipeline.rescale_map_for_grid(config, signal.grid)
    if args.mitigate:
        try:
            qsim.zero_time_index(signal.grid)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        reference = 1.0 if config.signal.use_sym else 2.0  # the noiseless |G(0)|
        signal, _ = qsim.mitigate_gate_error(signal, reference=reference)
    methods = pipeline.METHODS if args.method == "both" else (args.method,)
    outs = []
    with _out_dir(args.out):  # every method runs before any file is written
        for method in methods:
            outs.append(pipeline.reconstruct(signal, config, method))
            if not math.isfinite(outs[-1].epsilon):
                raise ValueError(f"{method} reconstruction produced non-finite error")
    for method, out in zip(methods, outs):
        dump_json(
            spectrum_to_json(out.spectrum),
            os.path.join(args.out, f"spectrum_{method}.json"),
        )
        report = out.report.to_json()
        report["method"] = method
        sol = out.dual_solution
        if sol is not None:
            report["tau"] = sol.tau
            report["q_max"] = out.q_max
            report["solver"] = {
                "iterations": sol.iterations,
                "primal_residual": sol.primal_residual,
                "dual_residual": sol.dual_residual,
                "objective": sol.objective,
                "converged": sol.converged,
            }
        dump_json(report, os.path.join(args.out, f"report_{method}.json"))
        if sol is not None:
            qvals = anm.dual_polynomial_grid(sol)
            grid = len(qvals)
            path = os.path.join(args.out, "dual_polynomial.csv")
            with open(path, "w") as fh:
                fh.write("f,q\n")
                for k, q in enumerate(qvals):
                    fh.write(f"{k / grid:.12g},{q:.12g}\n")
        if not args.quiet:
            print(f"{method}: epsilon = {out.epsilon:.6g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    methods = pipeline.METHODS if args.method == "both" else (args.method,)
    variants = tuple(args.variant) if args.variant else None
    seeds = args.seeds or [config.signal.seed]
    with _bad_config(args.config):  # before any cell runs, so a failure writes nothing
        meta = {"theory_threshold_t_max": pipeline.theory_threshold_t_max(config)}
    # run_sweep records each cell's numeric failure, so a ValueError it raises
    # rejects the config before any cell runs
    with _out_dir(args.out), _bad_config(args.config, ValueError):
        cells = pipeline.run_sweep(config, args.t_max, seeds, methods=methods, variants=variants)
    csv_path = os.path.join(args.out, "sweep.csv")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(pipeline.sweep_to_csv_rows(cells)) + "\n")
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
        # + 0.0 turns a z that rounds to -0 into 0
        print(f"{abs(p.amplitude):9.6f}  {p.frequency:+10.6f}  {round(p.z_expect, 6) + 0.0:+.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenspec",
        description="Sparse spectral reconstruction from short-time Green's function samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config JSON")
    common.add_argument("--quiet", action="store_true")
    writes = argparse.ArgumentParser(add_help=False, parents=[common])
    writes.add_argument("--out", default=".", help="output directory")

    p_sim = sub.add_parser("simulate", parents=[writes], help="sample the Green's function")
    p_sim.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser(
        "reconstruct", parents=[writes], help="reconstruct a spectrum from a signal file"
    )
    p_rec.add_argument("signal", help="signal JSON produced by simulate")
    p_rec.add_argument("--method", choices=("anm", "dft", "both"), default="both")
    p_rec.add_argument(
        "--mitigate", action="store_true", help="rescale by |G(0)|; the grid must contain t = 0"
    )
    p_rec.set_defaults(func=cmd_reconstruct)

    p_sweep = sub.add_parser("sweep", parents=[writes], help="error versus window length")
    p_sweep.add_argument(
        "--t-max", type=_comma_list(_window), required=True, help="comma-separated window lengths"
    )
    p_sweep.add_argument(
        "--seeds", type=_comma_list(_seed), help="comma-separated seeds; default: the config seed"
    )
    p_sweep.add_argument("--method", choices=("anm", "dft", "both"), default="both")
    p_sweep.add_argument(
        "--variant",
        action="append",
        choices=sorted(pipeline.VARIANTS),
        help="signal variant(s); default: the config as given",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", parents=[common], help="print the exact pole table")
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
    except (_IoError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FloatingPointError, MemoryError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numeric failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
