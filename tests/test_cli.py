import csv
import json
import math
import os

import numpy as np
import pytest

from greenspec import pipeline
from greenspec.cli import main
from greenspec.spectrum import load_json


def write_config(path, **overrides):
    data = {
        "model": {"u": 4.0, "v": 0.745},
        "signal": {"evolver": "exact", "t_max": 0.27, "n": 24, "seed": 0},
        "method": {"anm": {"tau": "path"}},
    }
    for key, value in overrides.items():
        data[key] = value
    path.write_text(json.dumps(data))
    return str(path)


class TestOracleCommand:
    def test_prints_pole_table(self, capsys):
        assert main(["oracle"]) == 0
        out = capsys.readouterr().out
        assert "0.524590" in out
        assert "0.547457" in out
        assert "0.475410" in out
        assert "3.041470" in out

    @pytest.mark.parametrize("option", [["--out", "out"], ["--seed", "5"]])
    def test_output_options_are_usage_errors(self, option):
        # oracle writes nothing and draws nothing, so it takes neither option
        assert main(["oracle", *option]) == 1

    def test_config_names_one_solver_tolerance(self, tmp_path, capsys):
        # the solver's residual tolerance is fixed; naming one is an unknown key
        for key in ("primal_tol", "tol"):
            cfg = write_config(tmp_path / f"{key}.json", method={"anm": {key: 1e-8}})
            assert main(["oracle", "--config", cfg, "--quiet"]) == 1
            assert "bad config" in capsys.readouterr().err

    def test_config_has_no_gaussian_noise(self, tmp_path, capsys):
        # finite-shot readout is the only noise; "sigma" is an unknown key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"signal": {"sigma": 0.0}}))
        assert main(["oracle", "--config", str(cfg), "--quiet"]) == 1
        assert "bad config" in capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_signal_and_metadata(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out_dir), "--quiet"]) == 0
        sig = load_json(out_dir / "signal.json")
        assert sig["n"] == 24
        assert len(sig["samples"]) == 24
        # first sample of the one-sided assembly is exactly one
        assert sig["samples"][0][0] == pytest.approx(1.0, abs=1e-12)
        meta = load_json(out_dir / "signal_meta.json")
        assert meta["model"] == {"u": 4.0, "v": 0.745}
        assert meta["evolver"] == "exact"

    def test_metadata_names_shots_as_the_only_noise(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out_dir), "--quiet"]) == 0
        meta = load_json(out_dir / "signal_meta.json")
        assert set(meta) == {
            "model", "evolver", "trotter_steps", "shots", "seed", "use_sym", "convention"
        }

    def test_bad_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"signal": {"evolver": "magic", "t_max": 1.0}}))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "section",
        [
            {"rescale": {"k_min": 4}},
            {"methd": {"anm": {"tau": 0.1}}},
            {"method": {"music": {}}},
            {"method": {"dft": {}}},
        ],
    )
    def test_unknown_section_is_usage_error(self, tmp_path, capsys, section):
        cfg = write_config(tmp_path / "cfg.json", **section)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "bad config" in capsys.readouterr().err
        assert not (tmp_path / "signal.json").exists()

    @pytest.mark.parametrize(
        "section, field",
        [
            ({"signal": {"n": "abc", "t_max": 0.3}}, "signal.n"),
            ({"model": {"u": "x", "v": 0.7}}, "model.u"),
            ({"signal": {"t_max": True}}, "signal.t_max"),
            ({"signal": {"shots": 0.5}}, "signal.shots"),
        ],
    )
    def test_wrong_value_type_is_usage_error(self, tmp_path, capsys, section, field):
        cfg = write_config(tmp_path / "cfg.json", **section)
        assert main(["oracle", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "bad config" in err and field in err

    @pytest.mark.parametrize("data", [[], {"method": []}])
    def test_non_object_config_is_usage_error(self, tmp_path, capsys, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main(["oracle", "--config", str(cfg)]) == 1
        assert "bad config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--t-max", "0.3"]])
    def test_zero_span_window_is_usage_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "cfg.json", signal={"t_max": 0.0, "n": 5})
        assert main([*command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "bad config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, field",
        [
            ({"signal": {"t_max": 0.3, "shots": 0}}, "shots"),
            ({"signal": {"t_max": 0.3, "trotter_steps": 0}}, "trotter_steps"),
            ({"signal": {"n": 0}}, "n"),
            ({"signal": {"t_max": 0.3, "n": 1}}, "n"),
            ({"signal": {"t_max": 0.3, "shots": 100, "seed": -1}}, "seed"),
            ({"method": {"anm": {"tau": math.nan}}}, "tau"),
        ],
    )
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, section, field):
        cfg = write_config(tmp_path / "cfg.json", **section)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "bad config" in err and f"{field} must be" in err
        assert not (tmp_path / "signal.json").exists()

    @pytest.mark.parametrize(
        "command, section, field",
        [
            (["simulate"], {"signal": {"t_max": math.inf}}, "signal.t_max"),
            (["oracle"], {"model": {"u": math.nan, "v": 0.745}}, "model.u"),
            (["sweep", "--t-max", "0.3"], {"model": {"u": math.nan, "v": 0.745}}, "model.u"),
            (["simulate"], {"signal": {"t_max": 10**400}}, "signal.t_max"),
            (["oracle"], {"model": {"u": 10**400, "v": 0.745}}, "model.u"),
        ],
        ids=["simulate", "oracle", "sweep", "simulate-huge-int", "oracle-huge-int"],
    )
    def test_non_finite_value_is_usage_error(
        self, tmp_path, monkeypatch, capsys, command, section, field
    ):
        # json reads NaN, Infinity and integers too large for a float; a float
        # field takes none of them
        monkeypatch.chdir(tmp_path)  # the default output directory
        cfg = write_config(tmp_path / "cfg.json", **section)
        assert main([*command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "bad config" in err and f"{field} must be a finite number" in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize(
        "command",
        [["simulate"], ["oracle"], ["sweep", "--t-max", "0.5"]],
        ids=["simulate", "oracle", "sweep"],
    )
    def test_zero_hopping_is_usage_error(self, tmp_path, monkeypatch, capsys, command):
        # V = 0 decouples the sites, leaving the ground-state angle undefined
        monkeypatch.chdir(tmp_path)  # the default output directory
        cfg = write_config(
            tmp_path / "cfg.json", model={"u": 4.0, "v": 0.0}, signal={"t_max": 1.0, "n": 5}
        )
        assert main([*command, "--config", cfg]) == 1
        assert "bad config" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize(
        "model", [{"u": 1e200, "v": 0.745}, {"u": 4.0, "v": 1e200}], ids=["huge-u", "huge-v"]
    )
    @pytest.mark.parametrize(
        "command",
        [["simulate"], ["oracle"], ["sweep", "--t-max", "0.5"], ["reconstruct", "signal.json"]],
        ids=["simulate", "oracle", "sweep", "reconstruct"],
    )
    def test_overflowing_model_is_usage_error(
        self, tmp_path, monkeypatch, capsys, command, model
    ):
        # U^2 or (8V)^2 past the float range leaves the ground-state angle undefined
        monkeypatch.chdir(tmp_path)  # the default output directory
        cfg = write_config(tmp_path / "cfg.json", model=model, signal={"t_max": 1.0, "n": 5})
        assert main([*command, "--config", cfg]) == 1
        assert "bad config" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        signal = {"evolver": "exact", "t_max": 0.27, "n": 24, "shots": 100}
        flagged = write_config(tmp_path / "a.json", signal={**signal, "seed": 0})
        configured = write_config(tmp_path / "b.json", signal={**signal, "seed": 5})
        base = ["simulate", "--quiet", "--out"]
        assert main([*base, str(tmp_path / "a"), "--config", flagged, "--seed", "5"]) == 0
        assert main([*base, str(tmp_path / "b"), "--config", configured]) == 0
        assert main([*base, str(tmp_path / "c"), "--config", configured, "--seed", "0"]) == 0
        assert load_json(tmp_path / "a" / "signal_meta.json")["seed"] == 5
        a, b, c = ((tmp_path / d / "signal.json").read_bytes() for d in "abc")
        assert a == b != c

    @pytest.mark.parametrize(
        "signal, message",
        [
            (None, "needs t_max, n, or both"),
            ({}, "needs t_max, n, or both"),
            ({"t_max": 1.0, "n": 2}, "sample spacing too coarse"),
            ({"t_max": 0.26}, "need at least two samples"),  # the default spacing is 0.473
        ],
    )
    def test_ungriddable_signal_is_usage_error(self, tmp_path, capsys, signal, message):
        # None runs the built-in defaults, which set no window
        args = ["simulate", "--out", str(tmp_path / "out")]
        if signal is not None:
            args += ["--config", write_config(tmp_path / "c.json", signal=signal)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "bad config" in err and message in err
        assert not (tmp_path / "out" / "signal.json").exists()


class TestReconstructCommand:
    def test_end_to_end_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out_dir), "--quiet"]) == 0
        code = main(
            [
                "reconstruct",
                str(out_dir / "signal.json"),
                "--config",
                cfg,
                "--out",
                str(out_dir),
                "--method",
                "both",
                "--quiet",
            ]
        )
        assert code == 0
        spec_anm = load_json(out_dir / "spectrum_anm.json")
        assert {"re", "im", "freq", "z"} == set(spec_anm[0])
        report = load_json(out_dir / "report_anm.json")
        assert report["epsilon"] < 1e-3
        report_dft = load_json(out_dir / "report_dft.json")
        assert report_dft["epsilon"] > 0.05
        dual = (out_dir / "dual_polynomial.csv").read_text().splitlines()
        assert dual[0] == "f,q"
        qvals = np.array([float(r.split(",")[1]) for r in dual[1:]])
        assert qvals.max() <= 1.001

    def test_missing_signal_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert (
            main(["reconstruct", str(tmp_path / "missing.json"), "--config", cfg, "--quiet"]) == 2
        )

    def test_signal_too_coarse_for_model_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out_dir), "--quiet"]) == 0
        sig = load_json(out_dir / "signal.json")
        sig["dt"] = 10.0
        (out_dir / "signal.json").write_text(json.dumps(sig))
        code = main(["reconstruct", str(out_dir / "signal.json"), "--config", cfg,
                     "--out", str(out_dir), "--method", "dft", "--quiet"])
        assert code == 1
        assert "bad config" in capsys.readouterr().err
        assert not (out_dir / "report_dft.json").exists()

    def test_one_sample_signal_is_numeric_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", signal={"t_max": 0.26})
        sig = tmp_path / "signal.json"
        sig.write_text(json.dumps({"t0": 0.0, "dt": 0.473, "n": 1, "samples": [[1.0, 0.0]]}))
        out_dir = tmp_path / "out"
        code = main(["reconstruct", str(sig), "--config", cfg,
                     "--out", str(out_dir), "--method", "dft", "--quiet"])
        assert code == 3
        assert "need at least two samples" in capsys.readouterr().err
        assert not (out_dir / "report_dft.json").exists()

    def test_truncated_signal_is_io_error(self, tmp_path, capsys):
        # a file whose samples disagree with its own n is unreadable, not a numeric failure
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out_dir), "--quiet"]) == 0
        sig = load_json(out_dir / "signal.json")
        sig["samples"] = sig["samples"][:-1]
        (out_dir / "signal.json").write_text(json.dumps(sig))
        capsys.readouterr()
        code = main(["reconstruct", str(out_dir / "signal.json"), "--config", cfg,
                     "--out", str(out_dir), "--method", "dft", "--quiet"])
        assert code == 2
        assert "n is 24, but it holds 23 samples" in capsys.readouterr().err
        assert not (out_dir / "report_dft.json").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", "abc"),
            ("n", 24.7),  # int() would truncate it to the 24 samples the file holds
            ("t0", "abc"),
            ("sample", [1.0, 2.0, 3.0]),
            ("sample", "x"),
            ("sample", [True, False]),  # complex() would read it as 1+0j
        ],
    )
    def test_malformed_signal_is_io_error(self, tmp_path, capsys, field, value):
        # a field of the wrong shape makes the file unreadable, not a numeric failure
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out_dir), "--quiet"]) == 0
        sig = load_json(out_dir / "signal.json")
        if field == "sample":
            sig["samples"][0] = value
        else:
            sig[field] = value
        (out_dir / "signal.json").write_text(json.dumps(sig))
        capsys.readouterr()
        code = main(["reconstruct", str(out_dir / "signal.json"), "--config", cfg,
                     "--out", str(out_dir), "--method", "dft", "--quiet"])
        assert code == 2
        assert "cannot read signal" in capsys.readouterr().err
        assert not (out_dir / "report_dft.json").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("samples", math.nan),
            ("t0", math.nan),
            ("samples", 10**400),
            ("t0", 10**400),
            ("dt", 10**400),
        ],
        ids=["samples", "t0", "samples-huge-int", "t0-huge-int", "dt-huge-int"],
    )
    def test_non_finite_signal_is_numeric_failure(self, tmp_path, capsys, field, value):
        # json reads NaN, and integers too large for a float; a non-finite
        # sample or grid would score as an empty spectrum
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        sig = load_json(tmp_path / "signal.json")
        if field == "samples":
            sig["samples"][0] = [value, 0.0]
        else:
            sig[field] = value
        (tmp_path / "signal.json").write_text(json.dumps(sig))
        capsys.readouterr()
        out_dir = tmp_path / "out"
        code = main(["reconstruct", str(tmp_path / "signal.json"), "--config", cfg,
                     "--out", str(out_dir), "--method", "dft", "--quiet"])
        assert code == 3
        assert "finite" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_mitigation_without_time_zero_is_usage_error(self, tmp_path, capsys):
        # mitigation reads the sample at t = 0, so a grid without one is refused
        # before any output is written
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        sig = load_json(tmp_path / "signal.json")
        sig["t0"] = 0.5 * sig["dt"]
        (tmp_path / "signal.json").write_text(json.dumps(sig))
        capsys.readouterr()
        out_dir = tmp_path / "out"
        code = main(["reconstruct", str(tmp_path / "signal.json"), "--config", cfg,
                     "--out", str(out_dir), "--method", "dft", "--mitigate", "--quiet"])
        assert code == 1
        assert "needs a sample at t = 0" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_non_object_signal_is_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        sig = tmp_path / "signal.json"
        sig.write_text(json.dumps([[1.0, 0.0], [0.5, 0.5]]))
        out_dir = tmp_path / "out"
        code = main(["reconstruct", str(sig), "--config", cfg,
                     "--out", str(out_dir), "--method", "dft", "--quiet"])
        assert code == 2
        assert "cannot read signal" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_solver_diagnostics_in_report(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out_dir), "--quiet"])
        main(
            ["reconstruct", str(out_dir / "signal.json"), "--config", cfg,
             "--out", str(out_dir), "--method", "anm", "--quiet"]
        )
        report = load_json(out_dir / "report_anm.json")
        assert {"iterations", "primal_residual", "dual_residual", "objective", "converged"} <= set(
            report["solver"]
        )

    def test_retarded_convention_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_dir = tmp_path / "ret"
        assert (
            main(
                ["simulate", "--config", cfg, "--out", str(out_dir), "--convention",
                 "retarded", "--quiet"]
            )
            == 0
        )
        sig = load_json(out_dir / "signal.json")
        # the prefactor turns the t = 0 value 1 into -i
        assert sig["samples"][0] == pytest.approx([0.0, -1.0])
        code = main(
            ["reconstruct", str(out_dir / "signal.json"), "--config", cfg,
             "--out", str(out_dir), "--method", "anm", "--convention", "retarded", "--quiet"]
        )
        assert code == 0
        assert load_json(out_dir / "report_anm.json")["epsilon"] < 1e-3

    def test_usage_error_on_bad_flags(self):
        assert main(["reconstruct"]) == 1
        assert main(["frobnicate"]) == 1

    def test_seed_is_usage_error(self, tmp_path):
        # reconstruct draws no sample, so a seed could change nothing
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
        args = ["reconstruct", str(tmp_path / "signal.json"), "--config", cfg, "--quiet"]
        assert main([*args, "--out", str(tmp_path / "out"), "--seed", "3"]) == 1
        assert not (tmp_path / "out").exists()


class TestSweepCommand:
    def test_csv_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            signal={"evolver": "trotter2", "t_max": 0.4, "n": 10, "shots": 2000, "seed": 0},
            method={
                "anm": {"tau": "ladder", "max_iters": 4000},
            },
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["sweep", "--config", cfg, "--t-max", "0.3,0.4", "--seeds", "0,1", "--quiet"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b), "--workers", "3"]) == 0
        csv_a = (out_a / "sweep.csv").read_bytes()
        csv_b = (out_b / "sweep.csv").read_bytes()
        assert csv_a == csv_b
        header = csv_a.decode().splitlines()[0]
        assert header == "t_max,method,variant,n,seed,epsilon"
        meta = load_json(out_a / "sweep_meta.json")
        assert meta["theory_threshold_t_max"] == pytest.approx(6.3, abs=0.2)

    def test_threshold_failure_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # the theory threshold is checked before any cell runs
        def undefined(config):
            raise ValueError("threshold undefined for fewer than two poles")

        monkeypatch.setattr(pipeline, "theory_threshold_t_max", undefined)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "t"
        args = ["sweep", "--config", cfg, "--t-max", "0.27", "--method", "dft", "--out", str(out)]
        assert main(args) == 1
        assert "bad config" in capsys.readouterr().err
        assert not out.exists()

    def test_variant_flag(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "v"
        code = main(
            [
                "sweep",
                "--config",
                cfg,
                "--t-max",
                "0.27",
                "--seeds",
                "0",
                "--method",
                "dft",
                "--variant",
                "exact_noiseless",
                "--variant",
                "trotter2_noiseless",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        variants = {r.split(",")[2] for r in rows[1:]}
        assert variants == {"exact_noiseless", "trotter2_noiseless"}

    def test_summary_counts_unconverged_cells(self, tmp_path, capsys):
        # a three-iteration budget cannot converge; the cell still gets an epsilon
        cfg = write_config(
            tmp_path / "cfg.json",
            signal={"evolver": "exact", "t_max": 0.3, "n": 8, "seed": 0},
            method={"anm": {"tau": 0.05, "max_iters": 3}},
        )
        out = tmp_path / "u"
        args = ["sweep", "--config", cfg, "--t-max", "0.3", "--method", "anm", "--out", str(out)]
        assert main(args) == 0
        assert "(1 cells, 0 failed, 1 not converged)" in capsys.readouterr().out
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[1].split(",")[-1] != "nan"

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--t-max", "0.3,abc"),
            ("--t-max", "nan"),
            ("--t-max", "inf"),
            ("--t-max", "1e400"),  # overflows to inf
            ("--t-max", "0"),  # no window is empty or negative
            ("--t-max", "0.3,-1,0"),
            ("--seeds", "x"),
            ("--seeds", "0,-1"),
        ],
    )
    def test_malformed_list_is_usage_error(self, tmp_path, capsys, flag, value):
        args = ["sweep", "--t-max", "0.3", "--method", "dft", "--out", str(tmp_path), flag, value]
        assert main(args) == 1
        assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("flag, seed", [(None, "7"), ("--seeds", "5"), ("--seed", "5")])
    def test_seed_reaches_csv(self, tmp_path, flag, seed):
        # without --seeds the config's seed runs; --seed abbreviates --seeds
        cfg = write_config(tmp_path / "cfg.json", signal={"t_max": 0.27, "n": 24, "seed": 7})
        out = tmp_path / "s"
        args = ["sweep", "--config", cfg, "--t-max", "0.27", "--method", "dft", "--out", str(out)]
        assert main([*args, "--quiet", *([flag, seed] if flag else [])]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert [r.split(",")[4] for r in rows[1:]] == [seed]

    def test_without_config(self, tmp_path):
        # the default config sets no window; the theory threshold needs none.
        # At the default spacing of 0.473 the window 0.01 holds one sample
        # and the window 1.0 three
        out = tmp_path / "d"
        args = ["sweep", "--t-max", "0.01,1.0", "--method", "dft", "--out", str(out), "--quiet"]
        assert main(args) == 0
        with open(out / "sweep.csv", newline="") as fh:
            failed, scored = csv.DictReader(fh)
        assert (failed["t_max"], failed["n"], failed["epsilon"]) == ("0.01", "-1", "nan")
        assert (scored["t_max"], scored["method"], scored["n"]) == ("1", "dft", "3")
        assert math.isfinite(float(scored["epsilon"]))
        meta = load_json(out / "sweep_meta.json")
        assert meta["theory_threshold_t_max"] > 0
