"""The demo scripts run end to end against the current API."""

import runpy
from pathlib import Path

import pytest

from greenspec.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"

EXPECTED = {
    "01_rescaling.py": "shift for [-1/2,1/2) readout",
    "02_impurity_signal.py": "conditioned Hamiltonian terms",
    "03_atomic_norm_denoising.py": "recovered lines",
    "04_dft_baseline.py": "sub-window pair",
    "05_window_sweep.py": "guaranteed-recovery window",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert EXPECTED[name] in capsys.readouterr().out


def test_example_config_loads():
    # the README quick start runs this file
    assert main(["oracle", "--config", str(DEMOS / "config.example.json"), "--quiet"]) == 0
