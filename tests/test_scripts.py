"""Smoke runs of the experiment scripts at small sizes."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, line",
    [
        ("taxonomy_report", ["--Tmax", "3"], "all sandwiches hold"),
        ("parity_experiment", ["--n", "4", "--R", "20"], "freq(error >= 1/4): 0.650"),
        ("sweep_cot_vs_e2e", ["--Ts", "1,2", "--R", "20"], "cot spread: max/min = 4/3"),
    ],
    ids=["taxonomy_report", "parity_experiment", "sweep_cot_vs_e2e"],
)
def test_script_runs(script, args, line):
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{script}.py"), *args],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert line in out.stdout.splitlines()
