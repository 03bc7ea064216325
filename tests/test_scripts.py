"""Smoke runs of the experiment scripts at small sizes."""

import runpy
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


@pytest.mark.parametrize(
    "script, args",
    [
        ("parity_experiment", ["--R", "0"]),
        ("parity_experiment", ["--T", "2"]),
        ("parity_experiment", ["--k-max", "1"]),
        ("parity_experiment", ["--k-max", "21"]),
        ("parity_experiment", ["--n", "11"]),
        ("sweep_cot_vs_e2e", ["--R", "0"]),
        ("sweep_cot_vs_e2e", ["--Ts", "1,x"]),
        ("sweep_cot_vs_e2e", ["--eps", "1/0"]),
        ("taxonomy_report", ["--Tmax", "0"]),
    ],
    ids=[
        "parity-R-zero", "parity-T-even", "parity-k-max-small",
        "parity-k-max-over-cap", "parity-n-over-cap", "sweep-R-zero",
        "sweep-Ts-not-int", "sweep-eps-not-fraction", "taxonomy-Tmax-zero",
    ],
)
def test_script_rejects_bad_flag(script, args, monkeypatch, capsys):
    # argparse rejects the value before any work: a usage error, exit 2. Run
    # in-process, so any other exception, the one that would print a
    # traceback, fails the test itself.
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    monkeypatch.setattr(sys, "argv", [f"{script}.py", *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / f"{script}.py"), run_name="__main__")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{script}.py: error: " in err and "Traceback" not in err
