"""CLI surface: spec files, exit codes, CSV output."""

import csv
import json
import subprocess
import sys

import pytest

from arlab import cli
from arlab.cli import main, parse_domain, read_sample_csv, write_bitstring_csv
from arlab.classes import IntervalSet, enumerate_linear_class, make_shifted_subset_class
from arlab.core import cot_trace, e2e_output


def write_spec(tmp_path, obj, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


SHIFTED = {"type": "shifted_subset", "N": [1, 3, 4], "s_max": 16, "horizon": 32}


def run_main(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_parse_domain():
    assert parse_domain("chain:3") == ("0", "00", "000")
    assert parse_domain("01,1,-") == ("01", "1", "")
    with pytest.raises(Exception):
        parse_domain("01,2x")


def test_dims_vc_e2e_row(tmp_path, capsys):
    spec = write_spec(tmp_path, SHIFTED)
    rc, out, _ = run_main(
        ["dims", "--spec", spec, "--domain", "chain:8", "--T", "4", "--which", "vc_e2e"],
        capsys,
    )
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["dimension", "value", "wall_time_ms"]
    assert rows[1][:2] == ["vc_e2e", "3"]


def test_dims_all_on_constant_like_class(tmp_path, capsys):
    spec = write_spec(
        tmp_path, {"type": "shifted_subset", "N": [], "s_max": 2, "horizon": 16}
    )
    rc, out, _ = run_main(
        ["dims", "--spec", spec, "--domain", "chain:3", "--T", "2", "--which", "all"],
        capsys,
    )
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    assert len(rows) == len(cli.DIM_NAMES)
    assert all(r[1] == "0" for r in rows)


def test_dims_product_spec(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "type": "product",
            "parts": [
                {"type": "shifted_subset", "N": [1, 3], "s_max": 4, "horizon": 12},
                {"type": "shifted_subset", "N": [1, 3], "s_max": 4, "horizon": 12},
            ],
        },
    )
    rc, out, _ = run_main(
        ["dims", "--spec", spec, "--domain", "010,0100,01000,0010,00100,001000",
         "--T", "2", "--which", "vc_e2e"],
        capsys,
    )
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[1][:2] == ["vc_e2e", "2"]


def test_dims_malformed_spec(tmp_path, capsys):
    spec = write_spec(tmp_path, {"type": "shifted_subset", "s_max": 2, "horizon": 8})
    rc, _, err = run_main(
        ["dims", "--spec", spec, "--domain", "chain:2", "--T", "1"], capsys
    )
    assert rc == 2
    assert "'N'" in err


def test_taxonomy_ok(tmp_path, capsys):
    rc, out, _ = run_main(["taxonomy", "--rate", "1,2,2,3"], capsys)
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["T", "r", "vc_e2e", "lower_ok", "upper_ok"]
    assert len(rows) == 5
    assert all(r[3] == "True" and r[4] == "True" for r in rows[1:])


def test_taxonomy_constant_rate(tmp_path, capsys):
    rc, out, _ = run_main(["taxonomy", "--rate", "1,1,1"], capsys)
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    assert all(r[2] == "1" for r in rows)


def test_taxonomy_wide_rate(capsys):
    # r(1) = 3 exercises three relocated copies
    rc, out, _ = run_main(["taxonomy", "--rate", "3,4,6"], capsys)
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    assert all(r[3] == "True" and r[4] == "True" for r in rows)


FULL8 = {"type": "full", "horizon": 8}
LINEAR1 = {"type": "linear_grid", "d": 1, "weight_bound": 1, "horizon": 16}

# (argv, spec written to SPEC, sample rows written to SAMPLE, exit code)
EXIT_CASES = [
    pytest.param(["taxonomy", "--rate", "1,1"], None, None, 0, id="ok"),
    # s_max < T_max leaves the lower bound unwitnessed: rows 3, 4 fail
    pytest.param(["taxonomy", "--rate", "1,2,3,4", "--smax", "1"], None, None, 1,
                 id="sandwich-fails"),
    pytest.param(["taxonomy", "--rate", "1,a"], None, None, 2, id="rate-not-int"),
    pytest.param(["sweep", "--spec", "SPEC", "--Ts", "1,a", "--mode", "e2e",
                  "--learner", "erm_e2e"], SHIFTED, None, 2, id="Ts-not-int"),
    pytest.param(["sweep", "--spec", "SPEC", "--Ts", "1", "--mode", "e2e",
                  "--learner", "erm_e2e", "--eps", "abc"], SHIFTED, None, 2,
                 id="eps-not-fraction"),
    pytest.param(["sweep", "--spec", "SPEC", "--Ts", "1", "--mode", "e2e",
                  "--learner", "erm_e2e", "--delta", "1/0"], SHIFTED, None, 2,
                 id="delta-zero-denominator"),
    # checked before any trial runs: no m reaches a failure rate <= -1
    pytest.param(["sweep", "--spec", "SPEC", "--Ts", "1", "--mode", "e2e",
                  "--learner", "erm_e2e", "--delta", "-1", "--R", "2"],
                 SHIFTED, None, 2, id="delta-negative"),
    pytest.param(["sweep", "--spec", "SPEC", "--Ts", "1", "--mode", "e2e",
                  "--learner", "cot_compress"], SHIFTED, None, 2, id="learner-wants-cot"),
    pytest.param(["sweep", "--spec", "SPEC", "--Ts", "1", "--mode", "cot",
                  "--learner", "erm_e2e"], SHIFTED, None, 2, id="learner-wants-e2e"),
    pytest.param(["sweep", "--spec", "SPEC", "--Ts", "1", "--mode", "cot",
                  "--learner", "linear_stable"], SHIFTED, None, 2, id="linear-stable-no-d"),
    pytest.param(["dims", "--spec", "SPEC", "--domain", "01,2x", "--T", "1"],
                 SHIFTED, None, 2, id="domain-not-bits"),
    pytest.param(["dims", "--spec", "SPEC", "--domain", "0,0", "--T", "1"],
                 SHIFTED, None, 2, id="domain-duplicate"),
    pytest.param(["dims", "--spec", "SPEC", "--domain", "chain:5", "--T", "6"],
                 FULL8, None, 2, id="T-beyond-horizon"),
    # a prompt of length H has no next bit, one longer than H neither
    pytest.param(["dims", "--spec", "SPEC", "--domain", "0000,1", "--which",
                  "littlestone"], {"type": "full", "horizon": 4}, None, 2,
                 id="littlestone-prompt-at-horizon"),
    pytest.param(["dims", "--spec", "SPEC", "--domain", "00000,1", "--which",
                  "vc_dual"], {"type": "full", "horizon": 4}, None, 2,
                 id="vc-dual-prompt-beyond-horizon"),
    pytest.param(["dims", "--spec", "SPEC", "--domain", "chain:1"],
                 {"type": "full", "horizon": 1}, None, 2, id="spec-horizon-too-small"),
    pytest.param(["dims", "--spec", "SPEC", "--domain", "chain:2", "--T", "0"],
                 SHIFTED, None, 2, id="T-zero"),
    pytest.param(["sweep", "--spec", "SPEC", "--Ts", "1,0", "--mode", "e2e",
                  "--learner", "erm_e2e"], SHIFTED, None, 2, id="Ts-zero"),
    pytest.param(["sweep", "--spec", "SPEC", "--Ts", "1", "--mode", "e2e",
                  "--learner", "erm_e2e", "--R", "0"], SHIFTED, None, 2, id="R-zero"),
    pytest.param(["learn", "--spec", "SPEC", "--sample", "SAMPLE", "--learner",
                  "linear_stable", "-d", "0"], LINEAR1, [("0", "01")], 2, id="learn-d-zero"),
    pytest.param(["sweep", "--spec", "SPEC", "--Ts", "1", "--mode", "cot", "--learner",
                  "linear_stable", "-d", "0", "--R", "2"], LINEAR1, None, 2,
                 id="sweep-d-zero"),
    pytest.param(["dims", "--spec", "SPEC", "--domain", "chain:2", "--which",
                  "littlestone", "--depth-cap", "0"], SHIFTED, None, 2, id="depth-cap-zero"),
    # a negative cap never runs out, so the search would run uncapped
    pytest.param(["dims", "--spec", "SPEC", "--domain", "chain:2", "--which",
                  "littlestone", "--depth-cap", "-1"], SHIFTED, None, 2,
                 id="depth-cap-negative"),
    pytest.param(["sweep", "--spec", "SPEC", "--Ts", "1", "--mode", "e2e",
                  "--learner", "erm_e2e", "--m-cap", "-1", "--R", "2"], SHIFTED, None, 2,
                 id="m-cap-negative"),
    pytest.param(["dims", "--spec", "SPEC", "--domain", "chain:2", "--T", "1",
                  "--which", "vc_base", "--cap", "1000"],
                 {"type": "full", "horizon": 18}, None, 3, id="cap"),
    pytest.param(["taxonomy", "--rate", "2,1"], None, None, 4, id="rate-invalid"),
    # one prompt, two different final bits
    pytest.param(["learn", "--spec", "SPEC", "--sample", "SAMPLE",
                  "--learner", "erm_e2e"],
                 SHIFTED, [("0", "01"), ("0", "00")], 5, id="e2e-not-realizable"),
]


@pytest.mark.parametrize("argv, spec, sample, code", EXIT_CASES)
def test_exit_code(tmp_path, capsys, argv, spec, sample, code):
    files = {}
    if spec is not None:
        files["SPEC"] = write_spec(tmp_path, spec)
    if sample is not None:
        files["SAMPLE"] = make_sample_file(tmp_path, sample)
    rc, _, err = run_main([files.get(a, a) for a in argv], capsys)
    assert rc == code, err
    assert ("error: " in err) == (code >= 2)


def test_verify_sauer(capsys):
    rc, out, err = run_main(
        ["verify", "--suite", "sauer", "--seed", "7", "--trials", "40"], capsys
    )
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["status", "check", "detail"]
    assert all(r[0] == "ok" for r in rows[1:])
    assert "checks passed" in err


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as e:
        main(["verify", "--suite", "nope"])
    assert e.value.code == 2


def test_verify_compression_small(capsys):
    rc, out, _ = run_main(
        ["verify", "--suite", "compression", "--seed", "1", "--trials", "8"], capsys
    )
    assert rc == 0


def test_verify_lemmas_and_parity(capsys):
    for suite, trials in (("lemmas", "5"), ("parity", "40")):
        rc, out, _ = run_main(
            ["verify", "--suite", suite, "--seed", "0", "--trials", trials], capsys
        )
        assert rc == 0, suite


def test_sweep_rows(tmp_path, capsys):
    spec = write_spec(tmp_path, SHIFTED)
    rc, out, _ = run_main(
        ["sweep", "--spec", spec, "--Ts", "1,2", "--mode", "e2e",
         "--learner", "erm_e2e", "--support", "chain:3", "--R", "6",
         "--seed", "2"],
        capsys,
    )
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["T", "mode", "m_hat", "failure_rate"]
    assert len(rows) == 3


def test_sweep_svg(tmp_path, capsys):
    spec = write_spec(tmp_path, SHIFTED)
    svg = tmp_path / "chart.svg"
    rc, _, _ = run_main(
        ["sweep", "--spec", spec, "--Ts", "1", "--mode", "e2e",
         "--learner", "erm_e2e", "--support", "chain:2", "--R", "4",
         "--svg", str(svg)],
        capsys,
    )
    assert rc == 0
    assert svg.read_text().startswith("<svg")


def make_sample_file(tmp_path, pairs, name="sample.csv"):
    path = tmp_path / name
    write_bitstring_csv(str(path), ("prompt", "trace"), pairs)
    return str(path)


def test_learn_linear_stable(tmp_path, capsys):
    spec = write_spec(
        tmp_path, {"type": "linear_grid", "d": 2, "weight_bound": 2, "horizon": 64}
    )
    grid = enumerate_linear_class(2, 2, H=64)
    target = grid[17]
    pairs = [(x, cot_trace(target, x, 2)) for x in ("", "0", "1", "01", "10", "11")]
    sample = make_sample_file(tmp_path, pairs)
    rc, out, err = run_main(
        ["learn", "--spec", spec, "--sample", sample, "--learner", "linear_stable"],
        capsys,
    )
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["prompt", "trace", "prediction", "consistent"]
    assert all(r[3] == "True" for r in rows[1:])
    report = json.loads(err.split("kernel report: ", 1)[1])
    assert report["kernel_size"] <= 3


def test_learn_cot_compress(tmp_path, capsys):
    spec = write_spec(tmp_path, SHIFTED)
    cls = make_shifted_subset_class(IntervalSet((1, 3, 4)), 16, 32)
    target = cls[42]
    pairs = [(x, cot_trace(target, x, 3)) for x in ("0", "00", "000", "1")]
    sample = make_sample_file(tmp_path, pairs)
    rc, out, err = run_main(
        ["learn", "--spec", spec, "--sample", sample, "--learner", "cot_compress",
         "--seed", "3"],
        capsys,
    )
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    assert all(r[3] == "True" for r in rows)
    report = json.loads(err.split("kernel report: ", 1)[1])
    assert {"kernel_size", "n_voters", "index_bits", "info_bits_estimate"} <= set(report)


def test_sweep_linear_stable(tmp_path, capsys):
    # the search tries m = 0 first: an empty sample has the empty kernel
    spec = write_spec(
        tmp_path, {"type": "linear_grid", "d": 2, "weight_bound": 1, "horizon": 64}
    )
    rc, out, _ = run_main(
        ["sweep", "--spec", spec, "--Ts", "1,2,4", "--mode", "cot",
         "--learner", "linear_stable", "-d", "2", "--R", "20"],
        capsys,
    )
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert [r[:2] for r in rows[1:]] == [["1", "cot"], ["2", "cot"], ["4", "cot"]]


def test_sweep_cot_learner(tmp_path, capsys):
    spec = write_spec(tmp_path, SHIFTED)
    rc, out, _ = run_main(
        ["sweep", "--spec", spec, "--Ts", "2", "--mode", "cot",
         "--learner", "cot_compress", "--support", "chain:3", "--R", "6",
         "--seed", "1"],
        capsys,
    )
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert len(rows) == 2 and rows[1][1] == "cot"


def test_learn_erm_e2e_first_consistent(tmp_path, capsys):
    spec = write_spec(tmp_path, SHIFTED)
    cls = make_shifted_subset_class(IntervalSet((1, 3, 4)), 16, 32)
    pairs = [(x, cot_trace(cls[42], x, 3)) for x in ("0", "00", "000", "1", "0")]
    sample = make_sample_file(tmp_path, pairs)
    rc, out, _ = run_main(
        ["learn", "--spec", spec, "--sample", sample, "--learner", "erm_e2e"], capsys
    )
    assert rc == 0
    # class order breaks ties among the e2e-consistent generators
    g = next(f for f in cls if all(e2e_output(f, x, 3) == y[-1] for x, y in pairs))
    preds = [r[2] for r in list(csv.reader(out.splitlines()))[1:]]
    assert preds == [cot_trace(g, x, 3) for x, _ in pairs]


def test_learn_not_realizable(tmp_path, capsys):
    spec = write_spec(
        tmp_path, {"type": "shifted_subset", "N": [1], "s_max": 1, "horizon": 16}
    )
    # no indicator sequence produces the trace "11" from the empty prompt
    sample = make_sample_file(tmp_path, [("", "11")])
    rc, _, err = run_main(
        ["learn", "--spec", spec, "--sample", sample, "--learner", "cot_compress"],
        capsys,
    )
    assert rc == 5


def test_sample_csv_quotes_empty(tmp_path):
    path = make_sample_file(tmp_path, [("", "01")])
    raw = open(path).read()
    assert '""' in raw
    assert read_sample_csv(path) == [("", "01")]


def test_cli_entrypoint_subprocess(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "arlab.cli", "taxonomy", "--rate", "1,1"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.startswith("T,r,vc_e2e")
