"""CLI surface: spec files, exit codes, CSV output."""

import argparse
import csv
import json
import subprocess
import sys

import pytest

from arlab import cli
from arlab.cli import main, parse_domain, read_sample_csv
from arlab.classes import IntervalSet, enumerate_linear_class, make_shifted_subset_class
from arlab.core import cot_trace, e2e_output


def write_spec(tmp_path, obj, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


SHIFTED = {"type": "shifted_subset", "N": [1, 3, 4], "s_max": 16, "horizon": 32}


def run_main(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as e:  # argparse rejects a flag value: a usage error
        rc = e.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_parse_domain():
    assert parse_domain("chain:3") == ("0", "00", "000")
    assert parse_domain("01,1,-") == ("01", "1", "")
    for bad in ("01,2x", "0,0", "chain:x", "chain:-1"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_domain(bad)


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
F13 = {"type": "shifted_subset", "N": [1, 3], "s_max": 8, "horizon": 16}
AC4_PRODUCT = {"type": "product", "parts": [F13, F13]}
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
    # 1,296 generator columns: the dual search finishes
    pytest.param(["dims", "--spec", "SPEC", "--domain", "010,0100,01000,0010,00100,001000",
                  "--which", "vc_dual"], AC4_PRODUCT, None, 0, id="vc-dual-product"),
    # malformed sample files and out-of-range flags are bad input
    pytest.param(["learn", "--spec", "SPEC", "--sample", "SAMPLE", "--learner", "erm_e2e"],
                 FULL8, [("0", "0a")], 2, id="sample-trace-not-bits"),
    pytest.param(["learn", "--spec", "SPEC", "--sample", "SAMPLE", "--learner", "erm_e2e"],
                 FULL8, [("0", "")], 2, id="sample-trace-empty"),
    pytest.param(["learn", "--spec", "SPEC", "--sample", "SAMPLE", "--learner", "erm_e2e"],
                 FULL8, [("0", "01"), ("1", "011")], 2, id="sample-trace-lengths-differ"),
    pytest.param(["taxonomy", "--rate", "1,2,3,4", "--Tmax", "-1"], None, None, 2,
                 id="Tmax-negative"),
    pytest.param(["taxonomy", "--rate", "1,2,3,4", "--smax", "-1"], None, None, 2,
                 id="smax-negative"),
    pytest.param(["verify", "--suite", "lemmas", "--trials", "-1"], None, None, 2,
                 id="trials-negative"),
    pytest.param(["dims", "--spec", "SPEC", "--domain", "chain:-2"], SHIFTED, None, 2,
                 id="chain-negative"),
    pytest.param(["learn", "--spec", "SPEC", "--sample", "no/such/sample.csv",
                  "--learner", "erm_e2e"], SHIFTED, None, 2, id="sample-missing"),
    pytest.param(["sweep", "--spec", "SPEC", "--Ts", "1", "--mode", "e2e", "--learner",
                  "erm_e2e", "--support", "chain:2", "--R", "2", "--svg",
                  "no/such/dir/chart.svg"], SHIFTED, None, 2, id="svg-unwritable"),
    # a cap below 1 is a bad flag, not a class beyond the enumeration cap
    pytest.param(["dims", "--spec", "SPEC", "--domain", "chain:3", "--cap", "-5"],
                 {"type": "full", "horizon": 6}, None, 2, id="dims-cap-negative"),
    pytest.param(["taxonomy", "--rate", "1,1", "--cap", "0"], None, None, 2,
                 id="taxonomy-cap-zero"),
    pytest.param(["learn", "--spec", "SPEC", "--sample", "SAMPLE", "--learner", "erm_e2e",
                  "--cap", "0"], FULL8, [("0", "01")], 2, id="learn-cap-zero"),
    pytest.param(["sweep", "--spec", "SPEC", "--Ts", "1", "--mode", "e2e",
                  "--learner", "erm_e2e", "--R", "2", "--cap", "0"], SHIFTED, None, 2,
                 id="sweep-cap-zero"),
    # checked before the spec is read
    pytest.param(["sweep", "--spec", "no/such/spec.json", "--Ts", "1", "--mode", "e2e",
                  "--learner", "erm_e2e", "--support", "chain:0", "--R", "2"],
                 None, None, 2, id="support-empty"),
    # a bad flag value is an argparse usage error, checked by the flag's type
    pytest.param(["sweep", "--spec", "SPEC", "--Ts", "", "--mode", "e2e",
                  "--learner", "erm_e2e", "--R", "2"], SHIFTED, None, 2, id="Ts-empty"),
    pytest.param(["dims", "--spec", "SPEC", "--domain", "chain:x"], SHIFTED, None, 2,
                 id="chain-not-int"),
    # --rate parses as integers; RateTable owns the rate rules
    pytest.param(["taxonomy", "--rate", "0,1"], None, None, 4, id="rate-zero"),
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


@pytest.mark.parametrize(
    "spec, domain, cap, value, warned",
    [
        (FULL8, "0,1,00,01,10,11", "1", "1", True),
        # the value equals the cap, but one level deeper finds no more
        (SHIFTED, "chain:8", "1", "1", False),
        (FULL8, "0,1,00,01,10,11", "12", "2", False),
    ],
    ids=["truncated", "at-cap-exact", "below-cap"],
)
def test_dims_littlestone_truncation_warning(tmp_path, capsys, spec, domain, cap, value, warned):
    rc, out, err = run_main(
        ["dims", "--spec", write_spec(tmp_path, spec), "--domain", domain,
         "--which", "littlestone", "--depth-cap", cap],
        capsys,
    )
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["dimension", "value", "wall_time_ms"]
    assert rows[1][:2] == ["littlestone", value]
    assert err.count("warning: ") == int(warned)


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
    # every field quoted, so the empty prompt round-trips visibly
    path = tmp_path / name
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n")
        w.writerows([("prompt", "trace"), *pairs])
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


def test_learn_erm_cot(tmp_path, capsys):
    spec = write_spec(tmp_path, SHIFTED)
    cls = make_shifted_subset_class(IntervalSet((1, 3, 4)), 16, 32)
    pairs = [(x, cot_trace(cls[42], x, 3)) for x in ("0", "00", "000", "1")]
    sample = make_sample_file(tmp_path, pairs)
    rc, out, err = run_main(
        ["learn", "--spec", spec, "--sample", sample, "--learner", "erm_cot"], capsys
    )
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    assert len(rows) == 4 and all(r[3] == "True" for r in rows)
    report = json.loads(err.split("kernel report: ", 1)[1])
    assert report == {"learner": "erm_cot", "m": 4, "T": 3}


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
