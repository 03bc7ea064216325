"""Command-line surface: class specs in, CSV out.

Subcommands: dims, taxonomy, learn, sweep, verify. Every command is
deterministic given its flags and --seed; stdout is machine-parseable CSV with
a fixed header line (reports and diagnostics go to stderr). Exit codes:
0 ok, 1 check failure, 2 parse error, 3 enumeration cap, 4 invalid rate,
5 not realizable/separable. Bad input of any kind exits 2: a flag value that
its argparse type rejects (a usage error), a malformed spec, or a T or domain
beyond the spec's horizon.

Class-spec files are JSON, one object per file, with a normative `type` field
in {full, shifted_subset, product, linear_grid, parity, atdim_example,
taxonomy} plus type-specific parameters (`N`, `s_max`, `horizon`, `rate`,
`d`, `weight_bound`, `k_max`, `depth`, `parts`).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction

from . import classes, dims, harness, learners, verify
from .core import FiniteClass, check_bitstring
from .errors import (
    EnumerationTooLarge,
    HorizonExceeded,
    HorizonTooSmall,
    LabError,
    NotRealizable,
    NotSeparable,
    RateInvalid,
    RateNotNormalized,
    SpecParseError,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_RATE = 4
EXIT_NOT_REALIZABLE = 5


# ---------------------------------------------------------------------------
# Class-spec files
# ---------------------------------------------------------------------------

SPEC_TYPES = (
    "full",
    "shifted_subset",
    "product",
    "linear_grid",
    "parity",
    "atdim_example",
    "taxonomy",
)


def _need(obj: dict, field: str, typ, spec_type: str):
    if field not in obj:
        raise SpecParseError(f"spec type '{spec_type}' is missing field '{field}'")
    val = obj[field]
    if typ is int and (not isinstance(val, int) or isinstance(val, bool)):
        raise SpecParseError(f"field '{field}' must be an integer")
    if typ is list and not isinstance(val, list):
        raise SpecParseError(f"field '{field}' must be a list")
    return val


def _int_list(obj: dict, field: str, spec_type: str) -> list[int]:
    vals = _need(obj, field, list, spec_type)
    for v in vals:
        if not isinstance(v, int) or isinstance(v, bool):
            raise SpecParseError(f"field '{field}' must hold integers")
    return vals


def build_class(obj: dict, cap: int = classes.DEFAULT_CAP) -> FiniteClass:
    if not isinstance(obj, dict):
        raise SpecParseError("spec must be a JSON object")
    if "type" not in obj:
        raise SpecParseError("spec is missing field 'type'")
    t = obj["type"]
    if t not in SPEC_TYPES:
        raise SpecParseError(f"field 'type' has unknown value {t!r}")
    try:
        if t == "full":
            return classes.make_full_class(_need(obj, "horizon", int, t), cap)
        if t == "shifted_subset":
            N = classes.IntervalSet(tuple(sorted(_int_list(obj, "N", t))))
            return classes.make_shifted_subset_class(
                N, _need(obj, "s_max", int, t), _need(obj, "horizon", int, t), cap
            )
        if t == "product":
            parts = [build_class(p, cap) for p in _need(obj, "parts", list, t)]
            return classes.make_product_class(parts, cap)
        if t == "linear_grid":
            return classes.enumerate_linear_class(
                _need(obj, "d", int, t),
                _need(obj, "weight_bound", int, t),
                _need(obj, "horizon", int, t),
                cap,
            )
        if t == "parity":
            return classes.make_parity_class(
                _need(obj, "k_max", int, t), _need(obj, "horizon", int, t), cap
            )
        if t == "atdim_example":
            return classes.make_atdim_example_class(
                _need(obj, "depth", int, t), _need(obj, "horizon", int, t), cap
            )
        # taxonomy
        rate = classes.RateTable(tuple(_int_list(obj, "rate", t)))
        return classes.make_taxonomy_class(
            rate, _need(obj, "s_max", int, t), _need(obj, "horizon", int, t), cap
        )
    except ValueError as e:  # a parameter the constructor rejects
        raise SpecParseError(str(e)) from e


def load_class(path: str, cap: int = classes.DEFAULT_CAP) -> FiniteClass:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise SpecParseError(f"cannot read spec file: {e}") from e
    except json.JSONDecodeError as e:
        raise SpecParseError(f"spec file is not valid JSON: {e}") from e
    return build_class(obj, cap)


def int_at_least(lo: int | None, sep: str | None = None):
    """argparse type: an integer >= lo (any integer if lo is None), or with
    sep a list of them joined by sep. Anything else is a usage error, exit 2."""

    def parse(text: str):
        try:
            values = [int(v) for v in (text.split(sep) if sep else [text])]
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if lo is not None and any(v < lo for v in values):
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text!r}")
        return values if sep else values[0]

    return parse


def probability(text: str) -> Fraction:
    """argparse type: a fraction in [0, 1]."""
    try:
        value = Fraction(text)
        if 0 <= value <= 1:
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"must be a fraction in [0, 1], got {text!r}")


def parse_domain(text: str) -> tuple[str, ...]:
    """argparse type: either 'chain:K' (prompts 0^1..0^K) or a comma-separated
    prompt list where '-' stands for the empty prompt; prompts must be
    distinct."""
    if text.startswith("chain:"):
        k = int_at_least(0)(text.split(":", 1)[1])
        return dims.chain_domain(k)
    toks = (tok.strip() for tok in text.split(","))
    try:
        return dims.check_domain(
            ["" if tok in ("", "-") else check_bitstring(tok) for tok in toks]
        )
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


# ---------------------------------------------------------------------------
# CSV / SVG writers
# ---------------------------------------------------------------------------


def write_csv(header, rows, out=None):
    w = csv.writer(out or sys.stdout, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)


def read_sample_csv(path: str) -> list[tuple[str, str]]:
    """The (prompt, trace) rows of a sample file: bit strings, with nonempty
    traces all of the first trace's length."""
    try:
        fh = open(path, newline="")
    except OSError as e:
        raise SpecParseError(f"cannot read sample file: {e}") from e
    with fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header is None or [h.strip() for h in header[:2]] != ["prompt", "trace"]:
            raise SpecParseError("sample file must have header 'prompt,trace'")
        out = []
        for row in rd:
            if not row:
                continue
            if len(row) < 2:
                raise SpecParseError(f"sample row {row!r} lacks a trace column")
            try:
                x, y = check_bitstring(row[0]), check_bitstring(row[1])
            except ValueError as e:
                raise SpecParseError(str(e)) from e
            if not y:
                raise SpecParseError(f"sample row {row!r} has an empty trace")
            if out and len(y) != len(out[0][1]):
                T = len(out[0][1])
                raise SpecParseError(f"trace {y!r} has length {len(y)} != T={T}")
            out.append((x, y))
    return out


def write_svg_lines(path: str, series: dict[str, list[tuple[float, float]]],
                    width: int = 640, height: int = 400) -> None:
    """Tiny polyline chart (content not normative)."""
    pad = 44
    pts = [p for ps in series.values() for p in ps]
    if not pts:
        xs = ys = (0.0, 1.0)
    else:
        xs = (min(p[0] for p in pts), max(p[0] for p in pts))
        ys = (min(p[1] for p in pts), max(p[1] for p in pts))

    def sx(x):
        span = xs[1] - xs[0] or 1.0
        return pad + (x - xs[0]) / span * (width - 2 * pad)

    def sy(y):
        span = ys[1] - ys[0] or 1.0
        return height - pad - (y - ys[0]) / span * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, (name, ps) in enumerate(sorted(series.items())):
        col = colors[i % len(colors)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in ps)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{col}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{pad}" y="{16 + 14 * i}" fill="{col}" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(parts))
    except OSError as e:
        raise SpecParseError(f"cannot write svg file: {e}") from e


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

DIM_NAMES = ("vc_base", "vc_e2e", "nat_cot", "vc_dual", "littlestone", "atdim")


def cmd_dims(args) -> int:
    domain = args.domain
    cls = load_class(args.spec, args.cap)
    wanted = DIM_NAMES if args.which == "all" else (args.which,)
    rows = []
    for name in wanted:
        t0 = time.perf_counter()
        if name == "vc_base":
            val = dims.vc_dimension(dims.restrict_base(cls, domain))
        elif name == "vc_e2e":
            val = dims.vc_dimension(dims.restrict_e2e(cls, domain, args.T))
        elif name == "nat_cot":
            val = dims.natarajan_dimension(dims.restrict_cot(cls, domain, args.T))
        elif name == "vc_dual":
            val = dims.dual_vc_dimension(cls, domain)
        elif name == "littlestone":
            val = dims.littlestone_dimension(cls, domain, depth_cap=args.depth_cap)
        else:
            val = dims.atdim_realized(cls, domain, args.T)
        rows.append((name, val, f"{(time.perf_counter() - t0) * 1e3:.3f}"))
        if name == "littlestone" and val == args.depth_cap:
            deeper = dims.littlestone_dimension(cls, domain, depth_cap=val + 1)
            if deeper > val:
                print(f"warning: littlestone search truncated at --depth-cap {val}; "
                      "the value is a lower bound", file=sys.stderr)
    write_csv(("dimension", "value", "wall_time_ms"), rows)
    return EXIT_OK


def cmd_taxonomy(args) -> int:
    rate = classes.RateTable(tuple(args.rate))
    t_max = args.Tmax or rate.t_max
    if t_max > rate.t_max:
        raise SpecParseError(f"--Tmax {t_max} exceeds tabulated rate length {rate.t_max}")
    s_max = args.smax if args.smax is not None else t_max
    _, rows = verify.taxonomy_sandwich(rate, t_max, s_max, args.cap)
    write_csv(("T", "r", "vc_e2e", "lower_ok", "upper_ok"), rows)
    return EXIT_OK if all(r[3] and r[4] for r in rows) else EXIT_CHECK_FAILED


def cmd_learn(args) -> int:
    cls = load_class(args.spec, args.cap)
    pairs = read_sample_csv(args.sample)
    if not pairs:
        raise SpecParseError("sample file is empty")
    T = len(pairs[0][1])
    S = learners.CotSample(tuple(pairs), T)
    report: dict = {"learner": args.learner, "m": len(S), "T": T}
    if args.learner == "erm_e2e":
        # e2e supervision: the first generator consistent with the final bits
        prompts = tuple(dict.fromkeys(x for x, _ in S))
        pos = {x: i for i, x in enumerate(prompts)}
        table = harness._e2e_table(cls, T, prompts)
        g = harness.erm_e2e(len(cls), table, [(pos[x], y[-1]) for x, y in S])
        hyp = learners.CotHypothesis(cls[g], T)
    else:
        d = args.d
        if d is None and args.learner == "linear_stable":
            first = next(iter(cls), None)
            if not isinstance(first, classes.LinearGenerator):
                raise SpecParseError(
                    "linear_stable needs -d or a linear_grid spec with 'd'")
            d = first.params.d
        hyp, kernel = harness.train_cot(cls, S, args.learner, args.seed, d=d)
        if args.learner == "cot_compress":
            report.update(kernel.size_report(len(S)))
        elif args.learner == "linear_stable":
            report.update({"kernel_size": len(kernel), "d": d})
    rows = []
    for x, y in S:
        pred = hyp(x)
        rows.append((x, y, pred, pred == y))
    write_csv(("prompt", "trace", "prediction", "consistent"), rows)
    print("kernel report: " + json.dumps(report, default=str), file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not args.support:
        raise SpecParseError("--support names no prompt")
    dist = harness.Distribution.uniform(args.support)
    cls = load_class(args.spec, args.cap)
    try:
        cfg = harness.TrialConfig(
            cls=cls, dist=dist, T=1, mode=args.mode, learner=args.learner, m=0,
            rng_seed=args.seed, d=args.d,
        )
    except ValueError as e:  # a learner that does not fit --mode, or lacks -d
        raise SpecParseError(str(e)) from e
    rows = harness.sweep_T(cfg, args.Ts, args.eps, args.delta, args.R, args.m_cap)
    if args.svg:
        write_svg_lines(
            args.svg, {args.mode: [(r["T"], r["m_hat"]) for r in rows]}
        )
    write_csv(
        ("T", "mode", "m_hat", "failure_rate"),
        [(r["T"], r["mode"], r["m_hat"], float(r["failure_rate"])) for r in rows],
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    suite = {
        "lemmas": verify.suite_lemmas,
        "compression": verify.suite_compression,
        "parity": verify.suite_parity,
        "sauer": verify.suite_sauer,
    }[args.suite]
    checks = suite(seed=args.seed, trials=args.trials)
    failed = sum(1 for _, ok_flag, _ in checks if not ok_flag)
    write_csv(
        ("status", "check", "detail"),
        [("ok" if ok_flag else "FAIL", name, detail) for name, ok_flag, detail in checks],
    )
    print(f"{len(checks) - failed}/{len(checks)} checks passed", file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="arlab",
        description="Desk-scale laboratory for autoregressive PAC learning.",
    )
    positive = int_at_least(1)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dims", help="brute-force dimensions of a class spec")
    d.add_argument("--spec", required=True)
    d.add_argument("--domain", required=True, type=parse_domain,
                   help="chain:K or comma list")
    d.add_argument("--T", type=positive, default=1)
    d.add_argument("--which", default="all", choices=DIM_NAMES + ("all",))
    d.add_argument("--depth-cap", type=positive, default=12)
    d.add_argument("--cap", type=positive, default=classes.DEFAULT_CAP)
    d.set_defaults(func=cmd_dims)

    t = sub.add_parser("taxonomy", help="check the rate sandwich for a rate table")
    t.add_argument("--rate", required=True, type=int_at_least(None, ","),
                   help="comma list r(1),r(2),...")
    t.add_argument("--Tmax", type=positive, default=None)
    t.add_argument("--smax", type=int_at_least(0), default=None)
    t.add_argument("--cap", type=positive, default=classes.DEFAULT_CAP)
    t.set_defaults(func=cmd_taxonomy)

    l = sub.add_parser("learn", help="train a learner on a sample file")
    l.add_argument("--spec", required=True)
    l.add_argument("--sample", required=True, help="CSV with columns prompt,trace")
    l.add_argument("--learner", required=True, choices=harness.LEARNER_MODES)
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("-d", type=positive, default=None, help="window for linear_stable")
    l.add_argument("--cap", type=positive, default=classes.DEFAULT_CAP)
    l.set_defaults(func=cmd_learn)

    s = sub.add_parser("sweep", help="empirical sample complexity across T")
    s.add_argument("--spec", required=True)
    s.add_argument("--Ts", required=True, type=int_at_least(1, ","),
                   help="comma list of generation lengths")
    s.add_argument("--mode", required=True, choices=("e2e", "cot"))
    s.add_argument("--learner", required=True, choices=harness.LEARNER_MODES)
    s.add_argument("--support", type=parse_domain, default="chain:8")
    s.add_argument("--eps", type=probability, default="0.1")
    s.add_argument("--delta", type=probability, default="0.1")
    s.add_argument("--R", type=positive, default=100)
    s.add_argument("--m-cap", type=int_at_least(0), default=4096)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--svg", default=None)
    s.add_argument("-d", type=positive, default=None)
    s.add_argument("--cap", type=positive, default=classes.DEFAULT_CAP)
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run a named property suite")
    v.add_argument("--suite", required=True,
                   choices=("lemmas", "compression", "parity", "sauer"))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=positive, default=None,
                   help="scale down the default trial counts")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecParseError, HorizonTooSmall, HorizonExceeded) as e:
        # bad input: a malformed flag or spec, a spec whose own parameters are
        # inconsistent, or a T or domain beyond the spec's horizon
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationTooLarge as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except (RateInvalid, RateNotNormalized) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RATE
    except (NotRealizable, NotSeparable) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NOT_REALIZABLE
    except (LabError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
