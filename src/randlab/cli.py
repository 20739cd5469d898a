"""labcli: load fixtures, run exact property suites, emit deterministic reports.

All numeric evidence in reports is rendered as "p/q" strings.  Records are
sorted by a canonical key before encoding, so identical inputs give
identical output bytes.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from typing import Any, NoReturn, Optional, Sequence

from . import __version__, derivatives, markov, martingales, randomness, serialize, ttmeasures
from .cauchy import const_name
from .errors import BudgetExceeded, ParseError, RandlabError
from .intervals import _INDEX_TEXT, RationalInterval, _int, format_rational
from .randomness import CheckRecord

FIXTURE_DIR_ENV = "LABCLI_FIXTURE_DIR"
# the deepest level `verify` and `report` check, per fixture type: --depth
# is clipped to it (a test family's checks read no depth)
MEASURE_VERIFY_DEPTH = 6
MARTINGALE_VERIFY_DEPTH = 8
CAUCHY_NAME_VERIFY_DEPTH = 16
# a non-negative integer flag; a signed one is intervals._INDEX_TEXT
_DIGITS = re.compile(r"[0-9]+")


def _resolve(path: str) -> str:
    if os.path.isabs(path) or os.path.exists(path):
        return path
    base = os.environ.get(FIXTURE_DIR_ENV)
    if base:
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _verify_test_family(doc: dict[str, Any], depth: int) -> Sequence[CheckRecord]:
    """The family's updates, then its `randomness.validate` records: a test
    family is checked whole, so `depth` is not read."""
    t = serialize.test_family_from_json(doc)
    records = []
    for m, u in serialize.updates_from_json(doc):
        try:
            t = randomness.demuth_update(t, m, u)
            records.append(CheckRecord(f"update[m={m}]", True))
        except RandlabError as exc:
            records.append(CheckRecord(f"update[m={m}]", False, str(exc)))
    return records + list(randomness.validate(t).records)


def _table_depth(doc: dict[str, Any], depth: int) -> int:
    """depth, or for a decoded table fixture the smaller of depth and the
    depth the table is given to: its longest key, a bit string.  A level
    shorter than that with a missing string is a hole, read as such."""
    if doc["rule"] != "table":
        return depth
    return min(depth, max(map(len, doc["table"]), default=0))


def _verify_measure(doc: dict[str, Any], depth: int) -> Sequence[CheckRecord]:
    mu = serialize.measure_from_json(doc)
    return ttmeasures.validate_measure(mu, _table_depth(doc, depth))


def _verify_martingale(doc: dict[str, Any], depth: int) -> Sequence[CheckRecord]:
    m = serialize.martingale_from_json(doc)
    d = _table_depth(doc, depth)
    rep = martingales.check_fairness(m, d)
    capitals, den = m.level(d)
    level_sum = Fraction(sum(capitals), den)
    expected = 2**d * m.initial_capital
    return [
        CheckRecord(f"fairness_to_depth_{d}", rep.ok, rep.violation or ""),
        CheckRecord(
            f"level_sum_depth_{d}",
            level_sum == expected,
            f"{format_rational(level_sum)} vs {format_rational(expected)}",
        ),
    ]


def _verify_name(doc: dict[str, Any], depth: int) -> Sequence[CheckRecord]:
    z = serialize.name_from_json(doc)
    name = f"cauchy_contract_to_{depth}"
    for n in range(depth + 1):
        for k in range(n, depth + 1):
            gap = abs(z.at(k) - z.at(n))
            if gap > Fraction(1, 2**n):
                return [CheckRecord(name, False, f"|q_{k} - q_{n}| = {format_rational(gap)}")]
    # a name that gives its exact value must approximate it: |q_n - exact| <= 2^-n
    if z.exact is not None:
        for n in range(depth + 1):
            gap = abs(z.at(n) - z.exact)
            if gap > Fraction(1, 2**n):
                return [CheckRecord(name, False, f"|q_{n} - exact| = {format_rational(gap)}")]
    return [CheckRecord(name, True)]


# each fixture type's verifier and the depth it clips --depth to
_VERIFIERS = {
    "test_family": (_verify_test_family, None),
    "measure": (_verify_measure, MEASURE_VERIFY_DEPTH),
    "martingale": (_verify_martingale, MARTINGALE_VERIFY_DEPTH),
    "cauchy_name": (_verify_name, CAUCHY_NAME_VERIFY_DEPTH),
}


def verify_fixture(path: str, depth: int) -> list[CheckRecord]:
    """The fixture's checks, each named after the fixture's file."""
    doc = serialize.load_fixture(_resolve(path))
    kind = doc.get("type")
    if not isinstance(kind, str) or kind not in _VERIFIERS:
        raise ParseError(f"{path}: unknown fixture type {kind!r}")
    verifier, cap = _VERIFIERS[kind]
    records = verifier(doc, depth if cap is None else min(depth, cap))
    tag = os.path.basename(path)
    return [CheckRecord(f"{tag}:{r.name}", r.passed, r.detail) for r in records]


def cmd_verify(args: argparse.Namespace) -> tuple[list[CheckRecord], dict]:
    return [r for path in args.fixture for r in verify_fixture(path, args.depth)], {}


def _one_fixture(args: argparse.Namespace) -> dict[str, Any]:
    """The one `--fixture` of a command that reads a single test family."""
    if len(args.fixture) > 1:
        raise ParseError(f"--fixture: {args.command} reads one fixture, got {len(args.fixture)}")
    return serialize.load_fixture(_resolve(args.fixture[0]))


def cmd_evaluate(args: argparse.Namespace) -> tuple[list[CheckRecord], dict]:
    t = serialize.test_family_from_json(_one_fixture(args))
    z = serialize.name_from_json(serialize.load_fixture(_resolve(args.name)))
    summary = randomness.evaluate(t, z, args.depth)
    records = [
        CheckRecord(
            f"component[m={m}]",
            v.result is not randomness.VerdictResult.UNDECIDED_AT_DEPTH,
            v.result.value
            + ("" if v.witness is None else f" via {v.witness}"),
        )
        for m, v in sorted(summary.per_component.items())
    ]
    output = {
        "captured": list(summary.captured),
        "escaped": list(summary.escaped),
        "undecided": list(summary.undecided),
        "convention": summary.convention,
        "note": summary.note,
    }
    return records, output


def cmd_transport(args: argparse.Namespace) -> tuple[list[CheckRecord], dict]:
    mu = serialize.measure_from_json(serialize.load_fixture(_resolve(args.measure)))
    res = ttmeasures.transport(mu, args.prefix)
    output = {
        "c_prefix": res.c_prefix,
        "status": res.status.value,
        "image": str(RationalInterval(res.image_lo, res.image_hi, False, True)),
    }
    ok = res.status is ttmeasures.TransportStatus.OK
    detail = f"-> {res.c_prefix!r}, image {output['image']}"
    return [CheckRecord(f"transport[{args.prefix}]", ok, detail)], output


def _function(name: str) -> markov.MarkovFunction:
    try:
        return markov.function_by_name(name)
    except (ValueError, ParseError) as exc:
        raise ParseError(f"--function: {exc}") from exc


def cmd_derive(args: argparse.Namespace) -> tuple[list[CheckRecord], dict]:
    f = _function(args.function)
    at = serialize._rational(args.at, "--at")
    scale = serialize._rational(args.scale, "--scale")
    tol = serialize._rational(args.tol, "--tol")
    try:
        est = derivatives.pseudo_derivative(f, const_name(at), scale, args.precision)
    except ValueError as exc:
        raise ParseError(f"derive: {exc}") from exc
    verdict = derivatives.classify_denjoy(est, tol)
    output = {
        "upper": "inf" if est.upper_infinite else format_rational(est.upper),
        "lower": "-inf" if est.lower_infinite else format_rational(est.lower),
        "scale": format_rational(est.scale),
        "grid": est.grid_denominator,
        "flags": [est.upper_infinite, est.lower_infinite],
        "verdict": verdict.value,
    }
    resolved = verdict is not derivatives.DenjoyVerdict.UNRESOLVED
    return [CheckRecord(f"derive[{args.function}@{args.at}]", resolved, verdict.value)], output


def cmd_tree(args: argparse.Namespace) -> tuple[list[CheckRecord], dict]:
    f = _function(args.function)
    tree = markov.oscillation_tree(f, args.precision, args.depth)
    closed = all(s[:-1] in tree or s == "" for s in tree)
    record = CheckRecord("downward_closed", closed, f"{len(tree)} strings")
    return [record], {"strings": sorted(tree, key=lambda s: (len(s), s))}


def cmd_convert(args: argparse.Namespace) -> tuple[list[CheckRecord], dict]:
    t = serialize.test_family_from_json(_one_fixture(args))
    if t.kind is randomness.TestKind.SOLOVAY:
        out = randomness.convert_solovay_to_ml(t, args.depth)
    elif t.kind is randomness.TestKind.INTERVAL_SEQUENCE:
        out = randomness.interval_sequence_to_schnorr(t, args.depth)
    else:
        raise ParseError(f"no conversion from kind {t.kind.value}")
    checks = randomness.validate(out).records
    records = [CheckRecord(f"converted:{r.name}", r.passed, r.detail) for r in checks]
    return records, {"result": serialize.test_family_to_json(out)}


def cmd_report(args: argparse.Namespace) -> tuple[list[CheckRecord], dict]:
    base = args.fixture_dir or os.environ.get(FIXTURE_DIR_ENV) or "fixtures"
    try:
        names = os.listdir(base)
    except OSError as exc:
        raise ParseError(f"cannot list fixture directory {base!r}: {exc}") from exc
    paths = sorted(os.path.join(base, f) for f in names if f.endswith(".json"))
    records = [r for p in paths for r in verify_fixture(p, args.depth)]
    return records, {"fixtures": [os.path.basename(p) for p in paths]}


def _integer(text: str, signed: bool = False) -> int:
    """argparse type: ASCII digits, with a leading minus only when `signed`,
    read by `intervals._int`; any budget is the library's to check.  A
    refusal quotes at most the first 20 characters of the text."""
    kind = "an integer" if signed else "a non-negative integer"
    if (_INDEX_TEXT if signed else _DIGITS).fullmatch(text):
        try:
            return _int(text, kind)
        except ParseError:
            kind += f" of at most {sys.get_int_max_str_digits()} digits"
    shown = repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"
    raise argparse.ArgumentTypeError(f"expected {kind}, got {shown}")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ParseError, so main reports them as one
    `labcli:` line with exit 2."""

    def error(self, message: str) -> NoReturn:
        raise ParseError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: `parse_args` returns
    a fresh namespace and leaves the parser as it was."""
    parser = _Parser(
        prog="labcli",
        description="exact-arithmetic lab for interval tests, transports, "
        "and derivative estimates",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", default=None)
    # accepted on either side of the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text"), default=argparse.SUPPRESS
    )
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify", help="validate fixture invariants exactly", parents=[common]
    )
    p.add_argument("--fixture", action="append", required=True)
    p.add_argument("--depth", type=_integer, default=8)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("evaluate", help="membership of a point in a test", parents=[common])
    p.add_argument("--fixture", action="append", required=True)
    p.add_argument("--name", required=True, help="cauchy_name fixture path")
    p.add_argument("--depth", type=_integer, default=8)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("transport", help="transport a dyadic prefix along a cdf", parents=[common])
    p.add_argument("--measure", required=True)
    p.add_argument("--prefix", required=True)
    p.set_defaults(fn=cmd_transport)

    p = sub.add_parser("derive", help="pseudo-derivative estimate", parents=[common])
    p.add_argument("--function", required=True)
    p.add_argument("--at", required=True)
    p.add_argument(
        "--scale",
        default="1/1024",
        help="largest pair width h; must be at least 2^-(p+2), and some pair "
        "of grid points at most h apart must straddle the point, so the "
        "default 1/1024 needs --precision 10 or more",
    )
    p.add_argument(
        "--precision",
        type=_integer,
        default=14,
        help="p: slopes are taken over the grid k/2^p, "
        f"0..{derivatives.GRID_DENOMINATOR_BUDGET} (default %(default)s); see --scale",
    )
    p.add_argument("--tol", default="1/16")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("tree", help="oscillation tree of a function", parents=[common])
    p.add_argument("--function", required=True)
    p.add_argument("--precision", type=functools.partial(_integer, signed=True), default=0)
    p.add_argument("--depth", type=_integer, default=8)
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("convert", help="between test formalisms", parents=[common])
    p.add_argument("--fixture", action="append", required=True)
    p.add_argument("--depth", type=_integer, default=8)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("report", help="verify every fixture in a directory", parents=[common])
    p.add_argument("--fixture-dir", default=None)
    p.add_argument("--depth", type=_integer, default=8)
    # accepted for compatibility; fixtures are always verified in order
    p.add_argument("--workers", type=_integer, default=1)
    p.set_defaults(fn=cmd_report)

    return parser


def render(command: str, records: list[CheckRecord], output: dict, fmt: str) -> str:
    """The report: the one place a check's `passed` becomes PASS or FAIL."""
    rows = [
        {"name": r.name, "status": "PASS" if r.passed else "FAIL", "detail": r.detail}
        for r in sorted(records, key=lambda r: r.name)
    ]
    passed = sum(r.passed for r in records)
    doc = {
        "command": command,
        "version": __version__,
        "records": rows,
        "summary": {"total": len(rows), "passed": passed, "failed": len(rows) - passed},
    }
    if output:
        doc["output"] = output
    if fmt == "json":
        return serialize.canonical_json(doc)
    lines = [f"{r['status']} {r['name']} {r['detail']}".rstrip() for r in rows]
    lines.append(f"{passed}/{len(rows)} checks passed")
    return "\n".join(lines) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        records, output = args.fn(args)
    except SystemExit:
        # only --help exits here: usage errors raise ParseError
        return 0
    except (ParseError, BudgetExceeded) as exc:
        sys.stderr.write(f"labcli: {exc}\n")
        return 2
    except RandlabError as exc:
        sys.stderr.write(f"labcli: {exc}\n")
        return 1
    text = render(args.command, records, output, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(
                f"labcli: cannot write --out {args.out}: {exc.strerror or exc}\n"
            )
            return 2
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
