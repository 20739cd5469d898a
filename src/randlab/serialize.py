"""JSON fixture schemas and deterministic report encoding.

Every rational is serialized as "p/q" and every interval as a bracketed
string, so round-trips are exact and reports are reproducible bytes.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Callable

from .cauchy import CauchyName, const_name, scripted_name
from .errors import ParseError
from .intervals import (
    IntervalUnion,
    RationalInterval,
    _as_index,
    format_interval,
    format_rational,
    normalize_union,
    parse_interval,
    parse_rational,
)
from .martingales import Martingale, all_in_on_0, constant_martingale, split_bet, table_martingale
from .randomness import COMPONENT_INDEX_BUDGET, TestFamily, TestKind
from .ttmeasures import (
    CylinderMeasure,
    bernoulli_measure,
    table_measure,
    uniform_measure,
)

SCHEMA_VERSION = "0.1.0"


def _union_to_json(u: IntervalUnion) -> list[str]:
    return [format_interval(p) for p in u.parts]


def _union_from_json(parts: list[str]) -> IntervalUnion:
    if not isinstance(parts, list):
        raise TypeError(f"a union is a list of interval strings, got {parts!r}")
    return normalize_union(parse_interval(p) for p in parts)


def test_family_to_json(t: TestFamily) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "type": "test_family",
        "schema": SCHEMA_VERSION,
        "kind": t.kind.value,
        "label": t.label,
        "components": {
            str(m): [_union_to_json(u) for u in versions]
            for m, versions in sorted(t.components.items())
        },
    }
    kd = t.kind_data
    payload: dict[str, Any] = {}
    if t.kind is TestKind.SCHNORR:
        payload["declared_measures"] = {
            str(m): format_rational(q)
            for m, q in sorted(kd.get("declared_measures", {}).items())
        }
        if kd.get("relativized"):
            payload["relativized"] = True
    elif t.kind is TestKind.SOLOVAY:
        payload["total_bound"] = format_rational(kd["total_bound"])
    elif t.kind is TestKind.INTERVAL_SEQUENCE:
        payload["blocks"] = [
            {
                "m": m,
                "r": r,
                "table": {str(k): format_interval(iv) for k, iv in sorted(tab.items())},
                "excluded": sorted(kd.get("excluded", {}).get((m, r), ())),
            }
            for (m, r), tab in sorted(kd["blocks"].items())
        ]
    elif t.kind is TestKind.PI1:
        payload["q"] = [format_rational(x) for x in kd["q"]]
        payload["C"] = [sorted(c) for c in kd["C"]]
    elif t.kind in (TestKind.DEMUTH, TestKind.WEAK_DEMUTH):
        payload["budgets"] = {
            str(m): b for m, b in sorted(kd.get("budgets", {}).items())
        }
    doc["kind_data"] = payload
    return doc


def _decoder(kind: str) -> Callable[[Callable], Callable]:
    """The one boundary for malformed fixtures: the wrapped decoder gets a
    JSON object of type `kind`, and a ParseError, KeyError, TypeError,
    ValueError or AttributeError it raises becomes a ParseError naming the
    fixture type."""

    def wrap(decode: Callable[[dict[str, Any]], Any]) -> Callable[[Any], Any]:
        @functools.wraps(decode)
        def decoded(doc: Any) -> Any:
            if not isinstance(doc, dict) or doc.get("type") != kind:
                raise ParseError(f"expected a {kind} document")
            try:
                return decode(doc)
            except (ParseError, KeyError, TypeError, ValueError, AttributeError) as exc:
                detail = f"no key {exc}" if isinstance(exc, KeyError) else exc
                raise ParseError(f"malformed {kind} fixture: {detail}") from exc
        return decoded
    return wrap


def _integer(value: Any, what: str) -> int:
    """`value`, an int or a decimal string as `_as_index` reads one, as an int."""
    m = _as_index(value)
    if m is None:
        raise ParseError(f"{what} is an integer, got {value!r}")
    return m


def _index(value: Any, what: str, low: int = 0) -> int:
    """`value` (an int or a decimal string) as an index in low..budget."""
    m = _integer(value, what)
    if not low <= m <= COMPONENT_INDEX_BUDGET:
        raise ParseError(
            f"{what} {m} is outside {low}..COMPONENT_INDEX_BUDGET "
            f"({COMPONENT_INDEX_BUDGET})"
        )
    return m


def _index_set(value: Any, what: str) -> frozenset[int]:
    """`value`, a list of ints or decimal strings, as a set of ints: each
    entry is read as `_index` reads one, with no range limit."""
    if isinstance(value, list):
        entries = [_as_index(v) for v in value]
        if None not in entries:
            return frozenset(entries)
    raise ParseError(f"{what} is a list of integers, got {value!r}")


@_decoder("test_family")
def test_family_from_json(doc: dict[str, Any]) -> TestFamily:
    kind = TestKind(doc["kind"])
    components = {
        _index(m, "component index", -COMPONENT_INDEX_BUDGET): [
            _union_from_json(v) for v in versions
        ]
        for m, versions in doc.get("components", {}).items()
    }
    payload = doc.get("kind_data", {})
    kd: dict[str, Any] = {}
    if kind is TestKind.SCHNORR:
        kd["declared_measures"] = {
            _integer(m, "declared_measures key"): parse_rational(q)
            for m, q in payload.get("declared_measures", {}).items()
        }
        if payload.get("relativized"):
            kd["relativized"] = True
    elif kind is TestKind.SOLOVAY:
        kd["total_bound"] = parse_rational(payload["total_bound"])
        if kd["total_bound"] <= 0:
            raise ParseError(
                f"SOLOVAY total_bound {payload['total_bound']!r} is not positive"
            )
    elif kind is TestKind.INTERVAL_SEQUENCE:
        blocks: dict[tuple[int, int], dict[int, RationalInterval]] = {}
        excluded: dict[tuple[int, int], frozenset[int]] = {}
        for rec in payload.get("blocks", []):
            key = (_index(rec["m"], "block m"), _index(rec["r"], "block r"))
            blocks[key] = {
                _integer(k, "block table key"): parse_interval(iv)
                for k, iv in rec["table"].items()
            }
            excluded[key] = _index_set(rec.get("excluded", []), "excluded")
        kd["blocks"] = blocks
        kd["excluded"] = excluded
    elif kind is TestKind.PI1:
        kd["q"] = [parse_rational(x) for x in payload["q"]]
        if not isinstance(payload["C"], list):
            raise ParseError(f"C is a list of PI1 C sets, got {payload['C']!r}")
        kd["C"] = [_index_set(c, "a PI1 C set") for c in payload["C"]]
        _index(len(kd["C"]), "number of PI1 C sets")
    elif kind in (TestKind.DEMUTH, TestKind.WEAK_DEMUTH):
        kd["budgets"] = {
            _integer(m, "budgets key"): _integer(b, "budgets value")
            for m, b in payload.get("budgets", {}).items()
        }
    return TestFamily(kind, components, kd, doc.get("label", ""))


@_decoder("test_family")
def updates_from_json(doc: dict[str, Any]) -> list[tuple[int, IntervalUnion]]:
    """The `updates` of a test_family document as (component, union) pairs."""
    events = doc.get("updates", [])
    if not isinstance(events, list):
        raise ParseError(f"updates is a list of objects, got {events!r}")
    for event in events:
        if not isinstance(event, dict):
            raise ParseError(f"an update is an object with m and union, got {event!r}")
    return [
        (_index(event["m"], "update m"), _union_from_json(event["union"]))
        for event in events
    ]


@_decoder("measure")
def measure_from_json(doc: dict[str, Any]) -> CylinderMeasure:
    rule = doc["rule"]
    if rule == "uniform":
        return uniform_measure()
    if rule == "bernoulli":
        return bernoulli_measure(parse_rational(doc["p"]))
    if rule == "table":
        table = {s: parse_rational(q) for s, q in doc["table"].items()}
        return table_measure(doc.get("name", "table"), table)
    raise ParseError(f"unknown measure rule {rule!r}")


@_decoder("martingale")
def martingale_from_json(doc: dict[str, Any]) -> Martingale:
    rule = doc["rule"]
    if rule == "constant":
        return constant_martingale(parse_rational(doc["value"]))
    if rule == "all_in_on_0":
        return all_in_on_0()
    if rule == "split_bet":
        return split_bet(parse_rational(doc["p"]))
    if rule == "table":
        table = {s: parse_rational(q) for s, q in doc["table"].items()}
        return table_martingale(table, doc.get("name", "table"))
    raise ParseError(f"unknown martingale rule {rule!r}")


@_decoder("cauchy_name")
def name_from_json(doc: dict[str, Any]) -> CauchyName:
    if "exact" in doc and "values" not in doc:
        return const_name(parse_rational(doc["exact"]))
    values = [parse_rational(q) for q in doc["values"]]
    exact = parse_rational(doc["exact"]) if doc.get("exact") else None
    return scripted_name(values, doc.get("provenance", "fixture"), exact)


def load_fixture(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read fixture {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"fixture {path!r} is not a JSON object")
    return doc


def canonical_json(doc: Any) -> str:
    """Deterministic encoding: sorted keys, no locale-sensitive formatting,
    newline-terminated."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
