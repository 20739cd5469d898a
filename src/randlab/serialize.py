"""JSON fixture schemas and deterministic report encoding.

Every rational is serialized as "p/q" and every interval as a bracketed
string, so round-trips are exact and reports are reproducible bytes.  The
fixture schemas are one table, `FIELDS`: each field's key, its default or
REQUIRED, and the one reader that reads it and names it in its error.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from .cauchy import CauchyName, const_name, scripted_name
from .errors import ParseError, format_size
from .intervals import IntervalUnion, _as_index, format_rational, parse_rational, parse_union
from .martingales import Martingale, all_in_on_0, constant_martingale, split_bet, table_martingale
from .randomness import COMPONENT_INDEX_BUDGET, TestFamily, TestKind
from .ttmeasures import (
    CylinderMeasure,
    bernoulli_measure,
    table_measure,
    uniform_measure,
)

SCHEMA_VERSION = "0.1.0"


def test_family_to_json(t: TestFamily) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "type": "test_family",
        "schema": SCHEMA_VERSION,
        "kind": t.kind.value,
        "label": t.label,
        "components": {
            str(m): [u.strings() for u in versions]
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
            {**b, "table": {str(k): str(u) for k, u in b["table"].items()},
             "excluded": sorted(b["excluded"])}
            for b in kd["blocks"]
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
    JSON object of type `kind`, and a ParseError it raises (a field reader's,
    naming the field) becomes one naming the fixture type.  KeyError,
    TypeError, ValueError and AttributeError are caught too, as a last net."""

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


# Field readers: each takes a JSON value and the name of its field, and
# returns the value read or raises a ParseError naming the field.

def _is(cls: type, what: str) -> Callable[[Any, str], Any]:
    def read(value: Any, name: str) -> Any:
        if not isinstance(value, cls):
            raise ParseError(f"{name} is {what}, got {value!r}")
        return value
    return read


_string, _bool = _is(str, "a string"), _is(bool, "true or false")
_list, _object = _is(list, "a list"), _is(dict, "an object")


def _bits(value: Any, name: str) -> str:
    if not isinstance(value, str) or value.strip("01"):
        raise ParseError(f"{name} is a bit string, got {value!r}")
    return value


def _kind(value: Any, name: str) -> TestKind:
    try:
        return TestKind(_string(value, name))
    except ValueError:
        raise ParseError(f"unknown {name} {value!r}") from None


def _integer(value: Any, name: str) -> int:
    """`value`, an int or a decimal string as `_as_index` reads one, as an int."""
    m = _as_index(value, name)
    if m is None:
        raise ParseError(f"{name} is an integer, got {value!r}")
    return m


def _index(value: Any, name: str, low: int = 0) -> int:
    """`value` (an int or a decimal string) as an index in low..budget."""
    m = _integer(value, name)
    if not low <= m <= COMPONENT_INDEX_BUDGET:
        raise ParseError(
            f"{name} {format_size(m)} is outside {low}..COMPONENT_INDEX_BUDGET "
            f"({COMPONENT_INDEX_BUDGET})"
        )
    return m


def _index_set(value: Any, name: str) -> frozenset[int]:
    """`value`, a list of ints or decimal strings, as a set of ints: each
    entry is read as `_integer` reads one."""
    if isinstance(value, list):
        entries = [_as_index(v, name) for v in value]
        if None not in entries:
            return frozenset(entries)
    raise ParseError(f"{name} is a list of integers, got {value!r}")


def _rational(value: Any, name: str) -> Fraction:
    try:
        return parse_rational(value)
    except ParseError as exc:
        raise ParseError(f"{name}: {exc}") from exc


def _positive_rational(value: Any, name: str) -> Fraction:
    q = _rational(value, name)
    if q <= 0:
        raise ParseError(f"{name} {value!r} is not positive")
    return q


def _interval(value: Any, name: str) -> IntervalUnion:
    """One interval string, as the one-part union it denotes."""
    return _union([value], name)


def _union(value: Any, name: str) -> IntervalUnion:
    """A list of interval strings, as their canonical union."""
    if not isinstance(value, list):
        raise ParseError(f"{name} is a list of interval strings, got {value!r}")
    try:
        return parse_union(value)
    except (ParseError, ValueError) as exc:
        raise ParseError(f"{name}: {exc}") from exc


class ObjectOf(NamedTuple):
    """Reads a JSON object, each key by `read_key` and value by `read_value`."""

    key_name: str
    read_key: Callable[[Any, str], Any]
    value_name: str
    read_value: Callable[[Any, str], Any]

    def __call__(self, value: Any, name: str) -> dict[Any, Any]:
        key_name, read_key, value_name, read_value = self
        out, keys = {}, {}
        for k, v in _object(value, name).items():
            key = read_key(k, key_name)
            if key in keys:
                raise ParseError(
                    f"{name}: keys {keys[key]!r} and {k!r} read as the same {key_name} {key}")
            keys[key], out[key] = k, read_value(v, value_name)
        return out


class ListOf(NamedTuple):
    """Reads a JSON list, each item by `read_item`.  Two record items that
    agree on every field named in `unique` are refused."""

    item_name: str
    read_item: Callable[[Any, str], Any]
    unique: tuple[str, ...] = ()

    def __call__(self, value: Any, name: str) -> list[Any]:
        item_name, read_item, unique = self
        items = [read_item(v, item_name) for v in _list(value, name)]
        seen = set()
        for item in items if unique else ():
            key = tuple(item[f] for f in unique)
            if key in seen:
                raise ParseError(f"{name}: two {item_name}s have ({', '.join(unique)}) = "
                                 f"({', '.join(map(str, key))})")
            seen.add(key)
        return items


class Record(NamedTuple):
    """Reads a nested JSON object by its own fields."""

    fields: tuple[Field, ...]

    def __call__(self, value: Any, name: str) -> dict[str, Any]:
        return _read_fields(self.fields, _object(value, name))


REQUIRED = object()


class Field(NamedTuple):
    """A fixture field: its key, its reader, the JSON value an absent key
    reads as (REQUIRED: none; None: read as None), and the name its errors
    give it when that is not the key."""

    key: str
    read: Callable[[Any, str], Any]
    default: Any = REQUIRED
    name: str = ""


def _read_fields(fields: tuple[Field, ...], doc: dict[str, Any]) -> dict[str, Any]:
    """The declared fields of the JSON object `doc`, by key."""
    out = {}
    for key, read, default, name in fields:
        if key in doc:
            out[key] = read(doc[key], name or key)
        elif default is REQUIRED:
            raise ParseError(f"{name or key}: no key {key!r}")
        else:
            out[key] = None if default is None else read(default, name or key)
    return out


_TABLE = (Field("table", ObjectOf("table key", _bits, "table value", _rational)),
          Field("name", _string, "table"))
_BUDGETS = (Field("budgets", ObjectOf("budgets key", _integer, "budgets value", _integer), {}),)

# Every fixture field, by record: a fixture type, the `updates` of a
# test_family, the `kind_data` of a test kind (a kind with no entry has no
# fields) and the fields of a measure or martingale rule.  The decoders read
# fixtures only through this table; keys it does not declare are ignored.
FIELDS: dict[str, tuple[Field, ...]] = {
    "test_family": (
        Field("kind", _kind),
        Field("label", _string, ""),
        Field("components", ObjectOf(
            "component index", functools.partial(_index, low=-COMPONENT_INDEX_BUDGET),
            "component", ListOf("component version", _union)), {}),
        Field("kind_data", _object, {}),
    ),
    "updates": (Field("updates", ListOf("update", Record((
        Field("m", _index, name="update m"),
        Field("union", _union, name="update union"),
    ))), []),),
    "kind_data:SCHNORR": (
        Field("declared_measures", ObjectOf(
            "declared_measures key", _integer, "declared_measures value", _rational), {}),
        Field("relativized", _bool, False),
    ),
    "kind_data:SOLOVAY": (Field("total_bound", _positive_rational),),
    "kind_data:INTERVAL_SEQUENCE": (Field("blocks", ListOf("block", Record((
        Field("m", _index, name="block m"),
        Field("r", _index, name="block r"),
        Field("table", ObjectOf("block table key", _integer, "block table value", _interval),
              name="block table"),
        Field("excluded", _index_set, []),
    )), unique=("m", "r")), []),),
    "kind_data:PI1": (Field("q", ListOf("q entry", _rational)),
                      Field("C", ListOf("a PI1 C set", _index_set))),
    "kind_data:DEMUTH": _BUDGETS,
    "kind_data:WEAK_DEMUTH": _BUDGETS,
    "measure": (Field("rule", _string),),
    "measure:uniform": (),
    "measure:bernoulli": (Field("p", _rational),),
    "measure:table": _TABLE,
    "martingale": (Field("rule", _string),),
    "martingale:constant": (Field("value", _rational),),
    "martingale:all_in_on_0": (),
    "martingale:split_bet": (Field("p", _rational),),
    "martingale:table": _TABLE,
    "cauchy_name": (Field("values", ListOf("values entry", _rational), None),
                    Field("exact", _rational, None),
                    Field("provenance", _string, "fixture")),
}


def _rule_fields(doc: dict[str, Any], kind: str) -> tuple[str, dict[str, Any]]:
    """The rule of a measure or martingale document, and its rule's fields."""
    rule = _read_fields(FIELDS[kind], doc)["rule"]
    if f"{kind}:{rule}" not in FIELDS:
        raise ParseError(f"unknown {kind} rule {rule!r}")
    return rule, _read_fields(FIELDS[f"{kind}:{rule}"], doc)


@_decoder("test_family")
def test_family_from_json(doc: dict[str, Any]) -> TestFamily:
    f = _read_fields(FIELDS["test_family"], doc)
    kind = f["kind"]
    kd = _read_fields(FIELDS.get(f"kind_data:{kind.value}", ()), f["kind_data"])
    if kind is TestKind.PI1:
        _index(len(kd["C"]), "number of PI1 C sets")
    return TestFamily(kind, f["components"], kd, f["label"])


@_decoder("test_family")
def updates_from_json(doc: dict[str, Any]) -> list[tuple[int, IntervalUnion]]:
    """The `updates` of a test_family document as (component, union) pairs."""
    return [(u["m"], u["union"]) for u in _read_fields(FIELDS["updates"], doc)["updates"]]


@_decoder("measure")
def measure_from_json(doc: dict[str, Any]) -> CylinderMeasure:
    rule, f = _rule_fields(doc, "measure")
    if rule == "uniform":
        return uniform_measure()
    if rule == "bernoulli":
        return bernoulli_measure(f["p"])
    return table_measure(f["name"], f["table"])


@_decoder("martingale")
def martingale_from_json(doc: dict[str, Any]) -> Martingale:
    rule, f = _rule_fields(doc, "martingale")
    if rule == "constant":
        return constant_martingale(f["value"])
    if rule == "all_in_on_0":
        return all_in_on_0()
    if rule == "split_bet":
        return split_bet(f["p"])
    return table_martingale(f["table"], f["name"])


@_decoder("cauchy_name")
def name_from_json(doc: dict[str, Any]) -> CauchyName:
    f = _read_fields(FIELDS["cauchy_name"], doc)
    if f["values"] is not None:
        return scripted_name(f["values"], f["provenance"], f["exact"])
    if f["exact"] is None:
        raise ParseError("values: no key 'values'")
    return const_name(f["exact"])


def _object_pairs(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; a key written twice in it is refused."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        twice = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ValueError(f"key {twice!r} is written twice in one object")
    return doc


def load_fixture(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_object_pairs)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read fixture {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"fixture {path!r} is not a JSON object")
    return doc


def canonical_json(doc: Any) -> str:
    """Deterministic encoding: sorted keys, no locale-sensitive formatting,
    newline-terminated."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
