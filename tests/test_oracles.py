"""The oracles' one home, and one lab run on them.

`tests/oracles.py` holds the slow reference of each fast path, under the
name of the function it replaces, and `test_oracles_have_one_home` keeps it
the only home.

Each property checks one fast path against its oracle, on its own
strategies.  `test_lab_on_the_oracles_gives_the_same_report_and_digests`
patches the oracles into the randlab modules all at once and checks that

- `labcli report --fixture-dir fixtures` gives the same bytes as before
  the patch;
- the last op of each op class of every benchmark workload's catalogue
  (in function_grids, of each op class on each kind of function) gives the
  digest frozen in `perfbench/digests.json`.

So fast paths that are each right alone but wrong together, or reached by a
route that no property draws, show up here.  Every binding of a patched
name is replaced, including those that `from ... import` made in other
modules, and each oracle must run at least once.
"""

from __future__ import annotations

import ast
import copy
import functools
import glob
import inspect
import json
import operator
import os
import sys
import types
from collections import Counter

import oracles as ref
from randlab import (
    cauchy,
    cli,
    derivatives,
    intervals,
    markov,
    martingales,
    randomness,
    serialize,
    ttmeasures,
)
from randlab.errors import ParseError

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)
import canon  # noqa: E402  (perfbench/ is on sys.path from here on)
import fixtures as bundles  # noqa: E402
import workloads  # noqa: E402

LAB = types.SimpleNamespace(
    intervals=intervals, cauchy=cauchy, markov=markov, derivatives=derivatives,
    randomness=randomness, martingales=martingales, ttmeasures=ttmeasures,
    serialize=serialize, cli=cli,
)
MODULES = [sys.modules["randlab"], *vars(LAB).values()]

# the oracles that take their function's arguments and return what it
# returns; `_tally_for_length` is kept in `phi._tally` below, as the lab keeps
# its own, `measure` replaces the property `IntervalUnion.measure`,
# `witness_containing`, `disjoint_from_interval` and `strings` the methods of
# `IntervalUnion`, and `knots` and `is_monotone` the methods of `MonotoneCDF`;
# `contains` is left out, as the lab never asks a union for a point
PATCHED = (
    "parse_rational", "normalize_union", "coverage_at_least", "_by_piece",
    "polygonal_fn", "canonical_nonuc", "truncate", "check_H", "oscillation_tree",
    "slope_bounds_check", "pseudo_derivative",
    "check_fairness", "savings_transform", "savings_violation_search",
    "savings_growth_constants", "bernoulli_measure", "validate_measure", "cdf",
    "transport", "transport_pushforward_check", "tt_from_ucf", "_tally_for_length",
    "test_family_from_json", "updates_from_json", "measure_from_json",
    "martingale_from_json", "name_from_json", "parse_union",
    "interval_sequence_to_schnorr",
)
UNION_METHODS = ("witness_containing", "disjoint_from_interval", "strings")
METHODS = ("measure", *UNION_METHODS, "knots", "is_monotone")


def test_oracles_have_one_home():
    for path in sorted(glob.glob(os.path.join(TESTS, "test_*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        refs = [
            node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.lstrip("_").startswith("ref_")
        ]
        assert not refs, f"{os.path.basename(path)} defines {refs}: oracles go in oracles.py"
    # the attributes of every randlab module and of every class defined in one
    lab_names = set()
    for m in MODULES:
        lab_names.update(vars(m))
        for _, cls in inspect.getmembers(m, inspect.isclass):
            if cls.__module__.startswith("randlab"):
                lab_names.update(vars(cls))
    defined = [
        name for name, fn in inspect.getmembers(ref, inspect.isfunction)
        if fn.__module__ == ref.__name__
    ]
    exempt = set(ref.VALUE_HELPERS + ref.HARNESS)
    assert exempt <= set(defined)
    unnamed = [name for name in defined if name not in lab_names | exempt]
    assert not unnamed, f"oracles.py names no lab function by {unnamed}"


def _report(capsys) -> str:
    code = cli.main(["report", "--fixture-dir", os.path.join(ROOT, "fixtures")])
    assert code == 0
    return capsys.readouterr().out


def _tally_kept(phi, length):
    if length not in phi._tally:
        phi._tally[length] = ref._tally_for_length(phi, length)
    return phi._tally[length]


def patch_oracles(monkeypatch) -> Counter:
    """Bind every patched name, in every randlab module that binds the
    lab's function, to its oracle; returns the oracles' call counts."""
    calls: Counter = Counter()

    def counted(name, oracle):
        def call(*args, **kwargs):
            calls[name] += 1
            return oracle(*args, **kwargs)

        return call

    for name in PATCHED:
        bound = [m for m in MODULES if hasattr(m, name)]
        # one function under this name, wherever it is bound
        assert len({id(getattr(m, name)) for m in bound}) == 1, name
        oracle = _tally_kept if name == "_tally_for_length" else getattr(ref, name)
        for m in bound:
            monkeypatch.setattr(m, name, counted(name, oracle))
    measure = property(counted("measure", ref.measure))
    monkeypatch.setattr(intervals.IntervalUnion, "measure", measure)
    for name in UNION_METHODS:
        monkeypatch.setattr(intervals.IntervalUnion, name, counted(name, getattr(ref, name)))
    knots = counted("knots", ref.knots)
    monkeypatch.setattr(ttmeasures.MonotoneCDF, "knots", lambda self: knots(self.mu, self.depth))
    monkeypatch.setattr(ttmeasures.MonotoneCDF, "is_monotone", counted("is_monotone", ref.is_monotone))
    return calls


def catalogue_slice(workload) -> list[tuple]:
    """The last spec of each op class, in catalogue order; in function_grids
    the last of each op class on each kind of function (a built-in, a
    polygon, `canonical_nonuc` or a truncation), so that every constructor
    runs.  In cantor_levels most of these read Bernoulli(3/5) or
    split_bet(3/5), which tell a cylinder's two children apart, where the
    first specs' bias 1/2 does not."""
    def op_class(spec):
        if workload.name != "function_grids":
            return spec[0]
        kind = spec[1].partition(":")[0]
        return spec[0], kind if kind in ("poly", "nonuc", "trunc") else "built-in"

    last = {op_class(spec): spec for spec in workload.catalogue()}
    return list(last.values())


def test_lab_on_the_oracles_gives_the_same_report_and_digests(monkeypatch, tmp_path, capsys):
    with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as fh:
        frozen = json.load(fh)
    before = _report(capsys)
    calls = patch_oracles(monkeypatch)
    assert _report(capsys) == before
    for name, workload in workloads.WORKLOADS.items():
        specs = catalogue_slice(workload)
        state = workload.prepare(LAB, workloads.PLAIN, str(tmp_path / name), specs)
        for spec in specs:
            _, check = workload.run(LAB, workloads.PLAIN, state, spec)
            payload, ok = check()
            key = canon.spec_key(spec)
            assert ok, key
            assert canon.digest(payload) == frozen[name][key], key
    idle = [name for name in PATCHED + METHODS if not calls[name]]
    assert not idle, f"oracles never run: {idle}"


def _decoded(decoders, doc):
    """What the decoders make of a fixture document, as comparable values:
    a test family and its updates, a measure's or martingale's name and
    masses or capitals to depth 6, or a name's approximations, exact value
    and provenance."""
    kind = doc["type"]
    if kind == "test_family":
        return decoders.test_family_from_json(doc), decoders.updates_from_json(doc)
    if kind in ("measure", "martingale"):
        obj = (decoders.measure_from_json if kind == "measure" else decoders.martingale_from_json)(doc)
        read = obj.mass if kind == "measure" else obj.value
        return obj.name, [ref.outcome(read, s) for k in range(7) for s in intervals.bit_strings(k)]
    z = decoders.name_from_json(doc)
    return [z.at(n) for n in range(len(doc.get("values", ())) + 2)], z.exact, z.provenance


def _without_each_key(doc, path=()):
    """Copies of `doc`, each with one key of one of its objects deleted."""
    obj = functools.reduce(operator.getitem, path, doc)
    if isinstance(obj, dict):
        for key in obj:
            out = copy.deepcopy(doc)
            del functools.reduce(operator.getitem, path, out)[key]
            yield out
    for key in (obj if isinstance(obj, dict) else range(len(obj)) if isinstance(obj, list) else ()):
        yield from _without_each_key(doc, path + (key,))


def _decoded_or_refused(decoders, doc):
    try:
        return _decoded(decoders, doc)
    except ParseError:
        return ParseError


def test_decoders_match_their_oracles(monkeypatch):
    # the oracles' decoders read unions through `intervals.parse_union`
    monkeypatch.setattr(intervals, "parse_union", ref.parse_union)
    # every shipped fixture and every document of the benchmark's bundles
    shipped = []
    for path in sorted(glob.glob(os.path.join(ROOT, "fixtures", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            shipped.append(json.load(fh))
    docs = list(shipped)
    for b in range(bundles.BUNDLE_COUNT):
        docs.extend(bundles.bundle_docs(b).values())
    assert len(docs) == 14 + 9 * 32
    for doc in docs:
        assert _decoded(serialize, doc) == _decoded(ref, doc), doc.get("label", doc["type"])
    # absent keys read as the same defaults, or are refused by both, on the
    # shipped fixtures and on the fields they leave out
    table = {"": "1/1", "0": "1/2", "1": "1/2"}
    shipped += [
        {**shipped_doc, "kind_data": {**shipped_doc["kind_data"], "relativized": True}}
        for shipped_doc in shipped if shipped_doc.get("kind") == "SCHNORR"
    ] + [
        {"type": "measure", "rule": "table", "table": table, "name": "t"},
        {"type": "martingale", "rule": "table", "table": table, "name": "t"},
        {"type": "cauchy_name", "values": ["1/2"], "exact": "1/2", "provenance": "p"},
    ]
    for doc in shipped:
        for variant in (v for v in _without_each_key(doc) if "type" in v):
            assert _decoded_or_refused(serialize, variant) == _decoded_or_refused(ref, variant)
