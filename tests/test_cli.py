import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
import os
import re
import shlex
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import randlab
from randlab import serialize
from randlab.cli import main
from randlab.errors import ParseError
from randlab.serialize import FIELDS, ListOf, ObjectOf, Record

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
FIXTURES = os.path.join(ROOT, "fixtures")
# the directory that holds the `randlab` these tests import: the checkout's
# src/, or site-packages when they run against the installed package
LAB_PATH = os.path.dirname(os.path.dirname(os.path.abspath(randlab.__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import fixtures as bundles  # noqa: E402  (the benchmark's fixture bundles)


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def load(name: str):
    with open(fixture(name)) as fh:
        return json.load(fh)


def run_python(*argv, timeout=10, cwd=None):
    """A fresh interpreter that imports the `randlab` these tests import; a
    hang fails the test after `timeout` s."""
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=LAB_PATH),
        timeout=timeout,
        cwd=cwd,
    )


def run_labcli(*argv, timeout=10, cwd=None):
    """labcli in a fresh interpreter, as `run_python` starts it."""
    return run_python("-m", "randlab.cli", *argv, timeout=timeout, cwd=cwd)


@pytest.mark.parametrize("cwd", [None, ROOT])
def test_a_child_imports_the_randlab_under_test(cwd):
    proc = run_python("-c", "import randlab; print(randlab.__file__)", cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    assert os.path.abspath(proc.stdout.strip()) == os.path.abspath(randlab.__file__)


def assert_one_labcli_line(proc) -> str:
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("labcli: "), proc.stderr
    return lines[0]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_valid_fixture_exits_zero(capsys):
    code, out = run(capsys, "verify", "--fixture", fixture("ml_geometric.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    assert all(r["status"] == "PASS" for r in doc["records"])


def test_verify_broken_schnorr_exits_one(tmp_path, capsys):
    with open(fixture("schnorr_geometric.json")) as fh:
        doc = json.load(fh)
    doc["kind_data"]["declared_measures"]["2"] = "1/8"
    bad = tmp_path / "broken_schnorr.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", "--fixture", str(bad))
    assert code == 1
    rep = json.loads(out)
    fails = [r for r in rep["records"] if r["status"] == "FAIL"]
    assert len(fails) == 1
    assert "m=2" in fails[0]["name"]
    assert "1/8" in fails[0]["detail"] and "1/4" in fails[0]["detail"]


# additive with total mass 1, but two cylinders carry negative mass
NEGATIVE_TABLE_MEASURE = {
    "type": "measure",
    "rule": "table",
    "table": {"": "1", "0": "2", "1": "-1", "00": "1", "01": "1", "10": "-1/2", "11": "-1/2"},
}


def test_verify_negative_table_measure_exits_one(tmp_path, capsys):
    bad = tmp_path / "negative.json"
    bad.write_text(json.dumps(NEGATIVE_TABLE_MEASURE))
    code, out = run(capsys, "--format", "text", "verify", "--depth", "2", "--fixture", str(bad))
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL negative.json:nonnegative[1] mass(1) = -1/1"]
    assert out.splitlines()[-1] == "1/2 checks passed"


def test_usage_error_exits_two(capsys):
    assert main(["verify"]) == 2  # missing --fixture
    assert main(["no-such-command"]) == 2


def test_malformed_fixture_exits_two(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    assert main(["verify", "--fixture", str(bad)]) == 2


def test_transport_report_values(capsys):
    code, out = run(
        capsys,
        "transport",
        "--measure",
        fixture("measure_bernoulli_3_4.json"),
        "--prefix",
        "111",
    )
    doc = json.loads(out)
    assert doc["output"]["c_prefix"].startswith("1")
    assert doc["output"]["image"] == "[37/64,1/1)"


def test_evaluate_reports_membership(capsys):
    code, out = run(
        capsys,
        "evaluate",
        "--fixture",
        fixture("ml_geometric.json"),
        "--name",
        fixture("name_half_script.json"),
        "--depth",
        "4",
    )
    # the name sits on the open boundary of component 1, which stays
    # undecided at finite depth, so the run reports a non-pass
    assert code == 1
    doc = json.loads(out)
    assert doc["output"]["captured"] == [0]
    assert doc["output"]["undecided"] == [1]
    assert doc["output"]["escaped"] == [2, 3, 4]


def test_derive_subcommand(capsys):
    code, out = run(
        capsys, "derive", "--function", "square", "--at", "1/3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["output"]["verdict"] == "DIFFERENTIABLE"
    assert "/" in doc["output"]["upper"]


def test_tree_subcommand(capsys):
    code, out = run(
        capsys, "tree", "--function", "identity", "--precision", "3", "--depth", "6"
    )
    assert code == 0
    doc = json.loads(out)
    assert all(len(s) < 3 for s in doc["output"]["strings"])


@pytest.mark.parametrize("precision, size", [(10**20, 7), (-(10**20), 0)])
def test_tree_huge_precision_returns(precision, size):
    # square moves inside every cylinder, by less than 2^{10^20}
    proc = run_labcli(
        "tree", "--function", "square", "--precision", str(precision), "--depth", "2"
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["output"]["strings"]) == size


def test_convert_subcommand(capsys):
    code, out = run(
        capsys,
        "convert",
        "--fixture",
        fixture("solovay_geometric.json"),
        "--depth",
        "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["output"]["result"]["kind"] == "ML"


def test_text_format(capsys):
    code, out = run(
        capsys,
        "--format",
        "text",
        "verify",
        "--fixture",
        fixture("measure_uniform.json"),
    )
    assert code == 0
    assert "checks passed" in out


def test_fixture_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LABCLI_FIXTURE_DIR", FIXTURES)
    code, out = run(capsys, "verify", "--fixture", "ml_geometric.json")
    assert code == 0


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["--out", str(target), "verify", "--fixture", fixture("ml_geometric.json")]
    )
    assert code == 0
    assert json.loads(target.read_text())["summary"]["failed"] == 0


def test_out_to_a_missing_directory_is_one_labcli_line(tmp_path):
    target = tmp_path / "missing" / "report.json"
    proc = run_labcli(
        "--out", str(target), "verify", "--fixture", fixture("ml_geometric.json")
    )
    line = assert_one_labcli_line(proc)
    assert line.startswith(f"labcli: cannot write --out {target}: ")
    assert not target.exists()


# interval strings with spaces and Unicode digits, read as their ASCII forms
SPACED_ML = {
    "type": "test_family", "kind": "ML",
    "components": {"1": [[" ( \u0660/1 , \u0661/2 ) "]], "2": [["\t[ 0/\u0661 ,1/4)"]]},
}
# a union out of order, overlapping and spelled with unreduced non-dyadic ends
UNREDUCED_ML = {
    "type": "test_family", "kind": "ML",
    "components": {"1": [["[10/30,12/28]", "(3/18,5/20)", "[0/7,2/14)", "(4/24,9/27)"]]},
}
UNREDUCED_SOLOVAY = {**UNREDUCED_ML, "kind": "SOLOVAY", "kind_data": {"total_bound": "1/2"}}
NEGATIVE_CONSTANT = {"type": "martingale", "rule": "constant", "value": "-1"}


def test_one_parser_serves_many_calls(tmp_path, capsys, monkeypatch):
    # help is wrapped to the terminal width; pin it for both processes
    monkeypatch.setenv("COLUMNS", "80")
    target = tmp_path / "evaluate.json"
    docs = {"spaced": SPACED_ML, "unreduced": UNREDUCED_ML,
            "unreduced_solovay": UNREDUCED_SOLOVAY, "negative": NEGATIVE_CONSTANT}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    calls = [
        ["--format", "text", "verify", "--fixture", fixture("measure_uniform.json")],
        ["verify", "--fixture", fixture("ml_geometric.json")],
        ["--out", str(target), "evaluate", "--fixture", fixture("ml_geometric.json"),
         "--name", fixture("name_half_script.json"), "--depth", "4"],
        ["verify", "--depth", "x", "--fixture", fixture("ml_geometric.json")],
        ["--help"],
        ["convert", "--fixture", fixture("solovay_geometric.json"), "--depth", "4"],
        ["verify", "--fixture", str(tmp_path / "spaced.json")],
        ["verify", "--fixture", str(tmp_path / "unreduced.json")],
        ["convert", "--fixture", str(tmp_path / "unreduced_solovay.json"), "--depth", "0"],
        ["verify", "--fixture", str(tmp_path / "negative.json")],
    ]
    in_process = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        written = target.read_text() if "--out" in argv else None
        in_process.append((code, captured.out, captured.err, written))
    assert [c[0] for c in in_process] == [0, 0, 1, 2, 0, 0, 0, 0, 0, 1]
    for argv, got in zip(calls, in_process):
        target.unlink(missing_ok=True)
        proc = run_labcli(*argv)
        written = target.read_text() if "--out" in argv else None
        assert got == (proc.returncode, proc.stdout, proc.stderr, written), argv
    # the unreduced union converts to its canonical parts in lowest terms
    parts = json.loads(in_process[8][1])["output"]["result"]["components"]["0"]
    assert parts == [["[0/1,1/7)", "(1/6,3/7]"]]
    # a negative constant fails at the root, in one line on stderr
    assert in_process[9][1:3] == ("", "labcli: negative capital at ''\n")


def test_report_deterministic_across_workers(capsys):
    outputs = []
    for workers in ("1", "3"):
        code, out = run(
            capsys,
            "report",
            "--fixture-dir",
            FIXTURES,
            "--workers",
            workers,
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_verify_martingale_at_depth_0(capsys):
    code, out = run(
        capsys,
        "verify",
        "--fixture",
        fixture("martingale_split_3_4.json"),
        "--depth",
        "0",
    )
    assert code == 0
    records = {r["name"]: r for r in json.loads(out)["records"]}
    level_sum = records["martingale_split_3_4.json:level_sum_depth_0"]
    assert level_sum["status"] == "PASS" and level_sum["detail"] == "1/1 vs 1/1"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--fixture", fixture("martingale_split_3_4.json")],
        ["report", "--fixture-dir", FIXTURES],
        ["convert", "--fixture", fixture("solovay_geometric.json")],
        ["tree", "--function", "square"],
    ],
    ids=["verify", "report", "convert", "tree"],
)
def test_negative_depth_is_usage_error(capsys, argv):
    assert main(argv + ["--depth", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--depth: expected a non-negative integer, got '-1'" in captured.err


def assert_labcli_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines and all(line.startswith("labcli: ") for line in lines)
    return captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["tree", "--function", "square", "--depth", "x"],
        ["verify", "--fixture", fixture("ml_geometric.json"), "--depth", "-1"],
        ["no-such-command"],
        ["report", "--fixture-dir", os.path.join(FIXTURES, "no-such-dir")],
        # Python's int reads "1_0" as 10
        ["tree", "--function", "canonical_nonuc:1_0"],
    ],
    ids=["missing-fixture", "tree-depth-x", "verify-depth-negative", "no-such-command",
         "report-missing-dir", "tree-stage-count-1_0"],
)
def test_usage_error_is_one_labcli_line(capsys, argv):
    assert_labcli_usage_error(capsys, argv)


def test_help_still_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: labcli")


@pytest.mark.parametrize(
    "flags",
    [
        ["--precision", "-1"],
        ["--precision", "15"],
        ["--function", "nope"],
        ["--function", "canonical_nonuc:x"],
        ["--at", "2"],
        ["--scale", "0"],
    ],
    ids=["precision-negative", "precision-15", "unknown-function",
         "bad-stage-count", "at-outside-unit", "scale-zero"],
)
def test_derive_bad_input_exits_two(capsys, flags):
    # later flags override the defaults given first
    argv = ["derive", "--function", "square", "--at", "1/3"] + flags
    assert_labcli_usage_error(capsys, argv)


DERIVE_SQUARE = ["derive", "--function", "square", "--at", "1/3"]


@pytest.mark.parametrize(
    "argv, flag, text",
    [
        (DERIVE_SQUARE + ["--tol", "x"], "--tol", "x"),
        (DERIVE_SQUARE + ["--at", "x"], "--at", "x"),
        (DERIVE_SQUARE + ["--at", "1/0"], "--at", "1/0"),
        (DERIVE_SQUARE + ["--scale", "x"], "--scale", "x"),
        (DERIVE_SQUARE + ["--function", "const:x"], "--function", "x"),
        (["tree", "--function", "const:x"], "--function", "x"),
        (["tree", "--function", "const:1/0"], "--function", "1/0"),
    ],
    ids=["derive-tol", "derive-at", "derive-at-zero-denominator", "derive-scale",
         "derive-const", "tree-const", "tree-const-zero-denominator"],
)
def test_a_bad_rational_names_its_flag(capsys, argv, flag, text):
    err = assert_labcli_usage_error(capsys, argv)
    assert err.startswith(f"labcli: {flag}: bad rational {text!r}: "), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("bound", ["0/1", "-1/1"])
def test_convert_non_positive_solovay_bound_exits_two(tmp_path, bound):
    doc = load("solovay_geometric.json")
    doc["kind_data"]["total_bound"] = bound
    bad = tmp_path / "solovay_bad_bound.json"
    bad.write_text(json.dumps(doc))
    assert "total_bound" in assert_one_labcli_line(run_labcli("convert", "--fixture", str(bad)))


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--name", fixture("name_half_script.json")],
        ["convert", "--depth", "4"],
    ],
    ids=["evaluate", "convert"],
)
@pytest.mark.parametrize("second", ["ml_geometric.json", "no-such-fixture.json"])
def test_second_fixture_exits_two(argv, second):
    # evaluate and convert read one test family: a second --fixture is refused,
    # whether or not it exists
    first = "solovay_geometric.json"
    proc = run_labcli(*argv, "--fixture", fixture(first), "--fixture", fixture(second))
    assert "--fixture" in assert_one_labcli_line(proc)


def test_name_far_from_its_exact_value_fails_verify(tmp_path, capsys):
    # q_2 = 1/2 is more than 2^-2 from the exact value 0
    path = tmp_path / "name.json"
    path.write_text(json.dumps({"type": "cauchy_name", "values": ["1/2"], "exact": "0"}))
    code, out = run(capsys, "verify", "--fixture", str(path), "--depth", "8")
    assert code == 1
    (record,) = json.loads(out)["records"]
    assert record == {
        "name": "name.json:cauchy_contract_to_8", "status": "FAIL", "detail": "|q_2 - exact| = 1/2"
    }


def test_name_within_its_exact_value_passes_verify(tmp_path, capsys):
    doc = load("name_half_script.json")
    doc["exact"] = "1/2"
    path = tmp_path / "name.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", "--fixture", str(path))
    assert code == 0
    assert json.loads(out)["records"][0]["detail"] == ""


def with_path(name, path, value):
    """The fixture `name` with the value at `path` (a key sequence) replaced."""
    doc = load(name)
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
    return doc


# a fair table given to depth 1: verify reads it no deeper, whatever --depth
SHALLOW_TABLE_MARTINGALE = {
    "type": "martingale", "rule": "table", "table": {"": "1", "0": "1", "1": "1"}
}


def demuth_with_update(update):
    return with_path("demuth_two_versions.json", ["updates"], [update])


def with_block(key, value):
    return with_path("interval_sequence_basic.json", ["kind_data", "blocks", 0, key], value)


@pytest.mark.parametrize(
    "doc, named",
    [
        (demuth_with_update({"union": ["(0/1,1/8)"]}), "'m'"),
        (demuth_with_update({"m": 1}), "'union'"),
        ({"type": "measure", "rule": "table", "table": {"": "1", "0": "1/2"}}, "'1'"),
        ({"type": "martingale", "rule": "table", "table": {"": "1", "0": "1"}},
         "'table' has no capital for '1'"),
        ([1, 2], "not a JSON object"),
        (with_path("measure_bernoulli_3_4.json", ["p"], 5), "malformed measure fixture"),
        (with_path("measure_bernoulli_3_4.json", ["p"], 5),
         'bad rational 5: expected a "p/q" string'),
        (demuth_with_update({"m": 1, "union": [5]}),
         'bad interval 5: expected a "[lo,hi)" string'),
        (with_path("name_half_script.json", ["exact"], 5), "malformed cauchy_name fixture"),
        (with_path("demuth_two_versions.json", ["updates"], ["x"]), "'x'"),
        (with_path("demuth_two_versions.json", ["updates"], 5), "got 5"),
        (demuth_with_update({"m": "a", "union": []}), "'a'"),
        (demuth_with_update({"m": 1, "union": 5}), "got 5"),
        (with_block("m", "x"), "'x'"),
        (with_path("ml_geometric.json", ["type"], ["x"]), "unknown fixture type ['x']"),
        # index sets are lists of ints or decimal strings, read like an index
        (with_block("excluded", "01"), "excluded is a list of integers, got '01'"),
        (with_block("excluded", [True]), "got [True]"),
        (with_block("excluded", [1.0]), "got [1.0]"),
        (with_block("excluded", ["x"]), "got ['x']"),
        (with_path("pi1_halfpoint.json", ["kind_data", "C"], "ab"), "got 'ab'"),
        (with_path("pi1_halfpoint.json", ["kind_data", "C"], [[1.0]]),
         "a PI1 C set is a list of integers, got [1.0]"),
        # an index is ASCII digits, a minus sign only in front
        (with_path("ml_geometric.json", ["components", "1_0"], [[]]),
         "component index is an integer, got '1_0'"),
        (with_block("m", " 3 "), "block m is an integer, got ' 3 '"),
        (with_block("excluded", ["+2"]), "excluded is a list of integers, got ['+2']"),
        (demuth_with_update({"m": "١٢", "union": []}), "update m is an integer, got '١٢'"),
        (with_path("name_half_script.json", ["exact"], 0), "exact: bad rational 0: expected"),
        (with_path("ml_geometric.json", ["components", "1"], [["[0/1,1/2"]]),
         "bad interval '[0/1,1/2'"),
        (with_path("ml_geometric.json", ["components", "1"], [["[0/1,1/8]", "[3/4,1/2]"]]),
         "lo > hi: 3/4 > 1/2"),
    ],
    ids=["update-without-m", "update-without-union", "table-measure-hole",
         "table-martingale-hole", "top-level-list", "measure-p-int",
         "measure-p-int-named", "union-entry-int", "name-exact-int",
         "update-not-object", "updates-not-list", "update-m-not-int", "update-union-not-list",
         "block-m-not-int", "type-not-string", "block-excluded-string", "block-excluded-bool",
         "block-excluded-float", "block-excluded-word", "pi1-c-string", "pi1-c-set-float",
         "component-underscore", "block-m-spaces", "block-excluded-plus",
         "update-m-arabic-indic", "name-exact-zero", "union-unclosed", "union-lo-above-hi"],
)
def test_fixture_hole_exits_two(tmp_path, capsys, doc, named):
    path = tmp_path / "hole.json"
    path.write_text(json.dumps(doc))
    assert named in assert_labcli_usage_error(capsys, ["verify", "--fixture", str(path)])


def with_first(name, path, key, value):
    """The fixture `name` with `key: value` put first in the object at `path`."""
    return with_path(name, path, {key: value, **functools.reduce(operator.getitem, path, load(name))})


def with_wide_block(m):
    """interval_sequence_basic.json with a block (m, 1) holding all of
    [0, 1] before its other blocks."""
    block = {"m": m, "r": 1, "table": {"0": "(0/1,1/1)"}, "excluded": []}
    blocks = load("interval_sequence_basic.json")["kind_data"]["blocks"]
    return with_path("interval_sequence_basic.json", ["kind_data", "blocks"], [block, *blocks])


@pytest.mark.parametrize(
    "text, named",
    [
        (json.dumps(with_first("ml_geometric.json", ["components"], "01", [["[0/1,1/1]"]])),
         "components: keys '01' and '1' read as the same component index 1"),
        (json.dumps(with_first("schnorr_geometric.json", ["kind_data", "declared_measures"],
                               "01", "1/1")),
         "declared_measures: keys '01' and '1' read as the same declared_measures key 1"),
        (json.dumps(with_first("demuth_two_versions.json", ["kind_data", "budgets"], "01", 9)),
         "budgets: keys '01' and '1' read as the same budgets key 1"),
        (json.dumps(with_first("interval_sequence_basic.json",
                               ["kind_data", "blocks", 0, "table"], "00", "(0/1,1/1)")),
         "block table: keys '00' and '0' read as the same block table key 0"),
        (json.dumps(with_wide_block(1)), "blocks: two blocks have (m, r) = (1, 1)"),
        (json.dumps(with_wide_block("01")), "blocks: two blocks have (m, r) = (1, 1)"),
        ('{"type": "measure", "rule": "bernoulli", "p": "1/2", "p": "3/4"}',
         "key 'p' is written twice in one object"),
        (json.dumps(load("ml_geometric.json")).replace('"components": {', '"components": {"1": [], '),
         "key '1' is written twice in one object"),
    ],
    ids=["component-index", "declared-measures-key", "budgets-key", "block-table-key",
         "block-m-r", "block-m-01", "json-key", "json-component-key"],
)
def test_duplicate_index_exits_two(tmp_path, capsys, text, named):
    path = tmp_path / "twice.json"
    path.write_text(text)
    assert named in assert_labcli_usage_error(capsys, ["verify", "--fixture", str(path)])


def test_update_m_may_repeat(tmp_path, capsys):
    # updates are versions: two of one component are read in turn
    update = {"m": 1, "union": ["(0/1,1/4)"]}
    path = tmp_path / "updates.json"
    path.write_text(json.dumps(with_path("demuth_two_versions.json", ["updates"], [update, update])))
    assert main(["verify", "--fixture", str(path)]) == 0


# a document holding each record of the field table, and the path to the
# object that holds the record's fields; every object and list on the way
# to a declared field has an entry
TABLE_MEASURE = {"type": "measure", "rule": "table", "table": {"": "1", "0": "1/2", "1": "1/2"}}
RECORD_DOCS = {
    "test_family": ("ml_geometric.json", ()),
    "updates": (demuth_with_update({"m": 1, "union": ["(0/1,1/2)"]}), ()),
    "kind_data:SCHNORR": ("schnorr_geometric.json", ("kind_data",)),
    "kind_data:SOLOVAY": ("solovay_geometric.json", ("kind_data",)),
    "kind_data:INTERVAL_SEQUENCE": ("interval_sequence_basic.json", ("kind_data",)),
    "kind_data:PI1": ("pi1_halfpoint.json", ("kind_data",)),
    "kind_data:DEMUTH": ("demuth_two_versions.json", ("kind_data",)),
    "kind_data:WEAK_DEMUTH": ("weak_demuth_single.json", ("kind_data",)),
    "measure": ("measure_uniform.json", ()),
    "measure:uniform": ("measure_uniform.json", ()),
    "measure:bernoulli": ("measure_bernoulli_3_4.json", ()),
    "measure:table": (TABLE_MEASURE, ()),
    "martingale": ("martingale_all_in.json", ()),
    "martingale:constant": ("martingale_constant.json", ()),
    "martingale:all_in_on_0": ("martingale_all_in.json", ()),
    "martingale:split_bet": ("martingale_split_3_4.json", ()),
    "martingale:table": (SHALLOW_TABLE_MARTINGALE, ()),
    "cauchy_name": ("name_half_script.json", ()),
}

# the wrong JSON values tried at a field, by its reader: an int where a
# string belongs, "x" and "1_0" where an integer belongs, a list where an
# object belongs, an object where a list belongs, "false" where a bool belongs
WRONG = {
    serialize._string: [5], serialize._kind: [5], serialize._bits: [5, "x"],
    serialize._rational: [5], serialize._positive_rational: [5], serialize._interval: [5],
    serialize._integer: ["x", "1_0"], serialize._index: ["x", "1_0"],
    serialize._bool: ["false"], serialize._object: [[]],
    serialize._union: [{}, [5]], serialize._index_set: [{}, ["x"], ["1_0"]],
    ObjectOf: [[]], Record: [[]], ListOf: [{}],
}


def _reader_slots(read, name, doc, path):
    """(name, reader, wrong values, put) for the field that `read` reads at
    `path` of `doc` and for each field it holds, `put(value)` giving a copy
    of `doc` with `value` there; the put of an object key renames the first
    key, and its wrong values are strings, as JSON keys are."""

    def put(value):
        out = copy.deepcopy(doc)
        functools.reduce(operator.getitem, path[:-1], out)[path[-1]] = value
        return out

    reader = type(read) if isinstance(read, tuple) else getattr(read, "func", read)
    yield name, reader, WRONG[reader], put
    value = functools.reduce(operator.getitem, path, doc) if isinstance(read, tuple) else None
    if isinstance(read, ObjectOf):
        first = next(iter(value))

        def rename(key):
            out = copy.deepcopy(doc)
            obj = functools.reduce(operator.getitem, path, out)
            obj[key] = obj.pop(first)
            return out

        reader = getattr(read.read_key, "func", read.read_key)
        yield read.key_name, reader, [w for w in WRONG[reader] if isinstance(w, str)], rename
        yield from _reader_slots(read.read_value, read.value_name, doc, path + (first,))
    elif isinstance(read, ListOf):
        yield from _reader_slots(read.read_item, read.item_name, doc, path + (0,))
    elif isinstance(read, Record):
        for f in read.fields:
            yield from _reader_slots(f.read, f.name or f.key, doc, path + (f.key,))


def table_slots():
    """(record, name, reader, wrong values, put) for every field of the
    field table, nested block and update fields and object keys included."""
    assert sorted(RECORD_DOCS) == sorted(FIELDS)
    for record, fields in FIELDS.items():
        source, base = RECORD_DOCS[record]
        doc = load(source) if isinstance(source, str) else source
        for f in fields:
            for slot in _reader_slots(f.read, f.name or f.key, doc, base + (f.key,)):
                yield (record, *slot)


TABLE_SLOTS = list(table_slots())
WRONG_TYPE_CASES = [
    pytest.param(put(wrong), name, id=f"{record}:{name}={json.dumps(wrong)}")
    for record, name, _, wrongs, put in TABLE_SLOTS
    for wrong in wrongs
]


@pytest.mark.parametrize("doc, name", WRONG_TYPE_CASES)
def test_wrong_json_type_names_its_field(tmp_path, capsys, doc, name):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(doc))
    err = assert_labcli_usage_error(capsys, ["verify", "--fixture", str(path)])
    assert re.search(f"fixture: {re.escape(name)}[ :]", err), err


# the integer fields of the table, read by key or value, each named in its
# exit-2 message: where `budgets key` sits in two records, the first holds
INTEGER_FIELDS = {}
for slot in TABLE_SLOTS:
    if slot[2] in (serialize._integer, serialize._index):
        INTEGER_FIELDS.setdefault(slot[1], slot[4])


@pytest.mark.parametrize("text", ["1_0", " 3 ", "+2"])
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_field_is_ascii_digits(tmp_path, capsys, field, text):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(INTEGER_FIELDS[field](text)))
    err = assert_labcli_usage_error(capsys, ["verify", "--fixture", str(path)])
    assert f"{field} is an integer, got {text!r}" in err
    # the same field as plain digits reads as before; blocks of
    # interval_sequence_basic.json have m and r in 1..4, so at 5 the changed
    # block repeats no other
    path.write_text(json.dumps(INTEGER_FIELDS[field]("5")))
    assert main(["verify", "--fixture", str(path)]) in (0, 1)


def family_docs(source):
    """The test_family documents of `source`: a file in fixtures/, or the
    number of a benchmark bundle."""
    if isinstance(source, int):
        return [doc for doc in bundles.bundle_docs(source).values() if doc["type"] == "test_family"]
    return [load(source)]


@pytest.mark.parametrize(
    "source",
    [f for f in sorted(os.listdir(FIXTURES)) if load(f)["type"] == "test_family"]
    + list(range(bundles.BUNDLE_COUNT)),
    ids=lambda source: f"bundle-{source}" if isinstance(source, int) else source,
)
def test_test_family_round_trip(source):
    for doc in family_docs(source):
        family = serialize.test_family_from_json(doc)
        encoded = serialize.test_family_to_json(family)
        assert encoded == {key: value for key, value in doc.items() if key != "updates"}
        assert serialize.test_family_from_json(encoded) == family


def test_shallow_table_martingale_passes_to_its_depth(tmp_path, capsys):
    path = tmp_path / "shallow.json"
    path.write_text(json.dumps(SHALLOW_TABLE_MARTINGALE))
    code, out = run(capsys, "verify", "--fixture", str(path), "--depth", "1")
    assert code == 0
    assert all(r["status"] == "PASS" for r in json.loads(out)["records"])


@pytest.mark.parametrize(
    "doc, code, records",
    [
        (SHALLOW_TABLE_MARTINGALE, 0, {"fairness_to_depth_1": "PASS", "level_sum_depth_1": "PASS"}),
        (NEGATIVE_TABLE_MEASURE, 1, {"total_mass": "PASS", "nonnegative[1]": "FAIL"}),
    ],
    ids=["martingale-depth-1", "negative-measure-depth-2"],
)
def test_table_fixture_verifies_to_its_own_depth(tmp_path, doc, code, records):
    # at the default --depth 8, a table is read only as deep as its longest key
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    proc = run_labcli("verify", "--fixture", str(path))
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == ""
    got = {r["name"]: r["status"] for r in json.loads(proc.stdout)["records"]}
    assert got == {f"table.json:{name}": status for name, status in records.items()}


def test_tree_stage_count_over_budget_exits_two():
    proc = run_labcli("tree", "--function", "canonical_nonuc:100000", "--depth", "2")
    err = assert_one_labcli_line(proc)
    assert "CANONICAL_NONUC_STAGE_BUDGET" in err and "100000" in err


@pytest.mark.parametrize("count", ["1_0", " 3", "+3", "\u0663", "x", "-3", "0"])
def test_tree_stage_count_not_ascii_digits_exits_two(capsys, count):
    # Python's int reads "1_0" as 10 and " 3", "+3" and the Arabic-Indic
    # digit three as 3; a stage count is ASCII digits only
    argv = ["tree", "--function", f"canonical_nonuc:{count}", "--depth", "2"]
    err = assert_labcli_usage_error(capsys, argv)
    assert len(err.splitlines()) == 1 and count in err
    assert "invalid literal" not in err


def with_component(name, m):
    return with_path(name, ["components", m], [[]])


def pi1_with_c_sets(count):
    return with_path("pi1_halfpoint.json", ["kind_data", "C"], [[0]] * count)


# a constant name at 1/2 on the grid k/2^14 with scale k/2^14 straddles with
# (k + 3) left points of k partners each: 258 * 255 = 65,790 > 2^16
DERIVE_AT_HALF = ["derive", "--function", "square", "--at", "1/2", "--precision", "14"]


INDEX = "COMPONENT_INDEX_BUDGET"
GRID = "GRID_DENOMINATOR_BUDGET"
PAIRS = "PSEUDO_DERIVATIVE_PAIR_BUDGET"


@pytest.mark.parametrize(
    "argv, doc, named",
    [
        (["verify"], with_component("ml_geometric.json", "1025"), [INDEX, "1025"]),
        (["verify"], with_component("ml_geometric.json", "-1025"), [INDEX, "-1025"]),
        (["verify"], demuth_with_update({"m": 1025, "union": []}), [INDEX, "1025"]),
        (["verify"], demuth_with_update({"m": -1, "union": []}), [INDEX, "-1"]),
        (["verify"], with_block("m", 1025), [INDEX, "1025"]),
        (["verify"], with_block("r", 1025), [INDEX, "1025"]),
        (["verify"], pi1_with_c_sets(1025), [INDEX, "1025"]),
        (["convert", "--fixture", fixture("solovay_geometric.json"), "--depth", "1025"],
         None, [INDEX, "1025"]),
        (["convert", "--fixture", fixture("solovay_geometric.json"), "--depth", "15000"],
         None, [INDEX, "15000"]),
        (["convert", "--fixture", fixture("interval_sequence_basic.json"), "--depth", "1025"],
         None, [INDEX, "1025"]),
        (["derive", "--function", "square", "--at", "1/3", "--precision", "15"],
         None, [GRID, "15"]),
        (DERIVE_AT_HALF + ["--scale", "255/16384"], None, [PAIRS, "65790"]),
        (["derive", "--function", "square", "--at", "1/3", "--scale", "1", "--precision", "14"],
         None, [PAIRS]),
        (["transport", "--measure", fixture("measure_uniform.json"), "--prefix", "0" * 65],
         None, ["TRANSPORT_LENGTH_CAP", "65"]),
        (["tree", "--function", "square", "--depth", "17"],
         None, ["OSCILLATION_DEPTH_BUDGET", "17"]),
    ],
    ids=["component-1025", "component-minus-1025", "update-m-1025", "update-m-negative",
         "block-m-1025", "block-r-1025", "pi1-1025-c-sets", "convert-depth-1025",
         "convert-depth-15000", "convert-is-depth-1025", "derive-precision-15",
         "derive-pairs-65790", "derive-scale-1",
         "transport-prefix-65", "tree-depth-17"],
)
def test_budget_exceeded_exits_two(tmp_path, argv, doc, named):
    if doc is not None:
        path = tmp_path / "over_budget.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--fixture", str(path)]
    err = assert_one_labcli_line(run_labcli(*argv))
    assert all(part in err for part in named)


@pytest.mark.parametrize(
    "argv, doc, code",
    [
        (["verify"], with_component("ml_geometric.json", "1024"), 0),
        (["verify"], with_component("ml_geometric.json", "-1024"), 0),
        (["verify"], demuth_with_update({"m": 1024, "union": []}), 0),
        (["verify"], pi1_with_c_sets(1024), 1),
        (["convert", "--fixture", fixture("solovay_geometric.json"), "--depth", "1024"], None,
         0),
        (DERIVE_AT_HALF + ["--scale", "254/16384"], None, 0),
        (["transport", "--measure", fixture("measure_uniform.json"), "--prefix", "0" * 64],
         None, 0),
        (["tree", "--function", "const:0", "--depth", "16"], None, 0),
        (["tree", "--function", "square", "--depth", "16"], None, 0),
        (["tree", "--function", "canonical_nonuc:64", "--depth", "16"], None, 0),
        # a pseudo-derivative at the right end of [0, 1]
        (["derive", "--function", "square", "--at", "1"], None, 0),
        (["derive", "--function", "abs_offset", "--at", "1"], None, 0),
        (["derive", "--function", "canonical_nonuc:64", "--at", "1"], None, 1),
    ],
    ids=["component-1024", "component-minus-1024", "update-m-1024", "pi1-1024-c-sets",
         "convert-depth-1024", "derive-pairs-65278", "transport-prefix-64", "tree-depth-16",
         "tree-square-depth-16", "tree-nonuc-64-depth-16", "derive-square-at-1",
         "derive-abs-offset-at-1", "derive-nonuc-64-at-1"],
)
def test_budget_limit_is_accepted(tmp_path, capsys, argv, doc, code):
    if doc is not None:
        path = tmp_path / "at_budget.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--fixture", str(path)]
    assert main(argv) == code
    assert capsys.readouterr().err == ""


def readme_commands():
    """Every command of README's labcli block, backslash continuations
    joined and comments dropped."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = fh.read().split("## labcli", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip()
    ]


# sha256 of the stdout of each README command: a change to the code behind
# a command must leave its report byte for byte as it is
README_STDOUT_SHA256 = {
    "labcli verify --fixture fixtures/ml_geometric.json":
        "78eb117836bea1cdcd93b3fcea7b86a0e38f25c42633055a204734bbef923db8",
    "labcli evaluate --fixture fixtures/ml_geometric.json "
    "--name fixtures/name_half_script.json --depth 6":
        "6255d68da545c440e4bc859b81f8b1eae92236fe6d1a10905e25cb60d9a53255",
    "labcli transport --measure fixtures/measure_bernoulli_3_4.json --prefix 111":
        "dc34938225f88960464087548085f4ef2ea282e0d656df473003d88dfb46f572",
    "labcli derive --function square --at 1/3 --scale 1/1024 --precision 14":
        "15847cc57362674197ceed7070001f6c0882e43f493702173f41458b85a29606",
    "labcli tree --function canonical_nonuc:20 --precision 0 --depth 8":
        "7ff90157025dfd28e066309fe57632a54956d3ae112503646ac0fa113fe854a1",
    "labcli convert --fixture fixtures/solovay_geometric.json --depth 6":
        "46d42e8af741f8e08cf859572cd2079e3294f81df9c2fb71c105fee89af0a0cc",
    "labcli report --fixture-dir fixtures":
        "341f923467fd5426f7e829af11880a6eb362a2ffc5110e5bb22c338e6dab4be3",
}


def test_readme_examples():
    commands = readme_commands()
    assert commands, "no labcli commands found in README.md"
    assert sorted(" ".join(argv) for argv in commands) == sorted(README_STDOUT_SHA256)
    for argv in commands:
        assert argv[0] == "labcli", argv
        proc = run_labcli(*argv[1:], timeout=300, cwd=ROOT)
        # exit 1 is a failed check (evaluate and transport exit 1 by design);
        # above 1, or any other stderr, breaks the contract
        assert proc.returncode <= 1, (argv, proc.stderr)
        stray = [l for l in proc.stderr.splitlines() if not l.startswith("labcli: ")]
        assert not stray, (argv, proc.stderr)
        digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
        assert digest == README_STDOUT_SHA256[" ".join(argv)], argv


RATIONALS = st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 9))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats()
    | st.text(max_size=6) | RATIONALS
    | st.builds("{}{},{}{}".format, st.sampled_from("[("), RATIONALS, RATIONALS,
                st.sampled_from(")]")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def value_paths(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from value_paths(value, path + (key,))


def mutate(doc, data):
    """One mutation: replace the value at a path, delete a key or item, or
    rename a component key."""
    op = data.draw(st.sampled_from(["replace", "delete", "rename"]))
    components = doc.get("components") if isinstance(doc, dict) else None
    if op == "rename" and isinstance(components, dict) and components:
        old = data.draw(st.sampled_from(sorted(components)))
        new = data.draw(st.integers(-2000, 2000).map(str) | st.text(max_size=4))
        components[new] = components.pop(old)
        return doc
    paths = list(value_paths(doc))
    if op == "delete" and len(paths) > 1:
        path = data.draw(st.sampled_from(paths[1:]))
        del functools.reduce(operator.getitem, path[:-1], doc)[path[-1]]
        return doc
    path = data.draw(st.sampled_from(paths))
    if not path:
        return data.draw(JSON_VALUES)
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = data.draw(JSON_VALUES)
    return doc


FIXTURE_FILES = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json"))
DECODERS = (serialize.test_family_from_json, serialize.updates_from_json,
            serialize.measure_from_json, serialize.martingale_from_json,
            serialize.name_from_json)


@settings(max_examples=200, deadline=5000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(FIXTURE_FILES), data=st.data())
def test_mutated_fixtures_keep_the_exit_contract(name, data):
    doc = load(name)
    commands = ["verify"] + (["convert"] if doc["type"] == "test_family" else [])
    for _ in range(data.draw(st.integers(1, 2))):
        doc = mutate(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--fixture", path])
            assert code in (0, 1, 2)
            assert all(line.startswith("labcli: ") for line in err.getvalue().splitlines())
            assert code != 2 or out.getvalue() == ""
    # a decoder fails on a malformed field through its reader, not through
    # Python's own TypeError, AttributeError or KeyError
    for decode in DECODERS:
        try:
            decode(doc)
        except ParseError as exc:
            cause = exc.__cause__
            while cause is not None:
                assert not isinstance(cause, (TypeError, AttributeError, KeyError)), repr(cause)
                cause = cause.__cause__


@pytest.mark.parametrize(
    "precision, named",
    [("7", ["1/1024", "2^-9", "k/2^7"]), ("9", ["1/1024", "k/2^9"])],
)
def test_derive_scale_error_names_scale_and_grid(capsys, precision, named):
    argv = ["derive", "--function", "square", "--at", "1/3", "--precision", precision]
    err = assert_labcli_usage_error(capsys, argv)
    assert all(part in err for part in named)
    # the default scale 1/1024 first has grid pairs at precision 10
    assert main(argv[:-1] + ["10"]) == 0
