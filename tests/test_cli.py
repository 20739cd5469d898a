import json
import os
import subprocess
import sys

import pytest

from randlab.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


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
    doc = json.load(open(fixture("schnorr_geometric.json")))
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
    ],
    ids=["missing-fixture", "tree-depth-x", "verify-depth-negative", "no-such-command"],
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


@pytest.mark.parametrize("bound", ["0/1", "-1/1"])
def test_convert_non_positive_solovay_bound_exits_two(tmp_path, bound):
    doc = json.load(open(fixture("solovay_geometric.json")))
    doc["kind_data"]["total_bound"] = bound
    bad = tmp_path / "solovay_bad_bound.json"
    bad.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "randlab.cli", "convert", "--fixture", str(bad)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("labcli: ")
    assert "total_bound" in lines[0]


def demuth_with_update(update):
    doc = json.load(open(fixture("demuth_two_versions.json")))
    doc["updates"] = [update]
    return doc


@pytest.mark.parametrize(
    "doc, named",
    [
        (demuth_with_update({"union": ["(0/1,1/8)"]}), "'m'"),
        (demuth_with_update({"m": 1}), "'union'"),
        ({"type": "measure", "rule": "table", "table": {"": "1", "0": "1/2"}}, "'1'"),
    ],
    ids=["update-without-m", "update-without-union", "table-measure-hole"],
)
def test_fixture_hole_exits_two(tmp_path, capsys, doc, named):
    path = tmp_path / "hole.json"
    path.write_text(json.dumps(doc))
    assert named in assert_labcli_usage_error(capsys, ["verify", "--fixture", str(path)])


def test_tree_stage_count_over_budget_exits_two(capsys):
    argv = ["tree", "--function", "canonical_nonuc:100000", "--depth", "2"]
    err = assert_labcli_usage_error(capsys, argv)
    assert "CANONICAL_NONUC_STAGE_BUDGET" in err and "100000" in err


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
