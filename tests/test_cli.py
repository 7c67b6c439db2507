import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clustercat import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_mutate_pentagon(capsys):
    code, rep = run_json(capsys, "mutate", "--type", "A2", "1", "2", "1", "2", "1")
    assert code == 0
    assert rep["cluster"] == ["x2", "x1"]
    assert rep["b"] == [[0, -1], [1, 0]]
    assert rep["parameters"]["sequence"] == [1, 2, 1, 2, 1]


def test_mutate_empty_sequence_is_initial_seed(capsys):
    code, rep = run_json(capsys, "mutate", "--type", "A2")
    assert code == 0
    assert rep["cluster"] == ["x1", "x2"]
    assert rep["b"] == [[0, 1], [-1, 0]]


def test_mutate_bad_index_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["mutate", "--type", "A2", "5"])
    assert exc.value.code == 2


def test_explore_finite(capsys):
    code, rep = run_json(capsys, "explore", "--type", "A3")
    assert code == 0
    assert rep["clusters"] == 14
    assert rep["variables"] == 9
    assert rep["truncated"] is False


def test_explore_affine_needs_depth(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["explore", "--type", "Atilde21"])
    assert exc.value.code == 2
    code, rep = run_json(capsys, "explore", "--type", "Atilde21", "--depth", "3")
    assert code == 0
    assert rep["truncated"] is True


def test_denominators_output(capsys):
    code, rep = run_json(capsys, "denominators", "--type", "A2")
    assert code == 0
    entries = {e["variable"]: e["denominator"] for e in rep["variables"]}
    assert entries["x1"] == [-1, 0]
    assert entries["x1^-1*x2 + x1^-1"] == [1, 0]
    assert rep["count"] == 5 and len(entries) == 5
    assert rep["truncated"] is False


def test_quiver_file_loading(capsys, tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps({"vertices": 3, "arrows": [[1, 2], [2, 3]]}))
    code, rep = run_json(capsys, "explore", "--quiver", str(path))
    assert code == 0
    assert rep["clusters"] == 14


def test_json_output_round_trips_exactly(capsys):
    for argv in (
        ["mutate", "--type", "A2", "1"],
        ["explore", "--type", "A2"],
        ["verify", "counterexample"],
    ):
        code, out = run(capsys, *argv)
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out


def test_tsv_format(capsys):
    code, out = run(capsys, "explore", "--type", "A2", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    rows = dict(line.split("\t", 1) for line in lines)
    assert rows["clusters"] == "5"
    assert rows["command"] == '"explore"'


def test_verify_counterexample(capsys):
    code, rep = run_json(capsys, "verify", "counterexample")
    assert code == 0
    assert rep["pass"] is True
    assert rep["details"]["algebra_dimension"] == 10
    assert rep["details"]["lift_self_extension"] == 2
    assert rep["witness"] is None


def test_verify_counterexample_rejects_type(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "counterexample", "--type", "A3"])
    assert exc.value.code == 2


def test_verify_unknown_target(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_rejects_non_dynkin_type(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "theorem1", "--type", "Atilde21"])
    assert exc.value.code == 2


def test_verify_theorem1_a2(capsys):
    code, rep = run_json(capsys, "verify", "theorem1", "--type", "A2")
    assert code == 0
    assert rep["pass"] is True
    assert rep["details"]["tilting_objects"] == 5
    assert rep["details"]["clusters"] == 5
    assert rep["details"]["expected"] == 5
    assert rep["details"]["propagation_cases"] == 30


def test_verify_corollary5_truncation_is_flagged(capsys):
    code, rep = run_json(capsys, "verify", "corollary5")
    assert code == 0
    assert rep["pass"] is True
    assert rep["details"]["truncated"] is True
    assert rep["details"]["depth"] == 6
    assert rep["details"]["variables"] == 25


def test_verify_prop8_a3(capsys):
    code, rep = run_json(capsys, "verify", "prop8", "--type", "A3")
    assert code == 0
    assert rep["pass"] is True
    assert rep["details"]["tilting_modules"] == 5
    assert rep["details"]["max_chain_length"] == 3
    assert len(rep["details"]["chains"]) == 5


def test_verify_failure_reported_with_witness(capsys, monkeypatch):
    # force a count mismatch to exercise the failure path end to end
    monkeypatch.setitem(cli.KNOWN_CLUSTER_COUNTS, "A2", 6)
    code, rep = run_json(capsys, "verify", "theorem1", "--type", "A2")
    assert code == 1
    assert rep["pass"] is False
    assert rep["witness"] is not None


def test_verify_denomhom_seeded(capsys):
    code, rep = run_json(
        capsys, "verify", "denomhom", "--type", "A2", "--depth", "4", "--seed", "1"
    )
    assert code == 0
    assert rep["pass"] is True
    assert rep["parameters"]["seed"] == 1
    assert rep["details"]["sequences"] == 120


def test_module_entry_point_writes_nothing_to_stderr():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "clustercat.cli", "explore", "--type", "A2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["clusters"] == 5


def test_verify_output_is_byte_stable(capsys):
    outs = [run(capsys, "verify", "theorem1", "--type", "A3") for _ in range(2)]
    assert outs[0] == outs[1]
    assert "elapsed_seconds" not in json.loads(outs[0][1])


@pytest.mark.parametrize("command", [["mutate", "1"], ["explore"], ["denominators"]])
def test_two_cycle_quiver_is_usage_error(capsys, tmp_path, command):
    path = tmp_path / "two_cycle.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[1, 2], [2, 1]]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--quiver", str(path)])
    assert exc.value.code == 2
    assert "2-cycle" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["explore", "--type", "A2", "--depth", "-1"],
        ["denominators", "--type", "A2", "--depth", "-1"],
        ["verify", "corollary5", "--depth", "-1"],
        ["verify", "theorem1", "--type", "A2", "--depth", "-1"],
        ["verify", "denomhom", "--type", "A2", "--depth", "0"],
        ["verify", "corollary5", "--depth", "0"],
    ],
)
def test_bad_depth_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem1", "--type", "A2"],
        ["corollary4", "--type", "A2"],
        ["counterexample"],
        ["prop8", "--type", "A2"],
        ["lemma67", "--type", "A2"],
    ],
)
def test_depth_is_usage_error_where_unread(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *argv, "--depth", "5"])
    assert exc.value.code == 2
    assert f"{argv[0]} takes no --depth" in capsys.readouterr().err
