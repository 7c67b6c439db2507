import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clustercat import bound, cli


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


def test_explore_affine_needs_depth(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["explore", "--type", "Atilde21"])
    assert exc.value.code == 2
    assert "exchange graph of A~(2,1) shape may be infinite" in capsys.readouterr().err
    # the Kronecker quiver has one arrow each way round its two-vertex cycle
    path = tmp_path / "kronecker.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[1, 2], [1, 2]]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["explore", "--quiver", str(path)])
    assert exc.value.code == 2
    assert "exchange graph of A~(1,1) shape may be infinite" in capsys.readouterr().err
    code, rep = run_json(capsys, "explore", "--type", "Atilde21", "--depth", "3")
    assert code == 0
    assert rep["truncated"] is True


@pytest.mark.parametrize("command", ["explore", "denominators"])
def test_unbounded_walk_names_the_depth_option(capsys, tmp_path, command):
    # the library's keyword is max_depth; the CLI user sets it with --depth
    path = tmp_path / "kronecker.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[1, 2], [1, 2]]}))
    for source in (["--type", "Atilde21"], ["--quiver", str(path)]):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *source])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "shape may be infinite; pass --depth" in err
        assert "max_depth" not in err


def test_denominators_output(capsys):
    code, rep = run_json(capsys, "denominators", "--type", "A2")
    assert code == 0
    entries = {e["variable"]: e["denominator"] for e in rep["variables"]}
    assert entries["x1"] == [-1, 0]
    assert entries["x1^-1*x2 + x1^-1"] == [1, 0]
    assert rep["count"] == 5 and len(entries) == 5
    assert rep["truncated"] is False


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "name,depth,digest",
    [
        ("A2", None, "b684311e1afabde5b8232ecd5d5261c21c2706ffc8204aa79ba8ba5e0c776d14"),
        ("A3", None, "e77d960550ef660d1f219ea051512ce5c50cc02dfbc70e8f27d5bdbebe1a2cf4"),
        ("A4", None, "8d47196f07a6963c3ac2eef427aae57e15fb26e07e1c420d1ad2d0aa7091a9ce"),
        ("D4", None, "3950d4aa3702911e7773895db534e9de08fb3dc26daeaa54d81a8a11bc89e257"),
        ("D5", None, "bd2dd0d955c8f824f41466fc1d806fed231631cfc0a9a303d8110e2f84e8503c"),
        ("Atilde21", 2, "50a7164e54f8e43b9b3c765b79a63c223c45ef040d8a9505adc0ef5af93a280b"),
        ("Atilde21", 4, "9bf4cb596d39e4b415326ce45bd31250ef30e34ffecd1dd27a7535faa6c3162a"),
        ("Atilde21", 6, "9547f72bb16a521fe6be620497b803a4642751673d736d93c383e1a4c67e1ee9"),
    ],
    ids=["A2", "A3", "A4", "D4", "D5", "Atilde21-2", "Atilde21-4", "Atilde21-6"],
)
def test_denominators_reports_are_pinned(capsys, tmp_path, monkeypatch, name, depth, digest):
    # the whole JSON report byte for byte; D5 is read from a file named the
    # same in every run, since the report echoes its path
    monkeypatch.chdir(tmp_path)
    Path("d5.json").write_text(json.dumps({"vertices": 5, "arrows": [[1, 2], [2, 3], [3, 4], [3, 5]]}))
    source = ["--quiver", "d5.json"] if name == "D5" else ["--type", name]
    code, out = run(capsys, "denominators", *source, *([] if depth is None else ["--depth", str(depth)]))
    assert code == 0
    assert _sha256(out) == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["corollary4", "--type", "D4"], "df8564cbc789f79623c9ba7d86f716ac7e86c64f8f94abb2dd5f4b3ee3e35797"),
        (["corollary5"], "608abe644d7631537490b20e7df94fcde42fb676b421ab7ad2ddc19663095304"),
    ],
    ids=["corollary4-D4", "corollary5"],
)
def test_verify_details_are_pinned(capsys, argv, digest):
    code, rep = run_json(capsys, "verify", *argv)
    assert code == 0 and rep["pass"] is True
    assert _sha256(json.dumps(rep["details"], sort_keys=True)) == digest


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


def test_counterexample_proves_non_isomorphism_from_the_tops(capsys, monkeypatch):
    # M against itself passes every other check, so only the tops refuse it
    m, _ = bound.counterexample_modules(bound.build_counterexample_algebra())
    monkeypatch.setattr(bound, "counterexample_modules", lambda alg: (m, m))
    message = "the two modules must have different tops, got [1, 0, 0] and [1, 0, 0]"
    with pytest.raises(AssertionError) as exc:
        bound.counterexample_report()
    assert str(exc.value) == message
    code, rep = run_json(capsys, "verify", "counterexample")
    assert (code, rep["pass"], rep["witness"]) == (1, False, {"error": f"AssertionError: {message}"})


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


def test_verify_lemma67_builds_one_shifted_pair_per_edge(capsys, monkeypatch):
    # D4 has 50 tilting objects, so 200 edges; each edge builds its exchange
    # data once in the one walk, and one double-shifted copy for all 16
    # vertices (16 per edge when each vertex built its own)
    from clustercat import category

    built = []
    real = category.ExchangeData

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(category, "ExchangeData", counting)
    code, rep = run_json(capsys, "verify", "lemma67", "--type", "D4")
    assert code == 0
    assert rep["pass"] is True
    assert rep["details"] == {
        "compatibility_cases": 3200,
        "propagation_cases": 2400,
        "tilting_objects": 50,
    }
    assert len(built) == 2 * 200


def test_verify_lemma67_builds_the_category_and_walks_it_once(capsys, monkeypatch):
    # the lemma checks and the Theorem 1 propagation report share one
    # GammaC and one walk over its tilting objects
    from clustercat import category

    calls = {"GammaC": 0, "walk_tilting": 0}
    init = category.GammaC.__init__

    def counting_init(self, quiver):
        calls["GammaC"] += 1
        init(self, quiver)

    def counting_walk(g, _real=category.walk_tilting):
        calls["walk_tilting"] += 1
        return _real(g)

    monkeypatch.setattr(category.GammaC, "__init__", counting_init)
    for module in (category, cli):
        monkeypatch.setattr(module, "walk_tilting", counting_walk)
    code, rep = run_json(capsys, "verify", "lemma67", "--type", "D4")
    assert code == 0 and rep["pass"] is True
    assert calls == {"GammaC": 1, "walk_tilting": 1}


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


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": 2, "arrows": 5},
        {"vertices": 2, "arrows": [[1, 2]], "relations": 3},
        {"vertices": None, "arrows": []},
        {"vertices": 2.5, "arrows": [[1, 2]]},
        {"vertices": True, "arrows": []},
        {"vertices": "2", "arrows": [[1, 2]]},
        {"vertices": 2, "arrows": [[1, 2.0]]},
        {"vertices": 3, "arrows": [[1, 2, 3]]},
        {"vertices": 2, "arrows": [[1, 2]], "relations": [0]},
        {"vertices": 2, "arrows": [[1, 2]], "relations": [[False]]},
    ],
)
def test_mistyped_quiver_file_is_usage_error(capsys, tmp_path, data):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        cli.main(["explore", "--quiver", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot read quiver file" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "relations",
    [[[0]], [[0, 1]], [[0, 2]], [[1, 2], [1, 2]]],
    ids=["one-arrow", "not-composable", "unknown-arrow", "duplicate"],
)
def test_quiver_file_with_invalid_relations_is_usage_error(capsys, tmp_path, relations):
    # arrows 1->2 and 1->3 share a source, so [0, 1] is no path
    path = tmp_path / "quiver.json"
    data = {"vertices": 4, "arrows": [[1, 2], [1, 3], [3, 4]], "relations": relations}
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        cli.main(["explore", "--quiver", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot read quiver file" in err and "relation" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["mutate", "explore", "denominators"])
def test_quiver_file_relations_are_not_dropped(capsys, tmp_path, command):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps({"vertices": 3, "arrows": [[1, 2], [2, 3]], "relations": [[0, 1]]}))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--quiver", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "has relations [[0, 1]]" in err and "Traceback" not in err
