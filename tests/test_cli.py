import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_category import crosscheck_mutant

from clustercat import bound, cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_two_main_calls_build_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert run(capsys, "explore", "--type", "A2")[0] == 0
    assert built.count("clustercat") == 1
    first = len(built)
    assert run(capsys, "verify", "theorem1", "--type", "A2")[0] == 0
    assert len(built) == first


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
        (["theorem1", "--type", "A2"], "e5c6b54471dd952e185fc2c7ff50e7bb416686a9f7b433ea2236d1ae2179cb74"),
        (["theorem1", "--type", "A3"], "5b0ef4ccb2c29a7cab0b7e6fd616e91ef9e325d0a05c0a5e141ca45c86bd999f"),
        (["theorem1", "--type", "A4"], "f46601a1c04ad8654c86fcca71a3351586c7d1454415881a1f26fb28e2c64bef"),
        (["theorem1", "--type", "D4"], "05ddf1431b2b6c2c842944a0fb46bce0f2271ae909ca39c87f9f00f232b50708"),
        (["lemma67", "--type", "A2"], "04267c6c4adeaf12302b4a1eeda7f5756f92b554cae5fa346dea713a517e5e31"),
        (["lemma67", "--type", "A3"], "d0effce1370c1e90331cc8ac821a75ccc93ab8a4d4e5b82602b98bf4286782d5"),
        (["lemma67", "--type", "A4"], "44956f5199b2a9f52d7eac03da970067e41ae683e88545c6c0f0a3e92305ac99"),
        (["lemma67", "--type", "D4"], "1277b12a0be63e12a6a7ae96a12520cd649ba63470b83a5dc97627548c03e6cb"),
        (["prop8", "--type", "A2"], "42ed09c9c8840699c5695bdc62317093de01f695f33b0eb5051eb78f4685dc05"),
        (["prop8", "--type", "A3"], "5533bcb17e3ec1e42d7bc3b4e22a932926410856d67ce74d75aa9ef007c39e48"),
        (["prop8", "--type", "A4"], "54569ce79ce3f0ff99364659859c3f05ab0d7012aa74e9be54f2326c59aec568"),
        (["prop8", "--type", "D4"], "35b6c9678607d742d81d517181bb302c1ad5e0be911b353c545b4ae8957fa88f"),
        (["counterexample"], "2a0fbc4f72b3a542d00f3a2ed8ed4e655a52ef7a54e85c63b2b5f8013c3191db"),
    ],
    ids=[
        "corollary4-D4",
        "corollary5",
        *(f"{target}-{name}" for target in ("theorem1", "lemma67", "prop8") for name in ("A2", "A3", "A4", "D4")),
        "counterexample",
    ],
)
def test_verify_details_are_pinned(capsys, argv, digest):
    # digests of the parent of the walker's move to P[1]: only denomhom's
    # details changed with it
    code, rep = run_json(capsys, "verify", *argv)
    assert code == 0 and rep["pass"] is True
    assert _sha256(json.dumps(rep["details"], sort_keys=True)) == digest


@pytest.mark.parametrize(
    "argv,json_digest,tsv_digest",
    [
        (
            ["prop8", "--type", "A2"],
            "c22a2b85a165ce688b324cfa020a4cb547b9bc68324aa2e99e2eda7b7030fd24",
            "7bad1a46bc1731e4b06b85faf07382baa49a5bb75fc11a2eb603af0ed851562e",
        ),
        (
            ["prop8", "--type", "A3"],
            "861752f0caeba7e4367574e78ebfda75f93b1c794638b9fbbcf2819fadbe6a63",
            "e186a20977e5523a903e7cc14515afc9a51d3882f40230276d5211c2b8d6468b",
        ),
        (
            ["prop8", "--type", "A4"],
            "36c68f03385de369315fc8eac64b686d2669cc2071379c0ef5c4fc0e0b260e65",
            "eb33efc0fef9ca30ce17987deb12d7c2f1c5d2d9e0e6fd6139b4e2f32991f4a1",
        ),
        (
            ["prop8", "--type", "D4"],
            "151ec97072fda942e119c54b5cd72e2de65a35feaf77d8b69c413447f06f33c0",
            "79fe53a78fbabda111324ce5658c5fba39771da2003cc271ba44ff0eeda3ab00",
        ),
        (
            ["theorem1", "--type", "D4"],
            "dfb6a56d6af7be90a4a95851c16e0f67d0934f3156f0aa245ca73ac27506e9be",
            "156fcc4850e9f3c5f9c8fdeb2f763b147031fa9398cd1d249061c4cb71ddfce4",
        ),
        (
            ["lemma67", "--type", "D4"],
            "f8d2512407034606d13d9d8bc8546bf4ef00a14146fbe6f25fa1fbff0240b022",
            "509564064ffc3a470be46396884255b654a595430305d1cd740c595042f7e967",
        ),
        (
            ["counterexample"],
            "a9887756913b505bef2fbfc9f948d7182ca9d8bc7751fde13b995da51a24ecb4",
            "514e1e5666961ace859ed64c6dbfa16eaa6b48edba814f3db831a118d962bb3d",
        ),
    ],
    ids=["prop8-A2", "prop8-A3", "prop8-A4", "prop8-D4", "theorem1-D4", "lemma67-D4", "counterexample"],
)
def test_verify_stdout_is_pinned(capsys, argv, json_digest, tsv_digest):
    # the whole of stdout, indentation and key order included, in both formats
    for fmt, digest in (("json", json_digest), ("tsv", tsv_digest)):
        code, out = run(capsys, "verify", *argv, "--format", fmt)
        assert code == 0
        assert _sha256(out) == digest, fmt


_TEXT = st.text() | st.sampled_from(["", '"', "\\", "\n\t\x00\x1f", "\u00e9\u2028\U0001f600", "\ud800"])
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | _TEXT
)
_TREES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=5)
    | st.dictionaries(st.integers(-50, 50), inner, max_size=3),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_TEXT, _TREES, max_size=6))
@example({"flags": [True, 1, False, 0, None], "mixed": [1, 1.5, "1", [], {}], "nested": [[], [[]], {"": {}}]})
@example({"ints": {10: "a", 2: [float("nan"), float("inf"), float("-inf")]}, "big": [-(2**70), 2**70]})
@example({"inner": ({"b": (1, 2), "a": ()},), "keys": {"\u00e9": 1, "e": 2, "\"": 3}})
def test_json_writer_matches_the_standard_encoder(report):
    assert cli.render_report(report, "json") == json.dumps(report, sort_keys=True, indent=2)


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


def test_verify_lemma67_builds_one_exchange_per_edge(capsys, monkeypatch):
    # D4 has 50 tilting objects, so 200 edges; each edge builds its exchange
    # data once in the one walk, and Lemma 6 is checked on the hom table, so
    # no edge builds a double-shifted copy
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
    assert len(built) == 200


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
    monkeypatch.setattr(category, "walk_tilting", counting_walk)
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


def test_verify_denomhom_walks_every_edge(capsys):
    code, rep = run_json(capsys, "verify", "denomhom", "--type", "A3")
    assert code == 0
    assert rep["pass"] is True
    assert rep["parameters"] == {"type": "A3", "depth": None}
    assert rep["details"] == {"diagram": "A3", "tilting_objects": 14, "edges": 42, "paired": 9}
    assert rep["witness"] is None


def test_verify_denomhom_mismatch_exits_1_with_five_witnesses(capsys, monkeypatch):
    # the copy that reads hom(t, P_p) misses 12 denominators on D4
    mutant = crosscheck_mutant("g.hom_i[p][t]", "g.hom_i[t][p]")
    monkeypatch.setattr(cli, "den_vs_hom_crosscheck", mutant)
    code, rep = run_json(capsys, "verify", "denomhom", "--type", "D4")
    assert code == 1
    assert rep["pass"] is False
    assert rep["details"] == {"diagram": "D4", "tilting_objects": 50, "edges": 200, "paired": 16}
    assert len(rep["witness"]) == 5
    assert {w["check"] for w in rep["witness"]} == {"denominator"}


def test_seed_is_usage_error(capsys):
    # no verify target samples, so there is no seed to pass
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "theorem1", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


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
        ["verify", "denomhom", "--type", "A2", "--depth", "3"],
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
        ["denomhom", "--type", "A2"],
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


def test_deeply_nested_quiver_file_is_usage_error(tmp_path):
    # the JSON parser gives up on arrows nested 200,000 deep; the command
    # exits 2 with a message, as for any other unreadable quiver file
    path = tmp_path / "deep.json"
    path.write_text('{"vertices": 2, "arrows": ' + "[" * 200_000 + "]" * 200_000 + "}")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "clustercat.cli", "explore", "--quiver", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "cannot read quiver file: quiver JSON is nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


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


@pytest.mark.parametrize(
    "command,args",
    [("mutate", ["1", "2"]), ("explore", ["--depth", "2"]), ("denominators", ["--depth", "2"])],
)
def test_exponent_overflow_from_a_quiver_file_is_usage_error(capsys, tmp_path, command, args):
    # 200 parallel arrows make the second exchange raise an exponent past the
    # packed range: out-of-scope input, not a failed check
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps({"vertices": 2, "arrows": [[1, 2]] * 200}))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--quiver", str(path), *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "a product exponent could reach 25600, past |e| < 16384" in err and "Traceback" not in err
