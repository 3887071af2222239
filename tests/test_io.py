import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import flatwall.leveling
import flatwall.serialize
from flatwall.cli import load_oracle, load_params, main
from flatwall.config import Params
from flatwall.errors import (CapacityError, InputError, InternalError,
                             UsageError)
from flatwall.flatness import generate_fixture, is_regular, validate_flatness
from flatwall.graph import Graph, TreeDecomposition
from flatwall.leveling import Representation
from flatwall.pipeline import (ScriptedOracle, flat_wall_driver,
                               validate_driver_outcome)
from flatwall.serialize import (CertificateBundle, ParseError, SchemaError,
                                canonical_bytes, dec, decomposition_from_json,
                                decomposition_to_json, graph_from_json,
                                graph_to_json, model_from_json, model_to_json,
                                pair_from_json, pair_to_json, parse_bundle,
                                read_bundle, rendition_from_json,
                                rendition_to_json, wall_from_json,
                                wall_to_json, write_bundle)
from flatwall.tilt import regularize
from flatwall.wall import elementary_wall, subdivide_wall

from test_leveling import check_representation


# -- round trips -----------------------------------------------------------


def test_graph_round_trip_mixed_ids():
    G = Graph([1, "a", ("f", 2)], [(1, "a"), ("a", ("f", 2))])
    d = graph_to_json(G)
    assert graph_from_json(d) == G
    assert canonical_bytes(d) == canonical_bytes(graph_to_json(G))


def test_graph_bytes_independent_of_input_order():
    a = Graph([3, 1, 2], [(3, 1), (1, 2)])
    b = Graph([1, 2, 3], [(2, 1), (1, 3)])
    assert canonical_bytes(graph_to_json(a)) == canonical_bytes(graph_to_json(b))


def test_wall_round_trip():
    W = elementary_wall(5)
    S = subdivide_wall(W, {list(W.graph.edges)[0]: 2})
    d = wall_to_json(S)
    S2 = wall_from_json(d)
    assert S2.height == S.height
    assert S2.graph == S.graph
    assert S2.branch_coords == S.branch_coords
    assert S2.seg_paths == S.seg_paths


def test_pair_round_trip_and_revalidation():
    G, F = generate_fixture(0, 3)
    d = pair_to_json(G, F)
    G2, F2 = pair_from_json(d)
    assert G2 == G
    assert F2.X == F.X and F2.Y == F.Y
    assert validate_flatness(G2, F2) == []
    assert canonical_bytes(pair_to_json(G2, F2)) == canonical_bytes(d)


def test_rendition_round_trip():
    G, F = generate_fixture(1, 3)
    d = rendition_to_json(F.rendition)
    R2 = rendition_from_json(d)
    assert R2.key() == F.rendition.key()


def test_decomposition_and_model_round_trip():
    td = TreeDecomposition({0: {1, 2}, "x": {2, 3}}, [(0, "x")])
    td2 = decomposition_from_json(decomposition_to_json(td))
    assert td2.bags == td.bags
    assert set(td2.tree_edges) == set(td.tree_edges)
    model = {"k0": frozenset([1, 2]), "k1": frozenset(["a"])}
    assert model_from_json(model_to_json(model)) == model


def test_read_back_loop_tree_edge_is_a_listed_problem():
    G = Graph(range(3), [(0, 1), (1, 2)])
    out = flat_wall_driver(G, 3, 2, ScriptedOracle([]))
    d = decomposition_to_json(out.decomposition)
    d["tree_edges"].append([0, 0])
    out.decomposition = decomposition_from_json(d)
    assert "tree edge 0,0 is a loop" in validate_driver_outcome(G, 3, 2, out)


# -- bundles ---------------------------------------------------------------


def test_bundle_write_read_equality(tmp_path):
    G, F = generate_fixture(2, 3)
    b = CertificateBundle("flatness-pair", pair_to_json(G, F),
                          params=Params().describe())
    path = tmp_path / "pair.json"
    write_bundle(path, b)
    got = read_bundle(path)
    assert got.kind == b.kind
    assert got.payload == b.payload
    assert got.params == b.params
    assert got.version == b.version
    write_bundle(tmp_path / "again.json", got)
    assert (tmp_path / "pair.json").read_bytes() == \
        (tmp_path / "again.json").read_bytes()


def test_read_bundle_parse_error(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"kind": "graph", "payload": {"vert')
    with pytest.raises(ParseError) as e:
        read_bundle(path)
    assert "line" in str(e.value.witness)


def test_read_bundle_wrong_kind_for_payload():
    payload = graph_to_json(Graph([1, 2], [(1, 2)]))
    with pytest.raises(SchemaError):
        parse_bundle({"kind": "wall", "payload": payload})
    with pytest.raises(SchemaError):
        parse_bundle({"kind": "nonsense", "payload": payload})
    with pytest.raises(SchemaError):
        parse_bundle({"payload": payload})


def test_read_bundle_from_stream():
    payload = graph_to_json(Graph([1], []))
    raw = canonical_bytes({"kind": "graph", "payload": payload,
                           "params": {}, "version": "0.1.0"})
    b = read_bundle(io.StringIO(raw.decode()))
    assert b.kind == "graph"


def test_error_exit_codes():
    assert InputError("x").exit_code == 1
    assert UsageError("x").exit_code == 2
    assert CapacityError("x").exit_code == 3
    assert InternalError("x").exit_code == 4


# -- CLI -------------------------------------------------------------------


runner = CliRunner()


def write_pair(tmp_path, seed, r, profile="base", name="pair.json"):
    G, F = generate_fixture(seed, r, profile)
    path = tmp_path / name
    write_bundle(path, CertificateBundle("flatness-pair", pair_to_json(G, F)))
    return path, G, F


def test_cli_validate_good_and_bad(tmp_path):
    path, G, F = write_pair(tmp_path, 0, 3)
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["ok"] is True

    d = pair_to_json(G, F)
    d["X"] = d["X"][1:]
    bad = tmp_path / "bad.json"
    write_bundle(bad, CertificateBundle("flatness-pair", d))
    res = runner.invoke(main, ["validate", str(bad)])
    assert res.exit_code == 1
    assert json.loads(res.output)["violations"]


def test_cli_parses_a_pair_bundle_once(tmp_path, monkeypatch):
    path, G, F = write_pair(tmp_path, 0, 3)
    calls = []
    parse = flatwall.serialize.graph_from_json

    def counting(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(flatwall.serialize, "graph_from_json", counting)
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 0, res.output
    # the graph, then one flap per cell
    assert len(calls) == 1 + len(F.rendition.sigma)


def test_readme_examples_use_defined_options():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [ln for ln in readme.read_text(encoding="utf-8").splitlines()
             if re.match(r"\s*flatwall\s", ln)]
    assert lines
    for line in lines:
        words = shlex.split(line, comments=True)
        command = main.commands.get(words[1])
        assert command is not None, line
        defined = {opt for param in command.params
                   for opt in param.opts + param.secondary_opts}
        for word in words[2:]:
            if word.startswith("-"):
                assert word.split("=")[0] in defined, line


def test_cli_validate_usage_errors(tmp_path):
    res = runner.invoke(main, ["frobnicate"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["validate", str(tmp_path / "missing.json")])
    assert res.exit_code == 2


def test_cli_tilt_verify_and_determinism(tmp_path):
    path, G, F = write_pair(tmp_path, 3, 5, "with-flaps")
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    for out in (out1, out2):
        res = runner.invoke(main, ["tilt", "--pair", str(path),
                                   "--subwall", "1,3,5x1,3,5",
                                   "--verify", "--output", str(out)])
        assert res.exit_code == 0, res.output
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "t1.json.provenance.json").exists()
    b = read_bundle(out1)
    G2, F2 = pair_from_json(b.payload)
    assert validate_flatness(G2, F2, lenient_pegs=True) == []
    assert F2.height == 3


def test_cli_tilt_bad_selection(tmp_path):
    path, _, _ = write_pair(tmp_path, 3, 5)
    res = runner.invoke(main, ["tilt", "--pair", str(path),
                               "--subwall", "bogus"])
    assert res.exit_code == 2


def test_cli_tilt_rejects_a_malformed_wall(tmp_path):
    G, F = generate_fixture(3, 5, "with-flaps")
    d = pair_to_json(G, F)
    branch = d["wall"]["branch"]
    # two branch vertices of the bottom row trade coordinates
    (i, a), (j, b) = [(k, e) for k, e in enumerate(branch)
                      if e[0] in ({"$t": [1, 1]}, {"$t": [2, 1]})]
    branch[i], branch[j] = [a[0], b[1]], [b[0], a[1]]
    path = tmp_path / "tampered.json"
    write_bundle(path, CertificateBundle("flatness-pair", d))
    res = runner.invoke(main, ["tilt", "--pair", str(path),
                               "--subwall", "1,3,5x1,3,5"])
    assert res.exit_code == 1
    err = json.loads(res.stderr)["error"]
    assert err["message"] == "subwall of a malformed wall"
    assert any("endpoints mismatch" in p for p in err["witness"])


def test_cli_regularize(tmp_path):
    path, G, F = write_pair(tmp_path, 5, 5, "with-untidy")
    out = tmp_path / "reg.json"
    res = runner.invoke(main, ["regularize", "--pair", str(path),
                               "--verify", "--output", str(out)])
    assert res.exit_code == 0, res.output
    G2, F2 = pair_from_json(read_bundle(out).payload)
    assert is_regular(F2)
    res = runner.invoke(main, ["validate", str(out), "--lenient-pegs"])
    assert res.exit_code == 0


def test_cli_tighten(tmp_path):
    G, F = generate_fixture(6, 3)
    Gu = F.rendition.union_graph()
    payload = {"graph": graph_to_json(Gu),
               "rendition": rendition_to_json(F.rendition)}
    path = tmp_path / "rend.json"
    write_bundle(path, CertificateBundle("rendition", payload))
    out = tmp_path / "tight.json"
    res = runner.invoke(main, ["tighten", str(path), "--verify",
                               "--output", str(out)])
    assert res.exit_code == 0, res.output
    assert read_bundle(out).kind == "rendition"


def test_cli_homogenize(tmp_path):
    path, G, F = write_pair(tmp_path, 7, 3)
    colors = {str(cid): 1 for cid in F.rendition.sigma}
    cpath = tmp_path / "colors.json"
    cpath.write_text(json.dumps(colors))
    out = tmp_path / "hom.json"
    res = runner.invoke(main, ["homogenize", "--pair", str(path),
                               "--colors", str(cpath),
                               "--target-height", "3",
                               "--verify", "--output", str(out)])
    assert res.exit_code == 0, res.output
    G2, F2 = pair_from_json(read_bundle(out).payload)
    assert F2.height == 3


@pytest.mark.parametrize("value", [2.7, "x", None, True])
def test_cli_homogenize_rejects_non_integer_colors(tmp_path, value):
    path, G, F = write_pair(tmp_path, 7, 3)
    colors = {str(cid): 1 for cid in F.rendition.sigma}
    colors[str(next(iter(F.rendition.sigma)))] = value
    cpath = tmp_path / "colors.json"
    cpath.write_text(json.dumps(colors))
    res = runner.invoke(main, ["homogenize", "--pair", str(path),
                               "--colors", str(cpath),
                               "--target-height", "3"])
    assert res.exit_code == 1, res.output
    assert json.loads(res.stderr)["error"]["code"] == "SchemaError"


def test_cli_leveling_with_representation(tmp_path):
    path, G, F = write_pair(tmp_path, 8, 5)
    out = tmp_path / "lev.json"
    res = runner.invoke(main, ["leveling", "--pair", str(path),
                               "--representation", "--output", str(out)])
    assert res.exit_code == 0, res.output
    b = read_bundle(out)
    assert b.kind == "leveling"
    assert "representation" in b.payload


def test_cli_leveling_representation_at_height_21(tmp_path):
    G, F = generate_fixture(0, 21, "with-flaps")
    F = regularize(G, F)
    path = tmp_path / "pair.json"
    write_bundle(path, CertificateBundle("flatness-pair", pair_to_json(G, F)))
    out = tmp_path / "lev.json"
    res = runner.invoke(main, ["leveling", "--pair", str(path),
                               "--representation", "--output", str(out)])
    assert res.exit_code == 0, res.output
    d = read_bundle(out).payload["representation"]
    rep = Representation(
        wall_from_json(d["wall"]), {dec(k): dec(v) for k, v in d["rho"]},
        {dec(k): tuple(dec(v) for v in p) for k, p in d["tau"]})
    check_representation(F, rep)


def test_cli_leveling_exhausted_search_exits_3(tmp_path, monkeypatch):
    path, G, F = write_pair(tmp_path, 8, 5)
    search = flatwall.leveling._search
    monkeypatch.setattr(flatwall.leveling, "_search",
                        lambda F, limit: search(F, 0))
    res = runner.invoke(main, ["leveling", "--pair", str(path),
                               "--representation"])
    assert res.exit_code == 3, res.output
    assert json.loads(res.stderr)["error"]["code"] == "CapacityError"


def test_cli_find_wall_decomposition(tmp_path):
    G = Graph(range(10), [(i, i + 1) for i in range(9)])
    gpath = tmp_path / "g.json"
    write_bundle(gpath, CertificateBundle("graph", graph_to_json(G)))
    out = tmp_path / "outcome.json"
    res = runner.invoke(main, ["find-wall", "--graph", str(gpath),
                               "-r", "3", "-t", "2", "--verify",
                               "--output", str(out)])
    assert res.exit_code == 0, res.output
    b = read_bundle(out)
    assert b.kind == "driver-outcome"
    assert b.payload["outcome"] == "tree-decomposition"


def test_cli_find_wall_validates_the_decomposition_once(tmp_path,
                                                        monkeypatch):
    G = Graph(range(10), [(i, i + 1) for i in range(9)])
    gpath = tmp_path / "g.json"
    write_bundle(gpath, CertificateBundle("graph", graph_to_json(G)))
    calls = []
    validate = TreeDecomposition.validate

    def counted(self, H):
        calls.append(H.n)
        return validate(self, H)

    monkeypatch.setattr(TreeDecomposition, "validate", counted)
    res = runner.invoke(main, ["find-wall", "--graph", str(gpath),
                               "-r", "3", "-t", "2", "--verify"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["payload"]["outcome"] == "tree-decomposition"
    assert calls == [10]


def test_cli_find_wall_does_not_import_networkx(tmp_path):
    G = Graph(range(10), [(i, i + 1) for i in range(9)])
    gpath = tmp_path / "g.json"
    write_bundle(gpath, CertificateBundle("graph", graph_to_json(G)))
    script = ("import sys\n"
              "from flatwall.cli import main\n"
              "try:\n"
              "    main(sys.argv[1:])\n"
              "finally:\n"
              "    print('networkx' in sys.modules, file=sys.stderr)\n")
    src = str(Path(flatwall.serialize.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", script, "find-wall",
                          "--graph", str(gpath), "-r", "3", "-t", "2"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["payload"]["outcome"] == "tree-decomposition"
    assert res.stderr.strip() == "False"


def test_cli_find_wall_minor_bare_graph(tmp_path):
    import itertools
    G = Graph(range(20), itertools.combinations(range(20), 2))
    gpath = tmp_path / "k20.json"
    gpath.write_bytes(canonical_bytes(graph_to_json(G)))
    res = runner.invoke(main, ["find-wall", "--graph", str(gpath),
                               "-r", "3", "-t", "2", "--verify"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["payload"]["outcome"] == "minor"


def test_cli_find_wall_bad_oracle_spec(tmp_path):
    G = Graph(range(3), [(0, 1)])
    gpath = tmp_path / "g.json"
    gpath.write_bytes(canonical_bytes(graph_to_json(G)))
    res = runner.invoke(main, ["find-wall", "--graph", str(gpath),
                               "-r", "3", "-t", "2", "--oracle", "bogus"])
    assert res.exit_code == 2


@pytest.mark.parametrize("mode, oracle", [
    ("scripted", {"answers": 5}),
    ("manual", {"kind": "flat", "rows": 5}),
    ("manual", {"kind": "flat", "apex": 7}),
    ("manual", {"kind": "flat", "rows": [1, "2", 3]}),
    ("scripted", {"answers": [{"kind": "flat", "cols": [1, 2.5, 3]}]}),
])
def test_bad_oracle_files_give_structured_errors(tmp_path, mode, oracle):
    gpath = tmp_path / "g.json"
    gpath.write_bytes(canonical_bytes(graph_to_json(Graph(range(3),
                                                          [(0, 1)]))))
    opath = tmp_path / "oracle.json"
    opath.write_text(json.dumps(oracle))
    res = runner.invoke(main, ["find-wall", "--graph", str(gpath), "-r", "3",
                               "-t", "2", "--oracle", f"{mode}:{opath}"])
    assert res.exit_code == 1, res.output
    assert json.loads(res.stderr)["error"]["code"] == "SchemaError"


@pytest.mark.parametrize("mode", ["manual", "scripted"])
def test_loaded_oracle_returns_its_answer(tmp_path, mode):
    G, F = generate_fixture(0, 5)
    answer = {"kind": "flat", "apex": [], "pair": pair_to_json(G, F),
              "rows": [1, 2, 3, 4, 5], "cols": [1, 2, 3, 4, 5]}
    opath = tmp_path / "oracle.json"
    opath.write_bytes(canonical_bytes(answer if mode == "manual"
                                      else {"answers": [answer]}))
    ans = load_oracle(f"{mode}:{opath}").consult(G, 5, 2, F.wall)
    assert (ans.kind, ans.apex, ans.subwall_rows, ans.subwall_cols) == (
        "flat", frozenset(), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
    assert (canonical_bytes(pair_to_json(G, ans.pair))
            == canonical_bytes(answer["pair"]))
    assert validate_flatness(G, ans.pair) == []


def test_params_file_and_env_override(tmp_path, monkeypatch):
    ppath = tmp_path / "params.json"
    ppath.write_text(json.dumps({
        "f_questionnaires": {"coeff": 2, "power": 1},
        "edge_density_coeff": 7,
    }))
    monkeypatch.setenv("FLATWALL_LIMIT_MINOR_MODEL", "5")
    p = load_params(str(ppath))
    assert p.f_questionnaires(3) == 6
    assert p.edge_density_coeff == 7
    assert p.limits.minor_model == 5


@pytest.mark.parametrize("params, where, unknown", [
    ({"f_hierachical": {"coeff": 9, "power": 3},
      "f_confrontation": {"coeff": 2, "power": 2}},
     "params", ["f_confrontation", "f_hierachical"]),
    ({"f_hierarchical": {"coeff": 2, "powr": 3}}, "f_hierarchical", ["powr"]),
])
def test_unknown_params_keys_are_named(tmp_path, params, where, unknown):
    ppath = tmp_path / "params.json"
    ppath.write_text(json.dumps(params))
    with pytest.raises(SchemaError, match=where) as err:
        load_params(str(ppath))
    assert err.value.witness["unknown"] == unknown


@pytest.mark.parametrize("params, env, code, error", [
    (5, None, 1, "SchemaError"),
    ({"edge_density_coeff": "x"}, None, 1, "SchemaError"),
    ({"f_hierarchical": {"coeff": "two", "power": 1}}, None, 1, "SchemaError"),
    ({}, "abc", 2, "UsageError"),
    ({"edge_density_coeff": 1.5}, None, 1, "SchemaError"),
    ({"f_questionnaires": {"coeff": 2.9, "power": 1}}, None, 1, "SchemaError"),
    ({"f_entstandenen": {"coeff": 1, "power": True}}, None, 1, "SchemaError"),
    ({"edge_density_coeff": 0}, None, 1, "SchemaError"),
    ({"edge_density_coeff": -3}, None, 1, "SchemaError"),
    ({"f_hierarchical": {"coeff": 4, "power": -1}}, None, 1, "SchemaError"),
    ({"f_hierachical": {"coeff": 9, "power": 3}}, None, 1, "SchemaError"),
    ({"f_hierarchical": {"coeff": 2, "powr": 3}}, None, 1, "SchemaError"),
    ({"f_confrontation": {"coeff": 2, "power": 2}}, None, 1, "SchemaError"),
])
def test_bad_params_give_structured_errors(tmp_path, monkeypatch, params,
                                           env, code, error):
    gpath = tmp_path / "g.json"
    gpath.write_bytes(canonical_bytes(graph_to_json(Graph(range(3),
                                                          [(0, 1)]))))
    ppath = tmp_path / "params.json"
    ppath.write_text(json.dumps(params))
    if env is not None:
        monkeypatch.setenv("FLATWALL_LIMIT_MINOR_MODEL", env)
    res = runner.invoke(main, ["find-wall", "--graph", str(gpath), "-r", "3",
                               "-t", "2", "--params", str(ppath)])
    assert res.exit_code == code, res.output
    assert not isinstance(res.exception, (TypeError, ValueError))
    assert json.loads(res.stderr)["error"]["code"] == error


def test_unknown_limit_variables_are_named(tmp_path, monkeypatch):
    # a retired or misspelt limit exits 2 instead of being ignored
    gpath = tmp_path / "g.json"
    gpath.write_bytes(canonical_bytes(graph_to_json(Graph(range(3),
                                                          [(0, 1)]))))
    monkeypatch.setenv("FLATWALL_LIMIT_TREEWIDTH", "20")
    res = runner.invoke(main, ["find-wall", "--graph", str(gpath), "-r", "3",
                               "-t", "2"])
    assert res.exit_code == 2, res.output
    error = json.loads(res.stderr)["error"]
    assert error["code"] == "UsageError"
    assert error["witness"] == {"FLATWALL_LIMIT_TREEWIDTH": "20",
                                "known": ["FLATWALL_LIMIT_MINOR_MODEL"]}
