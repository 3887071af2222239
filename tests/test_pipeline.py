import itertools
import random
import sys
from collections import Counter

import pytest

import flatwall.flatness
import flatwall.leveling
import flatwall.pipeline
import flatwall.tilt
from flatwall.config import Params, unit_params
from flatwall.errors import CapacityError, InputError, InternalError
from flatwall.flatness import (PROFILES, FlatnessPair, generate_fixture,
                               is_regular)
from flatwall.graph import Graph, TreeDecomposition
from flatwall.pipeline import (DefaultTreewidthDecider, OracleAnswer,
                               ScriptedOracle, ScriptedTreewidthDecider,
                               _check_oracle_answer, _prune_leaves,
                               find_low_tw_compass, find_wall,
                               flat_wall_driver, validate_driver_outcome,
                               validate_minor_model, z_bound)
from flatwall.wall import (_interior_sets, elementary_wall, is_tilt,
                           recognize_wall, subdivide_wall, subwall)

UP = unit_params()
# z = 0: f4 = 0 lets the compass search recurse into desk-size graphs
Z0 = Params(f_questionnaires=lambda t: 1, f_hierarchical=lambda t: 1,
            f_entstandenen=lambda t: 0)


def path_graph(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return Graph(range(n), itertools.combinations(range(n), 2))


# -- bounds ----------------------------------------------------------------


def test_z_bound_unit_parameters():
    assert z_bound(3, 1, UP) == 60


def test_z_bound_grows_linearly_in_r():
    a = z_bound(3, 2, UP)
    b = z_bound(4, 2, UP)
    c = z_bound(5, 2, UP)
    assert b - a == c - b > 0


def test_z_bound_rejects_bad_arguments():
    with pytest.raises(InputError):
        z_bound(2, 1, UP)
    with pytest.raises(InputError):
        z_bound(3, 0, UP)


# -- finding walls ---------------------------------------------------------


def test_find_wall_returns_elementary_wall():
    W = elementary_wall(3)
    res = find_wall(W.graph, 3, 5, UP)
    assert res.kind == "wall"
    assert res.wall.validate() == []
    assert res.wall.graph.edge_set <= W.graph.edge_set


def test_find_wall_on_subdivided_wall_with_pendants():
    W = elementary_wall(5)
    edges = list(W.graph.edges)[:6]
    S = subdivide_wall(W, {e: 1 + (i % 3) for i, e in enumerate(edges)})
    G = S.graph.add_edges([("p0", S.graph.vertices[0]), ("p1", "p0")])
    res = find_wall(G, 5, 3, UP)
    assert res.kind == "wall"
    assert res.wall.validate() == []
    assert res.wall.graph.edge_set <= S.graph.edge_set


def test_find_wall_k6_reports_k5_minor():
    res = find_wall(complete_graph(6), 3, 5, UP)
    assert res.kind == "minor"
    assert validate_minor_model(complete_graph(6), res.model, 5) == []


def test_find_wall_tree_raises_capacity_error():
    # find_wall answers only with a wall or a minor
    with pytest.raises(CapacityError) as info:
        find_wall(path_graph(6), 3, 3)
    assert info.value.witness == [
        "wall search limited to pruned subdivisions at this size",
        "exact minor check negative"]


def test_find_wall_with_a_chord_reports_a_minor():
    # a chord makes the pruned core more than a subdivided wall, so no wall
    # is recognised and the minor tier answers
    W = elementary_wall(3)
    deg2 = [v for v in W.graph.vertices if W.graph.degree(v) == 2]
    G = W.graph.add_edges([(deg2[0], deg2[-1])])
    res = find_wall(G, 3, 4, UP)
    assert res.kind == "minor"
    assert validate_minor_model(G, res.model, 4) == []
    assert ("wall search limited to pruned subdivisions at this size"
            in res.notes)


def test_find_wall_names_the_least_wall_edge_outside_the_graph(monkeypatch):
    # a recognised wall with two edges that G lacks is reported by the
    # least of them in edge order
    W = elementary_wall(3)
    edges = W.graph.edges
    G = W.graph.remove_edges([edges[5], edges[2]])
    monkeypatch.setattr(flatwall.pipeline, "recognize_wall",
                        lambda G, r: W)
    with pytest.raises(InternalError, match="found wall leaves the graph") \
            as info:
        find_wall(G, 3, 4, UP)
    assert info.value.witness == ["1,2", "2,2"] == list(edges[2])


def test_find_wall_capacity_error_on_large_cycle():
    G = Graph(range(100), [(i, (i + 1) % 100) for i in range(100)])
    with pytest.raises(CapacityError):
        find_wall(G, 3, 3, UP)


@pytest.mark.parametrize("s", [2, 3])
def test_find_wall_recognises_renamed_fixture(s):
    G, _F = generate_fixture(2, 33)
    old = list(G.vertices)
    new = list(old)
    random.Random(s).shuffle(new)
    name = dict(zip(old, new))
    G2 = Graph(new, [(name[u], name[v]) for u, v in G.edges])
    res = find_wall(G2, 33, 3, UP)
    assert res.kind == "wall"
    assert res.wall.validate() == []
    assert res.wall.graph.edge_set <= G2.edge_set


def test_find_wall_leaves_the_recursion_limit_alone():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        G, _F = generate_fixture(0, 33)
        assert find_wall(G, 33, 3, UP).kind == "wall"
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)


def test_find_wall_small_clique_shortcuts():
    G = path_graph(3)
    assert find_wall(G, 3, 1, UP).kind == "minor"
    res = find_wall(G, 3, 2, UP)
    assert res.kind == "minor"
    assert validate_minor_model(G, res.model, 2) == []


# -- treewidth deciders ----------------------------------------------------


def test_default_decider_exact_tiers():
    d = DefaultTreewidthDecider(UP)
    verdict, td = d.decide(path_graph(10), 60)
    assert verdict == "decomposition"
    assert td.validate(path_graph(10)) == []
    with pytest.raises(CapacityError):
        d.decide(complete_graph(10), 0)


def test_default_decider_heuristic_tier():
    d = DefaultTreewidthDecider(UP)
    G = Graph(range(30), [(i, (i + 1) % 30) for i in range(30)])
    verdict, td = d.decide(G, 0)
    assert verdict == "decomposition"
    assert td.validate(G) == []
    assert td.width <= 4
    with pytest.raises(CapacityError):
        d.decide(complete_graph(25), 0)


def test_scripted_decider_replay_and_exhaustion():
    d = ScriptedTreewidthDecider(["high", "default"], UP)
    verdict, _ = d.decide(path_graph(5), 60)
    assert verdict == "high"
    verdict, td = d.decide(path_graph(5), 60)
    assert verdict == "decomposition"
    with pytest.raises(InternalError):
        d.decide(path_graph(5), 60)


def test_scripted_decider_validates_decompositions():
    good = TreeDecomposition({0: {0, 1}, 1: {1, 2}}, [(0, 1)])
    d = ScriptedTreewidthDecider([good], UP)
    verdict, td = d.decide(path_graph(3), 60)
    assert verdict == "decomposition" and td is good
    bad = TreeDecomposition({0: {0}}, [])
    d = ScriptedTreewidthDecider([bad], UP)
    with pytest.raises(InternalError):
        flat_wall_driver(path_graph(3), 3, 2, ScriptedOracle([]), UP, d)
    d = ScriptedTreewidthDecider(["nonsense"], UP)
    with pytest.raises(InputError):
        d.decide(path_graph(3), 60)


# -- oracle answer validation ----------------------------------------------


@pytest.fixture(scope="module")
def small_pair():
    return generate_fixture(0, 3)


def test_oracle_valid_flat_answer(small_pair):
    G, F = small_pair
    ans = OracleAnswer("flat", pair=F, subwall_rows=(1, 2, 3),
                       subwall_cols=(1, 2, 3))
    GA = _check_oracle_answer(G, 3, 2, F.wall, ans, UP)
    assert GA is G


def test_oracle_answer_violations(small_pair):
    G, F = small_pair
    rows = (1, 2, 3)
    ok = dict(pair=F, subwall_rows=rows, subwall_cols=rows)
    with pytest.raises(InternalError):
        _check_oracle_answer(G, 5, 2, F.wall,
                             OracleAnswer("flat", **ok), UP)
    big_apex = frozenset(list(G.vertex_set)[:2])
    with pytest.raises(InternalError):
        _check_oracle_answer(G, 3, 2, F.wall,
                             OracleAnswer("flat", apex=big_apex, **ok), UP)
    with pytest.raises(InternalError):
        _check_oracle_answer(G, 3, 2, F.wall,
                             OracleAnswer("flat", pair=F), UP)
    with pytest.raises(InternalError):
        _check_oracle_answer(G, 3, 2, F.wall, OracleAnswer("weird"), UP)
    with pytest.raises(InternalError):
        _check_oracle_answer(G, 3, 2, F.wall, OracleAnswer("minor"), UP)
    v = G.vertices[0]
    bad_model = {"a": {v}, "b": {v}}
    with pytest.raises(InternalError):
        _check_oracle_answer(G, 3, 2, F.wall,
                             OracleAnswer("minor", model=bad_model), UP)


def test_full_selection_answer_that_is_no_tilt_is_rejected(small_pair):
    # every row and column of a wall that the pair's wall is no tilt of
    G, F = small_pair
    rows = (1, 2, 3)
    base = elementary_wall(3)
    inner = next(e for e in base.graph.edges
                 if e not in base.perimeter_edges)
    W = subdivide_wall(base, {inner: 1})
    assert not is_tilt(subwall(W, rows, rows), F.wall)
    ans = OracleAnswer("flat", pair=F, subwall_rows=rows, subwall_cols=rows)
    with pytest.raises(InternalError,
                       match="oracle pair is not a tilt of the named subwall"):
        _check_oracle_answer(G, 3, 2, W, ans, UP)


@pytest.mark.parametrize("height", [5, 9, 21])
def test_whole_subwall_has_the_interior_of_the_wall(height):
    # what `_check_oracle_answer` relies on to compare W itself when the
    # oracle names every row and column: the subwall may place W's degree-2
    # vertices elsewhere, but it has W's graph, perimeter and interior
    everything = range(1, height + 1)
    for profile in PROFILES:
        G, F = generate_fixture(0, height, profile)
        found = [recognize_wall(F.wall.graph, height),
                 recognize_wall(_prune_leaves(G), height)]
        for W in [F.wall] + [W for W in found if W is not None]:
            S = subwall(W, everything, everything)
            assert S.graph == W.graph
            assert S.perimeter_set == W.perimeter_set
            assert S.perimeter_edges == W.perimeter_edges
            assert _interior_sets(S) == _interior_sets(W)


# -- driver shortcuts and easy outcomes ------------------------------------


def test_driver_density_shortcut_verified():
    out = flat_wall_driver(complete_graph(20), 3, 2, ScriptedOracle([]), UP)
    assert out.kind == "minor"
    assert validate_minor_model(complete_graph(20), out.model, 2) == []
    assert any("verified" in n for n in out.notes)


def test_driver_checks_the_shortcut_minor(monkeypatch):
    monkeypatch.setattr("flatwall.pipeline._small_clique_minor",
                        lambda G, t, p: {"k0": {0}, "k1": {0}})
    with pytest.raises(InternalError):
        flat_wall_driver(complete_graph(20), 3, 2, ScriptedOracle([]), UP)


def test_driver_density_shortcut_unverifiable():
    out = flat_wall_driver(complete_graph(30), 3, 3, ScriptedOracle([]), UP)
    assert out.kind == "minor"
    assert out.model is None
    assert any("not desk-verifiable" in n for n in out.notes)


def test_driver_low_treewidth_outcome():
    G = path_graph(10)
    out = flat_wall_driver(G, 3, 2, ScriptedOracle([]), UP)
    assert out.kind == "tree-decomposition"
    assert validate_driver_outcome(G, 3, 2, out, UP) == []


def test_compass_search_preconditions():
    G = path_graph(10)
    with pytest.raises(InputError):
        find_low_tw_compass(G, 3, 2, frozenset(), ScriptedOracle([]), UP)
    with pytest.raises(InputError):
        find_low_tw_compass(G, 3, 2, {0, 1, 2}, ScriptedOracle([]), UP)
    with pytest.raises(InputError):
        find_low_tw_compass(G, 3, 2, {"missing"}, ScriptedOracle([]), UP)


@pytest.mark.parametrize("w", [6, 10], ids=["3x6", "3x10"])
def test_compass_precondition_needs_no_exact_treewidth(w):
    # treewidth <= n - 1 <= z = 60 settles it at any size
    G = Graph((), [((x, y), (x + dx, y + dy)) for x in range(3)
                   for y in range(w) for dx, dy in ((1, 0), (0, 1))
                   if x + dx < 3 and y + dy < w])
    with pytest.raises(InputError) as info:
        flat_wall_driver(G, 3, 3, ScriptedOracle([]), UP,
                         ScriptedTreewidthDecider(["high"], UP))
    assert info.value.witness == [3 * w - 1, 60]


# -- the scripted end-to-end run -------------------------------------------


@pytest.fixture(scope="module")
def big():
    G, F = generate_fixture(4, 33)
    return G, F


def flat_answer(F):
    rows = tuple(range(1, 34))
    return OracleAnswer("flat", pair=F, subwall_rows=rows, subwall_cols=rows)


def test_driver_flat_outcome(big):
    G, F = big
    oracle = ScriptedOracle([flat_answer(F)])
    decider = ScriptedTreewidthDecider(["high", "default"], UP)
    out = flat_wall_driver(G, 3, 2, oracle, UP, decider)
    assert out.kind == "flat-wall"
    assert out.apex == frozenset()
    assert out.pair.height == 3
    assert is_regular(out.pair)
    assert validate_driver_outcome(G, 3, 2, out, UP) == []
    joined = " ".join(out.notes)
    assert "avoiding subwall block (0,0)" in joined
    assert "height drop 2 verified" in joined
    assert len(out.trace) == 1
    assert oracle.calls == [(G.n, 33)]


def test_driver_with_nothing_to_avoid_takes_no_influence(big, monkeypatch):
    # with L empty, block (0, 0) avoids it without its influence
    G, F = big
    calls = []
    influence_union = flatwall.pipeline.influence_union

    def counted(*args):
        calls.append(args)
        return influence_union(*args)

    monkeypatch.setattr(flatwall.pipeline, "influence_union", counted)
    out = flat_wall_driver(G, 3, 2, ScriptedOracle([flat_answer(F)]), UP,
                           ScriptedTreewidthDecider(["high", "default"], UP))
    assert out.kind == "flat-wall"
    assert "avoiding subwall block (0,0)" in " ".join(out.notes)
    assert calls == []


def test_driver_scans_the_oracle_pair_only_in_its_cold_check(big,
                                                             monkeypatch):
    # no regularity check of the oracle's pair, and no cell of any pair is
    # tested for tidiness twice; the oracle's pair only where classified
    G, F = big
    F = FlatnessPair(F.wall, F.X, F.Y, F.pegs_corners, F.rendition)
    checked, tested = [], []
    for mod in (flatwall.tilt, flatwall.pipeline, flatwall.leveling):
        def counted(pair, is_regular=mod.is_regular):
            checked.append(pair)
            return is_regular(pair)
        monkeypatch.setattr(mod, "is_regular", counted)
    untidy_vertices = flatwall.flatness.untidy_vertices

    def tested_once(pair, cid):
        tested.append((pair, cid))
        return untidy_vertices(pair, cid)

    monkeypatch.setattr(flatwall.flatness, "untidy_vertices", tested_once)
    out = flat_wall_driver(G, 3, 2, ScriptedOracle([flat_answer(F)]), UP,
                           ScriptedTreewidthDecider(["high", "default"], UP))
    assert out.kind == "flat-wall"
    assert checked and not any(pair is F for pair in checked)
    assert max(Counter((id(pair), cid)
                       for pair, cid in tested).values()) == 1
    classified = set().union(*(classes for key, classes in F._memo.items()
                               if key[0] == "classes"))
    on_f = {cid for pair, cid in tested if pair is F}
    assert on_f and on_f <= classified < set(F.rendition.sigma)


def test_driver_outcome_is_validated_against_the_callers_graph(big):
    G, F = big
    out = flat_wall_driver(G, 3, 2, ScriptedOracle([flat_answer(F)]), UP,
                           ScriptedTreewidthDecider(["high", "default"], UP))
    x = min(out.pair.X - out.pair.Y, key=str)
    y = min(out.pair.Y - out.pair.X, key=str)
    G2 = G.add_edges([(x, y)])
    bad = validate_driver_outcome(G2, 3, 2, out, UP)
    assert "outcome graph is not G minus the apex set" in bad
    assert "(X, Y) is not a separation of G" in bad
    out.graph = None
    assert "(X, Y) is not a separation of G" in validate_driver_outcome(
        G2, 3, 2, out, UP)


def test_compass_search_avoids_the_given_vertices(big):
    G, F = big
    b00 = subwall(F.wall, range(1, 12), range(1, 12))
    b01 = subwall(F.wall, range(1, 12), range(12, 23))
    row0 = b00.horizontal_path(6)
    row1 = b01.horizontal_path(6)
    L = {row0[len(row0) // 2], row1[len(row1) // 2]}
    oracle = ScriptedOracle([flat_answer(F)])
    decider = ScriptedTreewidthDecider(["default"], UP)
    res = find_low_tw_compass(G, 3, 2, L, oracle, UP, decider)
    assert res.kind == "flat"
    joined = " ".join(res.notes)
    assert "avoiding subwall block (0,2)" in joined
    assert not (L & res.pair.compass().vertex_set)


def test_driver_recursion_lifts_a_minor(big):
    G, F = big
    oracle = ScriptedOracle([flat_answer(F)])
    decider = ScriptedTreewidthDecider(["high", "high"], Z0)
    out = flat_wall_driver(G, 3, 2, oracle, Z0, decider)
    assert out.kind == "minor"
    assert validate_minor_model(G, out.model, 2) == []
    assert len(out.trace) == 2
    assert any(str(v).startswith("vstar") for v in out.trace[1]["L"])


def test_recursion_into_a_small_compass_breaks_the_precondition(big):
    # the contracted compass has 24 vertices, so treewidth <= 23 <= z = 60
    # refutes the scripted "high" verdict one level down
    G, F = big
    oracle = ScriptedOracle([flat_answer(F)])
    decider = ScriptedTreewidthDecider(["high", "high"], UP)
    with pytest.raises(InputError, match="within the compass budget") \
            as info:
        flat_wall_driver(G, 3, 2, oracle, UP, decider)
    assert info.value.witness == [23, 60]
