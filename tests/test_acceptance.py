"""Acceptance suite: one test per criterion, run with -v for a line each.

Each test aggregates the full check for its criterion and fails atomically;
the suite is the contract the rest of the test files break down into parts.
"""
import itertools
import random
import time
from math import comb

from flatwall.config import unit_params
from flatwall.flatness import generate_fixture, is_regular, validate_flatness
from flatwall.graph import Graph, minor_model
from flatwall.homogeneity import (example_coloring, find_homogeneous, h,
                                  is_homogeneous, palette)
from flatwall.leveling import is_well_aligned, representation, w_bullet
from flatwall.pipeline import (OracleAnswer, ScriptedOracle,
                               ScriptedTreewidthDecider, flat_wall_driver,
                               validate_driver_outcome, z_bound)
from flatwall.rendition import check_tightness, tighten, validate_rendition
from flatwall.serialize import canonical_bytes, pair_from_json, pair_to_json
from flatwall.tilt import compute_tilt, regularize, validate_tilt
from oracles import (enumerate_subwalls, exact_treewidth,
                     has_minor_bruteforce, treewidth_by_elimination)
from test_pipeline import Z0
from test_rendition import random_chords, ring_rendition

DEFECTS = ["with-untidy", "with-untidy2", "with-marginal", "with-external",
           "combined"]


def _edge_multiset(R):
    out = []
    for cid in R.sigma:
        out.extend(R.sigma[cid].edges)
    return sorted(out, key=str)


def test_criterion_1_tightening_suite():
    start = time.monotonic()
    count = 0
    for height in (3, 5, 7):
        for seed in range(40):
            _, F = generate_fixture(seed, height)
            R = F.rendition
            G = R.union_graph()
            assert G.n <= 300
            T = tighten(G, R)
            assert validate_rendition(G, T) == []
            assert check_tightness(G, T).is_tight
            assert _edge_multiset(T) == _edge_multiset(R)
            assert tighten(G, T).key() == T.key()
            count += 1
    for seed in range(100):
        rng = random.Random(seed)
        G, R = ring_rendition(random_chords(rng))
        assert G.n <= 300
        T = tighten(G, R)
        assert check_tightness(G, T).is_tight
        assert _edge_multiset(T) == _edge_multiset(R)
        assert tighten(G, T).key() == T.key()
        count += 1
    assert count >= 200
    assert time.monotonic() - start < 60


def test_criterion_2_tilt_suite():
    start = time.monotonic()
    corpus = [(3, 0, "base"), (3, 1, "with-flaps"), (3, 2, "base"),
              (5, 0, "base"), (5, 1, "with-flaps"),
              (7, 0, "base"), (7, 1, "with-flaps"),
              (9, 0, "base")]
    total = 0
    for height, seed, profile in corpus:
        G, F = generate_fixture(seed, height, profile)
        for _rows, _cols, S in enumerate_subwalls(F.wall, 3):
            res = compute_tilt(G, F, S)
            assert validate_tilt(G, F, S, res) == []
            total += 1
    assert total > 1000
    assert time.monotonic() - start < 300


def test_criterion_3_regularize_planted_defects():
    for profile in DEFECTS:
        for seed in range(20):
            G, F = generate_fixture(seed, 5, profile)
            out = regularize(G, F)
            assert is_regular(out)
            assert out.wall.height == F.wall.height
            new, old = out.compass(), F.compass()
            assert new.vertex_set <= old.vertex_set
            assert new.edge_set <= old.edge_set
            assert validate_flatness(G, out, lenient_pegs=True) == []


def test_criterion_4_tilts_of_regular_are_regular():
    for seed, profile in ((0, "base"), (1, "with-flaps")):
        G, F = generate_fixture(seed, 7, profile)
        assert is_regular(F)
        for _rows, _cols, S in enumerate_subwalls(F.wall, 3):
            res = compute_tilt(G, F, S)
            assert is_regular(res.pair)


def test_criterion_5_homogeneity():
    assert h(3, 1) == 3
    assert h(3, 2) == 7
    assert h(5, 2) == 21
    assert h(5, 3) == 101
    _, F7 = generate_fixture(0, 7)
    assert sum(1 for _ in enumerate_subwalls(F7.wall, 3)) == 1225
    assert comb(7, 3) ** 2 == 1225
    for seed, profile in ((0, "base"), (1, "with-flaps"),
                          (2, "base"), (3, "with-flaps")):
        G, F = generate_fixture(seed, 7, profile)
        zeta = example_coloring(F, 2)
        res = find_homogeneous(G, F, zeta, 3)
        assert res is not None
        assert is_homogeneous(res.pair, zeta)
        pals = {palette(res.pair, zeta, b)
                for b in res.pair.wall.internal_bricks()}
        assert len(pals) <= 1


def test_criterion_6_leveling_representations():
    for seed in range(25):
        rng = random.Random(seed)
        profile = rng.choice(DEFECTS)
        G, F = generate_fixture(seed, 5, profile)
        out = regularize(G, F)
        rep = representation(out)
        assert rep.wall.validate() == []
        wb = w_bullet(out)
        for x in out.ground():
            if x in wb.vertex_set:
                assert rep.rho.get(x) == x
        edges = []
        for pth in rep.tau.values():
            edges.extend(zip(pth, pth[1:]))
        got = Graph((), edges)
        assert got.edge_set == wb.edge_set
        assert got.vertex_set == wb.vertex_set
    _, bad = generate_fixture(10, 5, "with-marginal")
    assert is_well_aligned(bad) is False


def _random_graph(rng, n, p):
    vs = list(range(n))
    es = [e for e in itertools.combinations(vs, 2) if rng.random() < p]
    return Graph(vs, es)


def test_criterion_7_pipeline():
    assert z_bound(3, 1, unit_params()) == 60

    rng = random.Random(20260823)
    for _ in range(500):
        n = rng.randint(1, 9)
        G = _random_graph(rng, n, rng.choice((0.15, 0.3, 0.5, 0.7, 0.9)))
        tw, td = exact_treewidth(G)
        assert tw == treewidth_by_elimination(G)
        assert td.validate(G) == []

    for _ in range(120):
        n = rng.randint(2, 7)
        G = _random_graph(rng, n, rng.choice((0.3, 0.5, 0.8)))
        k = rng.randint(2, 4)
        H = _random_graph(rng, k, 0.8)
        H = H.remove_vertices([v for v in H.vertices if H.degree(v) == 0])
        if H.n < 2:
            H = Graph(["a", "b"], [("a", "b")])
        model = minor_model(G, H)
        assert (model is not None) == has_minor_bruteforce(G, H)
        if model is not None:
            taken = set()
            for hv in H.vertices:
                vs = model[hv]
                assert vs and not (vs & taken)
                taken |= vs
                assert G.subgraph(vs).connected()
            for u, v in H.edges:
                assert any(G.has_edge(a, b)
                           for a in model[u] for b in model[v])

    UP = unit_params()
    G, F = generate_fixture(4, 33)
    rows = tuple(range(1, 34))
    ans = lambda: OracleAnswer("flat", pair=F, subwall_rows=rows,
                               subwall_cols=rows)
    out = flat_wall_driver(G, 3, 2, ScriptedOracle([ans()]), UP,
                           ScriptedTreewidthDecider(["high", "default"], UP))
    assert out.kind == "flat-wall"
    assert validate_driver_outcome(G, 3, 2, out, UP) == []
    # the recursion reaches a 24-vertex compass; only z = 0 lets it run
    out = flat_wall_driver(G, 3, 2, ScriptedOracle([ans()]), Z0,
                           ScriptedTreewidthDecider(["high", "high"], Z0))
    assert out.kind == "minor"
    assert validate_driver_outcome(G, 3, 2, out, Z0) == []
    K20 = Graph(range(20), itertools.combinations(range(20), 2))
    out = flat_wall_driver(K20, 3, 2, ScriptedOracle([]), UP)
    assert out.kind == "minor"
    assert validate_driver_outcome(K20, 3, 2, out, UP) == []
    P10 = Graph(range(10), [(i, i + 1) for i in range(9)])
    out = flat_wall_driver(P10, 3, 2, ScriptedOracle([]), UP)
    assert out.kind == "tree-decomposition"
    assert validate_driver_outcome(P10, 3, 2, out, UP) == []


def test_criterion_8_serialization():
    profiles = ["base", "with-flaps"] + DEFECTS
    for height in (3, 5):
        for profile in profiles:
            for seed in range(3):
                G, F = generate_fixture(seed, height, profile)
                d = pair_to_json(G, F)
                G2, F2 = pair_from_json(d)
                assert G2 == G
                assert F2.wall.graph == F.wall.graph
                assert F2.X == F.X and F2.Y == F.Y
                assert F2.rendition.key() == F.rendition.key()
                first = canonical_bytes(d)
                G3, F3 = generate_fixture(seed, height, profile)
                second = canonical_bytes(pair_to_json(G3, F3))
                assert first == second
