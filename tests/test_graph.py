import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwall.errors import CapacityError, InputError, NoPathError
from flatwall.graph import (Graph, TreeDecomposition, biconnected,
                            is_separation,
                            max_vertex_disjoint_paths, min_fill_decomposition,
                            min_vertex_cut, minor_model, norm_edge, vkey)

import oracles
from oracles import articulation_points_by_search, exact_treewidth


def k(n):
    return Graph(range(n), itertools.combinations(range(n), 2))


def grid(w, h):
    edges = []
    for x in range(w):
        for y in range(h):
            if x + 1 < w:
                edges.append(((x, y), (x + 1, y)))
            if y + 1 < h:
                edges.append(((x, y), (x, y + 1)))
    return Graph((), edges)


def random_graph(rng, n, p):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(range(n), edges)


def test_basic_invariants():
    G = Graph(["a"], [("b", "c"), ("a", "b")])
    assert G.vertices == ("a", "b", "c")
    assert G.edges == (("a", "b"), ("b", "c"))
    assert G.has_edge("c", "b")
    assert G.degree("b") == 2
    with pytest.raises(InputError):
        Graph((), [("a", "a")])


def _general_vkey(v):
    # the id order spelt out: ints by value, then everything else by str
    if isinstance(v, bool):
        raise InputError("boolean vertex id")
    return (0, v, "") if isinstance(v, int) else (1, 0, str(v))


def _same_graph(got, vs, es):
    want = Graph(vs, es)
    assert got == want and hash(got) == hash(want)
    assert got.vertices == want.vertices and got.edges == want.edges
    for v in want.vertices:
        assert got.neighbors(v) == want.neighbors(v)


_IDS = st.one_of(st.integers(-3, 12), st.text("ab1", max_size=2))


@settings(max_examples=150, deadline=None)
@given(st.lists(_IDS, min_size=1, max_size=12, unique=True), st.data())
def test_derived_graphs_equal_fresh_builds(ids, data):
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    es = [e for e in data.draw(st.lists(pair, max_size=30)) if e[0] != e[1]]
    G = Graph(ids, es)
    for u, v in itertools.product(ids, ids):
        want = sorted((u, v), key=_general_vkey)
        assert vkey(u) == _general_vkey(u)
        if u != v:
            assert norm_edge(u, v) == tuple(want)
    keep = data.draw(st.sets(st.sampled_from(ids)))
    _same_graph(G.subgraph(keep), keep,
                [e for e in G.edge_set if set(e) <= keep])
    _same_graph(G.remove_vertices(keep), G.vertex_set - keep,
                [e for e in G.edge_set if not set(e) & keep])
    drop = data.draw(st.lists(pair, max_size=10))
    drop = [e for e in drop if e[0] != e[1]]
    gone = {frozenset(e) for e in drop}
    _same_graph(G.remove_edges(drop), G.vertex_set,
                [e for e in G.edge_set if frozenset(e) not in gone])
    es2 = [e for e in data.draw(st.lists(pair, max_size=20)) if e[0] != e[1]]
    H = Graph(data.draw(st.sets(st.sampled_from(ids))), es2)
    _same_graph(G.union(H), G.vertex_set | H.vertex_set,
                G.edge_set | H.edge_set)


def _component_count(vs, es) -> int:
    parent = {v: v for v in vs}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in es:
        parent[root(u)] = root(v)
    return len({root(v) for v in vs})


@settings(max_examples=150, deadline=None)
@given(st.lists(_IDS, max_size=12, unique=True), st.data())
def test_cut_vertices_and_connectivity_match_brute_force(ids, data):
    # ints, strs and both mixed; sparse draws leave isolated vertices and
    # several components
    es = []
    if ids:
        pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
        es = [e for e in data.draw(st.lists(pair, max_size=20))
              if e[0] != e[1]]
    G = Graph(ids, es)
    count = _component_count(G.vertex_set, G.edge_set)
    assert G.connected() == (count <= 1)
    cuts = {v for v in G.vertex_set
            if _component_count(G.vertex_set - {v},
                                [e for e in G.edge_set if v not in e])
            > count - (G.degree(v) == 0)}
    assert articulation_points_by_search(G) == cuts
    assert biconnected(G) == (G.n >= 3 and count == 1 and not cuts)


def test_bools_and_loops_are_rejected():
    for bad in ((True, 1), (0, False), (True, "a")):
        with pytest.raises(InputError):
            norm_edge(*bad)
        with pytest.raises(InputError):
            Graph((), [bad])
    with pytest.raises(InputError):
        vkey(True)
    for loop in ((3, 3), ("a", "a")):
        with pytest.raises(InputError):
            norm_edge(*loop)
        with pytest.raises(InputError):
            Graph((), [loop])
    G = Graph((), [(1, 2)])
    with pytest.raises(InputError):
        G.remove_edges([(1, 1)])


def test_is_separation_examples():
    G = Graph((), [("a", "b")])
    assert is_separation(G, {"a", "b"}, {"b"})
    P = Graph((), [("a", "b"), ("b", "c")])
    assert not is_separation(P, {"a"}, {"b", "c"})
    assert is_separation(P, {"a", "b"}, {"b", "c"})


def test_is_separation_sees_a_crossing_edge_from_either_side():
    P = Graph((), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    # L - R is the smaller difference, and b-c leaves it
    assert not is_separation(P, {"a", "b"}, {"c", "d", "e"})
    assert is_separation(P, {"a", "b"}, {"b", "c", "d", "e"})
    # R - L is the smaller difference, and c-d leaves it
    assert not is_separation(P, {"a", "b", "c"}, {"d", "e"})
    assert is_separation(P, {"a", "b", "c", "d"}, {"d", "e"})
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 8)
        G = Graph(range(n), [e for e in itertools.combinations(range(n), 2)
                             if rng.random() < 0.4])
        L = {v for v in range(n) if rng.random() < 0.6}
        R = {v for v in range(n) if v not in L or rng.random() < 0.3}
        want = not any({u, v} & (L - R) and {u, v} & (R - L)
                       for u, v in G.edges)
        assert is_separation(G, L, R) == want


def test_shortest_path_examples():
    P = Graph((), [("a", "b"), ("b", "c")])
    assert P.shortest_path("a", "c") == ("a", "b", "c")
    C4 = Graph((), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert C4.shortest_path("a", "c") == ("a", "b", "c")  # tie-break to b
    assert P.shortest_path("b", "b") == ("b",)
    with pytest.raises(NoPathError):
        Graph(["x", "y"]).shortest_path("x", "y")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 999))
def test_shortest_path_matches_bfs_oracle(seed):
    rng = random.Random(seed)
    G = random_graph(rng, rng.randint(2, 50), rng.uniform(0.05, 0.3))
    xs = list(G.vertices)
    x, y = rng.choice(xs), rng.choice(xs)
    want = oracles.bfs_distance(G, x, y)
    if want is None:
        with pytest.raises(NoPathError):
            G.shortest_path(x, y)
    else:
        path = G.shortest_path(x, y)
        assert len(path) - 1 == want
        for a, b in zip(path, path[1:]):
            assert G.has_edge(a, b)


def test_treewidth_small_exact():
    assert exact_treewidth(k(4))[0] == 3
    w, dec = exact_treewidth(grid(3, 3))
    assert w == 3
    assert dec.validate(grid(3, 3)) == []
    tree = Graph((), [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert exact_treewidth(tree)[0] == 1
    with pytest.raises(CapacityError):
        exact_treewidth(k(25), limit=20)


@pytest.mark.parametrize("bags, tree_edges, problems", [
    ({0: {0, 1}, 1: {1, 2}}, [(0, 0)],
     ["tree edge 0,0 is a loop", "tree is disconnected",
      "bags of 1 not connected in the tree"]),
    ({0: {0, 1}, 1: {1, 2}}, [(0, 1), (1, 7)],
     ["tree edge 1,7 off the node set", "tree has a cycle"]),
    ({0: {0, 1}, 1: {1}}, [(0, 1)],
     ["bags do not cover the vertex set", "edge 1,2 in no bag"]),
    ({0: {0, 1}, 1: {2}}, [(0, 1)], ["edge 1,2 in no bag"]),
    ({0: {0, 1}, 1: {1, 2}, 2: {0}}, [(0, 1), (1, 2)],
     ["bags of 0 not connected in the tree"]),
    ({0: {0, 1}, 1: {1, 2}, 2: {1, 2}}, [(0, 1), (1, 2), (2, 0)],
     ["tree has a cycle"]),
])
def test_decomposition_problems_are_reported(bags, tree_edges, problems):
    G = Graph(range(3), [(0, 1), (1, 2)])
    assert TreeDecomposition(bags, tree_edges).validate(G) == problems


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 999))
def test_treewidth_matches_elimination_oracle(seed):
    rng = random.Random(seed)
    G = random_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.8))
    w, dec = exact_treewidth(G)
    assert w == oracles.treewidth_by_elimination(G)
    assert dec.validate(G) == []
    assert dec.width == w


def _assert_min_fill_matches_networkx(G):
    td = min_fill_decomposition(G)
    bags, edges = oracles.min_fill_reference(G)
    assert td.bags == bags
    assert set(td.tree_edges) == edges
    assert td.validate(G) == []


def _relabelled(rng, n, edges):
    # ints and strings mixed, so the tie order by vkey differs from 0..n-1
    ids = [rng.choice([i, f"v{i}"]) for i in range(n)]
    return Graph(ids, [(ids[a], ids[b]) for a, b in edges])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_min_fill_matches_networkx(seed):
    rng = random.Random(seed)
    n, p = rng.randint(0, 40), rng.random()
    _assert_min_fill_matches_networkx(_relabelled(
        rng, n, [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < p]))


def test_min_fill_matches_networkx_on_fixture():
    from flatwall.flatness import PROFILES, generate_fixture
    cases = [(7, "base")] + [(h, p) for h in (9, 11) for p in PROFILES]
    for height, profile in cases:
        G, _F = generate_fixture(0, height, profile)
        _assert_min_fill_matches_networkx(G)


def _tie_heavy_graph(rng, family):
    """A graph of at most 40 vertices from a family with many tied keys,
    or whose remainder becomes a clique after a few eliminations."""
    if family == "cycle":
        n = rng.randint(3, 40)
        return _relabelled(rng, n, [(i, (i + 1) % n) for i in range(n)])
    if family == "grid":
        w = rng.randint(1, 8)
        h = rng.randint(1, 40 // w)
        return _relabelled(rng, w * h, [
            (x * h + y, x2 * h + y2) for x in range(w) for y in range(h)
            for x2, y2 in ((x + 1, y), (x, y + 1)) if x2 < w and y2 < h])
    if family == "copies":
        n0, k = rng.randint(1, 8), rng.randint(2, 5)
        base = [e for e in itertools.combinations(range(n0), 2)
                if rng.random() < 0.5]
        return _relabelled(rng, n0 * k, [(c * n0 + a, c * n0 + b)
                                         for c in range(k) for a, b in base])
    if family == "isolated":
        n, extra = rng.randint(0, 30), rng.randint(1, 10)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.3]
        return _relabelled(rng, n + extra, edges)
    # "clique-early": a clique with a tree hung off it, some tree vertices
    # also joined to the clique
    k, tail = rng.randint(1, 25), rng.randint(0, 15)
    edges = list(itertools.combinations(range(k), 2))
    for t in range(k, k + tail):
        edges.append((t, rng.randrange(t)))
        if rng.random() < 0.3:
            edges.append((t, rng.randrange(k)))
    return _relabelled(rng, k + tail, edges)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["cycle", "grid", "copies", "isolated", "clique-early"]),
       st.integers(0, 10 ** 6))
def test_min_fill_matches_networkx_on_ties(family, seed):
    _assert_min_fill_matches_networkx(
        _tie_heavy_graph(random.Random(seed), family))


def test_minor_model_examples():
    model = minor_model(k(4), k(4))
    assert model is not None and all(len(b) == 1 for b in model.values())
    assert minor_model(grid(3, 3), k(4)) is not None
    tree = Graph((), [(0, 1), (1, 2), (1, 3)])
    assert minor_model(tree, k(3)) is None
    with pytest.raises(CapacityError):
        minor_model(k(30), k(3), limit=24)


def test_minor_model_validates():
    G = grid(3, 3)
    model = minor_model(G, k(4))
    seen = set()
    for hv, branch in model.items():
        assert G.subgraph(branch).connected()
        assert not (branch & seen)
        seen |= branch
    for u, v in k(4).edges:
        assert any(G.has_edge(a, b) for a in model[u] for b in model[v])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 999))
def test_minor_model_matches_bruteforce_oracle(seed):
    rng = random.Random(seed)
    G = random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.9))
    H = k(rng.randint(2, 4))
    got = minor_model(G, H)
    want = oracles.has_minor_bruteforce(G, H)
    assert (got is not None) == want


def test_disjoint_paths_menger():
    G = grid(4, 4)
    A = [(0, y) for y in range(4)]
    B = [(3, y) for y in range(4)]
    paths = max_vertex_disjoint_paths(G, A, B)
    assert len(paths) == 4
    used = set()
    for p in paths:
        assert p[0] in set(A) and p[-1] in set(B)
        for a, b in zip(p, p[1:]):
            assert G.has_edge(a, b)
        assert not (set(p) & used)
        used |= set(p)


def test_disjoint_paths_bottleneck():
    # two sides joined through a single cut vertex
    G = Graph((), [("a1", "c"), ("a2", "c"), ("c", "b1"), ("c", "b2")])
    paths = max_vertex_disjoint_paths(G, ["a1", "a2"], ["b1", "b2"])
    assert len(paths) == 1


def test_disjoint_paths_fan():
    G = Graph((), [("w", "x"), ("w", "y"), ("w", "z")])
    paths = max_vertex_disjoint_paths(G, ["w"], ["x", "y", "z"], fan=True)
    assert len(paths) == 3
    assert all(p[0] == "w" for p in paths)


def test_min_vertex_cut_bottleneck():
    G = Graph((), [("a1", "c"), ("a2", "c"), ("c", "b1"), ("c", "b2")])
    assert min_vertex_cut(G, ["a1", "a2"], ["b1", "b2"]) == {"c"}
    # overlapping terminals are forced into the cut
    P = Graph((), [("a", "b"), ("b", "c")])
    assert min_vertex_cut(P, ["a", "b"], ["b", "c"]) == {"b"}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 999))
def test_min_cut_matches_max_disjoint_paths(seed):
    rng = random.Random(seed)
    G = random_graph(rng, rng.randint(4, 12), rng.uniform(0.2, 0.6))
    vs = list(G.vertices)
    A = set(rng.sample(vs, rng.randint(1, 3)))
    B = set(rng.sample(vs, rng.randint(1, 3)))
    cut = min_vertex_cut(G, A, B)
    paths = max_vertex_disjoint_paths(G, A, B)
    assert len(cut) == len(paths)
    H = G.remove_vertices(cut)
    for a in A - cut:
        for b in B - cut:
            if a == b:
                assert False, "uncut vertex in both terminal sets"
            try:
                H.shortest_path(a, b)
                assert False, f"path {a}-{b} survives the cut"
            except NoPathError:
                pass


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 999))
def test_disjoint_paths_match_nx_connectivity(seed):
    import networkx as nx
    rng = random.Random(seed)
    G = random_graph(rng, rng.randint(4, 12), rng.uniform(0.2, 0.6))
    vs = list(G.vertices)
    A = set(rng.sample(vs, rng.randint(1, 3)))
    B = set(rng.sample(vs, rng.randint(1, 3)))
    if A & B:
        return
    g = oracles.to_nx(G)
    g.add_node("#s")
    g.add_node("#t")
    for a in A:
        g.add_edge("#s", a)
    for b in B:
        g.add_edge("#t", b)
    want = nx.node_connectivity(g, "#s", "#t")
    paths = max_vertex_disjoint_paths(G, A, B)
    assert len(paths) == want
    used = set()
    for p in paths:
        assert not (set(p) & used)
        used |= set(p)


def test_subgraph_on_every_vertex_is_the_graph():
    G = grid(3, 3)
    assert G.subgraph(G.vertex_set) is G
    assert G.subgraph(list(G.vertices) + ["elsewhere"]) is G
    assert G.remove_vertices(()) is G
    H = G.subgraph(G.vertices[1:])
    assert H is not G and H.n == G.n - 1
    assert H.edge_set == {e for e in G.edge_set if G.vertices[0] not in e}


def test_decomposition_faults_are_named_by_least_key():
    # an 8-cycle in two bags misses two edges; the ekey-least is named
    vs = [f"v{i}" for i in range(8)]
    C8 = Graph(vs, zip(vs, vs[1:] + vs[:1]))
    td = TreeDecomposition({0: vs[:4], 1: vs[4:]}, [(0, 1)])
    assert td.validate(C8) == ["edge v0,v7 in no bag"]
    # v0, v1 and v2 sit in the two end bags of a path, not in the middle
    # one; the vkey-least of them is named
    td = TreeDecomposition({0: vs, 1: vs[3:], 2: vs[:3]}, [(0, 1), (1, 2)])
    assert td.validate(C8) == ["bags of v0 not connected in the tree"]


def test_biconnected_sees_a_cut_vertex_at_the_root():
    # two triangles on one vertex: whichever vertex the search starts from,
    # the shared one cuts the graph
    for center in range(5):
        a, b, c, d = (v for v in range(5) if v != center)
        G = Graph(range(5), [(center, a), (center, b), (a, b),
                             (center, c), (center, d), (c, d)])
        assert not biconnected(G)
        assert biconnected(G.add_edges([(a, c)]))
