import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwall.errors import CapacityError, InputError, NoPathError
from flatwall.graph import (Graph, TreeDecomposition, contract_matching,
                            exact_treewidth, is_separation,
                            max_vertex_disjoint_paths, min_fill_decomposition,
                            min_vertex_cut, minor_model)

import oracles


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


def test_is_separation_examples():
    G = Graph((), [("a", "b")])
    assert is_separation(G, {"a", "b"}, {"b"})
    P = Graph((), [("a", "b"), ("b", "c")])
    assert not is_separation(P, {"a"}, {"b", "c"})
    assert is_separation(P, {"a", "b"}, {"b", "c"})


def test_contract_matching_examples():
    P = Graph((), [("a", "b"), ("b", "c")])
    H, merge = contract_matching(P, [("a", "b")])
    assert H.n == 2 and H.m == 1
    assert merge["b"] == "a"
    C4 = Graph((), [(0, 1), (1, 2), (2, 3), (3, 0)])
    H, _ = contract_matching(C4, [(0, 1), (2, 3)])
    assert H.n == 2 and H.m == 1
    H, _ = contract_matching(C4, [])
    assert H == C4
    with pytest.raises(InputError):
        contract_matching(C4, [(0, 1), (1, 2)])


def test_merge_map_partitions():
    C4 = Graph((), [(0, 1), (1, 2), (2, 3), (3, 0)])
    H, merge = contract_matching(C4, [(0, 1)])
    groups = {}
    for old, new in merge.items():
        groups.setdefault(new, set()).add(old)
    assert sorted(map(sorted, groups.values())) == [[0, 1], [2], [3]]


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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_min_fill_matches_networkx(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 14)
    ids = [rng.choice([i, f"v{i}"]) for i in range(n)]
    p = rng.random()
    G = Graph(ids, [(a, b) for a, b in itertools.combinations(ids, 2)
                    if rng.random() < p])
    _assert_min_fill_matches_networkx(G)


def test_min_fill_matches_networkx_on_fixture():
    from flatwall.flatness import generate_fixture
    G, _F = generate_fixture(0, 7)
    _assert_min_fill_matches_networkx(G)


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
