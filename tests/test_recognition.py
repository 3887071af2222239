"""Wall recognition by forced steps against the depth-first search.

`recognize_wall` places the template skeleton from a flag with no search;
`oracles.recognize_wall_by_search` tries every candidate in `vkey` order.
Both must return the same wall, with the same branch coordinates and
subdivision paths in the same order, or both None, and up to height 15
the two enumerations must list the same embeddings in the same order.
"""
import functools
import random

import pytest

from flatwall.flatness import PROFILES, generate_fixture
from flatwall.graph import Graph
from flatwall.pipeline import _prune_leaves
from flatwall.wall import (_skeleton_embeddings, _template, elementary_wall,
                           recognize_wall, subdivide_wall)

import oracles


def assert_same_wall(G: Graph, r: int):
    got = recognize_wall(G, r)
    want = oracles.recognize_wall_by_search(G, r)
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.height == want.height == r
    assert list(got.branch_coords.items()) == list(want.branch_coords.items())
    assert list(got.seg_paths.items()) == list(want.seg_paths.items())
    assert got.graph == want.graph and got.validate() == []


def assert_same_embeddings(G: Graph, r: int):
    S = _template(r).skeleton
    got = [(dict(zip(S.order, images)), list(amap.items()))
           for images, amap in _skeleton_embeddings(S, G)]
    want = [(vmap, list(amap.items())) for vmap, amap
            in oracles.skeleton_embeddings_by_search(r, G)]
    assert got == want


@functools.lru_cache(maxsize=None)
def base_core(H: int) -> Graph:
    """The base fixture's leaf-pruned core without its apex: a wall."""
    G, _F = generate_fixture(0, H)
    return _prune_leaves(G.remove_vertices(["apex0"]))


@pytest.mark.parametrize("H", (5, 7, 9, 21, 33, 45))
@pytest.mark.parametrize("profile", PROFILES)
def test_recognisers_agree_on_fixtures(H, profile):
    G, _F = generate_fixture(0, H, profile)
    assert_same_wall(_prune_leaves(G), H)
    if profile == "base":
        assert recognize_wall(base_core(H), H) is not None
        assert_same_wall(base_core(H), H)


def test_recognisers_agree_on_elementary_walls():
    for r in range(3, 46, 2):
        W = elementary_wall(r)
        assert recognize_wall(W.graph, r) is not None
        assert_same_wall(W.graph, r)
        if r <= 15:
            assert_same_embeddings(W.graph, r)


def add_chord(G, rng):
    twos = sorted(v for v in G.vertex_set if G.degree(v) == 2)
    while True:
        u, v = rng.sample(twos, 2)
        if not G.has_edge(u, v):
            return G.add_edges([(u, v)])


def delete_edge(G, rng):
    return G.remove_edges([rng.choice(G.edges)])


def move_subdivision_vertex(G, rng):
    """A degree-2 vertex taken off its arc and put on another edge."""
    twos = sorted(v for v in G.vertex_set if G.degree(v) == 2)
    while True:
        s = rng.choice(twos)
        a, b = G.neighbors(s)
        if not G.has_edge(a, b):
            break
    H = G.remove_vertices([s]).add_edges([(a, b)])
    c, d = rng.choice([e for e in H.edges if not set(e) <= {a, b}])
    return H.remove_edges([(c, d)]).add_edges([(c, s), (s, d)])


def add_apex(G, rng):
    k = rng.choice((1, 2, 3))
    return G.add_edges([("apex", v) for v in rng.sample(G.vertices, k)])


def rename_mixed(G, rng):
    """Every vertex renamed, half to ints and half to strings."""
    names = [i if i % 2 else f"v{i}" for i in range(G.n)]
    rng.shuffle(names)
    to = dict(zip(G.vertices, names))
    return Graph(names, [(to[u], to[v]) for u, v in G.edges])


MUTANTS = (add_chord, delete_edge, move_subdivision_vertex, add_apex,
           rename_mixed)


@pytest.mark.parametrize("mutate", MUTANTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("H", (7, 21))
def test_recognisers_agree_on_mutants(mutate, H):
    for seed in range(4):
        G = _prune_leaves(mutate(base_core(H), random.Random(seed)))
        assert_same_wall(G, H)
        if H <= 15:
            assert_same_embeddings(G, H)


@pytest.mark.parametrize("r", (3, 5, 7))
def test_embedding_lists_agree_on_subdivisions(r):
    # the elementary 3-wall's skeleton has 4 self-embeddings, and with
    # every edge subdivided 3 times it has 12, two from each start vertex,
    # so the order among several embeddings is compared here too
    W = elementary_wall(r)
    for seed in range(13):
        rng = random.Random(seed)
        S = subdivide_wall(W, {e: rng.choice((0, 0, 1, 2)) if seed else 3
                               for e in W.graph.edges})
        for G in (S.graph, rename_mixed(S.graph, rng)):
            assert_same_embeddings(G, r)
            assert_same_wall(G, r)


@pytest.mark.parametrize("H", (5, 7, 9))
def test_embedding_lists_agree_on_fixtures(H):
    assert_same_embeddings(base_core(H), H)
