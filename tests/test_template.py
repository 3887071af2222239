"""The per-height template record of `flatwall.wall`.

Each height's elementary wall is built once per process and shared by
every wall of that height, so the cached record must equal a fresh build,
keep the skeleton that `oracles.suppressed_by_sort` traces on the
elementary wall, and stay unchanged whatever a caller does to what the
`temp_*` functions return. The skeleton's few self-embeddings, which wall
recognition's forced steps rest on, are counted at every height.
"""
import dataclasses

import pytest

from flatwall.errors import InputError
from flatwall.wall import (_skeleton_embeddings, _template, elementary_wall,
                           subdivide_wall, temp_corners, temp_degree,
                           temp_edges, temp_pegs, temp_perimeter,
                           temp_vertices)

import oracles

HEIGHTS = range(3, 46, 2)


@pytest.mark.parametrize("r", HEIGHTS)
def test_cached_record_equals_a_fresh_build(r):
    T = _template(r)
    fresh = _template.__wrapped__(r)
    assert _template(r) is T and fresh is not T
    assert T == fresh
    assert T.skeleton is T.skeleton
    assert T.skeleton == fresh.skeleton


@pytest.mark.parametrize("r", (3, 5, 7, 15))
def test_record_keeps_the_elementary_walls_skeleton(r):
    T = _template(r)
    S = T.skeleton
    W = elementary_wall(r)
    coord = {v: c for c, v in W.branch_coords.items()}
    branch, arcs = oracles.suppressed_by_sort(W.graph)
    assert list(S.arcs) == [tuple(map(coord.get, a)) for a in arcs]
    assert sorted(S.order) == sorted(map(coord.get, branch))
    placed = sorted(v for v, _p, _others in S.plan)
    assert placed == list(range(4, len(S.order)))
    assert T.degree.keys() == set(T.vertices) == W.branch_coords.keys()
    assert len(set(T.edges)) == len(T.edges)
    assert set(T.edges) == W.seg_paths.keys()
    assert all(W.graph.degree(W.branch_coords[c]) == d
               for c, d in T.degree.items())
    assert T.perimeter_set == frozenset(T.perimeter)


def test_record_cannot_be_changed():
    T = _template(5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        T.vertices = ()
    with pytest.raises(AttributeError):
        T.skeleton.order = ()
    with pytest.raises(TypeError):
        T.degree[next(iter(T.degree))] = None
    assert all(type(field) is tuple for field in T.skeleton)


def test_mutating_a_returned_list_leaves_the_next_call_unchanged():
    for f in (temp_vertices, temp_edges, temp_perimeter, temp_pegs,
              temp_corners):
        got = f(5)
        want = list(got)
        got.reverse()
        got.append(None)
        assert f(5) == want
    deg = temp_degree(5)
    want = dict(deg)
    deg.clear()
    assert temp_degree(5) == want


def test_invalid_heights_raise_every_time():
    for r in (1, 4, 4):
        with pytest.raises(InputError):
            _template(r)


@pytest.mark.parametrize("r", HEIGHTS)
def test_skeleton_has_few_self_embeddings(r):
    # 4 at height 3 and 2 above it. With every edge subdivided 3 times no
    # host arc is too short, so the embeddings are all the skeleton's
    # automorphisms: 12 at height 3 (a prism) and the same 2 above it
    W = elementary_wall(r)
    S = subdivide_wall(W, {e: 3 for e in W.graph.edges})
    for G, want in ((W.graph, 4), (S.graph, 12)):
        got = list(_skeleton_embeddings(_template(r).skeleton, G))
        assert len(got) == (want if r == 3 else 2)
        if r <= 21:
            assert len(list(oracles.skeleton_embeddings_by_search(
                r, G))) == len(got)
