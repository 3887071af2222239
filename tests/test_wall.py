import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwall.errors import InputError
from flatwall.graph import vkey
from flatwall.wall import (PegsCorners, Wall, admits_pegs_corners,
                           choices_of_pegs_corners, elementary_wall,
                           interior, is_tilt, row_selection_valid,
                           subdivide_wall, subwall,
                           temp_corners, temp_degree, temp_edges,
                           temp_hpath, temp_pegs, temp_perimeter,
                           temp_vertices, temp_vpath)

import oracles


def random_subdivision(W, seed, max_extra=2):
    rng = random.Random(seed)
    plan = {e: rng.randint(0, max_extra) for e in W.graph.edges}
    return subdivide_wall(W, plan)


def test_template_lines_match_the_vertex_set():
    # the rows and the perimeter as they were read off the vertex set
    def hpath(r, j):
        vs = set(temp_vertices(r))
        return [(x, j) for x in range(1, 2 * r + 1) if (x, j) in vs]

    for r in range(3, 46, 2):
        for j in range(0, r + 2):
            assert temp_hpath(r, j) == hpath(r, j)
        per = (temp_vpath(r, 1) + hpath(r, r)[1:]
               + list(reversed(temp_vpath(r, r)))[1:]
               + list(reversed(hpath(r, 1)))[1:-1])
        assert temp_perimeter(r) == per
        edges = {frozenset(e) for e in temp_edges(r)}
        for m in range(1, r + 1):
            path = temp_vpath(r, m)
            assert path[0] == (2 * m - 1, 1) and path[-1][1] == r
            assert all(frozenset(e) in edges for e in zip(path, path[1:]))
        assert all(frozenset(e) in edges
                   for e in zip(per, per[1:] + per[:1]))


def test_elementary_counts():
    for r in (3, 5, 7):
        W = elementary_wall(r)
        assert W.validate() == []
        assert W.graph.n == 2 * r * r - 2
        m = (r - 2) * (2 * r - 1) + 2 * (2 * r - 2) + r * (r - 1)
        assert W.graph.m == m
        assert len(W.bricks()) == (r - 1) ** 2
        assert W.graph.connected()
        assert all(W.graph.degree(v) in (2, 3) for v in W.graph.vertices)


def test_elementary_three_wall_shape():
    W = elementary_wall(3)
    assert W.graph.n == 16 and W.graph.m == 19
    per = W.perimeter
    assert len(per) == 14
    cyc = list(per) + [per[0]]
    for a, b in zip(cyc, cyc[1:]):
        assert W.graph.has_edge(a, b)
    assert len(set(per)) == len(per)
    # every brick is a 6-cycle here
    for b in W.bricks():
        assert len(b) == 6
        for x, y in zip(b, b[1:] + (b[0],)):
            assert W.graph.has_edge(x, y)
    assert W.internal_bricks() == []


def test_internal_brick_counts():
    # bricks not meeting the perimeter form an inner (r-3)x(r-3) pattern
    for r in (3, 5, 7):
        W = elementary_wall(r)
        inner = W.internal_bricks()
        assert len(inner) == (r - 3) ** 2


def test_subdivision_keeps_shape():
    W = elementary_wall(3)
    S = random_subdivision(W, seed=7)
    assert S.validate() == []
    assert oracles.is_subdivision_of(S.graph, W.graph)
    assert len(S.perimeter) >= len(W.perimeter)
    assert len(S.bricks()) == len(W.bricks())


def test_subdivide_rejects_bad_plan():
    W = elementary_wall(3)
    with pytest.raises(InputError):
        subdivide_wall(W, {("1,1", "6,3"): 1})
    e = W.graph.edges[0]
    with pytest.raises(InputError):
        subdivide_wall(W, {e: -1})


def test_full_subwall_is_the_wall():
    for r in (3, 5, 7):
        W = elementary_wall(r)
        full = range(1, r + 1)
        assert subwall(W, full, full) == W
        for seed in range(3):
            S = random_subdivision(W, seed)
            assert subwall(S, full, full).graph == S.graph


@pytest.mark.parametrize("rows, cols, want", [
    # rows[1] even: W read as it is
    ((1, 2, 3), (1, 2, 3), {(1, 1): "1,1", (2, 1): "2,1", (2, 2): "2,2",
                            (6, 2): "6,2", (2, 3): "2,3", (3, 3): "3,3"}),
    # rows[1] odd: W read mirrored, so column 1 is W's third vertical path
    ((1, 3, 5), (1, 2, 3), {(1, 1): "5,1", (2, 1): "4,1", (2, 2): "5,3",
                            (6, 2): "1,3", (2, 3): "6,5", (3, 3): "5,5"}),
])
def test_subwall_presentation_follows_row_parity(rows, cols, want):
    S = subwall(elementary_wall(5), rows, cols)
    assert {c: S.branch_coords[c] for c in want} == want


def test_subwall_basic():
    W = elementary_wall(5)
    S = subwall(W, (1, 2, 3), (1, 2, 3))
    assert S.validate() == []
    assert S.height == 3
    assert oracles.is_subdivision_of(S.graph, elementary_wall(3).graph)
    assert S.graph.vertex_set <= W.graph.vertex_set
    for u, v in S.graph.edges:
        assert W.graph.has_edge(u, v)


def test_subwall_of_subdivided_wall():
    W = random_subdivision(elementary_wall(5), seed=11, max_extra=1)
    for rows, cols in [((1, 3, 5), (1, 3, 5)), ((2, 3, 4), (1, 2, 5))]:
        S = subwall(W, rows, cols)
        assert S.validate() == []
        assert oracles.is_subdivision_of(S.graph, elementary_wall(3).graph)
        assert S.graph.vertex_set <= W.graph.vertex_set


def test_row_selection_parity():
    # any three rows work; five rows need a consistent stagger
    assert all(row_selection_valid(rs)
               for rs in itertools.combinations(range(1, 8), 3))
    valid5 = [rs for rs in itertools.combinations(range(1, 8), 5)
              if row_selection_valid(rs)]
    assert len(valid5) == 12
    assert (1, 2, 3, 4, 5) in valid5
    assert (1, 2, 3, 5, 6) not in valid5
    with pytest.raises(InputError):
        subwall(elementary_wall(7), (1, 2, 3, 5, 6), (1, 2, 3, 4, 5))


@pytest.mark.parametrize("a, b, rows", [
    ((1, 1), (2, 1), (1, 2, 3)),
    ((1, 2), (2, 2), (2, 3, 4)),
    ((3, 3), (4, 3), (1, 2, 3)),
])
def test_subwall_of_a_malformed_wall_is_an_input_error(a, b, rows):
    W = elementary_wall(5)
    branch = dict(W.branch_coords)
    branch[a], branch[b] = branch[b], branch[a]
    with pytest.raises(InputError):
        subwall(Wall(5, branch, W.seg_paths), rows, (1, 2, 3))


def test_subwall_enumeration_counts():
    W = elementary_wall(5)
    subs = list(oracles.enumerate_subwalls(W, 3))
    assert len(subs) == 100  # C(5,3)^2
    seen = set()
    for rows, cols, S in subs:
        assert S.validate() == []
        key = frozenset(S.graph.edges)
        assert key not in seen
        seen.add(key)


def test_five_subwalls_of_seven_wall():
    W = elementary_wall(7)
    count = 0
    for rows in [(1, 2, 3, 4, 5), (3, 4, 5, 6, 7), (1, 2, 5, 6, 7)]:
        for cols in [(1, 2, 3, 4, 5), (2, 3, 5, 6, 7)]:
            S = subwall(W, rows, cols)
            assert S.validate() == []
            assert oracles.is_subdivision_of(S.graph, elementary_wall(5).graph)
            count += 1
    assert count == 6


def test_interior_and_tilts():
    W = elementary_wall(3)
    assert is_tilt(W, W)
    inner = interior(W)
    # the two inner branch vertices plus the perimeter branch vertices
    assert inner.vertex_set == {"3,2", "4,2", "3,1", "4,3", "2,2", "5,2"}
    assert inner.edge_set == {("3,1", "3,2"), ("3,2", "4,2"),
                              ("4,2", "4,3"), ("2,2", "3,2"), ("4,2", "5,2")}
    # subdividing a perimeter edge leaves the interior alone
    per = W.perimeter
    pe = (per[0], per[1])
    S = subdivide_wall(W, {pe: 1})
    assert is_tilt(W, S)
    # subdividing an interior edge does not
    S2 = subdivide_wall(W, {("3,2", "4,2"): 1})
    assert not is_tilt(W, S2)


def test_is_tilt_compares_interior_edges():
    # trading the names of two interior branch vertices keeps the interior's
    # vertex set but not its edges
    W = elementary_wall(5)
    a, b = W.branch_coords[(3, 2)], W.branch_coords[(6, 3)]
    name = {a: b, b: a}
    W2 = Wall(5, {c: name.get(v, v) for c, v in W.branch_coords.items()},
              {k: tuple(name.get(v, v) for v in p)
               for k, p in W.seg_paths.items()})
    assert W2.validate() == []
    assert interior(W).vertex_set == interior(W2).vertex_set
    assert not is_tilt(W, W2) and not is_tilt(W2, W)


@pytest.mark.parametrize("r", [3, 7])
def test_pegs_corners_elementary(r):
    W = elementary_wall(r)
    choices = list(choices_of_pegs_corners(W))
    if r == 3:
        # the automorphism group (order 4, checked against networkx) yields
        # two corner sets over the same peg set
        assert len(choices) == 2
    std_corners = frozenset(f"{x},{y}" for x, y in temp_corners(r))
    std_pegs = frozenset(f"{x},{y}" for x, y in temp_pegs(r))
    assert (std_pegs, std_corners) in {(pc.pegs, pc.corners) for pc in choices}
    for pc in choices:
        assert pc.pegs == std_pegs
        assert len(pc.corners) == 4
        assert pc.corners <= pc.pegs
        assert all(W.graph.degree(v) == 2 for v in pc.pegs)


def test_pegs_corners_grow_with_subdivision():
    W = elementary_wall(3)
    per = W.perimeter
    S = subdivide_wall(W, {(per[0], per[1]): 1})
    choices = list(choices_of_pegs_corners(S))
    assert len(choices) > 1
    for pc in choices:
        assert len(pc.corners) == 4
        assert pc.corners <= pc.pegs
        assert all(S.graph.degree(v) == 2 for v in pc.pegs)


@pytest.mark.parametrize("r", [3, 5, 7, 9])
def test_degree_two_template_vertices_are_pegs(r):
    # choices_of_pegs_corners and admits_pegs_corners rely on this
    assert ({c for c, d in temp_degree(r).items() if d == 2}
            == set(temp_pegs(r)))


@pytest.mark.parametrize("W", [elementary_wall(3), elementary_wall(5),
                               random_subdivision(elementary_wall(3), 8)])
def test_pegs_corners_membership_matches_enumeration(W):
    choices = list(choices_of_pegs_corners(W))
    assert len(set(choices)) == len(choices)
    assert all(admits_pegs_corners(W, pc) for pc in choices)
    # move one corner, or one peg, to every other degree-2 vertex
    deg2 = sorted((v for v in W.graph.vertex_set if W.graph.degree(v) == 2),
                  key=vkey)
    known = set(choices)
    for pc in choices[:40]:
        c = min(pc.corners, key=vkey)
        p = min(pc.pegs - pc.corners, key=vkey)
        for v in deg2:
            for moved in (PegsCorners(pc.pegs - {c} | {v},
                                      pc.corners - {c} | {v}),
                          PegsCorners(pc.pegs - {p} | {v}, pc.corners)):
                assert admits_pegs_corners(W, moved) == (moved in known)
    first = choices[0]
    assert not admits_pegs_corners(W, PegsCorners(
        first.pegs, first.corners - {min(first.corners, key=vkey)}))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_random_subdivisions_stay_walls(seed):
    rng = random.Random(seed)
    r = rng.choice((3, 5))
    W = elementary_wall(r)
    S = random_subdivision(W, seed=seed, max_extra=2)
    assert S.validate() == []
    assert oracles.is_subdivision_of(S.graph, W.graph)
    rows = tuple(sorted(rng.sample(range(1, r + 1), 3)))
    cols = tuple(sorted(rng.sample(range(1, r + 1), 3)))
    T = subwall(S, rows, cols)
    assert T.validate() == []
    assert oracles.is_subdivision_of(T.graph, elementary_wall(3).graph)
