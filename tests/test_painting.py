import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwall.errors import FlatwallError, InputError, UnsupportedError
from flatwall.flatness import PROFILES, cycle_runs, generate_fixture
from flatwall.graph import norm_edge
from flatwall.painting import (NormalCycleTrace, Painting, trace_faces,
                               trace_normal_cycle, validate_painting)
from oracles import enumerate_subwalls, trace_by_union_find


def triangle():
    return Painting(
        nodes=["a", "b", "c"],
        cells={"c1": ("a", "b", "c")},
        rotations={"a": ["c1"], "b": ["c1"], "c": ["c1"]},
        outer=("a", "b", "c"))


def ring(with_pendant=True, with_chord=True):
    """Hexagonal ring r1..r6; chord cell c0 inside; pendant cell x outside."""
    nodes = [f"n{i}" for i in range(1, 7)]
    cells = {f"r{i}": (f"n{i}", f"n{i % 6 + 1}") for i in range(1, 7)}
    rotations = {}
    for i in range(1, 7):
        inc = [f"r{(i - 2) % 6 + 1}", f"r{i}"]
        if with_chord and i in (1, 4):
            inc.insert(1, "c0")
        rotations[f"n{i}"] = inc
    outer = [f"n{i}" for i in range(1, 7)]
    if with_chord:
        cells["c0"] = ("n1", "n4")
    if with_pendant:
        nodes.append("n7")
        cells["x"] = ("n2", "n7")
        rotations["n2"] = rotations["n2"] + ["x"]
        rotations["n7"] = ["x"]
        outer.insert(2, "n7")
    return Painting(nodes, cells, rotations, tuple(outer))


def ring_runs():
    return [(f"n{i}", f"r{i}", f"n{i % 6 + 1}") for i in range(1, 7)]


def outside(P, t):
    """The cells a trace leaves out: neither run cells nor inside."""
    return set(P.cells) - t.inside_cells - {c for _, c, _ in t.runs}


def test_triangle_valid():
    assert validate_painting(triangle()) == []


def test_oversized_cell_rejected():
    P = Painting(["a", "b", "c", "d"], {"c1": ("a", "b", "c", "d")},
                 {x: ["c1"] for x in "abcd"}, ("a", "b", "c", "d"))
    report = validate_painting(P)
    assert any("<= 3" in p for p in report)


def test_k5_pattern_not_planar():
    # two-node cell per K5 edge; every rotation system of K5 fails Euler
    nodes = list(range(5))
    cells = {f"e{i}{j}": (i, j) for i, j in itertools.combinations(nodes, 2)}
    rotations = {i: [cid for cid, b in sorted(cells.items()) if i in b]
                 for i in nodes}
    P = Painting(nodes, cells, rotations, tuple(nodes))
    report = validate_painting(P)
    assert any("Euler" in p for p in report)


def test_trace_faces_partitions_darts():
    P = ring()
    faces = trace_faces(P)
    darts = [d for f in faces for d in f]
    assert len(darts) == len(set(darts))
    n_darts = 2 * sum(len(b) for b in P.cells.values())
    assert len(darts) == n_darts
    # disk Euler count: |V| - |E| + |F| = 1 + number of components
    V = len(P.nodes) + len(P.cells)
    E = n_darts // 2
    C = 1
    assert V - E + (len(faces) - (C - 1)) == 1 + C


def test_empty_painting_one_face():
    P = Painting([], {}, {}, ())
    assert trace_faces(P) == [()]
    assert validate_painting(P) == []


def test_ring_classification():
    P = ring()
    t = trace_normal_cycle(P, ring_runs(), [False] * 6)
    assert t.inside_cells == {"c0"}
    assert outside(P, t) == {"x"}
    assert t.nodes_on_curve == {f"n{i}" for i in range(1, 7)}


def test_ring_as_outer_boundary():
    P = ring(with_pendant=False)
    t = trace_normal_cycle(P, ring_runs(), [False] * 6)
    assert t.inside_cells == {"c0"}
    assert outside(P, t) == set()


def test_partition_property():
    P = ring()
    t = trace_normal_cycle(P, ring_runs(), [False] * 6)
    run_cells = {c for _, c, _ in t.runs}
    all_cells = set(P.cells)
    assert run_cells <= all_cells
    assert t.inside_cells <= all_cells - run_cells
    assert all_cells - t.inside_cells - run_cells == {"x"}


def test_reversal_invariance():
    P = ring()
    runs = ring_runs()
    fwd = trace_normal_cycle(P, runs, [False] * 6)
    rev = trace_normal_cycle(P, [(q, c, p) for p, c, q in reversed(runs)],
                             [False] * 6)
    assert fwd.inside_cells == rev.inside_cells
    assert outside(P, fwd) == outside(P, rev)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 999))
def test_relabeling_invariance(seed):
    rng = random.Random(seed)
    P = ring()
    perm = {n: f"p{i}" for i, n in enumerate(rng.sample(P.nodes, len(P.nodes)))}
    Q = Painting([perm[n] for n in P.nodes],
                 {c: tuple(perm[x] for x in b) for c, b in P.cells.items()},
                 {perm[n]: r for n, r in P.rotations.items()},
                 tuple(perm[x] for x in P.outer))
    assert validate_painting(Q) == []
    runs = [(perm[p], c, perm[q]) for p, c, q in ring_runs()]
    t = trace_normal_cycle(Q, runs, [False] * 6)
    assert t.inside_cells == {"c0"}
    assert outside(Q, t) == {"x"}


def three_node_run_fixture(m_inside):
    nodes = [f"n{i}" for i in range(1, 7)] + ["m", "n8"]
    cells = {f"r{i}": (f"n{i}", f"n{i % 6 + 1}") for i in range(2, 7)}
    cells["r1"] = ("n1", "m", "n2") if m_inside else ("n1", "n2", "m")
    cells["y"] = ("m", "n8")
    rotations = {f"n{i}": [f"r{(i - 2) % 6 + 1}", f"r{i}"] for i in range(1, 7)}
    rotations["m"] = ["r1", "y"]
    rotations["n8"] = ["y"]
    return Painting(nodes, cells, rotations, tuple(f"n{i}" for i in range(1, 7)))


def test_third_node_side_follows_boundary_order():
    for m_inside in (True, False):
        P = three_node_run_fixture(m_inside)
        assert validate_painting(P) == []
        for flag in (False, True):
            t = trace_normal_cycle(P, ring_runs(), [flag] + [False] * 5)
            assert ("m" in t.nodes_on_curve) == flag
            if m_inside:
                assert "y" in t.inside_cells
            else:
                assert "y" in outside(P, t)


def test_arc_flag_needs_three_nodes():
    P = ring()
    with pytest.raises(InputError):
        trace_normal_cycle(P, ring_runs(), [True] + [False] * 5)


def test_multi_run_cell_rejected():
    P = ring()
    runs = ring_runs()
    runs[3] = (runs[3][0], "r1", runs[3][2])
    with pytest.raises(UnsupportedError):
        trace_normal_cycle(P, runs, [False] * 6)


def test_open_walk_rejected():
    P = ring()
    runs = ring_runs()[:-1]
    with pytest.raises(InputError):
        trace_normal_cycle(P, runs, [False] * 5)


def test_disconnected_painting_rejected():
    P = ring()
    Q = Painting(list(P.nodes) + ["z1", "z2"],
                 dict(P.cells, far=("z1", "z2")),
                 dict(P.rotations, z1=["far"], z2=["far"]),
                 P.outer)
    with pytest.raises(UnsupportedError):
        trace_normal_cycle(Q, ring_runs(), [False] * 6)


def test_flagged_third_node_on_the_curve_rejected():
    # the flag routes the curve through n4, which it also enters from r3
    P = ring(with_pendant=False, with_chord=False)
    Q = Painting(P.nodes, dict(P.cells, r1=("n1", "n4", "n2")),
                 dict(P.rotations, n4=P.rotations["n4"] + ("r1",)), P.outer)
    with pytest.raises(InputError, match="revisits a node"):
        trace_normal_cycle(Q, ring_runs(), [True] + [False] * 5)


def _outcome(trace, P, runs, flags):
    try:
        return trace(P, runs, flags)
    except FlatwallError as e:
        return e.as_dict()


def _variants(P, runs, flags):
    """The curve; the curve with the arc flag of every 3-node run flipped;
    and inputs that each fail one check of the trace."""
    three = [len(P.cells[c]) == 3 for _, c, _ in runs]
    yield runs, flags
    yield runs, [f != t for f, t in zip(flags, three)]
    yield runs[:-1], flags[:-1]
    yield runs + runs[:1], flags + flags[:1]
    yield runs, flags[:-1]
    yield [(runs[0][0], "no-such-cell", runs[0][2])] + runs[1:], flags
    if not all(three):
        two = three.index(False)
        yield runs, [f or i == two for i, f in enumerate(flags)]


@pytest.mark.parametrize("height", [7, 9])
def test_trace_matches_union_find_on_fixtures(height):
    """The flood fill and the union-find over every spoke find the same
    inside cells, run sides and errors, on the whole wall and on every
    brick and perimeter of the first 120 3-subwalls of each profile."""
    for profile in PROFILES:
        _, F = generate_fixture(0, height, profile)
        P = F.rendition.painting
        curves = {}
        for _, _, S in itertools.islice(enumerate_subwalls(F.wall, 3), 120):
            for cyc in [S.perimeter] + S.bricks():
                curves.setdefault(frozenset(
                    norm_edge(u, v) for u, v in zip(cyc, cyc[1:] + cyc[:1])),
                    cyc)
        for cyc in [F.wall.perimeter] + list(curves.values()):
            runs, flags, _ = cycle_runs(F, cyc)
            for rs, fs in _variants(P, runs, flags):
                ours = _outcome(trace_normal_cycle, P, rs, fs)
                ref = _outcome(trace_by_union_find, P, rs, fs)
                if ours == ref:
                    continue
                # the one intended difference: a flagged third node that
                # is also an entry node makes the curve revisit that node
                assert isinstance(ref, NormalCycleTrace)
                assert ours["message"].startswith("curve revisits a node")
                assert ours["witness"] in {p for p, _, _ in rs}
