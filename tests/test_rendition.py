import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwall.errors import InputError, InternalError
from flatwall.flatness import generate_fixture
from flatwall.graph import Graph
from flatwall import rendition
from flatwall.painting import Painting, validate_painting
from flatwall.rendition import (Rendition, check_tightness, tighten,
                                validate_rendition)


def triangle_rendition():
    G = Graph((), [("a", "b"), ("b", "c"), ("a", "c")])
    P = Painting(["x", "y", "z"], {"c1": ("x", "y", "z")},
                 {"x": ["c1"], "y": ["c1"], "z": ["c1"]}, ("x", "y", "z"))
    return G, Rendition(P, {"c1": G}, {"x": "a", "y": "b", "z": "c"},
                        ("a", "b", "c"))


def ring_rendition(chords=()):
    """Omega 6-cycle of edge cells; optional chord cells with given flaps.

    chords: list of (cell id, (node, node), flap Graph).
    """
    k = 6
    nodes = [f"n{i}" for i in range(1, k + 1)]
    cells = {f"r{i}": (f"n{i}", f"n{i % k + 1}") for i in range(1, k + 1)}
    rotations = {f"n{i}": [f"r{(i - 2) % k + 1}", f"r{i}"] for i in range(1, k + 1)}
    pi = {f"n{i}": f"v{i}" for i in range(1, k + 1)}
    sigma = {f"r{i}": Graph((), [(f"v{i}", f"v{i % k + 1}")]) for i in range(1, k + 1)}
    for cid, bnd, flap in chords:
        cells[cid] = bnd
        rotations[bnd[0]].insert(1, cid)
        rotations[bnd[1]].insert(len(rotations[bnd[1]]) - 1, cid)
        sigma[cid] = flap
    G = Graph((), ())
    for g in sigma.values():
        G = G.union(g)
    P = Painting(nodes, cells, rotations, tuple(nodes))
    omega = tuple(pi[n] for n in nodes)
    return G, Rendition(P, sigma, pi, omega)


def assert_tight_and_faithful(G, R, T):
    assert validate_rendition(G, T) == []
    rep = check_tightness(G, T)
    assert rep.is_tight, rep.violations
    assert T.union_graph().edge_set == G.edge_set
    assert T.union_graph().vertex_set == G.vertex_set
    assert T.pi == {n: R.pi[n] for n in T.painting.nodes}
    assert T.omega == R.omega


def test_trivial_triangle_valid():
    G, R = triangle_rendition()
    assert validate_rendition(G, R) == []


def test_shared_edge_violates_disjointness():
    G, R = ring_rendition()
    bad = Rendition(R.painting, dict(R.sigma, r2=R.sigma["r1"]), R.pi, R.omega)
    report = validate_rendition(G, bad)
    assert any("(c.2)" in p for p in report)


def test_hidden_shared_vertex_violates_c4():
    flap1 = Graph((), [("v1", "h"), ("h", "v3")])
    flap2 = Graph((), [("v4", "h"), ("h", "v6")])
    G, R = ring_rendition([("c1", ("n1", "n3"), flap1),
                           ("c2", ("n4", "n6"), flap2)])
    report = validate_rendition(G, R)
    assert any("(c.4)" in p for p in report)


def test_omega_order_must_match():
    G, R = ring_rendition()
    scrambled = ("v1", "v3", "v2", "v4", "v5", "v6")
    report = validate_rendition(G, Rendition(R.painting, R.sigma, R.pi, scrambled))
    assert any("(c.5)" in p for p in report)


def test_tightness_clean_on_edge_cells():
    G, R = ring_rendition()
    rep = check_tightness(G, R)
    assert rep.is_tight


def test_condition_i_detection_and_repair():
    # flap carries a direct edge between two ground images plus extra
    flap = Graph((), [("v1", "v4"), ("v1", "h"), ("h", "v4")])
    G, R = ring_rendition([("c1", ("n1", "n4"), flap)])
    rep = check_tightness(G, R)
    assert ("v1", "v4") in rep.violations["i"]
    T = tighten(G, R)
    assert_tight_and_faithful(G, R, T)
    assert any(g.n == 2 and g.edge_set == {("v1", "v4")}
               for g in T.sigma.values())


def test_condition_ii_detection_and_repair():
    flap = Graph((), [("v1", "h1"), ("v4", "h2")])
    G, R = ring_rendition([("c1", ("n1", "n4"), flap)])
    rep = check_tightness(G, R)
    assert any(w[0] == "c1" for w in rep.violations["ii"])
    T = tighten(G, R)
    assert_tight_and_faithful(G, R, T)


def test_condition_iii_detection_and_repair():
    flap = Graph((), [("v1", "m"), ("m", "v4"), ("v1", "p"), ("p", "q")])
    G, R = ring_rendition([("c1", ("n1", "n4"), flap)])
    rep = check_tightness(G, R)
    assert any(w[0] == "c1" for w in rep.violations["iii"])
    T = tighten(G, R)
    assert_tight_and_faithful(G, R, T)
    # components of each flap now see the whole cell boundary
    for cid, g in T.sigma.items():
        bnd = T.pi_boundary(cid)
        inner = g.remove_vertices(bnd)
        for comp in inner.components():
            nb = {x for v in comp for x in g.neighbors(v) if x in bnd}
            assert nb in (set(), bnd)


def test_condition_iv_detection_and_repair():
    flap1 = Graph((), [("v1", "h1"), ("h1", "v4")])
    flap2 = Graph((), [("v1", "h2"), ("h2", "v4")])
    G, R = ring_rendition([("c1", ("n1", "n4"), flap1),
                           ("c2", ("n1", "n4"), flap2)])
    rep = check_tightness(G, R)
    assert rep.violations["iv"]
    T = tighten(G, R)
    assert_tight_and_faithful(G, R, T)


def ground_separator_rendition():
    """Omega is z-w; the cell c4 on x, y reaches it only through z."""
    G = Graph((), [("z", "w"), ("z", "x"), ("z", "y"),
                   ("x", "u"), ("u", "y")])
    P = Painting(
        ["nz", "nw", "nx", "ny"],
        {"e1": ("nz", "nw"), "c2": ("nz", "nx"), "c3": ("nz", "ny"),
         "c4": ("nx", "ny")},
        {"nz": ["e1", "c2", "c3"], "nw": ["e1"],
         "nx": ["c2", "c4"], "ny": ["c4", "c3"]},
        ("nz", "nw"))
    R = Rendition(P,
                  {"e1": Graph((), [("z", "w")]),
                   "c2": Graph((), [("z", "x")]),
                   "c3": Graph((), [("z", "y")]),
                   "c4": Graph((), [("x", "u"), ("u", "y")])},
                  {"nz": "z", "nw": "w", "nx": "x", "ny": "y"},
                  ("z", "w"))
    return G, R


def test_condition_v_detection_and_repair():
    G, R = ground_separator_rendition()
    assert validate_rendition(G, R) == []
    rep = check_tightness(G, R)
    assert "c4" in rep.violations["v"]
    T = tighten(G, R)
    assert_tight_and_faithful(G, R, T)


def test_idempotence_and_preservation():
    flap = Graph((), [("v1", "v4"), ("v1", "h"), ("h", "v4"),
                      ("v1", "p"), ("p", "q")])
    G, R = ring_rendition([("c1", ("n1", "n4"), flap)])
    T1 = tighten(G, R)
    T2 = tighten(G, T1)
    assert T1.key() == T2.key()


CHORD_PAIRS = [("n1", "n4"), ("n2", "n5"), ("n3", "n6"), ("n1", "n3"),
               ("n4", "n6")]


def chord_flap(kind, bnd, idx):
    """A chord flap between the images of the two nodes bnd: a path (0),
    a path plus the direct edge (1), two pendant edges (2), a path with a
    pendant path (3), or kind 2 or 3 plus an edge that meets no boundary
    vertex (4, 5)."""
    a = f"v{bnd[0][1:]}"
    b = f"v{bnd[1][1:]}"
    h = f"h{idx}"
    g = f"g{idx}"
    floating = [(f"f{idx}", f"k{idx}")] if kind >= 4 else []
    if kind == 0:
        return Graph((), [(a, h), (h, b)])
    if kind == 1:
        return Graph((), [(a, b), (a, h), (h, b)])
    if kind in (2, 4):
        return Graph((), [(a, h), (b, g)] + floating)
    return Graph((), [(a, h), (h, b), (a, g), (g, f"q{idx}")] + floating)


def random_chords(rng):
    if rng.random() < 0.5:
        pool = [rng.choice(CHORD_PAIRS)]
    else:
        pool = [("n1", "n3"), ("n4", "n6")]   # disjoint, non-crossing
    return [(f"c{idx}", bnd, chord_flap(rng.randrange(4), bnd, idx))
            for idx, bnd in enumerate(pool)]


def shared_boundary_chords(rng):
    """2-3 chords on one node pair, so the rendition violates (iv). At most
    one flap holds the direct edge, which keeps the flaps edge-disjoint."""
    bnd = rng.choice(CHORD_PAIRS)
    kinds = []
    for _ in range(rng.choice((2, 3))):
        kinds.append(rng.choice([k for k in range(6)
                                 if k != 1 or 1 not in kinds]))
    return [(f"c{idx}", bnd, chord_flap(kind, bnd, idx))
            for idx, kind in enumerate(kinds)]


def separated_fan(rng):
    """Omega is z-w, and 2-4 ground vertices x1.. hang off z alone.

    z joins each xi by a spoke cell (an edge, or a path through pi), or,
    for two of them, by one star cell through p. Consecutive xi share a
    rim cell: an edge, a path through ui, that path with a pendant edge,
    or the path plus the edge. Every rim cell reaches Omega only through
    the ground vertex z (or through p), so it violates (v).
    """
    star = rng.random() < 0.25
    xs = [f"x{i}" for i in range(1, (2 if star else rng.randrange(2, 5)) + 1)]
    cells = {"e1": ("nz", "nw")}
    sigma = {"e1": Graph((), [("z", "w")])}
    rot = {"nz": ["e1"], "nw": ["e1"], **{f"n{x}": [] for x in xs}}
    if star:
        cells["s"] = ("nz", "nx1", "nx2")
        sigma["s"] = Graph((), [("z", "p"), ("p", "x1"), ("p", "x2")])
        for n in cells["s"]:
            rot[n].append("s")
    else:
        for i, x in enumerate(xs, 1):
            cells[f"s{i}"] = ("nz", f"n{x}")
            sigma[f"s{i}"] = (Graph((), [("z", x)]) if rng.random() < 0.5
                              else Graph((), [("z", f"p{i}"), (f"p{i}", x)]))
            rot["nz"].append(f"s{i}")
            rot[f"n{x}"].append(f"s{i}")
    for i, (a, b) in enumerate(zip(xs, xs[1:]), 1):
        u = f"u{i}"
        sigma[f"d{i}"] = [Graph((), [(a, b)]),
                          Graph((), [(a, u), (u, b)]),
                          Graph((), [(a, u), (u, b), (u, f"q{i}")]),
                          Graph((), [(a, b), (a, u), (u, b)])][rng.randrange(4)]
        cells[f"d{i}"] = (f"n{a}", f"n{b}")
        rot[f"n{a}"].append(f"d{i}")
        rot[f"n{b}"].append(f"d{i}")
    pi = {"nz": "z", "nw": "w", **{f"n{x}": x for x in xs}}
    G = Graph((), ())
    for g in sigma.values():
        G = G.union(g)
    return G, Rendition(Painting(list(pi), cells, rot, ("nz", "nw")),
                        sigma, pi, ("z", "w"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9999))
def test_tighten_random_fixtures(seed):
    rng = random.Random(seed)
    G, R = ring_rendition(random_chords(rng))
    assert validate_rendition(G, R) == []
    T = tighten(G, R)
    assert_tight_and_faithful(G, R, T)
    assert tighten(G, T).key() == T.key()


def test_tighten_rejects_invalid_input():
    G, R = ring_rendition()
    bad = Rendition(R.painting, dict(R.sigma, r1=Graph((), [("v1", "zz")])),
                    R.pi, R.omega)
    with pytest.raises(InputError):
        tighten(G, bad)


def _star_renditions(flap):
    """The star m-a, m-b, m-c as the flap of a 3-node cell on a, b, c
    (tight) and of a 2-node cell on a, m (b and c violate (iii))."""
    three = Rendition(
        Painting(["x", "y", "z"], {"c1": ("x", "y", "z")},
                 {n: ["c1"] for n in "xyz"}, ("x", "y", "z")),
        {"c1": flap}, {"x": "a", "y": "b", "z": "c"}, ("a", "b", "c"))
    two = Rendition(
        Painting(["x", "y"], {"c1": ("x", "y")}, {n: ["c1"] for n in "xy"},
                 ("x", "y")),
        {"c1": flap}, {"x": "a", "y": "m"}, ("a", "m"))
    return three, two


def test_shared_flap_is_checked_under_each_boundary():
    G = Graph((), [("m", "a"), ("m", "b"), ("m", "c")])
    for first in (0, 1):
        shared = _star_renditions(Graph(G.vertices, G.edges))
        for i in (first, first, 1 - first, 1 - first, first):
            cold = _star_renditions(Graph(G.vertices, G.edges))[i]
            assert (check_tightness(G, shared[i]).violations
                    == check_tightness(G, cold).violations)
        assert check_tightness(G, shared[0]).is_tight
        assert (check_tightness(G, shared[1]).violations["iii"]
                == [("c1", ("b",)), ("c1", ("c",))])


def test_single_edge_flap_missing_a_boundary_vertex_violates_ii():
    G, R = ring_rendition([("c1", ("n1", "n4"), Graph((), [("v1", "h")]))])
    assert check_tightness(G, R).violations["ii"] == [("c1", "v1", "v4")]


def test_shared_flaps_are_checked_once(monkeypatch):
    G, F = generate_fixture(0, 5, "with-flaps")
    H = G.subgraph(F.Y)
    R = F.rendition
    searched = []
    search = rendition._flap_search

    def counting(cid, g, bnd):
        searched.append(cid)
        return search(cid, g, bnd)

    monkeypatch.setattr(rendition, "_flap_search", counting)
    assert check_tightness(H, R).is_tight
    # a single-edge flap needs no search; any other one needs one
    assert sorted(searched, key=str) == sorted(
        (cid for cid, g in R.sigma.items() if g.m > 1), key=str)
    assert searched


def test_shared_boundaries_are_merged():
    for seed in range(60):
        G, R = ring_rendition(shared_boundary_chords(random.Random(seed)))
        assert validate_rendition(G, R) == []
        assert check_tightness(G, R).violations["iv"]
        T = tighten(G, R)
        assert_tight_and_faithful(G, R, T)
        assert tighten(G, T).key() == T.key()


def test_ground_separators_are_repaired():
    # every draw violates (v) and comes out tight, and only the (v) repair
    # merges the cells behind a separator; a draw that first meets a
    # separator through the star's interior keeps no note of it
    for seed in range(60):
        G, R = separated_fan(random.Random(seed))
        assert validate_rendition(G, R) == []
        assert check_tightness(G, R).violations["v"]
        notes = []
        T = tighten(G, R, notes)
        assert_tight_and_faithful(G, R, T)
        assert tighten(G, T).key() == T.key()
        assert notes == []


@pytest.mark.parametrize("repair", [True, False])
def test_condition_v_notes_name_the_cells_left_unlinked(repair, monkeypatch):
    # without a separator to repair along, every (v) violation stays and is
    # noted once; with the repair, no draw keeps a violation or a note
    if not repair:
        monkeypatch.setattr(rendition, "min_vertex_cut",
                            lambda G, A, B: frozenset())
    for seed in range(60):
        G, R = separated_fan(random.Random(seed))
        notes = []
        T = tighten(G, R, notes)
        unlinked = check_tightness(G, T).violations["v"]
        assert [n.split()[5].rstrip(":") for n in notes] == unlinked
        assert bool(unlinked) != repair


# -- the cell-replacement editor -------------------------------------------


def ring_with_cell(bnd):
    """The ring of `ring_rendition` with one more cell "c" on bnd, placed
    between the two ring cells at each ring node; a node of bnd off the
    ring meets "c" only."""
    G, R = ring_rendition()
    P = R.painting
    rot = {n: list(r) for n, r in P.rotations.items()}
    pi = dict(R.pi)
    for n in bnd:
        if n in rot:
            rot[n].insert(1, "c")
        else:
            rot[n], pi[n] = ["c"], f"h{n}"
    cells = dict(P.cells, c=bnd)
    sigma = dict(R.sigma, c=Graph([pi[n] for n in bnd], ()))
    P = Painting(list(pi), cells, rot, P.outer)
    assert validate_painting(P) == []
    return Rendition(P, sigma, pi, R.omega)


def test_replace_cells_two_cells_a_new_node_and_a_freed_node():
    w = rendition._Work(ring_with_cell(("n1", "n3", "x")))
    w.nodes.append("q")
    w.pi["q"] = "vq"
    P = w.replace_cells({"r1": {"a": ("n1", "q"), "b": ("q", "n2")},
                         "c": {"d": ("n1", "n3")}})
    assert validate_painting(P) == []
    assert P.rotations["n1"] == ("r6", "d", "a")
    assert P.rotations["n2"] == ("b", "r2")
    assert P.rotations["n3"] == ("r2", "d", "r3")
    # the new node gets its cells in the order given
    assert P.rotations["q"] == ("a", "b")
    # x met c only, so it stops being a node
    assert "x" not in P.nodes and "x" not in w.pi and "x" not in w.rotations
    assert set(P.cells) == {"a", "b", "d", "r2", "r3", "r4", "r5", "r6"}
    assert "r1" not in w.sigma and "c" not in w.sigma
    assert w.painting().rotations == P.rotations


def test_replace_cells_searches_the_insertion_orders():
    # two parallel chords: sorted order at both ends is not planar
    G, R = ring_rendition([("c", ("n1", "n4"), Graph((), [("v1", "v4")]))])
    w = rendition._Work(R)
    first = dict(w.rotations, n1=["r6", "e", "f", "r1"],
                 n4=["r3", "e", "f", "r4"])
    cells = {k: v for k, v in w.cells.items() if k != "c"}
    assert validate_painting(Painting(
        w.nodes, dict(cells, e=("n1", "n4"), f=("n1", "n4")), first,
        w.outer))
    P = w.replace_cells({"c": {"e": ("n1", "n4"), "f": ("n1", "n4")}})
    assert validate_painting(P) == []
    assert P.rotations["n1"] == ("r6", "e", "f", "r1")
    assert P.rotations["n4"] == ("r3", "f", "e", "r4")
    assert "c" not in w.sigma


def test_replace_cells_without_a_planar_order_raises():
    # two 3-node cells on the same three ring nodes, with the ring on the
    # outer face, hold a K_{3,3}
    w = rendition._Work(ring_with_cell(("n1", "n5", "n3")))
    bnd = ("n1", "n5", "n3")
    with pytest.raises(InternalError) as exc:
        w.replace_cells({"c": {"k1": bnd, "k2": bnd}})
    assert exc.value.witness == ["c"]
