import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwall.errors import InputError
from flatwall.flatness import (FlatnessPair, classify_cells, cycle_runs,
                               flaps, generate_fixture, influence,
                               influence_union, is_regular, short_edges,
                               untidy_cells, validate_flatness)
from flatwall.graph import Graph, vkey
from flatwall.painting import Painting, trace_normal_cycle
from flatwall.rendition import Rendition, check_tightness
from flatwall.tilt import compute_tilt
from flatwall.wall import (PegsCorners, Wall, admits_pegs_corners,
                           interior, is_tilt, temp_hpath,
                           temp_perimeter, temp_vpath)

from oracles import enumerate_subwalls, trace_by_union_find


def influence_by_union_find(F, cyc):
    """The cells the cycle runs through or encloses, by the union-find."""
    runs, flags, _ = cycle_runs(F, cyc)
    t = trace_by_union_find(F.rendition.painting, runs, flags)
    return t.inside_cells | {c for _, c, _ in runs}


def test_base_fixture_valid_and_regular():
    G, F = generate_fixture(0, 3)
    assert validate_flatness(G, F) == []
    assert is_regular(F)


def test_base_fixture_strict_pegs():
    G, F = generate_fixture(0, 3)
    assert admits_pegs_corners(F.wall, F.pegs_corners)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="validate_flatness does not check that some "
                          "elementary presentation admits the corners")
def test_corners_no_presentation_admits_are_a_violation():
    # moving a corner onto a non-corner peg keeps P and |C|, and the chain
    # C <= P <= X cap Y <= V(D(W)), but no elementary presentation of the
    # wall has these corners
    G, F = generate_fixture(0, 5)
    pc = F.pegs_corners
    corner = min(pc.corners, key=str)
    peg = min(pc.pegs - pc.corners, key=str)
    moved = PegsCorners(pc.pegs, (pc.corners - {corner}) | {peg})
    assert not admits_pegs_corners(F.wall, moved)
    bad = FlatnessPair(F.wall, F.X, F.Y, moved, F.rendition)
    assert validate_flatness(G, bad) != []


def test_fixture_deterministic():
    g1, f1 = generate_fixture(7, 3, "with-flaps")
    g2, f2 = generate_fixture(7, 3, "with-flaps")
    assert g1.edge_set == g2.edge_set
    assert f1.rendition.key() == f2.rendition.key()


@pytest.mark.parametrize("seed, r", [(86, 3), (2723, 3), (19, 5), (4215, 5)])
def test_combined_star_on_untidy_vertex_moves_over(seed, r):
    # each draw puts a star flap on the middle vertex of the untidy site, in
    # the brick the untidy cell cuts that vertex off from
    G, F = generate_fixture(seed, r, "combined")
    assert validate_flatness(G, F) == []
    assert untidy_cells(F)
    assert any(str(cid).startswith("c|star|")
               for cid in F.rendition.painting.cells)


def test_unknown_profile_rejected():
    with pytest.raises(InputError):
        generate_fixture(0, 3, "no-such-profile")


def test_flap_bases_cover_ground():
    G, F = generate_fixture(1, 5, "with-flaps")
    got = set()
    for fl in flaps(F).values():
        got |= fl.base
    assert got == F.ground()


def test_short_edges_are_trivial_flaps():
    G, F = generate_fixture(3, 3)
    fs = flaps(F)
    want = {f.graph.edges[0] for f in fs.values() if f.trivial}
    assert short_edges(F) == want
    assert want  # the generator leaves some segments unsubdivided


def test_base_classification_counts():
    G, F = generate_fixture(2, 5)
    classes = classify_cells(F, F.wall)
    assert set(classes) == set(F.rendition.painting.cells)
    kinds = [cc.kind for cc in classes.values()]
    assert kinds.count("inner-perimetric") == len(temp_perimeter(5))
    assert kinds.count("external") == 0
    assert kinds.count("outer-perimetric") == 0
    assert not any(cc.marginal or cc.untidy for cc in classes.values())


def test_star_flaps_classify_internal():
    G, F = generate_fixture(4, 5, "with-flaps")
    classes = classify_cells(F, F.wall)
    stars = [cid for cid in classes if str(cid).startswith("c|star")]
    assert stars
    assert all(classes[cid].kind == "internal" for cid in stars)
    assert is_regular(F)


def test_untidy_fixture():
    G, F = generate_fixture(5, 5, "with-untidy")
    assert validate_flatness(G, F) == []
    bad = untidy_cells(F)
    assert len(bad) == 1
    cid = next(iter(bad))
    classes = classify_cells(F, F.wall)
    assert classes[cid].kind == "internal"
    assert classes[cid].untidy
    assert not is_regular(F)


def test_untidy_midsegment_fixture():
    G, F = generate_fixture(6, 5, "with-untidy2")
    assert validate_flatness(G, F) == []
    bad = untidy_cells(F)
    assert len(bad) == 1
    cid = next(iter(bad))
    classes = classify_cells(F, F.wall)
    assert classes[cid].kind == "internal"
    assert classes[cid].untidy and not classes[cid].marginal
    assert not is_regular(F)
    # the flagged ground vertex is not a 3-branch of the wall
    z = next(v for v in F.rendition.pi_boundary(cid)
             if F.wall.graph.degree(v) == 2 and v not in F.wall.perimeter_set)
    assert z in F.ground()


def test_untidy_midsegment_flags_subwall_runs():
    G, F = generate_fixture(6, 5, "with-untidy2")
    cid = next(iter(untidy_cells(F)))
    z = next(v for v in F.rendition.pi_boundary(cid)
             if v in F.wall.graph and F.wall.graph.degree(v) == 2
             and v not in F.wall.perimeter_set)
    touched = {z} | set(F.wall.graph.neighbors(z))
    hits = 0
    for _, _, S in enumerate_subwalls(F.wall, 3):
        if not touched <= S.perimeter_set:
            continue
        runs, flags, _ = cycle_runs(F, S.perimeter)
        for (p, c, q), fl in zip(runs, flags):
            if c == cid:
                assert fl
                hits += 1
    assert hits > 0


def test_marginal_fixture():
    G, F = generate_fixture(7, 5, "with-marginal")
    assert validate_flatness(G, F) == []
    classes = classify_cells(F, F.wall)
    marg = [cid for cid, cc in classes.items() if cc.marginal]
    assert len(marg) == 1
    assert classes[marg[0]].kind == "outer-perimetric"
    helpers = set(F.rendition.painting.cells) - set(classes)
    assert len(helpers) == 1
    assert not is_regular(F)


def test_external_fixture():
    G, F = generate_fixture(8, 5, "with-external")
    assert validate_flatness(G, F) == []
    classes = classify_cells(F, F.wall)
    ext = set(F.rendition.painting.cells) - set(classes)
    assert len(ext) == 2
    assert not is_regular(F)
    assert all(cid not in influence(F, F.wall) for cid in ext)


def test_combined_fixture_has_every_defect():
    G, F = generate_fixture(9, 5, "combined")
    assert validate_flatness(G, F) == []
    classes = classify_cells(F, F.wall)
    assert set(classes) < set(F.rendition.painting.cells)
    assert any(cc.marginal for cc in classes.values())
    assert untidy_cells(F)


def test_influence_excludes_exactly_external():
    G, F = generate_fixture(10, 5, "combined")
    classes = classify_cells(F, F.wall)
    infl = influence(F, F.wall)
    for cid in F.rendition.painting.cells:
        assert (cid in infl) == (cid in classes)
    assert set(infl) == influence_by_union_find(F, F.wall.perimeter)
    U = influence_union(F, F.wall)
    assert F.wall.graph.edge_set <= U.edge_set


def test_classification_memoized():
    G, F = generate_fixture(11, 3)
    assert classify_cells(F, F.wall) is classify_cells(F, F.wall)


def _cold_wall(W):
    return Wall(W.height, W.branch_coords, W.seg_paths)


def _cold_interior(W):
    """interior(W) from scratch, by graph surgery on the wall."""
    G = W.graph
    per = W.expand_cycle(temp_perimeter(W.height))
    H = G.remove_edges(zip(per, per[1:] + per[:1]))
    return H.remove_vertices({v for v in per if G.degree(v) == 2})


def _assert_wall_memos_match(W):
    cold = _cold_wall(W)
    r = W.height
    for i in range(1, r + 1):
        assert W.horizontal_path(i) == cold.expand(temp_hpath(r, i))
        assert W.vertical_path(i) == cold.expand(temp_vpath(r, i))
    per = cold.expand_cycle(temp_perimeter(r))
    assert W.perimeter == per
    assert W.perimeter_set == frozenset(per)
    assert W.perimeter_edges == {tuple(sorted(e, key=vkey))
                                 for e in zip(per, per[1:] + per[:1])}
    assert W.validate() == cold.validate() == []
    assert interior(W) == _cold_interior(cold)


@pytest.mark.parametrize("seed, height, profile",
                         [(0, 7, "with-flaps"), (0, 5, "with-untidy")])
def test_memoized_invariants_match_cold_copies(seed, height, profile):
    G, F = generate_fixture(seed, height, profile)
    R = F.rendition
    P = R.painting
    H = G.subgraph(F.Y)
    cold_R = Rendition(P, {c: Graph(g.vertices, g.edges)
                           for c, g in R.sigma.items()}, R.pi, R.omega)
    assert (check_tightness(H, R).violations
            == check_tightness(H, cold_R).violations)
    _assert_wall_memos_match(F.wall)
    whole = _cold_interior(F.wall)
    for i, (_, _, S) in enumerate(enumerate_subwalls(F.wall, 3)):
        cold_P = Painting(P.nodes, P.cells, P.rotations, P.outer)
        cold = FlatnessPair(F.wall, F.X, F.Y, F.pegs_corners,
                            Rendition(cold_P, R.sigma, R.pi, R.omega))
        assert classify_cells(F, S) == classify_cells(cold, S)
        runs, flags, _ = cycle_runs(F, S.perimeter)
        assert (trace_normal_cycle(P, runs, flags)
                == trace_normal_cycle(cold_P, runs, flags))
        assert untidy_cells(F) == untidy_cells(cold)
        assert is_tilt(S, F.wall) == (_cold_interior(S) == whole)
        if i % 40 == 0:
            _assert_wall_memos_match(S)
            T = compute_tilt(G, F, S).wall
            assert is_tilt(T, S) and is_tilt(S, T)
            assert is_tilt(T, S) == (_cold_interior(_cold_wall(T))
                                     == _cold_interior(_cold_wall(S)))


def test_validation_memo_ignores_recycled_graph_ids():
    G, F = generate_fixture(0, 3)
    assert validate_flatness(G, F) == []
    dropped = F.wall.graph.edges[0]
    vertices = G.vertices
    edges = [e for e in G.edges if e != dropped]
    stale = id(G)
    del G
    # CPython hands a freed slot to the next object of the same size; keep
    # each miss alive so that every retry gets a fresh slot
    held = []
    for _ in range(1000):
        H = Graph(vertices, edges)
        if id(H) == stale:
            break
        held.append(H)
    assert any("missing from G" in p for p in validate_flatness(H, F))
    # with two wall edges gone, the one named is the lesser by ekey
    lesser, greater = F.wall.graph.edges[3], F.wall.graph.edges[7]
    H2 = Graph(vertices, [e for e in edges + [dropped]
                          if e not in (lesser, greater)])
    missing = [p for p in validate_flatness(H2, F) if "missing from G" in p]
    assert missing == [f"wall edge {lesser[0]}-{lesser[1]} missing from G"]


def test_cycle_input_errors():
    G, F = generate_fixture(12, 3)
    per = F.wall.perimeter
    with pytest.raises(InputError):
        cycle_runs(F, per[:2])
    with pytest.raises(InputError):
        cycle_runs(F, (per[0], per[1], "not-a-vertex"))


def test_validation_catches_tampering():
    G, F = generate_fixture(13, 3)
    peg = next(iter(F.pegs_corners.pegs))
    broken = FlatnessPair(F.wall, F.X - {peg}, F.Y, F.pegs_corners,
                          F.rendition)
    assert validate_flatness(G, broken)
    broken = FlatnessPair(F.wall, F.X, F.Y - {peg}, F.pegs_corners,
                          F.rendition)
    assert validate_flatness(G, broken)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10000))
def test_generated_pairs_always_validate(seed):
    rng = random.Random(seed)
    profile = rng.choice(["base", "with-flaps", "with-untidy", "with-untidy2",
                          "with-marginal", "with-external", "combined"])
    r = rng.choice([3, 5])
    G, F = generate_fixture(seed, r, profile)
    assert validate_flatness(G, F) == []
    classes = classify_cells(F, F.wall)
    assert set(classes) == influence_by_union_find(F, F.wall.perimeter)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2000))
def test_subwalls_classify_without_error(seed):
    rng = random.Random(seed)
    profile = rng.choice(["base", "with-flaps", "with-untidy"])
    G, F = generate_fixture(seed, 5, profile)
    subs = list(enumerate_subwalls(F.wall, 3))
    _, _, S = subs[rng.randrange(len(subs))]
    classes = classify_cells(F, S)
    assert set(classes) == influence_by_union_find(F, S.perimeter)
    assert set(influence(F, S)) <= set(influence(F, F.wall))
