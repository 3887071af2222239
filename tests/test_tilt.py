import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flatwall.tilt
from flatwall.errors import InputError, InternalError
from flatwall.flatness import (classify_cells, generate_fixture, influence_union,
                               is_regular, untidy_cells, validate_flatness)
from flatwall.graph import Graph
from flatwall.tilt import (TiltResult, _splice_wall, compute_tilt,
                           regularize, repair_untidy, stretching, tilt_main)
from flatwall.wall import is_tilt

from oracles import enumerate_subwalls

DEFECTS = ["with-untidy", "with-untidy2", "with-marginal", "with-external",
           "combined"]


# -- stretchings -----------------------------------------------------------


def path_graph(names):
    return Graph((), zip(names, names[1:]))


def test_stretching_of_a_bare_path_is_one_piece():
    g = path_graph("abcde")
    s = stretching(g, "a", "e")
    assert s.r == 1
    assert s.junctions == ()
    assert s.pieces == (("a", "b", "c", "d", "e"),)
    assert s.path() == ("a", "b", "c", "d", "e")


def test_stretching_splits_at_high_degree_vertices():
    g = path_graph("abcde").add_edges([("c", "z"), ("z", "w")])
    s = stretching(g, "a", "e")
    assert s.r == 2
    assert s.junctions == ("c",)
    assert s.pieces == (("a", "b", "c"), ("c", "d", "e"))


def test_stretching_piece_overlap_rules():
    g = path_graph("abcdefg").add_edges([("c", "x"), ("e", "y")])
    s = stretching(g, "a", "g")
    assert s.r == 3
    for i in range(s.r):
        for j in range(i + 1, s.r):
            common = set(s.pieces[i]) & set(s.pieces[j])
            if j == i + 1:
                assert common == {s.junctions[i]}
            else:
                assert common == set()


def test_stretching_rejects_degenerate_input():
    g = path_graph("ab")
    with pytest.raises(InputError):
        stretching(g, "a", "a")


def test_stretching_deterministic():
    g = path_graph("abcde").add_edges([("a", "x"), ("x", "e"), ("x", "q")])
    assert stretching(g, "a", "e") == stretching(g, "a", "e")


# -- wall splicing ---------------------------------------------------------


def test_splice_identity_roundtrip():
    G, F = generate_fixture(0, 3)
    W = F.wall
    per = W.perimeter
    seg = list(per[:4])
    W2 = _splice_wall(W, seg, seg)
    assert W2.graph.edge_set == W.graph.edge_set
    assert W2.branch_coords == W.branch_coords


def test_splice_reroute_detour():
    G, F = generate_fixture(0, 3)
    W = F.wall
    # replace one perimeter edge by a two-edge detour through a fresh vertex
    u, v = W.perimeter[0], W.perimeter[1]
    W2 = _splice_wall(W, [u, v], [u, "detour", v])
    assert W2.validate() == []
    assert ("detour" in W2.graph)
    assert is_tilt(W2, W)


# -- untidy repair ---------------------------------------------------------


def test_repair_branch_vertex_case():
    G, F = generate_fixture(5, 5, "with-untidy")
    assert untidy_cells(F)
    out = repair_untidy(G, F)
    assert not untidy_cells(out)
    assert out.rendition is F.rendition
    assert out.wall.height == F.wall.height
    assert out.wall.validate() == []
    assert validate_flatness(G, out) == []


def test_repair_midsegment_case():
    G, F = generate_fixture(6, 5, "with-untidy2")
    cid = next(iter(untidy_cells(F)))
    z = next(v for v in F.rendition.pi_boundary(cid)
             if v in F.wall.graph and F.wall.graph.degree(v) == 2
             and v not in F.wall.perimeter_set)
    out = repair_untidy(G, F)
    assert not untidy_cells(out)
    # the doubled ground vertex leaves the wall but stays in the compass
    assert z not in out.wall.graph
    assert z in out.compass()
    assert validate_flatness(G, out) == []


def test_repair_is_noop_on_tidy_pairs():
    G, F = generate_fixture(1, 3)
    assert repair_untidy(G, F) is F


# -- the main construction -------------------------------------------------


def test_trivial_tilt_on_base_fixture():
    G, F = generate_fixture(2, 3)
    res = tilt_main(G, F, F.wall)
    assert is_tilt(res.wall, F.wall)
    assert res.provenance == {}
    assert validate_flatness(G, res.pair, lenient_pegs=True) == []


def test_tilt_cuts_marginal_cell():
    G, F = generate_fixture(7, 5, "with-marginal")
    classes = classify_cells(F, F.wall)
    marg = next(cid for cid, cc in classes.items() if cc.marginal)
    res = tilt_main(G, F, F.wall)
    srcs = {src for src, _ in res.provenance.values()}
    assert srcs == {marg}
    assert len(res.provenance) == 2      # the run splits into two pieces
    classes2 = classify_cells(res.pair, res.pair.wall)
    assert set(classes2) == set(res.pair.rendition.painting.cells)
    assert all(cc.kind in ("internal", "inner-perimetric")
               for cc in classes2.values())
    for nid in res.provenance:
        assert len(res.pair.rendition.painting.cells[nid]) == 2


def test_tilt_drops_external_cells():
    G, F = generate_fixture(8, 5, "with-external")
    res = tilt_main(G, F, F.wall)
    classes = classify_cells(res.pair, res.pair.wall)
    assert set(classes) == set(res.pair.rendition.painting.cells)
    comp = res.pair.compass()
    old = F.compass()
    assert comp.vertex_set < old.vertex_set


def test_tilt_preserves_internal_flaps():
    G, F = generate_fixture(4, 5, "with-flaps")
    res = compute_tilt(G, F, F.wall)
    for cid in res.kept_internal:
        assert res.pair.rendition.sigma[cid].edge_set == \
            F.rendition.sigma[cid].edge_set


def test_tilt_of_regular_pair_is_regular():
    G, F = generate_fixture(3, 5, "with-flaps")
    assert is_regular(F)
    subs = list(enumerate_subwalls(F.wall, 3))
    _, _, S = subs[len(subs) // 2]
    res = compute_tilt(G, F, S)
    assert is_regular(res.pair)
    assert is_tilt(res.wall, S)


def test_irregular_tilt_of_a_regular_pair_raises(monkeypatch):
    G, F = generate_fixture(0, 5)
    _, untidy = generate_fixture(0, 5, "with-untidy")
    assert is_regular(F) and not is_regular(untidy)
    monkeypatch.setattr(flatwall.tilt, "tilt_main",
                        lambda G, F, Wp: TiltResult(untidy, {}, frozenset()))
    with pytest.raises(InternalError,
                       match="tilt of a regular pair came out irregular"):
        compute_tilt(G, F, F.wall)
    # an irregular source may give an irregular tilt
    assert compute_tilt(G, untidy, untidy.wall).pair is untidy


def test_tilt_compass_in_influence():
    G, F = generate_fixture(9, 5, "with-flaps")
    subs = list(enumerate_subwalls(F.wall, 3))
    _, _, S = subs[0]
    res = compute_tilt(G, F, S)
    U = influence_union(F, S)
    comp = res.pair.compass()
    assert comp.vertex_set <= U.vertex_set
    assert comp.edge_set <= U.edge_set


# -- regularization --------------------------------------------------------


@pytest.mark.parametrize("profile", DEFECTS)
def test_regularize_each_defect_profile(profile):
    G, F = generate_fixture(17, 5, profile)
    assert not is_regular(F)
    out = regularize(G, F)
    assert is_regular(out)
    assert out.wall.height == F.wall.height
    new, old = out.compass(), F.compass()
    assert new.vertex_set <= old.vertex_set
    assert new.edge_set <= old.edge_set
    assert validate_flatness(G, out, lenient_pegs=True) == []


def test_regularize_idempotent_shape():
    G, F = generate_fixture(21, 5, "combined")
    once = regularize(G, F)
    twice = regularize(G, once)
    assert twice.rendition.key() == once.rendition.key()
    assert twice.wall.graph.edge_set == once.wall.graph.edge_set


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 5000))
def test_regularize_random_fixtures(seed):
    rng = random.Random(seed)
    profile = rng.choice(DEFECTS)
    G, F = generate_fixture(seed, 5, profile)
    out = regularize(G, F)
    assert is_regular(out)
    assert validate_flatness(G, out, lenient_pegs=True) == []


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 5000))
def test_subwall_tilts_random(seed):
    rng = random.Random(seed)
    G, F = generate_fixture(seed, 5, rng.choice(["base", "with-flaps"]))
    subs = list(enumerate_subwalls(F.wall, 3))
    _, _, S = subs[rng.randrange(len(subs))]
    res = compute_tilt(G, F, S)
    assert is_tilt(res.wall, S)
    assert is_regular(res.pair)
