import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwall import leveling
from flatwall.errors import CapacityError, InputError, InternalError
from flatwall.flatness import (PROFILES, generate_fixture, is_regular,
                               short_edges)
from flatwall.graph import Graph
from flatwall.leveling import (is_well_aligned, leveling_graph, representation,
                               w_bullet)
from flatwall.serialize import canonical_bytes, representation_to_json
from flatwall.tilt import regularize

from oracles import candidates_by_scan, components_by_scan

DEFECTS = ["with-untidy", "with-untidy2", "with-marginal", "with-external",
           "combined"]


def test_w_bullet_subdivides_exactly_short_wall_edges():
    G, F = generate_fixture(0, 5, "with-flaps")
    wb = w_bullet(F)
    wedges = F.wall.graph.edge_set
    short = {e for e in short_edges(F) if e in wedges}
    assert wb.n == F.wall.graph.n + len(short)
    for e in short:
        assert e not in wb.edge_set
    for e in wedges - short:
        assert e in wb.edge_set


def test_w_bullet_without_short_edges_is_the_wall():
    G, F = generate_fixture(1, 3)
    wb = w_bullet(F)
    wedges = F.wall.graph.edge_set
    short = {e for e in short_edges(F) if e in wedges}
    extra = wb.n - F.wall.graph.n
    assert extra == len(short)


def test_leveling_is_bipartite_incidence_graph():
    G, F = generate_fixture(2, 5, "with-flaps")
    lv = leveling_graph(F)
    R = F.rendition
    for cid, v in lv.vflaps.items():
        nb = set(lv.graph.neighbors(v))
        assert nb == R.pi_boundary(cid)
        assert lv.graph.degree(v) <= 3
    for u, v in lv.graph.edges:
        assert (u in lv.ground) != (v in lv.ground)
    assert lv.ground == F.ground()
    assert set(lv.boundary) == set(R.omega)


def test_leveling_ground_part_size():
    G, F = generate_fixture(3, 3)
    lv = leveling_graph(F)
    assert len(lv.ground) == len(F.rendition.pi)


def test_representation_on_base_fixture():
    G, F = generate_fixture(4, 5)
    rep = representation(F)
    assert rep.wall.height == 5
    assert rep.wall.validate() == []
    for x in F.wall.graph.vertices:
        if x in F.ground():
            assert rep.rho.get(x) == x


def test_representation_requires_regular():
    G, F = generate_fixture(5, 5, "with-marginal")
    with pytest.raises(InputError):
        representation(F)


def test_tau_edges_match_rho_endpoints():
    G, F = generate_fixture(6, 5, "with-flaps")
    rep = representation(F)
    for e, path in rep.tau.items():
        u, v = e
        assert {path[0], path[-1]} == {rep.rho[u], rep.rho[v]}
        assert len(path) >= 2


def test_tau_concatenation_reconstructs_w_bullet():
    G, F = generate_fixture(7, 5, "with-flaps")
    rep = representation(F)
    wb = w_bullet(F)
    edges = []
    for path in rep.tau.values():
        edges.extend(zip(path, path[1:]))
    got = Graph((), edges)
    assert got.vertex_set == wb.vertex_set
    assert got.edge_set == wb.edge_set


def test_representation_wall_lives_in_leveling():
    G, F = generate_fixture(8, 5)
    rep = representation(F)
    lv = leveling_graph(F)
    assert rep.wall.graph.vertex_set <= lv.graph.vertex_set
    assert rep.wall.graph.edge_set <= lv.graph.edge_set


def test_regular_pairs_are_well_aligned():
    G, F = generate_fixture(9, 5, "with-flaps")
    assert is_regular(F)
    assert is_well_aligned(F) is True


def test_planted_fixture_not_well_aligned():
    G, F = generate_fixture(10, 5, "non-well-aligned")
    assert not is_regular(F)
    assert is_well_aligned(F) is False


@pytest.mark.parametrize("profile", DEFECTS)
def test_defect_profiles_not_well_aligned(profile):
    G, F = generate_fixture(11, 5, profile)
    verdict = is_well_aligned(F)
    assert verdict is False or verdict == "unknown"


def check_representation(F, rep):
    """rep is a wall whose rho fixes the ground and whose tau paths
    rebuild W-bullet exactly."""
    assert rep.wall.validate() == []
    wb = w_bullet(F)
    for x in F.ground():
        if x in wb.vertex_set:
            assert rep.rho.get(x) == x
    edges = []
    for path in rep.tau.values():
        edges.extend(zip(path, path[1:]))
    got = Graph((), edges)
    assert got.edge_set == wb.edge_set
    assert got.vertex_set == wb.vertex_set


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 4000))
def test_regularized_fixtures_always_represent(seed):
    rng = random.Random(seed)
    profile = rng.choice(DEFECTS)
    G, F = generate_fixture(seed, 5, profile)
    out = regularize(G, F)
    check_representation(out, representation(out))


def test_representation_at_height_21():
    # 1279 components, 1277 of them with one candidate: one level each
    G, F = generate_fixture(0, 21, "with-flaps")
    out = regularize(G, F)
    check_representation(out, representation(out))


def _rep_bytes(F):
    return canonical_bytes(representation_to_json(representation(F)))


def _search_on_scans(monkeypatch):
    """Make the search read the per-component scans of `oracles`, and
    assert at every call that the indexed versions agree with them."""
    indexed_comps = leveling._components_of_bullet
    indexed_cands = leveling._candidates
    build_index = leveling._Index

    def comps(F, Wb):
        got = components_by_scan(F, Wb)
        assert indexed_comps(F, Wb) == got
        return got

    def cands(pair_and_index, comp):
        F, ix = pair_and_index
        got = candidates_by_scan(F, comp)
        assert indexed_cands(ix, comp) == got
        return got

    monkeypatch.setattr(leveling, "_components_of_bullet", comps)
    monkeypatch.setattr(leveling, "_Index", lambda F: (F, build_index(F)))
    monkeypatch.setattr(leveling, "_candidates", cands)


@pytest.mark.parametrize("height", [5, 7, 9])
@pytest.mark.parametrize("profile", PROFILES)
def test_indexed_search_matches_the_scan(profile, height, monkeypatch):
    pairs = [(F, regularize(G, F)) for G, F in
             (generate_fixture(seed, height, profile) for seed in range(4))]
    indexed = [(_rep_bytes(out), is_well_aligned(F)) for F, out in pairs]
    _search_on_scans(monkeypatch)
    scanned = [(_rep_bytes(out), is_well_aligned(F)) for F, out in pairs]
    assert scanned == indexed


@pytest.mark.parametrize("seed", range(40))
def test_indexed_candidates_match_the_scan_on_shared_boundaries(seed):
    # generated pairs give at most one candidate besides the own flap, so
    # the order of the others, the `attachments <= boundary` filter and the
    # first cell holding a vertex are checked here: a dozen cells on six
    # ground vertices, with ids whose str order differs from sigma order and
    # inner vertices that several cells may hold
    rng = random.Random(seed)
    ground = list(range(6))
    sigma, bounds = {}, {}
    for cid in rng.sample(list(range(1, 30)) + ["c3", "c20"], 12):
        b = sorted(rng.sample(ground, rng.choice([1, 2, 2, 3, 3])))
        if len(b) == 2 and rng.random() < 0.3:
            g = Graph(b, [tuple(b)])
        else:
            g = Graph(b, [(("x", rng.randrange(8)), y) for y in b])
        sigma[cid], bounds[cid] = g, frozenset(b)
    F = SimpleNamespace(
        rendition=SimpleNamespace(sigma=sigma, pi_boundary=bounds.__getitem__),
        ground=lambda: frozenset(ground))
    ix = leveling._Index(F)
    for _ in range(30):
        att = tuple(sorted(rng.sample(ground, rng.choice([2, 3]))))
        if rng.random() < 0.3:
            vs = frozenset([("s",) + tuple(sorted(rng.sample(ground, 2)))])
        else:
            vs = frozenset([("x", rng.randrange(9))])
        comp = leveling._Component(vs, att, None, {})
        assert leveling._candidates(ix, comp) == candidates_by_scan(F, comp)


@pytest.mark.parametrize("seed, height", [(0, 3), (2, 3), (1, 5)])
def test_search_visits_distinct_labellings_in_order(seed, height, monkeypatch):
    # every leaf, in order: the product of the option lists with no flap
    # used twice, components with fewer options first
    G, F = generate_fixture(seed, height, "with-flaps")
    comps, _ = leveling._components_of_bullet(F, w_bullet(F))
    ix = leveling._Index(F)
    cands = sorted(((c, leveling._candidates(ix, c)) for c in comps),
                   key=lambda t: len(t[1]))
    want = [combo for combo in itertools.product(*(o for _, o in cands))
            if len(set(combo)) == len(combo)]
    assert len(want) > 1
    seen = []
    monkeypatch.setattr(leveling, "_build", lambda label, *rest: seen.append(
        tuple(label[c.vertices] for c, _ in cands)))
    assert leveling._search(F, limit=len(want)) is None
    assert seen == want
    seen.clear()
    with pytest.raises(CapacityError):
        leveling._search(F, limit=len(want) - 1)
    assert seen == want[:-1]


def test_exhausted_search_is_a_capacity_error(monkeypatch):
    G, F = generate_fixture(9, 5, "with-flaps")
    assert is_regular(F)
    search = leveling._search
    monkeypatch.setattr(leveling, "_search", lambda F, limit: search(F, 0))
    with pytest.raises(CapacityError):
        representation(F)
    assert is_well_aligned(F) == "unknown"


def test_finished_search_without_representation_is_internal(monkeypatch):
    G, F = generate_fixture(9, 5, "with-flaps")
    monkeypatch.setattr(leveling, "_build", lambda *args: None)
    with pytest.raises(InternalError):
        representation(F)
    with pytest.raises(InternalError):
        is_well_aligned(F)


def test_well_alignment_of_a_regular_pair_keeps_the_limit():
    G, F = generate_fixture(9, 5, "with-flaps")
    assert is_regular(F)
    assert is_well_aligned(F, limit=0) == "unknown"
    assert is_well_aligned(F) is True
