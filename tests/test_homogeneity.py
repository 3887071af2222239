import itertools
import random
import time

import pytest

from flatwall import homogeneity, wall
from flatwall.errors import InputError, InternalError
from flatwall.flatness import (PROFILES, FlatnessPair, generate_fixture,
                               influence)
from flatwall.homogeneity import (FlapColoring, example_coloring,
                                  find_homogeneous, h, is_homogeneous,
                                  palette)
from flatwall.painting import Painting
from flatwall.rendition import Rendition
from flatwall.serialize import canonical_bytes, pair_to_json
from flatwall.tilt import TiltResult, compute_tilt
from flatwall.wall import subwall, subwall_selections, temp_brick

from oracles import (enumerate_subwalls, find_homogeneous_by_building,
                     find_homogeneous_by_tilting, palettes_by_building)


def constant_coloring(F, w=1):
    return FlapColoring({cid: 1 for cid in F.rendition.sigma}, w)


def one_color_per_cell(F):
    cids = sorted(F.rendition.sigma, key=str)
    return FlapColoring({cid: i for i, cid in enumerate(cids, 1)}, len(cids))


def test_h_base_and_recurrence_values():
    assert h(3, 1) == 3
    assert h(3, 2) == 7
    assert h(5, 2) == 21
    assert h(5, 3) == 101


def test_h_values_are_odd():
    for r in (3, 5, 7):
        for w in (1, 2, 3, 4):
            assert h(r, w) % 2 == 1


def test_h_rejects_bad_parameters():
    with pytest.raises(InputError):
        h(4, 2)
    with pytest.raises(InputError):
        h(3, 0)


def test_palette_of_constant_coloring():
    G, F = generate_fixture(0, 5)
    zeta = constant_coloring(F)
    for brick in F.wall.internal_bricks():
        assert palette(F, zeta, brick) == frozenset({1})


def test_palette_matches_influence_colors():
    G, F = generate_fixture(1, 5, "with-flaps")
    colors = {cid: 1 + (i % 3)
              for i, cid in enumerate(sorted(F.rendition.sigma, key=str))}
    zeta = FlapColoring(colors, 3)
    brick = F.wall.internal_bricks()[0]
    assert palette(F, zeta, brick) == \
        frozenset(colors[cid] for cid in influence(F, brick))


def test_palette_monotone_under_perimeter():
    G, F = generate_fixture(2, 5, "with-flaps")
    zeta = example_coloring(F, 3)
    outer = palette(F, zeta, F.wall.perimeter)
    for brick in F.wall.internal_bricks():
        assert palette(F, zeta, brick) <= outer


def test_single_color_always_homogeneous():
    G, F = generate_fixture(3, 5, "with-flaps")
    assert is_homogeneous(F, constant_coloring(F))


def test_three_wall_always_homogeneous():
    # a 3-wall has no brick disjoint from its perimeter
    G, F = generate_fixture(4, 3)
    assert F.wall.internal_bricks() == []
    assert is_homogeneous(F, example_coloring(F, 4))


def test_inhomogeneous_detected():
    G, F = generate_fixture(5, 5, "with-flaps")
    bricks = F.wall.internal_bricks()
    special = set(influence(F, bricks[0])) - set(influence(F, bricks[-1]))
    assert special
    colors = {cid: (2 if cid in special else 1) for cid in F.rendition.sigma}
    assert not is_homogeneous(F, FlapColoring(colors, 2))


def test_coloring_validates_its_range():
    with pytest.raises(InputError):
        FlapColoring({"a": 5}, 2)
    with pytest.raises(InputError):
        FlapColoring({}, 0)


def test_find_homogeneous_constant_returns_first_subwall():
    G, F = generate_fixture(6, 3)
    zeta = constant_coloring(F)
    res = find_homogeneous(G, F, zeta, 3)
    rows, cols, first = next(iter(enumerate_subwalls(F.wall, 3)))
    assert res.wall.height == 3
    assert is_homogeneous(res.pair, zeta)


def test_find_homogeneous_rejects_short_walls():
    G, F = generate_fixture(7, 3)
    zeta = constant_coloring(F, w=2)
    with pytest.raises(InputError):
        find_homogeneous(G, F, zeta, 3)
    assert find_homogeneous(G, F, zeta, 3, allow_short=True) is not None


def test_failed_search_at_admissible_height_is_internal(monkeypatch):
    G, F = generate_fixture(0, 3)
    zeta = constant_coloring(F)
    assert F.height >= h(3, zeta.w)
    monkeypatch.setattr(homogeneity, "is_homogeneous", lambda *a, **k: False)
    with pytest.raises(InternalError, match="is not homogeneous"):
        find_homogeneous(G, F, zeta, 3)


def test_tilt_with_an_uncolored_brick_flap_is_internal(monkeypatch):
    # a tilt whose internal cell got a fresh id: the post-check meets a flap
    # zeta lacks, which is the library's fault (exit 4), not the input's
    G, F = generate_fixture(0, 5)
    zeta = constant_coloring(F)
    real_tilt = compute_tilt

    def renamed_tilt(G, F, S):
        res = real_tilt(G, F, S)
        R = res.pair.rendition
        brick = res.wall.internal_bricks()[0]
        old = min(influence(res.pair, brick), key=str)
        ren = {old: "fresh"}.get
        P = R.painting
        painting = Painting(
            P.nodes, {ren(c, c): b for c, b in P.cells.items()},
            {n: [ren(c, c) for c in rot] for n, rot in P.rotations.items()},
            P.outer)
        sigma = {ren(c, c): g for c, g in R.sigma.items()}
        pair = FlatnessPair(res.wall, res.pair.X, res.pair.Y,
                            res.pair.pegs_corners,
                            Rendition(painting, sigma, R.pi, R.omega))
        return TiltResult(pair, res.provenance, res.kept_internal)

    monkeypatch.setattr(homogeneity, "compute_tilt", renamed_tilt)
    with pytest.raises(InternalError, match="coloring misses") as info:
        find_homogeneous(G, F, zeta, 5)
    assert isinstance(info.value.__cause__, InputError)


def test_exhausted_search_at_admissible_height_is_internal(monkeypatch):
    G, F = generate_fixture(0, 5)
    zeta = constant_coloring(F)
    assert F.height >= h(5, zeta.w)
    fresh = itertools.count()
    monkeypatch.setattr(homogeneity, "palette",
                        lambda *a, **k: frozenset({next(fresh)}))
    with pytest.raises(InternalError, match="no homogeneous subwall"):
        find_homogeneous(G, F, zeta, 5)
    assert find_homogeneous(G, F, zeta, 5, allow_short=True) is None


def test_subwall_count_height7():
    G, F = generate_fixture(0, 7)
    assert sum(1 for _ in enumerate_subwalls(F.wall, 3)) == 35 * 35


def test_find_homogeneous_quadrant_coloring():
    G, F = generate_fixture(8, 7, "with-flaps")
    # flaps living entirely in the bottom-right quadrant get the odd color
    span = {v for cid in F.rendition.sigma
            for v in F.rendition.sigma[cid].vertex_set}
    names = {v: i for i, v in enumerate(sorted(span, key=str))}
    cut = len(names) * 2 // 3
    colors = {}
    for cid, g in F.rendition.sigma.items():
        colors[cid] = 2 if min(names[v] for v in g.vertex_set) >= cut else 1
    zeta = FlapColoring(colors, 2)
    res = find_homogeneous(G, F, zeta, 3)
    assert res.wall.height == 3
    pals = {palette(res.pair, zeta, b) for b in res.wall.internal_bricks()}
    assert len(pals) <= 1


def test_find_homogeneous_r5_nontrivial_bricks():
    G, F = generate_fixture(10, 7, "with-flaps")
    span = sorted({v for g in F.rendition.sigma.values()
                   for v in g.vertex_set}, key=str)
    names = {v: i for i, v in enumerate(span)}
    cut = len(names) * 4 // 5
    colors = {cid: (2 if min(names[v] for v in g.vertex_set) >= cut else 1)
              for cid, g in F.rendition.sigma.items()}
    zeta = FlapColoring(colors, 2)
    res = find_homogeneous(G, F, zeta, 5, allow_short=True)
    assert res is not None
    assert res.wall.height == 5
    bricks = res.wall.internal_bricks()
    assert bricks
    pals = {palette(res.pair, zeta, b) for b in bricks}
    assert len(pals) == 1


def test_tilt_palette_transfer():
    G, F = generate_fixture(9, 5, "with-flaps")
    subs = list(enumerate_subwalls(F.wall, 3))
    _, _, S = subs[len(subs) // 3]
    from flatwall.tilt import compute_tilt
    res = compute_tilt(G, F, S)
    new_bricks = res.pair.wall.internal_bricks()
    old_bricks = S.internal_bricks()
    for nb in new_bricks:
        got = frozenset(influence(res.pair, nb))
        assert any(got == frozenset(influence(F, ob)) for ob in old_bricks)


# `with-untidy2` is left out: some of its subwalls have a tilt that fails
# its own check (see test_untidy2_tilt_keeps_an_unheld_chord), so tilting
# every subwall would raise where the search tilts only the one it returns.
# A 3-wall has no internal brick, so at r = 3 both searches take the first
# subwall; at r = 5 they look at up to 88 subwalls of a seed-0 7-wall.
REFERENCE_CASES = [(seed, 7, profile, (3, 5) if seed == 0 else (3,))
                   for profile in PROFILES if profile != "with-untidy2"
                   for seed in range(3)]
REFERENCE_CASES.append((0, 9, "with-flaps", (5,)))


@pytest.mark.parametrize(
    "seed, height, profile, rs", REFERENCE_CASES,
    ids=lambda v: "r" + "+".join(map(str, v)) if isinstance(v, tuple) else None)
def test_search_matches_tilting_every_subwall(seed, height, profile, rs):
    G, F = generate_fixture(seed, height, profile)
    zeta = example_coloring(F, 2)
    for r in rs:
        got = find_homogeneous(G, F, zeta, r, allow_short=True)
        want = find_homogeneous_by_tilting(G, F, zeta, r)
        if want is None:
            assert got is None
        else:
            assert canonical_bytes(pair_to_json(G, got.pair)) == \
                canonical_bytes(pair_to_json(G, want.pair))
    # the invariant the search rests on: an internal brick of a subwall
    # has the same influence, so the same palette, in F and in the tilt
    fives = itertools.islice(enumerate_subwalls(F.wall, 5), 100)
    for _rows, _cols, S in fives:
        res = compute_tilt(G, F, S)
        bricks = S.internal_bricks()
        assert bricks and res.wall.internal_bricks() == bricks
        for b in bricks:
            assert set(influence(res.pair, b)) == set(influence(F, b))
            assert palette(res.pair, zeta, b) == palette(F, zeta, b)


def test_table_palettes_match_building_every_subwall():
    # every 5-subwall of a 9-wall, all 4 internal brick palettes of each
    G, F = generate_fixture(2, 9, "combined")
    cids = sorted(F.rendition.sigma, key=str)
    zeta = FlapColoring({c: 1 + (i * 7 // 3) % 3 for i, c in enumerate(cids)},
                        3)
    table = homogeneity._brick_palettes(F, zeta)
    verdicts = []
    for rows, cols, S in enumerate_subwalls(F.wall, 5):
        want = list(palettes_by_building(F, zeta, S))
        assert list(table(rows, cols)) == want, (rows, cols)
        verdicts.append(len(set(want)) == 1)
        assert homogeneity._all_equal(table(rows, cols)) == verdicts[-1]
    assert len(verdicts) == 7308 and 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("profile", PROFILES)
def test_subwall_brick_influence_is_the_union_of_its_parent_bricks(profile):
    # every brick of S, not only the internal ones, on random 5-subwalls
    G, F = generate_fixture(3, 9, profile)
    W = F.wall
    sels = random.Random(profile).sample(list(subwall_selections(W, 5)), 20)
    assert any(rows[1] % 2 for rows, _ in sels)
    for rows, cols in sels:
        S = subwall(W, rows, cols)
        for k in range(1, 5):
            for l in range(1, 5):
                m = 5 - l if rows[1] % 2 else l
                got = set()
                for y in range(rows[k - 1], rows[k]):
                    for x in range(cols[m - 1], cols[m]):
                        got |= set(influence(F, W.expand_cycle(
                            temp_brick(y, x))))
                want = set(influence(F, S.expand_cycle(temp_brick(k, l))))
                assert got == want, (rows, cols, k, l)


def test_missing_flap_raises_at_the_same_selection(monkeypatch):
    G, F = generate_fixture(0, 9, "with-flaps")
    zeta = one_color_per_cell(F)
    zeta = FlapColoring({c: k for c, k in zeta.colors.items()
                         if c != "c|13,6|14,6"}, zeta.w)
    seen = []
    real = wall.subwall_selections

    def recorded(W, r):
        for sel in real(W, r):
            seen.append(sel)
            yield sel

    monkeypatch.setattr(wall, "subwall_selections", recorded)
    monkeypatch.setattr(homogeneity, "subwall_selections", recorded)
    raised = []
    for search in (find_homogeneous_by_building,
                   lambda *a: find_homogeneous(*a, allow_short=True)):
        seen.clear()
        with pytest.raises(InputError, match="misses a flap") as info:
            search(G, F, zeta, 5)
        raised.append((len(seen), seen[-1], info.value.witness))
    assert raised[0] == raised[1]
    assert raised[0][0] > 1000          # deep in the lexicographic order


def test_failed_search_at_height_11_is_fast():
    # every palette differs, so no 5-subwall of the 11-wall passes
    G, F = generate_fixture(0, 11)
    start = time.perf_counter()
    assert find_homogeneous(G, F, one_color_per_cell(F), 5,
                            allow_short=True) is None
    assert time.perf_counter() - start < 10


@pytest.mark.xfail(strict=True, raises=InternalError)
def test_untidy2_tilt_keeps_an_unheld_chord():
    # The escape cell c|helper2|g0 is a 2-node chord (s7, 6,3) external to
    # the subwall with both ends on its perimeter: the tilt drops the cell
    # but keeps both ends in Y', so G[Y'] keeps an edge that no flap holds.
    G, F = generate_fixture(2, 5, "with-untidy2")
    compute_tilt(G, F, subwall(F.wall, (1, 2, 4), (1, 2, 3)))
