import pytest

from flatwall import homogeneity
from flatwall.errors import InputError, InternalError
from flatwall.flatness import generate_fixture, influence
from flatwall.homogeneity import (FlapColoring, example_coloring,
                                  find_homogeneous, h, is_homogeneous,
                                  palette)
from flatwall.wall import enumerate_subwalls


def constant_coloring(F, w=1):
    return FlapColoring({cid: 1 for cid in F.rendition.sigma}, w)


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
    with pytest.raises(InternalError):
        find_homogeneous(G, F, zeta, 3)


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
    src = res.provenance
    pals = {palette(res.pair, zeta, b,
                    fallback=lambda cid: src.get(cid, (cid,))[0])
            for b in res.wall.internal_bricks()}
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
    src = res.provenance
    pals = {palette(res.pair, zeta, b,
                    fallback=lambda cid: src.get(cid, (cid,))[0])
            for b in bricks}
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
