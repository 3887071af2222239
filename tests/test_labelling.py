"""The labelling of W-bullet's components agrees with the search over every
labelling (`oracles.representation_by_search`): the same representation
bytes, or None from both."""
import pytest

from flatwall import leveling
from flatwall.flatness import (PROFILES, _Builder, _plant_untidy,
                               generate_fixture, is_regular, short_edges,
                               validate_flatness)
from flatwall.graph import Graph
from flatwall.serialize import canonical_bytes, representation_to_json
from flatwall.tilt import regularize
from flatwall.wall import elementary_wall, subdivide_wall, temp_bricks

from oracles import representation_by_search


def _bytes(rep):
    return None if rep is None else canonical_bytes(
        representation_to_json(rep))


def assert_agrees(F):
    got = _bytes(leveling._search(F))
    assert got == _bytes(representation_by_search(F))
    return got


@pytest.mark.parametrize("height", [3, 5, 7, 9])
@pytest.mark.parametrize("profile", PROFILES)
def test_labelling_agrees_with_the_search(profile, height):
    for seed in range(4):
        G, F = generate_fixture(seed, height, profile)
        assert_agrees(F)
        out = regularize(G, F)
        assert assert_agrees(out) is not None


def test_labelling_agrees_with_the_search_at_height_21():
    # 1279 components: the matching and the search keep their own stacks
    G, F = generate_fixture(0, 21, "with-flaps")
    assert assert_agrees(regularize(G, F)) is not None


def _untidy_pair(z, star: bool):
    """An untidy cell on the row path x-z-y of a 5-wall; with `star`, also
    a star cell on z, y and a third vertex of the brick beyond z-y, so the
    component between z and y has a second candidate."""
    r = 5
    x, y = (z[0] - 1, z[1]), (z[0] + 1, z[1])
    W0 = elementary_wall(r)
    bc = W0.branch_coords
    W = subdivide_wall(W0, {(bc[x], bc[z]): 1, (bc[z], bc[y]): 1})
    b = _Builder(W, r)
    _plant_untidy(b, z, x, y)
    if star:
        (brick,) = [br for br in temp_bricks(r)
                    if z in br and y in br and x not in br]
        third = next(c for c in brick if c not in (z, y))
        nodes = [W.branch_coords[c] for c in brick if c in (z, y, third)]
        g = b.fresh()
        cid = f"c|star|{g}"
        b.sigma[cid] = Graph((), [(n, g) for n in nodes])
        face = b.face_with_nodes(
            frozenset(W.branch_coords[c] for c in brick))
        b.insert_cell(face, cid, nodes)
    G, F = b.pair()
    assert validate_flatness(G, F) == []
    assert not is_regular(F)
    return F


@pytest.mark.parametrize("z", [(3, 2), (4, 3), (6, 3), (8, 4)])
def test_labelling_agrees_where_only_a_second_candidate_represents(z):
    F = _untidy_pair(z, star=True)
    comps, _ = leveling._components_of_bullet(F, leveling.w_bullet(F))
    ix = leveling._Index(F, short_edges(F))
    cands = [leveling._candidates(ix, c) for c in comps]
    firsts = [opts[0] for opts in cands]
    assert len(set(firsts)) < len(firsts)
    assert any(len(opts) > 1 for opts in cands)
    assert assert_agrees(F) is not None
    assert leveling.is_well_aligned(F) is True
    # without the star, the two components share their only candidate
    assert assert_agrees(_untidy_pair(z, star=False)) is None


def _swap_flaps(walk):
    # the walk alternates ground and flap-vertices, from a ground vertex
    out = list(walk)
    out[1], out[3] = out[3], out[1]
    return tuple(out)


BREAKS = {
    "reversed": lambda w: w[::-1],
    "rotated": lambda w: w[3:] + w[:3],
    "two flaps swapped": _swap_flaps,
    "a vertex twice": lambda w: w[:-1] + w[:1],
    "a vertex dropped": lambda w: w[:-1],
    "no walk": lambda w: None,
}


@pytest.mark.parametrize("brk", sorted(BREAKS))
@pytest.mark.parametrize("profile", ["with-flaps", "with-external"])
def test_labelling_agrees_on_a_broken_boundary_walk(profile, brk,
                                                    monkeypatch):
    G, F = generate_fixture(1, 5, profile)
    out = regularize(G, F)
    walk = leveling._leveling_boundary_walk
    monkeypatch.setattr(leveling, "_leveling_boundary_walk",
                        lambda F: BREAKS[brk](walk(F)))
    got = assert_agrees(out)
    assert (got is not None) == (brk in ("reversed", "rotated"))
