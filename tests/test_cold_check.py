"""The cold check of a flatness pair against the scans it replaced.

`validate_rendition` and the violations of `check_tightness`, which read
one index per rendition, `validate_flatness` and `Wall.validate` must
agree, message for message and in order, with `tests/oracles.py`'s scans
on every call the golden corpora make (recorded as they are made) and on
a family of broken renditions, pairs and walls that breaks each of
(c.1)-(c.5), (i)-(v), the separation, the peg rules and each rule of a
wall. An error must agree too: its type. The checks run cold: each flap's
kept verdict, each pair's and wall's memo and each rendition's index are
dropped first.

`validate_flatness` and `TreeDecomposition.validate` must also print the
same bytes under any `PYTHONHASHSEED`.
"""
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import flatwall
from flatwall import cli, flatness, pipeline, rendition, tilt
from flatwall.flatness import FlatnessPair, generate_fixture
from flatwall.graph import Graph, biconnected
from flatwall.painting import Painting
from flatwall.rendition import Rendition, check_tightness, validate_rendition
from flatwall.serialize import CertificateBundle, pair_to_json, write_bundle
from flatwall.wall import PegsCorners, Wall, elementary_wall
from oracles import (articulation_points_by_search, check_tightness_by_scan,
                     validate_flatness_by_scan, validate_rendition_by_scan,
                     wall_problems_by_scan)
from test_painting_kernel import CORPORA
from test_rendition import (ground_separator_rendition, random_chords,
                            ring_rendition, separated_fan,
                            shared_boundary_chords, triangle_rendition)
from test_wall import random_subdivision


def _cold(R):
    R._idx = None


def _outcome(check, *args):
    try:
        return "returns", check(*args)
    except Exception as e:          # the reference's error, or a new one
        return "raises", type(e).__name__


def assert_rendition_checks_agree(G, R):
    _cold(R)
    assert (_outcome(validate_rendition, G, R)
            == _outcome(validate_rendition_by_scan, G, R))
    _cold(R)
    got = _outcome(check_tightness, G, R)
    if got[0] == "returns":
        got = "returns", got[1].violations
    assert got == _outcome(check_tightness_by_scan, G, R)


def assert_wall_checks_agree(W):
    W._memo.pop("problems", None)
    assert _outcome(W.validate) == _outcome(wall_problems_by_scan, W)


def assert_flatness_checks_agree(G, F):
    assert_wall_checks_agree(F.wall)
    for lenient in (False, True):
        F._memo.clear()
        F.wall._memo.pop("problems", None)
        _cold(F.rendition)
        assert (_outcome(flatness.validate_flatness, G, F, lenient)
                == _outcome(validate_flatness_by_scan, G, F, lenient))


def _recorded(corpus, monkeypatch):
    """The (graph, rendition) and (graph, pair, lenient) arguments of every
    check the corpus makes, each object once."""
    renditions, pairs = {}, {}

    def recording(table, check):
        def wrapper(*args, **kwargs):
            table.setdefault(tuple(map(id, args[:2])), args[:2])
            return check(*args, **kwargs)
        return wrapper

    for mod in (rendition, flatness, cli, pipeline, tilt):
        for name, table in (("validate_rendition", renditions),
                            ("check_tightness", renditions),
                            ("validate_flatness", pairs)):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, recording(
                    table, getattr(mod, name)))
    for run in CORPORA[corpus]:
        run()
    monkeypatch.undo()
    return list(renditions.values()), list(pairs.values())


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_checks_match_the_scans_on_golden_corpora(corpus, monkeypatch):
    renditions, pairs = _recorded(corpus, monkeypatch)
    assert renditions and pairs or corpus == "tightening"
    for G, R in renditions:
        assert_rendition_checks_agree(G, R)
        assert biconnected(G) == (G.n >= 3 and G.connected()
                                  and not articulation_points_by_search(G))
    for G, F in pairs:
        assert_flatness_checks_agree(G, F)


# -- the broken renditions ---------------------------------------------------


def _with(R, sigma=None, pi=None, omega=None, painting=None):
    return Rendition(painting or R.painting,
                     R.sigma if sigma is None else sigma,
                     R.pi if pi is None else pi,
                     R.omega if omega is None else omega)


def fixture_tampers(H, R, ground):
    """(name, graph, rendition): the rendition R of H, a fixture's G[Y]
    with the given ground vertices, broken one way at a time."""
    cells = sorted(R.sigma, key=str)
    multi = [c for c in cells if R.sigma[c].m > 1]
    single = [c for c in cells if R.sigma[c].m == 1]
    a, b = multi[0], multi[-1]
    ga, gb = R.sigma[a], R.sigma[b]
    inner = min(ga.vertex_set - R.pi_boundary(a), key=str)
    edge = ga.edges[0]
    yield "(c.1) a flap loses an edge", H, _with(
        R, {**R.sigma, a: ga.remove_edges([edge])})
    yield "(c.1) the graph gains a vertex", H.union(Graph(["lone"])), R
    yield "(c.2) an edge in two flaps", H, _with(
        R, {**R.sigma, b: gb.union(R.sigma[single[0]])})
    lost = min(R.pi_boundary(a), key=str)
    yield "(c.3) a flap misses a boundary vertex", H, _with(
        R, {**R.sigma, a: ga.remove_vertices([lost])})
    x = min(R.pi_boundary(b), key=str)
    reach = Graph((), [(inner, x)])
    yield "(c.4) an inner vertex in two flaps", H.union(reach), _with(
        R, {**R.sigma, b: gb.union(reach)})
    far = min(ground - R.pi_boundary(b), key=str)
    reach = Graph((), [(far, x)])
    yield "(c.4) a ground vertex off a boundary", H.union(reach), _with(
        R, {**R.sigma, b: gb.union(reach)})
    node = min(R.pi, key=str)
    other = max(R.pi, key=str)
    yield "pi not injective", H, _with(R, pi={**R.pi, node: R.pi[other]})
    yield "pi off the graph", H, _with(R, pi={**R.pi, node: "nowhere"})
    yield "pi off the nodes", H, _with(R, pi={**R.pi, "stray": "nowhere"})
    yield "sigma off the cells", H, _with(
        R, {c: g for c, g in R.sigma.items() if c != a})
    yield "(c.5) omega loses a vertex", H, _with(R, omega=R.omega[1:])
    swapped = (R.omega[1], R.omega[0]) + R.omega[2:]
    yield "(c.5) omega out of order", H, _with(R, omega=swapped)
    P = R.painting
    n0 = next(n for n in P.nodes if len(P.rotations.get(n, ())) >= 3)
    yield "a broken painting", H, _with(R, painting=Painting(
        P.nodes, P.cells, {**P.rotations, n0: P.rotations[n0][1:]}, P.outer))


COMBINED = generate_fixture(0, 5, "combined")
TAMPERS = list(fixture_tampers(COMBINED[0].subgraph(COMBINED[1].Y),
                               COMBINED[1].rendition, COMBINED[1].ground()))


def broken_renditions():
    """(name, graph, rendition): a fixture with flaps, untidy, marginal and
    external cells, broken one way at a time, and the small renditions
    that break a tightness condition."""
    G, F = COMBINED
    yield "fixture", G.subgraph(F.Y), F.rendition
    yield from TAMPERS
    yield "triangle", *triangle_rendition()
    for kind, rest in (("(i)", [("v1", "v4"), ("v1", "h"), ("h", "v4")]),
                       ("(ii)", [("v1", "h1"), ("v4", "h2")]),
                       ("(iii)", [("v1", "m"), ("m", "v4"), ("v1", "p"),
                                  ("p", "q")])):
        yield kind, *ring_rendition([("c1", ("n1", "n4"), Graph((), rest))])
    yield "(v), a cut vertex in G[Y]", *ground_separator_rendition()
    for seed in range(12):
        rng = random.Random(seed)
        yield f"chords {seed}", *ring_rendition(random_chords(rng))
        yield f"(iv) {seed}", *ring_rendition(shared_boundary_chords(rng))
        yield f"(v) fan {seed}", *separated_fan(rng)


BROKEN = list(broken_renditions())


@pytest.mark.parametrize("name, G, R", BROKEN,
                         ids=[name for name, _, _ in BROKEN])
def test_checks_match_the_scans_on_broken_renditions(name, G, R):
    assert_rendition_checks_agree(G, R)


def test_the_broken_renditions_break_every_condition():
    found = set()
    for _, G, R in BROKEN:
        for p in validate_rendition_by_scan(G, R):
            found.add(p.split(")")[0] + ")" if p.startswith("(") else
                      p.split(":")[0].split(" ")[0])
        if not validate_rendition_by_scan(G, R):
            found |= {k for k, v in check_tightness_by_scan(G, R).items()
                      if v}
    assert found >= {"(c.1)", "(c.2)", "(c.3)", "(c.4)", "(c.5)", "pi",
                     "sigma", "painting", "i", "ii", "iii", "iv", "v"}


# -- the broken walls --------------------------------------------------------


def broken_walls():
    W = random_subdivision(elementary_wall(3), 7)
    bc, paths = W.branch_coords, W.seg_paths
    yield "a subdivided wall", W
    k, p = next((k, p) for k, p in sorted(paths.items()) if len(p) > 2)
    k2, p2 = next((k2, p2) for k2, p2 in sorted(paths.items())
                  if k2 != k and len(p2) > 2)
    other = next(v for c, v in sorted(bc.items()) if v not in (p[0], p[-1]))

    def variant(key, path):
        return Wall(3, bc, {**paths, key: path})

    yield "an end off its branch vertex", variant(k, p[:-1] + (other,))
    yield "a path revisits a vertex", variant(k, p[:2] + ("detour",) + p[1:])
    yield "a subdivision vertex in two paths", variant(
        k2, p2[:1] + (p[1],) + p2[2:])
    yield "a branch vertex inside a path", variant(k, p[:1] + (other,) + p[1:])
    yield "a path closed on itself", variant(k, p[:-1] + p[:1])
    c1, c2 = sorted(bc)[:2]
    yield "two coordinates on one vertex", Wall(3, {**bc, c1: bc[c2]}, paths)
    yield "a template edge without a path", Wall(
        3, bc, {e: q for e, q in paths.items() if e != k})
    yield "a coordinate off the template", Wall(
        3, {c: v for c, v in bc.items() if c != c1}, paths)


WALLS = list(broken_walls())


@pytest.mark.parametrize("name, W", WALLS, ids=[name for name, _ in WALLS])
def test_wall_validation_matches_the_scan(name, W):
    assert bool(W.validate()) == (name != "a subdivided wall")
    assert_wall_checks_agree(W)


# -- the broken pairs --------------------------------------------------------


def peg_broken_pair():
    """`generate_fixture(0, 5)` with the wall's degree-3 perimeter vertices
    added to X and to the pegs: twelve pegs of the wrong degree."""
    G, F = generate_fixture(0, 5)
    W = F.wall
    extra = {v for v in W.perimeter if W.graph.degree(v) == 3}
    pc = PegsCorners(F.pegs_corners.pegs | extra, F.pegs_corners.corners)
    return G, FlatnessPair(W, F.X | extra, F.Y, pc, F.rendition)


def broken_pairs():
    yield "pegs of degree 3", peg_broken_pair()
    G, F = generate_fixture(0, 5)
    P, C = F.pegs_corners.pegs, F.pegs_corners.corners
    yield "a corner off the pegs", (G, FlatnessPair(
        F.wall, F.X, F.Y, PegsCorners(P - {min(C, key=str)}, C), F.rendition))
    inside = min(F.wall.graph.vertex_set - F.wall.perimeter_set, key=str)
    yield "X cap Y off the perimeter", (G, FlatnessPair(
        F.wall, F.X | {inside}, F.Y, F.pegs_corners, F.rendition))
    yield "a peg off X", (G, FlatnessPair(
        F.wall, F.X, F.Y, PegsCorners(P | {inside}, C), F.rendition))
    G, F = next(GF for GF in map(generate_fixture, range(9), [5] * 9)
                if "apex0" in GF[0])
    inner = min(F.Y - F.X, key=str)
    yield "no separation", (G.add_edges([("apex0", inner)]), F)
    G, F = generate_fixture(0, 3)
    yield "a broken wall", (G, FlatnessPair(
        WALLS[1][1], F.X, F.Y, F.pegs_corners, F.rendition))
    G, F = COMBINED
    for name, H, R in TAMPERS:
        yield f"rendition: {name}", (G.union(H), FlatnessPair(
            F.wall, F.X, F.Y | H.vertex_set, F.pegs_corners, R))


BROKEN_PAIRS = list(broken_pairs())


@pytest.mark.parametrize("name, GF", BROKEN_PAIRS,
                         ids=[name for name, _ in BROKEN_PAIRS])
def test_flatness_matches_the_scan_on_broken_pairs(name, GF):
    assert_flatness_checks_agree(*GF)


def test_the_broken_pairs_break_every_rule():
    found = " | ".join(p for _, GF in BROKEN_PAIRS
                       for p in validate_flatness_by_scan(*GF))
    for rule in ("wall: ", "is not a separation", "wall has vertices outside",
                 "missing from G", "corners are not a subset",
                 "pegs leave X cap Y", "X cap Y leaves",
                 "does not have degree 2", "rendition: (c.4)"):
        assert rule in found


# -- the same bytes under any hash seed --------------------------------------


def _under_seeds(argv, seeds=("1", "2", "3")):
    src = str(Path(flatwall.__file__).parents[1])
    outs = set()
    for seed in seeds:
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        res = subprocess.run([sys.executable, *argv], capture_output=True,
                             env=env, timeout=120)
        outs.add((res.returncode, res.stdout))
    return outs


def test_peg_violations_print_the_same_bytes_under_any_hash_seed(tmp_path):
    G, F = peg_broken_pair()
    path = tmp_path / "pegs.json"
    write_bundle(path, CertificateBundle("flatness-pair", pair_to_json(G, F)))
    (out,) = _under_seeds(["-m", "flatwall.cli", "validate", str(path)])
    assert out[0] == 1
    assert out[1].count(b"does not have degree 2") == 12


def test_decomposition_faults_print_the_same_bytes_under_any_hash_seed():
    script = ("from flatwall.graph import Graph, TreeDecomposition\n"
              "vs = [f'v{i}' for i in range(8)]\n"
              "C8 = Graph(vs, zip(vs, vs[1:] + vs[:1]))\n"
              "print(TreeDecomposition({0: vs[:4], 1: vs[4:]}, [(0, 1)])"
              ".validate(C8))\n"
              "print(TreeDecomposition({0: vs, 1: vs[3:], 2: vs[:3]},"
              " [(0, 1), (1, 2)]).validate(C8))\n")
    (out,) = _under_seeds(["-c", script])
    assert out == (0, b"['edge v0,v7 in no bag']\n"
                      b"['bags of v0 not connected in the tree']\n")
