"""Flatness pairs: certificates, flaps, cell classification, regularity.

A pair bundles a wall with the 7-tuple (X, Y, P, C, Gamma, sigma, pi) that
certifies it is flat: (X, Y) separates the graph, the wall lives in Y, the
pegs sit on the perimeter inside X cap Y, and a tight rendition of G[Y]
draws the compass in a disk whose boundary carries X cap Y in perimeter
order.

Classification of cells against a normal cycle is delegated to the painting
trace; this module builds the runs of the cycle through the cells, computes
the untidy/marginal refinements, and houses the fixture generator used by
the property tests.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import (Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
                    Union)

from .errors import InputError, InternalError
from .graph import Graph, cyclic_equal, ekey, is_separation, norm_edge, vkey
from .painting import Painting, trace_normal_cycle, validate_painting
from .rendition import (Rendition, check_tightness, flap_union,
                        validate_rendition)
from .wall import (PegsCorners, Wall, _template, elementary_wall,
                   fresh_names, subdivide_wall, temp_bricks, temp_corners,
                   temp_pegs)

Cycle = Union[Wall, Sequence]


class FlatnessPair:
    """(W, X, Y, P, C) plus the rendition of G[Y].

    Immutable after construction: no field is reassigned and the wall, the
    pegs and corners and the rendition are never changed. So every fact
    derived from them is computed once and kept in `_memo`:

    - "owner": the cell owning each compass edge (`edge_owner`);
    - "untidy at": the untidy vertices of each cell tested so far
      (`_untidy_at`), which `classify_cells`, `untidy_cells` and the
      untidy repair share, so no cell is tested twice;
    - "untidy": the untidy cells (`untidy_cells`);
    - ("classes", cycle edges): the classes of the cells a cycle runs
      through or encloses (`classify_cells`); each map covers the cycle's
      influence only, never the whole painting;
    - ("validated", G, lenient_pegs): the violations
      `validate_flatness` found against the graph G, keyed by its content.
    """

    __slots__ = ("wall", "X", "Y", "pegs_corners", "rendition", "_memo")

    def __init__(self, wall: Wall, X, Y, pegs_corners: PegsCorners,
                 rendition: Rendition):
        self.wall = wall
        self.X = frozenset(X)
        self.Y = frozenset(Y)
        self.pegs_corners = pegs_corners
        self.rendition = rendition
        self._memo: Dict = {}

    @property
    def height(self) -> int:
        return self.wall.height

    def compass(self) -> Graph:
        return self.rendition.union_graph()

    def ground(self) -> FrozenSet:
        return frozenset(self.rendition.pi.values())

    def edge_owner(self) -> Dict[Tuple, object]:
        owner = self._memo.get("owner")
        if owner is None:
            owner = {e: cid for cid, g in self.rendition.sigma.items()
                     for e in g.edge_set}
            self._memo["owner"] = owner
        return owner


@dataclass(frozen=True)
class CellClass:
    kind: str          # internal / inner-perimetric / outer-perimetric
    marginal: bool
    untidy: bool


@dataclass(frozen=True)
class Flap:
    cell: object
    graph: Graph
    base: FrozenSet
    trivial: bool


def flaps(F: FlatnessPair) -> Dict[object, Flap]:
    ground = F.ground()
    out = {}
    for cid, g in F.rendition.sigma.items():
        base = g.vertex_set & ground
        trivial = len(base) == 2 and g.n == 2 and g.m == 1
        out[cid] = Flap(cid, g, base, trivial)
    return out


def short_edges(F: FlatnessPair) -> FrozenSet:
    return frozenset(f.graph.edges[0] for f in flaps(F).values() if f.trivial)


def untidy_vertices(F: FlatnessPair, cid) -> Set:
    """The ground vertices of cell cid's boundary at which its flap holds
    two or more wall edges; the cell is untidy if there is one."""
    g = F.rendition.sigma[cid]
    wedges = F.wall.graph.edge_set
    return {v for v in F.rendition.pi_boundary(cid) if v in g and sum(
        1 for u in g.neighbors(v) if norm_edge(u, v) in wedges) >= 2}


def _untidy_at(F: FlatnessPair, cid) -> Set:
    """`untidy_vertices(F, cid)`, tested once per pair and cell."""
    table = F._memo.get("untidy at")
    if table is None:
        table = F._memo["untidy at"] = {}
    got = table.get(cid)
    if got is None:
        got = table[cid] = untidy_vertices(F, cid)
    return got


def untidy_cells(F: FlatnessPair) -> FrozenSet:
    """Cells hiding two wall edges at one ground vertex of their boundary."""
    got = F._memo.get("untidy")
    if got is None:
        got = F._memo["untidy"] = frozenset(
            cid for cid in F.rendition.sigma if _untidy_at(F, cid))
    return got


# -- validation ------------------------------------------------------------


def validate_flatness(G: Graph, F: FlatnessPair,
                      lenient_pegs: bool = False) -> List[str]:
    """Check the certificate; lenient_pegs drops the degree-2 peg rule.

    Rerouted walls may carry pegs on 3-branch vertices; for those only the
    chain C <= P <= X cap Y <= V(D(W)) is enforced.
    """
    memo_key = ("validated", G, lenient_pegs)
    got = F._memo.get(memo_key)
    if got is not None:
        return list(got)
    problems = []
    W = F.wall
    wall_bad = W.validate()
    problems.extend(f"wall: {p}" for p in wall_bad)

    if not is_separation(G, F.X, F.Y):
        problems.append("(X, Y) is not a separation of G")
    if not W.graph.vertex_set <= F.Y:
        problems.append("wall has vertices outside Y")
    missing = W.graph.edge_set - G.edge_set
    if missing:
        u, v = min(missing, key=ekey)
        problems.append(f"wall edge {u}-{v} missing from G")

    P, C = F.pegs_corners.pegs, F.pegs_corners.corners
    mid = F.X & F.Y
    per = W.perimeter_set if not wall_bad else frozenset()
    if not C <= P:
        problems.append("corners are not a subset of pegs")
    if not P <= mid:
        problems.append("pegs leave X cap Y")
    if not mid <= per:
        problems.append("X cap Y leaves the wall perimeter")
    if not lenient_pegs:
        for p in P:
            if p in W.graph and W.graph.degree(p) != 2:
                problems.append(f"peg {p} does not have degree 2 in the wall")

    R = F.rendition
    H = G.subgraph(F.Y)
    problems.extend(f"rendition: {p}" for p in validate_rendition(H, R))
    if not problems:
        want = tuple(v for v in W.perimeter if v in mid)
        if not cyclic_equal(R.omega, want):
            problems.append("omega disagrees with the perimeter order of X cap Y")
        rep = check_tightness(H, R)
        if not rep.is_tight:
            for cond, items in sorted(rep.violations.items()):
                if items:
                    problems.append(f"tightness ({cond}): {items[:3]}")
    F._memo[memo_key] = tuple(problems)
    return problems


# -- cell classification ---------------------------------------------------


def cycle_runs(F: FlatnessPair, cyc: Sequence):
    """Split a compass cycle into maximal runs through single cells.

    Returns (runs, flags, paths): runs as (entry node, cell, exit node),
    one flag per run telling whether the third boundary image is an internal
    vertex of the run, and the vertex path of each run.
    """
    cyc = list(cyc)
    n = len(cyc)
    if n < 3:
        raise InputError("a cycle needs at least three vertices")
    owner = F.edge_owner()
    cids = []
    for i in range(n):
        e = norm_edge(cyc[i], cyc[(i + 1) % n])
        cid = owner.get(e)
        if cid is None:
            raise InputError("cycle uses an edge outside the compass",
                             witness=list(e))
        cids.append(cid)
    if len(set(cids)) == 1:
        raise InputError("cycle is not normal: it lies inside a single flap",
                         witness=cids[0])
    start = next(i for i in range(n) if cids[i - 1] != cids[i])
    cyc = cyc[start:] + cyc[:start]
    cids = cids[start:] + cids[:start]

    pi_inv = {v: p for p, v in F.rendition.pi.items()}
    paths: List[List] = []
    groups: List[object] = []
    for i in range(n):
        if i == 0 or cids[i] != cids[i - 1]:
            groups.append(cids[i])
            paths.append([cyc[i]])
        paths[-1].append(cyc[(i + 1) % n])

    runs = []
    flags = []
    for cid, path in zip(groups, paths):
        pv, qv = path[0], path[-1]
        if pv not in pi_inv or qv not in pi_inv:
            raise InputError("cycle crosses cells away from the ground set",
                             witness=[pv, qv])
        runs.append((pi_inv[pv], cid, pi_inv[qv]))
        b = F.rendition.painting.cells[cid]
        flag = False
        if len(b) == 3:
            rest = [x for x in b if x not in (pi_inv[pv], pi_inv[qv])]
            third = F.rendition.pi.get(rest[0]) if rest else None
            flag = third is not None and third in path[1:-1]
        flags.append(flag)
    return runs, flags, [tuple(p) for p in paths]


def classify_cells(F: FlatnessPair, C: Cycle) -> Dict[object, CellClass]:
    """The class of every cell that the cycle C runs through or encloses.

    A cell of the painting that is missing from the map is external. So
    the map holds C's influence and nothing else, and it costs the inside
    of C, not the whole painting (`painting.trace_normal_cycle`): only the
    cells in the map are tested for tidiness.
    """
    if isinstance(C, Wall):
        cyc, edges = C.perimeter, C.perimeter_edges
    else:
        cyc = tuple(C)
        edges = frozenset(norm_edge(cyc[i], cyc[(i + 1) % len(cyc)])
                          for i in range(len(cyc)))
    key = ("classes", edges)
    got = F._memo.get(key)
    if got is not None:
        return got

    runs, flags, _ = cycle_runs(F, cyc)
    trace = trace_normal_cycle(F.rendition.painting, runs, flags)
    out: Dict[object, CellClass] = {}
    for (p, cid, q), flag, side in zip(runs, trace.arc_flags, trace.run_sides):
        if side is None or side:
            kind = "inner-perimetric"
        else:
            kind = "outer-perimetric"
        untidy = bool(_untidy_at(F, cid))
        marginal = kind == "outer-perimetric" and not flag and not untidy
        out[cid] = CellClass(kind, marginal, untidy)
    for cid in trace.inside_cells:
        out[cid] = CellClass("internal", False, bool(_untidy_at(F, cid)))
    F._memo[key] = out
    return out


def influence(F: FlatnessPair, C: Cycle) -> Dict[object, Graph]:
    sigma = F.rendition.sigma
    return {cid: sigma[cid] for cid in classify_cells(F, C)}


def influence_union(F: FlatnessPair, C: Cycle) -> Graph:
    return Graph(*flap_union(influence(F, C).values()))


def is_regular(F: FlatnessPair) -> bool:
    if untidy_cells(F):
        return False
    classes = classify_cells(F, F.wall)
    return (len(classes) == len(F.rendition.painting.cells)
            and not any(cc.marginal for cc in classes.values()))


# -- fixture generation ----------------------------------------------------


PROFILES = ("base", "with-flaps", "with-untidy", "with-untidy2",
            "with-marginal", "with-external", "combined", "non-well-aligned")


class _Builder:
    """Mutable painting/rendition under construction for one fixture."""

    def __init__(self, W: Wall, r: int):
        self.W = W
        self.r = r
        self.cells: Dict[str, Tuple] = {}
        self.rot: Dict[str, List[str]] = {}
        self.sigma: Dict[str, Graph] = {}
        self.pi: Dict[str, str] = {}
        self.extra_edges: List[Tuple] = []
        self.names = fresh_names(W.graph.vertices, prefix="g")
        ground = [W.branch_coords[c] for c in sorted(W.branch_coords)]
        for v in ground:
            self.rot[v] = []
            self.pi[v] = v
        self.coord = {W.branch_coords[c]: c for c in W.branch_coords}
        incident: Dict = {v: [] for v in ground}  # cells in creation order
        for key in sorted(W.seg_paths, key=lambda k: (k[0], k[1])):
            path = W.seg_paths[key]
            u, v = path[0], path[-1]
            cid = f"c|{u}|{v}"
            self.cells[cid] = (u, v)
            self.sigma[cid] = Graph((), zip(path, path[1:]))
            incident[u].append((cid, v))
            incident[v].append((cid, u))
        # rotations by straight-line angle around each branch vertex
        for v in ground:
            c = self.coord[v]
            def angle(item):
                oc = self.coord[item[1]]
                return math.atan2(oc[1] - c[1], oc[0] - c[0])
            self.rot[v] = [cid for cid, _ in sorted(incident[v], key=angle)]

        self.pegs = frozenset(W.branch_coords[c] for c in temp_pegs(r))
        self.corners = frozenset(W.branch_coords[c] for c in temp_corners(r))
        self.outer = tuple(v for v in W.perimeter if v in self.pegs)

    def fresh(self) -> str:
        return next(self.names)

    def painting(self) -> Painting:
        return Painting(list(self.rot), dict(self.cells),
                        {n: tuple(r) for n, r in self.rot.items()},
                        self.outer)

    def pair(self) -> Tuple[Graph, FlatnessPair]:
        G = Graph(*flap_union(self.sigma.values()))
        compass = G
        if self.extra_edges:
            G = G.add_edges(self.extra_edges)
        apex = {u for e in self.extra_edges for u in e} - compass.vertex_set
        R = Rendition(self.painting(), dict(self.sigma), dict(self.pi),
                      tuple(self.outer))
        F = FlatnessPair(self.W, self.pegs | apex, compass.vertex_set,
                         PegsCorners(self.pegs, self.corners), R)
        return G, F

    def kind(self, cid: str) -> str:
        """The class of cell cid against the wall's perimeter."""
        _, F = self.pair()
        cc = classify_cells(F, self.W).get(cid)
        return "external" if cc is None else cc.kind

    def face_with_nodes(self, nodes: FrozenSet):
        from .painting import trace_faces
        P = self.painting()
        for face in trace_faces(P):
            if frozenset(_face_nodes(face)) == nodes:
                return face
        raise InternalError("no face spans the requested nodes",
                            witness=sorted(nodes, key=vkey))

    def corner_slot(self, face, node: str) -> int:
        """Rotation index at `node` placing a new spoke into this face."""
        for (u, v), (x, y) in zip(face, face[1:] + face[:1]):
            if v == ("n", node) and u[0] == "c":
                return self.rot[node].index(u[1])
        raise InternalError("node does not meet the face", witness=node)

    def insert_cell(self, face, cid: str, boundary: Sequence[str],
                    want_kind: Optional[str] = None):
        """Add a cell whose existing boundary nodes sit on one face.

        Tries both boundary orientations; keeps the first painting that
        validates (and classifies as `want_kind` when given).
        """
        slots = {}
        for nd in boundary:
            if nd in self.rot and self.rot[nd]:
                slots[nd] = self.corner_slot(face, nd)
        saved = {nd: list(self.rot.get(nd, [])) for nd in boundary}
        for order in (tuple(boundary), tuple(reversed(boundary))):
            for nd in boundary:
                r = list(saved[nd])
                if nd in slots:
                    r.insert(slots[nd], cid)
                else:
                    r = [cid]
                self.rot[nd] = r
            self.cells[cid] = order
            if not validate_painting(self.painting()):
                if want_kind is None or self.kind(cid) == want_kind:
                    return
            for nd in boundary:
                self.rot[nd] = list(saved[nd])
        del self.cells[cid]
        raise InternalError("cell placement failed", witness=cid)

    def replace_with_cell(self, old_cids: Sequence[str], cid: str,
                          boundary: Sequence[str], sigma: Graph,
                          want_kind: Optional[str] = None):
        """Swap adjacent cells for one new cell covering their region."""
        saved_rot = {nd: list(self.rot[nd]) for nd in self.rot}
        saved_cells = dict(self.cells)
        for order in (tuple(boundary), tuple(reversed(boundary))):
            for nd in boundary:
                r = [c for c in saved_rot.get(nd, [])]
                pos = min((r.index(c) for c in old_cids if c in r),
                          default=len(r))
                r = [c for c in r if c not in old_cids]
                r.insert(min(pos, len(r)), cid)
                self.rot[nd] = r
            self.cells = {k: v for k, v in saved_cells.items()
                          if k not in old_cids}
            self.cells[cid] = order
            self.sigma[cid] = sigma
            old_sigmas = {c: self.sigma.pop(c) for c in old_cids
                          if c in self.sigma}
            if not validate_painting(self.painting()):
                if want_kind is None or self.kind(cid) == want_kind:
                    return
            self.sigma.update(old_sigmas)
            del self.sigma[cid]
            for nd in boundary:
                self.rot[nd] = list(saved_rot[nd])
            self.cells = dict(saved_cells)
        raise InternalError("cell replacement failed", witness=cid)


def _face_nodes(face) -> List:
    """The nodes a face of `trace_faces` passes through, in order."""
    return [u[1] for u, _ in face if u[0] == "n"]


def _edge_cid(b: _Builder, u: str, v: str) -> str:
    for cid, bd in b.cells.items():
        if set(bd) == {u, v} and len(bd) == 2:
            return cid
    raise InternalError("no edge cell between the endpoints", witness=[u, v])


def _plant_star(b: _Builder, rng: random.Random, brick, untidy_site=None):
    """Plant a 3-node star cell in the face of `brick`.

    An untidy cell on the path x-z-y cuts z off from the brick holding all
    three, so a star there takes the next free brick vertex instead of z.
    """
    verts = [b.W.branch_coords[c] for c in brick]
    picks = sorted(rng.sample(range(len(verts)), 3))
    if untidy_site is not None and set(untidy_site) <= set(brick):
        z = brick.index(untidy_site[1])
        if z in picks:
            spare = min(set(range(len(verts))) - set(picks))
            picks = sorted(set(picks) - {z} | {spare})
    nodes = [verts[i] for i in picks]
    g = b.fresh()
    cid = f"c|star|{g}"
    b.sigma[cid] = Graph((), [(nodes[0], g), (nodes[1], g), (nodes[2], g)])
    face = b.face_with_nodes(frozenset(verts))
    b.insert_cell(face, cid, nodes)


def _plant_untidy(b: _Builder, z_coord, x_coord, y_coord):
    W = b.W
    z = W.branch_coords[z_coord]
    x = W.branch_coords[x_coord]
    y = W.branch_coords[y_coord]
    a = W.seg_paths[_ckey(x_coord, z_coord)]
    bb = W.seg_paths[_ckey(z_coord, y_coord)]
    a = [v for v in a if v not in (x, z)][0]
    bb = [v for v in bb if v not in (z, y)][0]
    w = b.fresh()
    cid = f"c|untidy|{w}"
    sigma = Graph((), [(x, a), (a, z), (z, bb), (bb, y),
                       (w, a), (w, bb), (w, z)])
    e1 = _edge_cid(b, x, z)
    e2 = _edge_cid(b, z, y)
    b.replace_with_cell([e1, e2], cid, (x, z, y), sigma)


def _ckey(a, b):
    return (a, b) if a < b else (b, a)


def _plant_untidy2(b: _Builder, a_coord, b_coord):
    """Mid-segment untidy cell: the middle path vertex becomes a ground
    vertex without being a 3-branch, so a reroute drops it from the wall."""
    from .painting import trace_faces
    W = b.W
    path = W.seg_paths[_ckey(a_coord, b_coord)]
    A, B = path[0], path[-1]
    aa, z, bb = path[1:-1]
    w = b.fresh()
    cid = f"c|untidy2|{w}"
    sigma = Graph((), [(A, aa), (aa, z), (z, bb), (bb, B),
                       (w, aa), (w, bb), (w, z)])
    b.pi[z] = z
    b.rot[z] = []
    e = _edge_cid(b, A, B)
    b.replace_with_cell([e], cid, (A, z, B), sigma)
    # escape route so the new ground vertex reaches the boundary disjointly
    for face in trace_faces(b.painting()):
        seq = _face_nodes(face)
        if z not in seq:
            continue
        others = [n for n in seq if n not in (z, A, B) and b.rot.get(n)]
        if not others:
            continue
        o = min(others, key=vkey)
        hid = f"c|helper2|{w}"
        b.sigma[hid] = Graph((), [(z, o)])
        b.insert_cell(face, hid, (z, o), want_kind="internal")
        return
    raise InternalError("no face available for the escape cell", witness=cid)


def _plant_marginal(b: _Builder, o_coord, d_coord, q_coord):
    """Replace perimeter edge d-q by a 3-cell whose extra node escapes to o.

    d is a 3-branch vertex; o is the peg just beyond it, so the escape cell
    fences off no peg from the outer face.
    """
    from .painting import outer_face
    W = b.W
    o = W.branch_coords[o_coord]
    d = W.branch_coords[d_coord]
    q = W.branch_coords[q_coord]
    path = W.seg_paths[_ckey(d_coord, q_coord)]
    s = [v for v in path if v not in (d, q)][0]
    u = b.fresh()
    cid = f"c|marginal|{u}"
    sigma = Graph((), [(d, s), (s, q), (s, u)])
    b.pi[u] = u
    b.rot[u] = []
    e = _edge_cid(b, d, q)
    b.replace_with_cell([e], cid, (d, u, q), sigma,
                        want_kind="outer-perimetric")
    hid = f"c|helper|{u}"
    b.sigma[hid] = Graph((), [(u, o)])
    face = outer_face(b.painting())
    b.insert_cell(face, hid, (u, o), want_kind="external")
    return (o, d, q)


def _plant_external(b: _Builder, p: str, q: str):
    w = b.fresh()
    c1 = f"c|ext|{w}|a"
    c2 = f"c|ext|{w}|b"
    from .painting import outer_face
    b.pi[w] = w
    b.rot[w] = []
    b.sigma[c1] = Graph((), [(p, w)])
    face = outer_face(b.painting())
    b.insert_cell(face, c1, (p, w), want_kind="external")
    b.sigma[c2] = Graph((), [(w, q)])
    face = outer_face(b.painting())
    b.insert_cell(face, c2, (w, q), want_kind="external")


def _marginal_sites(r: int) -> List[Tuple]:
    """Triples (o, d, q) along the perimeter: peg, 3-branch, peg."""
    T = _template(r)
    per, deg = T.perimeter, T.degree
    out = []
    n = len(per)
    for i in range(n):
        o, d, q = per[i - 1], per[i], per[(i + 1) % n]
        if (deg[d] == 3 and deg[o] == 2 and deg[q] == 2
                and d not in T.corners and q not in T.corners):
            out.append((o, d, q))
    return out


def generate_fixture(seed: int, r: int,
                     profile: str = "base") -> Tuple[Graph, FlatnessPair]:
    """Deterministic (graph, flatness pair) fixture; profile plants defects."""
    if profile not in PROFILES:
        raise InputError("unknown fixture profile", witness=profile)
    if profile == "non-well-aligned":
        return _non_well_aligned_fixture(seed, r)
    rng = random.Random((seed, r, profile).__repr__())
    T = _template(r)

    forced: Dict[Tuple, int] = {}
    untidy_site = untidy2_site = marginal_site = external_site = None
    if profile in ("with-untidy", "combined"):
        inner = [c for c in T.vertices
                 if T.degree[c] == 3 and c not in T.perimeter_set]
        z = rng.choice(sorted(inner))
        untidy_site = ((z[0] - 1, z[1]), z, (z[0] + 1, z[1]))
        forced[_ckey(untidy_site[0], z)] = 1
        forced[_ckey(z, untidy_site[2])] = 1
    if profile == "with-untidy2":
        sites = [e for e in T.edges if e[0] not in T.perimeter_set
                 and e[1] not in T.perimeter_set]
        untidy2_site = rng.choice(sorted(sites))
        forced[_ckey(*untidy2_site)] = 3
    if profile in ("with-marginal", "combined"):
        marginal_site = rng.choice(_marginal_sites(r))
        forced[_ckey(marginal_site[1], marginal_site[2])] = 1

    W0 = elementary_wall(r)
    plan = {}
    for (ca, cb) in W0.seg_paths:
        u, v = W0.branch_coords[ca], W0.branch_coords[cb]
        if _ckey(ca, cb) in forced:
            plan[(u, v)] = forced[_ckey(ca, cb)]
        elif rng.random() < 0.12:
            plan[(u, v)] = rng.choice((1, 1, 2))
    W = subdivide_wall(W0, plan)
    b = _Builder(W, r)

    if profile in ("with-flaps", "combined"):
        for brick in rng.sample(temp_bricks(r), 1 + rng.randrange(2)):
            _plant_star(b, rng, brick, untidy_site)
    if untidy_site is not None:
        _plant_untidy(b, untidy_site[1], untidy_site[0], untidy_site[2])
    if untidy2_site is not None:
        _plant_untidy2(b, *untidy2_site)
    reserved = set()
    if marginal_site is not None:
        reserved = {W.branch_coords[c] for c in marginal_site}
        _plant_marginal(b, *marginal_site)
    if profile in ("with-external", "combined"):
        grounds = [v for v in W.perimeter if v in b.pi]
        n = len(grounds)
        i = rng.randrange(n)
        while grounds[i] in reserved or grounds[(i + 1) % n] in reserved:
            i = (i + 1) % n
        _plant_external(b, grounds[i], grounds[(i + 1) % n])

    if rng.random() < 0.5:
        apex = "apex0"
        targets = rng.sample(sorted(b.pegs, key=vkey), 3)
        b.extra_edges = [(apex, t) for t in targets]

    G, F = b.pair()
    bad = validate_flatness(G, F)
    if bad:
        raise InternalError("generated fixture fails validation", witness=bad)
    return G, F


def _non_well_aligned_fixture(seed: int, r: int) -> Tuple[Graph, FlatnessPair]:
    """A pair whose leveling admits no ground-fixing wall representation.

    Built from the marginal profile: the marginal cell replaces a perimeter
    edge by a path through a flap vertex of degree 3, which breaks the
    subdivision correspondence the leveling would need.
    """
    return generate_fixture(seed, r, "with-marginal")
