"""Levelings, enriched walls, representations, and well-alignment.

The leveling is the bipartite incidence graph of ground vertices and
flap-vertices. W-bullet is the wall with every short edge subdivided once.
A pair is well-aligned when the leveling contains a wall R_W, with the
same boundary as the leveling itself, such that W-bullet is isomorphic to
a subdivision of R_W by an isomorphism fixing every ground vertex.

Fixing the ground pointwise forces the whole shape: each ground vertex of
W-bullet must appear in R_W, so R_W is the quotient of W-bullet that
collapses every ground-free component to a single flap-vertex. The only
freedom left is which flap labels the component, and the remaining checks
are the component shapes and the boundary cycle identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from .errors import CapacityError, InputError, InternalError
from .flatness import FlatnessPair, flaps, is_regular, short_edges
from .graph import Graph, cyclic_equal, norm_edge, vkey
from .painting import outer_face
from .wall import Wall


def _fv(cid) -> Tuple:
    return ("f", cid)


def _sv(u, v) -> Tuple:
    return ("s",) + norm_edge(u, v)


@dataclass(frozen=True)
class Leveling:
    graph: Graph
    ground: FrozenSet
    vflaps: Dict[object, Tuple]
    boundary: Tuple


@dataclass(frozen=True)
class Representation:
    wall: Wall
    rho: Dict[Tuple, object]
    tau: Dict[Tuple, Tuple]


def w_bullet(F: FlatnessPair) -> Graph:
    return _bullet_wall(F).graph


def leveling_graph(F: FlatnessPair) -> Leveling:
    R = F.rendition
    vf = {cid: _fv(cid) for cid in R.sigma}
    edges = [(x, vf[cid]) for cid in R.sigma for x in R.pi_boundary(cid)]
    g = Graph(list(F.ground()) + list(vf.values()), edges)
    return Leveling(g, F.ground(), vf, tuple(R.omega))


def _bullet_wall(F: FlatnessPair) -> Wall:
    """The wall carrying the extra subdivision vertices of w_bullet."""
    W = F.wall
    wedges = W.graph.edge_set
    short = {e for e in short_edges(F) if e in wedges}
    segs = {}
    for key, p in W.seg_paths.items():
        out = [p[0]]
        for u, v in zip(p, p[1:]):
            if norm_edge(u, v) in short:
                out.append(_sv(u, v))
            out.append(v)
        segs[key] = tuple(out)
    return Wall(W.height, W.branch_coords, segs)


@dataclass(frozen=True)
class _Component:
    vertices: FrozenSet
    attachments: Tuple
    center: object                 # the rho image inside the component
    legs: Dict[object, Tuple]      # attachment ground -> path from center


def _components_of_bullet(F: FlatnessPair, Wb: Graph):
    """Ground-free pieces of w_bullet with their legs; None on a bad shape."""
    ground = F.ground()
    inner = Wb.remove_vertices(ground)
    comps = []
    for comp in inner.components():
        edges = [e for e in Wb.edges
                 if e[0] in comp or e[1] in comp]
        H = Graph((), edges)
        att = sorted((v for v in H.vertices if v in ground), key=vkey)
        centers = [v for v in comp if H.degree(v) == 3]
        if any(H.degree(v) > 3 for v in comp) or len(centers) > 1:
            return None, comp
        if centers:
            if len(att) != 3:
                return None, comp
            w = centers[0]
        else:
            if len(att) != 2:
                return None, comp
            path = H.shortest_path(att[0], att[1])
            if len(path) != H.n or H.m != len(path) - 1:
                return None, comp
            w = path[(len(path) - 1) // 2]
        legs = {}
        for x in att:
            legs[x] = tuple(H.shortest_path(w, x))
        if sum(len(p) - 1 for p in legs.values()) != H.m:
            return None, comp
        comps.append(_Component(frozenset(comp), tuple(att), w, legs))
    return comps, None


def _candidates(F: FlatnessPair, comp: _Component) -> List:
    """Flaps usable as the label of a component, own flap first."""
    R = F.rendition
    trivial = {f.graph.edges[0]: cid for cid, f in flaps(F).items()
               if f.trivial}
    own = []
    wall_vs = [v for v in comp.vertices if not (isinstance(v, tuple)
                                                and v and v[0] == "s")]
    if not wall_vs:
        (s,) = comp.vertices
        e = (s[1], s[2])
        if e in trivial:
            own.append(trivial[e])
    else:
        for cid, g in R.sigma.items():
            if wall_vs[0] in g.vertex_set and wall_vs[0] not in \
                    R.pi_boundary(cid):
                own.append(cid)
                break
    rest = [cid for cid in sorted(R.sigma, key=str)
            if cid not in own
            and set(comp.attachments) <= R.pi_boundary(cid)]
    return own + rest


def _quotient_wall(F: FlatnessPair, Wb_wall: Wall,
                   label: Dict[FrozenSet, object]) -> Wall:
    ground = F.ground()
    vmap = {}
    for comp_vs, cid in label.items():
        for v in comp_vs:
            vmap[v] = _fv(cid)
    bcoords = {}
    for c, v in Wb_wall.branch_coords.items():
        bcoords[c] = v if v in ground else vmap[v]
    segs = {}
    for key, p in Wb_wall.seg_paths.items():
        out = []
        for v in p:
            img = v if v in ground else vmap[v]
            if not out or out[-1] != img:
                out.append(img)
        segs[key] = tuple(out)
    return Wall(Wb_wall.height, bcoords, segs)


def _leveling_boundary_walk(F: FlatnessPair) -> Optional[Tuple]:
    """The leveling vertices along the painting's outer face, in order."""
    face = outer_face(F.rendition.painting)
    if face is None:
        return None
    out = []
    for (u, _v) in face:
        out.append(F.rendition.pi[u[1]] if u[0] == "n" else _fv(u[1]))
    return tuple(out)


def _reconstructs(rep: Representation, Wb: Graph) -> bool:
    edges = []
    for path in rep.tau.values():
        edges.extend(zip(path, path[1:]))
    got = Graph((), edges)
    return got.vertex_set == Wb.vertex_set and got.edge_set == Wb.edge_set


def _build(F: FlatnessPair, label: Dict[FrozenSet, object],
           comps: List[_Component], Wb_wall: Wall,
           Wb: Graph) -> Optional[Representation]:
    RW = _quotient_wall(F, Wb_wall, label)
    if RW.validate():
        return None
    rho: Dict[Tuple, object] = {}
    tau: Dict[Tuple, Tuple] = {}
    for x in Wb.vertices:
        if x in F.ground():
            rho[x] = x
    for comp in comps:
        v = _fv(label[comp.vertices])
        rho[v] = comp.center
        for x, leg in comp.legs.items():
            tau[norm_edge(x, v)] = leg
    rep = Representation(RW, rho, tau)
    if not _reconstructs(rep, Wb):
        return None
    walk = _leveling_boundary_walk(F)
    if walk is None or len(set(walk)) != len(walk):
        return None
    if not cyclic_equal(walk, RW.perimeter):
        return None
    return rep


def _search(F: FlatnessPair, limit: int):
    Wb_wall = _bullet_wall(F)
    Wb = Wb_wall.graph
    comps, bad = _components_of_bullet(F, Wb)
    if comps is None:
        return None
    cands = [(comp, _candidates(F, comp)) for comp in comps]
    cands.sort(key=lambda t: len(t[1]))
    tried = 0

    def rec(i, used, label):
        nonlocal tried
        if i == len(cands):
            tried += 1
            if tried > limit:
                raise CapacityError("well-alignment search over the limit")
            return _build(F, label, comps, Wb_wall, Wb)
        comp, opts = cands[i]
        for cid in opts:
            if cid in used:
                continue
            used.add(cid)
            label[comp.vertices] = cid
            got = rec(i + 1, used, label)
            if got is not None:
                return got
            used.discard(cid)
            del label[comp.vertices]
        return None

    return rec(0, set(), {})


def representation(F: FlatnessPair) -> Representation:
    if not is_regular(F):
        raise InputError("representation requires a regular pair")
    try:
        rep = _search(F, limit=50)
    except CapacityError:
        rep = None
    if rep is None:
        raise InternalError(
            "no representation found for a regular pair")
    return rep


def is_well_aligned(F: FlatnessPair, limit: int = 2000) -> Union[bool, str]:
    """True / False, or "unknown" when the bounded search is exhausted."""
    if is_regular(F):
        return representation(F) is not None
    try:
        rep = _search(F, limit=limit)
    except CapacityError:
        return "unknown"
    return rep is not None
