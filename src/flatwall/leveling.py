"""Levelings, enriched walls, representations, and well-alignment.

The leveling is the bipartite incidence graph of ground vertices and
flap-vertices. W-bullet is the wall with every short edge subdivided once.
A pair is well-aligned when the leveling contains a wall R_W, with the
same boundary as the leveling itself, such that W-bullet is isomorphic to
a subdivision of R_W by an isomorphism fixing every ground vertex. So R_W
is the quotient of W-bullet that collapses each ground-free component to
one flap-vertex, and the only freedom is the labelling: each component
takes one of its `_candidates`, no flap two components.

No search over labellings is needed, as `_build` depends on the labels
only through injectivity and the boundary walk:

- an injective labelling only names the collapsed components, so neither
  the quotient wall's validity nor `_reconstructs` (whose tau paths are
  the legs) depends on it;
- R_W's perimeter is W-bullet's, each run of a component collapsed to one
  flap-vertex between the run's two ground neighbours. The walk must be
  that cycle, with distinct vertices, so it forces the label of each
  component on the perimeter: the cell it puts between those neighbours
  (two cells only on a walk of four vertices, shorter than any wall's).

`_search` keeps that one candidate for those components, gives all
components distinct candidates by augmenting paths, which exist whenever
any labelling does, and runs `_build` once: it decides exactly what a
search over every labelling decides. On a regular pair it returns that
search's first leaf, each component labelled by its own flap, so the
representation bytes are the same:

- the own flaps are distinct: two components in one tidy flap would need
  four attachment edges on at most three boundary vertices;
- the walk's cell between two ground vertices is the flap holding the
  perimeter piece between them; any other cell there would be external.

The tables are built once per pair (`_Index`), so a representation costs
the flaps of the pair and not the flaps times the components. The indexed
candidates equal the scan over every cell that they replace:

- the own flap of a component with a wall vertex v is the first cell, in
  sigma order, holding v off its boundary; `owner` records that first cell
  for every such vertex while walking sigma in the same order;
- a cell whose boundary holds all the attachments holds the first one, so
  the cells at `attachments[0]`, kept in `sorted(sigma, key=str)` order and
  filtered by `attachments <= boundary`, are exactly the cells the scan
  keeps, in the scan's order.

A component's edges, their degrees and the legs' BFS paths are read from
the adjacency of W-bullet restricted at each attachment to the component:
the adjacency of the graph of the edges at its vertices, which the scan
over every edge of W-bullet builds, with the same sorted neighbour order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import InputError, InternalError
from .flatness import FlatnessPair, is_regular, short_edges
from .graph import Graph, bfs_path, cyclic_equal, norm_edge, vkey
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
    return _bullet_wall(F, short_edges(F)).graph


def leveling_graph(F: FlatnessPair) -> Leveling:
    R = F.rendition
    vf = {cid: _fv(cid) for cid in R.sigma}
    edges = [(x, vf[cid]) for cid in R.sigma for x in R.pi_boundary(cid)]
    g = Graph(list(F.ground()) + list(vf.values()), edges)
    return Leveling(g, F.ground(), vf, tuple(R.omega))


def _bullet_wall(F: FlatnessPair, trivial: Dict[Tuple, object]) -> Wall:
    """The wall carrying the extra subdivision vertices of w_bullet, where
    trivial is `short_edges(F)`."""
    W = F.wall
    wedges = W.graph.edge_set
    short = {e for e in trivial if e in wedges}
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


class _Index:
    """The tables `_candidates` reads, built once per pair."""

    __slots__ = ("trivial", "boundary", "at", "owner")

    def __init__(self, F: FlatnessPair, trivial: Dict[Tuple, object]):
        R = F.rendition
        # edge of a trivial flap -> its cell (`short_edges`)
        self.trivial = trivial
        # cell -> pi of its boundary
        self.boundary = {cid: R.pi_boundary(cid) for cid in R.sigma}
        # ground vertex -> the cells with it on their boundary, str order
        self.at: Dict[object, List] = {}
        for cid in sorted(R.sigma, key=str):
            for x in self.boundary[cid]:
                self.at.setdefault(x, []).append(cid)
        # vertex -> the first cell, in sigma order, holding it off its
        # boundary
        self.owner: Dict[object, object] = {}
        for cid, g in R.sigma.items():
            for v in g.vertex_set - self.boundary[cid]:
                self.owner.setdefault(v, cid)


def _components_of_bullet(F: FlatnessPair, Wb: Graph):
    """Ground-free pieces of w_bullet with their legs; None on a bad shape."""
    ground = F.ground()
    inner = Wb.remove_vertices(ground)
    comps = []
    for comp in inner.components():
        # H, the graph of the edges at comp, by its adjacency: all of a
        # comp vertex's, and an attachment's edges into comp
        adj = {v: Wb.neighbors(v) for v in comp}
        att = sorted({u for v in comp for u in adj[v] if u in ground},
                     key=vkey)
        for x in att:
            adj[x] = tuple(u for u in Wb.neighbors(x) if u in comp)
        m = sum(map(len, adj.values())) // 2
        centers = [v for v in comp if len(adj[v]) == 3]
        if any(len(adj[v]) > 3 for v in comp) or len(centers) > 1:
            return None, comp
        if centers:
            if len(att) != 3:
                return None, comp
            w = centers[0]
        else:
            if len(att) != 2:
                return None, comp
            path = bfs_path(adj, att[0], att[1])
            if len(path) != len(adj) or m != len(path) - 1:
                return None, comp
            w = path[(len(path) - 1) // 2]
        legs = {x: bfs_path(adj, w, x) for x in att}
        if sum(len(p) - 1 for p in legs.values()) != m:
            return None, comp
        comps.append(_Component(frozenset(comp), tuple(att), w, legs))
    return comps, None


def _candidates(ix: _Index, comp: _Component) -> List:
    """Flaps usable as the label of a component, own flap first."""
    own = []
    wall_vs = [v for v in comp.vertices if not (isinstance(v, tuple)
                                                and v and v[0] == "s")]
    if not wall_vs:
        (s,) = comp.vertices
        e = (s[1], s[2])
        if e in ix.trivial:
            own.append(ix.trivial[e])
    elif wall_vs[0] in ix.owner:
        own.append(ix.owner[wall_vs[0]])
    att = set(comp.attachments)
    rest = [cid for cid in ix.at.get(comp.attachments[0], ())
            if cid not in own and att <= ix.boundary[cid]]
    return own + rest


def _quotient_wall(ground: FrozenSet, Wb_wall: Wall,
                   label: Dict[FrozenSet, object]) -> Wall:
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


def _build(label: Dict[FrozenSet, object], comps: List[_Component],
           Wb_wall: Wall, Wb: Graph, ground: FrozenSet,
           walk: Tuple) -> Optional[Representation]:
    RW = _quotient_wall(ground, Wb_wall, label)
    if RW.validate():
        return None
    rho: Dict[Tuple, object] = {x: x for x in Wb.vertices if x in ground}
    tau: Dict[Tuple, Tuple] = {}
    for comp in comps:
        v = _fv(label[comp.vertices])
        rho[v] = comp.center
        for x, leg in comp.legs.items():
            tau[norm_edge(x, v)] = leg
    rep = Representation(RW, rho, tau)
    if not _reconstructs(rep, Wb):
        return None
    # a valid wall's perimeter has distinct vertices, and so has the walk
    return rep if cyclic_equal(walk, RW.perimeter) else None


def _augment(root: FrozenSet, cands: Dict, label: Dict,
             holder: Dict) -> bool:
    """Label component root by an augmenting path, breadth first from its
    own flap: each component on the path passes its cell back to the one
    before it and takes the next."""
    via = {}                       # cell -> the component that reached it
    queue = [root]
    for key in queue:              # walked as it grows: breadth first
        for cid in cands[key]:
            if cid in via:
                continue
            via[cid] = key
            if cid in holder:
                queue.append(holder[cid])
                continue
            while cid is not None:
                key = via[cid]
                label[key], cid = cid, label.get(key)
                holder[label[key]] = key
            return True
    return False


def _search(F: FlatnessPair) -> Optional[Representation]:
    """The representation of F, or None when there is none: `_build` on
    the one labelling the module docstring derives."""
    trivial = short_edges(F)
    Wb_wall = _bullet_wall(F, trivial)
    Wb = Wb_wall.graph
    comps, _ = _components_of_bullet(F, Wb)
    walk = _leveling_boundary_walk(F)
    if comps is None or walk is None:
        return None
    ix = _Index(F, trivial)
    cands = {comp.vertices: _candidates(ix, comp) for comp in comps}
    # a component on the perimeter keeps the one candidate the walk puts
    # between its ground neighbours there
    n = len(walk)
    between = {frozenset((walk[i - 1], walk[(i + 1) % n])): walk[i]
               for i in range(n)}
    comp_at = {v: comp.vertices for comp in comps for v in comp.vertices}
    ground, P = F.ground(), Wb_wall.perimeter
    near: Dict[FrozenSet, set] = {}
    for u, v in zip(P, P[1:] + P[:1]):
        if (u in ground) != (v in ground):
            x, g = (v, u) if u in ground else (u, v)
            near.setdefault(comp_at[x], set()).add(g)
    for key, g in near.items():
        f = between.get(frozenset(g))
        cands[key] = [cid for cid in cands[key] if _fv(cid) == f]
    label, holder = {}, {}         # component -> cell, and back
    if not all(_augment(comp.vertices, cands, label, holder)
               for comp in comps):
        return None
    return _build(label, comps, Wb_wall, Wb, ground, walk)


def representation(F: FlatnessPair) -> Representation:
    """The representation of a regular pair; `InternalError` if there is
    none."""
    if not is_regular(F):
        raise InputError("representation requires a regular pair")
    rep = _search(F)
    if rep is None:
        raise InternalError("no representation found for a regular pair")
    return rep


def is_well_aligned(F: FlatnessPair) -> bool:
    """Whether F, regular or not, has a representation. A regular pair
    without one raises `InternalError`."""
    rep = _search(F)
    if rep is None and is_regular(F):
        raise InternalError("no representation found for a regular pair")
    return rep is not None
