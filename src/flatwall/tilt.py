"""Wall tilts: stretchings, cell replacement, untidy repair, regularization.

The central construction takes a flatness pair and a subwall W' and rebuilds
the certificate so that every cell is internal or inner-perimetric for a
wall with the same interior as W'. Outer-perimetric cells are cut open: the
wall is rerouted through a shortest path of the flap and the cell is
replaced by a chain of small cells, one per stretching piece. The painting
surgery goes through the tightening editor `rendition._Work`: the tilt
copies the cells it keeps and puts every chain in with one `replace_cells`
call, so the tilt and `tighten` share one planar-placement search.

A second pass removes untidiness: a cell hiding two wall edges at one
ground vertex gets the wall rerouted around that vertex, one cell per
round, without touching the rendition.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import InputError, InternalError
from .flatness import (FlatnessPair, _untidy_at, classify_cells, cycle_runs,
                       influence, is_regular, untidy_cells, validate_flatness)
from .graph import Graph, max_vertex_disjoint_paths, norm_edge, vkey
from .rendition import Rendition, _Work, flap_union
from .wall import PegsCorners, Wall, _template, fresh_names, is_tilt


# -- stretchings -----------------------------------------------------------


@dataclass(frozen=True)
class Stretching:
    """A shortest path split at its interior high-degree vertices."""

    pieces: Tuple[Tuple, ...]
    junctions: Tuple
    x: object
    y: object

    @property
    def r(self) -> int:
        return len(self.pieces)

    def path(self) -> Tuple:
        out = list(self.pieces[0])
        for p in self.pieces[1:]:
            out.extend(p[1:])
        return tuple(out)


def _split(path: Sequence, cuts: Sequence) -> List[Tuple]:
    cset = set(cuts)
    pieces = []
    cur = [path[0]]
    for v in path[1:]:
        cur.append(v)
        if v in cset:
            pieces.append(tuple(cur))
            cur = [v]
    pieces.append(tuple(cur))
    return pieces


def _stretch_along(F: Graph, path: Sequence, extra=frozenset()) -> Stretching:
    cuts = [v for v in path[1:-1] if F.degree(v) >= 3 or v in extra]
    return Stretching(tuple(_split(path, cuts)), tuple(cuts),
                      path[0], path[-1])


def stretching(F: Graph, x, y) -> Stretching:
    if x == y:
        raise InputError("stretching endpoints must differ", witness=x)
    return _stretch_along(F, F.shortest_path(x, y))


def _biased_path(flap: Graph, x, y, anchors: Sequence) -> List:
    """Shortest (x, y)-path forced through the anchors, in order."""
    base = flap.shortest_path(x, y)
    if not anchors:
        return list(base)
    pts = [x] + list(anchors) + [y]
    legs = [flap.shortest_path(a, b) for a, b in zip(pts, pts[1:])]
    if sum(len(p) - 1 for p in legs) != len(base) - 1:
        raise InternalError(
            "no shortest path keeps the required wall vertices",
            witness=list(anchors))
    out = list(legs[0])
    for p in legs[1:]:
        out.extend(p[1:])
    if len(set(out)) != len(out):
        raise InternalError("biased shortest path revisits a vertex",
                            witness=out)
    return out


# -- wall surgery ----------------------------------------------------------


def _seg_chain(W: Wall, path: Sequence) -> List[Tuple]:
    edge_seg = {}
    for key, p in W.seg_paths.items():
        for e in zip(p, p[1:]):
            edge_seg[norm_edge(*e)] = key
    chain: List[Tuple] = []
    for e in zip(path, path[1:]):
        k = edge_seg.get(norm_edge(*e))
        if k is None:
            raise InternalError("path leaves the wall", witness=list(e))
        if not chain or chain[-1] != k:
            chain.append(k)
    return chain


def _splice_wall(W: Wall, old_path: Sequence, new_path: Sequence,
                 override: Optional[Dict] = None,
                 validate: bool = True) -> Wall:
    """Replace a wall path by a new one with the same endpoints.

    Branch coordinates interior to the old path are re-anchored: a 3-branch
    vertex must reappear on the new path (or be redirected via `override`),
    while degree-2 coordinates take fresh interior vertices in order.
    """
    override = override or {}
    old_path = list(old_path)
    new_path = list(new_path)
    if old_path[0] != new_path[0] or old_path[-1] != new_path[-1]:
        raise InternalError("splice endpoints differ",
                            witness=[old_path[0], new_path[0]])
    inv = {v: c for c, v in W.branch_coords.items()}
    deg = _template(W.height).degree
    chain = _seg_chain(W, old_path)
    interior = [(inv[v], v) for v in old_path[1:-1] if v in inv]
    if len(chain) != len(interior) + 1:
        raise InternalError("segment chain mismatch on the old path",
                            witness=chain)

    pos = {v: i for i, v in enumerate(new_path)}
    idxs: List[Optional[int]] = []
    for c, v in interior:
        tgt = override.get(c, v)
        if tgt in pos:
            idxs.append(pos[tgt])
        elif deg[c] == 3:
            raise InternalError("3-branch vertex lost from the new path",
                                witness=v)
        else:
            idxs.append(None)
    lo = 0
    j = 0
    while j < len(idxs):
        if idxs[j] is not None:
            if idxs[j] <= lo:
                raise InternalError("anchors out of order on the new path")
            lo = idxs[j]
            j += 1
            continue
        k = j
        while k < len(idxs) and idxs[k] is None:
            k += 1
        hi = idxs[k] if k < len(idxs) else len(new_path) - 1
        if hi - lo - 1 < k - j:
            raise InternalError(
                "not enough room on the new path for branch vertices",
                witness=[c for c, _ in interior[j:k]])
        for t in range(j, k):
            idxs[t] = lo + 1 + (t - j)
        lo = idxs[k - 1]
        j = k

    segs = dict(W.seg_paths)
    bcoords = dict(W.branch_coords)
    cuts = [0] + idxs + [len(new_path) - 1]
    for j, key in enumerate(chain):
        p = list(W.seg_paths[key])
        if j < len(interior):
            if p[-1] != interior[j][1]:
                p.reverse()
        elif j > 0:
            if p[0] != interior[j - 1][1]:
                p.reverse()
        elif p.index(old_path[0]) > p.index(old_path[-1]):
            p.reverse()
        mid = new_path[cuts[j]:cuts[j + 1] + 1]
        prefix = p[:p.index(old_path[0])] if j == 0 else []
        suffix = p[p.index(old_path[-1]) + 1:] if j == len(chain) - 1 else []
        segs[key] = tuple(prefix + mid + suffix)
    for (c, _), i in zip(interior, idxs):
        bcoords[c] = new_path[i]
    out = Wall(W.height, bcoords, segs)
    if validate:
        bad = out.validate()
        if bad:
            raise InternalError("wall splice broke the wall", witness=bad)
    return out


# -- the main construction -------------------------------------------------


@dataclass(frozen=True)
class TiltResult:
    pair: FlatnessPair
    provenance: Dict            # new cell id -> (source cell, piece index)
    kept_internal: FrozenSet

    @property
    def wall(self) -> Wall:
        return self.pair.wall


def tilt_main(G: Graph, F: FlatnessPair, Wp: Wall) -> TiltResult:
    R = F.rendition
    P0 = R.painting
    runs, flags, run_paths = cycle_runs(F, Wp.perimeter)
    classes = classify_cells(F, Wp)
    ground = F.ground()
    pi_inv = {v: n for n, v in R.pi.items()}

    kept_internal = frozenset(c for c, cc in classes.items()
                              if cc.kind == "internal")
    ip, op = [], []
    run_info = {}
    for (pn, cid, qn), fl, path in zip(runs, flags, run_paths):
        run_info[cid] = path
        if classes[cid].kind == "inner-perimetric":
            ip.append(cid)
        elif classes[cid].kind == "outer-perimetric":
            op.append(cid)
        else:
            raise InternalError("run cell classified off the cycle",
                                witness=cid)

    per_set = Wp.perimeter_set
    V_mid = set()
    V_in = set()
    for cid in ip:
        V_mid |= R.pi_boundary(cid) & per_set

    chains: Dict[object, Stretching] = {}
    Wtil = Wp
    for cid in sorted(op, key=str):
        path = run_info[cid]
        flap = R.sigma[cid]
        anchors = [v for v in path[1:-1]
                   if v in ground or Wp.graph.degree(v) == 3]
        new = _biased_path(flap, path[0], path[-1], anchors)
        st = _stretch_along(flap, new, extra=ground)
        if st.r < 2:
            raise InputError(
                "outer-perimetric cell admits no junction; the rendition "
                "cannot be tight", witness=cid)
        chains[cid] = st
        V_mid |= {st.x, st.y} | set(st.junctions)
        V_in |= set(new) - {st.x, st.y} - set(st.junctions)
        Wtil = _splice_wall(Wtil, path, new)

    Yp = set(V_mid) | set(V_in)
    for cid in kept_internal | set(ip):
        Yp |= R.sigma[cid].vertex_set
    Xp = (G.vertex_set - Yp) | V_mid

    pegs = set(F.pegs_corners.pegs & V_mid)
    corners = set(F.pegs_corners.corners & V_mid)
    for cid in sorted(op, key=str):
        st = chains[cid]
        vc = st.junctions[0]
        for side, dest in ((F.pegs_corners.pegs, pegs),
                           (F.pegs_corners.corners, corners)):
            for w in run_info[cid]:
                if not (Wp.graph.degree(w) == 3 or w in side):
                    continue
                cand = w if w in Yp else vc
                if cand in V_mid:
                    if cand in dest and cand == vc:
                        warnings.warn(
                            f"peg re-seating collision at {cand}; keeping one")
                    dest.add(cand)
                else:
                    raise InternalError("re-seated peg misses the boundary",
                                        witness=cand)
    pegs |= corners

    # painting surgery through the tightening editor: keep the internal
    # and perimetric cells, then replace each outer-perimetric cell by a
    # chain of 2-node cells along its stretching
    w = _Work(R, keep=kept_internal | set(ip) | set(op))
    node_names = fresh_names(P0.nodes, prefix="q")
    node_of: Dict[object, object] = {}
    provenance: Dict[str, Tuple] = {}
    replacements = {}
    for cid in sorted(op, key=str):
        st = chains[cid]
        pts = (st.x,) + st.junctions + (st.y,)
        for v in pts:
            node_of[v] = pi_inv[v] if v in pi_inv else next(node_names)
            if node_of[v] not in w.pi:
                w.nodes.append(node_of[v])
                w.pi[node_of[v]] = v
        new = {}
        for i, piece in enumerate(st.pieces):
            nid = f"t|{cid}|{i}"
            while nid in P0.cells:
                nid += "+"
            provenance[nid] = (cid, i)
            w.sigma[nid] = Graph((), zip(piece, piece[1:]))
            new[nid] = (node_of[pts[i]], node_of[pts[i + 1]])
        replacements[cid] = new
    w.omega = tuple(v for v in Wtil.perimeter if v in V_mid)
    w.outer = tuple(node_of.get(v, pi_inv.get(v)) for v in w.omega)
    if any(n is None for n in w.outer):
        raise InternalError("boundary vertex without a node", witness=w.omega)
    # built on the painting the placement search validated, so that
    # validate_flatness reuses the validate_painting result it keeps
    Rn = Rendition(w.replace_cells(replacements), w.sigma, w.pi, w.omega)
    pair = FlatnessPair(Wtil, Xp, Yp, PegsCorners(frozenset(pegs),
                                                  frozenset(corners)), Rn)
    bad = validate_flatness(G, pair, lenient_pegs=True)
    if bad:
        raise InternalError("tilt produced an invalid certificate",
                            witness=bad)
    res = TiltResult(pair, provenance, kept_internal)
    bad = validate_tilt(G, F, Wp, res)
    if bad:
        raise InternalError("tilt violates its contract", witness=bad)
    return res


def validate_tilt(G: Graph, F: FlatnessPair, Wp: Wall,
                  res: TiltResult) -> List[str]:
    """The five properties a W'-tilt must satisfy."""
    out = []
    pair = res.pair
    classes = classify_cells(pair, pair.wall)
    for cid, cc in classes.items():
        if cc.kind == "outer-perimetric":
            out.append(f"cell {cid} is {cc.kind}")
    cells = pair.rendition.painting.cells
    if len(classes) != len(cells):
        out.extend(f"cell {cid} is external"
                   for cid in sorted(cells.keys() - classes.keys(), key=str))
    if not is_tilt(pair.wall, Wp):
        out.append("interiors of the walls differ")
    new_internal = {cid for cid, cc in classes.items()
                    if cc.kind == "internal"}
    if new_internal != set(res.kept_internal):
        out.append("internal cell set changed")
    else:
        for cid in new_internal:
            if pair.rendition.sigma[cid] is not F.rendition.sigma[cid] and \
                    pair.rendition.sigma[cid].edge_set != \
                    F.rendition.sigma[cid].edge_set:
                out.append(f"flap of internal cell {cid} changed")
    inf_v, inf_e = flap_union(influence(F, Wp).values())
    comp_v, comp_e = flap_union(pair.rendition.sigma.values())
    if not (comp_v <= inf_v and comp_e <= inf_e):
        out.append("compass leaves the influence of the subwall")
    old_cells = set(F.rendition.painting.cells)
    for cid in pair.rendition.painting.cells:
        if cid not in old_cells:
            if len(pair.rendition.painting.cells[cid]) > 2:
                out.append(f"new cell {cid} has more than two nodes")
    return out


def compute_tilt(G: Graph, F: FlatnessPair, Wp: Wall) -> TiltResult:
    res = tilt_main(G, F, Wp)
    # the source is checked only when the tilt came out irregular, so a
    # regular tilt never pays for a scan of the whole source pair
    if not is_regular(res.pair) and is_regular(F):
        raise InternalError("tilt of a regular pair came out irregular")
    return res


# -- untidy repair ---------------------------------------------------------


def _wall_path_in_cell(F: FlatnessPair, cid) -> List:
    g = F.rendition.sigma[cid]
    wedges = F.wall.graph.edge_set
    edges = [e for e in g.edges if e in wedges]
    H = Graph((), edges)
    ends = [v for v in H.vertices if H.degree(v) == 1]
    if len(ends) != 2 or any(H.degree(v) > 2 for v in H.vertices):
        raise InputError("untidy cell does not hold a single wall path",
                         witness=cid)
    path = [ends[0]]
    prev = None
    while path[-1] != ends[1]:
        nxt = [u for u in H.neighbors(path[-1]) if u != prev]
        prev = path[-1]
        path.append(nxt[0])
    return path


def _repair_one(G: Graph, F: FlatnessPair, cid) -> FlatnessPair:
    R = F.rendition
    g = R.sigma[cid]
    bnd = R.pi_boundary(cid)
    if len(bnd) != 3:
        raise InputError("untidy cell without a 3-point boundary",
                         witness=cid)
    W = F.wall
    zs = _untidy_at(F, cid)
    if len(zs) != 1:
        raise InputError("cell is not untidy at a unique vertex", witness=cid)
    (z,) = zs
    x, y = sorted(bnd - {z}, key=vkey)
    pbar = _wall_path_in_cell(F, cid)
    if pbar[0] not in (x, y) or pbar[-1] not in (x, y) or z not in pbar[1:-1]:
        raise InputError("wall path through the cell misses its boundary",
                         witness=cid)
    x, y = pbar[0], pbar[-1]
    for v in pbar[1:-1]:
        if v != z and W.graph.degree(v) == 3:
            raise InputError("second 3-branch vertex on the rerouted path",
                             witness=v)

    chosen = None
    for w in sorted(g.vertex_set - bnd, key=vkey):
        paths = max_vertex_disjoint_paths(g, [w], [x, y, z], fan=True)
        if len(paths) == 3:
            chosen = (w, {p[-1]: p for p in paths})
            break
    if chosen is None:
        raise InputError(
            "no vertex reaches the boundary on three disjoint paths; the "
            "rendition cannot be tight", witness=cid)
    w, legs = chosen
    through = list(reversed(legs[x])) + list(legs[y])[1:]

    if W.graph.degree(z) == 3:
        cz = {v: c for c, v in W.branch_coords.items()}.get(z)
        if cz is None:
            raise InternalError("3-branch vertex without a coordinate",
                                witness=z)
        Wn = _splice_wall(W, pbar, through, override={cz: w}, validate=False)
        chain = set(_seg_chain(W, pbar))
        key3 = next(k for k in W.seg_paths if cz in k and k not in chain)
        p = list(Wn.seg_paths[key3])
        if p[0] != z:
            p.reverse()
        segs = dict(Wn.seg_paths)
        segs[key3] = tuple(list(legs[z]) + p[1:])
        Wn = Wall(W.height, Wn.branch_coords, segs)
        bad = Wn.validate()
        if bad:
            raise InternalError("untidy reroute broke the wall", witness=bad)
    else:
        Wn = _splice_wall(W, pbar, through)
    return FlatnessPair(Wn, F.X, F.Y, F.pegs_corners, R)


def repair_untidy(G: Graph, F: FlatnessPair) -> FlatnessPair:
    cur = F
    limit = len(F.rendition.sigma) + 1
    for _ in range(limit):
        classes = classify_cells(cur, cur.wall)
        utd = sorted((cid for cid in untidy_cells(cur)
                      if classes[cid].kind in ("internal",
                                               "inner-perimetric")),
                     key=str)
        if not utd:
            return cur
        nxt = _repair_one(G, cur, utd[0])
        classes2 = classify_cells(nxt, nxt.wall)
        left = [cid for cid in untidy_cells(nxt)
                if classes2[cid].kind in ("internal", "inner-perimetric")]
        if len(left) != len(utd) - 1:
            raise InternalError("untidy count did not drop by one",
                                witness=sorted(left, key=str))
        cur = nxt
    raise InternalError("untidy repair failed to terminate")


# -- Theorem-level drivers -------------------------------------------------


def regularize(G: Graph, F: FlatnessPair) -> FlatnessPair:
    """A regular pair of F's height whose compass lies in F's; the final
    tilt validates it against G. `repair_untidy` keeps F's rendition, so
    the tilt's own check that its compass lies in the influence of the
    tidy wall already bounds it by F's compass."""
    tidy = repair_untidy(G, F)
    out = tilt_main(G, tidy, tidy.wall).pair
    if not is_regular(out):
        raise InternalError("regularization left an irregular pair")
    if out.wall.height != F.wall.height:
        raise InternalError("regularization changed the wall height")
    return out
