"""Plane paintings: hypergraph embeddings in a disk, stored combinatorially.

The embedding is an incidence-graph rotation system: one vertex per node,
one per cell, a spoke per (cell, boundary node) incidence, and for every
node the cyclic order of its incident cells as seen in the disk. Faces come
from dart tracing; the declared outer boundary must appear on a traced face.

A normal cycle is routed through cell-vertices along spokes, so the curve
is a cycle of the incidence graph itself: two faces are in the same region
of the disk minus the curve iff connected across edges that are not on the
curve. The inside of the curve is found by a flood fill over faces that
starts at the curve and stops once the inside is used up
(`trace_normal_cycle`), so it never visits more than about twice the
inside.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import InputError, InternalError, UnsupportedError

NV = Tuple[str, object]      # ("n", node) or ("c", cell)


_UNSET = object()           # a memo not computed yet, where None is a value


def _n(x) -> NV:
    return ("n", x)


def _c(x) -> NV:
    return ("c", x)


class Painting:
    """A disk embedding of a hypergraph with hyperedges of size <= 3.

    Immutable after construction: nodes, cells, rotations and the outer
    boundary are never changed. So the tables derived from them are built
    once, on first use, and kept on the object: the incidence rotation
    system (`rot`), the faces (`trace_faces`), the face of every dart
    (`_face_index`), the connected components (`_components`), the outer
    face (`outer_face`), the spokes with the faces on either side
    (`_spokes`) and what `validate_painting` found (`_problems`).
    """

    __slots__ = ("nodes", "cells", "rotations", "outer", "_rot", "_faces",
                 "_face_of", "_comps", "_outer_face", "_spoke_faces",
                 "_problems")

    def __init__(self, nodes, cells: Dict, rotations: Dict, outer: Sequence):
        self.nodes = tuple(sorted(nodes, key=str))
        self.cells = {cid: tuple(b) for cid, b in cells.items()}
        self.rotations = {n: tuple(r) for n, r in rotations.items()}
        self.outer = tuple(outer)
        self._rot: Optional[Dict[NV, Tuple[NV, ...]]] = None
        self._faces = None
        self._face_of = None
        self._comps = None
        self._outer_face = _UNSET
        self._spoke_faces = None
        self._problems: Optional[Tuple[str, ...]] = None

    def boundary(self, cid) -> Tuple:
        return self.cells[cid]

    def rot(self) -> Dict[NV, Tuple[NV, ...]]:
        if self._rot is None:
            r: Dict[NV, Tuple[NV, ...]] = {}
            for n in self.nodes:
                r[_n(n)] = tuple(_c(cid) for cid in self.rotations.get(n, ()))
            for cid, b in self.cells.items():
                r[_c(cid)] = tuple(_n(x) for x in b)
            self._rot = r
        return self._rot


# -- face tracing ----------------------------------------------------------


def trace_faces(P: Painting) -> List[Tuple[Tuple[NV, NV], ...]]:
    """Orbits of darts under the next-dart permutation; one list per face."""
    if P._faces is not None:
        return P._faces
    rot = P.rot()
    index: Dict[NV, Dict[NV, int]] = {}
    for v, ns in rot.items():
        index[v] = {}
        for i, w in enumerate(ns):
            if w in index[v]:
                raise InputError("duplicate incidence in rotation", witness=v)
            index[v][w] = i
    darts = [(u, v) for u, ns in rot.items() for v in ns]
    for u, v in darts:
        if u not in index.get(v, {}):
            raise InputError("rotation is not symmetric", witness=[u, v])
    pending = set(darts)
    faces = []
    for start in darts:
        if start not in pending:
            continue
        face = []
        d = start
        while d in pending:
            pending.remove(d)
            face.append(d)
            u, v = d
            ns = rot[v]
            w = ns[(index[v][u] - 1) % len(ns)]
            d = (v, w)
        faces.append(tuple(face))
    if not faces:
        faces = [()]
    P._faces = faces
    return faces


def _face_index(P: Painting) -> Dict[Tuple[NV, NV], int]:
    """The index in `trace_faces(P)` of the face holding each dart."""
    if P._face_of is None:
        P._face_of = {d: i for i, f in enumerate(trace_faces(P)) for d in f}
    return P._face_of


def _spokes(P: Painting) -> Dict[object, Tuple[Tuple[object, int, int], ...]]:
    """The spokes of each cell in boundary order, as (node, face of the dart
    node -> cell, face of the dart cell -> node)."""
    if P._spoke_faces is None:
        face_of = _face_index(P)
        P._spoke_faces = {
            cid: tuple((x, face_of[(_n(x), _c(cid))],
                        face_of[(_c(cid), _n(x))]) for x in b)
            for cid, b in P.cells.items()}
    return P._spoke_faces


def _face_node_sequence(face) -> List:
    return [u[1] for u, _ in face if u[0] == "n"]


def _cyclic_subsequence(needle: Sequence, hay: Sequence) -> bool:
    if not needle:
        return True
    if not hay:
        return False
    doubled = list(hay) + list(hay)
    for start, h in enumerate(hay):
        if h != needle[0]:
            continue
        i = start
        ok = True
        for want in needle:
            while i < start + len(hay) and doubled[i] != want:
                i += 1
            if i >= start + len(hay):
                ok = False
                break
            i += 1
        if ok:
            return True
    return False


def _components(P: Painting) -> List[FrozenSet[NV]]:
    if P._comps is not None:
        return P._comps
    rot = P.rot()
    seen = set()
    comps = []
    for v in rot:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            for y in rot[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    P._comps = comps
    return comps


def outer_face(P: Painting):
    """The traced face showing the declared outer nodes in order, if any."""
    if P._outer_face is _UNSET:
        P._outer_face = _find_outer_face(P)
    return P._outer_face


def _find_outer_face(P: Painting):
    faces = trace_faces(P)
    non_isolated = [x for x in P.outer if P.rotations.get(x)]
    # mirror embeddings describe the same disk, so a reversed outer order is
    # accepted too, but only when no face matches the declared sense
    for needle in (non_isolated, list(reversed(non_isolated))):
        best = None
        for face in faces:
            seq = _face_node_sequence(face)
            if needle and not set(needle) <= set(seq):
                continue
            if _cyclic_subsequence(needle, seq):
                if best is None or len(face) > len(best):
                    best = face
        if best is not None:
            return best
    return None


def validate_painting(P: Painting) -> List[str]:
    if P._problems is None:
        P._problems = tuple(_painting_problems(P))
    return list(P._problems)


def _painting_problems(P: Painting) -> List[str]:
    problems = []
    nodeset = set(P.nodes)
    if len(nodeset) != len(P.nodes):
        problems.append("duplicate node ids")
    incident: Dict[object, List] = {x: [] for x in P.nodes}
    for cid, b in P.cells.items():
        if not 1 <= len(b) <= 3:
            problems.append(f"cell {cid}: boundary size {len(b)} violates |c~| <= 3")
            continue
        if len(set(b)) != len(b):
            problems.append(f"cell {cid}: repeated boundary node")
        for x in b:
            if x not in nodeset:
                problems.append(f"cell {cid}: unknown node {x}")
            else:
                incident[x].append(cid)
    for x, cids in incident.items():
        have = sorted(P.rotations.get(x, ()), key=str)
        if sorted(cids, key=str) != have:
            problems.append(f"node {x}: rotation {have} does not list its cells {sorted(cids, key=str)}")
    for x in P.rotations:
        if x not in nodeset:
            problems.append(f"rotation for unknown node {x}")
    if problems:
        return problems

    try:
        faces = trace_faces(P)
    except InputError as e:
        return [f"rotation structure: {e}"]

    # planarity: Euler relation per connected component
    rot = P.rot()
    for comp in _components(P):
        V = len(comp)
        E = sum(len(rot[v]) for v in comp) // 2
        if E == 0:
            continue
        F = sum(1 for f in faces if f and f[0][0] in comp)
        if V - E + F != 2:
            problems.append(
                f"not planar: component with V={V} E={E} F={F} fails Euler")

    out = set(P.outer)
    if len(out) != len(P.outer):
        problems.append("outer boundary repeats a node")
    for x in P.outer:
        if x not in nodeset:
            problems.append(f"outer boundary names unknown node {x}")
    if not problems and P.outer and outer_face(P) is None:
        problems.append("outer boundary order not realized by any face")
    return problems


# -- normal cycles ---------------------------------------------------------


@dataclass(frozen=True)
class NormalCycleTrace:
    """A normal cycle and the cells it encloses.

    The cells of the painting fall in three classes: the run cells, which
    the curve passes through; the inside cells, which lie in a region of
    the disk minus the curve other than the one holding the outer face;
    and every other cell, which is outside. Only the first two are listed,
    so a trace costs the inside of the curve, not the whole painting.
    """

    runs: Tuple[Tuple[object, object, object], ...]   # (entry, cell, exit)
    arc_flags: Tuple[bool, ...]
    inside_cells: FrozenSet
    nodes_on_curve: FrozenSet
    # per run: None for 2-node cells, else True iff the cell body (the part
    # of the cell not swept by the curve) lies on the inside of the curve
    run_sides: Tuple[Optional[bool], ...] = ()


def trace_normal_cycle(P: Painting, runs: Sequence[Tuple],
                       z_rule: Sequence[bool]) -> NormalCycleTrace:
    """The cells of the connected painting P inside a normal cycle.

    The curve runs along spokes: from each entry node into its run cell and
    out to the exit node, and for a flagged run also to the cell's third
    node. Two faces lie in one region of the disk minus the curve iff a
    path of faces joins them across spokes off the curve.

    The inside is found by a flood fill over faces that starts at the
    curve. The faces of the curve's darts (p -> c and c -> q for a run
    (p, c, q)) seed one side, those of the reversed darts the other. The
    sides grow in lockstep, one face each in turn, and leave a face through
    every off-curve cell on it: such a cell has no spoke on the curve, so
    all its corner faces join the side at once. A side that reaches the
    outer face is the outside and stops growing; the fill ends when the
    other side is used up, and the cells it reached are the inside.

    Why this is exact on a plane painting (one `validate_painting`
    accepts):
    - the curve is simple: its entry nodes and cells are distinct, and a
      flagged third node is no other node of the curve (checked below), so
      the spoke to it hangs off the curve into one side;
    - so the disk minus the curve has two regions, and the faces on one
      side of the curve's darts lie in one of them, because face tracing
      keeps every face on the same side of its darts;
    - every corner face of a run cell is the face of a curve dart or of its
      reverse, so it is a seed, and no spoke of a run cell needs crossing;
    - a side used up before it reaches the outer face is a whole region
      other than the outer one: the inside, the other side being the
      outside. A side that reaches the outer face is the outside, and the
      other side, once used up, is the inside.
    So the fill visits at most twice the inside faces plus those next to
    the curve. A face reached from both sides means that P is not plane,
    and raises `InternalError`.
    """
    runs = [tuple(r) for r in runs]
    flags = list(z_rule)
    if len(runs) < 2:
        raise InputError("a normal cycle needs at least two runs")
    if len(flags) != len(runs):
        raise InputError("one arc flag per run expected")
    if len(_components(P)) > 1:
        raise UnsupportedError("normal cycles on disconnected paintings")

    run_cells = [c for _, c, _ in runs]
    if len(set(run_cells)) != len(run_cells):
        raise UnsupportedError("a cell hosting two runs of one normal cycle")
    entry_nodes = [p for p, _, _ in runs]
    if len(set(entry_nodes)) != len(entry_nodes):
        raise InputError("curve revisits a node; not a simple closed curve")

    third: List[Optional[object]] = []
    for i, (p, c, q) in enumerate(runs):
        if c not in P.cells:
            raise InputError("run through unknown cell", witness=c)
        b = P.cells[c]
        if p == q or p not in b or q not in b:
            raise InputError("run endpoints must be two boundary nodes",
                             witness=runs[i])
        nxt = runs[(i + 1) % len(runs)]
        if q != nxt[0]:
            raise InputError("consecutive runs must share their node",
                             witness=[runs[i], nxt])
        rest = [x for x in b if x not in (p, q)]
        third.append(rest[0] if rest else None)
        if flags[i] and third[i] is None:
            raise InputError("arc flag set on a two-node cell", witness=c)

    on_curve = set(entry_nodes)
    for t, flag in zip(third, flags):
        if flag:
            if t in on_curve:
                raise InputError("curve revisits a node; not a simple "
                                 "closed curve", witness=t)
            on_curve.add(t)

    outer = outer_face(P)
    if outer is None:
        raise InputError("painting has no face matching its outer boundary")

    # the seeds of both sides, and per run the corner face that tells which
    # side carries the cell's body: for an unflagged third node the corner
    # at its spoke, for a flagged one the corner between the two entry
    # spokes that avoids it
    spokes = _spokes(P)
    seeds: Tuple[List[int], List[int]] = ([], [])
    body_faces: List[Optional[int]] = []
    for (p, c, q), t, flag in zip(runs, third, flags):
        b = P.cells[c]
        sp, sq = spokes[c][b.index(p)], spokes[c][b.index(q)]
        seeds[0].extend((sp[1], sq[2]))
        seeds[1].extend((sp[2], sq[1]))
        if t is None:
            body_faces.append(None)
            continue
        x = (p if b[(b.index(p) + 1) % 3] == q else q) if flag else t
        body_faces.append(spokes[c][b.index(x)][2])

    owner: Dict[int, int] = {}          # face -> the side that reached it
    queues: Tuple[List[int], List[int]] = ([], [])
    for s in (0, 1):
        for f in seeds[s]:
            o = owner.get(f)
            if o is None:
                owner[f] = s
                queues[s].append(f)
            elif o != s:
                raise InternalError("curve does not separate the painting",
                                    witness=runs)

    faces = trace_faces(P)
    outer_f = _face_index(P)[outer[0]]
    run_set = set(run_cells)
    reached: Dict[object, int] = {}     # off-curve cell -> its side
    heads = [0, 0]
    s = 0
    while True:
        if owner.get(outer_f) == s:     # the outside stops growing
            s = 1 - s
        queue = queues[s]
        if heads[s] == len(queue):
            break                       # side s is used up: the inside
        f = queue[heads[s]]
        heads[s] += 1
        for u, _ in faces[f]:
            if u[0] != "c" or u[1] in run_set or u[1] in reached:
                continue
            cid = u[1]
            reached[cid] = s
            for _, _, g in spokes[cid]:
                o = owner.get(g)
                if o is None:
                    owner[g] = s
                    queue.append(g)
                elif o != s:
                    raise InternalError("cell off the curve spans two "
                                        "regions", witness=cid)
        s = 1 - s

    inside = frozenset(cid for cid, side in reached.items() if side == s)
    sides = tuple(None if f is None else owner.get(f) == s
                  for f in body_faces)
    return NormalCycleTrace(tuple(runs), tuple(flags), inside,
                            frozenset(on_curve), sides)
