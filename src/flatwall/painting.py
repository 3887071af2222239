"""Plane paintings: hypergraph embeddings in a disk, stored combinatorially.

The embedding is an incidence-graph rotation system: one vertex per node,
one per cell, a spoke per (cell, boundary node) incidence, and for every
node the cyclic order of its incident cells as seen in the disk. Faces come
from dart tracing; the declared outer boundary must appear on a traced face.

A normal cycle is routed through cell-vertices along spokes, so the curve
is a cycle of the incidence graph itself and region queries reduce to
union-find over faces: two faces are in the same region of the disk minus
the curve iff connected across edges that are not on the curve.
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
    runs: Tuple[Tuple[object, object, object], ...]   # (entry, cell, exit)
    arc_flags: Tuple[bool, ...]
    inside_cells: FrozenSet
    outside_cells: FrozenSet
    nodes_on_curve: FrozenSet
    # per run: None for 2-node cells, else True iff the cell body (the part
    # of the cell not swept by the curve) lies on the inside of the curve
    run_sides: Tuple[Optional[bool], ...] = ()


class _UF:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[rb] = ra


def trace_normal_cycle(P: Painting, runs: Sequence[Tuple], z_rule: Sequence[bool]) -> NormalCycleTrace:
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

    face_of = _face_index(P)
    blocked = set()
    on_curve = set(entry_nodes)
    for i, (p, c, q) in enumerate(runs):
        blocked.add((p, c))
        blocked.add((q, c))
        if flags[i]:
            blocked.add((third[i], c))
            on_curve.add(third[i])

    spokes = _spokes(P)
    n_faces = len(trace_faces(P))
    uf = _UF(n_faces)
    for cid, ends in spokes.items():
        for x, a, b in ends:
            if (x, cid) not in blocked:
                uf.union(a, b)
    region = [uf.find(f) for f in range(n_faces)]

    outer = outer_face(P)
    if outer is None:
        raise InputError("painting has no face matching its outer boundary")
    outer_region = region[face_of[outer[0]]] if outer else 0

    inside = set()
    outside = set()
    run_set = set(run_cells)
    for cid, ends in spokes.items():
        if cid in run_set:
            continue
        regions = {region[b] for _, _, b in ends}
        if len(regions) != 1:
            raise InternalError("cell off the curve spans two regions",
                                witness=cid)
        if regions == {outer_region}:
            outside.add(cid)
        else:
            inside.add(cid)

    # which side of the curve carries each run cell's body: for an unflagged
    # third node the corner faces at its spoke, for a flagged one the corner
    # between the two entry spokes that avoids it
    sides: List[Optional[bool]] = []
    for i, (p, c, q) in enumerate(runs):
        t = third[i]
        if t is None:
            sides.append(None)
            continue
        if flags[i]:
            b = P.cells[c]
            j = b.index(p)
            x = p if b[(j + 1) % 3] == q else q
            reg = region[face_of[(_c(c), _n(x))]]
        else:
            reg = region[face_of[(_c(c), _n(t))]]
        sides.append(reg != outer_region)
    return NormalCycleTrace(tuple(runs), tuple(flags),
                            frozenset(inside), frozenset(outside),
                            frozenset(on_curve), tuple(sides))
