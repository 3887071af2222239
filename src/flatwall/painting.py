"""Plane paintings: hypergraph embeddings in a disk, stored combinatorially.

The embedding is an incidence-graph rotation system: one vertex per node,
one per cell, a spoke per (cell, boundary node) incidence, and for every
node the cyclic order of its incident cells as seen in the disk. Faces come
from dart tracing on integer ids (`_Incidence`, built once per painting);
the declared outer boundary must appear on a traced face. `trace_faces` and
`outer_face` hand faces out as pairs of ("n", node) / ("c", cell) vertices.

A normal cycle is routed through cell-vertices along spokes, so the curve
is a cycle of the incidence graph itself: two faces are in the same region
of the disk minus the curve iff connected across edges that are not on the
curve. Its inside is found by a flood fill over faces that starts at the
curve and stops once the inside is used up (`trace_normal_cycle`).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import InputError, InternalError, UnsupportedError

NV = Tuple[str, object]      # ("n", node) or ("c", cell)
_UNSET = object()           # a memo not computed yet, where None is a value


class Painting:
    """A disk embedding of a hypergraph with hyperedges of size <= 3.

    Immutable after construction, so what is derived from it is built once,
    on first use, and kept: the integer incidence table with its components,
    faces and face of every dart (`_incidence`, `_traced`), the outer face
    (`_outer_face_id`) and what `validate_painting` found (`_problems`).
    """

    __slots__ = ("nodes", "cells", "rotations", "outer", "_inc", "_outer",
                 "_problems")

    def __init__(self, nodes, cells: Dict, rotations: Dict, outer: Sequence):
        self.nodes = tuple(sorted(nodes, key=str))
        self.cells = {cid: tuple(b) for cid, b in cells.items()}
        self.rotations = {n: tuple(r) for n, r in rotations.items()}
        self.outer = tuple(outer)
        self._inc: Optional[_Incidence] = None
        self._outer = _UNSET
        self._problems: Optional[Tuple[str, ...]] = None


# -- face tracing ----------------------------------------------------------


class _Incidence:
    """The incidence graph of a painting on integer ids.

    Ids: the nodes 0..n-1 in `Painting.nodes` order, then the cells in
    `Painting.cells` order, then any name a rotation or boundary lists that
    no node or cell has (with an empty rotation); `keys[v]` is ("n", x) or
    ("c", cid). The rotation of v is `head[off[v]:off[v + 1]]`; d there is
    the dart `tail[d] = v` -> `head[d]`. `comps`: the ids of each connected
    component, by least id (`comp_of`: the component of each id). `trace`
    adds each dart's reverse (`rev`), the next-dart permutation (`nxt`),
    the faces as lists of darts, numbered and started at their least dart,
    and the face of each dart (`face_of`).
    """

    __slots__ = ("n", "keys", "node_id", "cell_id", "off", "head", "tail",
                 "comps", "comp_of", "rev", "nxt", "faces", "face_of")

    def __init__(self, P: Painting):
        nodes = list(dict.fromkeys(P.nodes))
        n = self.n = len(nodes)
        self.node_id = {x: i for i, x in enumerate(nodes)}
        self.cell_id = {c: n + j for j, c in enumerate(P.cells)}
        self.keys = [("n", x) for x in nodes] + [("c", c) for c in P.cells]
        head: List[int] = []
        off = [0]
        for x in nodes:
            head += self._ids(P.rotations.get(x, ()), self.cell_id, "c")
            off.append(len(head))
        for b in P.cells.values():
            head += self._ids(b, self.node_id, "n")
            off.append(len(head))
        off += [len(head)] * (len(self.keys) + 1 - len(off))
        self.off, self.head = off, head
        self.tail = [v for v in range(len(off) - 1)
                     for _ in range(off[v + 1] - off[v])]
        comp_of = [-1] * (len(off) - 1)
        self.comps, self.comp_of = [], comp_of
        for v in range(len(comp_of)):
            if comp_of[v] < 0:
                comp_of[v] = len(self.comps)
                comp = [v]
                for x in comp:              # grows while it is read
                    for y in head[off[x]:off[x + 1]]:
                        if comp_of[y] < 0:
                            comp_of[y] = len(self.comps)
                            comp.append(y)
                self.comps.append(comp)
        self.rev = self.nxt = self.faces = self.face_of = None

    def _ids(self, names, known: Dict, kind: str) -> List[int]:
        try:
            return [known[x] for x in names]
        except KeyError:            # a name of no node or cell: a new vertex
            for x in names:
                if x not in known:
                    known[x] = len(self.keys)
                    self.keys.append((kind, x))
            return [known[x] for x in names]

    def trace(self) -> None:
        """Pair each dart with its reverse, then follow the next-dart
        permutation: from u -> v on to v -> w, w the entry before u in the
        rotation of v. A rotation system that is not one raises at its
        first fault in vertex and dart order."""
        off, head, tail = self.off, self.head, self.tail
        rev = [-1] * len(head)
        try:
            for d in range(off[self.n]):         # node -> cell darts
                c = head[d]
                e = head.index(tail[d], off[c], off[c + 1])
                if rev[e] >= 0:
                    raise ValueError
                rev[d], rev[e] = e, d
            if -1 in rev:
                raise ValueError
        except ValueError:
            self._fault()
        nxt = [e - 1 if e > off[v] else off[v + 1] - 1
               for v, e in zip(head, rev)]
        face_of = [-1] * len(head)
        faces: List[List[int]] = []
        for s in range(len(head)):
            if face_of[s] < 0:
                face, d = [], s
                while face_of[d] < 0:
                    face_of[d] = len(faces)
                    face.append(d)
                    d = nxt[d]
                faces.append(face)
        self.rev, self.nxt, self.face_of = rev, nxt, face_of
        self.faces = faces or [[]]

    def _fault(self) -> None:
        off, head, keys = self.off, self.head, self.keys
        rots = [head[off[v]:off[v + 1]] for v in range(len(off) - 1)]
        for v, r in enumerate(rots):
            if len(set(r)) != len(r):
                raise InputError("duplicate incidence in rotation",
                                 witness=keys[v])
        u, v = next((u, v) for u, v in zip(self.tail, head)
                    if u not in rots[v])
        raise InputError("rotation is not symmetric",
                         witness=[keys[u], keys[v]])

    def darts(self, face: List[int]) -> Tuple[Tuple[NV, NV], ...]:
        keys, head, tail = self.keys, self.head, self.tail
        return tuple((keys[tail[d]], keys[head[d]]) for d in face)


def _incidence(P: Painting) -> _Incidence:
    if P._inc is None:
        P._inc = _Incidence(P)
    return P._inc


def _traced(P: Painting) -> _Incidence:
    """`_incidence(P)` with its faces traced; raises `InputError` when the
    rotations are not a rotation system."""
    if _incidence(P).faces is None:
        P._inc.trace()
    return P._inc


def trace_faces(P: Painting) -> List[Tuple[Tuple[NV, NV], ...]]:
    """Orbits of darts under the next-dart permutation; one tuple per face,
    of (("n", x) or ("c", cid)) pairs."""
    t = _traced(P)
    return [t.darts(f) for f in t.faces]


def _cyclic_subsequence(needle: Sequence, hay: List) -> bool:
    """Whether some rotation of hay holds needle as a subsequence."""
    if not needle:
        return True
    for start, h in enumerate(hay):
        if h == needle[0]:
            rest = iter(hay[start:] + hay[:start])
            if all(want in rest for want in needle):
                return True
    return False


def outer_face(P: Painting):
    """The traced face showing the declared outer nodes in order, if any."""
    f = _outer_face_id(P)
    return None if f is None else _traced(P).darts(_traced(P).faces[f])


def _outer_face_id(P: Painting) -> Optional[int]:
    if P._outer is _UNSET:
        t = _traced(P)
        ids = [t.node_id.get(x, -1) for x in P.outer if P.rotations.get(x)]
        P._outer = None
        # mirror embeddings describe the same disk, so a reversed outer
        # order is accepted too, but only when no face matches the declared
        # sense. A face showing the needle passes through its first node, so
        # only the faces of that node's darts are tried (none for -1, a name
        # of no node), in face order, and the first longest one wins.
        for needle in (ids, ids[::-1]):
            tries = (sorted({t.face_of[d] for d in range(
                t.off[needle[0]], t.off[needle[0] + 1])}) if needle
                else range(len(t.faces)))
            fits = [f for f in tries if _cyclic_subsequence(
                needle, [t.tail[d] for d in t.faces[f] if t.tail[d] < t.n])]
            if fits:
                P._outer = max(fits, key=lambda f: len(t.faces[f]))
                break
    return P._outer


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
        have = P.rotations.get(x, ())
        listed = set(have)
        if len(listed) == len(have) == len(cids) and listed == set(cids):
            continue
        have = sorted(have, key=str)
        if sorted(cids, key=str) != have:
            problems.append(f"node {x}: rotation {have} does not list its cells {sorted(cids, key=str)}")
    for x in P.rotations:
        if x not in nodeset:
            problems.append(f"rotation for unknown node {x}")
    if problems:
        return problems

    try:
        t = _traced(P)
    except InputError as e:
        return [f"rotation structure: {e}"]

    # planarity: Euler relation per connected component
    faces_in = Counter(t.comp_of[t.tail[f[0]]] for f in t.faces if f)
    for k, comp in enumerate(t.comps):
        V, F = len(comp), faces_in[k]
        E = sum(t.off[v + 1] - t.off[v] for v in comp) // 2
        if E and V - E + F != 2:
            problems.append(
                f"not planar: component with V={V} E={E} F={F} fails Euler")

    out = set(P.outer)
    if len(out) != len(P.outer):
        problems.append("outer boundary repeats a node")
    for x in P.outer:
        if x not in nodeset:
            problems.append(f"outer boundary names unknown node {x}")
    if not problems and P.outer and _outer_face_id(P) is None:
        problems.append("outer boundary order not realized by any face")
    return problems


# -- normal cycles ---------------------------------------------------------


@dataclass(frozen=True)
class NormalCycleTrace:
    """A normal cycle and the cells it encloses: the run cells, which the
    curve passes through, and the inside cells, which lie in a region of
    the disk minus the curve other than the one holding the outer face.
    Every other cell is outside and not listed, so a trace costs the inside
    of the curve, not the whole painting.
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

    The flood fill seeds one side with the faces of the curve's darts
    (p -> c and c -> q for a run (p, c, q)) and the other with those of the
    reversed darts. The sides grow in turn, one face each, and leave a face
    through every off-curve cell on it, all of whose corner faces join the
    side at once. A side that reaches the outer face is the outside and
    stops; the fill ends when the other side is used up: the inside.

    Why this is exact on a plane painting (one `validate_painting`
    accepts): the curve is simple (its entry nodes and cells are distinct,
    and a flagged third node is no other node of it, checked below), so
    the disk minus the curve has two regions, and the faces on one side of
    the curve's darts lie in one of them, as face tracing keeps a face on
    one side of its darts; every corner face of a run cell is the face of
    a curve dart or of its reverse, so it is a seed; and a side used up
    before it reaches the outer face is a whole region other than the
    outer one. So the fill visits at most twice the inside faces plus those
    next to the curve. A face reached from both sides means that P is not
    plane, and raises `InternalError`.
    """
    runs = [tuple(r) for r in runs]
    flags = list(z_rule)
    if len(runs) < 2:
        raise InputError("a normal cycle needs at least two runs")
    if len(flags) != len(runs):
        raise InputError("one arc flag per run expected")
    if len(_incidence(P).comps) > 1:
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

    outer_f = _outer_face_id(P)
    if outer_f is None:
        raise InputError("painting has no face matching its outer boundary")

    # the seeds of both sides, and per run the corner face that tells which
    # side carries the cell's body: for an unflagged third node the corner
    # at its spoke, for a flagged one the corner between the two entry
    # spokes that avoids it
    inc = _traced(P)
    faces, tail, off, face_of, rev, n = (inc.faces, inc.tail, inc.off,
                                         inc.face_of, inc.rev, inc.n)
    seeds: Tuple[List[int], List[int]] = ([], [])
    body_faces: List[Optional[int]] = []
    for (p, c, q), t, flag in zip(runs, third, flags):
        b, d0 = P.cells[c], off[inc.cell_id[c]]   # d0 + i: dart c -> b[i]
        dp, dq = d0 + b.index(p), d0 + b.index(q)
        seeds[0].extend((face_of[rev[dp]], face_of[dq]))
        seeds[1].extend((face_of[dp], face_of[rev[dq]]))
        if t is None:
            body_faces.append(None)
            continue
        x = (p if b[(b.index(p) + 1) % 3] == q else q) if flag else t
        body_faces.append(face_of[d0 + b.index(x)])

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

    run_set = {inc.cell_id[c] for c in run_cells}
    reached: Dict[int, int] = {}        # off-curve cell id -> its side
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
        for d in faces[f]:
            u = tail[d]
            if u < n or u in run_set or u in reached:
                continue
            reached[u] = s
            for g in face_of[off[u]:off[u + 1]]:   # the cell's corners
                o = owner.get(g)
                if o is None:
                    owner[g] = s
                    queue.append(g)
                elif o != s:
                    raise InternalError("cell off the curve spans two "
                                        "regions", witness=inc.keys[u][1])
        s = 1 - s

    inside = frozenset(inc.keys[u][1] for u, side in reached.items()
                       if side == s)
    sides = tuple(None if f is None else owner.get(f) == s
                  for f in body_faces)
    return NormalCycleTrace(tuple(runs), tuple(flags), inside,
                            frozenset(on_curve), sides)
