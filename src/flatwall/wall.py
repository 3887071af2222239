"""Walls: elementary walls, subdivisions, subwalls, pegs/corners, tilts.

A Wall always carries its template correspondence: a map from template
coordinates of the elementary r-wall to vertices, plus one subdivision path
per template edge. Everything else (perimeter, bricks, horizontal and
vertical paths) is derived from the template.

The template of a height, the elementary r-wall, is the same for every
wall of that height. It is built once per process, on first use, as an
immutable record (`_template`) that wall validation, subwalls and wall
recognition share; its skeleton is built when recognition first needs it.
The cache holds one record per distinct height used, so its size is
bounded by the heights a caller asks for.
"""
from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import (Dict, FrozenSet, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

from .errors import CapacityError, InputError, InternalError
from .graph import Graph, norm_edge, vkey

Coord = Tuple[int, int]


# -- template geometry -----------------------------------------------------


def check_height(r: int):
    if r < 3 or r % 2 == 0:
        raise InputError("height must be an odd integer >= 3", witness=r)


def temp_vertices(r: int) -> List[Coord]:
    return list(_template(r).vertices)


def temp_edges(r: int) -> List[Tuple[Coord, Coord]]:
    return list(_template(r).edges)


def temp_degree(r: int) -> Dict[Coord, int]:
    return dict(_template(r).degree)


def temp_hpath(r: int, j: int) -> List[Coord]:
    # row 1 lacks (2r, 1) and row r lacks (1, r), as in temp_vertices
    check_height(r)
    if not 1 <= j <= r:
        return []
    return [(x, j) for x in range(1 + (j == r), 2 * r + 1 - (j == 1))]


def temp_vpath(r: int, m: int) -> List[Coord]:
    # snake through columns 2m-1 and 2m
    i = 2 * m - 1
    path = [(i, 1)]
    cur = i
    for y in range(1, r):
        col = i if y % 2 == 1 else i + 1
        if col != cur:
            path.append((col, y))
            cur = col
        path.append((col, y + 1))
    return path


def temp_perimeter(r: int) -> List[Coord]:
    return list(_template(r).perimeter)


def temp_brick(band: int, slot: int) -> List[Coord]:
    """The template brick between rows band, band + 1 and vertical paths
    slot, slot + 1 (columns 2m - 1 and 2m are vertical path m)."""
    x1 = 2 * slot - band % 2
    return ([(x, band) for x in range(x1, x1 + 3)]
            + [(x, band + 1) for x in range(x1 + 2, x1 - 1, -1)])


def temp_bricks(r: int) -> List[List[Coord]]:
    check_height(r)
    return [temp_brick(y, m) for y in range(1, r) for m in range(1, r)]


def internal_slots(r: int) -> List[Coord]:
    """(band, slot) of the template bricks off the perimeter (rows 1, r and
    vertical paths 1, r), in `temp_bricks` order."""
    inner = range(2, r - 1)
    return [(y, m) for y in inner for m in inner]


def temp_corners(r: int) -> List[Coord]:
    return list(_template(r).corners)


def temp_pegs(r: int) -> List[Coord]:
    return list(_template(r).pegs)


def _norm_cedge(a: Coord, b: Coord) -> Tuple[Coord, Coord]:
    return (a, b) if a < b else (b, a)


class _Skeleton(NamedTuple):
    """The elementary r-wall's skeleton, as wall recognition matches it:
    its branch vertices (those of degree 3; the skeleton is cubic and
    simple) and the arcs between them, in template coordinates.

    - arcs: every arc, ordered and oriented as on the wall whose vertex ids
      are the `_cid` strings: from its lesser end, by that end and then the
      vertex after it;
    - order: the branch vertices breadth first along `arcs` from the
      anchor, the first in `_cid` order on a 3-arc cycle, so that the
      anchor's neighbours come next; a vertex's index here is its number,
      and the images along it order the embeddings;
    - back: per vertex of `order`, its arcs to those before it, each as
      (arc, number of its first end, number of its last end); a recognised
      wall's maps follow this order;
    - plan: the steps that place every branch vertex after the anchor's
      neighbours, each as (v, p, others), the numbers of v, of a neighbour
      p placed before it and of v's other neighbours placed before it.
      Either v is p's only neighbour left unplaced, or some q in others
      has no unplaced common neighbour with p but v.
    """

    arcs: Tuple[Tuple[Coord, ...], ...]
    order: Tuple[Coord, ...]
    back: Tuple[Tuple[Tuple[Coord, ...], int, int], ...]
    plan: Tuple[Tuple[int, int, Tuple[int, ...]], ...]


@dataclass(frozen=True)
class _Template:
    """The elementary r-wall, as every wall of height r reads it.

    - vertices, edges: in `temp_vertices` and `temp_edges` order, each edge
      normalised (its lesser end first), and the degree map, whose keys are
      the vertex set;
    - perimeter: in `temp_perimeter` order, with its set; pegs, corners: in
      `temp_pegs` and `temp_corners` order;
    - skeleton: built on first use, so that a process that only validates
      walls never traces it (a dataclass rather than a NamedTuple, for the
      instance dict `cached_property` keeps it in).
    """

    vertices: Tuple[Coord, ...]
    edges: Tuple[Tuple[Coord, Coord], ...]
    degree: Mapping[Coord, int]
    perimeter: Tuple[Coord, ...]
    perimeter_set: FrozenSet[Coord]
    pegs: Tuple[Coord, ...]
    corners: Tuple[Coord, ...]

    @functools.cached_property
    def skeleton(self) -> _Skeleton:
        # traced on the `_cid` strings, whose order orders the arcs
        ids = {c: _cid(c) for c in self.vertices}
        adj: Dict[str, List[str]] = {i: [] for i in ids.values()}
        for a, b in self.edges:
            adj[ids[a]].append(ids[b])
            adj[ids[b]].append(ids[a])
        darts = _arcs_from(adj)
        arcs = sorted(p for ps in darts.values() for p in ps if p[0] < p[-1])
        at: Dict[str, List] = {b: [] for b in darts}
        for a in arcs:
            at[a[0]].append(a)
            at[a[-1]].append(a)
        nb = {v: [_other(a, v) for a in at[v]] for v in at}
        if any(len(set(n)) != 3 for n in nb.values()):
            raise InternalError("template skeleton is not cubic and simple")
        order = [next(v for v in sorted(nb) if _on_triangle(nb, v))]
        seen = set(order)
        for v in order:                 # the template is connected
            for w in nb[v]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        num = {v: i for i, v in enumerate(order)}
        # the steps of `_skeleton_embeddings`: a vertex is tried again
        # whenever one within distance 2 of it is placed, the only event
        # that can let either rule place it
        placed = set(order[:4])
        plan = []
        queue = collections.deque(w for u in order[1:4] for w in nb[u])
        while queue:
            v = queue.popleft()
            if v in placed:
                continue
            near = [u for u in nb[v] if u in placed]
            for p in near:
                free = [w for w in nb[p] if w not in placed]
                if free == [v] or any([w for w in free if w in nb[q]] == [v]
                                      for q in near if q != p):
                    break
            else:
                continue
            plan.append((num[v], num[p],
                         tuple(num[u] for u in near if u != p)))
            placed.add(v)
            queue.extend(w for u in (v, *nb[v]) for w in nb[u])
        if len(placed) != len(nb):
            raise InternalError("template skeleton is not forced by a flag")
        coord = {i: c for c, i in ids.items()}
        path = {a: tuple(map(coord.get, a)) for a in arcs}
        return _Skeleton(
            arcs=tuple(path.values()), order=tuple(map(coord.get, order)),
            back=tuple((path[a], num[a[0]], num[a[-1]])
                       for i, v in enumerate(order) for a in at[v]
                       if num[_other(a, v)] < i),
            plan=tuple(plan))


@functools.lru_cache(maxsize=None)
def _template(r: int) -> _Template:
    """The elementary r-wall's record, built once per height and process.

    Every value in it is immutable, so callers share it; the `temp_*`
    functions hand out fresh lists. The cache holds one record per
    distinct height a process uses.
    """
    check_height(r)
    vertices = [(x, y) for y in range(1, r + 1) for x in range(1, 2 * r + 1)]
    vertices.remove((2 * r, 1))
    vertices.remove((1, r))
    # one object per coordinate, however often the record holds it
    one = {c: c for c in vertices}
    edges = []
    for c in sorted(one):
        x, y = c
        if (x + 1, y) in one:
            edges.append((c, one[x + 1, y]))
        if (x, y + 1) in one and (x + y) % 2 == 0:
            edges.append((c, one[x, y + 1]))
    degree = {c: 0 for c in vertices}
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    left = temp_vpath(r, 1)                      # (1,1) .. (2,r)
    top = temp_hpath(r, r)                       # (2,r) .. (2r,r)
    right = list(reversed(temp_vpath(r, r)))     # (2r,r) .. (2r-1,1)
    bottom = list(reversed(temp_hpath(r, 1)))    # (2r-1,1) .. (1,1)
    cycle = left + top[1:] + right[1:] + bottom[1:-1]
    perimeter = tuple(one[c] for c in cycle)
    return _Template(
        vertices=tuple(vertices), edges=tuple(edges),
        degree=MappingProxyType(degree),
        perimeter=perimeter, perimeter_set=frozenset(perimeter),
        pegs=tuple(c for c in perimeter if degree[c] == 2),
        corners=((1, 1), (2, r), (2 * r - 1, 1), (2 * r, r)))


# -- the Wall value --------------------------------------------------------


class Wall:
    """A subdivision of the elementary r-wall with explicit correspondence.

    Immutable after construction: the height, the branch coordinates and
    the subdivision paths are never changed. So what is derived from them
    is computed once, on first use, and kept in `_memo`:

    - "lines": the expanded rows and vertical paths (`horizontal_path`,
      `vertical_path`);
    - "perimeter", "perimeter_set", "perimeter_edges": D(W) as a cyclic
      vertex sequence, its vertex set and its normalised edge set;
    - "problems": what `validate` found.

    The inverse of `branch_coords` is not kept: each wall surgery in
    `tilt` that needs a vertex's coordinate builds it once, for that wall.
    """

    __slots__ = ("height", "branch_coords", "seg_paths", "_graph", "_memo")

    def __init__(self, height: int, branch_coords: Dict[Coord, object],
                 seg_paths: Dict[Tuple[Coord, Coord], Sequence], *,
                 graph: Optional[Graph] = None):
        """graph, if given, must be the union of the paths; recognition
        passes the graph it read them off, rather than building it again."""
        check_height(height)
        self.height = height
        self.branch_coords = dict(branch_coords)
        self.seg_paths = {_norm_cedge(*k): tuple(p) for k, p in seg_paths.items()}
        if graph is None:
            edges = []
            for p in self.seg_paths.values():
                edges.extend(zip(p, p[1:]))
            graph = Graph(self.branch_coords.values(), edges)
        self._graph = graph
        self._memo: Dict = {}

    @property
    def graph(self) -> Graph:
        return self._graph

    def expand(self, coords: Sequence[Coord]) -> Tuple:
        """Concatenate subdivision paths along a template coordinate walk."""
        out: List = []
        for a, b in zip(coords, coords[1:]):
            key = _norm_cedge(a, b)
            if key not in self.seg_paths:
                raise InputError("not a template edge", witness=[a, b])
            p = list(self.seg_paths[key])
            if p[0] != self.branch_coords[a]:
                p.reverse()
            if out:
                p = p[1:]
            out.extend(p)
        if not out:
            out = [self.branch_coords[coords[0]]]
        return tuple(out)

    def expand_cycle(self, coords: Sequence[Coord]) -> Tuple:
        walk = list(coords) + [coords[0]]
        return self.expand(walk)[:-1]

    def _memoised(self, key: str, make):
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = make()
        return got

    def _line(self, kind: int, i: int) -> Tuple:
        """Row (kind 0) or vertical path (kind 1) number i, expanded."""
        if not 1 <= i <= self.height:
            raise InputError("wall line index out of range", witness=i)
        r = self.height
        lines = self._memoised("lines", lambda: (
            tuple(self.expand(temp_hpath(r, j)) for j in range(1, r + 1)),
            tuple(self.expand(temp_vpath(r, m)) for m in range(1, r + 1))))
        return lines[kind][i - 1]

    def horizontal_path(self, j: int) -> Tuple:
        return self._line(0, j)

    def vertical_path(self, m: int) -> Tuple:
        return self._line(1, m)

    @property
    def perimeter(self) -> Tuple:
        """D(W) as a cyclic vertex sequence."""
        return self._memoised("perimeter", lambda: self.expand_cycle(
            temp_perimeter(self.height)))

    @property
    def perimeter_set(self) -> FrozenSet:
        return self._memoised("perimeter_set",
                              lambda: frozenset(self.perimeter))

    @property
    def perimeter_edges(self) -> FrozenSet:
        per = self.perimeter
        return self._memoised("perimeter_edges", lambda: frozenset(
            norm_edge(u, v) for u, v in zip(per, per[1:] + per[:1])))

    def bricks(self) -> List[Tuple]:
        return [self.expand_cycle(b) for b in temp_bricks(self.height)]

    def internal_bricks(self) -> List[Tuple]:
        """The bricks that share no vertex with the perimeter, expanded from
        the template bricks off the template perimeter (`internal_slots`).

        This is exact for a wall that passes `validate`: distinct
        subdivision paths share only branch vertices, which are distinct,
        so a brick meets the perimeter exactly when its template brick does.
        """
        return [self.expand_cycle(temp_brick(y, m))
                for y, m in internal_slots(self.height)]

    def validate(self) -> List[str]:
        return list(self._memoised("problems",
                                   lambda: tuple(self._problems())))

    def _problems(self) -> List[str]:
        problems = []
        T = _template(self.height)
        if self.branch_coords.keys() != T.degree.keys():
            problems.append("branch coordinate set differs from template")
            return problems
        imgs = set(self.branch_coords.values())
        if len(imgs) != len(self.branch_coords):
            problems.append("branch coordinate map is not injective")
        # the template edges are distinct, so this is set equality
        if (len(self.seg_paths) != len(T.edges)
                or not all(map(self.seg_paths.__contains__, T.edges))):
            problems.append("subdivision paths do not match template edges")
            return problems
        # with distinct branch vertices at the ends of each path and
        # subdivision vertices used once each off them, no path revisits a
        # vertex and no edge is used twice, so the scan below has nothing
        # to report
        bc = self.branch_coords
        inner = [v for p in self.seg_paths.values() for v in p[1:-1]]
        if not (len(imgs) == len(bc) and imgs.isdisjoint(inner)
                and len(set(inner)) == len(inner)
                and all((p[0], p[-1]) in ((bc[a], bc[b]), (bc[b], bc[a]))
                        for (a, b), p in self.seg_paths.items())):
            problems += self._segment_problems(imgs)
        adj, deg = self._graph._adj, T.degree
        for c, v in bc.items():
            if v in adj and len(adj[v]) != deg[c]:
                problems.append(f"vertex {v} degree {len(adj[v])} "
                                f"!= template {deg[c]}")
        return problems

    def _segment_problems(self, imgs) -> List[str]:
        problems = []
        seen_edges = set()
        seen_internal = set()
        for (a, b), p in self.seg_paths.items():
            ends = {p[0], p[-1]}
            if ends != {self.branch_coords[a], self.branch_coords[b]}:
                problems.append(f"segment {a}-{b} endpoints mismatch")
            if len(set(p)) != len(p):
                problems.append(f"segment {a}-{b} revisits a vertex")
            for e in zip(p, p[1:]):
                key = norm_edge(*e)
                if key in seen_edges:
                    problems.append(f"edge {key} used by two segments")
                seen_edges.add(key)
            for v in p[1:-1]:
                if v in seen_internal or v in imgs:
                    problems.append(f"subdivision vertex {v} reused")
                seen_internal.add(v)
        return problems

    def __eq__(self, other):
        return (isinstance(other, Wall) and self.height == other.height
                and self.branch_coords == other.branch_coords
                and self.seg_paths == other.seg_paths)

    def __repr__(self):
        return f"Wall(height={self.height}, n={self._graph.n})"


@dataclass(frozen=True)
class PegsCorners:
    pegs: FrozenSet
    corners: FrozenSet


# -- constructions ---------------------------------------------------------


def _cid(c: Coord) -> str:
    return f"{c[0]},{c[1]}"


def elementary_wall(r: int) -> Wall:
    T = _template(r)
    branch = {c: _cid(c) for c in T.vertices}
    segs = {e: (_cid(e[0]), _cid(e[1])) for e in T.edges}
    return Wall(r, branch, segs)


def fresh_names(existing: Iterable, prefix: str = "s"):
    taken = set(existing)
    i = 0
    while True:
        name = f"{prefix}{i}"
        i += 1
        if name not in taken:
            taken.add(name)
            yield name


def subdivide_wall(W: Wall, plan: Dict) -> Wall:
    """Subdivide wall edges; plan maps a wall edge (u,v) to a vertex count."""
    wanted = {}
    for e, cnt in plan.items():
        u, v = e
        if not W.graph.has_edge(u, v):
            raise InputError("plan edge not in wall", witness=[u, v])
        key = norm_edge(u, v)
        if cnt < 0:
            raise InputError("negative subdivision count", witness=cnt)
        wanted[key] = cnt
    names = fresh_names(W.graph.vertices)
    segs = {}
    for ce, p in W.seg_paths.items():
        newp = [p[0]]
        for u, v in zip(p, p[1:]):
            key = norm_edge(u, v)
            for _ in range(wanted.get(key, 0)):
                newp.append(next(names))
            newp.append(v)
        segs[ce] = tuple(newp)
    return Wall(W.height, W.branch_coords, segs)


# -- subwalls --------------------------------------------------------------


_NOT_A_WALL = "paths do not assemble into a wall"


def row_selection_valid(rows: Sequence[int]) -> bool:
    """Whether the middle rows alternate in parity, as a wall's rows do.

    W's vertical paths cross its even rows left to right and its odd middle
    rows right to left. When rows[1] is even, the selected middle rows meet
    the vertical paths as rows 2, 3, ... of an elementary wall do; when it
    is odd, they do so in the mirror image, which `subwall` reads instead.
    """
    rows = list(rows)
    mids = rows[1:-1]
    return any(
        all((j - (k + 2) - eps) % 2 == 0 for k, j in enumerate(mids))
        for eps in (0, 1))


def subwall(W: Wall, rows: Sequence[int], cols: Sequence[int]) -> Wall:
    """The subwall of W on the given rows and vertical paths.

    The subwall is read off W's rows and vertical paths as they are when
    rows[1] is even, and mirrored (columns in reverse order, every row
    reversed) when rows[1] is odd, so that its vertical paths cross its
    even rows left to right. Each vertical path then starts where it leaves
    the bottom row, ends where it reaches the top row, and spans a middle
    row between the two ends of its run along that row. W must pass
    `Wall.validate`, which runs once per wall.
    """
    bad = W.validate()
    if bad:
        raise InputError("subwall of a malformed wall", witness=bad)
    rows = sorted(set(rows))
    cols = sorted(set(cols))
    rp = len(rows)
    if rp != len(cols):
        raise InputError("row and column selections must have equal size")
    check_height(rp)
    r = W.height
    if rows[0] < 1 or rows[-1] > r or cols[0] < 1 or cols[-1] > r:
        raise InputError("selection index out of range",
                         witness={"rows": rows, "cols": cols})
    if not row_selection_valid(rows):
        raise InputError("row selection breaks the wall parity pattern",
                         witness=rows)
    hp = [W.horizontal_path(j) for j in rows]
    vp = [W.vertical_path(m) for m in cols]
    if rows[1] % 2:
        hp = [p[::-1] for p in hp]
        vp.reverse()
    hpos = [{v: i for i, v in enumerate(p)} for p in hp]
    vpos = [{v: i for i, v in enumerate(p)} for p in vp]
    row_of = {v: k for k, at in enumerate(hpos, 1) for v in at}

    branch: Dict[Coord, object] = {}
    for m, path in enumerate(vp, 1):
        runs: Dict[int, List] = {k: [] for k in range(1, rp + 1)}
        for v in path:
            if v in row_of:
                runs[row_of[v]].append(v)
        if not all(runs.values()):
            raise InputError(_NOT_A_WALL)
        branch[(2 * m - 1, 1)] = runs[1][-1]
        branch[(2 * m, rp)] = runs[rp][0]
        for k in range(2, rp):
            run = runs[k] if k % 2 == 0 else runs[k][::-1]
            branch[(2 * m - 1, k)], branch[(2 * m, k)] = run[0], run[-1]
    # the degree-2 vertices of the bottom and top rows
    for m in range(1, rp):
        for x, y in ((2 * m, 1), (2 * m + 1, rp)):
            i = hpos[y - 1][branch[(x - 1, y)]] + 1
            if i == len(hp[y - 1]):
                raise InputError(_NOT_A_WALL)
            branch[(x, y)] = hp[y - 1][i]

    segs = {}
    for a, b in _template(rp).edges:
        if a[1] == b[1]:
            path, at = hp[a[1] - 1], hpos[a[1] - 1]
        else:                   # columns 2m-1 and 2m are vertical path m
            path, at = vp[(a[0] - 1) // 2], vpos[(a[0] - 1) // 2]
        segs[(a, b)] = path[at[branch[a]]:at[branch[b]] + 1]
    S = Wall(rp, branch, segs)
    if any(len(p) < 2 for p in segs.values()) or S.validate():
        raise InputError(_NOT_A_WALL)
    return S


def subwall_selections(W: Wall, rp: int):
    """The (rows, cols) of every rp-subwall of W, in lexicographic order,
    without building any: `subwall` builds the one a caller wants."""
    check_height(rp)
    bad = W.validate()
    if bad:
        raise InputError("subwall of a malformed wall", witness=bad)
    idx = range(1, W.height + 1)
    for rows in itertools.combinations(idx, rp):
        if row_selection_valid(rows):
            for cols in itertools.combinations(idx, rp):
                yield rows, cols


# -- interiors and tilts ---------------------------------------------------


def _interior_sets(W: Wall) -> Tuple[FrozenSet, FrozenSet]:
    G = W.graph
    drop = {v for v in W.perimeter if G.degree(v) == 2}
    return (G.vertex_set - drop,
            frozenset(e for e in G.edge_set - W.perimeter_edges
                      if e[0] not in drop and e[1] not in drop))


def interior(W: Wall) -> Graph:
    """W without its perimeter edges and its degree-2 perimeter vertices."""
    return Graph(*_interior_sets(W))


def is_tilt(W1: Wall, W2: Wall) -> bool:
    return _interior_sets(W1) == _interior_sets(W2)


# -- skeleton embeddings: recognition, pegs and corners --------------------


def _arcs_from(adj: Mapping) -> Dict:
    """Per vertex of degree other than 2 in the graph with adjacency adj,
    the paths that leave it through vertices of degree 2 and end at the
    next such vertex: the arcs of the graph's skeleton, each traced once
    and stored from both of its ends."""
    out: Dict = {v: [] for v, ns in adj.items() if len(ns) != 2}
    done = set()
    for b, paths in out.items():
        done.add(b)
        for v in adj[b]:
            if v in done:
                continue
            path, u = [b, v], b
            while v not in out:
                done.add(v)
                x, y = adj[v]
                u, v = v, (y if x == u else x)
                path.append(v)
            paths.append(tuple(path))
            out[v].append(tuple(reversed(path)))
    return out


def _other(arc, v):
    return arc[-1] if arc[0] == v else arc[0]


def _on_triangle(nb: Mapping, v) -> bool:
    """Whether v lies on a cycle of three arcs of a cubic simple skeleton
    whose neighbour tuples are nb."""
    x, y, z = nb[v]
    return y in nb[x] or z in nb[x] or z in nb[y]


def _skeleton_embeddings(S: _Skeleton, G: Graph):
    """Every embedding of the template skeleton S into the skeleton of G.

    G must be the subdivision itself: every edge of G lies on an arc. An
    embedding maps the branch vertices bijectively and each template arc to
    its own host arc between the images of its ends, with at least as many
    inner vertices. Yields (images, arc map): the images of `S.order`, and
    per template arc in `S.back` order its host arc, oriented like it. The
    embeddings come with the least images along `S.order` first, in `vkey`
    order, as a search trying candidates in that order would find them.

    The search is forced, with no backtracking. The template skeleton is
    cubic and simple, so a host with an embedding is too. An embedding e
    sends the anchor to a vertex h on a 3-arc cycle and the anchor's
    neighbours, in one of 6 orders, onto h's neighbours: a flag. Let e
    agree with the vertices placed so far, and let (v, p, others) be the
    next step of `S.plan`. e maps the neighbours of each placed vertex onto
    those of its image and the placed vertices onto the images, so:

    - if v is p's only unplaced neighbour, e(v) is the only neighbour of
      e(p) that is not an image;
    - if v is the only unplaced common neighbour of p and some q in
      others, e(v) is the only common neighbour of e(p) and e(q) that is
      not an image.

    Either way e(v) is the only neighbour x of e(p) that is not an image
    and is adjacent to the image of each of others, the vertex the step
    takes. By induction, e is the map its flag's steps build: a flag is
    extended by at most one embedding, which the search finds. A flag that
    no embedding extends stops at a step with no such x or fails the final
    check of every arc and its length; so what is kept is exactly the
    embeddings, sorted per start.
    """
    darts = _arcs_from({v: G.neighbors(v) for v in G.vertex_set})
    if (len(darts) != len(S.order) or sum(
            len(p) - 1 for ps in darts.values() for p in ps) != 2 * G.m):
        return
    nb = {}
    for b, ps in darts.items():
        nb[b] = ends = tuple([p[-1] for p in ps])
        if len(set(ends)) != 3 or b in ends:
            return
    plan, back, rest = S.plan, S.back, [None] * (len(S.order) - 4)
    for h in sorted((h for h in nb if _on_triangle(nb, h)), key=vkey):
        found = []
        for flag in itertools.permutations(nb[h]):
            vmap = [h, *flag, *rest]
            used = set(vmap[:4])
            for v, p, others in plan:
                for x in nb[vmap[p]]:
                    if x not in used:
                        near = nb[x]
                        if all(vmap[w] in near for w in others):
                            break
                else:
                    break               # no embedding extends this flag
                vmap[v] = x
                used.add(x)
            else:
                amap = {}
                for ta, i, j in back:
                    ns = nb[vmap[i]]
                    if vmap[j] not in ns:
                        break
                    amap[ta] = ha = darts[vmap[i]][ns.index(vmap[j])]
                    if len(ha) < len(ta):
                        break
                else:
                    found.append((vmap, amap))
        if len(found) > 1:
            found.sort(key=lambda e: [vkey(x) for x in e[0]])
        yield from found


def recognize_wall(G: Graph, r: int) -> Optional[Wall]:
    """G as a subdivided elementary r-wall, or None if it is not one.

    G must be the subdivision itself, with no other vertices or edges. The
    result is the first skeleton embedding (`_skeleton_embeddings`); template
    vertices inside an arc take the first inner vertices of its host arc.
    The wall's graph is G.
    """
    S = _template(r).skeleton
    emb = next(_skeleton_embeddings(S, G), None)
    if emb is None:
        return None
    vmap, amap = emb
    branch_coords = dict(zip(S.order, vmap))
    seg_paths: Dict = {}
    for ta, hp in amap.items():
        if len(ta) == 2:                # most arcs: one template edge
            seg_paths[ta] = hp
            continue
        k = len(ta) - 1
        cut = list(range(k)) + [len(hp) - 1]
        for j in range(1, k):
            branch_coords[ta[j]] = hp[j]
        for j in range(k):
            seg_paths[(ta[j], ta[j + 1])] = hp[cut[j]:cut[j + 1] + 1]
    W = Wall(r, branch_coords, seg_paths, graph=G)
    if W.validate():
        return None
    return W


def _ranks(T: _Template, amap) -> List[Tuple]:
    """Per template arc: the inner vertices of its host arc under the
    skeleton embedding amap, and which inner template vertices are
    corners."""
    return [(amap[t][1:-1], tuple(c in T.corners for c in t[1:-1]))
            for t in T.skeleton.arcs]


def _admits(ranks, pc: PegsCorners) -> bool:
    """Whether an embedding with these ranks places the degree-2 template
    vertices, which are all pegs, on pc, given that pc has as many pegs and
    corners as the template: each host arc holds as many pegs as its
    template arc has inner vertices, with the corners at the same ranks."""
    return all(tuple(h in pc.corners for h in inner if h in pc.pegs) == flags
               for inner, flags in ranks)


def admits_pegs_corners(W: Wall, pc: PegsCorners) -> bool:
    """Whether some elementary presentation of W has pegs and corners pc."""
    T = _template(W.height)
    if (len(pc.pegs), len(pc.corners)) != (len(T.pegs), len(T.corners)):
        return False
    return any(_admits(_ranks(T, amap), pc)
               for _vmap, amap in _skeleton_embeddings(T.skeleton, W.graph))


def choices_of_pegs_corners(W: Wall, limit: int = 400):
    """Enumerate (P, C) pairs over all elementary presentations, deduped.

    Every degree-2 template vertex is a peg, so within one skeleton
    embedding every placement of them gives its own pair. A pair is yielded
    from the first embedding that admits it; only the embeddings are kept,
    not the pairs.
    """
    if W.graph.n > limit:
        raise CapacityError("pegs/corners enumeration over desk limit",
                            witness=W.graph.n)
    T = _template(W.height)
    seen = []
    for _vmap, amap in _skeleton_embeddings(T.skeleton, W.graph):
        ranks = _ranks(T, amap)
        # per template arc, spread its inner template vertices over the
        # host arc's inner vertices, order preserving
        for combo in itertools.product(*(
                itertools.combinations(inner, len(flags))
                for inner, flags in ranks)):
            pc = PegsCorners(
                frozenset(h for part in combo for h in part),
                frozenset(h for part, (_inner, flags) in zip(combo, ranks)
                          for h, corner in zip(part, flags) if corner))
            if not any(_admits(earlier, pc) for earlier in seen):
                yield pc
        seen.append(ranks)
