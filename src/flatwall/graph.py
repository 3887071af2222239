"""Undirected simple graphs with opaque, totally ordered vertex ids.

All tie-breaking anywhere in the library goes through vkey() so that every
operation is deterministic and reproducible.
"""
from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import CapacityError, InputError, NoPathError
from .config import DEFAULT_LIMITS


def vkey(v):
    # ints sort before strings; bools are not valid ids
    t = type(v)
    if t is int:
        return (0, v, "")
    if t is str:
        return (1, 0, v)
    if isinstance(v, bool):
        raise InputError("boolean vertex id", witness=repr(v))
    if isinstance(v, int):
        return (0, v, "")
    return (1, 0, str(v))


def norm_edge(u, v) -> tuple:
    t = type(u)
    if t is type(v) and (t is int or t is str):
        # two ids of one of these types sort by vkey as they sort natively
        if u < v:
            return (u, v)
        if v < u:
            return (v, u)
    if u == v:
        raise InputError("loop edge", witness=repr(u))
    return (u, v) if vkey(u) < vkey(v) else (v, u)


def ekey(e) -> tuple:
    """Sort key of a normalised edge."""
    return (vkey(e[0]), vkey(e[1]))


def cyclic_equal(a: Sequence, b: Sequence) -> bool:
    """a equals b up to rotation and reflection."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        return False
    if not a:
        return True
    doubled = b + b
    for c in (a, tuple(reversed(a))):
        for i, x in enumerate(b):
            if x == c[0] and doubled[i:i + len(c)] == c:
                return True
    return False


class Graph:
    """Immutable simple graph.

    No vertex, edge or adjacency tuple changes after construction, so the
    derived graphs (`subgraph`, `remove_vertices`, `remove_edges`, `union`)
    are read off this graph's normalised edges and sorted adjacency tuples
    instead of being built from scratch. A graph keeps no derived state.
    """

    __slots__ = ("_vertices", "_edges", "_adj")

    def __init__(self, vertices: Iterable = (), edges: Iterable = (), *,
                 _adj: Optional[Dict] = None):
        if _adj is not None:
            # derived from a parent graph: frozensets of its normalised
            # edges and vertices, and its adjacency tuples restricted to them
            self._vertices, self._edges, self._adj = vertices, edges, _adj
            return
        vs = set(vertices)
        es = set()
        for e in edges:
            u, v = e
            es.add(norm_edge(u, v))
            vs.add(u)
            vs.add(v)
        self._vertices: FrozenSet = frozenset(vs)
        self._edges: FrozenSet = frozenset(es)
        adj: Dict = {v: [] for v in vs}
        for u, v in es:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = {v: tuple(sorted(ns, key=vkey)) for v, ns in adj.items()}

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> Tuple:
        return tuple(sorted(self._vertices, key=vkey))

    @property
    def vertex_set(self) -> FrozenSet:
        return self._vertices

    @property
    def edges(self) -> Tuple:
        return tuple(sorted(self._edges, key=ekey))

    @property
    def edge_set(self) -> FrozenSet:
        return self._edges

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    def __contains__(self, v) -> bool:
        return v in self._vertices

    def has_edge(self, u, v) -> bool:
        if u == v:
            return False
        return norm_edge(u, v) in self._edges

    def neighbors(self, v) -> Tuple:
        if v not in self._vertices:
            raise InputError("unknown vertex", witness=repr(v))
        return self._adj[v]

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self._vertices == other._vertices
                and self._edges == other._edges)

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs ---------------------------------------------------

    def subgraph(self, vs: Iterable) -> "Graph":
        """The subgraph induced by the vertices of vs that are vertices
        here; the graph itself when that is all of them, as a graph never
        changes."""
        keep = self._vertices.intersection(vs)
        if len(keep) == len(self._vertices):
            return self
        adj = {v: tuple(u for u in self._adj[v] if u in keep) for v in keep}
        edges = self._edges
        # each kept edge is met from both ends; one of the two is normalised
        kept = frozenset(e for v, ns in adj.items() for u in ns
                         if (e := (v, u)) in edges)
        return Graph(keep, kept, _adj=adj)

    def union(self, other: "Graph") -> "Graph":
        adj = dict(self._adj)
        for v, ns in other._adj.items():
            mine = adj.setdefault(v, ns)
            if mine is not ns and mine != ns:
                adj[v] = tuple(sorted(set(mine).union(ns), key=vkey))
        return Graph(self._vertices | other._vertices,
                     self._edges | other._edges, _adj=adj)

    def remove_vertices(self, vs: Iterable) -> "Graph":
        return self.subgraph(self._vertices.difference(vs))

    def remove_edges(self, edges: Iterable) -> "Graph":
        drop = {norm_edge(*e) for e in edges} & self._edges
        adj = dict(self._adj)
        for u, v in drop:
            adj[u] = tuple(w for w in adj[u] if w != v)
            adj[v] = tuple(w for w in adj[v] if w != u)
        return Graph(self._vertices, self._edges - drop, _adj=adj)

    def add_edges(self, edges: Iterable) -> "Graph":
        return Graph(self._vertices, set(self._edges) | {norm_edge(*e) for e in edges})

    # -- connectivity -----------------------------------------------------

    def components(self) -> List[FrozenSet]:
        seen = set()
        out = []
        for start in self.vertices:
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for u in self._adj[v]:
                    if u not in comp:
                        comp.add(u)
                        queue.append(u)
            seen |= comp
            out.append(frozenset(comp))
        return out

    def connected(self) -> bool:
        return self.n <= 1 or _spans(self._adj, self._vertices)

    def shortest_path(self, x, y) -> Tuple:
        """Deterministic BFS path; ties broken by sorted adjacency order."""
        for v in (x, y):
            if v not in self._vertices:
                raise InputError("unknown vertex", witness=repr(v))
        return bfs_path(self._adj, x, y)


def bfs_path(adj: Dict, x, y) -> Tuple:
    """A shortest x-y path in the graph whose adjacency tuples are adj,
    found by BFS that tries neighbours in their order in adj."""
    if x == y:
        return (x,)
    parent = {x: None}
    queue = deque([x])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                if u == y:
                    path = [y]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                queue.append(u)
    raise NoPathError("vertices in different components", witness=[x, y])


def biconnected(G: Graph) -> bool:
    """Whether G has three or more vertices, is connected and has no cut
    vertex: one iterative lowpoint search on integer ids, from vertex 0.

    A vertex p other than the root is a cut vertex iff some child v of p
    in the search tree has low[v] >= depth[p]; the root iff it has two or
    more children."""
    if G.n < 3:
        return False
    ids = {v: i for i, v in enumerate(G._vertices)}
    adj = [[ids[u] for u in ns] for ns in map(G._adj.__getitem__, ids)]
    depth = [-1] * len(adj)
    low = [0] * len(adj)
    depth[0] = 0
    stack = [(0, -1, iter(adj[0]))]
    reached = 1
    while stack:
        v, parent, it = stack[-1]
        for u in it:
            if depth[u] < 0:
                depth[u] = low[u] = depth[v] + 1
                reached += 1
                stack.append((u, v, iter(adj[u])))
                break
            if u != parent and depth[u] < low[v]:
                low[v] = depth[u]
        else:
            stack.pop()
            if parent > 0:
                if low[v] >= depth[parent]:
                    return False
                if low[v] < low[parent]:
                    low[parent] = low[v]
    # the root's children are the vertices at depth 1
    return reached == len(adj) and sum(depth[u] == 1 for u in adj[0]) == 1


# -- separations and contractions -----------------------------------------


def is_separation(G: Graph, L: Iterable, R: Iterable) -> bool:
    """L and R cover V(G) and no edge joins L - R to R - L.

    Such an edge has an end in each difference, so only the neighbours of
    the smaller difference are looked at, not every edge of G.
    """
    L, R = set(L), set(R)
    for v in L | R:
        if v not in G:
            raise InputError("unknown vertex", witness=repr(v))
    if L | R != G.vertex_set:
        return False
    small, large = sorted((L - R, R - L), key=len)
    adj = G._adj
    return not any(u in large for v in small for u in adj[v])


# -- vertex-disjoint paths (Menger via unit vertex capacities) -------------

_BIG = 1 << 30


def _vertex_flow(G: Graph, A: Iterable, B: Iterable, fan: bool = False):
    """Maximum A-B flow in G with unit vertex capacities (Edmonds-Karp).

    Vertex v is split into an arc (v, 0) -> (v, 1) of capacity 1, or _BIG
    for a fan source. Source and edge arcs carry _BIG; sink arcs carry 1, so
    a fan source that is also a sink gives one trivial path. Returns the
    network's capacities and the residual capacities of the flow found.
    """
    A = sorted(set(A), key=vkey)
    B = sorted(set(B), key=vkey)
    for v in A + B:
        if v not in G:
            raise InputError("unknown vertex", witness=repr(v))
    S, T = ("#S",), ("#T",)
    cap: Dict[Tuple, Dict] = {S: {}, T: {}}
    if not A or not B:
        return cap, cap

    def add_arc(u, v, c):
        cap.setdefault(u, {})[v] = cap.setdefault(u, {}).get(v, 0) + c
        cap.setdefault(v, {}).setdefault(u, 0)

    Aset = set(A)
    for v in G.vertices:
        add_arc((v, 0), (v, 1), _BIG if (fan and v in Aset) else 1)
    for u, v in G.edges:
        add_arc((u, 1), (v, 0), _BIG)
        add_arc((v, 1), (u, 0), _BIG)
    for a in A:
        add_arc(S, (a, 0), _BIG)
    for b in B:
        add_arc((b, 1), T, 1)
    orig = {x: dict(outs) for x, outs in cap.items()}

    while True:
        parent = {S: None}
        queue = deque([S])
        while queue and T not in parent:
            x = queue.popleft()
            for y, c in cap[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if T not in parent:
            return orig, cap
        y = T
        while parent[y] is not None:
            x = parent[y]
            cap[x][y] -= 1
            cap[y][x] += 1
            y = x


def max_vertex_disjoint_paths(G: Graph, A: Iterable, B: Iterable,
                              fan: bool = False) -> List[Tuple]:
    """A maximum family of vertex-disjoint A-B paths.

    With fan=True the source vertices carry unbounded capacity, so the result
    may share source endpoints (internally vertex-disjoint fan).
    """
    S, T = ("#S",), ("#T",)
    orig, cap = _vertex_flow(G, A, B, fan)
    # flow decomposition: follow arcs that carry flow from S
    flow = {}
    for x, outs in cap.items():
        for y, c in outs.items():
            if orig[x][y] > c:
                flow.setdefault(x, []).append((y, orig[x][y] - c))
    paths = []
    while flow.get(S):
        path = []
        x = S
        while x != T:
            nxts = flow.get(x)
            y, units = nxts[0]
            if units == 1:
                nxts.pop(0)
                if not nxts:
                    del flow[x]
            else:
                nxts[0] = (y, units - 1)
            if isinstance(y, tuple) and len(y) == 2 and y[1] == 0:
                path.append(y[0])
            x = y
        paths.append(tuple(path))
    return sorted(paths, key=lambda p: [vkey(v) for v in p])


def min_vertex_cut(G: Graph, A: Iterable, B: Iterable) -> FrozenSet:
    """A minimum vertex set meeting every A-B path (A∩B is always included)."""
    S = ("#S",)
    _orig, cap = _vertex_flow(G, A, B)
    reach = {S}
    queue = deque([S])
    while queue:
        x = queue.popleft()
        for y, c in cap[x].items():
            if c > 0 and y not in reach:
                reach.add(y)
                queue.append(y)
    return frozenset(v for v in G.vertices
                     if (v, 0) in reach and (v, 1) not in reach)


# -- tree decompositions ---------------------------------------------------


class TreeDecomposition:
    __slots__ = ("bags", "tree_edges")

    def __init__(self, bags: Dict, tree_edges: Iterable):
        self.bags = {k: frozenset(b) for k, b in bags.items()}
        self.tree_edges = tuple(tuple(e) for e in tree_edges)

    @property
    def width(self) -> int:
        if not self.bags:
            return -1
        return max(len(b) for b in self.bags.values()) - 1

    def validate(self, G: Graph) -> List[str]:
        problems = []
        nodes = set(self.bags)
        tree: Dict = {k: set() for k in nodes}
        for a, b in self.tree_edges:
            if a not in nodes or b not in nodes:
                problems.append(f"tree edge {a},{b} off the node set")
            elif a == b:
                problems.append(f"tree edge {a},{b} is a loop")
            tree.setdefault(a, set()).add(b)
            tree.setdefault(b, set()).add(a)
        if nodes and not _spans(tree, tree):
            problems.append("tree is disconnected")
        if len(self.tree_edges) != max(0, len(nodes) - 1):
            problems.append("tree has a cycle")
        # the tree nodes whose bags hold each vertex
        holding: Dict = {}
        for k, b in self.bags.items():
            for v in b:
                holding.setdefault(v, set()).add(k)
        if holding.keys() != G.vertex_set:
            problems.append("bags do not cover the vertex set")
        # the ekey-least edge and the vkey-least vertex at fault are named
        bare = [e for e in G.edge_set
                if holding.get(e[0], set()).isdisjoint(holding.get(e[1], ()))]
        if bare:
            u, v = min(bare, key=ekey)
            problems.append(f"edge {u},{v} in no bag")
        split = [v for v in G.vertex_set
                 if v in holding and not _spans(tree, holding[v])]
        if split:
            problems.append(f"bags of {min(split, key=vkey)} not connected "
                            "in the tree")
        return problems


def _spans(adj: Dict, within) -> bool:
    """Whether the (non-empty) `within` induces a connected part of `adj`."""
    start = next(iter(within))
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y in within and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(within)


def _eliminate(adj: Dict, v) -> Set:
    """Remove v from adj after making its neighbours a clique; return them."""
    nbrs = adj.pop(v)
    for u in nbrs:
        adj[u] |= nbrs
        adj[u] -= {u, v}
    return nbrs


def min_fill_decomposition(G: Graph) -> TreeDecomposition:
    """Min-fill-in heuristic decomposition (Bodlaender and Koster 2010),
    with the output of networkx 3.6's treewidth_min_fill_in on G.vertices.

    Eliminates vertices until the rest is a clique, bag 0. Then each
    eliminated vertex v, last eliminated first, gets the bag {v} | N(v),
    attached to the first earlier bag that holds N(v), or to bag 0.

    networkx scans the remaining vertices by degree, ties in G.vertices
    order, and takes the first of strictly least fill-in; its early exits
    skip only vertices that cannot win. So it takes the vertex of least key
    (fill-in, degree, position in G.vertices). Here the keys sit in a heap,
    an entry live while it equals its vertex's key, and each step updates
    them around the eliminated vertex v with neighbours N:

    - the step adds edges only inside N, so a vertex w outside N keeps its
      degree, and its fill-in drops by the number of new edges with both
      ends in N(w);
    - a vertex u of N loses v, with the missing pairs of v and the
      neighbours of u outside N; its missing pairs inside N become edges;
      and it gains its new neighbours in N, each missing a pair with every
      neighbour of u outside N that it does not see.

    Fill-in is counted from both ends of a missing edge, so it is doubled
    throughout. The rest is a clique once twice its edge count is
    n(n - 1), which is networkx's test that its least degree is n - 1."""
    verts = G.vertices
    adj = {v: set(G.neighbors(v)) for v in verts}
    pos = {v: i for i, v in enumerate(verts)}
    keys = {v: (sum(len(adj[v] - adj[u]) for u in adj[v]) - len(adj[v]),
                len(adj[v]), pos[v]) for v in verts}
    heap = list(keys.values())
    heapq.heapify(heap)
    n, twice_m = G.n, 2 * G.m
    eliminated = []
    while twice_m != n * (n - 1):
        entry = heapq.heappop(heap)
        v = verts[entry[2]]
        if keys.get(v) != entry:
            continue
        del keys[v]
        nbrs = adj[v]
        drop: Dict = {}  # fall in (doubled) fill-in, by vertex
        for a in nbrs:
            for b in nbrs - adj[a]:
                if pos[a] < pos[b]:
                    for w in adj[a] & adj[b]:
                        drop[w] = drop.get(w, 0) + 2
        drop.pop(v, None)
        gain = {}  # rise in degree, by vertex of N
        for u in nbrs:
            outer = adj[u] - nbrs
            outer.discard(v)
            new = nbrs - adj[u]
            new.discard(u)
            drop[u] = drop.get(u, 0) + 2 * len(outer) - 2 * sum(
                len(outer - adj[a]) for a in new)
            gain[u] = len(new) - 1
        twice_m += entry[0] - 2 * len(nbrs)
        n -= 1
        eliminated.append((v, _eliminate(adj, v)))
        for w, d in drop.items():
            fill2, deg, i = keys[w]
            keys[w] = (fill2 - d, deg + gain.get(w, 0), i)
            heapq.heappush(heap, keys[w])
    # attach each bag to the first earlier bag holding its neighbours,
    # searched among the bags of the neighbour in fewest bags
    bags, tree_edges = [frozenset(adj)], []
    holding = {x: [0] for x in adj}
    for v, nbrs in reversed(eliminated):
        old = 0
        if nbrs:
            rarest = holding[min(nbrs, key=lambda x: len(holding[x]))]
            old = next((i for i in rarest if nbrs <= bags[i]), 0)
        tree_edges.append((old, len(bags)))
        holding[v] = []
        bag = frozenset(nbrs | {v})
        for x in bag:
            holding[x].append(len(bags))
        bags.append(bag)
    return TreeDecomposition(dict(enumerate(bags)), tree_edges)


# -- minor models ----------------------------------------------------------


def minor_model(G: Graph, H: Graph, limit: Optional[int] = None) -> Optional[Dict]:
    """Exhaustive branch-set search; None means no model exists."""
    limit = DEFAULT_LIMITS.minor_model if limit is None else limit
    if G.n > limit:
        raise CapacityError(f"minor search limited to {limit} vertices", witness=G.n)
    hverts = [v for v in H.vertices]
    if any(H.degree(v) == 0 for v in hverts):
        raise InputError("pattern has an isolated vertex")
    if not hverts:
        return {}
    t = len(hverts)
    if t > G.n or H.m > G.m:
        return None
    gverts = G.vertices
    hidx = {v: i for i, v in enumerate(hverts)}
    required = [[False] * t for _ in range(t)]
    for u, v in H.edge_set:
        required[hidx[u]][hidx[v]] = True
        required[hidx[v]][hidx[u]] = True

    assign = {}  # g-vertex -> class index or -1 for unused

    def feasible(k):
        # cheap pruning after assigning gverts[:k]
        empty = sum(1 for i in range(t)
                    if not any(c == i for c in assign.values()))
        if empty > G.n - k:
            return False
        for i in range(t):
            members = [g for g, c in assign.items() if c == i]
            if not members:
                continue
            comps = Graph(members, [e for e in G.edge_set
                                    if e[0] in members and e[1] in members]).components()
            # a split class that can no longer grow: none of its vertices
            # sees an unprocessed vertex
            if len(comps) > 1 and all(u in assign for g in members
                                      for u in G.neighbors(g)):
                return False
        return True

    def complete_ok():
        classes = [[] for _ in range(t)]
        for g, c in assign.items():
            if c >= 0:
                classes[c].append(g)
        for i, members in enumerate(classes):
            if not members:
                return False
            if not G.subgraph(members).connected():
                return False
        for i in range(t):
            for j in range(i + 1, t):
                if required[i][j]:
                    if not any(G.has_edge(a, b)
                               for a in classes[i] for b in classes[j]):
                        return False
        return True

    def rec2(k):
        if k == len(gverts):
            return complete_ok()
        g = gverts[k]
        for c in list(range(t)) + [-1]:
            assign[g] = c
            if feasible(k + 1) and rec2(k + 1):
                return True
            del assign[g]
        return False

    if rec2(0):
        model = {}
        for i, hv in enumerate(hverts):
            model[hv] = frozenset(g for g, c in assign.items() if c == i)
        return model
    return None
