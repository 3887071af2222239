"""Undirected simple graphs with opaque, totally ordered vertex ids.

All tie-breaking anywhere in the library goes through vkey() so that every
operation is deterministic and reproducible.
"""
from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import CapacityError, InputError, NoPathError
from .config import DEFAULT_LIMITS


def vkey(v):
    # ints sort before strings; bools are not valid ids
    if isinstance(v, bool):
        raise InputError("boolean vertex id", witness=repr(v))
    if isinstance(v, int):
        return (0, v, "")
    return (1, 0, str(v))


def norm_edge(u, v) -> tuple:
    if u == v:
        raise InputError("loop edge", witness=repr(u))
    return (u, v) if vkey(u) < vkey(v) else (v, u)


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
    """Immutable simple graph."""

    __slots__ = ("_vertices", "_edges", "_adj")

    def __init__(self, vertices: Iterable = (), edges: Iterable = ()):
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
        return tuple(sorted(self._edges, key=lambda e: (vkey(e[0]), vkey(e[1]))))

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
        vs = set(vs) & self._vertices
        return Graph(vs, (e for e in self._edges if e[0] in vs and e[1] in vs))

    def union(self, other: "Graph") -> "Graph":
        return Graph(self._vertices | other._vertices, self._edges | other._edges)

    def remove_vertices(self, vs: Iterable) -> "Graph":
        vs = set(vs)
        return self.subgraph(self._vertices - vs)

    def remove_edges(self, edges: Iterable) -> "Graph":
        es = {norm_edge(*e) for e in edges}
        return Graph(self._vertices, self._edges - es)

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
        return self.n <= 1 or len(self.components()) == 1

    def shortest_path(self, x, y) -> Tuple:
        """Deterministic BFS path; ties broken by sorted adjacency order."""
        for v in (x, y):
            if v not in self._vertices:
                raise InputError("unknown vertex", witness=repr(v))
        if x == y:
            return (x,)
        parent = {x: None}
        queue = deque([x])
        while queue:
            v = queue.popleft()
            for u in self._adj[v]:
                if u not in parent:
                    parent[u] = v
                    if u == y:
                        path = [y]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return tuple(reversed(path))
                    queue.append(u)
        raise NoPathError("vertices in different components", witness=[x, y])


def articulation_points(G: Graph) -> FrozenSet:
    """Cut vertices, by iterative lowpoint search."""
    visited = set()
    depth: Dict = {}
    low: Dict = {}
    out = set()
    for root in G.vertices:
        if root in visited:
            continue
        stack = [(root, None, iter(G.neighbors(root)))]
        visited.add(root)
        depth[root] = low[root] = 0
        root_children = 0
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for u in it:
                if u == parent:
                    continue
                if u in visited:
                    low[v] = min(low[v], depth[u])
                else:
                    visited.add(u)
                    depth[u] = low[u] = depth[v] + 1
                    stack.append((u, v, iter(G.neighbors(u))))
                    advanced = True
                    break
            if advanced:
                continue
            stack.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[v])
                if parent == root:
                    root_children += 1
                elif low[v] >= depth[parent]:
                    out.add(parent)
        if root_children >= 2:
            out.add(root)
    return frozenset(out)


# -- separations and contractions -----------------------------------------


def is_separation(G: Graph, L: Iterable, R: Iterable) -> bool:
    L, R = set(L), set(R)
    for v in L | R:
        if v not in G:
            raise InputError("unknown vertex", witness=repr(v))
    if L | R != G.vertex_set:
        return False
    lonly = L - R
    ronly = R - L
    return not any(u in lonly and v in ronly or u in ronly and v in lonly
                   for u, v in G.edge_set)


def contract_matching(G: Graph, M: Iterable) -> Tuple[Graph, Dict]:
    """Contract a matching; returns the new graph and the old->new vertex map."""
    M = [norm_edge(*e) for e in M]
    touched = set()
    for u, v in M:
        if not G.has_edge(u, v):
            raise InputError("matching edge not in graph", witness=[u, v])
        if u in touched or v in touched:
            raise InputError("edge set is not a matching", witness=[u, v])
        touched.add(u)
        touched.add(v)
    merge = {v: v for v in G.vertex_set}
    for u, v in M:
        merge[v] = u  # keep the smaller id
    edges = set()
    for u, v in G.edge_set:
        a, b = merge[u], merge[v]
        if a != b:
            edges.add(norm_edge(a, b))
    return Graph(set(merge.values()), edges), merge


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
        for u, v in G.edge_set:
            if holding.get(u, set()).isdisjoint(holding.get(v, ())):
                problems.append(f"edge {u},{v} in no bag")
                break
        for v in G.vertex_set:
            if v in holding and not _spans(tree, holding[v]):
                problems.append(f"bags of {v} not connected in the tree")
                break
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


def exact_treewidth(G: Graph, limit: Optional[int] = None) -> Tuple[int, TreeDecomposition]:
    """Exact treewidth by the elimination-ordering subset DP."""
    limit = DEFAULT_LIMITS.treewidth if limit is None else limit
    if G.n > limit:
        raise CapacityError(f"treewidth limited to {limit} vertices", witness=G.n)
    verts = G.vertices
    if G.n == 0:
        return -1, TreeDecomposition({}, ())
    index = {v: i for i, v in enumerate(verts)}

    def q_value(mask: int, v) -> int:
        # vertices outside mask+{v} reachable from v through mask
        seen = {v}
        queue = deque([v])
        out = 0
        vbit = 1 << index[v]
        while queue:
            x = queue.popleft()
            for u in G.neighbors(x):
                if u in seen:
                    continue
                seen.add(u)
                if mask & (1 << index[u]):
                    queue.append(u)
                elif not (vbit & (1 << index[u])):
                    out += 1
        return out

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def opt(mask: int) -> int:
        if mask == 0:
            return -1
        best = G.n
        for i in range(len(verts)):
            if mask & (1 << i):
                v = verts[i]
                rest = mask & ~(1 << i)
                best = min(best, max(opt(rest), q_value(rest, v)))
        return best

    full = (1 << G.n) - 1
    width = opt(full)

    # rebuild one optimal elimination order, last eliminated first
    order = []
    mask = full
    while mask:
        for i in range(len(verts)):
            if mask & (1 << i):
                v = verts[i]
                rest = mask & ~(1 << i)
                if max(opt(rest), q_value(rest, v)) == opt(mask):
                    order.append(v)
                    mask = rest
                    break
    order.reverse()  # elimination order, first eliminated first

    opt.cache_clear()
    return width, _decomposition_from_order(G, order)


def _eliminate(adj: Dict, v) -> Set:
    """Remove v from adj after making its neighbours a clique; return them."""
    nbrs = adj.pop(v)
    for u in nbrs:
        adj[u] |= nbrs
        adj[u] -= {u, v}
    return nbrs


def _decomposition_from_order(G: Graph, order: List) -> TreeDecomposition:
    pos = {v: i for i, v in enumerate(order)}
    adj = {v: set(G.neighbors(v)) for v in order}
    bags, tree_edges, roots = {}, [], []
    for v in order:
        higher = _eliminate(adj, v)
        bags[v] = {v} | higher
        if higher:
            tree_edges.append((v, min(higher, key=pos.__getitem__)))
        else:
            roots.append(v)
    # connect the roots into one tree
    tree_edges.extend(zip(roots, roots[1:]))
    return TreeDecomposition(bags, tree_edges)


def min_fill_decomposition(G: Graph) -> TreeDecomposition:
    """Min-fill-in heuristic decomposition (Bodlaender and Koster 2010),
    step for step as networkx 3.6's treewidth_min_fill_in on G.vertices.

    Eliminates vertices until the rest is a clique, bag 0. Then each
    eliminated vertex v, last eliminated first, gets the bag {v} | N(v),
    attached to the first earlier bag that holds N(v), or to bag 0."""
    adj = {v: set(G.neighbors(v)) for v in G.vertices}
    eliminated = []
    while adj:
        # try vertices by current degree, ties in adj order, and take the
        # first of least fill-in, counted from both ends of a missing edge
        by_degree = sorted(adj, key=lambda v: len(adj[v]))
        if len(adj[by_degree[0]]) == len(adj) - 1:
            break
        best, best_fill2 = None, float("inf")
        for v in by_degree:
            nbrs = adj[v]
            fill2 = 0
            for u in nbrs:
                fill2 += len(nbrs - adj[u]) - 1
                if fill2 >= best_fill2:
                    break
            if fill2 < best_fill2:
                best, best_fill2 = v, fill2
                if fill2 == 0:
                    break
        eliminated.append((best, _eliminate(adj, best)))
    bags, tree_edges = [frozenset(adj)], []
    for v, nbrs in reversed(eliminated):
        old = next((i for i, b in enumerate(bags) if nbrs <= b), 0)
        tree_edges.append((old, len(bags)))
        bags.append(frozenset(nbrs | {v}))
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

    def closed(i, upto):
        # class i can no longer grow: none of its vertices sees an unprocessed vertex
        members = [g for g, c in assign.items() if c == i]
        for g in members:
            for u in G.neighbors(g):
                if u not in assign:
                    return False
        return True

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
            if len(comps) > 1 and closed(i, k):
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
