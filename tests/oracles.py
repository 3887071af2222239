"""Independent oracles used to cross-check library results.

Deliberately coded without importing any library internals beyond the Graph
value type, and by different methods than the library uses. The one
exception is `find_homogeneous_by_tilting`, the homogeneous-subwall search
that tilts every candidate, kept as the reference for the search that reads
palettes off the source pair.
"""
from __future__ import annotations

import itertools
from collections import deque

import networkx as nx

from flatwall.graph import Graph


def to_nx(G: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(G.vertices)
    g.add_edges_from(G.edges)
    return g


def min_fill_reference(G: Graph):
    """networkx's min-fill-in decomposition as (bags by creation index,
    set of (older, newer) tree edges)."""
    from networkx.algorithms.approximation import treewidth_min_fill_in
    _width, tree = treewidth_min_fill_in(to_nx(G))
    index = {bag: i for i, bag in enumerate(tree.nodes)}
    edges = {tuple(sorted((index[a], index[b]))) for a, b in tree.edges}
    return {i: bag for bag, i in index.items()}, edges


def bfs_distance(G: Graph, x, y):
    g = to_nx(G)
    try:
        return nx.shortest_path_length(g, x, y)
    except nx.NetworkXNoPath:
        return None


def treewidth_by_elimination(G: Graph) -> int:
    """Minimum over all elimination orderings, brute force: a depth-first
    search over ordering prefixes that drops a prefix once it is no
    better than the best complete ordering found."""
    if not G.n:
        return -1
    best = G.n

    def extend(adj, width):
        nonlocal best
        if not adj:
            best = width
            return
        for v, ns in adj.items():
            w = max(width, len(ns))
            if w >= best:
                continue
            rest = {a: (bs | ns) - {a, v} if a in ns else bs
                    for a, bs in adj.items() if a != v}
            extend(rest, w)

    extend({v: set(G.neighbors(v)) for v in G.vertices}, 0)
    return best


def has_minor_bruteforce(G: Graph, H: Graph) -> bool:
    """Independent minor check: enumerate all partitions into labeled classes."""
    gverts = list(G.vertices)
    hverts = list(H.vertices)
    t = len(hverts)
    if t == 0:
        return True
    gnx = to_nx(G)
    for labels in itertools.product(range(t + 1), repeat=len(gverts)):
        classes = [[] for _ in range(t)]
        for g, lab in zip(gverts, labels):
            if lab > 0:
                classes[lab - 1].append(g)
        if any(not c for c in classes):
            continue
        if any(not nx.is_connected(gnx.subgraph(c)) for c in classes):
            continue
        ok = True
        for u, v in H.edges:
            cu = classes[hverts.index(u)]
            cv = classes[hverts.index(v)]
            if not any(gnx.has_edge(a, b) for a in cu for b in cv):
                ok = False
                break
        if ok:
            return True
    return False


def is_subdivision_of(G: Graph, pattern: Graph) -> bool:
    """Check by suppressing degree-2 vertices and testing isomorphism."""
    g = nx.MultiGraph(to_nx(G))
    while True:
        cand = [v for v in g if g.degree(v) == 2 and len(set(g.neighbors(v))) == 2]
        if not cand:
            break
        v = cand[0]
        a, b = list(g.neighbors(v))
        g.remove_node(v)
        g.add_edge(a, b)
    p = nx.MultiGraph(to_nx(pattern))
    while True:
        cand = [v for v in p if p.degree(v) == 2 and len(set(p.neighbors(v))) == 2]
        if not cand:
            break
        v = cand[0]
        a, b = list(p.neighbors(v))
        p.remove_node(v)
        p.add_edge(a, b)
    return nx.is_isomorphic(g, p)


def find_homogeneous_by_tilting(G: Graph, F, zeta, r: int):
    """The first r-subwall (lexicographic) whose tilt is homogeneous, found
    by tilting each subwall in turn and testing the tilt; None if there is
    none. Any error of a tilt is raised."""
    from flatwall.homogeneity import is_homogeneous
    from flatwall.tilt import compute_tilt
    from flatwall.wall import enumerate_subwalls

    for _rows, _cols, S in enumerate_subwalls(F.wall, r):
        res = compute_tilt(G, F, S)
        src = res.provenance
        if is_homogeneous(res.pair, zeta,
                          fallback=lambda cid: src.get(cid, (cid,))[0]):
            return res
    return None
