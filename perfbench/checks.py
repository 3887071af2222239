"""Correctness checks written apart from the library.

Every check reads certificates as plain parsed JSON (the canonical format
the library writes) and uses no library code, so a fault in the library's
own validators cannot hide a fault in its outputs. Each check returns a
list of problems; an empty list means the property holds.
"""
from __future__ import annotations

import json
import math


def dec(x):
    """A vertex or node id: tagged lists {"$t": [...]} are tuples."""
    if isinstance(x, dict):
        return tuple(dec(i) for i in x["$t"])
    return x


def graph_of(d):
    vs = {dec(v) for v in d["vertices"]}
    es = {frozenset((dec(a), dec(b))) for a, b in d["edges"]}
    for e in es:
        vs |= e
    return vs, es


def wall_edges(wall):
    out = set()
    for _a, _b, path in wall["segs"]:
        p = [dec(v) for v in path]
        out |= {frozenset(e) for e in zip(p, p[1:])}
    return out


def compass_of(pair):
    vs, es = set(), set()
    for _cid, g in pair["rendition"]["sigma"]:
        gv, ge = graph_of(g)
        vs |= gv
        es |= ge
    return vs, es


def canonical_bytes(data: bytes):
    obj = json.loads(data)
    again = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                       ensure_ascii=False).encode("utf-8") + b"\n"
    return [] if again == data else ["bytes differ from their canonical "
                                     "re-encoding"]


def same_bytes(first: bytes, again: bytes):
    return [] if first == again else ["one instance gave different bytes "
                                      "on two runs"]


# -- flatness pairs --------------------------------------------------------


def wall_in_graph(pair, G):
    _vs, es = G
    missing = [tuple(e) for e in wall_edges(pair["wall"]) if e not in es]
    return [f"wall edge {missing[0]} is not an edge of G"] if missing else []


def separation(pair, G):
    vs, es = G
    X = {dec(v) for v in pair["X"]}
    Y = {dec(v) for v in pair["Y"]}
    out = []
    if X | Y != vs:
        out.append("X and Y do not cover V(G)")
    for e in es:
        a, b = tuple(e)
        if (a in X - Y and b in Y - X) or (b in X - Y and a in Y - X):
            out.append(f"edge {a}-{b} crosses the separation (X, Y)")
            break
    return out


def compass_within(pair, outer_pair):
    v1, e1 = compass_of(pair)
    v0, e0 = compass_of(outer_pair)
    out = []
    if not v1 <= v0:
        out.append("output compass has vertices outside the input compass")
    if not e1 <= e0:
        out.append("output compass has edges outside the input compass")
    return out


def untidy_cells(pair):
    """Cells holding two wall edges at one ground vertex of their boundary."""
    wedges = wall_edges(pair["wall"])
    R = pair["rendition"]
    pi = {dec(n): dec(v) for n, v in R["pi"]}
    cells = {dec(c): [dec(n) for n in b] for c, b in R["painting"]["cells"]}
    out = []
    for cid, g in R["sigma"]:
        cid = dec(cid)
        _gv, ge = graph_of(g)
        for v in {pi[n] for n in cells[cid] if n in pi}:
            if sum(1 for e in ge if v in e and e in wedges) >= 2:
                out.append(cid)
                break
    return out


def no_untidy(pair):
    bad = untidy_cells(pair)
    return [f"untidy cell {bad[0]} after regularize"] if bad else []


def pair_against(pair, G):
    """The pair is a certificate inside the caller's graph G."""
    return wall_in_graph(pair, G) + separation(pair, G)


# -- tree decompositions ---------------------------------------------------


def z_bound(r, t, f1, f2, f4):
    """2 (ceil(sqrt(f2 + 2)) + 1) f4 (f1 + 1) (r + 2), the paper's z."""
    return 2 * (math.ceil(math.sqrt(f2 + 2)) + 1) * f4 * (f1 + 1) * (r + 2)


def decomposition(td, G, max_width):
    vs, es = G
    bags = {dec(k): {dec(v) for v in b} for k, b in td["bags"]}
    tedges = [(dec(a), dec(b)) for a, b in td["tree_edges"]]
    out = []
    if not bags:
        return ["decomposition has no bags"]
    adj = {k: set() for k in bags}
    for a, b in tedges:
        if a not in adj or b not in adj:
            return [f"tree edge {a}-{b} names a missing bag"]
        adj[a].add(b)
        adj[b].add(a)
    if len(tedges) != len(bags) - 1 or len(_reach(adj, next(iter(bags)),
                                                  set(bags))) != len(bags):
        out.append("the bags do not form a tree")
    holding = {}
    for k, b in bags.items():
        for v in b:
            holding.setdefault(v, set()).add(k)
    if not vs <= holding.keys():
        out.append(f"{len(vs - holding.keys())} vertices in no bag")
    for e in es:
        u, v = tuple(e)
        if not holding.get(u, set()) & holding.get(v, set()):
            out.append(f"edge {u}-{v} in no bag")
            break
    for v, ks in holding.items():
        if len(_reach(adj, next(iter(ks)), ks)) != len(ks):
            out.append(f"bags holding {v} are not connected")
            break
    width = max(len(b) for b in bags.values()) - 1
    if width > max_width:
        out.append(f"width {width} over the budget {max_width}")
    return out


def _reach(adj, start, allowed):
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


# -- walls and tilts -------------------------------------------------------


def on_perimeter(a, b, r):
    """Template edge a-b lies on the perimeter of the elementary r-wall:
    the bottom and top rows and the first and last column snakes."""
    xs = {a[0], b[0]}
    return ((a[1] == b[1] == 1) or (a[1] == b[1] == r)
            or xs <= {1, 2} or xs <= {2 * r - 1, 2 * r})


def interior(wall):
    """The wall minus its perimeter edges and its degree-2 perimeter
    vertices, as (vertices, edges)."""
    r = wall["height"]
    es, per_es, per_vs = set(), set(), set()
    for a, b, path in wall["segs"]:
        a, b = dec(a), dec(b)
        p = [dec(v) for v in path]
        seg = {frozenset(e) for e in zip(p, p[1:])}
        es |= seg
        if on_perimeter(a, b, r):
            per_es |= seg
            per_vs |= set(p)
    deg = {}
    for e in es:
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    drop = {v for v in per_vs if deg[v] == 2}
    inner_es = {e for e in es - per_es if not e & drop}
    return set(deg) - drop, inner_es


def tilt_selection(in_wall, tilt_wall):
    """Rows and columns of the subwall of in_wall whose interior the tilt
    claims to keep, read off the tilt's interior edges."""
    coord = {dec(v): dec(c) for c, v in in_wall["branch"]}
    seg_of = {}
    for a, b, path in in_wall["segs"]:
        p = [dec(v) for v in path]
        for e in zip(p, p[1:]):
            seg_of[frozenset(e)] = (dec(a), dec(b))
    vs, es = interior(tilt_wall)
    rows, cols = set(), set()
    for e in es:
        a, b = seg_of.get(e, (None, None))
        if a is None:
            return None
        if a[1] == b[1] and min(a[0], b[0]) % 2 == 0:
            rows.add(a[1])                 # a row edge between two columns
        elif a[0] == b[0]:
            cols.add((a[0] + 1) // 2)      # a column edge
    ys = [coord[v][1] for v in vs if v in coord]
    ms = [(coord[v][0] + 1) // 2 for v in vs if v in coord]
    if not ys:
        return None
    rows |= {min(ys), max(ys)}
    cols |= {min(ms), max(ms)}
    return sorted(rows), sorted(cols)


def same_interior(tilt_wall, subwall_json):
    return ([] if interior(tilt_wall) == interior(subwall_json)
            else ["the tilt's interior differs from the chosen subwall's"])
