"""Independent oracles used to cross-check library results.

Deliberately coded without importing any library internals beyond the Graph
value type, and by different methods than the library uses. The exceptions
are each kept as the reference for a faster library method:
- `enumerate_subwalls`, which builds every subwall, and
  `find_homogeneous_by_building`, the homogeneous-subwall search that
  builds every candidate and reads its internal bricks' palettes, for the
  search that reads them off a table of the parent wall's brick palettes;
- `find_homogeneous_by_tilting`, the homogeneous-subwall search that tilts
  every candidate, for the search that reads palettes off the source pair;
- `trace_by_union_find`, the normal-cycle trace that unites the faces
  across every open spoke of the painting, for the flood fill that starts
  at the curve;
- the tuple-dart painting tracer (`rot`, `trace_faces_by_tuples`,
  `components_by_tuples`, `outer_face_by_tuples`,
  `painting_problems_by_tuples`), which keys every vertex and dart of the
  incidence graph by ("n", node) / ("c", cell) tuples, for the painting
  kernel that numbers them;
- `components_by_scan` and `candidates_by_scan`, the per-component scans
  of every edge of W-bullet and every cell of the rendition, for the
  leveling search that reads adjacency and tables built once per pair;
- `recognize_wall_by_search` and `skeleton_embeddings_by_search`, the
  depth-first search over skeleton embeddings that tries candidates in
  `vkey` order, with `suppressed_by_sort`, the arc tracer that orients
  each arc by comparing `vkey` lists, for the recognition that places the
  skeleton by forced steps from a flag;
- `exact_treewidth`, the elimination-ordering subset DP with its
  decomposition (built with the library's `_eliminate`), for the
  brute-force `treewidth_by_elimination` to check; the library needs no
  exact treewidth, because the compass precondition n - 1 > z is exact.
"""
from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache
from typing import List, Optional, Tuple

import networkx as nx

from flatwall.errors import CapacityError
from flatwall.graph import Graph, TreeDecomposition, _eliminate


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


def exact_treewidth(G: Graph, limit: Optional[int] = None) -> Tuple[int, TreeDecomposition]:
    """Exact treewidth by the elimination-ordering subset DP, over 2^n
    vertex masks, so at most `limit` (default 20) vertices."""
    limit = 20 if limit is None else limit
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


def enumerate_subwalls(W, rp: int):
    """All valid (rows, cols, subwall) selections, lexicographic order."""
    from flatwall.wall import subwall, subwall_selections

    for rows, cols in subwall_selections(W, rp):
        yield rows, cols, subwall(W, rows, cols)


def palettes_by_building(F, zeta, S):
    """The palettes in F of the bricks of S that miss S's perimeter, found
    by a scan of every brick of S, in `Wall.bricks` order."""
    from flatwall.homogeneity import palette

    per = S.perimeter_set
    return (palette(F, zeta, b) for b in S.bricks() if not set(b) & per)


def find_homogeneous_by_building(G: Graph, F, zeta, r: int):
    """`homogeneity.find_homogeneous` with `allow_short`, by building each
    subwall in turn and computing its internal bricks' palettes, with the
    same stop at the first brick that differs; only the first subwall that
    passes is tilted, and its tilt must be homogeneous."""
    from flatwall.homogeneity import is_homogeneous
    from flatwall.tilt import compute_tilt

    for _rows, _cols, S in enumerate_subwalls(F.wall, r):
        pals = palettes_by_building(F, zeta, S)
        first = next(pals, None)
        if all(p == first for p in pals):
            res = compute_tilt(G, F, S)
            assert is_homogeneous(res.pair, zeta)
            return res
    return None


def find_homogeneous_by_tilting(G: Graph, F, zeta, r: int):
    """The first r-subwall (lexicographic) whose tilt is homogeneous, found
    by tilting each subwall in turn and testing the tilt; None if there is
    none. Any error of a tilt is raised."""
    from flatwall.homogeneity import is_homogeneous
    from flatwall.tilt import compute_tilt

    for _rows, _cols, S in enumerate_subwalls(F.wall, r):
        res = compute_tilt(G, F, S)
        if is_homogeneous(res.pair, zeta):
            return res
    return None


def trace_by_union_find(P, runs, z_rule):
    """`painting.trace_normal_cycle` by a union-find over every spoke of P.

    Two faces are in one region of the disk minus the curve iff a path of
    faces joins them across spokes that are not on the curve; every region
    other than the one holding the outer face is inside. Raises what the
    library raised before it traced by flood fill, in the same order.
    """
    from flatwall.errors import InputError, InternalError, UnsupportedError
    from flatwall.painting import (NormalCycleTrace, _incidence,
                                   _outer_face_id, _traced)

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
    third = []
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

    blocked = set()
    on_curve = set(entry_nodes)
    for i, (p, c, q) in enumerate(runs):
        blocked |= {(p, c), (q, c)}
        if flags[i]:
            blocked.add((third[i], c))
            on_curve.add(third[i])

    parent = list(range(len(_traced(P).faces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    spokes = spokes_by_table(P)
    for cid, ends in spokes.items():
        for x, a, b in ends:
            if (x, cid) not in blocked:
                parent[find(b)] = find(a)
    outer = _outer_face_id(P)
    if outer is None:
        raise InputError("painting has no face matching its outer boundary")
    outer_region = find(outer)

    inside = set()
    run_set = set(run_cells)
    for cid, ends in spokes.items():
        if cid in run_set:
            continue
        regions = {find(b) for _, _, b in ends}
        if len(regions) != 1:
            raise InternalError("cell off the curve spans two regions",
                                witness=cid)
        if regions != {outer_region}:
            inside.add(cid)

    sides = []
    for i, (p, c, q) in enumerate(runs):
        if third[i] is None:
            sides.append(None)
            continue
        x = third[i]
        if flags[i]:
            b = P.cells[c]
            x = p if b[(b.index(p) + 1) % 3] == q else q
        b = P.cells[c]
        sides.append(find(spokes[c][b.index(x)][2]) != outer_region)
    return NormalCycleTrace(tuple(runs), tuple(flags), frozenset(inside),
                            frozenset(on_curve), tuple(sides))


def spokes_by_table(P):
    """The spokes of each cell of P in boundary order, as (node, face of the
    dart node -> cell, face of the dart cell -> node), read off the
    painting's incidence table."""
    from flatwall.painting import _traced

    t = _traced(P)
    out = {}
    for cid, b in P.cells.items():
        d0 = t.off[t.cell_id[cid]]
        out[cid] = tuple((x, t.face_of[t.rev[d0 + i]], t.face_of[d0 + i])
                         for i, x in enumerate(b))
    return out


def components_by_scan(F, Wb: Graph):
    """`leveling._components_of_bullet`, gathering each component's edges by
    a scan over every edge of W-bullet (unsorted: `Graph` does not depend
    on the order it is given edges in)."""
    from flatwall.graph import vkey
    from flatwall.leveling import _Component

    ground = F.ground()
    inner = Wb.remove_vertices(ground)
    comps = []
    for comp in inner.components():
        edges = [e for e in Wb.edge_set
                 if e[0] in comp or e[1] in comp]
        H = Graph((), edges)
        att = sorted((v for v in H.vertices if v in ground), key=vkey)
        centers = [v for v in comp if H.degree(v) == 3]
        if any(H.degree(v) > 3 for v in comp) or len(centers) > 1:
            return None, comp
        if centers:
            if len(att) != 3:
                return None, comp
            w = centers[0]
        else:
            if len(att) != 2:
                return None, comp
            path = H.shortest_path(att[0], att[1])
            if len(path) != H.n or H.m != len(path) - 1:
                return None, comp
            w = path[(len(path) - 1) // 2]
        legs = {}
        for x in att:
            legs[x] = tuple(H.shortest_path(w, x))
        if sum(len(p) - 1 for p in legs.values()) != H.m:
            return None, comp
        comps.append(_Component(frozenset(comp), tuple(att), w, legs))
    return comps, None


def candidates_by_scan(F, comp):
    """`leveling._candidates` by a scan over every cell of the rendition:
    the own flap first, then every other cell whose boundary holds all the
    attachments, in `sorted(sigma, key=str)` order."""
    from flatwall.flatness import flaps

    R = F.rendition
    trivial = {f.graph.edges[0]: cid for cid, f in flaps(F).items()
               if f.trivial}
    own = []
    wall_vs = [v for v in comp.vertices if not (isinstance(v, tuple)
                                                and v and v[0] == "s")]
    if not wall_vs:
        (s,) = comp.vertices
        e = (s[1], s[2])
        if e in trivial:
            own.append(trivial[e])
    else:
        for cid, g in R.sigma.items():
            if wall_vs[0] in g.vertex_set and wall_vs[0] not in \
                    R.pi_boundary(cid):
                own.append(cid)
                break
    rest = [cid for cid in sorted(R.sigma, key=str)
            if cid not in own
            and set(comp.attachments) <= R.pi_boundary(cid)]
    return own + rest


# -- the tuple-dart painting tracer ------------------------------------------


def rot(P):
    """The incidence rotation system of painting P, keyed by ("n", node)
    and ("c", cell) tuples: nodes first, in `P.nodes` order, then cells."""
    r = {}
    for n in P.nodes:
        r[("n", n)] = tuple(("c", cid) for cid in P.rotations.get(n, ()))
    for cid, b in P.cells.items():
        r[("c", cid)] = tuple(("n", x) for x in b)
    return r


def trace_faces_by_tuples(P):
    """Orbits of darts under the next-dart permutation; one tuple per face."""
    from flatwall.errors import InputError

    r = rot(P)
    index = {}
    for v, ns in r.items():
        index[v] = {}
        for i, w in enumerate(ns):
            if w in index[v]:
                raise InputError("duplicate incidence in rotation", witness=v)
            index[v][w] = i
    darts = [(u, v) for u, ns in r.items() for v in ns]
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
            ns = r[v]
            d = (v, ns[(index[v][u] - 1) % len(ns)])
        faces.append(tuple(face))
    return faces or [()]


def components_by_tuples(P):
    """The connected components of the incidence graph, as frozensets of
    its tuple vertices, in order of their first vertex."""
    r = rot(P)
    seen = set()
    comps = []
    for v in r:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            for y in r[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    return comps


def face_node_sequence(face):
    """The nodes a tuple-dart face passes through, in order."""
    return [u[1] for u, _ in face if u[0] == "n"]


def _cyclic_subsequence(needle, hay) -> bool:
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


def spokes_by_tuples(P):
    """`spokes_by_table`, with faces numbered as `trace_faces_by_tuples`
    lists them."""
    face_of = {d: i for i, f in enumerate(trace_faces_by_tuples(P))
               for d in f}
    return {cid: tuple((x, face_of[(("n", x), ("c", cid))],
                        face_of[(("c", cid), ("n", x))]) for x in b)
            for cid, b in P.cells.items()}


def outer_face_by_tuples(P):
    """The longest traced face showing the declared outer nodes in cyclic
    order, or failing that in reverse order; None if there is none."""
    faces = trace_faces_by_tuples(P)
    non_isolated = [x for x in P.outer if P.rotations.get(x)]
    for needle in (non_isolated, list(reversed(non_isolated))):
        best = None
        for face in faces:
            seq = face_node_sequence(face)
            if needle and not set(needle) <= set(seq):
                continue
            if _cyclic_subsequence(needle, seq):
                if best is None or len(face) > len(best):
                    best = face
        if best is not None:
            return best
    return None


def painting_problems_by_tuples(P):
    """`painting.validate_painting`, tracing on tuple darts."""
    from flatwall.errors import InputError

    problems = []
    nodeset = set(P.nodes)
    if len(nodeset) != len(P.nodes):
        problems.append("duplicate node ids")
    incident = {x: [] for x in P.nodes}
    for cid, b in P.cells.items():
        if not 1 <= len(b) <= 3:
            problems.append(
                f"cell {cid}: boundary size {len(b)} violates |c~| <= 3")
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
            problems.append(f"node {x}: rotation {have} does not list its "
                            f"cells {sorted(cids, key=str)}")
    for x in P.rotations:
        if x not in nodeset:
            problems.append(f"rotation for unknown node {x}")
    if problems:
        return problems
    try:
        faces = trace_faces_by_tuples(P)
    except InputError as e:
        return [f"rotation structure: {e}"]
    r = rot(P)
    for comp in components_by_tuples(P):
        V = len(comp)
        E = sum(len(r[v]) for v in comp) // 2
        if E == 0:
            continue
        F = sum(1 for f in faces if f and f[0][0] in comp)
        if V - E + F != 2:
            problems.append(
                f"not planar: component with V={V} E={E} F={F} fails Euler")
    if len(set(P.outer)) != len(P.outer):
        problems.append("outer boundary repeats a node")
    for x in P.outer:
        if x not in nodeset:
            problems.append(f"outer boundary names unknown node {x}")
    if not problems and P.outer and outer_face_by_tuples(P) is None:
        problems.append("outer boundary order not realized by any face")
    return problems


def suppressed_by_sort(G: Graph):
    """Branch vertices (degree other than 2) in `vkey` order, and the arcs
    (maximal paths through degree-2 vertices) between them, each turned to
    its lesser orientation by comparing `vkey` lists."""
    from flatwall.graph import norm_edge, vkey

    branch = sorted((v for v in G.vertex_set if G.degree(v) != 2), key=vkey)
    bset = set(branch)
    arcs = []
    seen_edges = set()
    for b in branch:
        for nb in G.neighbors(b):
            e0 = norm_edge(b, nb)
            if e0 in seen_edges:
                continue
            path = [b, nb]
            seen_edges.add(e0)
            while path[-1] not in bset:
                v = path[-1]
                nxt = [u for u in G.neighbors(v) if u != path[-2]]
                if not nxt:
                    break
                path.append(nxt[0])
                seen_edges.add(norm_edge(v, nxt[0]))
            if path[-1] in bset:
                arcs.append(tuple(path))
    out = []
    seen = set()
    for a in arcs:
        key = min(a, tuple(reversed(a)), key=lambda p: [vkey(v) for v in p])
        if key not in seen:
            seen.add(key)
            out.append(key)
    return branch, out


def _arcs_at(branch, arcs):
    out = {b: [] for b in branch}
    for a in arcs:
        out[a[0]].append(a)
        if a[-1] != a[0]:
            out[a[-1]].append(a)
    return out


def _other_end(arc, v):
    return arc[-1] if arc[0] == v else arc[0]


def _on_arc_triangle(at, v) -> bool:
    ns = {_other_end(a, v) for a in at[v]} - {v}
    return any(x in ns and x != w
               for w in ns for x in (_other_end(b, w) for b in at[w]))


def skeleton_embeddings_by_search(r: int, G: Graph):
    """Every embedding of the elementary r-wall's skeleton into G's, by a
    depth-first search that tries each vertex's candidates in `vkey` order
    and each arc's in trace order, as (vertex map, arc map) keyed by
    template coordinates, the arc map in placement order with each host
    arc oriented like its template arc."""
    from flatwall.graph import vkey
    from flatwall.wall import elementary_wall

    W = elementary_wall(r)          # its vertex ids are the `_cid` strings
    coord = {v: c for c, v in W.branch_coords.items()}
    branch, arcs = suppressed_by_sort(W.graph)
    t_at = _arcs_at(branch, arcs)
    order = [next(v for v in branch if _on_arc_triangle(t_at, v))]
    seen = set(order)
    for v in order:
        for w in (_other_end(a, v) for a in t_at[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
    pos = {v: i for i, v in enumerate(order)}
    back = [[(a, _other_end(a, v)) for a in t_at[v]
             if pos[_other_end(a, v)] < i] for i, v in enumerate(order)]

    hb, harcs = suppressed_by_sort(G)
    if len(branch) != len(hb) or len(arcs) != len(harcs):
        return
    h_at = _arcs_at(hb, harcs)
    between = {}
    for ha in harcs:
        between.setdefault((ha[0], ha[-1]), []).append(ha)
        if ha[-1] != ha[0]:
            between.setdefault((ha[-1], ha[0]), []).append(ha)
    starts = [h for h in hb if _on_arc_triangle(h_at, h)]
    vmap, used_h, used_arcs, chosen = {}, set(), set(), []

    def options(i):
        need = back[i]
        if need:
            ta0, w0 = need[0]
            hw = vmap[w0]
            cands = sorted({_other_end(ha, hw) for ha in h_at[hw]
                            if id(ha) not in used_arcs
                            and len(ha) >= len(ta0)} - used_h, key=vkey)
        else:
            cands = starts
        for h in cands:
            if h in used_h or len(h_at[h]) != len(t_at[order[i]]):
                continue
            per_arc = [[ha for ha in between.get((h, vmap[w]), ())
                        if id(ha) not in used_arcs and len(ha) >= len(ta)]
                       for ta, w in need]
            for combo in itertools.product(*per_arc):
                if len({id(ha) for ha in combo}) == len(combo):
                    yield h, combo

    frames = [options(0)]
    while frames:
        step = next(frames[-1], None)
        if step is None:
            frames.pop()
            if chosen:
                u, h, combo = chosen.pop()
                del vmap[u]
                used_h.discard(h)
                used_arcs.difference_update(id(ha) for ha in combo)
            continue
        h, combo = step
        u = order[len(chosen)]
        vmap[u] = h
        used_h.add(h)
        used_arcs.update(id(ha) for ha in combo)
        chosen.append((u, h, combo))
        if len(chosen) < len(order):
            frames.append(options(len(chosen)))
            continue
        amap = {}
        for (_u, _h, combo), need in zip(chosen, back):
            for (ta, _w), ha in zip(need, combo):
                amap[tuple(coord[x] for x in ta)] = (
                    ha if ha[0] == vmap[ta[0]] else ha[::-1])
        yield {coord[v]: h for v, h in vmap.items()}, amap
        u, h, combo = chosen.pop()
        del vmap[u]
        used_h.discard(h)
        used_arcs.difference_update(id(ha) for ha in combo)


def recognize_wall_by_search(G: Graph, r: int):
    """`wall.recognize_wall` on the first embedding the depth-first search
    finds, with the wall's graph built from its paths."""
    from flatwall.wall import Wall

    if G.n == 0 or any(G.degree(v) not in (2, 3) for v in G.vertex_set):
        return None
    if sum(len(a) - 1 for a in suppressed_by_sort(G)[1]) != G.m:
        return None
    emb = next(skeleton_embeddings_by_search(r, G), None)
    if emb is None:
        return None
    branch_coords, amap = emb
    seg_paths = {}
    for ta, hp in amap.items():
        k = len(ta) - 1
        cut = list(range(k)) + [len(hp) - 1]
        for j in range(1, k):
            branch_coords[ta[j]] = hp[j]
        for j in range(k):
            seg_paths[(ta[j], ta[j + 1])] = hp[cut[j]:cut[j + 1] + 1]
    W = Wall(r, branch_coords, seg_paths)
    return None if W.validate() else W
