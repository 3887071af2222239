"""Renditions: boundary-respecting cell decompositions of a graph.

A rendition couples a painting with a flap map sigma (cell to subgraph) and
a ground injection pi (node to vertex), checked against a boundary cyclic
order Omega. This module validates the defining conditions and detects each
of the five tightness conditions in one private detector: `check_tightness`
reports what the detectors find, and each step of the constructive pass
`tighten` repairs what its condition's detector finds.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from .errors import InputError, InternalError
from .graph import (Graph, biconnected, cyclic_equal, ekey,
                    max_vertex_disjoint_paths, min_vertex_cut, vkey)
from .painting import Painting, validate_painting
from .wall import fresh_names


def flap_union(flaps: Iterable[Graph]) -> Tuple[Set, Set]:
    """The vertex set and the edge set of the union of some flaps."""
    flaps = list(flaps)
    return (set().union(*[g.vertex_set for g in flaps]),
            set().union(*[g.edge_set for g in flaps]))


class Rendition:
    """A painting with its flap map sigma and ground injection pi.

    Immutable after construction: the painting, sigma, pi and omega are
    never changed. So what the checks read is built once, on first use,
    and kept: one `_Index` of the cells (`_index`). The flaps are not
    marked: conditions (ii) and (iii) search every open flap on each
    check, even one that another rendition shares.
    """

    __slots__ = ("painting", "sigma", "pi", "omega", "_idx")

    def __init__(self, painting: Painting, sigma: Dict[object, Graph],
                 pi: Dict[object, object], omega: Sequence):
        self.painting = painting
        self.sigma = dict(sigma)
        self.pi = dict(pi)
        self.omega = tuple(omega)
        self._idx: Optional[_Index] = None

    def pi_boundary(self, cid) -> FrozenSet:
        return frozenset(map(self.pi.__getitem__, self.painting.cells[cid]))

    def union_graph(self) -> Graph:
        return Graph(*flap_union(self.sigma.values()))

    def key(self):
        """Structure up to cell-id renaming, for idempotence comparisons."""
        cells = sorted(
            (tuple(sorted(self.painting.cells[c], key=str)),
             self.sigma[c].vertices, self.sigma[c].edges)
            for c in self.sigma)
        return (tuple(cells), tuple(sorted(self.pi.items(), key=str)),
                self.omega)


class _Index:
    """The cells a rendition's checks look at, from one pass over the cells
    in cell order (sorted by str), each tuple in that order:

    - `loose`: the cells whose flap is not exactly their pi-boundary; every
      other flap is its boundary's vertices, as a single edge between two
      ground vertices is;
    - `open`: the cells whose flaps conditions (ii) and (iii) look at: all
      but the single-edge flaps that hold their boundary;
    - `wide`: the cells of three or more boundary nodes.

    Only cell ids are kept, so the index of a large rendition stays small:
    for the 5983 cells of a height-45 fixture, 718 are loose and open.
    """

    __slots__ = ("loose", "open", "wide")

    def __init__(self, R: Rendition):
        cells, sigma, image = R.painting.cells, R.sigma, R.pi.__getitem__
        loose, opened, wide = [], [], []
        for cid in sorted(sigma, key=str):
            g, nodes = sigma[cid], cells[cid]
            vs, b = g._vertices, frozenset(map(image, nodes))
            if b != vs:
                loose.append(cid)
            if not (len(vs) == 2 and len(g._edges) == 1 and vs >= b):
                opened.append(cid)
            if len(nodes) > 2:
                wide.append(cid)
        self.loose, self.open, self.wide = (tuple(loose), tuple(opened),
                                            tuple(wide))


def _index(R: Rendition) -> _Index:
    if R._idx is None:
        R._idx = _Index(R)
    return R._idx


def validate_rendition(G: Graph, R: Rendition) -> List[str]:
    problems = validate_painting(R.painting)
    if problems:
        return [f"painting: {p}" for p in problems]
    P = R.painting

    if set(R.pi) != set(P.nodes):
        return ["pi must be defined on exactly the painting nodes"]
    image = set(R.pi.values())
    if len(image) != len(R.pi):
        problems.append("pi is not injective")
    if not image <= G.vertex_set:
        for x, v in R.pi.items():
            if v not in G:
                problems.append(f"pi({x}) = {v} is not a vertex of the graph")
    if set(R.sigma) != set(P.cells):
        return problems + ["sigma must be defined on exactly the cells"]

    union_v, union_e = flap_union(R.sigma.values())
    if union_v != G.vertex_set or union_e != G.edge_set:
        missing_v = sorted(G.vertex_set - union_v, key=vkey)
        missing_e = sorted(G.edge_set - union_e)
        extra_v = sorted(union_v - G.vertex_set, key=vkey)
        extra_e = sorted(union_e - G.edge_set)
        problems.append(
            f"(c.1) union of flaps differs from the graph: "
            f"missing {missing_v + missing_e}, extra {extra_v + extra_e}")

    if sum(g.m for g in R.sigma.values()) != len(union_e):
        seen_edges: Dict[Tuple, object] = {}
        for cid in sorted(R.sigma, key=str):
            for e in R.sigma[cid].edges:
                if e in seen_edges:
                    problems.append(f"(c.2) edge {e} in both cells "
                                    f"{seen_edges[e]} and {cid}")
                seen_edges[e] = cid

    # a cell whose flap is exactly its boundary breaks neither (c.3) nor
    # (c.4); `held` lists the cells holding each vertex off their boundary
    held: Dict[object, List] = {}
    for cid in _index(R).loose:
        bnd, vs = R.pi_boundary(cid), R.sigma[cid].vertex_set
        if not bnd <= vs:
            for x in P.cells[cid]:
                if R.pi[x] not in vs:
                    problems.append(f"(c.3) cell {cid}: pi boundary vertex "
                                    f"{R.pi[x]} missing from flap")
        for v in vs - bnd:
            held.setdefault(v, []).append(cid)
    # the cells with a ground vertex on their boundary are the rotation of
    # its node; they share it if their flaps hold it
    if not image.isdisjoint(held):
        for x, v in R.pi.items():
            if v in held:
                held[v] += [c for c in P.rotations.get(x, ())
                            if v in R.sigma[c].vertex_set]
    shared = [v for v, owners in held.items() if len(owners) > 1]
    if shared:
        order = sorted(R.sigma, key=str)
        pos = {c: i for i, c in enumerate(order)}.__getitem__
        cells = {v: sorted(set(held[v]), key=pos) for v in shared}
        # reported by first owning cell, then in vertex order within it
        for v in sorted(shared, key=lambda v: (pos(cells[v][0]), vkey(v))):
            problems.append(f"(c.4) vertex {v} shared by cells {cells[v]} "
                            "outside pi boundary")

    outer_images = [R.pi[x] for x in P.outer]
    if set(outer_images) != set(R.omega):
        problems.append("(c.5) outer nodes do not map onto the boundary cycle")
    elif not cyclic_equal(outer_images, list(R.omega)):
        problems.append("(c.5) boundary cyclic order mismatch")
    return problems


# -- tightness -------------------------------------------------------------


@dataclass
class TightnessReport:
    violations: Dict[str, List] = field(default_factory=dict)

    @property
    def is_tight(self) -> bool:
        return not any(self.violations.values())


def _loose_edges(G: Graph, R: Rendition) -> List[Tuple]:
    """Condition (i): the edges of G between two ground vertices that are
    not the whole flap of a cell, in ekey order."""
    image = set(R.pi.values())
    edge_flaps = set().union(*[g._edges for g in R.sigma.values() if
                               len(g._edges) == 1 and len(g._vertices) == 2])
    return sorted((e for e in G.edge_set - edge_flaps
                   if e[0] in image and e[1] in image), key=ekey)


def _flap_search(cid, g: Graph, bnd: Tuple) -> Tuple[List, List]:
    """Violations of conditions (ii) and (iii) by the flap g of cell cid
    with the vkey-sorted boundary bnd, by two searches of g's adjacency:
    (ii) labels the part of g each boundary vertex reaches by the first
    boundary vertex there; (iii) walks the parts of g minus bnd, reported
    in the order of their least vertices, as `Graph.components` would
    list them."""
    adj = g._adj
    label: Dict = {}
    for i, a in enumerate(bnd):
        if a in adj and a not in label:
            label[a] = i
            todo = [a]
            for v in todo:              # grows while it is read
                for w in adj[v]:
                    if w not in label:
                        label[w] = i
                        todo.append(w)
    ii = next(([(cid, a, b)] for a, b in itertools.combinations(bnd, 2)
               if label.get(a) != label.get(b)), [])
    iii = []
    bset = set(bnd)
    seen = set(bset)
    for v in adj:
        if v in seen:
            continue
        seen.add(v)
        part, nb = [v], set()
        for x in part:
            for w in adj[x]:
                if w in bset:
                    nb.add(w)
                elif w not in seen:
                    seen.add(w)
                    part.append(w)
        if nb and nb != bset:
            iii.append((cid, tuple(sorted(part, key=vkey))))
    iii.sort(key=lambda fault: vkey(fault[1][0]))
    return ii, iii


def _flaps_at_fault(R: Rendition) -> Tuple[List, List]:
    """Conditions (ii) and (iii) over all cells, in cell order."""
    ii, iii = [], []
    for cid in _index(R).open:
        faults = _flap_search(cid, R.sigma[cid],
                              tuple(sorted(R.pi_boundary(cid), key=vkey)))
        ii += faults[0]
        iii += faults[1]
    return ii, iii


def _shared_boundaries(R: Rendition) -> List[Tuple]:
    """Condition (iv): the groups of two or more cells, each in cell order,
    whose flaps reach beyond one and the same boundary."""
    by_bnd: Dict[FrozenSet, List] = {}
    for cid in _index(R).loose:
        by_bnd.setdefault(R.pi_boundary(cid), []).append(cid)
    return [tuple(cids) for cids in by_bnd.values() if len(cids) > 1]


def _unlinked_cells(G: Graph, R: Rendition) -> List:
    """Condition (v): the cells whose boundary G cannot link to the outer
    cycle by one disjoint path per boundary node, in cell order."""
    omega_set = set(R.omega)
    if not omega_set:
        return []
    # a 2-connected graph links any two boundary vertices to the outer
    # cycle by disjoint paths, so only wide cells need a flow there
    if len(omega_set) >= 2 and biconnected(G):
        cids = _index(R).wide
    else:
        cids = sorted(R.sigma, key=str)
    out = []
    for cid in cids:
        bnd, k = R.pi_boundary(cid), len(R.painting.cells[cid])
        if len(bnd & omega_set) >= k:
            continue            # the boundary vertices themselves are paths
        if len(max_vertex_disjoint_paths(G, bnd, omega_set)) < k:
            out.append(cid)
    return out


def check_tightness(G: Graph, R: Rendition) -> TightnessReport:
    ii, iii = _flaps_at_fault(R)
    return TightnessReport({"i": _loose_edges(G, R), "ii": ii, "iii": iii,
                            "iv": _shared_boundaries(R),
                            "v": _unlinked_cells(G, R)})


# -- tightening ------------------------------------------------------------


class _Work:
    """Mutable copy of a rendition while transformations run.

    The editor that puts new cells into the rotation system: `tighten`
    repairs through it, and so does the tilt (`tilt.tilt_main`), which
    copies only the cells it keeps and replaces its outer-perimetric cells
    by chains. So one planar-placement search, `replace_cells`, serves both.
    """

    def __init__(self, R: Rendition, keep: Optional[Set] = None):
        """A copy of R; given `keep`, only of those cells, their flaps and
        the nodes that meet one of them."""
        P = R.painting
        self.cells = {c: tuple(b) for c, b in P.cells.items()
                      if keep is None or c in keep}
        self.rotations = {n: [c for c in r if c in self.cells]
                          for n, r in P.rotations.items()}
        if keep is None:
            self.nodes = list(P.nodes)
        else:
            self.rotations = {n: r for n, r in self.rotations.items() if r}
            self.nodes = list(self.rotations)
        self.outer = tuple(P.outer)
        self.sigma = {c: R.sigma[c] for c in self.cells}
        self.pi = {n: R.pi[n] for n in self.nodes}
        self.omega = tuple(R.omega)
        self._names = fresh_names(self.cells, prefix="t")

    def fresh(self) -> str:
        return next(self._names)

    def painting(self) -> Painting:
        return Painting(self.nodes, self.cells,
                        {n: tuple(r) for n, r in self.rotations.items()},
                        self.outer)

    def rendition(self) -> Rendition:
        return Rendition(self.painting(), self.sigma, self.pi, self.omega)

    def drop_cell(self, cid):
        del self.cells[cid]
        del self.sigma[cid]
        for n in self.rotations:
            self.rotations[n] = [c for c in self.rotations[n] if c != cid]

    def replace_cells(self, replacements: Dict[object, Dict[object, Tuple]]
                      ) -> Painting:
        """Replace each old cell by the new cells {new_cid: boundary} that
        live inside its disk, and return the painting that results.

        At each node of an old boundary, the new cells there take the old
        cell's place in the rotation; a node new to the cell gets the new
        cells that meet it, in the order given. The insertion orders at all
        nodes are searched together, over the product of their sorted
        permutations, until the painting is planar. The flap of an old cell
        that is not among its new cells goes; the caller gives the new
        flaps. A node of an old boundary that no cell meets any more stops
        being a node: in a tilt, the unflagged third node of an
        outer-perimetric cell. It never happens in `tighten`: `_split_cell`
        covers every boundary node, and `_step_i` keeps the old cell.
        """
        slots = []
        for old, new in replacements.items():
            old_boundary = self.cells.pop(old)
            if old not in new:
                del self.sigma[old]
            for n in old_boundary:
                at = sorted(c for c, b in new.items() if n in b)
                slots.append((n, old, sorted(set(itertools.permutations(at)))))
            for cid, b in new.items():
                self.cells[cid] = tuple(b)
                for n in b:
                    if n not in old_boundary:
                        self.rotations[n] = self.rotations.get(n, []) + [cid]
        for combo in itertools.product(*(orders for _, _, orders in slots)):
            rot = dict(self.rotations)
            for (n, old, _), order in zip(slots, combo):
                i = rot[n].index(old)
                rot[n] = rot[n][:i] + list(order) + rot[n][i + 1:]
            gone = {n for n, _, _ in slots if not rot[n]}
            for n in gone:
                del rot[n]
            nodes = [n for n in self.nodes if n not in gone]
            P = Painting(nodes, self.cells, rot, self.outer)
            if not validate_painting(P):
                self.nodes, self.rotations = nodes, rot
                for n in gone:
                    del self.pi[n]
                return P
        raise InternalError("no planar placement for cell replacement",
                            witness=list(replacements))


def _step_i(w: _Work, loose: List[Tuple]) -> bool:
    """Move each loose edge (condition (i)) into a cell of its own."""
    image = {v: x for x, v in w.pi.items()}
    todo = set(loose)
    changed = False
    for cid in sorted(w.cells, key=str):
        g = w.sigma[cid]
        extracted = sorted(g.edge_set & todo, key=ekey)
        if not extracted:
            continue
        new = {}
        boundary_map = {}
        for u, v in extracted:
            bnodes = tuple(x for x in (image[u], image[v])
                           if x in w.cells[cid])
            if not bnodes:
                # both endpoints live on far-away nodes; no local placement
                continue
            nid = w.fresh()
            boundary_map[nid] = (u, v)
            new[nid] = bnodes
        if not new:
            continue
        changed = True
        w.replace_cells({cid: {**new, cid: w.cells[cid]}})
        w.sigma[cid] = g.remove_edges(boundary_map.values())
        for nid, (u, v) in boundary_map.items():
            w.sigma[nid] = Graph((), [(u, v)])
            for x in (image[u], image[v]):
                if x not in w.cells[nid]:
                    # endpoint node outside this cell: hang the new cell there
                    w.cells[nid] = w.cells[nid] + (x,)
                    w.rotations.setdefault(x, []).append(nid)
    return changed


def _attachments(g: Graph, bnd: FrozenSet) -> List[Set]:
    """The components of g minus bnd, grouped by the boundary vertices they
    see; each group holds those vertices too."""
    classes: Dict[FrozenSet, Set] = {}
    for comp in g.remove_vertices(bnd).components():
        nb = frozenset(x for v in comp for x in g.neighbors(v) if x in bnd)
        classes.setdefault(nb, set(nb)).update(comp)
    return list(classes.values())


def _split_cell(w: _Work, cid, classes: List[Set]):
    """Replace cell cid by one cell per class of its flap's vertices, on
    the boundary nodes whose images the class holds; the new cells follow
    the vkey order of those images. A class that holds no boundary vertex
    joins the first one."""
    g = w.sigma[cid]
    bnd = frozenset(w.pi[x] for x in w.cells[cid])
    attached = sorted(
        (c for c in classes if not bnd.isdisjoint(c)),
        key=lambda c: [vkey(v) for v in sorted(bnd & c, key=vkey)])
    if bnd - set().union(*attached):
        raise InternalError("boundary vertex in no class", witness=cid)
    attached[0] = attached[0].union(*(c for c in classes
                                      if bnd.isdisjoint(c)))
    new = {}
    for c in attached:
        nid = w.fresh()
        w.sigma[nid] = g.subgraph(c)
        new[nid] = tuple(x for x in w.cells[cid] if w.pi[x] in c)
    w.replace_cells({cid: new})


def _step_iv(w: _Work, groups: List[Tuple]) -> bool:
    """Merge each group of cells on one boundary (condition (iv)) into its
    first cell."""
    for keep, *rest in groups:
        for other in rest:
            w.sigma[keep] = w.sigma[keep].union(w.sigma[other])
            w.drop_cell(other)
    return bool(groups)


def _step_v(G: Graph, w: _Work, unlinked: List, report: List[str]) -> bool:
    """Collapse what a ground separator cuts off from the outer cycle
    behind each cell in unlinked (condition (v)) into one cell; a
    separator through flap interiors is noted and left."""
    changed = False
    omega_set = set(w.omega)
    for cid in unlinked:
        if cid not in w.cells:
            continue
        bnd = frozenset(w.pi[x] for x in w.cells[cid])
        cut = min_vertex_cut(G, bnd, omega_set)
        image = {v: x for x, v in w.pi.items()}
        if not cut or any(v not in image for v in cut):
            report.append(f"condition (v) unrepaired for cell {cid}: "
                          "separator passes through flap interiors")
            continue
        # everything cut off from the boundary cycle collapses into one cell
        lost = set(cut).union(*(c for c in G.remove_vertices(cut).components()
                                if not c & omega_set))
        members = [c for c in sorted(w.cells, key=str)
                   if w.sigma[c].vertex_set <= lost]
        if cid not in members:
            report.append(f"condition (v) unrepaired for cell {cid}: "
                          "flap straddles the separator")
            continue
        changed = True
        nid = w.fresh()
        merged = Graph((), ())
        slot_nodes = [image[v] for v in sorted(cut, key=vkey)]
        freed = set()
        for c in members:
            freed.update(w.cells[c])
            merged = merged.union(w.sigma[c])
            w.drop_cell(c)
        w.cells[nid] = tuple(slot_nodes)
        w.sigma[nid] = merged.union(Graph(sorted(cut, key=vkey), ()))
        for x in slot_nodes:
            w.rotations.setdefault(x, []).append(nid)
        # ground points swallowed by the merge stop being nodes at all
        outer = set(w.outer)
        for x in sorted(freed, key=str):
            if x in slot_nodes or x in outer or w.rotations.get(x):
                continue
            w.nodes.remove(x)
            w.rotations.pop(x, None)
            del w.pi[x]
        bad = validate_painting(w.painting())
        if bad:
            raise InternalError("condition (v) repair broke the painting",
                                witness=bad)
    return changed


def tighten(G: Graph, R: Rendition, report: Optional[List[str]] = None) -> Rendition:
    """Repair what `check_tightness` reports, condition by condition, until
    nothing changes. Best effort: a condition (v) separator through flap
    interiors is left as it is, with a note in the optional report for
    each cell of the result that still violates (v)."""
    bad = validate_rendition(G, R)
    if bad:
        raise InputError("tighten needs a valid rendition", witness=bad)
    w = _Work(R)
    for _ in range(12):
        # a later repair in the same pass can take away a noted cell, so
        # only the notes of the last pass, which changes nothing, stand
        notes: List[str] = []
        # each step repairs what its condition's detector finds on the
        # rendition as the step before left it
        changed = _step_i(w, _loose_edges(G, w.rendition()))
        # (ii) splits a flap into its components, (iii) into the parts of
        # the flap minus its boundary that see the same boundary vertices
        for fault, classes in ((0, lambda g, bnd: g.components()),
                               (1, _attachments)):
            R1 = w.rendition()
            at_fault = _flaps_at_fault(R1)[fault]
            for cid in dict.fromkeys(f[0] for f in at_fault):
                _split_cell(w, cid, classes(w.sigma[cid], R1.pi_boundary(cid)))
            changed |= bool(at_fault)
        changed |= _step_iv(w, _shared_boundaries(w.rendition()))
        changed |= _step_v(G, w, _unlinked_cells(G, w.rendition()), notes)
        if not changed:
            break
    else:
        raise InternalError("tightening did not reach a fixpoint")
    out = w.rendition()
    check = validate_rendition(G, out)
    if check:
        raise InternalError("tighten produced an invalid rendition",
                            witness=check)
    if report is not None:
        report.extend(notes)
    return out
