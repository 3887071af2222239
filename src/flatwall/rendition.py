"""Renditions: boundary-respecting cell decompositions of a graph.

A rendition couples a painting with a flap map sigma (cell to subgraph) and
a ground injection pi (node to vertex), checked against a boundary cyclic
order Omega. This module validates the defining conditions, checks the five
tightness conditions, and implements the constructive tightening pass.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import InputError, InternalError
from .graph import (Graph, articulation_points, cyclic_equal,
                    max_vertex_disjoint_paths, min_vertex_cut, vkey)
from .painting import Painting, validate_painting


class Rendition:
    __slots__ = ("painting", "sigma", "pi", "omega")

    def __init__(self, painting: Painting, sigma: Dict[object, Graph],
                 pi: Dict[object, object], omega: Sequence):
        self.painting = painting
        self.sigma = dict(sigma)
        self.pi = dict(pi)
        self.omega = tuple(omega)

    def pi_boundary(self, cid) -> FrozenSet:
        return frozenset(self.pi[x] for x in self.painting.cells[cid])

    def is_trivial(self, cid) -> bool:
        return self.pi_boundary(cid) == self.sigma[cid].vertex_set

    def union_graph(self) -> Graph:
        vs = set()
        es = set()
        for cid in self.sigma:
            g = self.sigma[cid]
            vs |= g.vertex_set
            es |= g.edge_set
        return Graph(vs, es)

    def key(self):
        """Structure up to cell-id renaming, for idempotence comparisons."""
        cells = sorted(
            (tuple(sorted(self.painting.cells[c], key=str)),
             self.sigma[c].vertices, self.sigma[c].edges)
            for c in self.sigma)
        return (tuple(cells), tuple(sorted(self.pi.items(), key=str)),
                self.omega)


def validate_rendition(G: Graph, R: Rendition) -> List[str]:
    problems = validate_painting(R.painting)
    if problems:
        return [f"painting: {p}" for p in problems]
    P = R.painting

    if set(R.pi) != set(P.nodes):
        return ["pi must be defined on exactly the painting nodes"]
    if len(set(R.pi.values())) != len(R.pi):
        problems.append("pi is not injective")
    for x, v in R.pi.items():
        if v not in G:
            problems.append(f"pi({x}) = {v} is not a vertex of the graph")
    if set(R.sigma) != set(P.cells):
        return problems + ["sigma must be defined on exactly the cells"]

    union = R.union_graph()
    if union.vertex_set != G.vertex_set or union.edge_set != G.edge_set:
        missing_v = sorted(G.vertex_set - union.vertex_set, key=vkey)
        missing_e = sorted(G.edge_set - union.edge_set)
        extra_v = sorted(union.vertex_set - G.vertex_set, key=vkey)
        extra_e = sorted(union.edge_set - G.edge_set)
        problems.append(
            f"(c.1) union of flaps differs from the graph: "
            f"missing {missing_v + missing_e}, extra {extra_v + extra_e}")

    seen_edges: Dict[Tuple, object] = {}
    for cid in sorted(R.sigma, key=str):
        for e in R.sigma[cid].edges:
            if e in seen_edges:
                problems.append(
                    f"(c.2) edge {e} in both cells {seen_edges[e]} and {cid}")
            seen_edges[e] = cid

    owner: Dict[object, List] = {}
    for cid in sorted(R.sigma, key=str):
        bnd = R.pi_boundary(cid)
        for x in P.cells[cid]:
            if R.pi[x] not in R.sigma[cid].vertex_set:
                problems.append(
                    f"(c.3) cell {cid}: pi boundary vertex {R.pi[x]} missing from flap")
        for v in R.sigma[cid].vertices:
            owner.setdefault(v, []).append((cid, v in bnd))
    for v, occ in owner.items():
        if len(occ) > 1 and not all(b for _, b in occ):
            cells = [c for c, _ in occ]
            problems.append(
                f"(c.4) vertex {v} shared by cells {cells} outside pi boundary")

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

    def status(self, cond: str) -> List:
        return self.violations.get(cond, [])

    @property
    def is_tight(self) -> bool:
        return not any(self.violations.values())


def check_tightness(G: Graph, R: Rendition) -> TightnessReport:
    rep = TightnessReport({k: [] for k in ("i", "ii", "iii", "iv", "v")})
    P = R.painting
    image = set(R.pi.values())

    edge_cells = set()
    for cid, g in R.sigma.items():
        if g.n == 2 and g.m == 1:
            edge_cells.add(g.edges[0])
    for u, v in G.edges:
        if u in image and v in image and (u, v) not in edge_cells:
            rep.violations["i"].append((u, v))

    for cid in sorted(R.sigma, key=str):
        g = R.sigma[cid]
        bnd = sorted(R.pi_boundary(cid), key=vkey)
        comp_of = {}
        for i, comp in enumerate(g.components()):
            for v in comp:
                comp_of[v] = i
        for a, b in itertools.combinations(bnd, 2):
            if comp_of.get(a) != comp_of.get(b):
                rep.violations["ii"].append((cid, a, b))
                break
        inner = g.remove_vertices(bnd)
        for comp in inner.components():
            nb = set()
            for v in comp:
                nb.update(w for w in g.neighbors(v) if w in set(bnd))
            if nb and nb != set(bnd):
                rep.violations["iii"].append((cid, tuple(sorted(comp, key=vkey))))

    by_bnd: Dict[FrozenSet, List] = {}
    for cid in sorted(R.sigma, key=str):
        if not R.is_trivial(cid):
            by_bnd.setdefault(R.pi_boundary(cid), []).append(cid)
    for bnd, cids in by_bnd.items():
        if len(cids) > 1:
            rep.violations["iv"].append(tuple(cids))

    omega_set = set(R.omega)
    if omega_set:
        # a 2-connected graph links any two boundary vertices to the outer
        # cycle by disjoint paths, so only arity-3 cells need a flow there
        two_conn = None
        for cid in sorted(R.sigma, key=str):
            bnd = R.pi_boundary(cid)
            k = len(P.cells[cid])
            if len(bnd & omega_set) >= k:
                continue        # the boundary vertices themselves are paths
            if k <= 2 and len(omega_set) >= 2:
                if two_conn is None:
                    two_conn = (G.n >= 3 and G.connected()
                                and not articulation_points(G))
                if two_conn:
                    continue
            if len(max_vertex_disjoint_paths(G, bnd, omega_set)) < k:
                rep.violations["v"].append(cid)
    return rep


# -- tightening ------------------------------------------------------------


class _Work:
    """Mutable copy of a rendition while transformations run."""

    def __init__(self, R: Rendition):
        P = R.painting
        self.nodes = list(P.nodes)
        self.cells = {c: tuple(b) for c, b in P.cells.items()}
        self.rotations = {n: list(r) for n, r in P.rotations.items()}
        self.outer = tuple(P.outer)
        self.sigma = dict(R.sigma)
        self.pi = dict(R.pi)
        self.omega = tuple(R.omega)
        self._counter = 0
        self._taken = set(self.cells)

    def fresh(self) -> str:
        while True:
            name = f"t{self._counter}"
            self._counter += 1
            if name not in self._taken:
                self._taken.add(name)
                return name

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

    def replace_cell(self, old, new: Dict[object, Tuple]):
        """Replace cell `old` by new cells living inside its disk.

        New boundaries are subsets of the old one; the per-node insertion
        order is searched so the rotation system stays planar.
        """
        old_boundary = self.cells[old]
        base_rot = {n: list(r) for n, r in self.rotations.items()}
        at_node = {n: sorted(c for c, b in new.items() if n in b)
                   for n in old_boundary}
        orders = []
        for n in old_boundary:
            perms = sorted(set(itertools.permutations(at_node[n])))
            orders.append(perms)
        del self.cells[old]
        for cid, b in new.items():
            self.cells[cid] = tuple(b)
        for combo in itertools.product(*orders):
            rot = {n: list(r) for n, r in base_rot.items()}
            for n, order in zip(old_boundary, combo):
                i = rot[n].index(old)
                rot[n] = rot[n][:i] + list(order) + rot[n][i + 1:]
            self.rotations = rot
            if not validate_painting(self.painting()):
                return
        raise InternalError("no planar placement for cell replacement",
                            witness=old)


def _step_i(G: Graph, w: _Work) -> bool:
    image = {v: x for x, v in w.pi.items()}
    changed = False
    for cid in sorted(w.cells, key=str):
        g = w.sigma[cid]
        if g.n <= 2:
            continue
        extracted = []
        for u, v in g.edges:
            if u in image and v in image:
                extracted.append((u, v))
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
        extracted = list(boundary_map.values())
        keep = g.remove_edges(extracted)
        survivors = dict(new)
        survivors[cid] = w.cells[cid]
        w.replace_cell(cid, survivors)
        w.sigma[cid] = keep
        for nid, (u, v) in boundary_map.items():
            w.sigma[nid] = Graph((), [(u, v)])
            for x in (image[u], image[v]):
                if x not in w.cells[nid]:
                    # endpoint node outside this cell: hang the new cell there
                    w.cells[nid] = w.cells[nid] + (x,)
                    w.rotations.setdefault(x, []).append(nid)
    return changed


def _components_with_boundary(g: Graph, bnd: FrozenSet):
    out = []
    for comp in g.components():
        out.append((comp, frozenset(v for v in comp if v in bnd)))
    return sorted(out, key=lambda t: [vkey(v) for v in sorted(t[0], key=vkey)])


def _step_ii(w: _Work) -> bool:
    changed = False
    for cid in sorted(w.cells, key=str):
        g = w.sigma[cid]
        bnd = frozenset(w.pi[x] for x in w.cells[cid])
        comps = _components_with_boundary(g, bnd)
        keys = {k for _, k in comps}
        if len(keys - {frozenset()}) <= 1:
            continue
        changed = True
        groups: Dict[FrozenSet, List] = {}
        for comp, k in comps:
            groups.setdefault(k, []).append(comp)
        floaters = groups.pop(frozenset(), [])
        if not groups:
            raise InternalError("cell with no boundary-attached component",
                                witness=cid)
        ordered = sorted(groups, key=lambda k: [vkey(v) for v in sorted(k, key=vkey)])
        # components missing the boundary ride along with the first class
        groups[ordered[0]].extend(floaters)
        new = {}
        sigmas = {}
        for k in ordered:
            nid = w.fresh()
            verts = set().union(*groups[k])
            sigmas[nid] = g.subgraph(verts)
            new[nid] = tuple(x for x in w.cells[cid] if w.pi[x] in k)
        w.replace_cell(cid, new)
        del w.sigma[cid]
        w.sigma.update(sigmas)
    return changed


def _step_iii(w: _Work) -> bool:
    changed = False
    for cid in sorted(w.cells, key=str):
        g = w.sigma[cid]
        bnd = frozenset(w.pi[x] for x in w.cells[cid])
        inner = g.remove_vertices(bnd)
        classes: Dict[FrozenSet, List] = {}
        for comp in inner.components():
            nb = frozenset(x for v in comp for x in g.neighbors(v) if x in bnd)
            classes.setdefault(nb, []).append(comp)
        keys = set(classes)
        if keys <= {frozenset(), bnd}:
            continue
        changed = True
        floaters = classes.pop(frozenset(), [])
        ordered = sorted(classes, key=lambda k: [vkey(v) for v in sorted(k, key=vkey)])
        if not ordered:
            raise InternalError("flap detached from its boundary", witness=cid)
        classes[ordered[0]].extend(floaters)
        new = {}
        sigmas = {}
        for k in ordered:
            nid = w.fresh()
            verts = set(k)
            for comp in classes[k]:
                verts |= comp
            sigmas[nid] = g.subgraph(verts)
            new[nid] = tuple(x for x in w.cells[cid] if w.pi[x] in k)
        placed = set().union(*ordered)
        if bnd - placed:
            # boundary vertices are always reached via some inner component
            # once direct edges have been split off
            raise InternalError("boundary vertex in no neighborhood class",
                                witness=cid)
        w.replace_cell(cid, new)
        del w.sigma[cid]
        w.sigma.update(sigmas)
    return changed


def _step_iv(w: _Work) -> bool:
    changed = False
    by_bnd: Dict[FrozenSet, List] = {}
    for cid in sorted(w.cells, key=str):
        bnd = frozenset(w.pi[x] for x in w.cells[cid])
        if bnd != w.sigma[cid].vertex_set:
            by_bnd.setdefault(bnd, []).append(cid)
    for bnd, cids in sorted(by_bnd.items(), key=lambda kv: str(kv[1])):
        if len(cids) < 2:
            continue
        changed = True
        keep, rest = cids[0], cids[1:]
        for other in rest:
            w.sigma[keep] = w.sigma[keep].union(w.sigma[other])
            w.drop_cell(other)
    return changed


def _step_v(G: Graph, w: _Work, report: List[str]) -> bool:
    changed = False
    omega_set = set(w.omega)
    if not omega_set:
        return False
    for cid in sorted(w.cells, key=str):
        if cid not in w.cells:
            continue
        bnd = frozenset(w.pi[x] for x in w.cells[cid])
        k = len(w.cells[cid])
        if len(max_vertex_disjoint_paths(G, bnd, omega_set)) >= k:
            continue
        cut = min_vertex_cut(G, bnd, omega_set)
        image = {v: x for x, v in w.pi.items()}
        if not cut or any(v not in image for v in cut):
            report.append(f"condition (v) unrepaired for cell {cid}: "
                          "separator passes through flap interiors")
            continue
        # everything cut off from the boundary cycle collapses into one cell
        H = G.remove_vertices(cut)
        far = set()
        for comp in H.components():
            if not (comp & omega_set):
                far.add(frozenset(comp))
        lost = set(cut) | set().union(*far) if far else set(cut)
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
    """Constructive tightening; the optional report collects best-effort notes."""
    bad = validate_rendition(G, R)
    if bad:
        raise InputError("tighten needs a valid rendition", witness=bad)
    notes = report if report is not None else []
    w = _Work(R)
    for _ in range(12):
        changed = _step_i(G, w)
        changed |= _step_ii(w)
        changed |= _step_iii(w)
        changed |= _step_iv(w)
        changed |= _step_v(G, w, notes)
        if not changed:
            break
    else:
        raise InternalError("tightening did not reach a fixpoint")
    out = w.rendition()
    check = validate_rendition(G, out)
    if check:
        raise InternalError("tighten produced an invalid rendition",
                            witness=check)
    return out
