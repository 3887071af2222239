"""Orchestration: wall finding, the low-treewidth-compass recursion, driver.

The layer wires the combinatorial tools into the top-level algorithm: find a
wall or certify why none is needed, consult a pluggable flat-wall oracle,
narrow the certificate to a small compass by repeated tilts, and hand back
exactly one validated outcome (minor model, tree decomposition, or apex set
plus regular flatness pair plus compass decomposition).

Both cited black boxes, the treewidth decider and the flat-wall oracle, sit
behind injectable interfaces. The default decider only ever hands back a
min-fill decomposition; scripted stand-ins replay prepared verdicts and
answers, and the caller re-validates whatever they supply.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .config import Params
from .errors import CapacityError, InputError, InternalError
from .flatness import (FlatnessPair, influence_union, is_regular,
                       validate_flatness)
from .graph import (Graph, TreeDecomposition, ekey, min_fill_decomposition,
                    minor_model, norm_edge, vkey)
from .tilt import compute_tilt, regularize
from .wall import Wall, check_height, is_tilt, recognize_wall, subwall


# -- parameter arithmetic --------------------------------------------------


def _odd_at_least(x: float) -> int:
    n = max(1, math.ceil(x))
    return n if n % 2 == 1 else n + 1


def z_bound(r: int, t: int, p: Optional[Params] = None) -> int:
    """2 (ceil(sqrt(f2+2))+1) f4 (f1+1) (r+2), the compass width budget."""
    p = p or Params()
    if r < 3 or t < 1:
        raise InputError("need r >= 3 and t >= 1", witness=[r, t])
    f1 = p.f_questionnaires(t)
    f2 = p.f_hierarchical(t)
    f4 = p.f_entstandenen(t)
    root = math.isqrt(f2 + 2)
    if root * root < f2 + 2:
        root += 1
    return 2 * (root + 1) * f4 * (f1 + 1) * (r + 2)


# -- minor models ----------------------------------------------------------


def clique(t: int) -> Graph:
    vs = [f"k{i}" for i in range(t)]
    return Graph(vs, itertools.combinations(vs, 2))


def validate_minor_model(G: Graph, model: Dict, t: int) -> List[str]:
    problems = []
    if len(model) != t:
        problems.append(f"model has {len(model)} branch sets, wanted {t}")
    sets = {k: frozenset(vs) for k, vs in model.items()}
    taken = set()
    for k, vs in sorted(sets.items(), key=lambda kv: str(kv[0])):
        if not vs:
            problems.append(f"branch set {k} is empty")
            continue
        if vs & taken:
            problems.append(f"branch set {k} overlaps another")
        taken |= vs
        if not vs <= G.vertex_set:
            problems.append(f"branch set {k} leaves the graph")
        elif not G.subgraph(vs).connected():
            problems.append(f"branch set {k} is disconnected")
    keys = sorted(sets, key=str)
    for a, b in itertools.combinations(keys, 2):
        if not any(G.has_edge(x, y) for x in sets[a] for y in sets[b]):
            problems.append(f"no edge between branch sets {a} and {b}")
    return problems


def _small_clique_minor(G: Graph, t: int, p: Params) -> Optional[Dict]:
    """Exact clique-minor search where that is desk-feasible, else None.

    t <= 2 is decidable at any size; larger patterns go through the
    exhaustive search under its vertex limit.
    """
    if t > G.n:
        return None
    if t == 1:
        return {"k0": frozenset([G.vertices[0]])}
    if t == 2:
        if G.m == 0:
            return None
        u, v = min(G.edge_set, key=lambda e: (vkey(e[0]), vkey(e[1])))
        return {"k0": frozenset([u]), "k1": frozenset([v])}
    if G.n <= p.limits.minor_model:
        return minor_model(G, clique(t), limit=p.limits.minor_model)
    return None


def _lift_minor_model(model: Dict, vstar, preimage: FrozenSet) -> Dict:
    """Replace the contraction vertex by the cycle it stands for."""
    out = {}
    for k, vs in model.items():
        vs = frozenset(vs)
        if vstar in vs:
            vs = (vs - {vstar}) | preimage
        out[k] = vs
    return out


# -- finding a wall --------------------------------------------------------


@dataclass
class FindWallResult:
    kind: str                     # "minor" | "wall"
    t: int
    model: Optional[Dict] = None
    wall: Optional[Wall] = None
    notes: List[str] = field(default_factory=list)


def _prune_leaves(G: Graph) -> Graph:
    H = G
    while True:
        drop = [v for v in H.vertex_set if H.degree(v) <= 1]
        if not drop:
            return H
        H = H.remove_vertices(drop)


def find_wall(G: Graph, r: int, t: int,
              p: Optional[Params] = None) -> FindWallResult:
    """An r-wall of G, or a K_t minor model, or CapacityError.

    A wall is found only when G's leaf-pruned core is a subdivided
    elementary r-wall (`recognize_wall`); an apex or a flap on the wall
    defeats it, and the search falls through to the exact K_t-minor check
    (at any size for t <= 2, under the desk limit otherwise). Recognition
    has no budget: it places the wall's skeleton by forced steps from at
    most 6 flags per start vertex, never backtracking, so it always answers.
    """
    p = p or Params()
    check_height(r)
    if t < 1:
        raise InputError("t must be positive", witness=t)

    W = recognize_wall(_prune_leaves(G), r)
    if W is not None:
        missing = W.graph.edge_set - G.edge_set
        if missing:
            u, v = min(missing, key=ekey)
            raise InternalError("found wall leaves the graph", witness=[u, v])
        return FindWallResult("wall", t, wall=W)
    notes = ["wall search limited to pruned subdivisions at this size"]

    model = _small_clique_minor(G, t, p)
    if model is not None:
        return FindWallResult("minor", t, model=model, notes=notes)
    if t > 2 and G.n > p.limits.minor_model:
        notes.append("minor check skipped: over the desk limit")
    else:
        notes.append("exact minor check negative")
    raise CapacityError("no outcome certifiable within desk limits",
                        witness=notes)


# -- treewidth deciders ----------------------------------------------------


class TreewidthDecider:
    """Interface: decomposition of width <= 5z+4, or a high-treewidth call.
    Deciders leave validating a decomposition to their caller."""

    def decide(self, G: Graph, z: int) -> Tuple[str, object]:
        raise NotImplementedError


class DefaultTreewidthDecider(TreewidthDecider):
    """Min-fill decomposition if its width fits 5z+4, else CapacityError.

    It never reports high treewidth. With r >= 3 and every parameter
    function at least 1, z >= 60, and the budget 5z+4 >= 304 lies far above
    the min-fill width of desk-scale graphs. So the compass search (n - 1 > z,
    at least 62 vertices) runs only behind a scripted "high" verdict.
    """

    def __init__(self, p: Optional[Params] = None):
        """`p` is accepted and unused: the budget arrives as z."""

    def decide(self, G: Graph, z: int) -> Tuple[str, object]:
        td = min_fill_decomposition(G)
        if td.width <= 5 * z + 4:
            return "decomposition", td
        raise CapacityError(
            "treewidth undecided: heuristic width over the budget",
            witness=[G.n, td.width, z])


class ScriptedTreewidthDecider(TreewidthDecider):
    """Replays prepared verdicts; "default" entries delegate to
    `DefaultTreewidthDecider`. A scripted "high" is unverified and says so
    in the notes; a scripted decomposition is validated by the caller."""

    def __init__(self, verdicts: Sequence, p: Optional[Params] = None):
        self.verdicts = list(verdicts)
        self.inner = DefaultTreewidthDecider(p)

    def decide(self, G: Graph, z: int) -> Tuple[str, object]:
        if not self.verdicts:
            raise InternalError("treewidth script exhausted", witness=G.n)
        entry = self.verdicts.pop(0)
        if entry == "default":
            return self.inner.decide(G, z)
        if entry == "high":
            return "high", "scripted, unverified"
        if isinstance(entry, TreeDecomposition):
            return "decomposition", entry
        raise InputError("unknown script entry", witness=repr(entry))


def _decomposition_problems(td: TreeDecomposition, H: Graph, z: int,
                            what: str = "decomposition") -> List[str]:
    """Problems of `td` as a decomposition of H of width at most 5z+4."""
    problems = td.validate(H)
    if td.width > 5 * z + 4:
        problems.append(f"{what} width over the budget")
    return problems


# -- flat-wall oracles -----------------------------------------------------


@dataclass
class OracleAnswer:
    kind: str                      # "minor" | "flat"
    model: Optional[Dict] = None
    apex: FrozenSet = frozenset()
    pair: Optional[FlatnessPair] = None
    subwall_rows: Optional[Tuple] = None
    subwall_cols: Optional[Tuple] = None


class FlatWallOracle:
    def consult(self, G: Graph, r: int, t: int, W: Wall) -> OracleAnswer:
        raise NotImplementedError


class ScriptedOracle(FlatWallOracle):
    """Replays prepared answers in order; callers re-validate every one."""

    def __init__(self, answers: Sequence[OracleAnswer]):
        self.answers = list(answers)
        self.calls: List[Tuple[int, int]] = []

    def consult(self, G: Graph, r: int, t: int, W: Wall) -> OracleAnswer:
        self.calls.append((G.n, r))
        if not self.answers:
            raise InternalError("oracle script exhausted", witness=[G.n, r])
        return self.answers.pop(0)


def _check_oracle_answer(G: Graph, r: int, t: int, W: Wall,
                         ans: OracleAnswer, p: Params) -> Graph:
    """Re-validate an oracle answer; returns the apex-free graph."""
    if ans.kind == "minor":
        if ans.model is None:
            raise InternalError("oracle minor report carries no model")
        bad = validate_minor_model(G, ans.model, t)
        if bad:
            raise InternalError("oracle minor model invalid", witness=bad)
        return G
    if ans.kind != "flat":
        raise InternalError("unknown oracle answer kind", witness=ans.kind)
    if ans.pair is None:
        raise InternalError("oracle flat answer carries no pair")
    if len(ans.apex) > p.f_hierarchical(t):
        raise InternalError("oracle apex set over the bound",
                            witness=sorted(ans.apex, key=vkey))
    if ans.pair.height != r:
        raise InternalError("oracle pair has the wrong height",
                            witness=[ans.pair.height, r])
    GA = G.remove_vertices(ans.apex) if ans.apex else G
    bad = validate_flatness(GA, ans.pair)
    if bad:
        raise InternalError("oracle flatness pair invalid", witness=bad)
    if ans.subwall_rows is None or ans.subwall_cols is None:
        raise InternalError("oracle answer names no source subwall")
    rows, cols = sorted(set(ans.subwall_rows)), sorted(set(ans.subwall_cols))
    if rows == cols == list(range(1, W.height + 1)) and not W.validate():
        # every row and column of a valid W: the subwall built from them
        # has W's graph (the union of W's rows and vertical paths) and W's
        # perimeter cycle, so W's interior, which is all is_tilt reads. It
        # need not equal W, as its template's degree-2 vertices may sit
        # elsewhere on that cycle; comparing W itself spares rebuilding it
        src = W
    else:
        src = subwall(W, ans.subwall_rows, ans.subwall_cols)
    if not is_tilt(src, ans.pair.wall):
        raise InternalError("oracle pair is not a tilt of the named subwall")
    return GA


# -- the recursion ---------------------------------------------------------


@dataclass
class CompassResult:
    kind: str                      # "minor" | "flat"
    t: int
    model: Optional[Dict] = None
    apex: FrozenSet = frozenset()
    pair: Optional[FlatnessPair] = None
    decomposition: Optional[TreeDecomposition] = None
    graph: Optional[Graph] = None  # the apex-free graph the pair lives in
    notes: List[str] = field(default_factory=list)
    trace: List[Dict] = field(default_factory=list)


def _fresh_vertex(G: Graph, base: str):
    name = base
    i = 0
    while name in G:
        name = f"{base}{i}"
        i += 1
    return name


def _contract_to_vertex(G: Graph, group: FrozenSet, vstar) -> Graph:
    keep = G.vertex_set - group
    edges = set()
    for u, v in G.edge_set:
        a = vstar if u in group else u
        b = vstar if v in group else v
        if a != b:
            edges.add(norm_edge(a, b))
    return Graph(keep | {vstar}, edges)


def _restrict_decomposition(td: TreeDecomposition,
                            keep: FrozenSet) -> TreeDecomposition:
    return TreeDecomposition({k: b & keep for k, b in td.bags.items()},
                             td.tree_edges)


def find_low_tw_compass(G: Graph, r: int, t: int, L: Iterable,
                        oracle: FlatWallOracle,
                        p: Optional[Params] = None,
                        tw_decider: Optional[TreewidthDecider] = None,
                        trace: Optional[List[Dict]] = None) -> CompassResult:
    """Shrink to an L-avoiding flat wall with a low-treewidth compass.

    Implements the seven-step recursion: find a tall wall, consult the
    oracle, pick an L-avoiding subwall and the cheapest of four disjoint
    tilts, peel two layers, contract the perimeter, and either hand back
    the decomposition or recurse into the contracted compass.

    The recursion needs treewidth above z. Treewidth is at most n - 1, so
    a G with n - 1 <= z, at any depth, raises InputError with witness
    [n - 1, z]; a larger G is taken on trust, and the notes say so.
    """
    p = p or Params()
    decider = tw_decider or DefaultTreewidthDecider(p)
    L = frozenset(L)
    check_height(r)
    notes: List[str] = []
    trace = [] if trace is None else trace
    trace.append({"n": G.n, "L": sorted(L, key=vkey)})

    f1 = p.f_questionnaires(t)
    f2 = p.f_hierarchical(t)
    z = z_bound(r, t, p)
    if len(L) > f2 + 1:
        raise InputError("avoided set over the bound",
                         witness=[len(L), f2 + 1])
    if not L <= G.vertex_set:
        raise InputError("avoided set leaves the graph")
    if G.n - 1 <= z:
        raise InputError("treewidth within the compass budget already",
                         witness=[G.n - 1, z])
    notes.append("treewidth precondition unverifiable at this size")

    # Step 1: a tall wall or a minor
    ell = _odd_at_least(math.sqrt(f2 + 2))
    f1_odd = _odd_at_least(f1)
    rp = 2 * (r + 2) + 1
    fw = find_wall(G, ell * f1_odd * rp, t, p)
    notes.extend(f"find-wall: {x}" for x in fw.notes)
    if fw.kind == "minor":
        return CompassResult("minor", t, model=fw.model, notes=notes,
                             trace=trace)
    W = fw.wall

    # Step 2: the oracle call
    ans = oracle.consult(G, ell * rp, t, W)
    GA = _check_oracle_answer(G, ell * rp, t, W, ans, p)
    if ans.kind == "minor":
        return CompassResult("minor", t, model=ans.model, notes=notes,
                             trace=trace)
    A = frozenset(ans.apex)
    pair = ans.pair

    # Step 3: an L-avoiding subwall and the cheapest of four disjoint tilts;
    # with L empty, block (0, 0) avoids it
    chosen = None
    for bi in range(ell):
        for bj in range(ell):
            rows = range(bi * rp + 1, (bi + 1) * rp + 1)
            cols = range(bj * rp + 1, (bj + 1) * rp + 1)
            Wpp = subwall(pair.wall, rows, cols)
            if not L or not (L & influence_union(pair, Wpp).vertex_set):
                chosen = (bi, bj, Wpp)
                break
        if chosen:
            break
    if chosen is None:
        raise InternalError("no avoiding subwall among the blocks",
                            witness=sorted(L, key=vkey))
    bi, bj, Wpp = chosen
    notes.append(f"avoiding subwall block ({bi},{bj})")

    spans = [range(1, r + 3), range(r + 4, 2 * (r + 2) + 2)]
    tilts = []
    for rows in spans:
        for cols in spans:
            Wq = subwall(Wpp, rows, cols)
            tilts.append(compute_tilt(GA, pair, Wq))
    sizes = [tr.pair.compass().n for tr in tilts]
    best = min(range(4), key=lambda i: (sizes[i], i))
    if sizes[best] > G.n / 4:
        raise InternalError("chosen compass over a quarter of the graph",
                            witness=[sizes[best], G.n])
    notes.append(f"chosen tilt compass {sizes[best]} of {G.n} vertices")
    picked = tilts[best].pair
    K = picked.compass()
    if L & K.vertex_set:
        raise InternalError("chosen tilt is not avoiding",
                            witness=sorted(L & K.vertex_set, key=vkey))

    # Step 4: peel the perimeter, prune, tilt once more
    per = picked.wall.perimeter_set
    core = _prune_leaves(picked.wall.graph.remove_vertices(per))
    Wp = subwall(picked.wall, range(2, r + 2), range(2, r + 2))
    if Wp.graph != core:
        raise InternalError("peeled wall differs from the middle subwall")
    if picked.wall.height - Wp.height != 2:
        raise InternalError("peeling did not drop the height by two")
    notes.append("peeled wall height drop 2 verified")
    final = compute_tilt(GA, picked, Wp)
    Kp = final.pair.compass()

    # Step 5: contract the perimeter of the chosen wall
    vstar = _fresh_vertex(G, "vstar")
    GD = _contract_to_vertex(G.subgraph(K.vertex_set | A), per, vstar)
    if Kp.vertex_set & per:
        raise InternalError("final compass meets the peeled perimeter",
                            witness=sorted(Kp.vertex_set & per, key=vkey)[:4])
    if not (Kp.vertex_set <= GD.vertex_set
            and Kp.edge_set <= GD.edge_set):
        raise InternalError("final compass leaves the contracted graph")

    # Step 6: decide the treewidth of the contracted compass
    verdict, payload = decider.decide(GD, z)
    if verdict == "decomposition":
        td = payload
        bad = _decomposition_problems(td, GD, z, "compass decomposition")
        if bad:
            raise InternalError("compass decomposition invalid", witness=bad)
        td_k = _restrict_decomposition(td, Kp.vertex_set)
        return CompassResult("flat", t, apex=A, pair=final.pair,
                             decomposition=td_k, graph=GA, notes=notes,
                             trace=trace)

    # Step 7: recurse into the contracted graph
    notes.append(f"recursing: {payload}")
    sub = find_low_tw_compass(GD, r, t, A | {vstar}, oracle, p, decider,
                              trace)
    if sub.kind == "minor":
        lifted = _lift_minor_model(sub.model, vstar, per)
        bad = validate_minor_model(G, lifted, t)
        if bad:
            raise InternalError("lifted minor model invalid", witness=bad)
        return CompassResult("minor", t, model=lifted,
                             notes=notes + sub.notes, trace=trace)
    # lift the flatness certificate back to the uncontracted graph
    rec_apex = sub.apex
    if vstar in rec_apex:
        raise InternalError("recursion declared the contraction vertex apex")
    A_total = A | rec_apex
    pair2 = sub.pair
    GA2 = G.remove_vertices(A_total) if A_total else G
    X2 = (GA2.vertex_set - pair2.Y) | (pair2.X & pair2.Y)
    lifted_pair = FlatnessPair(pair2.wall, X2, pair2.Y,
                               pair2.pegs_corners, pair2.rendition)
    bad = validate_flatness(GA2, lifted_pair)
    if bad:
        raise InternalError("lifted flatness pair invalid", witness=bad)
    return CompassResult("flat", t, apex=A_total, pair=lifted_pair,
                         decomposition=sub.decomposition, graph=GA2,
                         notes=notes + sub.notes, trace=trace)


# -- the driver ------------------------------------------------------------


@dataclass
class DriverOutcome:
    kind: str            # "minor" | "tree-decomposition" | "flat-wall"
    t: int
    r: int
    model: Optional[Dict] = None
    decomposition: Optional[TreeDecomposition] = None
    apex: FrozenSet = frozenset()
    pair: Optional[FlatnessPair] = None
    compass_decomposition: Optional[TreeDecomposition] = None
    graph: Optional[Graph] = None
    params: Dict = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    trace: List[Dict] = field(default_factory=list)


def flat_wall_driver(G: Graph, r: int, t: int, oracle: FlatWallOracle,
                     p: Optional[Params] = None,
                     tw_decider: Optional[TreewidthDecider] = None
                     ) -> DriverOutcome:
    """Exactly one outcome: minor, decomposition, or flat wall, checked once
    by `validate_driver_outcome` against G; only the model-less dense-graph
    minor report beyond the desk limit is returned unchecked."""
    p = p or Params()
    check_height(r)
    if t < 1:
        raise InputError("t must be positive", witness=t)
    z = z_bound(r, t, p)
    dense = G.m > p.edge_density_coeff * t * G.n
    if dense and t > 2 and G.n > p.limits.minor_model:
        return DriverOutcome("minor", t, r, params=p.describe(),
                             notes=["dense graph: minor not desk-verifiable"])
    out = _driver_outcome(G, r, t, z, dense, oracle, p,
                          tw_decider or DefaultTreewidthDecider(p))
    bad = validate_driver_outcome(G, r, t, out, p)
    if bad:
        raise InternalError("driver outcome failed validation", witness=bad)
    return out


def _driver_outcome(G: Graph, r: int, t: int, z: int, dense: bool,
                    oracle: FlatWallOracle, p: Params,
                    decider: TreewidthDecider) -> DriverOutcome:
    if dense:
        model = _small_clique_minor(G, t, p)
        if model is None:
            raise InternalError("edge-density shortcut misfired",
                                witness=[G.n, G.m, p.edge_density_coeff * t])
        return DriverOutcome("minor", t, r, model=model, params=p.describe(),
                             notes=["dense graph: minor model verified"])

    verdict, payload = decider.decide(G, z)
    if verdict == "decomposition":
        return DriverOutcome("tree-decomposition", t, r, decomposition=payload,
                             params=p.describe())
    notes = [f"high treewidth: {payload}"]

    res = find_low_tw_compass(G, r, t, frozenset(), oracle, p, decider)
    if res.kind == "minor":
        return DriverOutcome("minor", t, r, model=res.model,
                             params=p.describe(),
                             notes=notes + res.notes, trace=res.trace)
    reg = regularize(res.graph, res.pair)
    td_k = _restrict_decomposition(res.decomposition,
                                   reg.compass().vertex_set)
    return DriverOutcome("flat-wall", t, r, apex=res.apex, pair=reg,
                         compass_decomposition=td_k, graph=res.graph,
                         params=p.describe(),
                         notes=notes + res.notes, trace=res.trace)


def validate_driver_outcome(G: Graph, r: int, t: int, out: DriverOutcome,
                            p: Optional[Params] = None) -> List[str]:
    """Every problem of `out` as a driver outcome on G. `flat_wall_driver`
    runs this on what it returns; callers use it on outcomes read back."""
    p = p or Params()
    z = z_bound(r, t, p)
    problems: List[str] = []
    if out.kind == "minor":
        if out.model is not None:
            problems.extend(validate_minor_model(G, out.model, t))
        else:
            problems.append("minor report carries no desk-verifiable model")
    elif out.kind == "tree-decomposition":
        problems.extend(_decomposition_problems(out.decomposition, G, z))
    elif out.kind == "flat-wall":
        if len(out.apex) > p.f_hierarchical(t):
            problems.append("apex set over the bound")
        GA = G.remove_vertices(out.apex) if out.apex else G
        if out.graph is not None and out.graph != GA:
            problems.append("outcome graph is not G minus the apex set")
        problems.extend(validate_flatness(GA, out.pair))
        if not is_regular(out.pair):
            problems.append("pair is not regular")
        if out.pair.height != r:
            problems.append("pair has the wrong height")
        problems.extend(_decomposition_problems(
            out.compass_decomposition, out.pair.compass(), z,
            "compass decomposition"))
    else:
        problems.append(f"unknown outcome kind {out.kind}")
    return problems
