"""Canonical JSON serialization for every domain type.

All output is deterministic: dictionaries become key-sorted objects, edges
are stored with normalized endpoint order, and association maps whose keys
are not strings become sorted pair lists. Tuples used as identifiers (wall
coordinates, leveling vertices) are tagged so the reader restores the exact
value, including its type.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .errors import InputError
from .flatness import FlatnessPair
from .graph import Graph, TreeDecomposition, norm_edge, vkey
from .leveling import Leveling, Representation
from .painting import Painting
from .pipeline import DriverOutcome
from .rendition import Rendition
from .wall import PegsCorners, Wall


class ParseError(InputError):
    """The input is not well-formed JSON."""


class SchemaError(InputError):
    """Well-formed JSON that does not match the expected shape."""


# -- value codec -----------------------------------------------------------


def enc(x):
    """Encode an identifier; tuples get a tag so lists stay unambiguous."""
    if isinstance(x, (tuple, list)):
        return {"$t": [enc(i) for i in x]}
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    raise SchemaError("unserializable identifier", witness=repr(x))


def dec(x):
    if isinstance(x, dict):
        if set(x) != {"$t"} or not isinstance(x["$t"], list):
            raise SchemaError("unknown tagged value", witness=repr(x))
        return tuple(dec(i) for i in x["$t"])
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    raise SchemaError("unexpected value", witness=repr(x))


def _pairs(mapping: Dict, key_sort=vkey):
    return [[enc(k), v] for k, v in
            sorted(mapping.items(), key=lambda kv: key_sort(kv[0]))]


def _field(d, key, path):
    if not isinstance(d, dict):
        raise SchemaError("expected an object", witness=path)
    if key not in d:
        raise SchemaError("missing field", witness=f"{path}.{key}")
    return d[key]


def _list(x, path):
    if not isinstance(x, list):
        raise SchemaError("expected a list", witness=path)
    return x


def _pair_list(x, path):
    out = []
    for i, item in enumerate(_list(x, path)):
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError("expected a key/value pair",
                              witness=f"{path}[{i}]")
        out.append((dec(item[0]), item[1]))
    return out


# -- graphs ----------------------------------------------------------------


def graph_to_json(G: Graph) -> Dict:
    return {
        "vertices": [enc(v) for v in G.vertices],
        "edges": [[enc(u), enc(v)] for u, v in
                  sorted(G.edge_set, key=lambda e: (vkey(e[0]), vkey(e[1])))],
    }


def graph_from_json(d: Dict, path: str = "graph") -> Graph:
    vs = [dec(v) for v in _list(_field(d, "vertices", path), f"{path}.vertices")]
    es = []
    for i, e in enumerate(_list(_field(d, "edges", path), f"{path}.edges")):
        if not isinstance(e, list) or len(e) != 2:
            raise SchemaError("edge must be a two-element list",
                              witness=f"{path}.edges[{i}]")
        es.append(norm_edge(dec(e[0]), dec(e[1])))
    return Graph(vs, es)


# -- walls -----------------------------------------------------------------


def wall_to_json(W: Wall) -> Dict:
    segs = [[enc(a), enc(b), [enc(v) for v in p]]
            for (a, b), p in sorted(W.seg_paths.items())]
    return {
        "height": W.height,
        "branch": _pairs(W.branch_coords, key_sort=lambda c: c),
        "segs": segs,
    }


def wall_from_json(d: Dict, path: str = "wall") -> Wall:
    height = _field(d, "height", path)
    if not isinstance(height, int):
        raise SchemaError("height must be an integer", witness=f"{path}.height")
    branch = {k: dec(v) for k, v in
              _pair_list(_field(d, "branch", path), f"{path}.branch")}
    segs = {}
    for i, item in enumerate(_list(_field(d, "segs", path), f"{path}.segs")):
        if not isinstance(item, list) or len(item) != 3:
            raise SchemaError("segment must be [coord, coord, path]",
                              witness=f"{path}.segs[{i}]")
        a, b, p = dec(item[0]), dec(item[1]), item[2]
        segs[(a, b)] = tuple(dec(v) for v in _list(p, f"{path}.segs[{i}]"))
    return Wall(height, branch, segs)


def pegs_to_json(P: PegsCorners) -> Dict:
    return {"pegs": [enc(v) for v in sorted(P.pegs, key=vkey)],
            "corners": [enc(v) for v in sorted(P.corners, key=vkey)]}


def pegs_from_json(d: Dict, path: str = "pegs_corners") -> PegsCorners:
    pegs = frozenset(dec(v) for v in _list(_field(d, "pegs", path), path))
    corners = frozenset(dec(v) for v in _list(_field(d, "corners", path), path))
    return PegsCorners(pegs, corners)


# -- paintings and renditions ----------------------------------------------


def painting_to_json(P: Painting) -> Dict:
    return {
        "nodes": [enc(n) for n in P.nodes],
        "cells": [[enc(c), [enc(n) for n in b]]
                  for c, b in sorted(P.cells.items(), key=lambda kv: vkey(kv[0]))],
        "rotations": [[enc(n), [enc(c) for c in r]]
                      for n, r in sorted(P.rotations.items(),
                                         key=lambda kv: vkey(kv[0]))],
        "outer": [enc(n) for n in P.outer],
    }


def painting_from_json(d: Dict, path: str = "painting") -> Painting:
    nodes = [dec(n) for n in _list(_field(d, "nodes", path), f"{path}.nodes")]
    cells = {c: tuple(dec(n) for n in _list(b, f"{path}.cells"))
             for c, b in _pair_list(_field(d, "cells", path), f"{path}.cells")}
    rots = {n: tuple(dec(c) for c in _list(r, f"{path}.rotations"))
            for n, r in _pair_list(_field(d, "rotations", path),
                                   f"{path}.rotations")}
    outer = [dec(n) for n in _list(_field(d, "outer", path), f"{path}.outer")]
    return Painting(nodes, cells, rots, outer)


def rendition_to_json(R: Rendition) -> Dict:
    return {
        "painting": painting_to_json(R.painting),
        "sigma": [[enc(c), graph_to_json(g)]
                  for c, g in sorted(R.sigma.items(),
                                     key=lambda kv: vkey(kv[0]))],
        "pi": [[enc(n), enc(v)] for n, v in
               sorted(R.pi.items(), key=lambda kv: vkey(kv[0]))],
        "omega": [enc(v) for v in R.omega],
    }


def rendition_from_json(d: Dict, path: str = "rendition") -> Rendition:
    painting = painting_from_json(_field(d, "painting", path),
                                  f"{path}.painting")
    sigma = {c: graph_from_json(g, f"{path}.sigma")
             for c, g in _pair_list(_field(d, "sigma", path), f"{path}.sigma")}
    pi = {n: dec(v) for n, v in
          _pair_list(_field(d, "pi", path), f"{path}.pi")}
    omega = [dec(v) for v in _list(_field(d, "omega", path), f"{path}.omega")]
    return Rendition(painting, sigma, pi, omega)


# -- flatness pairs --------------------------------------------------------


def pair_to_json(G: Graph, F: FlatnessPair) -> Dict:
    return {
        "graph": graph_to_json(G),
        "wall": wall_to_json(F.wall),
        "X": [enc(v) for v in sorted(F.X, key=vkey)],
        "Y": [enc(v) for v in sorted(F.Y, key=vkey)],
        "pegs_corners": pegs_to_json(F.pegs_corners),
        "rendition": rendition_to_json(F.rendition),
    }


def pair_from_json(d: Dict, path: str = "pair") -> Tuple[Graph, FlatnessPair]:
    G = graph_from_json(_field(d, "graph", path), f"{path}.graph")
    W = wall_from_json(_field(d, "wall", path), f"{path}.wall")
    X = [dec(v) for v in _list(_field(d, "X", path), f"{path}.X")]
    Y = [dec(v) for v in _list(_field(d, "Y", path), f"{path}.Y")]
    pc = pegs_from_json(_field(d, "pegs_corners", path),
                        f"{path}.pegs_corners")
    R = rendition_from_json(_field(d, "rendition", path),
                            f"{path}.rendition")
    return G, FlatnessPair(W, X, Y, pc, R)


# -- decompositions and models ---------------------------------------------


def decomposition_to_json(td: TreeDecomposition) -> Dict:
    return {
        "bags": [[enc(k), [enc(v) for v in sorted(b, key=vkey)]]
                 for k, b in sorted(td.bags.items(),
                                    key=lambda kv: vkey(kv[0]))],
        "tree_edges": [[enc(a), enc(b)] for a, b in
                       sorted(td.tree_edges,
                              key=lambda e: (vkey(e[0]), vkey(e[1])))],
    }


def decomposition_from_json(d: Dict,
                            path: str = "decomposition") -> TreeDecomposition:
    bags = {k: frozenset(dec(v) for v in _list(b, f"{path}.bags"))
            for k, b in _pair_list(_field(d, "bags", path), f"{path}.bags")}
    edges = []
    for i, e in enumerate(_list(_field(d, "tree_edges", path),
                                f"{path}.tree_edges")):
        if not isinstance(e, list) or len(e) != 2:
            raise SchemaError("tree edge must be a pair",
                              witness=f"{path}.tree_edges[{i}]")
        edges.append((dec(e[0]), dec(e[1])))
    return TreeDecomposition(bags, edges)


def model_to_json(model: Dict) -> List:
    return [[enc(k), [enc(v) for v in sorted(vs, key=vkey)]]
            for k, vs in sorted(model.items(), key=lambda kv: vkey(kv[0]))]


def model_from_json(x, path: str = "model") -> Dict:
    return {k: frozenset(dec(v) for v in _list(vs, path))
            for k, vs in _pair_list(x, path)}


# -- levelings -------------------------------------------------------------


def leveling_to_json(L: Leveling) -> Dict:
    return {
        "graph": graph_to_json(L.graph),
        "ground": [enc(v) for v in sorted(L.ground, key=vkey)],
        "vflaps": _pairs({c: enc(v) for c, v in L.vflaps.items()}),
        "boundary": [enc(v) for v in L.boundary],
    }


def representation_to_json(rep: Representation) -> Dict:
    return {
        "wall": wall_to_json(rep.wall),
        "rho": [[enc(k), enc(v)] for k, v in
                sorted(rep.rho.items(), key=lambda kv: vkey(kv[0]))],
        "tau": [[enc(k), [enc(v) for v in p]] for k, p in
                sorted(rep.tau.items(), key=lambda kv: vkey(kv[0]))],
    }


# -- driver outcomes -------------------------------------------------------


def outcome_to_json(out: DriverOutcome) -> Dict:
    d: Dict = {
        "outcome": out.kind,
        "t": out.t,
        "r": out.r,
        "params": out.params,
        "notes": list(out.notes),
        "trace": [{"n": e["n"], "L": [enc(v) for v in e["L"]]}
                  for e in out.trace],
    }
    if out.model is not None:
        d["model"] = model_to_json(out.model)
    if out.decomposition is not None:
        d["decomposition"] = decomposition_to_json(out.decomposition)
    if out.kind == "flat-wall":
        d["apex"] = [enc(v) for v in sorted(out.apex, key=vkey)]
        d["pair"] = pair_to_json(out.graph, out.pair)
        d["compass_decomposition"] = decomposition_to_json(
            out.compass_decomposition)
    return d


def outcome_from_json(d: Dict, path: str = "outcome") -> DriverOutcome:
    kind = _field(d, "outcome", path)
    t = _field(d, "t", path)
    r = _field(d, "r", path)
    if kind not in ("minor", "tree-decomposition", "flat-wall"):
        raise SchemaError("unknown outcome kind", witness=f"{path}.outcome")
    out = DriverOutcome(kind, t, r,
                        params=d.get("params", {}),
                        notes=list(d.get("notes", [])))
    out.trace = [{"n": e["n"], "L": [dec(v) for v in e["L"]]}
                 for e in d.get("trace", [])]
    if "model" in d:
        out.model = model_from_json(d["model"], f"{path}.model")
    if "decomposition" in d:
        out.decomposition = decomposition_from_json(d["decomposition"],
                                                    f"{path}.decomposition")
    if kind == "flat-wall":
        out.apex = frozenset(dec(v) for v in
                             _list(_field(d, "apex", path), f"{path}.apex"))
        G, F = pair_from_json(_field(d, "pair", path), f"{path}.pair")
        out.graph, out.pair = G, F
        out.compass_decomposition = decomposition_from_json(
            _field(d, "compass_decomposition", path),
            f"{path}.compass_decomposition")
    return out


# -- certificate bundles ---------------------------------------------------


TOOL_VERSION = "0.1.0"


@dataclass
class CertificateBundle:
    kind: str
    payload: Dict
    params: Dict = field(default_factory=dict)
    version: str = TOOL_VERSION


_PAYLOAD_PARSERS = {
    "graph": graph_from_json,
    "wall": wall_from_json,
    "flatness-pair": pair_from_json,
    "rendition": lambda d, path="rendition": (
        graph_from_json(_field(d, "graph", path), f"{path}.graph"),
        rendition_from_json(_field(d, "rendition", path),
                            f"{path}.rendition")),
    "tree-decomposition": decomposition_from_json,
    "minor-model": model_from_json,
    "driver-outcome": outcome_from_json,
    "leveling": lambda d, path="leveling": d,
    "tightness-report": lambda d, path="report": d,
}


def bundle_to_json(b: CertificateBundle) -> Dict:
    return {"kind": b.kind, "payload": b.payload, "params": b.params,
            "version": b.version}


def canonical_bytes(obj) -> bytes:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
    return text.encode("utf-8") + b"\n"


def write_bundle(path, b: CertificateBundle):
    with open(path, "wb") as fh:
        fh.write(canonical_bytes(bundle_to_json(b)))


def parse_bundle(d) -> CertificateBundle:
    kind = _field(d, "kind", "bundle")
    payload = _field(d, "payload", "bundle")
    if kind not in _PAYLOAD_PARSERS:
        raise SchemaError("unknown bundle kind", witness="bundle.kind")
    _PAYLOAD_PARSERS[kind](payload, "bundle.payload")
    params = d.get("params", {})
    version = d.get("version", TOOL_VERSION)
    return CertificateBundle(kind, payload, params, version)


def read_bundle(src) -> CertificateBundle:
    if hasattr(src, "read"):
        text = src.read()
    else:
        with open(src, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno} column {e.colno}",
                         witness={"line": e.lineno, "column": e.colno})
    return parse_bundle(d)
