"""Command line interface.

Every subcommand reads canonical JSON bundles, writes canonical JSON
bundles, and exits 0 on success, 1 on validation failure, 2 on usage
errors, 3 when a desk-scale limit is hit, and 4 when a guaranteed
property fails to hold.

Each result is validated once, by the library call that produces it; a
failed check exits 4. So `--verify` is accepted and ignored, except by the
best-effort `tighten`, where it checks that the output is tight.
"""
from __future__ import annotations

import functools
import json
import sys
from dataclasses import replace

import click

from .config import Params, _poly
from .errors import CapacityError, FlatwallError, UsageError
from .flatness import validate_flatness
from .homogeneity import FlapColoring, find_homogeneous
from .leveling import leveling_graph, representation
from .pipeline import (FlatWallOracle, ManualOracle, OracleAnswer,
                       ScriptedOracle, flat_wall_driver)
from .rendition import check_tightness, tighten
from .serialize import (CertificateBundle, ParseError, SchemaError,
                        bundle_to_json, canonical_bytes, enc,
                        graph_from_json, leveling_to_json, model_from_json,
                        outcome_to_json, pair_from_json, pair_to_json,
                        rendition_from_json, rendition_to_json,
                        representation_to_json, _field)
from .tilt import compute_tilt, regularize
from .wall import subwall


def guarded(f):
    @functools.wraps(f)
    def inner(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except FlatwallError as e:
            click.echo(json.dumps({"error": e.as_dict()}, sort_keys=True,
                                  default=str), err=True)
            sys.exit(e.exit_code)
    return inner


def _emit(bundle: CertificateBundle, output):
    data = canonical_bytes(bundle_to_json(bundle))
    if output:
        with open(output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno} column {e.colno}",
                         witness={"file": str(path), "line": e.lineno,
                                  "column": e.colno})


def _integer(value, name, what="parameters must be integers"):
    """`value` if it is an integer and not a bool, else a SchemaError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(what, witness={"field": name, "value": value})
    return value


def load_params(path) -> Params:
    p = Params()
    if path:
        d = _load_json(path)
        if not isinstance(d, dict):
            raise SchemaError("params file must hold an object",
                              witness=str(path))
        kwargs = {}
        for name in ("f_questionnaires", "f_hierarchical",
                     "f_confrontation", "f_entstandenen"):
            if name in d:
                spec = d[name]
                if not isinstance(spec, dict):
                    raise SchemaError("parameter function must be an "
                                      "object with coeff and power",
                                      witness=name)
                kwargs[name] = _poly(_integer(spec.get("coeff", 1), name),
                                     _integer(spec.get("power", 1), name))
        if "edge_density_coeff" in d:
            kwargs["edge_density_coeff"] = _integer(d["edge_density_coeff"],
                                                    "edge_density_coeff")
        p = Params(**kwargs)
    return replace(p, limits=p.limits.override_from_env())


def _payload(d, kind):
    """The payload of the bundle `d`, which must be of the given kind."""
    got = _field(d, "kind", "bundle")
    if got != kind:
        raise SchemaError(f"expected a {kind} bundle", witness={"kind": got})
    return _field(d, "payload", "bundle")


def _load_pair(path):
    return pair_from_json(_payload(_load_json(path), "flatness-pair"),
                          "bundle.payload")


def _parse_subwall(text):
    try:
        rows_s, cols_s = text.split("x")
        rows = [int(x) for x in rows_s.split(",")]
        cols = [int(x) for x in cols_s.split(",")]
    except ValueError:
        raise UsageError("subwall selection must look like 1,3,5x1,3,5",
                         witness=text)
    return rows, cols


class _NoOracle(FlatWallOracle):
    def consult(self, G, r, t, W):
        raise CapacityError("this input needs an oracle; pass --oracle")


def _answer_from_json(d):
    kind = _field(d, "kind", "answer")
    ans = OracleAnswer(kind)
    if "model" in d:
        ans.model = model_from_json(d["model"], "answer.model")
    if "apex" in d:
        from .serialize import dec
        ans.apex = frozenset(dec(v) for v in d["apex"])
    if "pair" in d:
        _, ans.pair = pair_from_json(d["pair"], "answer.pair")
    if "rows" in d:
        ans.subwall_rows = tuple(d["rows"])
    if "cols" in d:
        ans.subwall_cols = tuple(d["cols"])
    return ans


def load_oracle(spec):
    if spec is None:
        return _NoOracle()
    if ":" not in spec:
        raise UsageError("oracle must look like scripted:file.json "
                         "or manual:file.json", witness=spec)
    mode, path = spec.split(":", 1)
    d = _load_json(path)
    if mode == "scripted":
        answers = [_answer_from_json(a)
                   for a in _field(d, "answers", "oracle")]
        return ScriptedOracle(answers)
    if mode == "manual":
        return ManualOracle(_answer_from_json(d))
    raise UsageError("unknown oracle mode", witness=mode)


# The library validates what tilt, regularize, homogenize and find-wall
# emit, so --verify has nothing to add there; it stays accepted so that
# scripts passing it, such as perfbench/run.py, keep working.
_ignored_verify = click.option("--verify", is_flag=True, hidden=True,
                               expose_value=False)


@click.group()
def main():
    """Flat wall toolkit: validate, transform, and search certificates."""


@main.command("validate")
@click.argument("pairfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--lenient-pegs", is_flag=True,
              help="Drop the degree-2 rule for pegs.")
@guarded
def cmd_validate(pairfile, lenient_pegs):
    """Check a flatness-pair certificate against every condition."""
    G, F = _load_pair(pairfile)
    bad = validate_flatness(G, F, lenient_pegs=lenient_pegs)
    if bad:
        click.echo(json.dumps({"ok": False, "violations": bad},
                              sort_keys=True, default=str))
        sys.exit(1)
    click.echo(json.dumps({"ok": True}))


@main.command("tighten")
@click.argument("rendfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", type=click.Path(dir_okay=False))
@click.option("--verify", is_flag=True)
@guarded
def cmd_tighten(rendfile, output, verify):
    """Run the tightening pass on a rendition bundle."""
    payload = _payload(_load_json(rendfile), "rendition")
    G = graph_from_json(_field(payload, "graph", "bundle.payload"),
                        "bundle.payload.graph")
    R = rendition_from_json(_field(payload, "rendition", "bundle.payload"),
                            "bundle.payload.rendition")
    notes = []
    R2 = tighten(G, R, report=notes)
    if verify:
        rep = check_tightness(G, R2)
        if not rep.is_tight:
            click.echo(json.dumps({"ok": False,
                                   "violations": rep.violations},
                                  sort_keys=True, default=str), err=True)
            sys.exit(1)
    out = {"graph": payload["graph"],
           "rendition": rendition_to_json(R2), "notes": notes}
    _emit(CertificateBundle("rendition", out), output)


@main.command("tilt")
@click.option("--pair", "pairfile", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--subwall", "selection", required=True)
@click.option("--output", type=click.Path(dir_okay=False))
@_ignored_verify
@guarded
def cmd_tilt(pairfile, selection, output):
    """Tilt a flatness pair onto the selected subwall."""
    G, F = _load_pair(pairfile)
    rows, cols = _parse_subwall(selection)
    res = compute_tilt(G, F, subwall(F.wall, rows, cols))
    payload = pair_to_json(G, res.pair)
    provenance = [[enc(c), [enc(src), i]]
                  for c, (src, i) in sorted(res.provenance.items(),
                                            key=lambda kv: str(kv[0]))]
    payload["provenance"] = provenance
    _emit(CertificateBundle("flatness-pair", payload), output)
    if output:
        with open(str(output) + ".provenance.json", "wb") as fh:
            fh.write(canonical_bytes(provenance))


@main.command("regularize")
@click.option("--pair", "pairfile", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--output", type=click.Path(dir_okay=False))
@_ignored_verify
@guarded
def cmd_regularize(pairfile, output):
    """Repair untidy cells and tilt away irregular flaps."""
    G, F = _load_pair(pairfile)
    out = regularize(G, F)
    _emit(CertificateBundle("flatness-pair", pair_to_json(G, out)), output)


@main.command("homogenize")
@click.option("--pair", "pairfile", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--colors", "colorsfile", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--target-height", "target", required=True, type=int)
@click.option("--allow-short", is_flag=True,
              help="Search even below the guarantee threshold.")
@click.option("--output", type=click.Path(dir_okay=False))
@_ignored_verify
@guarded
def cmd_homogenize(pairfile, colorsfile, target, allow_short, output):
    """Find a subwall whose tilt has one palette on all internal bricks."""
    G, F = _load_pair(pairfile)
    raw = _load_json(colorsfile)
    if not isinstance(raw, dict):
        raise SchemaError("colors file must map cell ids to integers")
    colors = {}
    for cid in F.rendition.sigma:
        key = str(cid)
        if key not in raw:
            raise SchemaError("colors file misses a cell", witness=key)
        colors[cid] = _integer(raw[key], key, "colors must be integers")
    zeta = FlapColoring(colors, max(colors.values(), default=1))
    res = find_homogeneous(G, F, zeta, target, allow_short=allow_short)
    if res is None:
        click.echo(json.dumps({"ok": False,
                               "violations": ["no homogeneous subwall "
                                              "within the search bound"]}),
                   err=True)
        sys.exit(1)
    _emit(CertificateBundle("flatness-pair", pair_to_json(G, res.pair)),
          output)


@main.command("leveling")
@click.option("--pair", "pairfile", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--representation", "with_rep", is_flag=True)
@click.option("--output", type=click.Path(dir_okay=False))
@guarded
def cmd_leveling(pairfile, with_rep, output):
    """Emit the leveling of a flatness pair, optionally with a grounded
    wall representation."""
    G, F = _load_pair(pairfile)
    lv = leveling_graph(F)
    payload = leveling_to_json(lv)
    if with_rep:
        payload["representation"] = representation_to_json(representation(F))
    _emit(CertificateBundle("leveling", payload), output)


@main.command("find-wall")
@click.option("--graph", "graphfile", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("-r", "height", required=True, type=int)
@click.option("-t", "order", required=True, type=int)
@click.option("--params", "paramsfile", type=click.Path(exists=True,
                                                        dir_okay=False))
@click.option("--oracle", "oraclespec", default=None)
@click.option("--output", type=click.Path(dir_okay=False))
@_ignored_verify
@guarded
def cmd_find_wall(graphfile, height, order, paramsfile, oraclespec, output):
    """Run the driver: minor, tree decomposition, or flat wall."""
    raw = _load_json(graphfile)
    if isinstance(raw, dict) and "kind" in raw:
        G = graph_from_json(_payload(raw, "graph"), "bundle.payload")
    else:
        G = graph_from_json(raw)
    p = load_params(paramsfile)
    oracle = load_oracle(oraclespec)
    out = flat_wall_driver(G, height, order, oracle, p)
    _emit(CertificateBundle("driver-outcome", outcome_to_json(out),
                            params=p.describe()), output)


if __name__ == "__main__":
    main()
