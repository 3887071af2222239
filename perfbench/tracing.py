"""Per-layer tracing by wrapping the library's public functions.

`Tracer.install()` replaces each function in TARGETS by a timing wrapper
under every name a flatwall module bound it to (a `from .x import f` makes
a second binding), so calls between modules are seen as well as calls from
the benchmark. `uninstall()` puts the originals back. Untraced runs never
call `install()`.

Each wrapped call is a span. Spans are kept in memory (calls of
`Graph.__init__`, a leaf that runs tens of thousands of times a round, only
as totals); a span's self time is its duration minus the durations of its
direct child spans. `summary()`, `merge()` and `layer_metrics()` turn the
spans into the per-layer metrics.
"""
from __future__ import annotations

import statistics
import sys
import time

TARGETS = [
    ("flatwall.graph", "Graph.__init__"),
    ("flatwall.wall", "subwall"),
    ("flatwall.wall", "is_tilt"),
    ("flatwall.painting", "trace_normal_cycle"),
    ("flatwall.rendition", "validate_rendition"),
    ("flatwall.rendition", "check_tightness"),
    ("flatwall.flatness", "validate_flatness"),
    ("flatwall.flatness", "classify_cells"),
    ("flatwall.flatness", "untidy_cells"),
    ("flatwall.tilt", "compute_tilt"),
    ("flatwall.tilt", "regularize"),
    ("flatwall.homogeneity", "find_homogeneous"),
    ("flatwall.homogeneity", "palette"),
    ("flatwall.leveling", "representation"),
    ("flatwall.pipeline", "find_wall"),
    ("flatwall.pipeline", "DefaultTreewidthDecider.decide"),
    ("flatwall.serialize", "read_bundle"),
    ("flatwall.serialize", "pair_from_json"),
    ("flatwall.serialize", "graph_from_json"),
    ("flatwall.serialize", "outcome_from_json"),
    ("flatwall.serialize", "pair_to_json"),
    ("flatwall.serialize", "graph_to_json"),
    ("flatwall.serialize", "outcome_to_json"),
    ("flatwall.serialize", "representation_to_json"),
    ("flatwall.serialize", "canonical_bytes"),
]

PARSE = {"read_bundle", "pair_from_json", "graph_from_json",
         "outcome_from_json"}
EMIT = {"pair_to_json", "graph_to_json", "outcome_to_json",
        "representation_to_json", "canonical_bytes"}
LEAF = "Graph.__init__"

# per-layer metric name -> unit; every traced run reports all of them
PER_LAYER = {
    "graph.graphs_built": "count", "graph.build_s": "s",
    "wall.subwall_calls": "count", "wall.subwall_s": "s",
    "wall.is_tilt_s": "s",
    "painting.trace_calls": "count", "painting.trace_s": "s",
    "rendition.validate_s": "s", "rendition.tightness_calls": "count",
    "rendition.tightness_s": "s",
    "flatness.validate_calls": "count", "flatness.validate_s": "s",
    "flatness.validate_repeats": "count",
    "flatness.classify_calls": "count", "flatness.classify_s": "s",
    "flatness.untidy_calls": "count", "flatness.untidy_s": "s",
    "tilt.tilt_calls": "count", "tilt.tilt_ms": "ms",
    "tilt.tilt_self_s": "s", "tilt.regularize_s": "s",
    "homogeneity.search_tilts": "count", "homogeneity.palette_s": "s",
    "leveling.representation_s": "s",
    "pipeline.find_wall_s": "s", "pipeline.oracle_check_s": "s",
    "pipeline.decide_calls": "count", "pipeline.decide_s": "s",
    "serialize.parse_s": "s", "serialize.emit_s": "s",
    "serialize.bundle_bytes": "count",
    "cli.import_s": "s", "cli.networkx_import_s": "s",
    "trace.overhead_pct": "%",
}


def _resolve(modname, path):
    obj = sys.modules[modname]
    *owner, name = path.split(".")
    for part in owner:
        obj = getattr(obj, part)
    return obj, name


class Tracer:
    def __init__(self):
        self.spans = []          # (name, via, duration, self time)
        self.leaf_calls = 0
        self.leaf_s = 0.0
        self.outer = {"parse": 0.0, "emit": 0.0}
        self.emitted_bytes = 0
        self.validate_repeats = 0
        self.search_tilts = 0
        self._depth = {"parse": 0, "emit": 0, "search": 0}
        self._stack = [0.0]
        self._seen = {}
        self._saved = []

    def begin_op(self):
        """Start a new benchmark operation (for validate_repeats)."""
        self._seen = {}

    # -- installation -------------------------------------------------------

    def install(self):
        import flatwall.cli  # noqa: F401  (bind every module first)
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "flatwall"
                                      or n.startswith("flatwall."))]
        for modname, path in TARGETS:
            owner, name = _resolve(modname, path)
            orig = getattr(owner, name)
            if "." in path:                       # a method: one binding
                self._patch(owner, name, orig, self._wrap(path, modname, orig))
                continue
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, orig,
                                    self._wrap(path, mod.__name__, orig))

    def _patch(self, owner, attr, orig, wrapper):
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    def _wrap(self, name, via, fn):
        tracer = self
        clock = time.perf_counter
        if name == LEAF:
            def leaf(*args, **kwargs):
                t = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - t
                    tracer.leaf_calls += 1
                    tracer.leaf_s += d
                    tracer._stack[-1] += d
            return leaf

        group = ("parse" if name in PARSE else "emit" if name in EMIT
                 else "search" if name == "find_homogeneous" else None)

        def wrapper(*args, **kwargs):
            if name == "validate_flatness":
                key = (id(args[0]), id(args[1]))
                if key in tracer._seen:
                    tracer.validate_repeats += 1
                tracer._seen[key] = args[:2]      # keeps the ids unique
            elif name == "compute_tilt" and tracer._depth["search"]:
                tracer.search_tilts += 1
            if group:
                tracer._depth[group] += 1
            stack = tracer._stack
            stack.append(0.0)
            t = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = clock() - t
                child = stack.pop()
                stack[-1] += d
                tracer.spans.append((name, via, d, d - child))
                if group:
                    tracer._depth[group] -= 1
                    if group != "search" and not tracer._depth[group]:
                        tracer.outer[group] += d
            if name == "canonical_bytes":
                tracer.emitted_bytes += len(out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------

    def summary(self):
        """Totals per span name (and per binding), as plain data."""
        out = {"leaf_calls": self.leaf_calls, "leaf_s": self.leaf_s,
               "outer": dict(self.outer), "emitted_bytes": self.emitted_bytes,
               "validate_repeats": self.validate_repeats,
               "search_tilts": self.search_tilts, "names": {}, "via": {},
               "tilt_durations": []}
        for name, via, d, own in self.spans:
            c = out["names"].setdefault(name, [0, 0.0, 0.0])
            c[0] += 1
            c[1] += d
            c[2] += own
            v = out["via"].setdefault(f"{name}@{via}", [0, 0.0])
            v[0] += 1
            v[1] += d
            if name == "compute_tilt":
                out["tilt_durations"].append(d)
        return out


def merge(summaries):
    """Add summaries (each already scaled to calibrated seconds)."""
    tot = {"leaf_calls": 0, "leaf_s": 0.0,
           "outer": {"parse": 0.0, "emit": 0.0},
           "emitted_bytes": 0, "validate_repeats": 0, "search_tilts": 0,
           "names": {}, "via": {}, "tilt_durations": []}
    for s in summaries:
        for k in ("leaf_calls", "leaf_s", "emitted_bytes", "validate_repeats",
                  "search_tilts"):
            tot[k] += s[k]
        for g in tot["outer"]:
            tot["outer"][g] += s["outer"][g]
        for key in ("names", "via"):
            for name, vals in s[key].items():
                cur = tot[key].setdefault(name, [0] * len(vals))
                tot[key][name] = [a + b for a, b in zip(cur, vals)]
        tot["tilt_durations"].extend(s["tilt_durations"])
    return tot


def scaled(summary, factor):
    """The summary with every time multiplied by a calibration factor."""
    s = dict(summary)
    s["leaf_s"] = summary["leaf_s"] * factor
    s["outer"] = {g: v * factor for g, v in summary["outer"].items()}
    s["names"] = {n: [c, d * factor, own * factor]
                  for n, (c, d, own) in summary["names"].items()}
    s["via"] = {n: [c, d * factor] for n, (c, d) in summary["via"].items()}
    s["tilt_durations"] = [d * factor for d in summary["tilt_durations"]]
    return s


def layer_metrics(tot, rounds, bundle_in_bytes, imports, overhead_pct):
    """Per-layer metrics per traced round from a merged summary."""
    names = tot["names"]

    def calls(n):
        return names.get(n, [0, 0.0, 0.0])[0] / rounds

    def secs(n):
        return names.get(n, [0, 0.0, 0.0])[1] / rounds

    via_pipeline = tot["via"].get("validate_flatness@flatwall.pipeline",
                                  [0, 0.0])
    tilts = tot["tilt_durations"]
    m = {
        "graph.graphs_built": tot["leaf_calls"] / rounds,
        "graph.build_s": tot["leaf_s"] / rounds,
        "wall.subwall_calls": calls("subwall"),
        "wall.subwall_s": secs("subwall"),
        "wall.is_tilt_s": secs("is_tilt"),
        "painting.trace_calls": calls("trace_normal_cycle"),
        "painting.trace_s": secs("trace_normal_cycle"),
        "rendition.validate_s": secs("validate_rendition"),
        "rendition.tightness_calls": calls("check_tightness"),
        "rendition.tightness_s": secs("check_tightness"),
        "flatness.validate_calls": calls("validate_flatness"),
        "flatness.validate_s": secs("validate_flatness"),
        "flatness.validate_repeats": tot["validate_repeats"] / rounds,
        "flatness.classify_calls": calls("classify_cells"),
        "flatness.classify_s": secs("classify_cells"),
        "flatness.untidy_calls": calls("untidy_cells"),
        "flatness.untidy_s": secs("untidy_cells"),
        "tilt.tilt_calls": calls("compute_tilt"),
        "tilt.tilt_ms": 1000 * statistics.median(tilts) if tilts else 0.0,
        "tilt.tilt_self_s": names.get("compute_tilt", [0, 0, 0.0])[2] / rounds,
        "tilt.regularize_s": secs("regularize"),
        "homogeneity.search_tilts": tot["search_tilts"] / rounds,
        "homogeneity.palette_s": secs("palette"),
        "leveling.representation_s": secs("representation"),
        "pipeline.find_wall_s": secs("find_wall"),
        "pipeline.oracle_check_s": via_pipeline[1] / rounds,
        "pipeline.decide_calls": calls("DefaultTreewidthDecider.decide"),
        "pipeline.decide_s": secs("DefaultTreewidthDecider.decide"),
        "serialize.parse_s": tot["outer"]["parse"] / rounds,
        "serialize.emit_s": tot["outer"]["emit"] / rounds,
        "serialize.bundle_bytes": (tot["emitted_bytes"]
                                   + bundle_in_bytes) / rounds,
        "cli.import_s": imports["cli"],
        "cli.networkx_import_s": imports["networkx"],
        "trace.overhead_pct": overhead_pct,
    }
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in m.items()}
