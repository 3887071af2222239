"""flatwall benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Runs whole rounds of a workload's operations until --seconds have passed
(traced runs: at least one untraced and one traced round), checks every
output with the independent checks in checks.py, prints a detail line and,
as the last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. All times are calibrated seconds (see calib.py); raw seconds are
in the detail line. See README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

LOADED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import calib                                     # noqa: E402
import checks                                    # noqa: E402
from calib import Calibrated                     # noqa: E402

T = 3                              # the clique order t of every driver call
DEFECTS = ("with-untidy", "with-untidy2", "with-marginal", "with-external",
           "combined")
APEX = (1, 33, 3)                  # generate_fixture(1, 33) carries apex0
RECHECKS = 3                       # recheck samples per driver outcome
CHILD_TIMEOUT_S = 170

# Every workload runs every stage, so every end-to-end metric is measured on
# every workload; the workloads differ in which stage gets the large inputs.
# A fixture seed of None means a fixture drawn from --seed.
#   driver: (wall height H, r) of drawn base fixtures; apex: failing slots
#   search: (H, profile, fixture seed, r) for find_homogeneous, which may
#     search below its guaranteed height h(r, 2)
#   transform: ((profile, fixture seed) at height 7, repeats) for regularize
#     followed by representation
#   cli: (command, H, profile, fixture seed), one flatwall process each
LIGHT_CLI = ([("find-wall", 7, "base", 0)] * 3
             + [("validate", 7, "base", 0)] * 3
             + [("regularize", 7, "with-untidy", 0)] * 3)
LIGHT_TRANSFORM = ([("combined", 0)], 6)
LIGHT_SEARCH = [(9, "with-flaps", 0, 5)] * 2
WORKLOADS = {
    "certify": {
        "driver": [(33, 3)] * 3 + [(45, 5)], "apex": 1,
        "search": LIGHT_SEARCH, "transform": LIGHT_TRANSFORM,
        "cli": LIGHT_CLI,
    },
    "transforms": {
        "driver": [(33, 3)] * 2 + [(45, 5)], "apex": 0,
        "search": [(21, "base", 0, 5)],
        "transform": ([(p, None) for p in DEFECTS for _ in range(2)], 1),
        "cli": LIGHT_CLI,
    },
    "cli": {
        "driver": [(33, 3)] * 2 + [(45, 5)], "apex": 0,
        "search": LIGHT_SEARCH, "transform": LIGHT_TRANSFORM,
        "cli": ([("find-wall", 21, "base", None),
                 ("find-wall", 25, "base", None)]
                + [("validate", 33, "base", None)] * 2
                + [("regularize", 7, p, None) for p in DEFECTS]),
    },
}

END_TO_END = {
    "setup_s": "s", "certify_r3_s": "s", "certify_r5_s": "s",
    "recheck_s": "s", "homogeneous_s": "s", "regularize_ms": "ms",
    "leveling_ms": "ms", "cli_find_wall_s": "s", "cli_validate_s": "s",
    "cli_regularize_s": "s", "peak_rss_mb": "MB",
}


def process_age():
    """Seconds since this process started (10 ms resolution), or since this
    module was loaded where the kernel does not say."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return time.perf_counter() - LOADED
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


class Bench:
    def __init__(self, workload, seed, trace):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.work = OUT / f"work-{workload}-{os.getpid()}"
        self.samples = {k: [] for k in END_TO_END if k not in
                        ("setup_s", "peak_rss_mb")}
        self.raw = {k: [] for k in self.samples}
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.problems = []
        self.first_bytes = {}
        self.tracer = None
        self.traced_factors = []
        self.child_summaries = []
        self.import_s = {"cli": [], "networkx": []}
        self.traced_in_bytes = 0
        self.round_time = 0.0
        self.example = {}
        self.spans = []

    # -- set-up -------------------------------------------------------------

    def setup(self):
        from flatwall import config, errors, flatness, graph, pipeline
        from flatwall import serialize
        made = {}
        drawn = {}

        def fixture(fs, height, profile, strip):
            key = (fs, height, profile)
            if key not in made:
                for attempt in range(6):      # some draws have no defect site
                    try:
                        G, F = flatness.generate_fixture(fs + 9973 * attempt,
                                                         height, profile)
                        break
                    except errors.InternalError:
                        continue
                else:
                    raise RuntimeError(f"no fixture near {key}")
                if strip and "apex0" in G:
                    G = G.remove_vertices(["apex0"])
                    F = flatness.FlatnessPair(F.wall, F.X - {"apex0"}, F.Y,
                                              F.pegs_corners, F.rendition)
                made[key] = (G, F)
            return made[key]

        def draw(height, profile="base"):
            """The k-th drawn fixture of this (height, profile)."""
            k = drawn.get((height, profile), 0)
            drawn[(height, profile)] = k + 1
            return fixture(1000 * self.seed + k, height, profile, True)

        def pair_bytes(GF):
            return serialize.canonical_bytes(serialize.pair_to_json(*GF))

        def bundle_file(name, kind, payload):
            data = serialize.canonical_bytes(serialize.bundle_to_json(
                serialize.CertificateBundle(kind, payload)))
            path = self.work / name
            path.write_bytes(data)
            return path, data

        self.work.mkdir(parents=True, exist_ok=True)
        spec = self.spec
        self.drivers = [(f"driver-{i}-H{h}", h, r, pair_bytes(draw(h)))
                        for i, (h, r) in enumerate(spec["driver"])]
        h, r = APEX[1], APEX[2]
        self.drivers += [(f"apex-{i}-H{h}", h, r,
                          pair_bytes(fixture(APEX[0], h, "base", False)))
                         for i in range(spec["apex"])]
        self.searches = [(f"search-H{h}-{p}-{fs}", r,
                          pair_bytes(fixture(fs, h, p, False)))
                         for h, p, fs, r in spec["search"]]
        def pick(height, profile, fs):
            return (draw(height, profile) if fs is None
                    else fixture(fs, height, profile, False))

        inputs, self.transform_repeats = spec["transform"]
        self.transforms = [(f"transform-{i}-{p}", pair_bytes(pick(7, p, fs)))
                           for i, (p, fs) in enumerate(inputs)]
        self.cli_jobs = []
        files = {}
        for i, (command, h, p, fs) in enumerate(spec["cli"]):
            key = (command, h, p, fs if fs is not None else f"drawn-{i}")
            if key not in files:
                GF = pick(h, p, fs)
                files[key] = bundle_file(
                    f"{command}-{i}-H{h}-{p}.json",
                    *(("graph", serialize.graph_to_json(GF[0]))
                      if command == "find-wall" else
                      ("flatness-pair", serialize.pair_to_json(*GF))))
            self.cli_jobs.append((command, f"{command}-{i}-H{h}-{p}",
                                  *files[key]))
        # a bundle with one wall edge dropped from G, for `validate` to reject
        d = serialize.pair_to_json(*draw(7))
        drop = min(checks.wall_edges(d["wall"]), key=sorted)
        d["graph"]["edges"] = [e for e in d["graph"]["edges"]
                               if frozenset(map(checks.dec, e)) != drop]
        self.tampered, _ = bundle_file("tampered.json", "flatness-pair", d)
        self.example["untidy"] = json.loads(pair_bytes(
            fixture(0, 5, "with-untidy", False)))
        # pay the treewidth decider's lazy set-up (an import) here, not in
        # whichever driver call happens to come first
        pipeline.DefaultTreewidthDecider(config.unit_params()).decide(
            graph.Graph(range(3), [(0, 1), (1, 2)]), 1)

    # -- bookkeeping --------------------------------------------------------

    def record(self, metric, raw, cal):
        self.samples[metric].append(cal)
        self.raw[metric].append(raw)
        self.round_time += cal / 1000 if metric.endswith("_ms") else cal

    def fail(self, name, exc):
        self.failed += 1
        key = f"{name}: {type(exc).__name__}: {exc}"
        self.failures[key] = self.failures.get(key, 0) + 1

    def check(self, name, problems):
        self.problems.extend(f"{name}: {p}" for p in problems)

    def same(self, key, data):
        if key in self.first_bytes:
            self.check(key, checks.same_bytes(self.first_bytes[key], data))
        else:
            self.first_bytes[key] = data
        self.check(key, checks.canonical_bytes(data))

    def begin_op(self, data=b""):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op()
            self.traced_in_bytes += len(data)

    def note_factor(self, cal):
        if self.tracer is not None:
            self.traced_factors.append(cal.factor)

    # -- stages -------------------------------------------------------------

    def run_driver(self, name, height, r, data):
        from flatwall import config, errors, pipeline, serialize
        self.begin_op(data)
        d = json.loads(data)
        G, F = serialize.pair_from_json(d)
        rows = tuple(range(1, height + 1))
        ans = pipeline.OracleAnswer("flat", pair=F, subwall_rows=rows,
                                    subwall_cols=rows)
        UP = config.unit_params()
        failed = None
        with Calibrated() as cal:
            try:
                out = cal.timed(pipeline.flat_wall_driver, G, r, T,
                                pipeline.ScriptedOracle([ans]), UP,
                                pipeline.ScriptedTreewidthDecider(
                                    ["high", "default"], UP))
            except errors.FlatwallError as e:
                failed = e
        self.note_factor(cal)
        if failed is not None:
            return self.fail(name, failed)
        self.record(f"certify_r{r}_s", cal.raw[0], cal.calibrated[0])
        for _ in range(RECHECKS):
            with Calibrated() as cal:
                ob, bad = cal.timed(self._recheck, out, G, r, UP)
            self.note_factor(cal)
            self.record("recheck_s", cal.raw[0], cal.calibrated[0])
            self.check(name, [f"recheck: {x}" for x in bad])
            self.same(name, ob)
        o = json.loads(ob)
        self.example.setdefault("outcome", o)
        if o["outcome"] != "flat-wall":
            return self.check(name, [f"outcome {o['outcome']}"])
        apex = {checks.dec(v) for v in o["apex"]}
        vs, es = checks.graph_of(d["graph"])
        GA = (vs - apex, {e for e in es if not e & apex})
        pair = o["pair"]
        z = checks.z_bound(r, T, 1, 1, 1)
        self.check(name, checks.pair_against(pair, GA)
                   + checks.no_untidy(pair)
                   + checks.decomposition(o["compass_decomposition"],
                                          checks.compass_of(pair), 5 * z + 4))
        if checks.graph_of(pair["graph"]) != GA:
            self.check(name, ["the outcome's graph is not G minus the apex"])
        if pair["wall"]["height"] != r:
            self.check(name, ["the outcome's wall has the wrong height"])

    @staticmethod
    def _recheck(out, G, r, UP):
        from flatwall import pipeline, serialize
        ob = serialize.canonical_bytes(serialize.outcome_to_json(out))
        back = serialize.outcome_from_json(json.loads(ob))
        return ob, pipeline.validate_driver_outcome(G, r, T, back, UP)

    def run_search(self, name, r, data):
        from flatwall import errors, homogeneity, serialize
        self.begin_op(data)
        d = json.loads(data)
        G, F = serialize.pair_from_json(d)
        zeta = homogeneity.example_coloring(F, 2)
        with Calibrated() as cal:
            try:
                res = cal.timed(homogeneity.find_homogeneous, G, F, zeta, r,
                                allow_short=True)
            except errors.FlatwallError as e:
                res = e
        self.note_factor(cal)
        if res is None:
            res = RuntimeError("no homogeneous subwall")
        if isinstance(res, Exception):
            return self.fail(name, res)
        self.record("homogeneous_s", cal.raw[0], cal.calibrated[0])
        ob = serialize.canonical_bytes(serialize.pair_to_json(G, res.pair))
        self.same(name, ob)
        o = json.loads(ob)
        self.example.setdefault("search", (d, o, F.wall))
        self.check(name, self.tilt_problems(d, o, F.wall))

    @staticmethod
    def tilt_problems(d, o, in_wall):
        from flatwall import errors, serialize, wall
        out = (checks.pair_against(o, checks.graph_of(d["graph"]))
               + checks.compass_within(o, d))
        sel = checks.tilt_selection(d["wall"], o["wall"])
        if sel is None or len(sel[0]) != len(sel[1]):
            return out + ["the tilt's interior matches no subwall"]
        try:
            S = wall.subwall(in_wall, *sel)
        except errors.FlatwallError as e:
            return out + [f"the tilt's interior matches no subwall ({e})"]
        return out + checks.same_interior(o["wall"],
                                          serialize.wall_to_json(S))

    def run_transforms(self):
        for _ in range(self.transform_repeats):
            for name, data in self.transforms:
                self.run_transform(name, data)

    def run_transform(self, name, data):
        from flatwall import errors, leveling, serialize, tilt
        self.begin_op(data)
        d = json.loads(data)
        G, F = serialize.pair_from_json(d)
        with Calibrated() as cal:
            try:
                out = cal.timed(tilt.regularize, G, F)
                rep = cal.timed(leveling.representation, out)
            except errors.FlatwallError as e:
                rep = e
        self.note_factor(cal)
        if isinstance(rep, Exception):
            return self.fail(name, rep)
        raw, c = cal.raw, cal.calibrated
        self.record("regularize_ms", 1000 * raw[0], 1000 * c[0])
        self.record("leveling_ms", 1000 * raw[1], 1000 * c[1])
        ob = serialize.canonical_bytes(serialize.pair_to_json(G, out))
        rb = serialize.canonical_bytes(serialize.representation_to_json(rep))
        self.same(f"{name}/pair", ob)
        self.same(f"{name}/representation", rb)
        self.check(name, self.regularize_problems(d, json.loads(ob)))

    @staticmethod
    def regularize_problems(d, o):
        out = (checks.pair_against(o, checks.graph_of(d["graph"]))
               + checks.compass_within(o, d) + checks.no_untidy(o))
        if o["wall"]["height"] != d["wall"]["height"]:
            out.append("regularize changed the wall height")
        return out

    def flatwall(self, args, name):
        """Run one flatwall process; returns (process, calibrated run)."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if self.tracer is None:
            cmd = [sys.executable, "-m", "flatwall.cli", *args]
        else:
            summary = self.work / f"{name}.spans.json"
            cmd = [sys.executable, "-X", "importtime",
                   str(HERE / "cli_child.py"), str(summary), *args]
        with Calibrated() as cal:
            proc = cal.timed(subprocess.run, cmd, capture_output=True,
                             env=env, cwd=self.work, timeout=CHILD_TIMEOUT_S)
        self.note_factor(cal)
        if self.tracer is not None:
            self.read_child_trace(summary, proc.stderr, cal.factor)
        return proc, cal

    def read_child_trace(self, summary, stderr, factor):
        import tracing
        with open(summary, encoding="utf-8") as fh:
            self.child_summaries.append(tracing.scaled(json.load(fh), factor))
        summary.unlink()
        for line in stderr.decode("utf-8", "replace").splitlines():
            if not line.startswith("import time:"):
                continue
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if parts[2] == "flatwall.cli":
                self.import_s["cli"].append(int(parts[1]) * 1e-6 * factor)
            elif parts[2] == "networkx":
                self.import_s["networkx"].append(int(parts[1]) * 1e-6 * factor)

    def run_cli(self, command, name, path, data):
        self.begin_op(data)
        out_path = self.work / f"{name}.out.json"
        metric = f"cli_{command.replace('-', '_')}_s"
        if command == "find-wall":
            args = ["find-wall", "--graph", str(path), "-r", "3", "-t", str(T),
                    "--verify", "--output", str(out_path)]
        elif command == "validate":
            args = ["validate", str(path)]
        else:
            args = ["regularize", "--pair", str(path), "--verify",
                    "--output", str(out_path)]
        proc, cal = self.flatwall(args, name)
        if proc.returncode != 0:
            return self.fail(name, RuntimeError(
                f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"))
        self.record(metric, cal.raw[0], cal.calibrated[0])
        if metric == "cli_validate_s":
            if json.loads(proc.stdout) != {"ok": True}:
                self.check(name, ["validate did not print {\"ok\": true}"])
            return
        ob = out_path.read_bytes()
        out_path.unlink()
        self.same(f"{command} {path.name}", ob)
        o = json.loads(ob)
        d = json.loads(data)["payload"]
        if metric == "cli_regularize_s":
            return self.check(name, self.regularize_problems(d, o["payload"]))
        if o["payload"]["outcome"] != "tree-decomposition":
            return self.check(name, [f"outcome {o['payload']['outcome']}"])
        # default parameters: f1 = f2 = t^2, f4 = t
        z = checks.z_bound(3, T, T * T, T * T, T)
        self.check(name, checks.decomposition(
            o["payload"]["decomposition"], checks.graph_of(d), 5 * z + 4))

    def round(self):
        self.round_time = 0.0
        for job in self.drivers:
            self.run_driver(*job)
        for job in self.searches:
            self.run_search(*job)
        self.run_transforms()
        for job in self.cli_jobs:
            self.run_cli(*job)
        return self.round_time

    # -- checks made once per run -------------------------------------------

    def final_checks(self):
        """`validate` rejects a tampered bundle, and every checker rejects a
        certificate broken on purpose."""
        proc, _ = self.flatwall(["validate", str(self.tampered)], "tampered")
        if proc.returncode != 1 or b"violations" not in proc.stdout:
            self.check("tampered", [f"validate exited {proc.returncode} on a "
                                    "bundle with a wall edge dropped from G"])
        o = self.example.get("outcome")
        if o is None:
            return self.check("selftest", ["no driver outcome to test on"])
        pair = o["pair"]
        G = checks.graph_of(pair["graph"])
        K = checks.compass_of(pair)
        td = o["compass_decomposition"]
        bags = [{checks.dec(v) for v in b} for _k, b in td["bags"]]
        only = next((i for i, b in enumerate(bags)
                     if b - set().union(*bags[:i], *bags[i + 1:])), 0)
        cut = td["bags"][only][0]
        no_bag = {"bags": td["bags"][:only] + td["bags"][only + 1:],
                  "tree_edges": [e for e in td["tree_edges"] if cut not in e]}
        wall_edge = min(checks.wall_edges(pair["wall"]), key=sorted)
        x_only = dict(pair, X=pair["X"] + ["zz-outside"])
        y_only = [v for v in pair["Y"] if v not in pair["X"]][0]
        grown = json.loads(json.dumps(pair))
        grown["rendition"]["sigma"][0][1]["vertices"].append("zz-added")
        d, s, in_wall = self.example["search"]
        gap = json.loads(json.dumps(s["wall"]))
        h = gap["height"]
        gap["segs"] = [seg for seg in gap["segs"] if checks.on_perimeter(
            checks.dec(seg[0]), checks.dec(seg[1]), h)] + [
            seg for seg in gap["segs"] if not checks.on_perimeter(
                checks.dec(seg[0]), checks.dec(seg[1]), h)][1:]
        broken = {
            "edge dropped from G": checks.wall_in_graph(
                pair, (G[0], G[1] - {wall_edge})),
            "edge across (X, Y)": checks.separation(
                x_only, (G[0] | {"zz-outside"},
                         G[1] | {frozenset(("zz-outside", y_only))})),
            "bag removed": checks.decomposition(no_bag, K, 10 ** 9),
            "compass vertex added": checks.compass_within(grown, pair),
            "untidy cell kept": checks.no_untidy(self.example["untidy"]),
            "non-canonical bytes": checks.canonical_bytes(
                json.dumps(pair, indent=1).encode()),
            "bytes changed": checks.same_bytes(b"{}\n", b"[]\n"),
            "tilt missing an interior segment": self.tilt_problems(
                d, dict(s, wall=gap), in_wall),
        }
        self.check("selftest", [f"a check missed: {k}"
                                for k, v in broken.items() if not v])

    # -- driving the rounds ---------------------------------------------------

    def run(self, seconds):
        import tracing
        rounds = []
        start = time.perf_counter()
        while True:
            traced = bool(self.trace) and len(rounds) % 2 == 1
            if traced:
                self.tracer = tracing.Tracer()
                self.tracer.install()
            try:
                total = self.round()
            finally:
                if traced:
                    self.tracer.uninstall()
                    self.spans.extend(self.tracer.spans)
                    self.child_summaries.append(tracing.scaled(
                        self.tracer.summary(),
                        statistics.median(self.traced_factors)))
                    self.traced_factors = []
                    self.tracer = None
            rounds.append((traced, total))
            if (time.perf_counter() - start >= seconds
                    and (not self.trace or len(rounds) >= 2)):
                break
        self.final_checks()
        return rounds


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "flatwall" / "__init__.py").is_file():
        print(f"perfbench: no flatwall sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for the benchmark and its children, so that the reference runs
    # measure the CPU the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    before = calib.ref_samples()
    bench = Bench(args.workload, args.seed, args.trace)
    try:
        bench.setup()
        setup_raw = process_age() - sum(before)
        after = calib.ref_samples()
        setup_cal = (setup_raw * calib.NOMINAL_S
                     / statistics.median(before + after))
        rounds = bench.run(args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    e2e = {k: median(v) for k, v in bench.samples.items()}
    e2e["setup_s"] = setup_cal
    e2e["peak_rss_mb"] = rss_kb / 1024
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "setup_raw_s": setup_raw,
        "metrics": {k: {"n": len(bench.samples[k]),
                        "median": median(bench.samples[k]),
                        "median_raw": median(bench.raw[k]),
                        "samples": [round(x, 6) for x in bench.samples[k]]}
                    for k in bench.samples},
        "failures": bench.failures, "problems": bench.problems[:20],
    }
    if args.trace:
        import tracing
        untraced = [t for tr, t in rounds if not tr]
        traced = [t for tr, t in rounds if tr]
        overhead = 100 * (median(traced) / median(untraced) - 1)
        metrics = tracing.layer_metrics(
            tracing.merge(bench.child_summaries), len(traced),
            bench.traced_in_bytes, {k: median(v) for k, v in
                                    bench.import_s.items()}, overhead)
        detail["round_s"] = {"untraced": untraced, "traced": traced}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END.items()}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(dict(detail, result=metrics),
                                                 indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{name}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in bench.spans:          # name, binding, raw s, self s
                fh.write(json.dumps(span) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not bench.problems,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
