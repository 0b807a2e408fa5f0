"""combipyramid benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload noise-regions --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory and nowhere else. One caller drives the library in one
process: each operation starts when the previous one has returned. The
steps are

    build   PPM on disk -> load_image -> SegmentedImage.run -> Pyramid.to_json
    reload  Pyramid.from_json of that text
    labels  pixel_labels at the top level
    report  relation_report at the top level
    queries contains and meets_each on the query set of the seed

With --trace 0 rounds of all steps repeat for --seconds, each step on its
own for a fixed share of the round, and the last line of stdout carries the
end-to-end metrics: medians over the run, in seconds of a host on which a
fixed reference loop takes its nominal time (see Meter). With
--trace 1 untraced and traced cycles of all steps alternate for --seconds,
the last line carries the per-layer metrics, and every span of the first
traced cycle is written to perfbench/out/. Every answer is checked against
pixel-level oracles outside the timed calls.
"""

from __future__ import annotations

import os

# single-threaded: numpy must not start worker threads of its own
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import gc
import itertools
import json
import platform
import random
import resource
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 3
# Queries per cycle, split evenly over the query levels: p90 keeps 12
# queries beyond it.
CONTAINS_PER_CYCLE = 120
MEETS_PER_CYCLE = 120


class ProgramMissing(RuntimeError):
    pass


def import_program() -> SimpleNamespace:
    """Import the library's modules from this checkout's src/ and fail
    otherwise."""
    if not (SRC / "combipyramid" / "__init__.py").is_file():
        raise ProgramMissing(f"no combipyramid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import combipyramid
    from combipyramid import containment, netpbm, pyramid, relations, segmentation

    if not Path(combipyramid.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"combipyramid was imported from {combipyramid.__file__}, not {SRC}")
    return SimpleNamespace(
        containment=containment, netpbm=netpbm, pyramid=pyramid, relations=relations, segmentation=segmentation
    )


# -- set-up: raster, PPM, reference pyramid, oracle answers, query sets ------------


@dataclass
class Plan:
    ppm: str
    threshold: float
    text: str  # reference pyramid JSON; every build must reproduce it
    top_labels: list  # pixel_labels(top) of the reference pyramid
    report_regions: frozenset
    report_outside: int
    report_meets: dict  # unordered pair -> boundary pieces
    report_contains: frozenset  # (a, b) pairs with b inside a
    report_composed: dict  # parent -> frozenset of level top-1 children
    contains: list  # (level, a, b, expected)
    meets: list  # (level, a, b, expected cracks, expected pieces)
    counts: dict  # exact structural counts of the workload

    def fingerprint(self) -> str:
        return json.dumps(
            [self.text, self.top_labels, self.counts,
             [list(q) for q in self.contains], [[lv, a, b, sorted(c), n] for lv, a, b, c, n in self.meets]],
            sort_keys=True,
        )


def write_ppm(path: str, rgb) -> None:
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def pick_pairs(rng: random.Random, n: int, enclosed: dict, adjacent, regions) -> list:
    """About half enclosure-true pairs, a quarter adjacent, a quarter random.

    True pairs take their enclosing regions in turn from a shuffled list of
    the regions that enclose something, so each such region is queried
    equally often and one region enclosing many does not make up most of
    the queries."""
    containers = sorted(a for a, inner in enclosed.items() if inner)
    rng.shuffle(containers)
    out = []
    for k in range(n):
        if k % 4 < 2 and containers:
            a = containers[(k // 4 * 2 + k % 4) % len(containers)]
            b = rng.choice(sorted(enclosed[a]))
        elif k % 4 < 3:
            a, b = rng.choice(adjacent)
            if rng.random() < 0.5:
                a, b = b, a
        else:
            a, b = rng.sample(regions, 2)
        out.append((a, b))
    return out


def prepare(workload, seed: int, ppm: str, program) -> Plan:
    import numpy as np
    from oracles import BoundaryOracle, enclosed_regions, same_partition

    relations, segmentation = program.relations, program.segmentation
    raster = workload.raster(np.random.default_rng(seed))
    write_ppm(ppm, raster)

    seg = segmentation.SegmentedImage(raster).run(workload.threshold)
    pyr = seg.pyramid
    top = pyr.top_level
    clean = [i for i in range(top + 1) if not pyr.redundant_darts(i)]
    if top not in clean:
        raise RuntimeError(f"top level {top} of {workload.name} is not clean")
    levels = clean if workload.all_clean_levels else [top]

    rng = random.Random(f"{workload.name}:{seed}")
    contains_q, meets_q = [], []
    per_level = {}
    for i in levels:
        labels = np.array(pyr.pixel_labels(i), dtype=np.int64)
        outside = relations.infinite_region(pyr, i)
        inner = sorted(int(v) for v in np.unique(labels))
        enclosed = {a: enclosed_regions(labels, a) for a in inner}
        true_pairs = sorted((a, b) for a in inner for b in enclosed[a])
        boundary = BoundaryOracle(labels, outside)
        adjacent = sorted(boundary.adjacent_pairs())
        regions = sorted(inner + [outside])
        per_level[i] = (labels, outside, regions, true_pairs, boundary)
        for a, b in pick_pairs(rng, CONTAINS_PER_CYCLE // len(levels), enclosed, adjacent, regions):
            contains_q.append((i, a, b, b in enclosed.get(a, ())))
        for a, b in pick_pairs(rng, MEETS_PER_CYCLE // len(levels), enclosed, adjacent, regions):
            cracks, pieces = boundary.shared(a, b)
            meets_q.append((i, a, b, cracks, pieces))

    labels, outside, regions, true_pairs, boundary = per_level[top]
    if not same_partition(labels, np.asarray(seg.labels())):
        raise RuntimeError("pixel_labels and SegmentedImage.labels disagree on the partition")
    prev = np.array(pyr.pixel_labels(top - 1), dtype=np.int64)
    composed = {r: set() for r in regions}
    composed[outside].add(relations.infinite_region(pyr, top - 1))
    for u, v in set(zip(prev.ravel().tolist(), labels.ravel().tolist())):
        composed[v].add(u)

    kernel_darts = {"CK": 0, "RKESL": 0, "RKEDE": 0}
    for k in pyr.kernels:
        kernel_darts[k.state.value] += len(k.darts)
    counts = {
        "pyramid.base_darts": len(pyr.base),
        "pyramid.levels": top,
        "pyramid.top_regions": seg.region_count(),
        **{f"pyramid.kernel_darts.{s}": n for s, n in kernel_darts.items()},
        "segmentation.rounds": sum(k.state is k.state.CK for k in pyr.kernels),
        "contains.true_share": sum(q[3] for q in contains_q) / len(contains_q),
        "containment.cycle_darts_per_query": statistics.fmean(
            len(pyr.reconstruct_level(i).orbit(a, "sigma")) for i, a, _, _ in contains_q
        ),
        "boundary.segment_cracks": statistics.fmean(len(q[3]) for q in meets_q),
        "query_levels": levels,
    }
    return Plan(
        ppm=ppm,
        threshold=workload.threshold,
        text=pyr.to_json(),
        top_labels=labels.tolist(),
        report_regions=frozenset(regions),
        report_outside=outside,
        report_meets={frozenset(p): boundary.shared(*p)[1] for p in boundary.adjacent_pairs()},
        report_contains=frozenset(true_pairs),
        report_composed={r: frozenset(c) for r, c in composed.items()},
        contains=contains_q,
        meets=meets_q,
        counts=counts,
    )


# -- one cycle of the closed loop ---------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def chain_cracks(segs) -> tuple[frozenset, int]:
    """Undirected cracks covered by meets_each pieces, and the number of
    cracks counted with repetition."""
    cracks, total = set(), 0
    for s in segs:
        pts = s.cracks.points()
        for p, q in zip(pts, pts[1:]):
            cracks.add((min(p, q), max(p, q)))
            total += 1
    return frozenset(cracks), total


class Steps:
    """The timed operations of a run, each followed by its checks.

    span(key, fn, *args) runs one call and returns (seconds, result); key is
    the step's name, or (operation, index) for a query. The seconds go to
    times[key], a list per step and per query."""

    def __init__(self, plan: Plan, program, tally: Tally, span, times: dict):
        self.plan, self.program, self.tally, self.span, self.times = plan, program, tally, span, times

    def _attempt(self, key, fn, *args):
        name = key[0] if isinstance(key, tuple) else key
        try:
            took, out = self.span(key, fn, *args)
        except Exception as exc:  # a crash is a failed operation
            self.tally.check(False, f"{name} raised {type(exc).__name__}: {exc}")
            return None
        self.times.setdefault(key, []).append(took)
        return out

    def _build(self, path: str) -> str:
        program = self.program
        seg = program.segmentation.SegmentedImage(program.netpbm.load_image(path)).run(self.plan.threshold)
        return seg.pyramid.to_json()

    def build(self):
        text = self._attempt("build", self._build, self.plan.ppm)
        if text is not None:
            self.tally.check(text == self.plan.text, "build differs from the set-up build")
        return text

    def reload(self, text: str, round_trip: bool):
        pyr = self._attempt("reload", self.program.pyramid.Pyramid.from_json, text)
        if pyr is not None and round_trip:
            self.tally.check(pyr.to_json() == text, "from_json(to_json(p)).to_json() differs")
        return pyr

    def labels(self, pyr) -> None:
        labels = self._attempt("labels", pyr.pixel_labels, pyr.top_level)
        if labels is not None:
            self.tally.check(labels == self.plan.top_labels, "pixel_labels differ from the oracle partition")

    def report(self, pyr) -> None:
        plan = self.plan
        report = self._attempt("report", self.program.relations.relation_report, pyr, pyr.top_level)
        if report is not None:
            meets = {frozenset((e["a"], e["b"])): e["segments"] for e in report["meets"]}
            self.tally.check(
                frozenset(report["regions"]) == plan.report_regions
                and report["infinite_region"] == plan.report_outside
                and meets == plan.report_meets
                and frozenset(map(tuple, report["contains"])) == plan.report_contains
                and {e["parent"]: frozenset(e["children"]) for e in report["composed_of"]} == plan.report_composed
                and not report["warnings"],
                "relation_report differs from the pixel oracles",
            )

    def queries(self, pyr) -> None:
        """Every contains query, then every meets_each query, once."""
        program, tally = self.program, self.tally
        for k, (level, a, b, want) in enumerate(self.plan.contains):
            got = self._attempt(("contains", k), program.containment.contains, pyr, level, a, b)
            if got is not None:
                tally.check(got is want, f"contains({level}, {a}, {b}) = {got}, oracle {want}")
        for k, (level, a, b, cracks, pieces) in enumerate(self.plan.meets):
            segs = self._attempt(("meets_each", k), program.relations.meets_each, pyr, level, a, b)
            if segs is not None:
                covered, total = chain_cracks(segs)
                tally.check(
                    len(segs) == pieces and covered == cracks and total == len(cracks),
                    f"meets_each({level}, {a}, {b}): {len(segs)} pieces, oracle {pieces}",
                )

    def cycle(self, round_trip: bool) -> bool:
        """build, reload, labels, report and every query once. False when
        the pyramid could not be built or reloaded."""
        text = self.build()
        pyr = None if text is None else self.reload(text, round_trip)
        if pyr is None:
            return False
        self.labels(pyr)
        self.report(pyr)
        self.queries(pyr)
        return True


# An untraced run is a series of rounds of ROUND_SECONDS. In each round
# every step repeats on its own for its share of the round, and at least
# once, so the repetitions of each step spread over the whole run.
ROUND_SECONDS = 2.5
SHARES = [("build", 0.3), ("reload", 0.25), ("labels", 0.05), ("report", 0.2), ("queries", 0.2)]


def run_rounds(steps: Steps, seconds: float) -> None:
    """Repeat rounds of all steps until `seconds` have passed; the first
    round always completes."""
    deadline = time.perf_counter() + seconds
    text = pyr = None
    first = True
    rounds = 0
    while True:
        for name, share in SHARES:
            if rounds and time.perf_counter() >= deadline:
                return
            stop = time.perf_counter() + share * ROUND_SECONDS
            while True:
                gc.collect()
                # drop the previous result first, so that two never coexist
                if name == "build":
                    text = None
                    text = steps.build()
                    if text is None:
                        return
                elif name == "reload":
                    pyr = None
                    pyr = steps.reload(text, first)
                    if pyr is None:
                        return
                    first = False
                else:
                    getattr(steps, name)(pyr)
                if time.perf_counter() >= stop:
                    break
        rounds += 1


def timed(key, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


# The host's speed drifts: on the 2-core host the benchmark was written on,
# the same Python loop runs up to 2.4x slower for stretches of milliseconds
# to minutes while other tenants load the shared cores and memory, and CPU
# time drifts with it. So an untraced run spends REFERENCE_SHARE of its timed time again
# on a reference loop of fixed work, in slices between the timed calls, and
# scales each call by REFERENCE_NOMINAL_S over the mean of the slices around
# it (see Meter.scaled): a reported second is a second on a host where the
# loop takes its nominal time. The loop shares no code with the program, so
# a change to the program moves only the calls it times.
REFERENCE_SHARE = 0.2
REFERENCE_NOMINAL_S = 0.0019
REFERENCE_WINDOW_S = 0.01


# 20000 items in a fixed shuffled order: walking them misses the caches the
# way the program's per-dart tables do, so slices also slow down when other
# tenants load the memory system rather than the cores
_SMALL_ORDER = list(range(400))
_LARGE_ORDER = list(range(20000))
random.Random(0).shuffle(_LARGE_ORDER)


def _union_find(order: list, steps: int) -> int:
    n = len(order)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen: dict = {}
    for k in range(steps):
        ra, rb = find(order[k * 7919 % n]), find(order[(k * 104729 + 13) % n])
        if ra != rb:
            parent[ra] = rb
        seen[ra, rb] = seen.get((ra, rb), 0) + 1
    return len(seen)


def reference_work() -> int:
    """Fixed interpreter work of the kind the program does: union-find with
    tuple keys and dict updates, over 400 items that stay in cache and over
    20000 that do not."""
    return _union_find(_SMALL_ORDER, 2000) + _union_find(_LARGE_ORDER, 1000)


class Meter:
    """Times calls like `timed`; after each, runs reference slices until
    they have taken REFERENCE_SHARE of all call time so far."""

    def __init__(self) -> None:
        # (key, start, seconds) of every call in order, key None for a slice
        self.log: list[tuple] = []
        self._owed = 0.0

    def __call__(self, key, fn, *args):
        took, out = self._logged(key, fn, *args)
        self._owed += REFERENCE_SHARE * took
        while self._owed > 0:
            self._owed -= self._logged(None, reference_work)[0]
        return took, out

    def _logged(self, key, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        took = time.perf_counter() - start
        self.log.append((key, start, took))
        return took, out

    def slices(self) -> list[float]:
        return [took for key, _, took in self.log if key is None]

    def scaled(self) -> dict:
        """Reference seconds of every call by key. A call's reference is the
        mean time of the slices that start within its own duration, or
        REFERENCE_WINDOW_S if that is longer, before or after it; failing
        that, of the nearest slice on each side."""
        starts = [start for key, start, _ in self.log if key is None]
        sums = list(itertools.accumulate(self.slices(), initial=0.0))
        out: dict = {}
        for key, start, took in self.log:
            if key is None:
                continue
            reach = max(took, REFERENCE_WINDOW_S)
            lo = bisect.bisect_left(starts, start - reach)
            hi = bisect.bisect_right(starts, start + took + reach)
            if hi == lo:
                lo = max(lo - 1, 0)
                hi = min(lo + 2, len(starts))
            out.setdefault(key, []).append(took * REFERENCE_NOMINAL_S * (hi - lo) / (sums[hi] - sums[lo]))
        return out


# -- metrics -------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(times: dict) -> dict:
    """Medians over the run's repetitions of times in reference seconds:
    each step over its repetitions, each query over its repetitions and then
    the median and p90 over the query set. setup_s is the import plus the
    median set-up."""
    ms = {
        op: [statistics.median(v) * 1e3 for key, v in times.items() if isinstance(key, tuple) and key[0] == op]
        for op in ("contains", "meets_each")
    }
    step = {name: statistics.median(times[name]) for name in ("setup", "build", "reload", "labels", "report")}
    return {
        "setup_s": metric(times["import"][0] + step["setup"], "s"),
        "build_s": metric(step["build"], "s"),
        "reload_s": metric(step["reload"], "s"),
        "labels_s": metric(step["labels"], "s"),
        "report_s": metric(step["report"], "s"),
        "contains_p50_ms": metric(statistics.median(ms["contains"]), "ms"),
        "contains_p90_ms": metric(percentile(ms["contains"], 90), "ms"),
        "meets_each_p50_ms": metric(statistics.median(ms["meets_each"]), "ms"),
        "meets_each_p90_ms": metric(percentile(ms["meets_each"], 90), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# per-layer span figures reported by the traced run: span name and field
SPAN_METRICS = [
    ("segmentation.merge_level", "self_s"),
    ("netpbm.load_image", "s"),
    ("pyramid.compute_rkesl", "s"),
    ("pyramid.compute_rkede", "s"),
    ("pyramid.apply_kernel", "self_s"),
    ("pyramid.reconstruct_level", "s"),
    ("pyramid.reconstruct_level", "calls"),
    ("pyramid.redundant_darts", "s"),
    ("pyramid.redundant_darts", "calls"),
    ("pyramid.composed_of", "s"),
    ("pyramid.to_json", "s"),
    ("pyramid.from_json", "s"),
    ("pyramid.pixel_labels", "s"),
    ("relations.rag_export", "s"),
    ("relations.relation_report", "self_s"),
    ("relations.meets_each", "s"),
    ("containment.inside_all", "s"),
    ("containment.starting_darts", "s"),
    ("containment.starting_darts", "calls"),
    ("map_core.cycles", "s"),
    ("map_core.cycles", "calls"),
    ("map_core.build_grid_map", "s"),
    ("boundary.segment", "s"),
    ("boundary.segment", "calls"),
]

COUNT_UNITS = {
    "containment.cycle_darts_per_query": "darts",
    "boundary.segment_cracks": "cracks",
    "contains.true_share": "ratio",
}


def per_layer(summaries: list, plan: Plan, overhead: float, traced_peak_mb: float) -> dict:
    """Span figures per cycle: times are medians over the traced cycles,
    calls those of the first."""
    out = {}
    for name, field in SPAN_METRICS:
        values = [s.get(name, {}).get(field, 0) for s in summaries]
        if field == "calls":
            out[f"{name}.calls"] = metric(values[0], "count")
        else:
            out[f"{name}.{field}"] = metric(statistics.median(values), "s")
    for name, value in plan.counts.items():
        if name != "query_levels":
            out[name] = metric(value, COUNT_UNITS.get(name, "count"))
    out["build.traced_peak_mb"] = metric(traced_peak_mb, "MB")
    out["trace.overhead_ratio"] = metric(overhead, "ratio")
    return out


# -- the run ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meter = Meter()
    try:
        _, program = meter("import", import_program)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy

    from tracer import MissingEntryPoint, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    ppm = str(OUT / f"{workload.name}-{args.seed}-{os.getpid()}.ppm")
    tally = Tally()
    try:
        plans = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            plans.append(meter("setup", prepare, workload, args.seed, ppm, program)[1])
        tally.check(
            len({p.fingerprint() for p in plans}) == 1,
            "set-up of one seed is not deterministic: rasters, pyramids or query sets differ",
        )
        plan = plans[0]
        del plans
        # the plan stays alive all run: keep it out of the collector's way
        # so that it does not slow the program's own collections
        gc.collect()
        gc.freeze()

        if not args.trace:
            times: dict = {}
            run_rounds(Steps(plan, program, tally, meter, times), args.seconds)
            repeats = {k: len(v) for k, v in times.items() if not isinstance(k, tuple)}
            repeats["queries"] = len(times.get(("contains", 0), []))
            metrics = end_to_end(meter.scaled())
        else:
            tracer = Tracer()
            summaries, traced_totals, plain_totals = [], [], []
            first_spans = None

            def traced(key, fn, *args):
                name = key[0] if isinstance(key, tuple) else key
                return timed(key, tracer.span, f"bench.{name}", fn, *args)

            deadline = time.perf_counter() + args.seconds
            while True:
                plain: dict = {}
                gc.collect()
                ok = Steps(plan, program, tally, timed, plain).cycle(round_trip=not summaries)
                plain_totals.append(sum(map(sum, plain.values())))
                spanned: dict = {}
                gc.collect()
                mark = tracer.mark()
                tracer.install()
                try:
                    ok = Steps(plan, program, tally, traced, spanned).cycle(round_trip=False) and ok
                finally:
                    tracer.uninstall()
                traced_totals.append(sum(map(sum, spanned.values())))
                summaries.append(tracer.summary(mark))
                if first_spans is None:
                    first_spans = (mark, tracer.mark())
                if not ok or time.perf_counter() >= deadline:
                    break
            silent = tracer.silent_entry_points()
            if silent:
                raise MissingEntryPoint(f"entry points never called: {', '.join(silent)}")
            calls = [{k: v["calls"] for k, v in s.items()} for s in summaries]
            tally.check(all(c == calls[0] for c in calls), "span call counts differ between cycles of one seed")
            gc.collect()
            tracemalloc.start()
            seg = program.segmentation.SegmentedImage(program.netpbm.load_image(plan.ppm)).run(plan.threshold)
            seg.pyramid.to_json()
            traced_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            overhead = statistics.median(traced_totals) / statistics.median(plain_totals)
            metrics = per_layer(summaries, plan, overhead, traced_peak_mb)
            repeats = {"traced_cycles": len(summaries)}
            tracer.write(str(OUT / f"trace-{workload.name}-{args.seed}.json"), *first_spans)
    except MissingEntryPoint as exc:
        print(f"error: stale trace map: {exc}", file=sys.stderr)
        return 3
    finally:
        if os.path.exists(ppm):
            os.remove(ppm)

    error_rate = tally.failed / max(tally.attempted, 1)
    print(json.dumps({
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__},
        "workload": workload.name, "seed": args.seed,
        "repeats": repeats,
        "reference_slices": {"count": len(meter.slices()), "mean_s": statistics.fmean(meter.slices())},
        "queries_per_cycle": {"contains": len(plan.contains), "meets_each": len(plan.meets)},
        "query_levels": plan.counts["query_levels"],
        "error_rate": error_rate, "problems": tally.problems,
    }, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':40s} {error_rate:.6g} ratio")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
