#!/usr/bin/env python3
"""Benchmark of ofc2d: set-up time, cold and warm query latency, space and
memory of one catalog structure on a seeded workload.

Run from the repository root::

    python3 perfbench/run.py --workload tree-mixed --seed 1 --seconds 10 --trace 0

One closed loop: a single client in one process sends the next query of the
stream when the previous one has returned.  A run generates ``INSTANCES``
catalogs from ``--seed``, one after another.  Each is loaded with
``fileio.load_catalog`` and built with the structure's public constructor
(set-up), answers its own query stream once on the fresh structure (first
pass), then replays that stream warm for ``--seconds / INSTANCES``.  Every
first-pass answer and one warm pass's answers per instance are compared with
``oracle_query`` outside the timed region; a mismatch or a raised
``Ofc2dError`` is a failure and makes the command exit 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes a separate
run with the layer wrappers of ``spans.py`` installed and prints the
per-layer breakdown.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the run's context.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

# Sizes keep the INSTANCES set-ups, first passes and oracle checks of one run
# near 15 s on two cores; ``rects`` is the catalog's total rect count n.
WORKLOADS = {
    # Random pairs on a medium-height tree: short and mid regimes, cuttings,
    # Stab3D and lazy fill at query time.
    "tree-mixed": {"kind": "tree", "vertices": 128, "height": 40,
                   "rects": 2 ** 14, "queries": 2000, "regimes": "short+mid"},
    # Only paths longer than TreeDS.t2: the long regime alone at query time.
    "tree-long": {"kind": "tree", "vertices": 512, "height": 400,
                  "rects": 2 ** 13, "queries": 2000, "regimes": "long"},
    # Connected vertex sets of 2..8 vertices, expanded into walks by GraphDS.
    "graph-subgraph": {"kind": "graph", "vertices": 128, "degree": 3,
                       "rects": 2 ** 16, "queries": 2000, "set_sizes": [2, 8]},
}
INSTANCES = 5
MIN_REPLAYS = 3


def _import_library():
    if not (SRC / "ofc2d" / "__init__.py").is_file():
        sys.exit(f"error: ofc2d sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def _rng(name, seed, purpose):
    return random.Random(f"{name}:{seed}:{purpose}")


def write_instance(name, spec, seed, k):
    """Generate the k-th catalog of a run and save it; returns its path."""
    from ofc2d import fileio
    from ofc2d.gen import random_graph_catalog, random_tree_catalog

    rng = _rng(name, seed, f"instance{k}")
    if spec["kind"] == "tree":
        cat = random_tree_catalog(spec["vertices"], spec["rects"], spec["height"], rng)
    else:
        cat = random_graph_catalog(spec["vertices"], spec["rects"], spec["degree"], rng)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{name}-s{seed}-k{k}.cat"
    fileio.save_catalog(cat, path)
    return path


def build(cat, spec, rng):
    from ofc2d.catalog.graph_ds import GraphDS
    from ofc2d.catalog.tree_ds import TreeDS

    if spec["kind"] == "tree":
        return TreeDS(cat, rng=rng)
    return GraphDS(cat, rng)


def make_stream(cat, ds, spec, rng):
    from ofc2d.catalog.model import PathQuery, SubgraphQuery
    from ofc2d.gen import random_point

    vids = sorted(cat.vertices)
    out = []
    if spec["kind"] == "graph":
        lo, hi = spec["set_sizes"]
        for _ in range(spec["queries"]):
            k = rng.randint(lo, hi)
            chosen = [rng.choice(vids)]
            while len(chosen) < k:
                w = rng.choice(cat.vertices[rng.choice(chosen)].adjacency)
                if w not in chosen:
                    chosen.append(w)
            out.append(SubgraphQuery(random_point(cat.bbox, rng), frozenset(chosen)))
        return out
    min_len = ds.t2 + 1 if spec["regimes"] == "long" else 1
    for _ in range(1000 * spec["queries"]):
        path = cat.path_between(rng.choice(vids), rng.choice(vids))
        if len(path) >= min_len:
            out.append(PathQuery(random_point(cat.bbox, rng), tuple(path)))
            if len(out) == spec["queries"]:
                return out
    raise RuntimeError(f"too few paths with at least {min_len} vertices")


def set_up(name, spec, seed, k):
    """Load and build the k-th instance: (seconds, catalog, structure, stream).

    Only loading and construction are timed."""
    from ofc2d import fileio

    path = write_instance(name, spec, seed, k)
    gc.collect()
    t0 = time.perf_counter()
    cat = fileio.load_catalog(path)
    ds = build(cat, spec, _rng(name, seed, f"build{k}"))
    seconds = time.perf_counter() - t0
    return seconds, cat, ds, make_stream(cat, ds, spec, _rng(name, seed, f"stream{k}"))


def vertices_of(q):
    return q.path if hasattr(q, "path") else sorted(q.vertex_set)


def run_pass(ds, stream, keep_answers, tracer=None):
    """One closed-loop pass: (wall ns, per-query ns, answers or None, errors).

    A raised Ofc2dError stands in for the answer of its query."""
    from ofc2d.errors import Ofc2dError

    clock = time.perf_counter_ns
    lat = [0] * len(stream)
    answers = [None] * len(stream) if keep_answers else None
    errors = 0
    t0 = clock()
    for i, q in enumerate(stream):
        if tracer is not None:
            tracer.query = i
        a = clock()
        try:
            ans = ds.query(q)
        except Ofc2dError as e:
            ans = e
            errors += 1
        lat[i] = clock() - a
        if answers is not None:
            answers[i] = ans
    return clock() - t0, lat, answers, errors


def oracle_answers(cat, stream):
    from ofc2d.oracle import oracle_query

    return [oracle_query(cat, q.q, vertices_of(q)) for q in stream]


def percentile(lat, p):
    return statistics.quantiles(lat, n=100)[p - 1]


def upper_decile(values):
    """The 90th percentile of repeated timings of the same work.

    Shared hosts run this code in bursts up to ~1.6x faster than their usual
    speed, for seconds to minutes at a time.  A median over a run then moves
    with the share of burst time in it; the upper decile tracks the usual
    speed and is about twice as steady from run to run."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def regime_shares(ds, stream):
    if not hasattr(ds, "regime"):
        return {}
    shares = {"short": 0, "mid": 0, "long": 0}
    for q in stream:
        shares[ds.regime(len(q.path))] += 1
    return {k: v / len(stream) for k, v in shares.items()}


def regime_problem(spec, shares):
    """Why the stream no longer exercises the workload's layers, or None."""
    want = spec.get("regimes")
    if want == "long" and shares["long"] != 1.0:
        return f"tree-long routed {shares} instead of 100% long"
    if want == "short+mid" and not (shares["short"] > 0 and shares["mid"] > 0):
        return f"tree-mixed routed {shares}: needs both short and mid"
    return None


def _conflicts(cuts):
    return sum(len(c) for cut in cuts for c in cut.conflicts)


def _conflict_index_entries(cuts):
    # Cutting._ci holds the conflict indexes built lazily at query time.
    return sum(ci.index.entries for cut in cuts for ci in cut._ci.values())


def mid_parts(boot):
    """Every cutting of a BootstrappedDS and its number of mid-tree
    recursion nodes, base and bootstrap layers together."""
    cuts, nodes = [], list(boot.base.forest.values())
    for layer in boot.layers:
        cuts.extend(layer.cuttings.values())
        nodes.extend(layer.mid.forest.values())
    count = 0
    while nodes:
        node = nodes.pop()
        count += 1
        cuts.extend(node.rl.cuttings.values())
        if node.top is not None:
            nodes.append(node.top)
        nodes.extend(node.bottoms.values())
    return cuts, count


def space(ds):
    """Stored entries per component, split into those built by the
    constructor and those built lazily by queries so far.

    Counted from the components because TreeDS.stored_entries is summed once
    at build time and misses everything built lazily afterwards."""
    setup = dict.fromkeys(("short", "mid", "long", "graph"), 0)
    lazy = dict.fromkeys(("short", "mid", "graph"), 0)
    if hasattr(ds, "short"):
        cuts = list(ds.short.cuttings.values())
        setup["short"] = _conflicts(cuts)
        lazy["short"] = (sum(s.stored_entries for s in ds.short._stabs.values())
                         + _conflict_index_entries(cuts))
        setup["mid"] = ds.mid.stored_entries
        lazy["mid"] = _conflict_index_entries(mid_parts(ds.mid)[0])
        setup["long"] = ds.long.stored_entries
    else:
        cuts = list(ds.cuttings.values())
        setup["graph"] = _conflicts(cuts)
        lazy["graph"] = (sum(s.stored_entries for s in ds._stabs.values())
                         + _conflict_index_entries(cuts))
    return setup, lazy


def instance_context(cat, ds, stream, setup, lazy):
    """What one instance and its stream exercised."""
    sizes = [len(vertices_of(q)) for q in stream]
    ctx = {"total_rects": cat.n, "queries": len(stream),
           "query_vertices_mean": sum(sizes) / len(sizes),
           "entries_setup": setup, "entries_lazy": lazy}
    shares = regime_shares(ds, stream)
    if shares:
        ctx.update(regime_shares=shares, t1=ds.t1, t2=ds.t2)
    else:
        ctx["walk_len_per_vertex"] = walk_len_per_vertex(ds, stream)
    return ctx


def run_context(name, spec, seed, run, instances):
    import ofc2d

    return {"workload": name, "seed": seed, "ofc2d": ofc2d.__version__,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "params": spec, "failed_share": run.failed / run.attempted,
            "instances": instances}


def walk_len_per_vertex(ds, stream):
    from ofc2d.catalog.graph_ds import subgraph_to_walk

    walk = sum(len(subgraph_to_walk(ds.g, q, ds.copy_map).path) for q in stream)
    return walk / sum(len(q.vertex_set) for q in stream)


class Run:
    """What one run checked: answers compared, failures, and why it failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, label, answers, expected):
        bad = sum(1 for a, e in zip(answers, expected) if a != e)
        self.failed += bad
        if bad:
            self.problems.append(f"{label}: {bad} of {len(answers)} answers differ "
                                 "from oracle_query")

    def errors(self, label, passes, errors):
        self.attempted += passes
        self.failed += errors
        if errors:
            self.problems.append(f"{label}: {errors} queries raised Ofc2dError")


def measure(name, spec, seed, seconds):
    """End-to-end metrics; see README.md."""
    run = Run()
    setups, firsts, per_rect, instances = [], [], [], []
    walls, p50s, pooled = [], [], array("q")
    nq = spec["queries"]
    for k in range(INSTANCES):
        cat = ds = None
        setup_s, cat, ds, stream = set_up(name, spec, seed, k)
        setups.append(setup_s)
        wall, _, first, errors = run_pass(ds, stream, True)
        firsts.append(wall / 1e9)
        run.errors(f"instance {k} first pass", len(stream), errors)
        warm, replays = None, 0
        deadline = time.perf_counter() + seconds / INSTANCES
        while replays < MIN_REPLAYS or time.perf_counter() < deadline:
            wall, lat, answers, errors = run_pass(ds, stream, warm is None)
            warm = warm or answers
            run.errors(f"instance {k} warm pass", len(stream), errors)
            replays += 1
            walls.append(wall)
            p50s.append(percentile(lat, 50) / 1e3)
            pooled.extend(lat)
        expected = oracle_answers(cat, stream)
        run.check(f"instance {k} first pass", first, expected)
        run.check(f"instance {k} warm pass", warm, expected)
        setup, lazy = space(ds)
        per_rect.append((sum(setup.values()) + sum(lazy.values())) / cat.n)
        ctx = instance_context(cat, ds, stream, setup, lazy)
        ctx.update(setup_s=setup_s, first_pass_s=firsts[-1], replay_p50_us=p50s[-replays:])
        instances.append(ctx)

    # Read before the pooled percentile below sorts a copy of every latency.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ctx = run_context(name, spec, seed, run, instances)
    ctx.update(latency_samples=len(pooled), samples_beyond_p99=len(pooled) // 100)
    metrics = {
        "setup_s": (upper_decile(setups), "s"),
        "first_pass_s": (upper_decile(firsts), "s"),
        "query_p50_us": (upper_decile(p50s), "us"),
        "query_p99_us": (percentile(pooled, 99) / 1e3, "us"),
        "warm_qps": (nq * 1e9 / upper_decile(walls), "1/s"),
        "entries_per_rect": (statistics.median(per_rect), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return run, ctx, metrics


def measure_traced(name, spec, seed, seconds):
    """Per-layer metrics from instance 0 of a run, with the layer wrappers
    installed for set-up, the first pass and one warm pass; see README.md.
    Wall times of those traced phases are the denominators of the ``_pct``
    shares."""
    from ofc2d.counters import WorkCounters
    from spans import Tracer

    run = Run()
    tr_setup = Tracer()
    with tr_setup.installed():
        setup_s, cat, ds, stream = set_up(name, spec, seed, 0)
    setup_ns = setup_s * 1e9
    expected = oracle_answers(cat, stream)
    nq = len(stream)

    tr_first = Tracer()
    with tr_first.installed():
        first_ns, _, answers, errors = run_pass(ds, stream, True, tr_first)
    run.errors("traced first pass", nq, errors)
    run.check("traced first pass", answers, expected)

    plain, p50s = [], []
    deadline = time.perf_counter() + seconds / 2
    while len(plain) < MIN_REPLAYS or time.perf_counter() < deadline:
        wall, lat, _, errors = run_pass(ds, stream, False)
        run.errors("warm pass", nq, errors)
        plain.append(wall)
        p50s.append(percentile(lat, 50) / 1e3)

    tr_warm = Tracer()
    with tr_warm.installed():
        warm_ns, _, answers, errors = run_pass(ds, stream, True, tr_warm)
    run.errors("traced warm pass", nq, errors)
    run.check("traced warm pass", answers, expected)

    totals = WorkCounters()
    for q in stream:
        ds.query(q, totals)

    base_p50s, base_answers = [], None
    deadline = time.perf_counter() + seconds / 2
    while len(base_p50s) < MIN_REPLAYS or time.perf_counter() < deadline:
        lat, answers = baseline_pass(cat, stream)
        base_answers = base_answers or answers
        base_p50s.append(percentile(lat, 50) / 1e3)
    run.check("per-vertex SlabIndex baseline", base_answers, expected)

    stem = WORK / f"{name}-s{seed}"
    for phase, tr in (("setup", tr_setup), ("first", tr_first), ("warm", tr_warm)):
        tr.dump(f"{stem}-{phase}.spans")
    S, F, W = tr_setup.summary(), tr_first.summary(), tr_warm.summary()

    def pct(ns, wall):
        return 100.0 * ns / wall

    def per_query(x):
        return x / nq

    query_p50 = upper_decile(p50s)
    base_p50 = upper_decile(base_p50s)
    located = W.under["cutting.conflict_locate", "catalog.mid_tree.locate_along"]
    shares = regime_shares(ds, stream)
    setup, lazy = space(ds)
    m = {
        "trace.setup_s": (setup_ns / 1e9, "s"),
        "trace.first_pass_s": (first_ns / 1e9, "s"),
        "trace.warm_query_us": (per_query(warm_ns) / 1e3, "us"),
        "trace.overhead": (warm_ns / statistics.median(plain), "x"),
        "trace.unaccounted_pct": (pct(warm_ns - sum(W.self_ns.values()), warm_ns), "%"),
        "fileio.load_pct": (pct(S.incl["fileio.load"], setup_ns), "%"),
        "cutting.build_pct": (pct(S.incl["cutting.build"], setup_ns), "%"),
        "cutting.build_calls": (S.calls["cutting.build"], "count"),
        "cutting.attempts_per_build": (
            S.calls["geometry.trapezoidal_decompose"] / max(1, S.calls["cutting.build"]),
            "count"),
        "catalog.mid_tree.recnodes": (mid_parts(ds.mid)[1] if hasattr(ds, "mid") else 0,
                                      "count"),
        "catalog.mid_tree.build_pct": (pct(S.self_ns["catalog.mid_tree.build"], setup_ns), "%"),
        "catalog.boot.layer_build_pct": (pct(S.boot_layers_ns, setup_ns), "%"),
        "stabbing.stab3d_build_pct": (pct(S.incl["stabbing.stab3d_build"], setup_ns), "%"),
        "catalog.short_tree.lazy_stab_builds": (
            F.under["stabbing.stab2d_build", "catalog.short_tree.query"], "count"),
        "catalog.graph_ds.lazy_stab_builds": (
            F.under["stabbing.stab2d_build", "catalog.graph_ds.query"], "count"),
        "stabbing.stab2d_lazy_build_pct": (pct(F.incl["stabbing.stab2d_build"], first_ns), "%"),
        "cutting.conflict_index_builds": (F.calls["cutting.conflict_index_build"], "count"),
        "cutting.conflict_index_build_pct": (
            pct(F.incl["cutting.conflict_index_build"], first_ns), "%"),
        "stabbing.stab3d_query_self_pct": (pct(W.self_ns["stabbing.stab3d_query"], warm_ns), "%"),
        "catalog.mid_tree.locate_along_self_pct": (
            pct(W.self_ns["catalog.mid_tree.locate_along"], warm_ns), "%"),
        "catalog.mid_tree.kept_ratio": (W.counts["mid_tree.kept"] / located if located else 0.0,
                                        "ratio"),
        "catalog.boot.drill_locates_per_query": (
            per_query(W.under["cutting.conflict_locate", "catalog.boot.query"]), "count"),
        "stabbing.stab2d_query_self_pct": (pct(W.self_ns["stabbing.stab2d_query"], warm_ns), "%"),
        "stabbing.stab2d_hits_per_call": (
            W.counts["stab2d_hits"] / max(1, W.calls["stabbing.stab2d_query"]), "count"),
        "intervals.stab_self_pct": (pct(W.self_ns["intervals.stab"], warm_ns), "%"),
        "catalog.long_path.runs_per_query": (per_query(W.calls["catalog.path_ds.query"]), "count"),
        "catalog.path_ds.blocks_per_query": (
            per_query(W.under["stabbing.stab2d_query", "catalog.path_ds.query"]), "count"),
        "cutting.conflict_locate_self_pct": (pct(W.self_ns["cutting.conflict_locate"], warm_ns), "%"),
        "geometry.slab_locate_self_pct": (pct(W.self_ns["geometry.slab_locate"], warm_ns), "%"),
        "catalog.query_self_pct": (pct(sum(v for k, v in W.self_ns.items()
                                           if k.startswith("catalog.") and k.endswith(".query")),
                                       warm_ns), "%"),
        "catalog.graph_ds.walk_len_per_vertex": (
            0.0 if shares else walk_len_per_vertex(ds, stream), "count"),
        "counters.total_per_query": (per_query(totals.total), "count"),
        "counters.stab_nodes_per_query": (per_query(totals.stab_nodes_visited), "count"),
        "counters.pl_comparisons_per_query": (per_query(totals.pl_comparisons), "count"),
        "counters.structures_per_query": (per_query(totals.structures_queried), "count"),
        "counters.cells_located_per_query": (per_query(totals.cells_located), "count"),
        "geometry.baseline_p50_us": (base_p50, "us"),
        "geometry.vs_baseline_p50": (query_p50 / base_p50, "x"),
    }
    for regime in ("short", "mid", "long"):
        m[f"catalog.tree_ds.regime_share.{regime}"] = (100.0 * shares.get(regime, 0.0), "%")
    for comp, v in setup.items():
        m[f"catalog.entries_setup.{comp}"] = (v, "count")
    for comp, v in lazy.items():
        m[f"catalog.entries_lazy.{comp}"] = (v, "count")
    ictx = instance_context(cat, ds, stream, setup, lazy)
    ictx.update(untraced_warm_passes=len(plain), query_p50_us=query_p50,
                spans={"setup": len(tr_setup.start), "first": len(tr_first.start),
                       "warm": len(tr_warm.start)},
                span_files=f"{stem.relative_to(HERE.parent)}-*.spans.{{json,bin}}")
    return run, run_context(name, spec, seed, run, [ictx]), m


def baseline_pass(cat, stream):
    """The honest baseline: one warmed ``Tiling.index().locate`` per vertex."""
    from ofc2d.catalog.model import QueryAnswer

    verts = cat.vertices
    for v in verts.values():
        v.tiling.index()
    clock = time.perf_counter_ns
    lat, answers = [0] * len(stream), [None] * len(stream)
    for i, q in enumerate(stream):
        vs, p = vertices_of(q), q.q
        a = clock()
        out = {v: verts[v].tiling.index().locate(p).id for v in vs}
        lat[i] = clock() - a
        answers[i] = QueryAnswer(out)
    return lat, answers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_library()
    spec = WORKLOADS[args.workload]
    fn = measure_traced if args.trace else measure
    run, ctx, metrics = fn(args.workload, spec, args.seed, args.seconds)
    for k, inst in enumerate(ctx["instances"]):
        problem = regime_problem(spec, inst.get("regime_shares"))
        if problem:
            run.problems.append(f"instance {k}: {problem}")
    for p in run.problems:
        print(f"error: {p}", file=sys.stderr)
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(WORK / f"{args.workload}-s{args.seed}-t{args.trace}.json", "w") as f:
        json.dump({"context": ctx, "result": result}, f, indent=1)
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
