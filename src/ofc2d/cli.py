"""Command-line driver: generate instances, report build statistics, and
benchmark query workloads against the linear-scan oracle.

Subcommands::

    ofc2d gen --kind {random-path,random-tree,random-graph,lb-short,lb-mid} \
        --seed S --out FILE [kind-specific flags]
    ofc2d build-stats --instance FILE --structure KIND --seed S
    ofc2d bench --instance FILE --structure KIND --seed S --out CSV \
        [--queries FILE | --count N --path-len L] [--verify]

KIND is one of short-tree, mid-tree, long-path, tree and graph; long-path
over a ``random-path`` catalog is the catalog-path structure.  ``--path-len``
asks for paths (walks on a graph) of exactly L vertices.

Counters (not wall time) are the portable cost model; bench emits one CSV
row per query plus a summary row.  With --verify its ``oracle_match`` column
compares each answer with the oracle and bench exits nonzero on any
mismatch; without it the column is empty.
Every structure answers ``ds.query(q, counters)`` for any path length.
"""

from __future__ import annotations

import argparse
import csv
import math
import random
import sys
import time

from . import fileio
from .catalog.graph_ds import GraphDS
from .catalog.long_path import LongPathDS
from .catalog.mid_tree import MidTreeDS
from .catalog.model import (CatalogGraph, CatalogTree, PathQuery, SubgraphQuery,
                            regime_heights)
from .catalog.path_ds import block_size
from .catalog.short_tree import ShortTreeDS
from .catalog.tree_ds import TreeDS
from .counters import WorkCounters
from .errors import Ofc2dError
from .gen import random_graph_catalog, random_point, random_tree_catalog
from .hardgen import gen_mid_tree_instance, gen_short_tree_instance
from .oracle import oracle_query

CSV_FIELDS = ["query", "path_len", "wall_ns", "stab_nodes_visited",
              "pl_comparisons", "structures_queried", "cells_located",
              "total", "oracle_match"]


def cmd_gen(args):
    rng = random.Random(args.seed)
    witness = None
    if args.kind == "random-path":
        # A tree as tall as its vertex count allows is one chain.
        cat = random_tree_catalog(args.vertices, args.vertices * args.per_vertex,
                                  args.vertices - 1, rng)
    elif args.kind == "random-tree":
        cat = random_tree_catalog(args.vertices, args.vertices * args.per_vertex,
                                  args.height, rng)
    elif args.kind == "random-graph":
        cat = random_graph_catalog(args.vertices, args.vertices * args.per_vertex,
                                   args.degree, rng)
    elif args.kind == "lb-short":
        cat, witness = gen_short_tree_instance(args.n, args.h)
    else:  # lb-mid
        cat, witness = gen_mid_tree_instance(args.n, args.h)
    fileio.save_catalog(cat, args.out)
    if witness is not None:
        fileio.save_witness(witness, args.out + ".witness")
    return 0


def _build_structure(cat, kind, rng):
    if kind == "graph":
        if not isinstance(cat, CatalogGraph):
            raise Ofc2dError("graph structure needs a graph instance")
        return GraphDS(cat, rng)
    if not isinstance(cat, CatalogTree):
        raise Ofc2dError(f"{kind} structure needs a tree instance")
    if kind == "short-tree":
        return ShortTreeDS(cat, rng)
    if kind == "mid-tree":
        return MidTreeDS(cat, *regime_heights(cat.n), rng)
    if kind == "long-path":
        return LongPathDS(cat)
    if kind == "tree":
        return TreeDS(cat, rng)
    raise Ofc2dError(f"unknown structure kind {kind}")


def cmd_build_stats(args, out=None):
    out = out if out is not None else sys.stdout
    cat = fileio.load_catalog(args.instance)
    rng = random.Random(args.seed)
    ds = _build_structure(cat, args.structure, rng)
    n = cat.n
    entries = ds.stored_entries
    # Measured space exponent e in entries = n * (log2 n)^e; undefined, and
    # printed as 0, where log2 log2 n is 0 (n <= 2).
    logn = math.log2(max(2, n))
    exponent = (math.log2(entries / n) / math.log2(logn)) if entries > n > 2 else 0.0
    print(f"instance {args.instance}", file=out)
    print(f"structure {args.structure}", file=out)
    print(f"total_rects {n}", file=out)
    print(f"stored_entries {entries}", file=out)
    print(f"space_exponent {exponent:.3f}", file=out)
    if isinstance(ds, TreeDS):
        # Set-up entries per regime; they sum to stored_entries.
        for regime in ("short", "mid", "long"):
            print(f"entries_{regime} {getattr(ds, regime).stored_entries}", file=out)
    long = ds.long if isinstance(ds, TreeDS) else ds
    if isinstance(long, LongPathDS):
        # The block size follows from n alone; a store built for no path
        # has no blocks.
        print(f"long_block_size {block_size(n)}", file=out)
        print(f"long_blocks {sum(len(s.blocks) for s in long.structures)}", file=out)
    mid = ds.mid.base if isinstance(ds, TreeDS) else ds
    if isinstance(mid, MidTreeDS):
        # Distinct (vertex, rho) cuttings, and the vertex cuttings of all
        # RootLeafDS nodes that share them.
        print(f"mid_cuttings_built {mid.cuttings_built}", file=out)
        print(f"mid_cuttings_used {mid.cuttings_used}", file=out)
    return 0


def _random_workload(cat, count, path_len, rng):
    vids = list(cat.vertices)

    def draw():
        """One random simple path: between two random vertices of a tree, or a
        self-avoiding walk of up to ``path_len`` vertices in a graph."""
        if isinstance(cat, CatalogTree):
            return cat.path_between(rng.choice(vids), rng.choice(vids))
        walk = [rng.choice(vids)]
        while path_len and len(walk) < path_len:
            nxt = [w for w in cat.vertices[walk[-1]].adjacency if w not in walk]
            if not nxt:
                break
            walk.append(rng.choice(nxt))
        return walk

    out = []
    for _ in range(count):
        for _ in range(200):
            p = draw()
            if path_len is None or len(p) == path_len:
                out.append(PathQuery(random_point(cat.bbox, rng), tuple(p)))
                break
        else:
            raise Ofc2dError(f"no path of length {path_len} found")
    return out


def cmd_bench(args):
    cat = fileio.load_catalog(args.instance)
    rng = random.Random(args.seed)
    ds = _build_structure(cat, args.structure, rng)
    if args.queries:
        workload = fileio.load_queries(args.queries)
        if args.structure != "graph" and any(
                isinstance(q, SubgraphQuery) for q in workload):
            raise Ofc2dError(f"{args.structure} structure answers no subgraph query")
    else:
        workload = _random_workload(cat, args.count, args.path_len, rng)

    rows = []
    for idx, q in enumerate(workload):
        c = WorkCounters()
        t0 = time.perf_counter_ns()
        ans = ds.query(q, c)
        wall = time.perf_counter_ns() - t0
        # An unchecked answer gets an empty cell, not a claim that it matched.
        match = ""
        if args.verify:
            vs = sorted(q.vertex_set) if hasattr(q, "vertex_set") else q.path
            match = ans == oracle_query(cat, q.q, vs)
        plen = len(q.vertex_set) if hasattr(q, "vertex_set") else len(q.path)
        rows.append([idx, plen, wall, c.stab_nodes_visited, c.pl_comparisons,
                     c.structures_queried, c.cells_located, c.total, match])

    mismatches = sum(1 for r in rows if r[-1] is False)
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_FIELDS)
        w.writerows(rows)
        if rows:
            # Summary: fitted constant for total = a * sqrt(|pi|) * log2 n.
            logn = math.log2(max(2, cat.n))
            fits = [r[7] / (math.sqrt(max(1, r[1])) * logn) for r in rows]
            w.writerow(["summary", len(rows), "", "", "", "", "",
                        f"{sum(fits) / len(fits):.3f}",
                        mismatches == 0 if args.verify else ""])
    if mismatches:
        print(f"{mismatches} oracle mismatches", file=sys.stderr)
        return 1
    return 0


def make_parser():
    ap = argparse.ArgumentParser(prog="ofc2d")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--kind", required=True,
                   choices=["random-path", "random-tree", "random-graph",
                            "lb-short", "lb-mid"])
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--vertices", type=int, default=16)
    g.add_argument("--per-vertex", type=int, default=32)
    g.add_argument("--height", type=int, default=4)
    g.add_argument("--degree", type=int, default=3)
    g.add_argument("--n", type=int, default=2 ** 14)
    g.add_argument("--h", type=int, default=7)
    g.set_defaults(fn=cmd_gen)

    for name, fn in (("build-stats", cmd_build_stats), ("bench", cmd_bench)):
        p = sub.add_parser(name)
        p.add_argument("--instance", required=True)
        p.add_argument("--structure", required=True,
                       choices=["short-tree", "mid-tree", "tree", "graph",
                                "long-path"])
        p.add_argument("--seed", type=int, required=True)
        if name == "bench":
            p.add_argument("--out", required=True)
            p.add_argument("--queries")
            p.add_argument("--count", type=int, default=100)
            p.add_argument("--path-len", type=int, default=None)
            p.add_argument("--verify", action="store_true")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    # ValueError: a catalog that a CatalogTree or CatalogGraph check rejects;
    # OSError: a file that cannot be opened.
    except (Ofc2dError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
