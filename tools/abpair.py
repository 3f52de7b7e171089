#!/usr/bin/env python3
"""Compare the warm query latency of two checkouts on one benchmark
instance, slice by slice in turn, in two persistent worker processes.

Run from the repository root::

    python3 tools/abpair.py PARENT_ROOT CHANGE_ROOT --workload tree-long \\
        --seed 1 --instance 0 --rounds 24 [--slice 500] [--out FILE]

Each root is a checkout with ``perfbench/run.py`` and ``src/ofc2d``.  One
worker per root imports that checkout's ``run`` module and library, loads and
builds instance ``--instance`` of seed ``--seed`` through its ``set_up``,
and runs the query stream once.  That first pass gives the answer digest of
``tools/fingerprint.py``; the runner stops with exit code 1, before it
times anything, unless both digests are equal.  Each worker then replays the
stream once untimed.  The workers are started and set up one at a time.

A round times one slice of ``--slice`` consecutive queries of the stream
(the next slice each round, wrapping round) in one worker, then the same
slice in the other; the order swaps every round, and only one worker runs
at a time.  A slice runs through that checkout's ``run_pass``; its p50 is
the median of its per-query latencies.  The round's ratio is the change's
p50 over the parent's, so a ratio below 1 means the change was faster.

The rounds are split evenly over ``PAIRS`` = 4 pairs of workers, one pair
after another, each pair started afresh; the parent starts first in the
first and third pair, the change in the second and fourth.  Two workers
running the same checkout differ by a few percent depending on which one
started first (on a shared two-core host, the later one was faster on
``graph-subgraph`` in each of 10 runs of 160 rounds, median ratio 0.98), and
a pair as a whole can sit a few percent off 1.0; alternating the start order
cancels the first, and more pairs average out the second.

Printed, and written as JSON to ``--out``: the median round ratio, its
quartiles (IQR), the number of rounds where the change was faster, and a
bootstrap 95% interval of the median ratio.  Each of its 2000 resamples
(fixed seed) draws the pairs with replacement, then each drawn pair's
rounds with replacement, so the interval includes the spread between
pairs, not only between rounds.  The record also holds each side's set-up
times, digest and median slice p50, and every round with its pair.  The
runner adds evidence next to whole alternating ``perfbench`` runs; it
measures warm queries only.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SIDES = ("parent", "change")
PAIRS = 4
RESAMPLES = 2000


def worker(root):
    """Serve one checkout: one JSON command per stdin line, one JSON reply
    per stdout line."""
    root = Path(root).resolve()
    sys.path.insert(0, str(root / "perfbench"))
    sys.path.insert(1, str(TOOLS))
    import run
    from fingerprint import digests

    run._import_library()
    import ofc2d

    out = sys.stdout
    sys.stdout = sys.stderr  # nothing else may write to the reply stream
    ds = stream = None
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "setup":
            if cmd["work"] is not None:
                run.WORK = Path(cmd["work"])
                run.WORK.mkdir(parents=True, exist_ok=True)
            setup_s, _, ds, stream = run.set_up(cmd["name"], cmd["spec"], cmd["seed"], cmd["k"])
            answer_digest = digests(run, ds, stream)[0]
            run.run_pass(ds, stream, False)
            reply = {"setup_s": setup_s, "answer_digest": answer_digest,
                     "queries": len(stream), "library": ofc2d.__file__}
        else:
            start, count = cmd["start"], cmd["count"]
            part = [stream[(start + i) % len(stream)] for i in range(count)]
            lat = run.run_pass(ds, part, False)[1]
            reply = {"p50_us": statistics.median(lat) / 1e3}
        out.write(json.dumps(reply) + "\n")
        out.flush()


class Worker:
    def __init__(self, root):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                                      "--worker", str(root)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, **cmd):
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # the worker has already exited
            pass
        self.proc.wait()
        self.proc.stdout.close()


def bootstrap_ci(groups, resamples=RESAMPLES):
    """2.5th and 97.5th percentiles of the median of the ratios in
    ``groups`` (one non-empty list per worker pair), resampled in two
    stages: the groups with replacement, then each drawn group's ratios
    with replacement."""
    rng = random.Random(0)
    meds = []
    for _ in range(resamples):
        sample = []
        for g in rng.choices(groups, k=len(groups)):
            sample += rng.choices(g, k=len(g))
        meds.append(statistics.median(sample))
    meds.sort()
    return meds[int(0.025 * resamples)], meds[int(0.975 * resamples) - 1]


def summarize(groups):
    ratios = [r for g in groups for r in g]
    q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    lo, hi = bootstrap_ci(groups)
    return {"rounds": len(ratios), "ratio_median": med, "ratio_iqr": [q1, q3],
            "change_faster": sum(1 for r in ratios if r < 1), "ci95": [lo, hi]}


class AnswersDiffer(Exception):
    pass


def start_pair(roots, order, name, spec, seed, k, work):
    """Workers for ``roots`` (side -> root), started and set up one at a
    time in ``order``: (side -> worker, side -> set-up reply)."""
    workers, setups = {}, {}
    try:
        for side in order:
            workers[side] = Worker(roots[side])
            setups[side] = workers[side].ask(
                op="setup", name=name, spec=spec, seed=seed, k=k,
                work=None if work is None else str(Path(work) / side))
            library = Path(setups[side].pop("library")).resolve()
            if not library.is_relative_to(Path(roots[side]).resolve() / "src"):
                raise RuntimeError(f"{side} worker imported ofc2d from {library}, "
                                   f"not from {roots[side]}/src")
        digests = [setups[side]["answer_digest"] for side in SIDES]
        if digests[0] != digests[1]:
            raise AnswersDiffer(f"{name} seed {seed} instance {k}: answer digests differ "
                                f"({digests[0][:12]} parent, {digests[1][:12]} change)")
    except BaseException:
        for w in workers.values():
            w.close()
        raise
    return workers, setups


def abpair(parent_root, change_root, name, spec, seed, k, rounds, slice_len, work=None):
    """The record of one paired run of at least ``PAIRS`` ``rounds``; raises
    ``AnswersDiffer`` unless both checkouts answer the instance's stream
    alike.  ``work``, if given, is the directory each worker writes its
    instance file under (one subdirectory per side); by default each
    checkout's own."""
    if rounds < PAIRS:
        raise ValueError(f"{rounds} rounds for {PAIRS} worker pairs")
    roots = dict(zip(SIDES, (parent_root, change_root)))
    rows, setups = [], []
    for pair in range(PAIRS):
        start_order = SIDES if pair % 2 == 0 else SIDES[::-1]
        workers, setup = start_pair(roots, start_order, name, spec, seed, k, work)
        setups.append(setup)
        nq = setup["parent"]["queries"]
        try:
            for i in range(pair * rounds // PAIRS, (pair + 1) * rounds // PAIRS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                start = i * slice_len % nq
                p50 = {side: workers[side].ask(op="slice", start=start,
                                               count=slice_len)["p50_us"]
                       for side in order}
                rows.append({"pair": pair, "started_first": start_order[0], "first": order[0],
                             "start": start, "parent_p50_us": p50["parent"],
                             "change_p50_us": p50["change"],
                             "ratio": p50["change"] / p50["parent"]})
        finally:
            for w in workers.values():
                w.close()
    groups = [[r["ratio"] for r in rows if r["pair"] == pair] for pair in range(PAIRS)]
    return {"workload": name, "spec": spec, "seed": seed, "instance": k,
            "slice": slice_len, **summarize(groups),
            "sides": {side: {"answer_digest": setups[0][side]["answer_digest"],
                             "queries": setups[0][side]["queries"],
                             "setup_s": [st[side]["setup_s"] for st in setups],
                             "p50_us_median": statistics.median(
                                 r[f"{side}_p50_us"] for r in rows)}
                      for side in SIDES},
            "per_round": rows}


def report(rec):
    iqr, ci = rec["ratio_iqr"], rec["ci95"]
    sides = rec["sides"]
    return "\n".join([
        f"abpair {rec['workload']} seed={rec['seed']} instance={rec['instance']} "
        f"rounds={rec['rounds']} slice={rec['slice']}",
        "p50_us parent={:.2f} change={:.2f}".format(
            sides["parent"]["p50_us_median"], sides["change"]["p50_us_median"]),
        f"ratio median={rec['ratio_median']:.4f} iqr={iqr[0]:.4f}-{iqr[1]:.4f} "
        f"change_faster={rec['change_faster']}/{rec['rounds']} ci95={ci[0]:.4f}-{ci[1]:.4f}",
    ])


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        worker(argv[1])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root", type=Path)
    ap.add_argument("change_root", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--instance", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--slice", type=int, default=500)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.rounds < PAIRS or args.slice < 1:
        ap.error(f"--rounds must be at least {PAIRS} and --slice at least 1")
    sys.path.insert(0, str(args.parent_root.resolve() / "perfbench"))
    import run

    if args.workload not in run.WORKLOADS:
        ap.error(f"unknown workload {args.workload}; one of {sorted(run.WORKLOADS)}")
    try:
        rec = abpair(args.parent_root.resolve(), args.change_root.resolve(), args.workload,
                     run.WORKLOADS[args.workload], args.seed, args.instance, args.rounds,
                     args.slice)
    except AnswersDiffer as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(report(rec), flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(rec, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
