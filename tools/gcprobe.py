#!/usr/bin/env python3
"""Print where the cyclic garbage collector's full (generation-2)
collections fall: in set-up or in the first pass of each benchmark instance.

Run from the repository root::

    python3 tools/gcprobe.py --workload tree-mixed --seed 1 2 3

For each seed and each of the workload's instances (0-4), the instance is
loaded and built through ``perfbench/run.py`` ``set_up``, and its query
stream runs once through ``run_pass`` on the fresh structure, as
``tools/fingerprint.py`` does.  One line is printed per instance::

    <workload> <instance> seed=<seed> setup_s=<s> first_pass_s=<s>
    setup_gen2=<count> setup_gen2_s=<s> first_gen2=<count> first_gen2_s=<s>

and one summary line at the end, naming each instance whose first pass ran
a full collection as ``s<seed>k<instance>=<seconds of those collections>``::

    <workload> summary instances=<count> first_gen2_instances=<count>
    first_gen2_s=<s> [s<seed>k<instance>=<s> ...]

Set-up covers what ``set_up`` times (loading and construction), not the
``gc.collect()`` it runs before its clock starts or the query stream it
draws after.  The probe only observes, through ``gc.callbacks``; it changes
no collector setting.  A change that allocates fewer containers in set-up
can move a full collection into the first pass, which these lines show.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PHASES = ("setup", "first")


class Gen2Log:
    """Count and time the generation-2 collections made while ``phase`` is
    one of ``PHASES``, per phase."""

    def __init__(self):
        self.phase = None
        self.count = dict.fromkeys(PHASES, 0)
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self._start = None

    def __call__(self, event, info):
        if info["generation"] != 2 or self.phase is None:
            return
        if event == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.count[self.phase] += 1
            self.seconds[self.phase] += time.perf_counter() - self._start
            self._start = None


def probe(run, name, spec, seed, k):
    """Set-up and first-pass seconds of instance ``k``, with the count and
    seconds of the full collections in each; ``run`` is the imported
    ``perfbench/run.py``."""
    from ofc2d import fileio

    log = Gen2Log()
    load_catalog, make_stream = fileio.load_catalog, run.make_stream

    def timed_load(path):
        log.phase = "setup"
        return load_catalog(path)

    def untimed_stream(*args):
        log.phase = None
        return make_stream(*args)

    fileio.load_catalog, run.make_stream = timed_load, untimed_stream
    gc.callbacks.append(log)
    try:
        setup_s, _, ds, stream = run.set_up(name, spec, seed, k)
        log.phase = "first"
        first_ns = run.run_pass(ds, stream, False)[0]
        log.phase = None
    finally:
        gc.callbacks.remove(log)
        fileio.load_catalog, run.make_stream = load_catalog, make_stream
    return {"setup_s": setup_s, "first_pass_s": first_ns / 1e9,
            "setup_gen2": log.count["setup"], "setup_gen2_s": log.seconds["setup"],
            "first_gen2": log.count["first"], "first_gen2_s": log.seconds["first"]}


def summary(workload, probes):
    """The summary line over ``probes``, a list of (seed, instance, probe
    result) in run order."""
    hit = [(seed, k, p["first_gen2_s"]) for seed, k, p in probes if p["first_gen2"]]
    return " ".join([workload, "summary", f"instances={len(probes)}",
                     f"first_gen2_instances={len(hit)}",
                     f"first_gen2_s={sum(sec for _, _, sec in hit):.4f}",
                     *(f"s{seed}k{k}={sec:.4f}" for seed, k, sec in hit)])


def main(argv=None):
    sys.path.insert(0, str(PERFBENCH))
    import run

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    ap.add_argument("--seed", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    run._import_library()
    spec = run.WORKLOADS[args.workload]
    probes = []
    for seed in args.seed:
        for k in range(run.INSTANCES):
            p = probe(run, args.workload, spec, seed, k)
            probes.append((seed, k, p))
            print(args.workload, k, f"seed={seed}", " ".join(
                f"{key}={v}" if isinstance(v, int) else f"{key}={v:.4f}"
                for key, v in p.items()), flush=True)
    print(summary(args.workload, probes), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
