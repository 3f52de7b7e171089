#!/usr/bin/env python3
"""Print one digest per benchmark instance, to show that a change left every
structure's behaviour as it was.

Run from the repository root::

    python3 tools/fingerprint.py

For seed-1 instances 0-4 of every workload in ``perfbench/run.py``, the
instance is loaded and built through that script's ``set_up``.  Its query
stream then runs once on the fresh structure, each query with its own
``WorkCounters``.  Three SHA-256 digests are taken, in stream order:

- the answer digest covers every answer (sorted vertex -> rect id pairs, or
  the type of the ``Ofc2dError`` raised) and nothing else;
- the full digest covers every answer and the four counters, followed by
  ``space()`` once the pass is over;
- the counters digest covers every answer and the four counters, without
  ``space()``.

The lines printed are ``<workload> <instance> <answer digest> <full
digest> <counters digest>``.  A change that alters counters or space by
design can still show equal answer digests, and one that alters only space
equal counters digests.

To compare two commits, run the script in a checkout of each and diff the
outputs.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1
INSTANCES = range(5)


def fingerprint(run, name, spec, k):
    """Answer, full and counters digests of instance ``k`` of workload
    ``name``; ``run`` is the imported ``perfbench/run.py``."""
    _, _, ds, stream = run.set_up(name, spec, SEED, k)
    return digests(run, ds, stream)


def digests(run, ds, stream):
    """Answer, full and counters digests of one pass of ``stream`` on
    ``ds``, a structure built by ``run.set_up``."""
    from ofc2d.counters import WorkCounters
    from ofc2d.errors import Ofc2dError

    answers, h = hashlib.sha256(), hashlib.sha256()
    for q in stream:
        c = WorkCounters()
        try:
            ans = sorted(ds.query(q, c).by_vertex.items())
        except Ofc2dError as e:
            ans = type(e).__name__
        answers.update(repr(ans).encode())
        h.update(repr((ans, c.stab_nodes_visited, c.pl_comparisons,
                       c.structures_queried, c.cells_located)).encode())
    counted = h.copy()
    h.update(repr(run.space(ds)).encode())
    return answers.hexdigest(), h.hexdigest(), counted.hexdigest()


def main():
    sys.path.insert(0, str(PERFBENCH))
    import run

    run._import_library()
    for name, spec in run.WORKLOADS.items():
        for k in INSTANCES:
            print(name, k, *fingerprint(run, name, spec, k), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
