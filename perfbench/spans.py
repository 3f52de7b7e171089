"""In-memory span recording around the entry points of ofc2d's layers.

``Tracer.installed()`` replaces the public entry points of each layer
(functions bound in a module, methods and constructors of classes) with
wrappers for the duration of a ``with`` block and restores the originals on
exit; the library's source is never edited.  Every wrapped call records one
span: name, start and end (``perf_counter_ns``), parent span and the query id
the caller set in ``Tracer.query``.  Spans live in flat arrays and are written
out with ``dump`` once the run is over.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

FIELDS = ("name", "start", "end", "parent", "query")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.qid = array("i")
        # Summed len() of results, for wrappers registered with ``count=``.
        self.counts = Counter()
        self.query = -1
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, count):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends = self.name, self.start, self.end
        parents, qids, stack, counts = self.parent, self.qid, self._stack, self.counts

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            qids.append(self.query)
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()
            if count is not None:
                counts[count] += len(out)
            return out

        return wrapper

    def patch(self, owner, attr, name, count=None):
        """Wrap ``owner.attr`` (a module function or a class's method)."""
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, count))

    @contextmanager
    def installed(self):
        _patch_layers(self)
        try:
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)

    def dump(self, path):
        """Write a JSON header (``path``.json) and the span arrays, one after
        another in ``FIELDS`` order, as native-endian binary (``path``.bin)."""
        arrays = (self.name, self.start, self.end, self.parent, self.qid)
        header = {"names": self.names, "spans": len(self.start),
                  "fields": [[f, a.typecode] for f, a in zip(FIELDS, arrays)]}
        with open(f"{path}.json", "w") as f:
            json.dump(header, f)
        with open(f"{path}.bin", "wb") as f:
            for a in arrays:
                a.tofile(f)

    def summary(self) -> "Summary":
        return Summary(self)


class Summary:
    """Per-name call counts, inclusive and self nanoseconds, and call counts
    keyed by (name, parent name).  Self time is a span's duration minus the
    durations of its direct children."""

    def __init__(self, tr: Tracer):
        n = len(tr.start)
        dur = [e - s for s, e in zip(tr.start, tr.end)]
        child = [0] * n
        for i, p in enumerate(tr.parent):
            if p >= 0:
                child[p] += dur[i]
        names = [tr.names[k] for k in tr.name]
        self.calls = Counter(names)
        self.incl = Counter()
        self.self_ns = Counter()
        self.under = Counter()
        for i, nm in enumerate(names):
            self.incl[nm] += dur[i]
            self.self_ns[nm] += dur[i] - child[i]
            p = tr.parent[i]
            self.under[nm, names[p] if p >= 0 else None] += 1
        self.counts = tr.counts
        # Bootstrap layers: a BootstrappedDS build minus its first (base)
        # mid-tree build.
        base = {}
        for i, nm in enumerate(names):
            p = tr.parent[i]
            if nm == "catalog.mid_tree.build" and p >= 0 and names[p] == "catalog.boot.build":
                if p not in base or tr.start[i] < tr.start[base[p]]:
                    base[p] = i
        self.boot_layers_ns = sum(
            dur[i] - (dur[base[i]] if i in base else 0)
            for i, nm in enumerate(names) if nm == "catalog.boot.build")


def _patch_layers(tr: Tracer):
    from ofc2d import cutting, fileio, geometry, intervals, stabbing
    from ofc2d.catalog import (boot, graph_ds, long_path, mid_tree, path_ds,
                               short_tree, tree_ds)

    tr.patch(fileio, "load_catalog", "fileio.load")
    # cutting_build is imported by name into every module that calls it.
    for mod in (cutting, short_tree, mid_tree, boot, graph_ds):
        tr.patch(mod, "cutting_build", "cutting.build")
    tr.patch(cutting, "trapezoidal_decompose", "geometry.trapezoidal_decompose")
    tr.patch(cutting.ConflictIndex, "__init__", "cutting.conflict_index_build")
    tr.patch(cutting.ConflictIndex, "locate", "cutting.conflict_locate")
    tr.patch(geometry.SlabIndex, "locate", "geometry.slab_locate")
    tr.patch(stabbing.Stab2D, "__init__", "stabbing.stab2d_build")
    tr.patch(stabbing.Stab2D, "query", "stabbing.stab2d_query", count="stab2d_hits")
    tr.patch(stabbing.Stab3D, "__init__", "stabbing.stab3d_build")
    tr.patch(stabbing.Stab3D, "query", "stabbing.stab3d_query")
    tr.patch(intervals.IntervalTree1D, "stab", "intervals.stab")
    for cls, layer in ((tree_ds.TreeDS, "tree_ds"), (short_tree.ShortTreeDS, "short_tree"),
                       (boot.BootstrappedDS, "boot"), (mid_tree.MidTreeDS, "mid_tree"),
                       (long_path.LongPathDS, "long_path"), (path_ds.PathDS, "path_ds"),
                       (graph_ds.GraphDS, "graph_ds")):
        tr.patch(cls, "__init__", f"catalog.{layer}.build")
        tr.patch(cls, "query", f"catalog.{layer}.query")
    tr.patch(mid_tree.RootLeafDS, "locate_along", "catalog.mid_tree.locate_along",
             count="mid_tree.kept")
