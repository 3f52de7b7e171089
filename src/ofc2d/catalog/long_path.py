"""Structure for long paths in tall catalog trees.

The tree is split by heavy-path decomposition; each heavy path carries one
blocked path structure.  A query path crosses at most ~2 log n heavy paths
(once per direction from its apex), each in one contiguous run, so the query
cost is about log² n plus the blocked-structure cost along the path.
"""

from __future__ import annotations

import math

from ..errors import PathTooShort
from .model import CatalogTree, PathQuery, QueryAnswer, check_path, heavy_path_decompose
from .path_ds import PathDS


class LongPathDS:
    __slots__ = ("tree", "strict", "paths", "path_of", "structures", "min_len",
                 "stored_entries")

    def __init__(self, tree: CatalogTree, strict: bool = False):
        """``strict``: queries of at most ``min_len`` vertices raise
        PathTooShort instead of being answered."""
        n = max(2, tree.n)
        logn = math.log2(n)
        self.tree = tree
        self.strict = strict
        self.min_len = math.floor(logn * logn / 2)
        self.paths = heavy_path_decompose(tree)
        self.path_of = {}
        for pi, p in enumerate(self.paths):
            for v in p:
                self.path_of[v] = pi
        block = max(1, math.ceil(logn))
        self.structures = [PathDS(p, tree.vertices, block) for p in self.paths]
        self.stored_entries = sum(s.stored_entries for s in self.structures)

    def query(self, q: PathQuery, counters=None) -> QueryAnswer:
        path = q.path
        check_path(self.tree, path)
        if self.strict and len(path) <= self.min_len:
            raise PathTooShort(
                f"|path|={len(path)} <= {self.min_len}; use the dispatcher"
            )
        runs = []
        for v in path:
            pi = self.path_of[v]
            if runs and runs[-1][0] == pi:
                runs[-1][1].append(v)
            else:
                runs.append((pi, [v]))
        out = {}
        for pi, run in runs:
            # One heavy-path structure per run; the blocked structure's inner
            # block queries are accounted as stabbing work, not structures.
            before = counters.structures_queried if counters is not None else 0
            ans = self.structures[pi].query(PathQuery(q.q, tuple(run)), counters)
            if counters is not None:
                counters.structures_queried = before + 1
            out.update(ans.by_vertex)
        return QueryAnswer(out)
