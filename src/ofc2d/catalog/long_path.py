"""Structure for long paths in tall catalog trees.

The tree is split by heavy-path decomposition; each heavy path carries one
blocked path store (``PathDS``).  A query path crosses at most ~2 log n heavy
paths (once per direction from its apex), each in one contiguous run, so the
query cost is about log² n plus the blocked stores' cost along the path.

The path is checked by those runs, not vertex by vertex: each run must equal
a contiguous slice of its heavy path, read either way (one tuple comparison),
and consecutive runs must meet at a tree edge.  For a path of distinct
vertices this holds exactly when each vertex is adjacent to the next, as
``check_path`` asks.  A path the runs refuse, or with a vertex no heavy path
holds, goes to ``check_path``, which words the error.
"""

from __future__ import annotations

from itertools import groupby

from ..errors import InvalidParameter
from .model import (CatalogTree, PathQuery, QueryAnswer, check_path, heavy_path_decompose,
                    longest_path)
from .path_ds import PathDS


class LongPathDS:
    """Heavy-path stores of a catalog tree.

    ``min_len`` is the shortest path the structure is asked to answer, so
    the stores are built only when the tree has a path of at least
    ``min_len`` vertices.  On a tree without one, ``paths``, ``path_of`` and
    ``structures`` are empty, ``stored_entries`` is 0 and every query raises
    ``InvalidParameter`` once its path is checked.  With the default
    ``min_len`` of 1 every tree gets its stores."""

    __slots__ = ("tree", "min_len", "paths", "path_of", "structures", "stored_entries")

    def __init__(self, tree: CatalogTree, min_len: int = 1):
        self.tree = tree
        self.min_len = min_len
        built = longest_path(tree) >= min_len
        self.paths = heavy_path_decompose(tree) if built else []
        self.path_of = {}
        for pi, p in enumerate(self.paths):
            for v in p:
                self.path_of[v] = pi
        self.structures = [PathDS(tree, p) for p in self.paths]
        self.stored_entries = sum(s.stored_entries for s in self.structures)

    def query(self, q: PathQuery, counters=None) -> QueryAnswer:
        runs = self._runs(q.path)
        if runs is None:
            check_path(self.tree, q.path)
            # On a tree without stores every vertex is unknown to path_of.
            assert not self.structures, f"run check refused the walk {q.path}"
        if not self.structures:
            raise InvalidParameter(f"every path of this tree is shorter than {self.min_len}"
                                   " vertices, so no long-path store was built")
        out = {}
        # A run counts as one structure queried.
        for s, first, last in runs:
            s.query(q.q, first, last, out, counters)
            if counters is not None:
                counters.structures_queried += 1
        return QueryAnswer(out)

    def _runs(self, path):
        """(store, first vertex, last vertex) of each run of ``path`` on one
        heavy path, or None unless every vertex lies on a heavy path, each run
        is a contiguous slice of its heavy path, read either way, and each
        run's last vertex is a tree neighbour of the next run's first."""
        parent = self.tree.parent
        out = []
        prev = None
        try:
            for pi, run in groupby(path, self.path_of.__getitem__):
                run = tuple(run)
                s = self.structures[pi]
                first, last = run[0], run[-1]
                lo, hi = s.pos[first], s.pos[last]
                if (s.chain[lo:hi + 1] != run if lo <= hi
                        else s.chain[hi:lo + 1] != run[::-1]):
                    return None
                if prev is not None and parent[prev] != first and parent[first] != prev:
                    return None
                out.append((s, first, last))
                prev = last
        except KeyError:
            return None
        return out
