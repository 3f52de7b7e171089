"""Structure for long paths in tall catalog trees.

The tree is split by heavy-path decomposition; each heavy path carries one
blocked path store (``PathDS``).  A query path is checked once, here; it
crosses at most ~2 log n heavy paths (once per direction from its apex), each
in one contiguous run, so the query cost is about log² n plus the blocked
stores' cost along the path.
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
        check_path(self.tree, q.path)
        if not self.structures:
            raise InvalidParameter(f"every path of this tree is shorter than {self.min_len}"
                                   " vertices, so no long-path store was built")
        out = {}
        # A checked walk has no repeated vertex, so it meets each heavy path
        # in one contiguous run; a run counts as one structure queried.
        for pi, run in groupby(q.path, self.path_of.__getitem__):
            run = tuple(run)
            self.structures[pi].query(q.q, run[0], run[-1], out, counters)
            if counters is not None:
                counters.structures_queried += 1
        return QueryAnswer(out)
