"""Per-query work counters.

Each query call owns one ``WorkCounters`` instance; structures only ever
increment the counters handed to them.  Queries are not read-only, though:
they fill lazy caches (stabbing structures, conflict indexes) and grow
``stored_entries``, so one structure must not be queried from several threads
at once.  The counters are the portable cost model used by the benchmark
harness (wall time is reported but never asserted on).
"""

from dataclasses import dataclass


@dataclass
class WorkCounters:
    stab_nodes_visited: int = 0
    pl_comparisons: int = 0
    structures_queried: int = 0
    cells_located: int = 0

    @property
    def total(self):
        """Scalar work measure: point-location comparisons plus stabbing nodes."""
        return self.stab_nodes_visited + self.pl_comparisons
