"""Ground truth: independent per-vertex point location by linear scan.

Shares nothing with the indexed structures beyond rect containment, so a bug
in any fast path cannot leak into the reference answers.
"""

from .catalog.model import QueryAnswer, check_vertices
from .geometry import tiling_locate_naive


def oracle_query(catalog, q, vertices) -> QueryAnswer:
    # Every vertex is checked before any is located, so an unknown vertex
    # raises UnknownVertex even for a point outside the bbox.
    check_vertices(catalog.vertices, vertices)
    return QueryAnswer({vid: tiling_locate_naive(catalog.vertices[vid].tiling, q)
                        for vid in vertices})
