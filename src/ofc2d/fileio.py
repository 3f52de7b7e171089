"""Line-oriented text formats for catalog instances and query workloads.

Catalog file::

    tree <n_vertices> <degree>          (or ``graph``)
    root <vid>                          (tree only)
    adj <vid> <neighbor> <neighbor>...  (one line per vertex)
    vertex <vid> <n_rects>              (one section per vertex)
    bbox <xlo> <xhi> <ylo> <yhi>
    rect <id> <xlo> <xhi> <ylo> <yhi>   (n_rects lines)

Nothing but blank lines and comments may follow the last vertex section.

Query file, one query per line::

    path <q.x> <q.y> <v1> <v2> ...
    subgraph <q.x> <q.y> { <v1> <v2> ... }

A query with no vertices (``path 1 1``, ``subgraph 1 1 { }``) is an empty
query, which every structure answers with no vertices.

Witness sidecar, one line per rectangle::

    rect <id> <class> <group> <layer> <vertex>

Files are read one line at a time; blank lines and ``#`` comments are
ignored everywhere.  Every malformed line, including a field value that no
``Rect`` or ``PathQuery`` accepts, raises ParseError with the path and the
1-based number of that line.  The rect lines of a vertex section, most of a
catalog file, are read in one loop that passes each line through ``_fields``
and ``Rect`` and raises the same errors, at the same lines, as every other
line.  Checks that span lines of a catalog (unknown root or neighbour, a
repeated neighbour, asymmetric adjacency, mixed bboxes) stay in the
``CatalogTree`` and ``CatalogGraph`` constructors, which raise ValueError.
"""

from __future__ import annotations

from itertools import islice

from .catalog.model import (
    CatalogGraph,
    CatalogTree,
    CatalogVertex,
    PathQuery,
    SubgraphQuery,
)
from .errors import ParseError
from .geometry import Point, Rect, Tiling


def _records(path):
    """Yield (line number, tokens) for each line with tokens before its ``#``."""
    with open(path) as f:
        for no, line in enumerate(f, 1):
            if "#" in line:
                line = line.split("#", 1)[0]
            toks = line.split()
            if toks:
                yield no, toks


def _fields(path, no, toks, keyword, count=None, least=0):
    """The integer fields after ``keyword``: ``count`` or at least ``least``."""
    if toks[0] != keyword:
        raise ParseError(path, no, f"expected '{keyword}', got '{toks[0]}'")
    try:
        vals = list(map(int, toks[1:]))
    except ValueError:
        raise ParseError(path, no, f"non-integer field in {toks!r}") from None
    if len(vals) < least or (count is not None and len(vals) != count):
        raise ParseError(path, no, f"'{keyword}' has {len(vals)} integer fields, "
                         f"needs {count or f'at least {least}'}")
    return vals


def _make(path, no, cls, *args):
    """``cls(*args)``, with a bad value reported as a ParseError at line ``no``."""
    try:
        return cls(*args)
    except (ValueError, OverflowError) as e:
        raise ParseError(path, no, str(e)) from e


def save_catalog(cat, path):
    is_tree = isinstance(cat, CatalogTree)
    degree = cat.degree if isinstance(cat, CatalogGraph) else max(
        (len(v.adjacency) for v in cat.vertices.values()), default=0)
    with open(path, "w") as f:
        f.write(f"{'tree' if is_tree else 'graph'} {len(cat.vertices)} {degree}\n")
        if is_tree:
            f.write(f"root {cat.root}\n")
        for vid in sorted(cat.vertices):
            adj = " ".join(str(a) for a in cat.vertices[vid].adjacency)
            f.write(f"adj {vid} {adj}".rstrip() + "\n")
        for vid in sorted(cat.vertices):
            t = cat.vertices[vid].tiling
            f.write(f"vertex {vid} {len(t)}\n")
            b = t.bbox
            f.write(f"bbox {b.xlo} {b.xhi} {b.ylo} {b.yhi}\n")
            for r in t.rects:
                f.write(f"rect {r.id} {r.xlo} {r.xhi} {r.ylo} {r.yhi}\n")


def load_catalog(path):
    records = _records(path)

    def take(keyword, count=None, least=0):
        """Fields of the next record; its line number becomes ``no``."""
        nonlocal no
        rec = next(records, None)
        if rec is None:
            raise ParseError(path, no + 1, "unexpected end of file")
        no, toks = rec
        return _fields(path, no, toks, keyword, count, least)

    no, header = next(records, (1, None))
    if header is None or header[0] not in ("tree", "graph"):
        raise ParseError(path, no, "expected a 'tree' or 'graph' header")
    kind = header[0]
    n_vertices, degree = _fields(path, no, header, kind, 2)
    if n_vertices < 0:
        raise ParseError(path, no, f"negative vertex count {n_vertices}")
    root = take("root", 1)[0] if kind == "tree" else None
    adjacency = {}
    for _ in range(n_vertices):
        vid, *nbrs = take("adj", least=1)
        if vid in adjacency:
            raise ParseError(path, no, f"second adj line for vertex {vid}")
        adjacency[vid] = tuple(nbrs)
    vertices = {}
    for _ in range(n_vertices):
        vid, k = take("vertex", 2)
        if vid not in adjacency:
            raise ParseError(path, no, f"tiling for unknown vertex {vid}")
        if vid in vertices:
            raise ParseError(path, no, f"second section for vertex {vid}")
        if k < 1:
            raise ParseError(path, no, f"vertex {vid} needs at least 1 rect")
        coords = take("bbox", 4)
        bbox = _make(path, no, Rect, -1, *coords)
        # Rect lines are most of a file: ``take`` and ``_make`` are inlined
        # here, with the same errors at the same line numbers.
        rects = []
        try:
            for no, toks in islice(records, k):
                rects.append(Rect(*_fields(path, no, toks, "rect", 5)))
        except (ValueError, OverflowError) as e:
            raise ParseError(path, no, str(e)) from e
        if len(rects) < k:
            raise ParseError(path, no + 1, "unexpected end of file")
        vertices[vid] = CatalogVertex(vid, Tiling(bbox, rects), adjacency[vid])
    rec = next(records, None)
    if rec is not None:
        raise ParseError(path, rec[0], f"'{rec[1][0]}' after the last vertex section")
    if kind == "tree":
        return CatalogTree(vertices, root)
    return CatalogGraph(vertices, degree)


def save_queries(queries, path):
    with open(path, "w") as f:
        for q in queries:
            if isinstance(q, PathQuery):
                f.write(f"path {q.q.x} {q.q.y} " + " ".join(map(str, q.path)) + "\n")
            else:
                inner = " ".join(str(v) for v in sorted(q.vertex_set))
                f.write(f"subgraph {q.q.x} {q.q.y} {{ {inner} }}\n")


def load_queries(path):
    out = []
    for no, toks in _records(path):
        if toks[0] == "subgraph":
            if len(toks) < 5 or toks[3] != "{" or toks[-1] != "}":
                raise ParseError(path, no, "subgraph query needs { v... }")
            x, y, *vs = _fields(path, no, toks[:3] + toks[4:-1], "subgraph")
            out.append(SubgraphQuery(Point(x, y), frozenset(vs)))
        else:
            x, y, *vs = _fields(path, no, toks, "path", least=2)
            out.append(_make(path, no, PathQuery, Point(x, y), tuple(vs)))
    return out


def save_witness(wit, path):
    with open(path, "w") as f:
        for rid in sorted(wit.boxes):
            i, j, layer = wit.shape[rid]
            f.write(f"rect {rid} {i} {j} {layer} {wit.vertex_of[rid]}\n")


def load_witness_shapes(path):
    """Sidecar loader: rect id -> (class, group, layer, vertex)."""
    out = {}
    for no, toks in _records(path):
        rid, *shape = _fields(path, no, toks, "rect", 5)
        out[rid] = tuple(shape)
    return out
