import random

import pytest

from ofc2d.catalog.model import PathQuery, SubgraphQuery
from ofc2d.errors import ParseError
from ofc2d.fileio import (
    load_catalog,
    load_queries,
    load_witness_shapes,
    save_catalog,
    save_queries,
    save_witness,
)
from ofc2d.gen import (
    random_graph_catalog,
    random_point,
    random_tree_catalog,
)
from ofc2d.geometry import Point


def same_catalog(a, b):
    if sorted(a.vertices) != sorted(b.vertices):
        return False
    for vid in a.vertices:
        va, vb = a.vertices[vid], b.vertices[vid]
        if va.adjacency != vb.adjacency or va.tiling.rects != vb.tiling.rects:
            return False
    return True


def test_tree_round_trip(tmp_path):
    rng = random.Random(1)
    cat = random_tree_catalog(20, 64, 6, rng)
    p = tmp_path / "t.cat"
    save_catalog(cat, p)
    back = load_catalog(p)
    assert back.root == cat.root
    assert same_catalog(cat, back)
    # Byte-identical re-save.
    p2 = tmp_path / "t2.cat"
    save_catalog(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_graph_round_trip(tmp_path):
    rng = random.Random(2)
    g = random_graph_catalog(12, 48, 3, rng)
    p = tmp_path / "g.cat"
    save_catalog(g, p)
    back = load_catalog(p)
    assert back.degree == g.degree
    assert same_catalog(g, back)


def test_query_round_trip(tmp_path):
    rng = random.Random(3)
    cat = random_tree_catalog(10, 32, 4, rng)
    qs = [
        PathQuery(random_point(cat.bbox, rng), (0, 1)),
        SubgraphQuery(random_point(cat.bbox, rng), frozenset({0, 1, 2})),
        PathQuery(Point(0, 0), (5,)),
        # Empty queries, written as "path 1 1" and "subgraph 1 1 {  }".
        PathQuery(Point(1, 1), ()),
        SubgraphQuery(Point(1, 1), frozenset()),
    ]
    p = tmp_path / "q.txt"
    save_queries(qs, p)
    assert load_queries(p) == qs


def test_witness_round_trip(tmp_path):
    from ofc2d.hardgen import gen_short_tree_instance

    _, wit = gen_short_tree_instance(2 ** 12, 6)
    p = tmp_path / "w.txt"
    save_witness(wit, p)
    shapes = load_witness_shapes(p)
    assert len(shapes) == len(wit.boxes)
    rid = min(wit.boxes)
    assert shapes[rid][:3] == wit.shape[rid]
    assert shapes[rid][3] == wit.vertex_of[rid]


ONE = "tree 1 0\nroot 0\nadj 0\nvertex 0 1\nbbox 0 8 0 8\n"
TWO = ("graph 2 1\nadj 0 1\nadj 1 0\n"
       "vertex 0 1\nbbox 0 8 0 8\nrect 0 0 8 0 8\n"
       "vertex 1 1\nbbox 0 8 0 8\nrect 1 0 8 0 8\n")


@pytest.mark.parametrize("text,lineno", [
    ("nonsense 1 2\n", 1),
    ("tree 1 2\nroot 0\nadj 0\nvertex 0 one\n", 4),
    ("tree 2 2\nroot 0\nadj 0 1\n", 4),  # truncated
    ("tree 1 0\nroot 0\nadj 0\nvertex 0 1\nbbox 0 4 0\n", 5),
    ("", 1),  # empty file
    ("tree -1 0\nroot 0\n", 1),  # negative vertex count
    ("tree 1 0\nroot 0\nadj\n", 3),  # adj with no vertex id
    ("tree 1 0\nroot 0 1\n", 2),
    ("tree 1 0\nroot 0\nadj 0\nvertex 0\n", 4),
    (ONE + "rect 0 0 0 0 8\n", 6),  # zero width
    (ONE + "rect 0 0 100000000000000000000 0 8\n", 6),  # past 64 bits
    ("tree 1 0\nroot 0\nadj 0\nvertex 0 1\nbbox 0 8 8 8\n", 5),  # zero height
    ("tree 1 0\nroot 0\nadj 0\nvertex 0 0\nbbox 0 8 0 8\n", 4),  # no rects
    (TWO.replace("adj 1 0", "adj 0 1"), 3),  # repeated adj id
    (TWO.replace("vertex 1", "vertex 0"), 7),  # repeated vertex section
    pytest.param(TWO + "vertex 7 1\nbbox 0 9 0 9\nrect 2 0 9 0 9\ngarbage x\n", 10,
                 id="third-section"),
    pytest.param(TWO + "# trailing comment\n\ngarbage x\n", 12, id="trailing-garbage"),
])
def test_parse_errors_carry_line_numbers(tmp_path, text, lineno):
    p = tmp_path / "bad.cat"
    p.write_text(text)
    with pytest.raises(ParseError) as ei:
        load_catalog(p)
    assert ei.value.lineno == lineno


SECTION = "tree 1 0\nroot 0\nadj 0\nvertex 0 3\nbbox 0 8 0 8\n"
RECTS = ["rect 0 0 4 0 8\n", "rect 1 4 8 0 4\n", "rect 2 4 8 4 8\n"]


@pytest.mark.parametrize("line,lineno,message", [
    ("rct 1 4 8 0 4\n", 7, "expected 'rect', got 'rct'"),
    ("rect 1 4 8 0\n", 7, "'rect' has 4 integer fields, needs 5"),
    ("rect 1 4 8 0 4 9\n", 7, "'rect' has 6 integer fields, needs 5"),
    ("rect 1 4 8 0 x4\n", 7, "non-integer field in ['rect', '1', '4', '8', '0', 'x4']"),
    ("rect 1 4 4 0 4\n", 7, "degenerate rect Rect(id=1, xlo=4, xhi=4, ylo=0, yhi=4)"),
    ("rect 1 4 8 4 4\n", 7, "degenerate rect Rect(id=1, xlo=4, xhi=8, ylo=4, yhi=4)"),
    ("rect 1 4 100000000000000000000 0 4\n", 7,
     "coordinate 100000000000000000000 does not fit in 64 bits"),
    (None, 8, "unexpected end of file"),  # the count says 3, the file holds 2
], ids=["keyword", "four-fields", "six-fields", "non-integer", "zero-width",
        "zero-height", "past-64-bits", "end-of-file"])
def test_rect_line_errors(tmp_path, line, lineno, message):
    """``line`` replaces the second of three rect lines; None drops the third."""
    p = tmp_path / "bad.cat"
    p.write_text(SECTION + RECTS[0] + (RECTS[1] if line is None else line + RECTS[2]))
    with pytest.raises(ParseError) as ei:
        load_catalog(p)
    assert ei.value.lineno == lineno
    assert str(ei.value) == f"{p}:{lineno}: {message}"


def test_comments_between_rect_lines(tmp_path):
    noisy = SECTION + RECTS[0] + "# a comment\n\n" + RECTS[1] + RECTS[2].replace(
        "\n", "  # trailing\n")
    p = tmp_path / "noisy.cat"
    p.write_text(noisy)
    rects = load_catalog(p).vertices[0].tiling.rects
    assert [(r.id, *r.key()) for r in rects] == [
        (0, 0, 4, 0, 8), (1, 4, 8, 0, 4), (2, 4, 8, 4, 8)]
    p.write_text(noisy.replace("rect 2 4 8 4 8", "rect 2 4 8 4 4"))
    with pytest.raises(ParseError) as ei:
        load_catalog(p)
    assert ei.value.lineno == 10
    assert str(ei.value).endswith("degenerate rect Rect(id=2, xlo=4, xhi=8, ylo=4, yhi=4)")


@pytest.mark.parametrize("make,shape", [(random_tree_catalog, 6), (random_graph_catalog, 3)],
                         ids=["tree", "graph"])
def test_round_trip_keeps_every_rect_and_bbox(tmp_path, make, shape):
    # ``shape`` is the tree's height or the graph's degree.
    cat = make(24, 2 ** 10, shape, random.Random(5))
    p = tmp_path / "c.cat"
    save_catalog(cat, p)
    back = load_catalog(p)
    for vid, v in cat.vertices.items():
        t, u = v.tiling, back.vertices[vid].tiling
        assert (u.bbox.id, *u.bbox.key()) == (t.bbox.id, *t.bbox.key())
        assert [(r.id, *r.key()) for r in u.rects] == [(r.id, *r.key()) for r in t.rects]


def test_query_parse_errors(tmp_path):
    p = tmp_path / "bad.q"
    p.write_text("# comment\n\npath 1\n")
    with pytest.raises(ParseError) as ei:
        load_queries(p)
    assert ei.value.lineno == 3
    p.write_text("subgraph 1 2 [ 3 ]\n")
    with pytest.raises(ParseError):
        load_queries(p)
    p.write_text("subgraph 1 { }\n")  # no y
    with pytest.raises(ParseError):
        load_queries(p)
    p.write_text("path 1 2 3\npath 1 2 3 3\n")  # repeated vertex
    with pytest.raises(ParseError) as ei:
        load_queries(p)
    assert ei.value.lineno == 2


def test_comments_and_blanks_ignored(tmp_path):
    rng = random.Random(4)
    cat = random_tree_catalog(4, 8, 2, rng)
    p = tmp_path / "c.cat"
    save_catalog(cat, p)
    noisy = tmp_path / "noisy.cat"
    noisy.write_text("# header comment\n\n" + p.read_text().replace(
        "root", "root", 1))
    assert same_catalog(load_catalog(noisy), cat)


@pytest.mark.parametrize("edit", [
    ("adj 2 0 1\n", "adj 2 0 1 7\n"),  # unknown neighbour
    ("adj 2 0 1\n", "adj 2 0\n"),  # asymmetric: 1 lists 2, 2 omits 1
    ("bbox 0 8 0 8\nrect 4", "bbox 0 8 0 9\nrect 4"),  # second bbox
    ("adj 2 0 1\n", "adj 2 0 1 1\n"),  # repeated neighbour
], ids=["unknown", "asymmetric", "bbox", "repeat"])
def test_load_rejects_inconsistent_catalog(tmp_path, edit):
    text = ("graph 3 3\nadj 0 2\nadj 1 2\nadj 2 0 1\n"
            "vertex 0 1\nbbox 0 8 0 8\nrect 0 0 8 0 8\n"
            "vertex 1 1\nbbox 0 8 0 8\nrect 1 0 8 0 8\n"
            "vertex 2 1\nbbox 0 8 0 8\nrect 4 0 8 0 8\n")
    p = tmp_path / "g.cat"
    p.write_text(text)
    load_catalog(p)
    p.write_text(text.replace(*edit))
    with pytest.raises(ValueError):
        load_catalog(p)


def test_load_rejects_unknown_root(tmp_path):
    p = tmp_path / "t.cat"
    p.write_text("tree 1 0\nroot 5\nadj 0\nvertex 0 1\nbbox 0 8 0 8\n"
                 "rect 0 0 8 0 8\n")
    with pytest.raises(ValueError, match="root 5"):
        load_catalog(p)
