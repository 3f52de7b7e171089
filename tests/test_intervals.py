"""IntervalTree1D against the plain per-node builder of
``helpers.interval_tree_reference``: the same tree node by node, and the
same stab hits and node visits; a node with at most one crossing interval
keeps a single list for both orders."""

from hypothesis import given, settings, strategies as st

from ofc2d.counters import WorkCounters
from ofc2d.intervals import IntervalTree1D

from helpers import interval_tree_reference


def shape(node):
    """Every field of a tree, children included, as nested tuples."""
    if node is None:
        return None
    return (node.center, node.by_lo, node.by_hi_desc, node.size,
            shape(node.left), shape(node.right))


def nodes(node):
    if node is not None:
        yield node
        yield from nodes(node.left)
        yield from nodes(node.right)


@st.composite
def intervals(draw):
    """Half-open (lo, hi, payload) intervals on a few integer endpoints, so
    equal los, equal his and whole duplicates are common; payloads are the
    input positions, so any reordering of ties shows."""
    top = draw(st.integers(1, 12))
    out = []
    for i in range(draw(st.integers(0, 40))):
        lo = draw(st.integers(0, top - 1))
        out.append((lo, draw(st.integers(lo + 1, top)), i))
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(intervals(), st.lists(st.integers(-1, 13), max_size=8))
def test_matches_reference_builder(items, qs):
    tree, ref = IntervalTree1D(items), interval_tree_reference(items)
    assert shape(tree) == shape(ref)
    # A node with at most one crossing interval keeps one list, not two.
    assert all(n.by_lo is n.by_hi_desc for n in nodes(tree) if len(n.by_lo) <= 1)
    for q in qs:
        c, rc = WorkCounters(), WorkCounters()
        assert tree.stab(q, [], c) == ref.stab(q, [], rc)
        assert c.stab_nodes_visited == rc.stab_nodes_visited


def test_single_and_empty_trees():
    for items in ([], [(3, 7, "a")], [(-2, -1, None)]):
        tree, ref = IntervalTree1D(items), interval_tree_reference(items)
        assert shape(tree) == shape(ref)
        for q in range(-3, 9):
            assert tree.stab(q, []) == ref.stab(q, [])
    assert IntervalTree1D([(3, 7, "a")]).center == 3
