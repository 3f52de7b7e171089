"""IntervalTree1D against the plain per-node builder of
``helpers.interval_tree_reference``: the same tree node by node, and the
same stab hits and node visits; a flat leaf, and a node with at most one
crossing interval, keeps a single list for both orders.  Stab hits also
match a brute-force filter, and a tree of at most ``FLAT`` intervals is
stabbed in one node visit."""

import math

from hypothesis import given, settings, strategies as st

from ofc2d.counters import WorkCounters
from ofc2d.intervals import FLAT, IntervalTree1D

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
    # A flat leaf, or a node with at most one crossing interval, keeps one
    # list, not two.
    assert all(n.by_lo is n.by_hi_desc for n in nodes(tree)
               if n.center == math.inf or len(n.by_lo) <= 1)
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
    # At most FLAT intervals are one flat leaf: no children, one list sorted
    # by lo, and a center above every query.
    one = IntervalTree1D([(3, 7, "a")])
    assert one.center == math.inf and one.left is None and one.right is None
    assert one.by_lo == [(3, 7, "a")] and one.by_lo is one.by_hi_desc


BIG = 2 ** 63


@st.composite
def interval_sets(draw):
    """Either 0 to FLAT + 3 intervals on small or huge integer endpoints, or
    a larger set on a few endpoints, so equal endpoints repeat; payloads are
    the input positions."""
    if draw(st.booleans()):
        coord = st.one_of(st.integers(-8, 8), st.integers(-BIG + 2, BIG - 2))
        count = draw(st.integers(0, FLAT + 3))
    else:
        top = draw(st.integers(1, 6))
        coord = st.integers(0, top)
        count = draw(st.integers(FLAT + 4, 40))
    out = []
    for i in range(count):
        a, b = draw(coord), draw(coord)
        if a == b:
            b += 1
        out.append((min(a, b), max(a, b), i))
    return out


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(interval_sets())
def test_stab_matches_brute_force(items):
    tree = IntervalTree1D(items)
    qs = {-BIG, BIG}
    for lo, hi, _ in items:
        qs.update((lo - 1, lo, lo + 1, hi - 1, hi, hi + 1))
    for q in sorted(qs):
        c = WorkCounters()
        got = sorted(tree.stab(q, [], c))
        assert got == sorted(p for lo, hi, p in items if lo <= q < hi)
        if len(items) <= FLAT:
            assert c.stab_nodes_visited == 1
