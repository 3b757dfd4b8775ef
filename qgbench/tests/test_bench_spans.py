"""Span arithmetic: union, self time, busy time, parent links, tail percentiles."""

import math

import pytest

import costs
import layers
import spans


def make(tr, name, start, end, parent=spans.NO_PARENT):
    """Append a finished span with explicit times."""
    idx = len(tr)
    tr.name_id.append(tr._intern(name))
    tr.parent.append(parent)
    tr.start.append(start)
    tr.end.append(end)
    for arr in (tr.rows, tr.nbytes):
        arr.append(0)
    for arr in (tr.flop, tr.moved):
        arr.append(0.0)
    return idx


def test_union_length_counts_overlap_once():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert spans.union_length([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert spans.union_length([(0.0, 5.0), (1.0, 2.0), (3.0, 4.0)]) == 5.0
    assert spans.union_length([(1.0, 2.0), (0.0, 1.0)]) == 2.0


def test_self_time_subtracts_children():
    tr = spans.Tracer()
    root = make(tr, "a", 0.0, 10.0)
    make(tr, "b", 1.0, 3.0, root)
    make(tr, "c", 4.0, 8.0, root)
    kids = tr.children()
    assert spans.self_time(tr, root, kids) == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    tr = spans.Tracer()
    root = make(tr, "a", 0.0, 10.0)
    make(tr, "b", 1.0, 5.0, root)
    make(tr, "b", 3.0, 6.0, root)      # overlaps the first child
    make(tr, "c", 9.0, 12.0, root)     # runs past the parent's end
    kids = tr.children()
    assert spans.self_time(tr, root, kids) == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_ignores_grandchildren():
    tr = spans.Tracer()
    root = make(tr, "a", 0.0, 10.0)
    child = make(tr, "b", 2.0, 6.0, root)
    make(tr, "c", 3.0, 4.0, child)
    kids = tr.children()
    assert spans.self_time(tr, root, kids) == pytest.approx(6.0)
    assert spans.self_time(tr, child, kids) == pytest.approx(3.0)


def test_busy_time_merges_nested_spans_of_one_name():
    tr = spans.Tracer()
    outer = make(tr, "f", 0.0, 4.0)
    make(tr, "f", 1.0, 2.0, outer)
    make(tr, "f", 6.0, 7.0)
    assert spans.busy_time(tr, "f") == pytest.approx(5.0)
    assert spans.busy_time(tr, "missing") == 0.0


def test_tracer_links_parents_and_ancestors():
    tr = spans.Tracer()
    with tr.span("outer") as a:
        with tr.span("mid") as b:
            with tr.span("inner") as c:
                pass
        with tr.span("mid") as d:
            pass
    assert [tr.parent[i] for i in (a, b, c, d)] == [spans.NO_PARENT, a, b, a]
    assert tr.has_ancestor(c, "outer") and tr.has_ancestor(c, "mid")
    assert not tr.has_ancestor(a, "outer")
    assert tr.indices("mid") == [b, d]
    assert all(tr.end[i] >= tr.start[i] for i in (a, b, c, d))


def test_patched_wraps_and_restores():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    original = Owner.f
    tr = spans.Tracer()
    with spans.patched(tr, [("owner.f", [(Owner, "f")], None)]):
        assert Owner.f(1) == 2
        assert Owner.f is not original
    assert Owner.f is original
    assert tr.indices("owner.f") == [0]


def test_tail_stats_picks_highest_level_with_ten_beyond():
    assert layers.tail_stats([]) == (0.0, 0.0, 0.0, 0)
    xs = list(range(1, 1001))          # 1000 samples
    median, tail, level, n = layers.tail_stats(xs)
    assert n == 1000 and median == 500.5
    assert (tail, level) == (990, 99.0)   # p99.9 would leave only 1 beyond
    median, tail, level, n = layers.tail_stats(list(range(1, 101)))
    assert (tail, level) == (90, 90.0)
    median, tail, level, n = layers.tail_stats([1.0] * 5)
    assert (median, tail, level, n) == (1.0, 0.0, 0.0, 5)


def test_computed_costs():
    assert costs.gemm(2, 3, 4) == (48.0, 8.0 * (6 + 12 + 8))
    flop, moved = costs.build_state_batch(10)
    assert flop == 800 and moved == 3200
    sizes = [24, 128, 1]
    fwd, _ = costs.forward(sizes, 5)
    assert fwd == 2 * 5 * (24 * 128 + 128 * 1)
    back, _ = costs.param_backward(sizes, 5)
    assert back == 2 * 5 * (24 * 128 + 128 * 1) + 2 * 5 * 128 * 1
    inp, _ = costs.input_backward(sizes, 1)
    assert inp == 2 * (24 * 128 + 128 * 1)
    assert not math.isnan(fwd / costs.forward(sizes, 5)[1])


def test_paused_tracer_records_nothing():
    class Owner:
        @staticmethod
        def f():
            return 3

    tr = spans.Tracer()
    with spans.patched(tr, [("owner.f", [(Owner, "f")], None)]):
        with tr.pause():
            assert Owner.f() == 3
        assert len(tr) == 0
        Owner.f()
    assert len(tr) == 1
