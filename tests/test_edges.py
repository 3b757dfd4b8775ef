import itertools

import pytest

from qgdream.edges import (
    DIRECTIONS,
    EDGE_PERMUTATIONS,
    EDGE_TERM_KETS,
    EDGE_TERM_PARTNERS,
    MATCH_EDGE_1,
    MATCH_EDGE_2,
    PAIRS,
    canonical_edge_index,
    edge_key,
    ket_bits,
)


def test_first_and_last_index():
    assert canonical_edge_index((0, 1), 0, 0) == 0
    assert canonical_edge_index((2, 3), 1, 1) == 23


def test_derived_index_from_enumeration():
    # position of ((0,3),1,0) in the enumerated canonical order
    order = [(pair, lo, hi) for pair in PAIRS for lo in (0, 1) for hi in (0, 1)]
    assert order.index(((0, 3), 1, 0)) == 10
    assert canonical_edge_index((0, 3), 1, 0) == 10


def test_bijection():
    seen = {canonical_edge_index(pair, lo, hi)
            for pair in PAIRS for lo in (0, 1) for hi in (0, 1)}
    assert seen == set(range(24))
    for idx in range(24):
        pair, lo, hi = edge_key(idx)
        assert canonical_edge_index(pair, lo, hi) == idx


def test_reversed_pair_order_accepted():
    assert canonical_edge_index((3, 0), 1, 0) == canonical_edge_index((0, 3), 1, 0)


@pytest.mark.parametrize("pair,lo,hi", [((0, 4), 0, 0), ((1, 1), 0, 0),
                                        ((0, 1), 2, 0), ((0, 1), 0, -1)])
def test_invalid_inputs_raise(pair, lo, hi):
    with pytest.raises(ValueError):
        canonical_edge_index(pair, lo, hi)


@pytest.mark.parametrize("index", [-1, 24])
def test_edge_index_out_of_range_raises(index):
    with pytest.raises(ValueError, match=f"edge index {index} out of range"):
        edge_key(index)


def test_ket_bits_msb_first():
    assert ket_bits(0b1000) == (1, 0, 0, 0)
    assert ket_bits(0b0001) == (0, 0, 0, 1)


def test_matching_tables_cover_all_directions():
    # each matching's two edges use disjoint vertex pairs covering all 4 vertices
    assert MATCH_EDGE_1.shape == MATCH_EDGE_2.shape == (3, 16)
    for d, _ in enumerate(DIRECTIONS):
        for ket in range(16):
            (p1, _, _), (p2, _, _) = edge_key(MATCH_EDGE_1[d, ket]), edge_key(MATCH_EDGE_2[d, ket])
            assert sorted(itertools.chain(p1, p2)) == [0, 1, 2, 3]


def test_edge_term_tables_list_every_matching_term():
    # each edge lies in exactly 4 of the 48 terms, and the 24 x 4 entries
    # are those terms, each seen once from either of its two edges
    assert EDGE_TERM_KETS.shape == EDGE_TERM_PARTNERS.shape == (24, 4)
    from_tables = [(e, ket, partner) for e in range(24)
                   for ket, partner in zip(EDGE_TERM_KETS[e], EDGE_TERM_PARTNERS[e])]
    from_matchings = []
    for d in range(3):
        for ket in range(16):
            e1, e2 = MATCH_EDGE_1[d, ket], MATCH_EDGE_2[d, ket]
            from_matchings += [(e1, ket, e2), (e2, ket, e1)]
    assert sorted(from_tables) == sorted(from_matchings)
    assert len(set(from_tables)) == 96


def test_edge_permutations_form_a_group():
    rows = {tuple(row) for row in EDGE_PERMUTATIONS}
    assert EDGE_PERMUTATIONS.shape == (24, 24)
    assert len(rows) == 24
    assert all(sorted(row) == list(range(24)) for row in rows)
    assert tuple(EDGE_PERMUTATIONS[0]) == tuple(range(24))
    for p in EDGE_PERMUTATIONS:
        for q in EDGE_PERMUTATIONS:
            assert tuple(q[p]) in rows
