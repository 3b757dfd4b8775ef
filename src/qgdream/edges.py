"""Canonical edge indexing for the 4-vertex, 2-mode complete colored graph.

A graph is a flat vector of 24 real edge weights. Edges are identified by
an unordered vertex pair and one mode label per endpoint. The canonical
flat index is

    index = 4 * pair_rank + 2 * mode_lo + mode_hi

where pair_rank runs over the lexicographic pair order
(0,1), (0,2), (0,3), (1,2), (1,3), (2,3), mode_lo is the mode of the
lower-indexed vertex and mode_hi the mode of the higher-indexed one.
The full table is documented in docs/formats.md.

Relabelling the four vertices permutes the qubits of the graph's state.
EDGE_PERMUTATIONS holds one row per vertex permutation (24 rows, the
identity first): ``g[..., EDGE_PERMUTATIONS[k]]`` is the graph ``g`` with
its vertices relabelled by ``VERTEX_PERMUTATIONS[k]``, each edge keeping
the mode at each of its endpoints. Together with a global sign flip of
the weights these relabellings form the 48-element symmetry group under
which every property in states.py is exactly invariant.
"""

from __future__ import annotations

import itertools

import numpy as np

N_VERTICES = 4
N_EDGES = 24
N_KETS = 16

#: Unordered vertex pairs in canonical (lexicographic) order.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

_PAIR_RANK = {p: r for r, p in enumerate(PAIRS)}

#: Perfect-matching directions, in row order of the 3x16 probability arrays.
DIRECTIONS = ("H", "V", "D")

#: Vertex pairings per direction: H = (01)(23), V = (03)(12), D = (02)(13).
DIRECTION_PAIRINGS = {
    "H": ((0, 1), (2, 3)),
    "V": ((0, 3), (1, 2)),
    "D": ((0, 2), (1, 3)),
}


def canonical_edge_index(pair, mode_lo, mode_hi):
    """Flat index in [0, 24) of the edge (pair, mode_lo, mode_hi).

    Raises ValueError for vertices outside {0,1,2,3}, equal vertices, or
    modes outside {0,1}. The pair may be given in either vertex order; the
    modes always refer to the lower/higher-indexed vertex respectively.
    """
    a, b = pair
    if a == b or not (0 <= a < N_VERTICES and 0 <= b < N_VERTICES):
        raise ValueError(f"invalid vertex pair {pair!r}")
    if mode_lo not in (0, 1) or mode_hi not in (0, 1):
        raise ValueError(f"invalid modes ({mode_lo}, {mode_hi})")
    if a > b:
        a, b = b, a
    return 4 * _PAIR_RANK[(a, b)] + 2 * mode_lo + mode_hi


def edge_key(index):
    """Inverse of canonical_edge_index: index -> (pair, mode_lo, mode_hi)."""
    if not 0 <= index < N_EDGES:
        raise ValueError(f"edge index {index} out of range")
    return PAIRS[index // 4], (index % 4) // 2, index % 2


def ket_bits(ket):
    """Mode bits (m0, m1, m2, m3) of a ket index; m0 is the most significant."""
    return tuple((ket >> (3 - q)) & 1 for q in range(4))


def _matching_edges(direction, bits):
    """Edge indices of the two mode-consistent edges of one PM direction."""
    (a, b), (c, d) = DIRECTION_PAIRINGS[direction]
    return (
        canonical_edge_index((a, b), bits[a], bits[b]),
        canonical_edge_index((c, d), bits[c], bits[d]),
    )


def _build_matching_tables():
    """The 48 matching terms, by (direction, ket) and by edge.

    Returns the (3,16) index arrays E1, E2 of the edges of matching
    (direction, ket), and the (24, 4) kets and partner edges of the terms
    each edge lies in, in direction-then-ket order.
    """
    e1 = np.empty((3, N_KETS), dtype=np.intp)
    e2 = np.empty((3, N_KETS), dtype=np.intp)
    terms = [[] for _ in range(N_EDGES)]
    for d, direction in enumerate(DIRECTIONS):
        for ket in range(N_KETS):
            a, b = _matching_edges(direction, ket_bits(ket))
            e1[d, ket], e2[d, ket] = a, b
            terms[a].append((ket, b))
            terms[b].append((ket, a))
    table = np.array(terms, dtype=np.intp)  # (24, 4, 2); ragged rows would raise
    return e1, e2, table[..., 0], table[..., 1]


#: For each (direction, ket): the two edge indices whose weight product is
#: that matching's contribution to the ket amplitude. Seen from the edges,
#: edge e appears in amplitude EDGE_TERM_KETS[e, t] multiplied by the weight
#: of EDGE_TERM_PARTNERS[e, t], t = 0..3, so d amp[k] / d w[e] is the sum of
#: w[partner] over e's terms with ket k.
MATCH_EDGE_1, MATCH_EDGE_2, EDGE_TERM_KETS, EDGE_TERM_PARTNERS = _build_matching_tables()


#: The 24 permutations of the vertices (0, 1, 2, 3), the identity first.
VERTEX_PERMUTATIONS = tuple(itertools.permutations(range(N_VERTICES)))


def _build_edge_permutations():
    """(24, 24) gather table: row k relabels the edges by VERTEX_PERMUTATIONS[k].

    Edge i = (a, b, m_a, m_b) of the relabelled graph takes the weight of
    edge (sigma(a), sigma(b)) carrying mode m_a at sigma(a) and m_b at sigma(b).
    """
    table = np.empty((len(VERTEX_PERMUTATIONS), N_EDGES), dtype=np.intp)
    for k, sigma in enumerate(VERTEX_PERMUTATIONS):
        for i in range(N_EDGES):
            (a, b), m_a, m_b = edge_key(i)
            if sigma[a] < sigma[b]:
                table[k, i] = canonical_edge_index((sigma[a], sigma[b]), m_a, m_b)
            else:
                table[k, i] = canonical_edge_index((sigma[b], sigma[a]), m_b, m_a)
    return table


#: Edge index table of the 24 vertex relabellings; see the module docstring.
EDGE_PERMUTATIONS = _build_edge_permutations()
