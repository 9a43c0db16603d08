"""Brute-force GF(2) references that share no code with storagecodes.gf2.

A vector is an int, bit i being coordinate i.  A subspace is found as
the set of its vectors by XOR closure, and its reduced row-echelon
basis is read off that set; no elimination is run.  `subspaces` lists
the d-dimensional subspaces of a span in the order the docstring of
`gf2._subspace_words` states, so the tests can check that order rather
than reuse it.
"""

from functools import lru_cache
from typing import FrozenSet, Iterable, List, Tuple


def span(words: Iterable[int]) -> FrozenSet[int]:
    """Every XOR of a subset of words, 0 included."""
    vectors = {0}
    for w in words:
        vectors |= {v ^ w for v in vectors}
    return frozenset(vectors)


def rank(words: Iterable[int]) -> int:
    """The dimension of the span: log2 of its size."""
    return len(span(words)).bit_length() - 1


def rref(vectors: FrozenSet[int]) -> List[int]:
    """The RREF basis of a subspace given as its set of vectors.

    The pivots are the lowest set bits of the nonzero vectors, one per
    dimension; the row of pivot p is the one vector whose lowest bit is
    p and which is zero at every other pivot.  Rows come in pivot order.
    """
    pivots = sorted({v & -v for v in vectors if v})
    mask = sum(pivots)
    return [next(v for v in vectors if v & -v == p and v & mask == p) for p in pivots]


@lru_cache(maxsize=None)
def subspaces(words: Tuple[int, ...], d: int) -> Tuple[Tuple[int, ...], ...]:
    """The d-dimensional subspaces of span(words), as RREF word tuples.

    They are found by closing a smaller subspace under XOR with one more
    vector of the span, and sorted by the canonical key: with the span's
    RREF basis rows b_0, b_1, ..., a subspace's coefficient space (bit j
    of a vector's coefficients is its bit at the pivot of b_j) has an
    RREF basis; its pivot columns come first, in lexicographic order,
    then its free entries, row by row and column by column, read as the
    bits of a binary number from the lowest up, in ascending order.
    Results are cached, as the references ask for the same spans often.
    """
    whole = span(words)
    basis_pivots = [b & -b for b in rref(whole)]
    level = {frozenset({0})}
    for _ in range(d):
        level = {s | {x ^ v for x in s} for s in level for v in whole if v not in s}

    def key(space: FrozenSet[int]) -> Tuple[Tuple[int, ...], int]:
        coeffs = frozenset(
            sum(1 << j for j, p in enumerate(basis_pivots) if v & p) for v in space
        )
        rows = rref(coeffs)
        pivots = tuple((r & -r).bit_length() - 1 for r in rows)
        free = [
            (r >> c) & 1
            for i, r in enumerate(rows)
            for c in range(pivots[i] + 1, len(basis_pivots))
            if c not in pivots
        ]
        return pivots, sum(bit << k for k, bit in enumerate(free))

    return tuple(tuple(rref(s)) for s in sorted(level, key=key))
