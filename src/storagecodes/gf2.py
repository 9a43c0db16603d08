"""Exact linear algebra over GF(2) with int-bitset vectors.

Vectors of any length m >= 1 are packed into a single Python int (ints
have no word size); bit i of the word is coordinate i.  The textual
encoding writes coordinate 0 first, so "1001" is e0 + e3.  Subspaces
are kept in reduced row-echelon form, which makes them canonical: two
Subspace values compare equal iff they are the same subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

DEFAULT_ENUMERATION_CAP = 10**7


class EnumerationCapError(RuntimeError):
    """Raised when a subspace enumeration would exceed the configured cap."""


def _check_word(length: int, word: int) -> None:
    if length < 1:
        raise ValueError("vector length must be positive")
    if not 0 <= word < (1 << length):
        raise ValueError("word has bits outside the vector length")


def _word_text(word: int, length: int) -> str:
    """word's coordinates 0..length-1 as 0/1 text; word < 2**length.

    bin() writes the guard bit at length, then coordinates length-1 down
    to 0; the slice reverses them and drops the guard and the 0b prefix.
    """
    return bin(word | 1 << length)[:2:-1]


@dataclass(frozen=True)
class BitVector:
    """A fixed-length vector over GF(2), packed into one int."""

    length: int
    word: int

    def __post_init__(self) -> None:
        _check_word(self.length, self.word)

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        if not isinstance(text, str):
            raise TypeError(f"a vector must be a 0/1 string, not {type(text).__name__}")
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a 0/1 string: {text!r}")
        word = 0
        for i, c in enumerate(text):
            if c == "1":
                word |= 1 << i
        return cls(len(text), word)

    def to_string(self) -> str:
        return _word_text(self.word, self.length)

    def bit(self, i: int) -> int:
        return (self.word >> i) & 1

    def is_zero(self) -> bool:
        return self.word == 0


@dataclass(frozen=True)
class BitMatrix:
    """A matrix over GF(2), stored as a tuple of int rows of one width.

    Bit i of a row is column i.  The public constructors check their
    input; code inside this module builds matrices from rows it knows
    to be in range.
    """

    _words: Tuple[int, ...]
    col_count: int

    @classmethod
    def from_strings(cls, texts: Sequence[str]) -> "BitMatrix":
        if isinstance(texts, str):
            raise TypeError(f"a matrix must be a list of 0/1 strings, not the string {texts!r}")
        if not isinstance(texts, (list, tuple)):
            raise TypeError(f"a matrix must be a list of 0/1 strings, not a {type(texts).__name__}")
        rows = [BitVector.from_string(t) for t in texts]
        if not rows:
            raise ValueError("cannot infer column count from an empty matrix")
        if any(row.length != rows[0].length for row in rows):
            raise ValueError("all rows must share one length")
        return cls(tuple(row.word for row in rows), rows[0].length)

    @classmethod
    def from_words(cls, col_count: int, words: Iterable[int]) -> "BitMatrix":
        words = tuple(words)
        for w in words:
            _check_word(col_count, w)
        return cls(words, col_count)

    @cached_property
    def rows(self) -> Tuple[BitVector, ...]:
        """The rows as BitVectors, built on first use."""
        return tuple(BitVector(self.col_count, w) for w in self._words)

    @property
    def row_count(self) -> int:
        return len(self._words)

    def words(self) -> List[int]:
        return list(self._words)

    def to_strings(self) -> List[str]:
        return [_word_text(w, self.col_count) for w in self._words]

    def mat_vec(self, x: BitVector) -> BitVector:
        """Matrix-vector product: one parity per row."""
        if x.length != self.col_count:
            raise ValueError("dimension mismatch")
        if self.row_count == 0:
            raise ValueError("matrix has no rows")
        w = 0
        for i, row in enumerate(self._words):
            if (row & x.word).bit_count() & 1:
                w |= 1 << i
        return BitVector(self.row_count, w)


def _reduce(basis: Sequence[int], word: int) -> int:
    """Clear the basis rows' pivots from word; 0 iff word is in their span.

    Each row's pivot (its lowest set bit) must be zero in every row
    after it, as in RREF or in rows each reduced by those before it.
    """
    for row in basis:
        if word & row & -row:
            word ^= row
    return word


def _rref_words(words: Iterable[int], start: Sequence[int] = ()) -> List[int]:
    """Reduced row echelon form on int rows; zero rows dropped.

    A row's pivot is its lowest set bit.  Each incoming row is reduced
    by the rows kept so far; if anything is left, its pivot is cleared
    from the kept rows and it is kept too.  Rows come out in pivot order.
    The kept rows start as start, which must already be in RREF, so
    adding a few rows to a basis costs one pass over it.
    """
    rows: List[int] = [*start]
    for w in words:
        for row in rows:  # _reduce, inlined: this is the hottest loop
            if w & row & -row:
                w ^= row
        if w:
            low = w & -w
            rows = [r ^ w if r & low else r for r in rows]
            rows.append(w)
    rows.sort(key=lambda r: r & -r)
    return rows


def solve(mat: BitMatrix, rhs: BitVector) -> Optional[BitVector]:
    """Find any x with mat @ x = rhs over GF(2), or None if inconsistent.

    The right-hand side has one bit per matrix row.  When the matrix has
    full column rank the solution is unique; otherwise free variables
    are set to zero.
    """
    if rhs.length != max(mat.row_count, 1):
        raise ValueError("rhs length must equal the row count")
    m = mat.col_count
    aug = [w | (((rhs.word >> i) & 1) << m) for i, w in enumerate(mat._words)]
    _, x = _solve_words(aug, m)
    return None if x is None else BitVector(m, x)


def _solve_words(aug: Iterable[int], m: int) -> Tuple[int, Optional[int]]:
    """solve on augmented rows [a | b]: a in bits 0..m-1, b in bit m.

    Returns the rank of the a parts and a solution, or None in its place
    if the system is inconsistent.
    """
    # A pivot in column m is a row 0 = 1, so the system is inconsistent.
    # Every other row has its pivot below m and counts towards the rank.
    reduced = _rref_words(aug)
    if reduced and reduced[-1] == 1 << m:
        return len(reduced) - 1, None
    x = 0
    for row in reduced:
        if row >> m:
            x |= row & -row
    return len(reduced), x


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(2)^m in canonical (RREF) form."""

    ambient_dim: int
    basis: BitMatrix

    def __post_init__(self) -> None:
        if self.basis.col_count != self.ambient_dim:
            raise ValueError("basis width must equal the ambient dimension")
        words = self.basis.words()
        if words != _rref_words(words):
            raise ValueError("basis is not in reduced row-echelon form")

    @classmethod
    def _canonical(cls, ambient_dim: int, words: Sequence[int]) -> "Subspace":
        """Wrap rows already in RREF, skipping the check in __post_init__."""
        space = object.__new__(cls)
        object.__setattr__(space, "ambient_dim", ambient_dim)
        object.__setattr__(space, "basis", BitMatrix(tuple(words), ambient_dim))
        return space

    @classmethod
    def spanned_by(cls, ambient_dim: int, vectors: Iterable[BitVector]) -> "Subspace":
        words = []
        for v in vectors:
            if v.length != ambient_dim:
                raise ValueError("vector length must equal the ambient dimension")
            words.append(v.word)
        return cls._canonical(ambient_dim, _rref_words(words))

    @classmethod
    def from_matrix(cls, mat: BitMatrix) -> "Subspace":
        return cls._canonical(mat.col_count, _rref_words(mat._words))

    @property
    def dim(self) -> int:
        return self.basis.row_count

    def is_zero(self) -> bool:
        return self.dim == 0

    def contains(self, v: BitVector) -> bool:
        return span_contains(self, v)

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("dimension mismatch")
        basis = self.basis._words
        return all(_reduce(basis, w) == 0 for w in other.basis._words)

    def vectors(self) -> Iterator[BitVector]:
        """All 2^dim vectors of the subspace, the zero vector first."""
        words = self.basis._words
        for mask in range(1 << self.dim):
            w = 0
            for i in range(self.dim):
                if (mask >> i) & 1:
                    w ^= words[i]
            yield BitVector(self.ambient_dim, w)


def span_contains(s: Subspace, v: BitVector) -> bool:
    """True iff v is a GF(2)-linear combination of the basis rows."""
    if v.length != s.ambient_dim:
        raise ValueError("dimension mismatch")
    return _reduce(s.basis._words, v.word) == 0


def subspace_sum(parts: Sequence[Subspace]) -> Subspace:
    """Span of the union of the given subspaces (their sum)."""
    if not parts:
        raise ValueError("subspace_sum of an empty list: pass an explicit zero subspace")
    m = parts[0].ambient_dim
    words: List[int] = []
    for p in parts:
        if p.ambient_dim != m:
            raise ValueError("ambient dimension mismatch")
        words.extend(p.basis._words)
    return Subspace._canonical(m, _rref_words(words))


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces (Zassenhaus block elimination)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    m = a.ambient_dim
    mask = (1 << m) - 1
    # Rows (x | x) for the first basis and (y | 0) for the second; after
    # elimination, rows with a zero low block carry an intersection
    # vector in the high block.  Their pivots are high-block columns that
    # no other row has, so the shifted rows are already in RREF.
    rows = [w | (w << m) for w in a.basis._words]
    rows += b.basis._words
    reduced = _rref_words(rows)
    return Subspace._canonical(m, [r >> m for r in reduced if (r & mask) == 0])


def gaussian_binomial(m: int, d: int) -> int:
    """Number of d-dimensional subspaces of GF(2)^m."""
    if d < 0 or d > m:
        return 0
    num = den = 1
    for i in range(d):
        num *= (1 << m) - (1 << i)
        den *= (1 << d) - (1 << i)
    return num // den


def _check_enumeration(ambient_dim: int, dim: int, cap: Optional[int]) -> None:
    if not 0 <= dim <= ambient_dim:
        raise ValueError("need 0 <= dim <= ambient_dim")
    cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
    count = gaussian_binomial(ambient_dim, dim)
    if count > cap:
        raise EnumerationCapError(
            f"{count} subspaces of dimension {dim} in GF(2)^{ambient_dim} exceeds cap {cap}"
        )


def _subspace_words(basis: Sequence[int], dim: int) -> Iterator[Tuple[int, ...]]:
    """The dim-dimensional subspaces of span(basis) as RREF word tuples.

    basis must be in RREF.  Each subspace is enumerated by its RREF
    coefficient basis over the rows of basis: pivot-column combinations
    in lexicographic order, then the free entries (row by row, column by
    column, the first one the lowest bit) in ascending binary order.
    Plan search and functional repair take the first subspace they
    admit, so this order is in every trace.  The image of an RREF
    coefficient basis is again in RREF: row j keeps the pivot of basis
    row q_j, and its bit at every other pivot is a coefficient that RREF
    makes zero.
    """
    d = len(basis)
    for pivots in combinations(range(d), dim):
        pivot_set = set(pivots)
        # (row, basis word) per free entry, in coefficient-bit order
        cells = [
            (i, basis[c])
            for i in range(dim)
            for c in range(pivots[i] + 1, d)
            if c not in pivot_set
        ]
        heads = [basis[p] for p in pivots]
        for assignment in range(1 << len(cells)):
            words = heads.copy()
            for bit, (i, w) in enumerate(cells):
                if (assignment >> bit) & 1:
                    words[i] ^= w
            yield tuple(words)
