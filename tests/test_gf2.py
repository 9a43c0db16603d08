"""Tests for the GF(2) linear-algebra layer.

Oracle strategy: brute-force reference implementations (explicit vector
enumeration, membership checks) are compared against the fast versions
on seeded random inputs, plus hand-checked fixed values.
"""

import random

import gf2_brute
import pytest
from gf2_brute import span as span_of
from hypothesis import given, settings, strategies as st

from storagecodes.gf2 import (
    BitMatrix,
    BitVector,
    EnumerationCapError,
    Subspace,
    _check_enumeration,
    _rref_words,
    _solve_words,
    _subspace_words,
    _word_text,
    gaussian_binomial,
    solve,
    span_contains,
    subspace_intersect,
    subspace_sum,
)


def random_subspace(rng: random.Random, m: int, max_rows: int = None) -> Subspace:
    max_rows = m if max_rows is None else max_rows
    k = rng.randrange(0, max_rows + 1)
    vecs = [BitVector(m, rng.randrange(1 << m)) for _ in range(k)]
    return Subspace.spanned_by(m, vecs)


def all_vectors(s: Subspace) -> set:
    return {v.word for v in s.vectors()}


# ---------------------------------------------------------------------------
# vectors and matrices


def test_bitvector_string_round_trip():
    # coordinate 0 is written first: "1001" is e0 + e3
    v = BitVector.from_string("1001")
    assert v.length == 4
    assert v.word == 0b1001
    assert v.bit(0) == 1 and v.bit(1) == 0 and v.bit(3) == 1
    assert v.to_string() == "1001"


def test_word_text_matches_a_per_bit_join():
    # the text of every width rows take, at 0, all ones and seeded words
    rng = random.Random(7)
    for length in range(1, 131):
        words = [0, (1 << length) - 1, 1, 1 << (length - 1)]
        words += [rng.getrandbits(length) for _ in range(8)]
        for w in words:
            joined = "".join("1" if (w >> i) & 1 else "0" for i in range(length))
            assert _word_text(w, length) == joined, (w, length)


def test_bitvector_zero_and_range():
    assert BitVector(3, 0).is_zero()
    with pytest.raises(ValueError):
        BitVector(4, 1 << 4)
    with pytest.raises(ValueError):
        BitVector(0, 0)
    with pytest.raises(ValueError):
        BitVector.from_string("10x1")


def test_bitmatrix_round_trip():
    mat = BitMatrix.from_strings(["110", "011"])
    assert mat.to_strings() == ["110", "011"]


def test_bitmatrix_constructors_check_input():
    for width, words in ((3, [8]), (3, [-1]), (0, [0]), (65, [1 << 65])):
        with pytest.raises(ValueError):
            BitMatrix.from_words(width, words)
    for texts in ([], ["10", "1"], ["1a"]):
        with pytest.raises(ValueError):
            BitMatrix.from_strings(texts)
    # rows wider than 64 coordinates round-trip
    wide = BitMatrix.from_words(65, [1, 1 << 64])
    assert wide.to_strings() == ["1" + "0" * 64, "0" * 64 + "1"]
    assert BitMatrix.from_strings(["1" * 65]).words() == [(1 << 65) - 1]
    assert BitMatrix.from_strings(wide.to_strings()) == wide
    # equal iff same width and same rows
    assert BitMatrix.from_words(3, [1, 6]) == BitMatrix.from_strings(["100", "011"])
    assert BitMatrix.from_words(3, [1]) != BitMatrix.from_words(4, [1])
    assert BitMatrix.from_words(3, [1, 6]) != BitMatrix.from_words(3, [6, 1])


def test_from_string_rejects_non_strings():
    # a list of characters, or of one string, is not a row
    for value in (["1", "0", "1"], ["01"], 5, None):
        with pytest.raises(TypeError):
            BitVector.from_string(value)
    with pytest.raises(TypeError):
        BitMatrix.from_strings([["1", "0"], ["0", "1"]])
    # nor is one string a matrix of one-character rows
    with pytest.raises(TypeError):
        BitMatrix.from_strings("101")


def test_mat_vec_is_rowwise_parity():
    mat = BitMatrix.from_strings(["110", "011"])
    x = BitVector.from_string("101")
    y = mat.mat_vec(x)
    # row 0: x0 + x1 = 1, row 1: x1 + x2 = 1
    assert y.to_string() == "11"


def test_mat_vec_matches_explicit_sum_random():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randrange(1, 9)
        rows = rng.randrange(1, 6)
        mat = BitMatrix.from_words(m, [rng.randrange(1 << m) for _ in range(rows)])
        x = BitVector(m, rng.randrange(1 << m))
        got = mat.mat_vec(x)
        for i, row in enumerate(mat.rows):
            expect = sum(row.bit(c) * x.bit(c) for c in range(m)) % 2
            assert got.bit(i) == expect


# ---------------------------------------------------------------------------
# elimination and solving


def test_rref_fixed_example():
    words = BitMatrix.from_strings(["111", "011", "100"]).words()
    assert BitMatrix.from_words(3, _rref_words(words)).to_strings() == ["100", "011"]


def test_rref_drops_zero_rows_and_is_idempotent():
    # zero rows are dropped, so there is one row per dimension of the span
    rng = random.Random(5)
    for _ in range(100):
        m = rng.randrange(1, 9)
        words = [rng.randrange(1 << m) for _ in range(rng.randrange(0, 7))]
        reduced = _rref_words(words)
        assert reduced == gf2_brute.rref(span_of(words))
        assert len(reduced) == gf2_brute.rank(words)
        assert _rref_words(reduced) == reduced


def test_solve_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(1, 9)
        rows = rng.randrange(1, 9)
        mat = BitMatrix.from_words(m, [rng.randrange(1 << m) for _ in range(rows)])
        x = BitVector(m, rng.randrange(1 << m))
        rhs = mat.mat_vec(x)
        got = solve(mat, rhs)
        assert got is not None
        assert mat.mat_vec(got) == rhs


def test_solve_detects_inconsistency():
    # x0 = 0 and x0 = 1 simultaneously
    mat = BitMatrix.from_strings(["10", "10"])
    assert solve(mat, BitVector.from_string("01")) is None
    assert solve(mat, BitVector.from_string("11")) == BitVector.from_string("10")


def test_solve_unique_when_full_column_rank():
    mat = BitMatrix.from_strings(["10", "01", "11"])
    x = BitVector.from_string("11")
    assert solve(mat, mat.mat_vec(x)) == x


# ---------------------------------------------------------------------------
# subspaces


def test_subspace_canonical_equality():
    # two different generating sets of the same plane compare equal
    a = Subspace.spanned_by(3, [BitVector.from_string("110"), BitVector.from_string("011")])
    b = Subspace.spanned_by(3, [BitVector.from_string("101"), BitVector.from_string("110")])
    assert a == b
    assert a.dim == 2


def test_subspace_rejects_non_canonical_basis():
    with pytest.raises(ValueError):
        Subspace(3, BitMatrix.from_strings(["110", "100"]))


def test_spanned_by_rejects_vectors_of_another_length():
    with pytest.raises(ValueError):
        Subspace.spanned_by(3, [BitVector(5, 0b10000)])  # longer
    with pytest.raises(ValueError):
        Subspace.spanned_by(5, [BitVector(2, 3)])  # shorter


def test_span_contains_matches_enumeration():
    rng = random.Random(13)
    for _ in range(50):
        m = rng.randrange(1, 8)
        s = random_subspace(rng, m)
        members = all_vectors(s)
        for w in range(1 << m):
            assert span_contains(s, BitVector(m, w)) == (w in members)


def test_vectors_yields_whole_subspace_once():
    s = Subspace.spanned_by(4, [BitVector.from_string("1100"), BitVector.from_string("0011")])
    vecs = list(s.vectors())
    assert len(vecs) == 4
    assert len({v.word for v in vecs}) == 4
    assert vecs[0].is_zero()


def test_subspace_sum_is_join():
    rng = random.Random(17)
    for _ in range(50):
        m = rng.randrange(1, 8)
        a, b = random_subspace(rng, m), random_subspace(rng, m)
        join = subspace_sum([a, b])
        # the sum of two subspaces is exactly {x + y : x in A, y in B}
        closure = {x ^ y for x in all_vectors(a) for y in all_vectors(b)}
        assert all_vectors(join) == closure


def test_subspace_sum_rejects_empty_list():
    with pytest.raises(ValueError):
        subspace_sum([])


def test_intersection_matches_enumeration():
    rng = random.Random(19)
    for _ in range(100):
        m = rng.randrange(1, 8)
        a, b = random_subspace(rng, m), random_subspace(rng, m)
        inter = subspace_intersect(a, b)
        assert all_vectors(inter) == all_vectors(a) & all_vectors(b)


def test_dimension_formula_random_pairs():
    # dim(A) + dim(B) = dim(A+B) + dim(A∩B)
    rng = random.Random(23)
    for _ in range(300):
        m = rng.randrange(1, 9)
        a, b = random_subspace(rng, m), random_subspace(rng, m)
        assert a.dim + b.dim == subspace_sum([a, b]).dim + subspace_intersect(a, b).dim


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 0) == 1
    assert gaussian_binomial(4, 1) == 15
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(4, 3) == 15
    assert gaussian_binomial(4, 4) == 1
    assert gaussian_binomial(5, 2) == 155
    assert gaussian_binomial(3, 5) == 0


def test_enumerate_subspaces_complete_and_distinct():
    for m in range(1, 6):
        units = [1 << i for i in range(m)]
        for d in range(0, m + 1):
            seen = set(_subspace_words(units, d))
            assert len(seen) == gaussian_binomial(m, d)


def test_enumerate_subspaces_cap():
    # 1395 subspaces of dimension 3 in GF(2)^6
    _check_enumeration(6, 3, 1395)
    with pytest.raises(EnumerationCapError):
        _check_enumeration(6, 3, 1394)
    with pytest.raises(ValueError):
        _check_enumeration(3, 4, None)


def test_subspaces_of_enumerates_inside_space():
    s = Subspace.spanned_by(
        5, [BitVector.from_string("11000"), BitVector.from_string("00110"), BitVector.from_string("00001")]
    )
    basis = s.basis.words()
    lines = list(_subspace_words(basis, 1))
    assert len(lines) == gaussian_binomial(3, 1)
    for line in lines:
        assert len(line) == 1
        assert s.contains_subspace(Subspace(5, BitMatrix.from_words(5, line)))
    planes = list(_subspace_words(basis, 2))
    assert len(planes) == gaussian_binomial(3, 2)
    assert len(set(planes)) == len(planes)
    assert list(_subspace_words(basis, 4)) == []


def test_subspace_words_order_matches_brute_force():
    # The generator's order is the canonical key its docstring states,
    # which the brute force sorts by: the same list, in the same order,
    # for every d on seeded random RREF bases in GF(2)^m, m <= 6.
    rng = random.Random(29)
    for m in range(1, 7):
        for _ in range(30):
            words = [rng.randrange(1 << m) for _ in range(rng.randrange(m + 2))]
            basis = tuple(gf2_brute.rref(span_of(words)))
            for d in range(len(basis) + 1):
                assert list(_subspace_words(basis, d)) == list(gf2_brute.subspaces(basis, d)), (basis, d)


# ---------------------------------------------------------------------------
# brute-force oracles for the elimination kernel, m <= 6

ORACLE = settings(max_examples=200, derandomize=True, database=None, deadline=None)


@st.composite
def word_lists(draw, count: int = 1):
    """An ambient dimension m <= 6 and `count` lists of m-bit words."""
    m = draw(st.integers(1, 6))
    word = st.integers(0, (1 << m) - 1)
    return (m, *(draw(st.lists(word, max_size=7)) for _ in range(count)))


def assert_canonical(s: Subspace) -> None:
    # the public constructor re-runs the RREF check that gf2's own
    # producers skip
    assert Subspace(s.ambient_dim, s.basis) == s


@ORACLE
@given(word_lists(count=2))
def test_producers_return_canonical_subspaces(case):
    m, xs, ys = case
    a = Subspace.spanned_by(m, [BitVector(m, w) for w in xs])
    b = Subspace.spanned_by(m, [BitVector(m, w) for w in ys])
    expect = [
        (a, span_of(xs)),
        (b, span_of(ys)),
        (subspace_sum([a, b]), span_of(xs + ys)),
        (subspace_intersect(a, b), span_of(xs) & span_of(ys)),
    ]
    for s, vectors in expect:
        assert_canonical(s)
        assert all_vectors(s) == vectors
    members = all_vectors(a)
    for d in range(a.dim + 1):
        subs = list(_subspace_words(a.basis.words(), d))
        assert len(subs) == gaussian_binomial(a.dim, d)
        for words in subs:
            s = Subspace._canonical(m, words)
            assert_canonical(s)
            assert s.dim == d and all_vectors(s) <= members


def test_enumerated_subspaces_are_canonical():
    for m in range(1, 7):
        units = [1 << i for i in range(m)]
        for d in range(m + 1):
            for words in _subspace_words(units, d):
                assert_canonical(Subspace._canonical(m, words))


@ORACLE
@given(word_lists(), st.integers(0, 127))
def test_solve_matches_exhaustive_search(case, rhs_seed):
    m, rows = case
    rows = rows or [0]
    mat = BitMatrix.from_words(m, rows)
    rhs = BitVector(len(rows), rhs_seed % (1 << len(rows)))
    solutions = [x for x in range(1 << m) if mat.mat_vec(BitVector(m, x)) == rhs]
    got = solve(mat, rhs)
    if not solutions:
        assert got is None
        return
    assert got is not None and got.word in solutions
    pivots = 0
    for w in _rref_words(rows):
        pivots |= w & -w
    assert got.word & ~pivots == 0  # free variables are zero


@ORACLE
@given(word_lists(), st.integers(0, 127))
def test_solve_words_matches_exhaustive_search(case, rhs_seed):
    # augmented rows a | b << m; the system may have no rows at all
    m, rows = case
    aug = [w | ((rhs_seed >> i) & 1) << m for i, w in enumerate(rows)]
    got_rank, got = _solve_words(aug, m)
    assert 1 << got_rank == len(span_of(rows))
    solutions = [
        x for x in range(1 << m)
        if all((a & x).bit_count() & 1 == a >> m for a in aug)
    ]
    if solutions:
        assert got in solutions
    else:
        assert got is None


@ORACLE
@given(word_lists(count=2), st.integers(0, 127), st.sampled_from([60, 64, 100]))
def test_kernel_commutes_with_a_shift_past_bit_64(case, rhs_seed, s):
    # words in coordinates s..s+m-1 of GF(2)^(m+s): the elimination is the
    # same as at coordinates 0..m-1, so rows wider than 64 bits need nothing else
    m, xs, ys = case

    def shifted(words):
        return [w << s for w in words]

    def space(width, words):
        return Subspace.spanned_by(width, [BitVector(width, w) for w in words])

    assert _rref_words(shifted(xs)) == shifted(_rref_words(xs))
    a, b = space(m, xs), space(m, ys)
    wide_a, wide_b = space(m + s, shifted(xs)), space(m + s, shifted(ys))
    for op in (lambda p, q: subspace_sum([p, q]), subspace_intersect):
        assert op(wide_a, wide_b).basis.words() == shifted(op(a, b).basis.words())
    bits = [(rhs_seed >> i) & 1 for i in range(len(xs))]
    got_rank, got = _solve_words([w | b << m for w, b in zip(xs, bits)], m)
    wide = _solve_words([w << s | b << (m + s) for w, b in zip(xs, bits)], m + s)
    assert wide == (got_rank, None if got is None else got << s)


def test_solve_words_without_rows():
    # no equations: rank 0, and every x solves, the zero vector first
    assert _solve_words([], 4) == (0, 0)


@ORACLE
@given(word_lists(count=2))
def test_rref_words_extends_a_start_basis(case):
    # the start basis is copied, not changed, and the result is the
    # canonical RREF of both lists together
    m, xs, ys = case
    start = _rref_words(xs)
    kept = list(start)
    assert _rref_words(ys, start) == _rref_words(xs + ys)
    assert _rref_words([], start) == start == kept


@ORACLE
@given(word_lists())
def test_rank_is_dimension_of_row_span(case):
    m, rows = case
    assert 1 << len(_rref_words(rows)) == len(span_of(rows))
