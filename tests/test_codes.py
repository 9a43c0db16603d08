"""Tests for storage codes, recovery sets, and repair plans."""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from storagecodes.codes import (
    CodeError,
    CodeParams,
    RepairPlan,
    StorageCode,
    find_repair_plan,
    is_recovery_set,
    rate_and_overhead,
    recovery_dimension,
    repair_locality,
    validate,
    validate_plan,
)
from storagecodes.constructions import (
    example1,
    example3,
    rbt_mbr,
    repetition_code,
    single_parity,
)
from storagecodes.gf2 import (
    BitMatrix,
    BitVector,
    EnumerationCapError,
    Subspace,
    subspace_sum,
    subspaces_of,
)


def four_rotations():
    """The 2-dim rotating-subspace code on GF(2)^4 used throughout."""
    return StorageCode.from_basis_strings(
        [
            ["1000", "0011"],
            ["0100", "1001"],
            ["0010", "1100"],
            ["0001", "0110"],
        ]
    )


def replicated_pair():
    """Two identical nodes plus two distinct ones; k = 3."""
    return StorageCode.from_basis_strings([["10"], ["10"], ["01"], ["11"]])


# ---------------------------------------------------------------------------
# parameters and validation


def test_code_params_ordering_invariant():
    CodeParams(4, 4, 2, 3, 2, 1)
    CodeParams(4, 4, 3, 2, 2, 1)  # k > r: a decode reads more nodes than a repair
    CodeParams(49, 56, 7, 1, 7, 7)  # the copy-variant 56-node repetition code
    with pytest.raises(CodeError, match="need k <= n and r <= n-1"):
        CodeParams(4, 4, 5, 2, 2, 1)  # k > n
    with pytest.raises(CodeError, match="need k <= n and r <= n-1"):
        CodeParams(4, 4, 2, 4, 2, 1)  # r > n-1
    with pytest.raises(CodeError, match="k must be positive"):
        CodeParams(4, 4, 0, 2, 2, 1)  # nonpositive


def test_code_params_str():
    assert str(CodeParams(4, 4, 2, 3, 2, 1)) == "(4; 4,2,3,2,1)"


def test_validate_accepts_good_code():
    assert validate(four_rotations()) == []


def test_validate_flags_dependent_rows():
    code = StorageCode.from_basis_strings([["100", "100"], ["010", "001"]])
    problems = validate(code)
    assert any("dependent" in p for p in problems)


def test_validate_flags_non_spanning_code():
    code = StorageCode.from_basis_strings([["100"], ["100"], ["010"]])
    problems = validate(code)
    assert any("span" in p for p in problems)


# ---------------------------------------------------------------------------
# recovery


def test_recovery_sets_of_rotating_code():
    code = four_rotations()
    # every 2-subset spans GF(2)^4
    for pair in combinations(range(4), 2):
        assert is_recovery_set(code, pair)
    for i in range(4):
        assert not is_recovery_set(code, [i])
    assert recovery_dimension(code) == 2


def test_recovery_dimension_brute_force_random():
    rng = random.Random(31)
    trials = 0
    while trials < 30:
        m = rng.randrange(2, 5)
        n = rng.randrange(2, 6)
        alpha = rng.randrange(1, m + 1)
        bases = []
        for _ in range(n):
            rows = []
            while len(rows) < alpha:
                w = rng.randrange(1, 1 << m)
                rows.append(w)
            bases.append(["".join("1" if (w >> i) & 1 else "0" for i in range(m)) for w in rows])
        code = StorageCode.from_basis_strings(bases)
        if validate(code):
            continue
        trials += 1
        sizes = [
            size
            for size in range(1, n + 1)
            if any(is_recovery_set(code, s) for s in combinations(range(n), size))
        ]
        assert recovery_dimension(code) == min(sizes)


def _smallest_recovery_set(code):
    for size in range(1, code.n + 1):
        if any(is_recovery_set(code, s) for s in combinations(range(code.n), size)):
            return size


REGISTRY_CODES = [
    example1,
    *(partial(rbt_mbr, n) for n in range(3, 9)),
    *(partial(single_parity, r) for r in range(1, 6)),
    partial(repetition_code, 6, 2),
    partial(repetition_code, 6, 2, variant="copy"),
    partial(repetition_code, 6, 2, 4, "copy"),
    partial(repetition_code, 8, 3, 6),
    partial(repetition_code, 12, 2),  # k = 4 > r = 2
    example3,
]


@pytest.mark.parametrize("build", REGISTRY_CODES)
def test_recovery_dimension_equals_search_from_size_one(build):
    # the plain search tries every subset, by increasing size from 1
    code = build().code
    assert recovery_dimension(code) == _smallest_recovery_set(code)


def test_recovery_dimension_equals_subset_search_on_random_codes():
    # nodes drawn from a few spaces, so that repeated and nested nodes
    # (which the depth-first search skips) are common
    rng = random.Random(17)
    checked = 0
    for _ in range(600):
        m = rng.randrange(1, 6)
        alpha = rng.randrange(1, m + 1)
        pool = [rng.sample(range(1, 1 << m), alpha) for _ in range(rng.randrange(1, 4))]
        mats = [BitMatrix.from_words(m, rng.choice(pool)) for _ in range(rng.randrange(1, 7))]
        code = StorageCode(m, alpha, tuple(mats))
        expected = _smallest_recovery_set(code)
        if expected is None:
            with pytest.raises(CodeError):
                recovery_dimension(code)
        else:
            assert recovery_dimension(code) == expected
            checked += 1
    assert checked > 100


def test_rate_and_overhead():
    rate, overhead = rate_and_overhead(four_rotations())
    assert rate == Fraction(1, 2)
    assert overhead == Fraction(1, 1)


# ---------------------------------------------------------------------------
# repair plans


def test_find_repair_plan_rotating_code():
    code = four_rotations()
    plan = find_repair_plan(code, 0, [1, 2, 3], beta=1)
    assert plan is not None
    assert validate_plan(code, plan) == []
    joint = subspace_sum([plan.repair_spaces[i] for i in plan.helpers])
    assert joint.contains_subspace(code.subspaces[0])


def test_repair_plan_rejects_self_help():
    zero = Subspace.spanned_by(2, [])
    with pytest.raises(CodeError):
        RepairPlan(0, (0, 1), {0: zero, 1: zero}, 1)


def test_repair_plan_needs_a_helper():
    with pytest.raises(CodeError, match="at least one helper"):
        RepairPlan(0, (), {}, 1)


def test_repair_plan_rejects_repeated_helpers():
    s = Subspace.spanned_by(2, [BitVector.from_string("10")])
    with pytest.raises(CodeError, match="more than once"):
        RepairPlan(0, (1, 1, 2), {1: s, 2: s}, 1)


def test_repair_plan_space_keys_must_match_helpers():
    s = Subspace.spanned_by(2, [BitVector.from_string("10")])
    with pytest.raises(CodeError):
        RepairPlan(0, (1, 2), {1: s}, 1)


def test_validate_plan_flags_wrong_dimension():
    code = four_rotations()
    plan = RepairPlan(
        0,
        (1, 2, 3),
        {
            1: code.subspaces[1],  # dim 2, beta says 1
            2: Subspace.spanned_by(4, [BitVector.from_string("0010")]),
            3: Subspace.spanned_by(4, [BitVector.from_string("0001")]),
        },
        1,
    )
    problems = validate_plan(code, plan)
    assert any("dim" in p for p in problems)


def test_validate_plan_flags_space_outside_helper():
    code = four_rotations()
    plan = RepairPlan(
        0,
        (1, 2, 3),
        {
            1: Subspace.spanned_by(4, [BitVector.from_string("0010")]),  # not in node 1
            2: Subspace.spanned_by(4, [BitVector.from_string("0010")]),
            3: Subspace.spanned_by(4, [BitVector.from_string("0001")]),
        },
        1,
    )
    problems = validate_plan(code, plan)
    assert any("not inside" in p for p in problems)


def test_validate_plan_flags_non_covering_plan():
    code = four_rotations()
    plan = RepairPlan(
        0,
        (2, 3),
        {
            2: Subspace.spanned_by(4, [BitVector.from_string("0010")]),
            3: Subspace.spanned_by(4, [BitVector.from_string("0001")]),
        },
        1,
    )
    problems = validate_plan(code, plan)
    assert any("cover" in p for p in problems)


def test_find_repair_plan_none_when_bandwidth_too_small():
    code = four_rotations()
    # one helper with beta=1 cannot deliver a 2-dim space
    assert find_repair_plan(code, 0, [1], beta=1) is None


def test_find_repair_plan_single_copy_helper():
    code = replicated_pair()
    plan = find_repair_plan(code, 0, [1], beta=1)
    assert plan is not None
    assert plan.helpers == (1,)


def test_find_repair_plan_is_deterministic():
    code = four_rotations()
    a = find_repair_plan(code, 0, [1, 2, 3], beta=1)
    b = find_repair_plan(code, 0, [1, 2, 3], beta=1)
    assert a == b


def reference_repair_spaces(code, failed, helpers, beta):
    """The first choice of repair spaces, in search order, that covers failed.

    No pruning: every tuple of beta-dim subspaces of the sorted helpers'
    storage spaces, first helper outermost.
    """
    target = code.subspaces[failed]
    choices = [list(subspaces_of(code.subspaces[h], beta)) for h in helpers]
    for spaces in product(*choices):
        if subspace_sum(list(spaces)).contains_subspace(target):
            return dict(zip(helpers, spaces))
    return None


def assert_search_matches_reference(code, beta):
    for failed in range(code.n):
        others = [i for i in range(code.n) if i != failed]
        for size in range(1, code.n):
            for helpers in combinations(others, size):
                plan = find_repair_plan(code, failed, helpers, beta)
                expect = reference_repair_spaces(code, failed, helpers, beta)
                if expect is None:
                    assert plan is None, (failed, helpers)
                else:
                    assert plan is not None, (failed, helpers)
                    assert plan.helpers == helpers
                    assert plan.repair_spaces == expect, (failed, helpers)


ORACLE_CODES = [
    pytest.param(example1, id="example1"),
    pytest.param(partial(rbt_mbr, 4), id="rbt-mbr-n4"),
    *(pytest.param(partial(single_parity, r), id=f"parity-r{r}") for r in (2, 3, 4)),
    *(
        pytest.param(partial(repetition_code, n, 2, 2, variant), id=f"repetition-n{n}-{variant}")
        for n in (3, 6)
        for variant in ("split", "copy")
    ),
]


@pytest.mark.parametrize("construct", ORACLE_CODES)
def test_find_repair_plan_matches_unpruned_reference(construct):
    named = construct()
    for beta in sorted({1, named.declared.beta}):
        assert_search_matches_reference(named.code, beta)


@st.composite
def small_codes(draw):
    """Codes with m <= 5, n <= 4, alpha <= 2 (rows may be dependent)."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(2, 4))
    alpha = draw(st.integers(1, min(2, m)))
    row = st.integers(1, (1 << m) - 1)
    words = [[draw(row) for _ in range(alpha)] for _ in range(n)]
    return StorageCode(m, alpha, tuple(BitMatrix.from_words(m, w) for w in words))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(small_codes(), st.sampled_from([1, 2]))
def test_find_repair_plan_matches_reference_on_small_codes(code, beta):
    assert_search_matches_reference(code, beta)


def test_find_repair_plan_cap_applies_to_each_helper():
    # each helper of rbt-mbr n=6 stores 5 symbols: gaussian_binomial(5, 1)
    # = 31 lines to choose from
    code = rbt_mbr(6).code
    others = [1, 2, 3, 4, 5]
    assert find_repair_plan(code, 0, others, 1, cap=31) is not None
    with pytest.raises(EnumerationCapError):
        find_repair_plan(code, 0, others, 1, cap=30)


@pytest.mark.parametrize("beta", [3, 2**70])
def test_find_repair_plan_beta_above_every_helper_is_none(beta):
    # the nodes are 2-dimensional, so no helper has a candidate and the
    # cap is never consulted
    assert find_repair_plan(four_rotations(), 0, [1, 2, 3], beta, cap=1) is None


@pytest.mark.parametrize("n", range(3, 10))
def test_searched_rbt_mbr_plan_is_the_stored_plan(n):
    named = rbt_mbr(n)
    for failed in range(n):
        others = [i for i in range(n) if i != failed]
        plan = find_repair_plan(named.code, failed, others, named.declared.beta)
        assert plan == named.repair_plans[failed], failed


# ---------------------------------------------------------------------------
# locality


def brute_locality(code, beta):
    worst = 0
    for failed in range(code.n):
        others = [i for i in range(code.n) if i != failed]
        best = None
        for size in range(1, code.n):
            for subset in combinations(others, size):
                if find_repair_plan(code, failed, subset, beta) is not None:
                    best = size
                    break
            if best is not None:
                break
        if best is None:
            return None
        worst = max(worst, best)
    return worst


def test_repair_locality_rotating_code():
    code = four_rotations()
    assert repair_locality(code, beta=1) == 3
    # with beta = 2 two full helper spaces span everything, and no single
    # helper's space equals the failed one, so the locality is 2
    assert repair_locality(code, beta=2) == 2


def padded(code, plan):
    """plan plus the first node outside it, sending its first beta rows."""
    extra = next(i for i in range(code.n) if i != plan.failed and i not in plan.helpers)
    space = Subspace.spanned_by(code.message_dim, code.node_bases[extra].rows[: plan.beta])
    return RepairPlan(
        plan.failed, plan.helpers + (extra,), {**plan.repair_spaces, extra: space}, plan.beta
    )


def test_repair_locality_matches_brute_force():
    # each code with the plans that repair_locality is given: none, a
    # registry code's own, or each of those with one helper too many,
    # which is still a repair set to walk down from
    cases = [
        (code, beta, [None])
        for code in (
            four_rotations(),
            replicated_pair(),
            StorageCode.from_basis_strings([["100"], ["010"], ["001"], ["111"]]),
        )
        for beta in (1, 2)
    ]
    for build in REGISTRY_CODES:
        named = build()
        if named.spec is None:
            code, plans = named.code, named.repair_plans
            bigger = {f: padded(code, p) for f, p in plans.items() if len(p.helpers) < code.n - 1}
            assert all(validate_plan(code, p) == [] for p in bigger.values())
            cases.append((code, named.declared.beta, [plans, bigger]))
    # a plan that does not cover its node, or that sends another beta, is
    # no repair set: walking down from it would report too small an r
    code = single_parity(3).code
    wrong = {
        f: RepairPlan(f, ((f + 1) % 4,), {(f + 1) % 4: code.subspaces[(f + 1) % 4]}, 1)
        for f in range(4)
    }
    assert all(validate_plan(code, p) for p in wrong.values())
    copy = repetition_code(6, 2, variant="copy")  # one helper sending beta = 2
    cases += [(code, 1, [wrong]), (copy.code, 1, [copy.repair_plans])]
    for code, beta, plan_sets in cases:
        expected = brute_locality(code, beta)
        for plans in plan_sets:
            assert repair_locality(code, beta, plans=plans) == expected
    assert brute_locality(single_parity(3).code, 1) == 3 and brute_locality(copy.code, 1) == 2


def test_repair_locality_searches_nothing_below_a_minimal_plan():
    # rbt-mbr's plans have n - 1 = ceil(alpha/beta) helpers, so with them no
    # helper set is searched and an enumeration cap of 2 is never reached
    named = rbt_mbr(6)
    assert repair_locality(named.code, 1, cap=2, plans=named.repair_plans) == 5
    with pytest.raises(EnumerationCapError):
        repair_locality(named.code, 1, cap=2)


def test_repair_locality_none_when_unrepairable():
    # node 0's space is not contained in the span of the others
    code = StorageCode.from_basis_strings([["10"], ["01"], ["01"]])
    assert repair_locality(code, beta=1) is None


# ---------------------------------------------------------------------------
# symmetry helpers


def permute_coordinates(code: StorageCode, perm) -> StorageCode:
    """Apply the coordinate permutation e_i -> e_perm[i] to every basis."""
    m = code.message_dim
    if sorted(perm) != list(range(m)):
        raise CodeError("perm must be a permutation of 0..m-1")
    new_bases = []
    for mat in code.node_bases:
        words = []
        for row in mat.rows:
            w = 0
            for i in range(m):
                if row.bit(i):
                    w |= 1 << perm[i]
            words.append(w)
        new_bases.append(BitMatrix.from_words(m, words))
    return StorageCode(m, code.alpha, tuple(new_bases))


def test_permute_coordinates_rotation_is_automorphism():
    code = four_rotations()
    rotated = permute_coordinates(code, [1, 2, 3, 0])
    # the rotation maps node i's space onto node i+1's space
    for i in range(4):
        assert rotated.subspaces[i] == code.subspaces[(i + 1) % 4]
