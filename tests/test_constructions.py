"""Tests for the named code families and the functional specification."""

import dataclasses
import inspect
import random
from fractions import Fraction
from itertools import combinations

import gf2_brute
import pytest

from storagecodes.bounds import cutset_bound, mbr_point
from storagecodes.codes import (
    CodeError,
    RepairPlan,
    rate_and_overhead,
    recovery_dimension,
    repair_locality,
    validate,
    validate_plan,
)
from storagecodes.constructions import (
    _trivial_meet,
    _verify,
    example1,
    example3_initial_bases,
    example3_spec,
    functional_specs,
    named_codes,
    rbt_mbr,
    repetition_code,
    single_parity,
)
from storagecodes.gf2 import (
    BitMatrix,
    BitVector,
    Subspace,
    subspace_intersect,
    subspace_sum,
)
from storagecodes.sim import encode_functional, fail, functional_repair


# ---------------------------------------------------------------------------
# the rotating-subspace code


def test_example1_profile():
    named = example1()
    p = named.declared
    assert (p.m, p.n, p.k, p.r, p.alpha, p.beta) == (4, 4, 2, 3, 2, 1)
    assert validate(named.code) == []
    assert recovery_dimension(named.code) == 2
    assert repair_locality(named.code, 1) == 3


def test_example1_node_bases():
    code = example1().code
    assert code.basis_strings() == [
        ["1000", "0011"],
        ["0100", "1001"],
        ["0010", "1100"],
        ["0001", "0110"],
    ]


def test_example1_canonical_plan_for_node_zero():
    plan = example1().repair_plans[0]
    assert plan.helpers == (1, 2, 3)
    # downloads x0+x3 from node 1, x2 from node 2, x3 from node 3
    assert plan.repair_spaces[1].basis.to_strings() == ["1001"]
    assert plan.repair_spaces[2].basis.to_strings() == ["0010"]
    assert plan.repair_spaces[3].basis.to_strings() == ["0001"]


def test_example1_all_plans_valid():
    named = example1()
    for failed in range(4):
        plan = named.repair_plans[failed]
        assert plan.failed == failed
        assert validate_plan(named.code, plan) == []
        assert len(plan.helpers) == 3 and plan.beta == 1


def test_example1_rate_one_half():
    rate, _ = rate_and_overhead(example1().code)
    assert rate == Fraction(1, 2)


# ---------------------------------------------------------------------------
# the repair-by-transfer MBR family


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_rbt_mbr_family(n):
    named = rbt_mbr(n)
    p = named.declared
    m = n * (n - 1) // 2
    assert (p.m, p.n, p.k, p.r, p.alpha, p.beta) == (m, n, n - 1, n - 1, n - 1, 1)
    assert validate(named.code) == []
    assert recovery_dimension(named.code) == n - 1
    assert rate_and_overhead(named.code)[0] == Fraction(1, 2)
    # sits exactly on the MBR point and meets the cutset bound with equality
    assert mbr_point(p.k, p.r, p.beta) == (p.alpha, p.m)
    assert cutset_bound(p.k, p.r, p.alpha, p.beta) == p.m


def test_rbt_mbr_plans_transfer_exact_symbols():
    named = rbt_mbr(4)
    for failed, plan in named.repair_plans.items():
        assert validate_plan(named.code, plan) == []
        # each helper hands over exactly the shared pair coordinate
        for helper, space in plan.repair_spaces.items():
            assert space.dim == 1
            (row,) = space.basis.rows
            assert named.code.subspaces[helper].contains(row)
            assert named.code.subspaces[failed].contains(row)


@pytest.mark.parametrize("n", [7, 8])
def test_rbt_mbr_repair_locality_by_search(n):
    # the search itself, not the stored plans, must find locality n - 1
    assert repair_locality(rbt_mbr(n).code, 1) == n - 1


def test_rbt_mbr_range_check():
    with pytest.raises(CodeError):
        rbt_mbr(2)
    # C(12,2) = 66 coordinates: rows are ints of any width
    assert str(rbt_mbr(12).declared) == "(66; 12,11,11,11,1)"


# ---------------------------------------------------------------------------
# parity and repetition


def test_single_parity_profile():
    named = single_parity(3)
    p = named.declared
    assert (p.m, p.n, p.k, p.r, p.alpha, p.beta) == (3, 4, 3, 3, 1, 1)
    assert validate(named.code) == []
    for plan in named.repair_plans.values():
        assert validate_plan(named.code, plan) == []


def test_single_parity_validation():
    with pytest.raises(CodeError):
        single_parity(0)


def test_repetition_split_variant():
    named = repetition_code(6, 2, alpha=2, variant="split")
    p = named.declared
    assert (p.m, p.n, p.k, p.r, p.alpha, p.beta) == (4, 6, 2, 2, 2, 1)
    for plan in named.repair_plans.values():
        assert len(plan.helpers) == 2
        assert validate_plan(named.code, plan) == []


def test_repetition_copy_variant():
    named = repetition_code(6, 2, alpha=2, variant="copy")
    assert named.declared.beta == 2
    for plan in named.repair_plans.values():
        assert len(plan.helpers) == 1
        assert validate_plan(named.code, plan) == []


def test_large_repetition_code_constructs():
    # k = 7 among 56 nodes: the 7-subsets in lexicographic order reach
    # the first that meets all seven groups only after millions of others
    named = repetition_code(56, 7, alpha=7, variant="copy")
    p = named.declared
    assert (p.m, p.n, p.k, p.r, p.alpha, p.beta) == (49, 56, 7, 7, 7, 7)


def test_repetition_validation():
    with pytest.raises(CodeError):
        repetition_code(5, 2)  # r+1 does not divide n
    with pytest.raises(CodeError):
        repetition_code(6, 2, alpha=3, variant="split")  # r does not divide alpha
    with pytest.raises(CodeError):
        repetition_code(6, 2, variant="bogus")
    # each range is checked on the options given, in both variants
    for variant in ("split", "copy"):
        with pytest.raises(CodeError, match=r"needs alpha >= 1, got alpha=-2"):
            repetition_code(6, 2, alpha=-2, variant=variant)
        with pytest.raises(CodeError, match=r"needs n >= r\+1 = 3, got n=0"):
            repetition_code(0, 2, variant=variant)
        with pytest.raises(CodeError, match=r"r\+1 = 3 must divide n = 7"):
            repetition_code(7, 2, variant=variant)
    # more groups than r: k = 4 > r = 2 is a valid profile
    assert str(repetition_code(12, 2).declared) == "(8; 12,4,2,2,1)"
    assert str(repetition_code(12, 2, variant="copy").declared) == "(8; 12,4,2,2,2)"
    # alpha*n/(r+1) = 65 coordinates
    assert str(repetition_code(130, 1, alpha=1).declared) == "(65; 130,65,1,1,1)"


# ---------------------------------------------------------------------------
# the functional specification


def test_functional_spec_accepts_initial_bases():
    spec = example3_spec()
    spaces = [Subspace.spanned_by(5, b.rows) for b in example3_initial_bases()]
    assert spec.violations(spaces) == []
    assert spec.satisfied(spaces)


def test_functional_spec_parameters():
    spec = example3_spec()
    assert (spec.ambient_dim, spec.node_count, spec.node_dim, spec.beta) == (5, 4, 2, 1)


def test_initial_bases_pairwise_trivial_and_triples_span():
    spaces = [Subspace.spanned_by(5, b.rows) for b in example3_initial_bases()]
    for a, b in combinations(spaces, 2):
        assert subspace_intersect(a, b).is_zero()
    for triple in combinations(spaces, 3):
        assert subspace_sum(list(triple)).dim == 5


def brute_subspaces(m, d):
    """The d-dimensional subspaces of GF(2)^m, found by brute force."""
    units = tuple(1 << i for i in range(m))
    return [Subspace(m, BitMatrix.from_words(m, w)) for w in gf2_brute.subspaces(units, d)]


def test_pairwise_trivial_matches_intersection_oracle():
    # the sum-dimension test against Zassenhaus and against enumeration
    for m in range(1, 5):
        spaces = [s for d in range(m + 1) for s in brute_subspaces(m, d)]
        for a, b in combinations(spaces, 2):
            meet = {v.word for v in a.vectors()} & {v.word for v in b.vectors()}
            trivial = _trivial_meet(a.basis.words(), b.basis.words())
            assert trivial == subspace_intersect(a, b).is_zero() == (meet == {0})


def test_functional_spec_flags_violations():
    spec = example3_spec()
    e = lambda s: Subspace.spanned_by(5, [BitVector.from_string(s)])
    overlapping = [
        subspace_sum([e("10000"), e("01000")]),
        subspace_sum([e("10000"), e("00100")]),  # shares e0 with the first
        subspace_sum([e("00010"), e("00001")]),
        subspace_sum([e("01000"), e("00010")]),
    ]
    problems = spec.violations(overlapping)
    assert any("intersect" in p for p in problems)


def test_spec_rules_ignore_lists_shorter_than_their_subsets():
    spec = example3_spec()
    spaces = [Subspace.spanned_by(5, b.rows) for b in example3_initial_bases()]
    assert spec.violations([]) == []
    assert spec.violations(spaces[:1]) == []
    assert spec.violations(spaces[:2]) == []  # no triple to span
    overlapping = [
        Subspace.spanned_by(5, [BitVector.from_string("10000"), BitVector.from_string(t)])
        for t in ("01000", "00100")
    ]
    assert spec.violations(overlapping) == ["any two storage spaces intersect trivially"]


def reached_survivor_sets(spec, bases, repairs, seed):
    """Every set of survivors met during seeded repairs, each once.

    The message does not steer functional repair, so any one will do.
    """
    m = spec.ambient_dim
    state = encode_functional(spec, bases, BitVector(m, 0b10110 & ((1 << m) - 1)))
    rng = random.Random(seed)
    seen = {}
    for _ in range(repairs):
        victim = rng.randrange(spec.node_count)
        others = tuple(s for i, s in enumerate(state.subspaces()) if i != victim)
        seen.setdefault(others, None)
        fail(state, victim)
        functional_repair(state, victim)
    return list(seen)


def test_functional_spec_flags_wrong_dimension():
    spec = example3_spec()
    spaces = [Subspace.spanned_by(5, b.rows) for b in example3_initial_bases()]
    spaces[0] = Subspace.spanned_by(5, [BitVector.from_string("10000")])
    assert any("dim" in p for p in spec.violations(spaces))


# ---------------------------------------------------------------------------
# registry


SMALL_REGISTRY = [
    example1,
    *(lambda n=n: rbt_mbr(n) for n in (3, 4, 5)),
    *(lambda r=r: single_parity(r) for r in (1, 2, 3, 4)),
    *(lambda a=a, v=v: repetition_code(6, 2, a, v) for a in (2, 4) for v in ("split", "copy")),
    lambda: repetition_code(4, 3, 3, "copy"),
]


@pytest.mark.parametrize("build", SMALL_REGISTRY)
def test_searched_locality_is_within_declared_r(build):
    # The constructors check only their stored plans; the search is the
    # independent check.  example3 is left out: it promises functional
    # repair only, and has no exact repair with beta = 1.
    named = build()
    found = repair_locality(named.code, named.declared.beta)
    assert found is not None and found <= named.declared.r


def _with_plans(edit):
    return lambda named: dataclasses.replace(named, repair_plans=edit(named.repair_plans))


def _with_declared(**changes):
    return lambda named: dataclasses.replace(
        named, declared=dataclasses.replace(named.declared, **changes)
    )


def _uncovering_plan(plans):
    # node 0's plan without helper 3 does not cover node 0's space
    plan = plans[0]
    spaces = {h: plan.repair_spaces[h] for h in (1, 2)}
    return {**plans, 0: RepairPlan(0, (1, 2), spaces, 1)}


@pytest.mark.parametrize(
    "edit, message",
    [
        (_with_plans(lambda p: {i: p[i] for i in p if i != 2}), "no repair plan for node 2"),
        (_with_plans(lambda p: {**p, 2: p[1]}), "no repair plan for node 2"),
        (_with_plans(_uncovering_plan), "plan for node 0: repair spaces do not jointly cover"),
        (_with_declared(r=2), "plan for node 0: more than r = 2 helpers"),
        (_with_declared(beta=2), "plan for node 0: beta 1 != declared beta 2"),
    ],
)
def test_verify_checks_a_plan_for_every_node(edit, message):
    with pytest.raises(CodeError, match=message):
        _verify(edit(example1()))


def test_named_codes_registry():
    registry = named_codes()
    assert list(registry) == ["example1", "rbt-mbr", "repetition", "parity", "example3"]
    assert registry["example1"]().name == "example1"
    assert registry["example1"]().spec is None
    functional = registry["example3"]()
    assert functional.spec.name == "example3"
    assert functional.spec.satisfied(functional.code.subspaces)


def test_registry_states_each_familys_kind():
    # every family builds from its defaults; a functional one carries the
    # spec that functional_specs() builds for its name, an exact one none
    specs = functional_specs()
    assert set(specs) <= set(named_codes())
    for name, build in named_codes().items():
        params = inspect.signature(build).parameters.values()
        assert all(p.default is not p.empty for p in params), name
        spec = build().spec
        if name in specs:
            assert spec.name == specs[name]().name == name
        else:
            assert spec is None, name
