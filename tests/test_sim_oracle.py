"""Slow oracles for the repair paths.

Functional repair is checked against its docstring taken literally.
The reference tries the survivors' nonzero vectors, each survivor's
sorted by text, in `itertools.product` order; takes the candidates of
each span from `gf2_brute.subspaces`, which finds them by XOR closure
and sorts them by the canonical key, not from the generator the fast
path runs; and checks the whole assignment with `spec.satisfied` on
Subspace objects.  It keeps no memo of verdicts or of spans already
searched, so it shares none of the fast path's shortcuts.

Both rules' prepared decoding masks are checked against a plain
elimination of the received rows (see the section at the end).
"""

import random
from itertools import combinations, product

import gf2_brute
import pytest
from test_codes import REGISTRY_CODES
from test_constructions import brute_subspaces, reached_survivor_sets

from storagecodes.codes import find_repair_plan
from storagecodes.constructions import (
    FunctionalSpec,
    _spans,
    _sum_rref,
    _trivial_meet,
    example3,
    example3_initial_bases,
    example3_spec,
)
from storagecodes.gf2 import (
    BitMatrix,
    BitVector,
    Subspace,
    _reduce,
    subspace_sum,
)
from storagecodes.sim import (
    FunctionalRepair,
    SimulationError,
    StuckError,
    encode,
    encode_functional,
    exact_repair,
    fail,
    functional_repair,
)


def reference_repair(state, failed):
    """The survivors' picks and the new space the docstring's search picks."""
    spec = state.rule.spec
    survivors = sorted(state.live)
    spaces = [Subspace.from_matrix(b) for b in state.bases]
    vectors = [
        sorted((v for v in spaces[i].vectors() if not v.is_zero()), key=BitVector.to_string)
        for i in survivors
    ]
    m = state.message_dim
    for picks in product(*vectors):
        for words in gf2_brute.subspaces(tuple(v.word for v in picks), spec.node_dim):
            cand = Subspace(m, BitMatrix.from_words(m, words))
            if spec.satisfied(spaces[:failed] + [cand] + spaces[failed + 1:]):
                return picks, cand
    raise StuckError(f"no replacement for node {failed}")


def reference_record(state, failed, picks, cand):
    survivors = sorted(state.live)
    vectors = ";".join(f"{i}:{v.to_string()}" for i, v in zip(survivors, picks))
    return (
        f"epoch={state.epoch + 1} kind=repair-functional node={failed} "
        f"helpers={','.join(map(str, survivors))} symbols_transferred={len(survivors)} "
        f"vectors={vectors} new_basis={'+'.join(cand.basis.to_strings())}"
    )


def check_rounds(spec, bases, seed, rounds, before_repair=None):
    """Compare functional_repair with the reference over seeded rounds,
    and each prepared repair's masks with the received-rows oracle.
    before_repair, if given, sees the state, the failed node and the
    reference's new space before each repair."""
    rng = random.Random(seed)
    messages = random.Random(seed + 1)  # for the masks, apart from the victims
    x = BitVector(spec.ambient_dim, rng.randrange(1 << spec.ambient_dim))
    state = encode_functional(spec, bases, x)
    for _ in range(rounds):
        victim = rng.randrange(spec.node_count)
        fail(state, victim)
        picks, cand = reference_repair(state, victim)
        expected = reference_record(state, victim, picks, cand)
        if before_repair is not None:
            before_repair(state, victim, cand)
        prepared = state.rule.prepare(state, victim)
        _check_masks(prepared, messages, spec.ambient_dim)
        # A configuration already searched gets the entry its search cached.
        assert state.rule.prepare(state, victim) is prepared
        functional_repair(state, victim)
        assert state.trace[-1].to_record() == expected
        assert state.bases[victim] is prepared.basis
        assert Subspace.from_matrix(state.bases[victim]) == cand
        assert state.bases[victim].to_strings() == cand.basis.to_strings()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_functional_repair_matches_reference_on_example3(seed):
    check_rounds(example3_spec(), example3_initial_bases(), seed, 110)


def test_a_flipped_verdict_fails_the_reference_comparison():
    # Before the first repair whose search reads a kept True verdict of
    # the reference's new space, flip that verdict: the search skips the
    # space the reference picks, so the records differ.
    spec = example3_spec()
    flipped = []

    def flip(state, victim, cand):
        others = [Subspace.from_matrix(state.bases[i]) for i in sorted(state.live)]
        key = (victim, *(space.basis._words for space in others))
        if flipped or key in state.rule.searched:
            return
        words = tuple(cand.basis.words())
        for i, (_, t, _) in enumerate(spec.rules):
            for subset in combinations(others, t - 1):
                known = state.rule.verdicts.get((i, tuple(_sum_rref(subset))), {})
                if known.get(words):
                    known[words] = False
                    flipped.append((i, victim))
                    return

    with pytest.raises(AssertionError, match="new_basis="):
        check_rounds(spec, example3_initial_bases(), 0, 110, flip)
    assert len(flipped) == 1


def _avoids_e0(prefix, words):
    # t = 1, so prefix is empty; words are in RREF, so reducing e0 by
    # their pivots leaves 0 iff e0 is in their span.
    assert prefix == []
    return _reduce(words, 1) != 0


# m=4 with a rule on single spaces beside pairwise trivial meets.
SPEC_M4 = FunctionalSpec(
    name="m4-avoid-e0",
    ambient_dim=4,
    node_count=4,
    node_dim=2,
    beta=1,
    rules=(
        ("no storage space contains e0", 1, _avoids_e0),
        ("any two storage spaces intersect trivially", 2, _trivial_meet),
    ),
)
SPEC_M4_BASES = [
    BitMatrix.from_strings(rows)
    for rows in (["1010", "0111"], ["1110", "0001"], ["1001", "0010"], ["0101", "0011"])
]


@pytest.mark.parametrize("seed", [0, 5])
def test_functional_repair_matches_reference_on_second_spec(seed):
    check_rounds(SPEC_M4, SPEC_M4_BASES, seed, 80)


# Three nodes, 2-dim spaces in GF(2)^4 that meet pairwise trivially.  A
# newcomer's space is spanned by one vector from each survivor, so it
# meets both survivors and no repair exists.
SPEC_STUCK = FunctionalSpec(
    name="stuck",
    ambient_dim=4,
    node_count=3,
    node_dim=2,
    beta=1,
    rules=(("any two storage spaces intersect trivially", 2, _trivial_meet),),
)
SPEC_STUCK_BASES = [
    BitMatrix.from_strings(rows) for rows in (["1000", "0100"], ["0010", "0001"], ["1010", "0101"])
]


@pytest.mark.parametrize("victim", [0, 1, 2])
def test_both_searches_get_stuck_together(victim):
    state = encode_functional(SPEC_STUCK, SPEC_STUCK_BASES, BitVector(4, 0b1101))
    fail(state, victim)
    with pytest.raises(StuckError):
        reference_repair(state, victim)
    with pytest.raises(StuckError):
        functional_repair(state, victim)
    with pytest.raises(StuckError):
        state.rule.prepare(state, victim)
    assert len(state.trace) == 2  # encode and fail; nothing stored
    assert state.repairs == 0


def _vectors(space):
    return {v.word for v in space.vectors()}


def _all_subspaces(m):
    return [s for d in range(m + 1) for s in brute_subspaces(m, d)]


def _sums(subset):
    words = {0}
    for space in subset:
        words = {w ^ v for w in words for v in _vectors(space)}
    return words


def _rule(test, subset):
    """A rule test on a subset: its first spaces' sum, then the last basis."""
    return test(subspace_sum(list(subset[:-1])).basis.words(), subset[-1].basis.words())


def test_rank_rules_match_vector_counts():
    # A and B meet trivially iff their 2^a * 2^b pairwise sums are distinct;
    # a subset spans iff its sums reach all 2^m vectors.
    for m in range(1, 5):
        spaces = _all_subspaces(m)
        for pair in combinations(spaces, 2):
            a, b = pair
            assert _rule(_trivial_meet, pair) == (
                len(_sums(pair)) == len(_vectors(a)) * len(_vectors(b))
            )
            assert _rule(_spans(m), pair) == (len(_sums(pair)) == 1 << m)
    for m in range(1, 4):
        for triple in combinations(_all_subspaces(m), 3):
            assert _rule(_spans(m), triple) == (len(_sums(triple)) == 1 << m)
    rng = random.Random(3)
    spaces = _all_subspaces(5)
    for _ in range(2000):
        triple = tuple(rng.sample(spaces, 3))
        assert _rule(_spans(5), triple) == (len(_sums(triple)) == 1 << 5)


@pytest.mark.parametrize(
    "spec, bases, count",
    [(example3_spec(), example3_initial_bases(), 155), (SPEC_M4, SPEC_M4_BASES, 35)],
    ids=["example3", "m4"],
)
def test_admitter_matches_full_spec_check(spec, bases, count):
    # The prepared predicate reduces the survivor subsets once (t = 1, 2
    # and 3 between the two specs); the full check of all four spaces
    # is the oracle, on every two-dimensional candidate.  One verdict
    # table serves the admitters of every survivor set, as it serves
    # every search of a FunctionalRepair; an admitter without one starts
    # its own.
    candidates = brute_subspaces(spec.ambient_dim, 2)
    assert len(candidates) == count
    table = {}
    verdicts = set()
    for others in reached_survivor_sets(spec, bases, 200, 7):
        shared, alone = spec.admitter(others, table), spec.admitter(others)
        for cand in candidates:
            verdict = spec.satisfied(list(others) + [cand])
            assert shared(cand.basis.words()) == alone(cand.basis.words()) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}
    assert table


def marathon(fresh_rule=False, spec=None, rounds=1000):
    """The benchmark marathon's inputs at seed 0, for rounds example-3
    repairs (the benchmark runs 1000), with a fresh rule before every
    repair if fresh_rule; spec, if given, replaces example 3's."""
    spec = spec or example3_spec()
    rng = random.Random(0)
    x = BitVector(5, 1 + rng.randrange(31))
    state = encode_functional(spec, example3_initial_bases(), x)
    for victim in [rng.randrange(4) for _ in range(rounds)]:
        if fresh_rule:
            state.rule = FunctionalRepair(spec)
        fail(state, victim)
        functional_repair(state, victim)
    return state


def _meets_trivially(pair):
    return len(_sums(pair)) == len(_vectors(pair[0])) * len(_vectors(pair[1]))


def test_kept_verdicts_match_their_tests_and_vector_counts():
    # Every verdict kept over 1000 example-3 repairs, against its rule's
    # test called again on fresh lists and against the vector counts of
    # test_rank_rules_match_vector_counts on the prefix's span and the
    # candidate's.
    spec = example3_spec()
    state = marathon(spec=spec)
    brute = [_meets_trivially, lambda pair: len(_sums(pair)) == 1 << 5]
    assert [t for _, t, _ in spec.rules] == [2, 3]
    seen = set()
    for (i, prefix), known in state.rule.verdicts.items():
        test = spec.rules[i][2]
        span = Subspace(5, BitMatrix.from_words(5, prefix))
        for words, verdict in known.items():
            assert test(list(prefix), list(words)) == verdict
            assert brute[i]((span, Subspace(5, BitMatrix.from_words(5, words)))) == verdict
            seen.add((i, verdict))
    assert seen == {(0, True), (0, False), (1, True), (1, False)}


# ---------------------------------------------------------------------------
# Both rules' decoding masks against the received-rows reconstruction.
# The oracle rebuilds the newcomer's block the way the simulator did before
# it prepared masks: eliminate the received rows v | (v . x) << m and reduce
# each basis row by them.  Which stored bits a helper's symbols read comes
# from a brute-force expansion of each sent vector in the helper's rows.

EXACT_REGISTRY_CODES = [build for build in REGISTRY_CODES if build is not example3]


def _parity(word):
    return bin(word).count("1") & 1


def _received_rows_block(sent, symbols, basis_rows, m):
    pivots = {}  # pivot bit -> row; every pivot is clear in every other row
    for (_, v), s in zip(sent, symbols):
        w = v | s << m
        for p, row in pivots.items():
            if w >> p & 1:
                w ^= row
        if w:
            p = (w & -w).bit_length() - 1
            for q in pivots:
                if pivots[q] >> p & 1:
                    pivots[q] ^= w
            pivots[p] = w
    block = 0
    for i, b in enumerate(basis_rows):
        for p, row in pivots.items():
            if b >> p & 1:
                b ^= row
        assert b & ((1 << m) - 1) == 0, "basis row outside the received span"
        block |= (b >> m) << i
    return block


def _check_masks(prepared, rng, m):
    """The block the masks rebuild from the symbols sent, for 8 messages,
    against the received-rows oracle and the newcomer's true block."""
    basis_rows = prepared.basis.words()
    for _ in range(8):
        x = rng.randrange(1 << m)
        symbols = [_parity(v & x) for _, v in prepared.sent]
        word = sum(s << j for j, s in enumerate(symbols))
        from_masks = sum(_parity(mask & word) << i for i, mask in enumerate(prepared.masks))
        assert from_masks == _received_rows_block(prepared.sent, symbols, basis_rows, m)
        assert from_masks == sum(_parity(b & x) << i for i, b in enumerate(basis_rows))


def _expansion(rows, v):
    """The mask of rows whose sum is v, by trying every subset."""
    for mask in range(1 << len(rows)):
        total = 0
        for t, row in enumerate(rows):
            if mask >> t & 1:
                total ^= row
        if total == v:
            return mask
    raise AssertionError("sent vector outside the helper's rows")


def _check_prepared_plan(code, plan, rng):
    m = code.message_dim
    state = encode(code, BitVector(m, rng.randrange(1 << m)), {plan.failed: plan})
    fail(state, plan.failed)
    exact_repair(state, plan)
    prepared = state.rule.prepare(plan)
    assert prepared.sent == [
        (h, v) for h in plan.helpers for v in plan.repair_spaces[h].basis.words()
    ]
    assert prepared.basis is code.node_bases[plan.failed]
    _check_masks(prepared, rng, m)

    # Flipping stored bit t of helper h flips the symbols of the sent
    # vectors whose expansion uses h's row t; the block changes iff a
    # mask reads an odd number of them.
    reads = 0
    for h in plan.helpers:
        rows = code.node_bases[h].words()
        for t in range(len(rows)):
            flipped = sum(
                (h == g and _expansion(rows, v) >> t & 1) << j
                for j, (g, v) in enumerate(prepared.sent)
            )
            read = any(_parity(mask & flipped) for mask in prepared.masks)
            x = BitVector(m, rng.randrange(1 << m))
            state = encode(code, x, {plan.failed: plan})
            fail(state, plan.failed)
            state.stored[h] = BitVector(len(rows), state.stored[h].word ^ 1 << t)
            if read:
                reads += 1
                with pytest.raises(SimulationError, match="did not restore its block"):
                    exact_repair(state, plan)
            else:
                exact_repair(state, plan)
                assert state.stored[plan.failed] == code.node_bases[plan.failed].mat_vec(x)
    assert reads > 0


@pytest.mark.parametrize("build", EXACT_REGISTRY_CODES)
def test_exact_repair_masks_match_received_rows_reconstruction(build):
    named = build()
    assert named.spec is None
    code, beta = named.code, named.declared.beta
    rng = random.Random(code.n * 1000 + code.message_dim)
    plans = list(named.repair_plans.values())
    for failed in range(code.n):
        helpers = [i for i in range(code.n) if i != failed]
        plans.append(find_repair_plan(code, failed, helpers, beta))
    for plan in plans:
        _check_prepared_plan(code, plan, rng)
