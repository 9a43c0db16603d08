"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the pass/fail
lines; each criterion also enforces its runtime budget.
"""

import hashlib
import random
import time
from itertools import combinations

import gf2_brute

from storagecodes.bounds import (
    CASE_ALPHA_EQ_BETA,
    CASE_ALPHA_EQ_R_BETA,
    cutset_bound,
    mbr_point,
    msr_point,
    theorem1_bound,
    theorem2_bound,
)
from storagecodes.codes import recovery_dimension
from storagecodes.constructions import (
    example1,
    example3_initial_bases,
    example3_spec,
    rbt_mbr,
)
from storagecodes.flowgame import (
    collector_value,
    dimakis_cutset_value,
    verify_theorem,
)
from storagecodes.gf2 import (
    BitMatrix,
    BitVector,
    Subspace,
    solve,
    subspace_intersect,
    subspace_sum,
)
from storagecodes.sim import (
    encode,
    encode_functional,
    exact_repair,
    fail,
    functional_repair,
    trace_to_text,
)

from test_flowgame import brute_force_min_cut, plain_flow_network, random_small_graph


def stack(mats):
    """The rows of mats, in order, as one matrix."""
    return BitMatrix.from_words(mats[0].col_count, [w for mat in mats for w in mat.words()])


def report(number, name, elapsed, budget):
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_exact_repair_end_to_end():
    start = time.time()
    named = example1()
    for word in range(16):
        x = BitVector(4, word)
        state = encode(named.code, x, named.repair_plans, 1)
        # node 0 stores (x0, x2+x3)
        expected = (x.bit(0)) | ((x.bit(2) ^ x.bit(3)) << 1)
        assert state.stored[0].word == expected
        # repairing node 0 transfers exactly x0+x3, x2, x3 from nodes 1, 2, 3
        fail(state, 0)
        exact_repair(state, named.repair_plans[0])
        event = state.trace[-1]
        payload = dict(event.payload)
        assert payload["helpers"] == "1,2,3"
        assert payload["symbols_transferred"] == "3"
        assert payload["spaces"] == "1:1001;2:0010;3:0001"
        assert state.stored[0].word == expected
        # every 2-subset of nodes decodes x
        for pair in combinations(range(4), 2):
            stacked = stack([state.bases[i] for i in pair])
            rhs_word = state.stored[pair[0]].word | (state.stored[pair[1]].word << 2)
            assert solve(stacked, BitVector(4, rhs_word)) == x
    report(1, "exact-repair walkthrough", time.time() - start, 1.0)


def test_criterion_2_mbr_family():
    start = time.time()
    for n in range(3, 8):
        named = rbt_mbr(n)
        p = named.declared
        m = n * (n - 1) // 2
        assert (p.m, p.k, p.r, p.alpha, p.beta) == (m, n - 1, n - 1, n - 1, 1)
        assert recovery_dimension(named.code) == n - 1
        assert 2 * p.m == p.n * p.alpha  # rate 1/2
        assert mbr_point(p.k, p.r, p.beta) == (p.alpha, p.m)
        assert cutset_bound(p.k, p.r, p.alpha, p.beta) == p.m
    report(2, "repair-by-transfer MBR family", time.time() - start, 5.0)


def test_criterion_3_functional_repair_rounds():
    start = time.time()
    spec = example3_spec()
    x = BitVector(5, 0b10101)
    state = encode_functional(spec, example3_initial_bases(), x)
    rng = random.Random(2024)
    for round_no in range(1, 1001):
        victim = rng.randrange(4)
        fail(state, victim)
        functional_repair(state, victim)
        assert spec.satisfied(state.subspaces()), f"spec broken at epoch {round_no}"
        if round_no % 50 == 0:
            for triple in combinations(range(4), 3):
                stacked = stack([state.bases[i] for i in triple])
                assert gf2_brute.rank(stacked.words()) == 5
                for word in range(32):
                    msg = BitVector(5, word)
                    assert solve(stacked, stacked.mat_vec(msg)) == msg
    # pins the choice order: the first admissible candidate in every round
    digest = hashlib.sha256(trace_to_text(state.trace).encode()).hexdigest()
    assert digest == "0f6d6fb8b0738d160006332a2c55aff3ca5dd0e23cc1d712f73887aea8f2557c"
    report(3, "functional repair marathon", time.time() - start, 30.0)


def test_criterion_4_cutset_reproduction():
    start = time.time()
    checked = 0
    for n in range(2, 6):
        for r in range(1, min(n, 5)):
            for k in range(1, r + 1):
                for alpha in (1, 2, 3):
                    for beta in (1, 2, 3):
                        assert dimakis_cutset_value(n, k, r, alpha, beta) == cutset_bound(
                            k, r, alpha, beta
                        ), (n, k, r, alpha, beta)
                        checked += 1
    assert checked > 0
    report(4, f"cutset-bound replay ({checked} grid points)", time.time() - start, 60.0)


def test_criterion_5_theorem1_games():
    start = time.time()
    cases = [
        (CASE_ALPHA_EQ_BETA, 3, 2, 1, 1),
        (CASE_ALPHA_EQ_BETA, 4, 3, 1, 1),
        (CASE_ALPHA_EQ_R_BETA, 3, 2, 2, 1),
        (CASE_ALPHA_EQ_R_BETA, 4, 3, 3, 1),
    ]
    for case, n, r, alpha, beta in cases:
        case_start = time.time()
        rep = verify_theorem(case, n, r, alpha, beta, 2 * n)
        assert rep.holds, (case, n, r)
        # every case here is an n = r+1 witness: equality expected
        assert rep.tight, (case, n, r)
        assert not rep.capped
        assert time.time() - case_start < 300
    report(5, "theorem 1 game verification", time.time() - start, 1200.0)


def test_criterion_6_theorem2_games():
    start = time.time()
    for n in (3, 4, 5, 6, 7, 8, 9):
        for alpha, beta in ((1, 1), (2, 1)):
            case_start = time.time()
            rep = verify_theorem("r2", n, 2, alpha, beta, 2 * n)
            assert rep.holds, (n, alpha, beta)
            assert rep.tight, (n, alpha, beta)
            assert not rep.capped
            assert rep.value <= theorem2_bound(n, alpha, beta)
            assert time.time() - case_start < 300
    report(6, "theorem 2 game verification", time.time() - start, 2400.0)


def test_criterion_7_oracle_equivalence():
    start = time.time()
    rng = random.Random(777)
    for _ in range(200):
        g = random_small_graph(rng)
        n_vertices, edges, s, t = plain_flow_network(g)
        assert n_vertices <= 14
        assert collector_value(g) == brute_force_min_cut(n_vertices, edges, s, t)
    for _ in range(1000):
        a = Subspace.spanned_by(8, [BitVector(8, rng.randrange(256)) for _ in range(rng.randrange(9))])
        b = Subspace.spanned_by(8, [BitVector(8, rng.randrange(256)) for _ in range(rng.randrange(9))])
        assert a.dim + b.dim == subspace_sum([a, b]).dim + subspace_intersect(a, b).dim
    report(7, "independent oracles", time.time() - start, 60.0)


def test_criterion_8_bound_cross_consistency():
    start = time.time()
    for k in range(1, 7):
        for r in range(k, 7):
            for beta in (1, 2, 3):
                alpha, m = msr_point(k, r, beta)
                assert cutset_bound(k, r, alpha, beta) == m
                alpha, m = mbr_point(k, r, beta)
                assert cutset_bound(k, r, alpha, beta) == m
    for n in (3, 6, 9, 12, 15):
        for alpha in (1, 2, 3, 4):
            assert theorem2_bound(n, alpha, alpha) == theorem1_bound(
                CASE_ALPHA_EQ_BETA, n, 2, alpha
            )
    report(8, "bound cross-consistency", time.time() - start, 30.0)
