"""Tests for the failure/repair simulator in both repair modes."""

import dataclasses
import random

import pytest

from storagecodes.codes import CodeError, validate_plan
from storagecodes.constructions import (
    FunctionalSpec,
    example1,
    example3_initial_bases,
    example3_spec,
    rbt_mbr,
)
from storagecodes import sim
from storagecodes.gf2 import BitMatrix, BitVector, Subspace
from storagecodes.sim import (
    SimulationError,
    StuckError,
    collect,
    encode,
    encode_functional,
    exact_repair,
    fail,
    functional_repair,
    random_failure_script,
    run_scenario,
    trace_to_text,
)
from test_sim_oracle import SPEC_STUCK, SPEC_STUCK_BASES, marathon


def fresh_exact(word=0b1011):
    named = example1()
    x = BitVector(4, word)
    return encode(named.code, x, named.repair_plans, 1), named, x


def fresh_functional(word=0b10110):
    spec = example3_spec()
    x = BitVector(5, word)
    return encode_functional(spec, example3_initial_bases(), x), spec, x


# ---------------------------------------------------------------------------
# encoding and collection


def test_encode_stores_inner_products():
    state, named, x = fresh_exact()
    # x = (1,1,0,1), so node 0 stores (x0, x2+x3) = (1, 0+1) = (1, 1)
    assert state.stored[0] == BitVector.from_string("11")
    assert state.live == {0, 1, 2, 3}
    assert state.trace[0].kind == "encode"


def test_encode_rejects_wrong_length():
    named = example1()
    with pytest.raises(Exception):
        encode(named.code, BitVector(3, 0b101))


def test_collect_decodes_from_any_recovery_pair():
    state, named, x = fresh_exact()
    for pair in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        assert collect(state, pair) == x


def test_collect_returns_none_on_non_recovery_set():
    state, named, x = fresh_exact()
    assert collect(state, [0]) is None
    event = state.trace[-1]
    assert event.kind == "collect" and ("ok", "0") in event.payload


def test_collect_decodes_from_more_than_64_stored_symbols():
    # rbt-mbr n=11: 10 nodes of 10 symbols give 100 symbol rows
    named = rbt_mbr(11)
    x = BitVector(55, random.Random(11).randrange(1 << 55))
    state = encode(named.code, x, named.repair_plans, 1)
    assert collect(state, range(1, 11)) == x


def test_collect_detects_inconsistent_overdetermined_decode():
    # all four nodes hold 8 symbols of a 4-bit message; one flip is seen
    state, named, x = fresh_exact()
    state.stored[3] = BitVector(2, state.stored[3].word ^ 1)
    with pytest.raises(SimulationError, match="recovery-set decode was inconsistent"):
        collect(state, range(4))


def test_encode_functional_rejects_redundant_basis_row():
    # node 0 plus the sum of its rows spans the same space with 3 rows
    bases = list(example3_initial_bases())
    bases[0] = BitMatrix.from_strings(bases[0].to_strings() + ["10100"])
    with pytest.raises(CodeError, match="node 0: 3 basis rows, expected 2"):
        encode_functional(example3_spec(), bases, BitVector(5, 0b10110))


def test_collect_requires_live_nodes():
    state, named, x = fresh_exact()
    fail(state, 1)
    with pytest.raises(SimulationError):
        collect(state, [0, 1])


# ---------------------------------------------------------------------------
# exact repair


def test_exact_repair_restores_block_bit_for_bit():
    for word in range(16):
        state, named, x = fresh_exact(word)
        before = state.stored[0]
        fail(state, 0)
        exact_repair(state, named.repair_plans[0])
        assert state.stored[0] == before
        assert 0 in state.live


def test_exact_repair_transfers_beta_per_helper():
    state, named, x = fresh_exact()
    fail(state, 2)
    exact_repair(state, named.repair_plans[2])
    event = state.trace[-1]
    assert event.kind == "repair-exact"
    assert ("symbols_transferred", "3") in event.payload


def test_exact_repair_requires_failed_node():
    state, named, x = fresh_exact()
    with pytest.raises(SimulationError):
        exact_repair(state, named.repair_plans[0])  # node 0 still live


def test_exact_repair_requires_live_helpers():
    state, named, x = fresh_exact()
    fail(state, 0)
    state.live.discard(1)
    with pytest.raises(SimulationError):
        exact_repair(state, named.repair_plans[0])


def test_exact_repair_rejects_functional_state():
    state, spec, x = fresh_functional()
    fail(state, 0)
    with pytest.raises(SimulationError):
        exact_repair(state, example1().repair_plans[0])


def test_functional_repair_rejects_exact_state():
    state, named, x = fresh_exact()
    fail(state, 0)
    with pytest.raises(SimulationError):
        functional_repair(state, 0)


def test_exact_repair_mbr_family():
    named = rbt_mbr(4)
    rng = random.Random(3)
    x = BitVector(6, rng.randrange(1 << 6))
    state = encode(named.code, x, named.repair_plans, 1)
    for failed in range(4):
        before = state.stored[failed]
        fail(state, failed)
        exact_repair(state, named.repair_plans[failed])
        assert state.stored[failed] == before


# Node 0's plan: helper 1 sends its row 1 (e0+e3), helper 2 its row 0 (e2).
@pytest.mark.parametrize("helper, bit", [(1, 1), (2, 0)])
def test_exact_repair_detects_a_corrupted_helper_block(helper, bit):
    state, named, x = fresh_exact()
    fail(state, 0)
    state.stored[helper] = BitVector(2, state.stored[helper].word ^ (1 << bit))
    with pytest.raises(SimulationError, match="repair of node 0 did not restore its block"):
        exact_repair(state, named.repair_plans[0])


# Faults behind the kept symbol rows and prepared plans: a node's rows are
# kept under its basis and block word, and a plan's prepared repair under
# its content, so a block or plan changed after use is read as it is now.


@pytest.mark.parametrize("helper, bit", [(1, 1), (2, 0)])
def test_a_block_corrupted_after_its_rows_were_used_is_caught(helper, bit):
    state, named, x = fresh_exact()
    assert collect(state, range(4)) == x
    fail(state, 0)
    exact_repair(state, named.repair_plans[0])
    state.stored[helper] = BitVector(2, state.stored[helper].word ^ (1 << bit))
    with pytest.raises(SimulationError, match="recovery-set decode was inconsistent"):
        collect(state, range(4))
    fail(state, 0)
    with pytest.raises(SimulationError, match="repair of node 0 did not restore its block"):
        exact_repair(state, named.repair_plans[0])


def test_a_functional_block_corrupted_after_its_rows_were_used_is_caught():
    # survivor 0 sends its row 0 (e0) for node 2 again: the survivors' spaces
    # are unchanged, so the search picks the same vectors
    state, spec, x = fresh_functional()
    fail(state, 2)
    functional_repair(state, 2)
    assert collect(state, range(4)) == x
    state.stored[0] = BitVector(2, state.stored[0].word ^ 1)
    with pytest.raises(SimulationError, match="recovery-set decode was inconsistent"):
        collect(state, range(4))
    fail(state, 2)
    with pytest.raises(SimulationError, match="repair of node 2 did not restore its block"):
        functional_repair(state, 2)


def test_a_plan_changed_after_a_repair_is_checked_again():
    state, named, x = fresh_exact()
    plan = named.repair_plans[0]
    fail(state, 0)
    exact_repair(state, plan)
    outside = next(w for w in range(1, 16) if not named.code.subspaces[1].contains(BitVector(4, w)))
    plan.repair_spaces[1] = Subspace.spanned_by(4, [BitVector(4, outside)])
    fail(state, 0)
    with pytest.raises(SimulationError, match="invalid repair plan: repair space of helper 1"):
        exact_repair(state, plan)


def test_a_plan_is_checked_once_per_content(monkeypatch):
    checked = []
    monkeypatch.setattr(sim, "validate_plan", lambda code, plan: checked.append(plan) or [])
    named = example1()
    state = encode(named.code, BitVector(4, 0b0110), plans=None, beta=1)
    # the stored-plan-less rule searches a new plan object at each repair
    run_scenario(state, [("fail", 0), ("repair",)] * 3 + [("fail", 1), ("repair",)])
    assert [p.failed for p in checked] == [0, 1]


def test_a_changed_plan_is_prepared_again(monkeypatch):
    # node 0's plan with every repair space swapped for another valid one
    checked = []

    def recorded(code, plan):
        checked.append(plan)
        return validate_plan(code, plan)

    monkeypatch.setattr(sim, "validate_plan", recorded)
    state, named, x = fresh_exact()
    plan = named.repair_plans[0]
    fail(state, 0)
    exact_repair(state, plan)
    assert dict(state.trace[-1].payload)["spaces"] == "1:1001;2:0010;3:0001"
    for h, text in ((1, "0100"), (2, "1100"), (3, "0111")):
        plan.repair_spaces[h] = Subspace.spanned_by(4, [BitVector.from_string(text)])
    fail(state, 0)
    exact_repair(state, plan)
    assert len(checked) == 2
    assert dict(state.trace[-1].payload)["spaces"] == "1:0100;2:1100;3:0111"
    assert state.stored[0] == named.code.node_bases[0].mat_vec(x)


def test_a_node_failing_again_with_the_same_live_set_is_searched_once():
    named = rbt_mbr(6)
    x = BitVector(15, 0b101100111000101)
    script = [item for _ in range(3) for node in range(6) for item in (("fail", node), ("repair",))]
    state = encode(named.code, x, beta=1)
    run_scenario(state, script)
    assert (state.repairs, state.plan_searches) == (18, 6)
    # a fresh rule before every repair searches every time
    fresh = encode(named.code, x, beta=1)
    for i in range(0, len(script), 2):
        fresh.rule = sim.ExactRepair(named.code, beta=1)
        run_scenario(fresh, script[i:i + 2])
    assert (fresh.repairs, fresh.plan_searches) == (18, 18)
    assert trace_to_text(state.trace) == trace_to_text(fresh.trace)


# ---------------------------------------------------------------------------
# functional repair


def test_functional_repair_keeps_spec_satisfied():
    state, spec, x = fresh_functional()
    rng = random.Random(9)
    for _ in range(20):
        victim = rng.randrange(4)
        fail(state, victim)
        functional_repair(state, victim)
        assert spec.satisfied(state.subspaces())


def test_functional_repair_preserves_decodability():
    state, spec, x = fresh_functional()
    rng = random.Random(15)
    for _ in range(10):
        victim = rng.randrange(4)
        fail(state, victim)
        functional_repair(state, victim)
    for triple in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
        assert collect(state, triple) == x


def test_functional_repair_may_change_the_subspace():
    state, spec, x = fresh_functional()
    changed = False
    for _ in range(10):
        before = state.subspaces()[0]
        fail(state, 0)
        functional_repair(state, 0)
        if state.subspaces()[0] != before:
            changed = True
    # the repaired space is allowed to differ; over several rounds it does
    assert changed


def test_functional_repair_downloads_one_symbol_per_survivor():
    state, spec, x = fresh_functional()
    fail(state, 2)
    functional_repair(state, 2)
    event = state.trace[-1]
    assert event.kind == "repair-functional"
    assert ("symbols_transferred", "3") in event.payload


def test_functional_repair_is_deterministic():
    a, spec, x = fresh_functional()
    b, _, _ = fresh_functional()
    for victim in (1, 3, 0, 2):
        for state in (a, b):
            fail(state, victim)
            functional_repair(state, victim)
    assert [m.to_strings() for m in a.bases] == [m.to_strings() for m in b.bases]


def test_functional_repair_detects_a_corrupted_survivor_block():
    # repairing node 2, survivor 0 sends its row 0 (e0); flip that symbol
    state, spec, x = fresh_functional()
    fail(state, 2)
    state.stored[0] = BitVector(2, state.stored[0].word ^ 1)
    with pytest.raises(SimulationError, match="repair of node 2 did not restore its block"):
        functional_repair(state, 2)


def test_functional_repair_requires_single_failure():
    state, spec, x = fresh_functional()
    fail(state, 0)
    state.live.discard(1)
    with pytest.raises(SimulationError):
        functional_repair(state, 0)


def _trace_counts(state):
    events = [ev for ev in state.trace if ev.kind.startswith("repair")]
    return len(events), sum(int(dict(ev.payload)["symbols_transferred"]) for ev in events)


def test_functional_counters_equal_trace_values(monkeypatch):
    checked = []
    original = FunctionalSpec.admitter

    def admitter(self, others, verdicts=None):
        admits = original(self, others, verdicts)

        def recorded(words):
            checked.append(tuple(words))
            return admits(words)

        return recorded

    monkeypatch.setattr(FunctionalSpec, "admitter", admitter)
    state, spec, x = fresh_functional()
    rng = random.Random(4)
    for _ in range(60):
        victim = rng.randrange(4)
        start = len(checked)
        fail(state, victim)
        functional_repair(state, victim)
        # a spec check is a candidate not yet checked in this repair
        assert len(set(checked[start:])) == len(checked) - start
    assert (state.repairs, state.symbols_transferred) == _trace_counts(state) == (60, 180)
    assert state.spec_checks == len(checked) > 0


def test_functional_spec_checks_are_pinned():
    # 21 041 distinct candidates go to the spec's admitter predicate in
    # 727 searches; skipping spans already searched must not change that.
    state = marathon()
    assert (state.repairs, state.symbols_transferred, state.spec_checks) == (1000, 3000, 21041)


def test_a_survivor_configuration_seen_before_is_searched_once():
    state = marathon()
    assert (state.spec_checks, len(state.rule.searched)) == (21041, 727)
    # A fresh rule before every repair searches every time.  Its count
    # pins the search order: 28 603 distinct candidates in 1000 searches.
    fresh = marathon(fresh_rule=True)
    assert fresh.spec_checks == 28603
    assert trace_to_text(fresh.trace) == trace_to_text(state.trace)


def test_each_rule_test_runs_once_per_rule_instance():
    # The admitter runs a rule test only for a (rule, prefix, candidate)
    # its table lacks, and keeps the verdict: 17 449 tests in the seed-0
    # marathon, where 49 005 ran before the table.  The precondition
    # runs the 4 tests over the 3 survivors at every repair, and the
    # bootstrap the 10 over the 4 initial spaces.
    calls = []

    def counted(test):
        def run(prefix, words):
            calls.append(None)
            return test(prefix, words)

        return run

    spec = example3_spec()
    spec = dataclasses.replace(spec, rules=tuple((n, t, counted(f)) for n, t, f in spec.rules))
    state = marathon(spec=spec)
    entries = sum(map(len, state.rule.verdicts.values()))
    assert (entries, len(calls) - 4 * state.repairs - 10) == (17449, 17449)
    assert state.spec_checks == 21041


def test_the_verdict_table_is_bounded_on_example3():
    # A rule-1 prefix is a survivor's space and a rule-2 prefix the sum
    # of two that meet trivially, so (155 two-dimensional spaces + 31
    # hyperplanes) x 155 two-dimensional candidates bound the table.
    state = marathon(rounds=5000)
    table = state.rule.verdicts
    assert {(i, len(prefix)) for i, prefix in table} == {(0, 2), (1, 4)}
    assert all(len(words) == 2 for known in table.values() for words in known)
    assert len(table) <= 155 + 31
    assert max(map(len, table.values())) <= 155
    assert 0 < sum(map(len, table.values())) <= 28830


def test_a_stuck_search_is_not_cached():
    state = encode_functional(SPEC_STUCK, SPEC_STUCK_BASES, BitVector(4, 0b1101))
    fail(state, 0)
    with pytest.raises(StuckError):
        functional_repair(state, 0)
    checks = state.spec_checks
    with pytest.raises(StuckError, match="^no spec-satisfying replacement exists for node 0$"):
        functional_repair(state, 0)
    assert state.spec_checks == 2 * checks > 0
    assert state.rule.searched == {}


def test_the_survivors_are_checked_on_a_configuration_already_searched():
    state, spec, x = fresh_functional()
    fail(state, 2)
    functional_repair(state, 2)
    fail(state, 2)
    functional_repair(state, 2)
    assert len(state.rule.searched) == 1
    fail(state, 2)
    # nodes 0 and 1 now store the same space, which the spec forbids
    state.bases[0] = state.bases[1]
    with pytest.raises(SimulationError, match="^survivors no longer satisfy the specification$"):
        functional_repair(state, 2)
    assert len(state.rule.searched) == 1


def test_exact_counters_equal_trace_values():
    state, named, x = fresh_exact()
    run_scenario(state, random_failure_script(4, 25, 2))
    assert (state.repairs, state.symbols_transferred) == _trace_counts(state) == (25, 75)
    assert state.spec_checks == 0


def test_stuck_error_is_simulation_error():
    assert issubclass(StuckError, SimulationError)


# ---------------------------------------------------------------------------
# scenarios and traces


def test_run_scenario_roundtrip_exact():
    state, named, x = fresh_exact()
    script = [
        ("fail", 1),
        ("repair",),
        ("collect", (0, 1)),
        ("fail", 3),
        ("repair",),
        ("collect", (2, 3)),
    ]
    run_scenario(state, script)
    assert state.epoch == 2
    kinds = [ev.kind for ev in state.trace]
    assert kinds.count("repair-exact") == 2
    assert kinds.count("collect") == 2


def test_run_scenario_rejects_double_failure():
    state, named, x = fresh_exact()
    with pytest.raises(SimulationError):
        run_scenario(state, [("fail", 0), ("fail", 1)])


def test_run_scenario_rejects_repair_without_failure():
    state, named, x = fresh_exact()
    with pytest.raises(SimulationError):
        run_scenario(state, [("repair",)])


def test_run_scenario_searches_plan_when_uncached():
    named = example1()
    x = BitVector(4, 0b0110)
    state = encode(named.code, x, plans=None, beta=1)
    run_scenario(state, [("fail", 0), ("repair",)])
    assert 0 in state.live
    assert collect(state, (0, 1)) == x


def test_run_scenario_exact_without_plans_or_beta_cannot_repair():
    named = example1()
    state = encode(named.code, BitVector(4, 0b0110))
    with pytest.raises(SimulationError):
        run_scenario(state, [("fail", 0), ("repair",)])


def test_run_scenario_functional_matches_direct_calls():
    script = random_failure_script(4, 20, seed=4)
    scripted, _, _ = fresh_functional()
    run_scenario(scripted, script)
    direct, _, _ = fresh_functional()
    for item in script:
        if item[0] == "fail":
            failed = item[1]
            fail(direct, failed)
        else:
            functional_repair(direct, failed)
    assert direct.epoch == 20
    assert trace_to_text(scripted.trace) == trace_to_text(direct.trace)


def test_random_failure_script_is_seeded():
    a = random_failure_script(4, 10, seed=5)
    b = random_failure_script(4, 10, seed=5)
    c = random_failure_script(4, 10, seed=6)
    assert a == b
    assert a != c
    assert len(a) == 20


def test_trace_replay_is_reproducible():
    s1, named, x = fresh_exact()
    s2, _, _ = fresh_exact()
    script = random_failure_script(4, 15, seed=21)
    run_scenario(s1, script)
    run_scenario(s2, script)
    assert trace_to_text(s1.trace) == trace_to_text(s2.trace)


def test_trace_record_format():
    state, named, x = fresh_exact()
    run_scenario(state, [("fail", 2), ("repair",)])
    text = trace_to_text(state.trace)
    lines = text.strip().split("\n")
    assert lines[0].startswith("epoch=0 kind=encode")
    assert any(line.startswith("epoch=0 kind=fail node=2") for line in lines)
    assert trace_to_text([]) == ""
