"""Data-plane simulator: encode, fail, repair, decode, with a full trace.

The simulator carries the true message internally for verification
only; every protocol-visible quantity (stored blocks, transferred
repair symbols) is computed from node-local data, and restoration is
asserted against the out-of-band truth after every repair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from .codes import (
    CodeError,
    RepairPlan,
    StorageCode,
    find_repair_plan,
    validate_plan,
)
from .constructions import FunctionalSpec, Verdicts
from .gf2 import (
    BitMatrix,
    BitVector,
    Subspace,
    _reduce,
    _rref_words,
    _solve_words,
    _subspace_words,
    _word_text,
    solve,  # noqa: F401  unused here; perfbench's tracer test checks this binding
)


class SimulationError(RuntimeError):
    """An internal consistency assertion failed during a scenario."""


class StuckError(SimulationError):
    """Functional repair found no spec-satisfying replacement subspace."""


@dataclass
class TraceEvent:
    """One simulator event as an ordered flat record."""

    epoch: int
    kind: str
    payload: Tuple[Tuple[str, str], ...]

    def to_record(self) -> str:
        fields = [f"epoch={self.epoch}", f"kind={self.kind}"]
        fields += [f"{k}={v}" for k, v in self.payload]
        return " ".join(fields)


def _space_text(space: Subspace) -> str:
    return "+".join(space.basis.to_strings())


@dataclass
class ExactRepair:
    """The newcomer stores the failed node's block again, bit for bit.

    A repair uses the stored plan for the failed node, else the first
    plan `find_repair_plan` finds over all live helpers.  That search
    depends only on the code, the failed node, the live helpers and
    beta, so `searched` keeps each plan found under (failed node, sorted
    live helpers) and a node that fails again with the same live set
    reuses it.  prepare checks a plan's content (failed node, beta,
    helpers and their repair spaces) before its first use; `checked`
    maps each content that passed to its prepared repair (see
    _PreparedRepair), and a plan whose content changed is checked and
    prepared again.
    """

    code: StorageCode
    plans: Optional[Dict[int, RepairPlan]] = None
    beta: Optional[int] = None
    checked: Dict[tuple, _PreparedRepair] = field(default_factory=dict, repr=False)
    searched: Dict[Tuple[int, Tuple[int, ...]], RepairPlan] = field(
        default_factory=dict, repr=False
    )

    def __call__(self, state: SystemState, failed: int) -> None:
        plan = self.plans.get(failed) if self.plans else None
        if plan is None:
            if self.beta is None:
                raise SimulationError("exact repair needs stored plans or beta")
            key = (failed, tuple(sorted(state.live)))
            plan = self.searched.get(key)
            if plan is None:
                state.plan_searches += 1
                plan = find_repair_plan(self.code, failed, key[1], self.beta)
                if plan is None:
                    raise SimulationError(f"node {failed} is not repairable")
                self.searched[key] = plan
        # Through the module global, so a wrapper installed on it sees the call.
        exact_repair(state, plan)

    def prepare(self, plan: RepairPlan) -> _PreparedRepair:
        """The plan's prepared repair, checked and prepared on first use."""
        # A space enters the key as its width and RREF words, which is what
        # Subspace equality compares: hashing the Subspace itself runs two
        # generated __hash__ methods per helper at every repair.
        spaces = plan.repair_spaces
        content = (
            plan.failed,
            plan.beta,
            *((h, spaces[h].ambient_dim, spaces[h].basis._words) for h in plan.helpers),
        )
        prepared = self.checked.get(content)
        if prepared is None:
            problems = validate_plan(self.code, plan)
            if problems:
                raise SimulationError("invalid repair plan: " + "; ".join(problems))
            # Each helper sends its stored block projected on its repair-space basis.
            sent = [(h, v) for h in plan.helpers for v in spaces[h].basis.words()]
            text = ";".join(f"{h}:{_space_text(spaces[h])}" for h in plan.helpers)
            prepared = self.checked[content] = _prepared(
                sent, self.code.node_bases[plan.failed], self.code.message_dim, ("spaces", text)
            )
        return prepared


@dataclass
class FunctionalRepair:
    """The newcomer may store any subspace the specification admits.

    The candidate search depends only on the failed node and the
    survivors' spaces, so `last` keeps the configuration searched last,
    as (failed node, each survivor's width and RREF words), with its
    prepared repair (see _PreparedRepair).  A repair of the same
    configuration, such as a node failing twice in a row, reuses it;
    any other is searched and replaces it.  A stuck search leaves `last`
    as it was.  A survivor keeps its space until it fails, so searches
    repeat rule tests: `verdicts` keeps each test's verdict (see
    FunctionalSpec.admitter) for every search of this rule.  It is kept
    here, not on the spec, so spec.violations and spec.satisfied never
    read it.  Searches also meet the same spans: `candidates` keeps,
    under a span's RREF words, the tuple of its node_dim-dimensional
    subspaces in _subspace_words order, stored the first time a search
    meets the span.  Both tables are bounded by the spec, not by the
    number of repairs.
    """

    spec: FunctionalSpec
    last: Optional[Tuple[tuple, _PreparedRepair]] = field(default=None, repr=False)
    verdicts: Verdicts = field(default_factory=dict, repr=False)
    candidates: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], ...]] = field(
        default_factory=dict, repr=False
    )

    def __call__(self, state: SystemState, failed: int) -> None:
        functional_repair(state, failed)

    def prepare(self, state: SystemState, failed: int) -> _PreparedRepair:
        """The repair of failed from the live nodes, searched unless it
        repeats the configuration last searched."""
        survivors = sorted(state.live)
        survivor_spaces = [Subspace.from_matrix(state.bases[i]) for i in survivors]
        # A space enters the key as its width and RREF words, as in
        # ExactRepair.prepare.
        key = (failed, *((s.ambient_dim, s.basis._words) for s in survivor_spaces))
        if self.last is not None and self.last[0] == key:
            # The search is deterministic, and this configuration passed
            # the precondition below when it was searched.
            return self.last[1]
        # This check is the precondition of spec.admitter in _search_functional.
        if self.spec.violations(survivor_spaces):
            raise SimulationError("survivors no longer satisfy the specification")
        prepared = _search_functional(state, failed, survivors, survivor_spaces)
        self.last = (key, prepared)
        return prepared


@dataclass
class SystemState:
    """Per-node stored blocks plus the rule that repairs them.

    The counters tally the repairs made, the symbols their helpers sent,
    the plans exact repair searched for, and the distinct candidates
    each functional-repair search checked against the spec (a repair
    that repeats the configuration its rule searched last checks none);
    they are kept out of the trace.  symbol_rows keeps each node's
    reduced symbol rows under the basis and block word they came from
    (see _symbol_rows).
    """

    message_dim: int
    bases: List[BitMatrix]
    stored: Dict[int, BitVector]
    live: Set[int]
    rule: Union[ExactRepair, FunctionalRepair]
    epoch: int = 0
    trace: List[TraceEvent] = field(default_factory=list)
    message: Optional[BitVector] = None  # verification only, not protocol data
    repairs: int = 0
    symbols_transferred: int = 0
    plan_searches: int = 0
    spec_checks: int = 0
    symbol_rows: Dict[int, Tuple[Tuple[BitMatrix, int], List[int]]] = field(
        default_factory=dict, repr=False
    )

    def subspaces(self) -> List[Subspace]:
        return [Subspace.from_matrix(b) for b in self.bases]

    def record(self, kind: str, *payload: Tuple[str, str]) -> None:
        self.trace.append(TraceEvent(self.epoch, kind, tuple(payload)))


def _bootstrap(
    message_dim: int,
    bases: Sequence[BitMatrix],
    x: BitVector,
    rule: Union[ExactRepair, FunctionalRepair],
) -> SystemState:
    """Store B_i . x on every node i; all nodes live, epoch 0."""
    if x.length != message_dim:
        raise CodeError(f"message length {x.length} != message dimension {message_dim}")
    stored = {i: b.mat_vec(x) for i, b in enumerate(bases)}
    state = SystemState(message_dim, list(bases), stored, set(stored), rule, message=x)
    state.record(
        "encode",
        ("nodes", str(len(bases))),
        ("symbols_stored", str(sum(b.row_count for b in bases))),
    )
    return state


def encode(
    code: StorageCode,
    x: BitVector,
    plans: Optional[Dict[int, RepairPlan]] = None,
    beta: Optional[int] = None,
) -> SystemState:
    """Exact-mode bootstrap: the nodes store the code's blocks of x."""
    return _bootstrap(code.message_dim, code.node_bases, x, ExactRepair(code, plans, beta))


def encode_functional(
    spec: FunctionalSpec, bases: Sequence[BitMatrix], x: BitVector
) -> SystemState:
    """Functional-mode bootstrap from an initial spec-satisfying assignment."""
    spec.check_bases(bases)
    return _bootstrap(spec.ambient_dim, bases, x, FunctionalRepair(spec))


def fail(state: SystemState, node: int) -> None:
    """Mark a node failed; its stored block is discarded."""
    if node not in state.live:
        raise SimulationError(f"node {node} is not live")
    state.live.discard(node)
    state.stored.pop(node, None)
    state.record("fail", ("node", str(node)))


def _symbol_rows(state: SystemState, node: int) -> List[int]:
    """A node's stored symbols as rows u | s << m, where s = u . x, in RREF.

    Reducing a vector v of the rows' span by them clears bits 0..m-1 and
    leaves the symbol v . x in bit m.  The rows are kept under the node's
    basis and block word and reduced again when either changes, so a
    block altered outside the simulator is read as it is now stored.
    """
    key = (state.bases[node], state.stored[node].word)
    kept = state.symbol_rows.get(node)
    if kept is None or kept[0] != key:
        basis, block = key
        m = state.message_dim
        rows = _rref_words(u | ((block >> i) & 1) << m for i, u in enumerate(basis.words()))
        kept = state.symbol_rows[node] = (key, rows)
    return kept[1]


def _symbol(reduced: Sequence[int], v: int, m: int) -> int:
    """The symbol v . x, from symbol rows in RREF whose span holds v."""
    w = _reduce(reduced, v)
    if w & ((1 << m) - 1):
        raise SimulationError("vector is not in the expected row span")
    return w >> m


def collect(state: SystemState, indices: Sequence[int]) -> Optional[BitVector]:
    """Decode the message from a set of live nodes, or None if undecodable."""
    idx = sorted(set(indices))
    for i in idx:
        if i not in state.live:
            raise SimulationError(f"cannot collect from non-live node {i}")
    rows = [row for i in idx for row in _symbol_rows(state, i)]
    rank, x = _solve_words(rows, state.message_dim)
    ok = rank == state.message_dim
    result: Optional[BitVector] = None
    if ok:
        if x is None:
            raise SimulationError("recovery-set decode was inconsistent")
        result = BitVector(state.message_dim, x)
    state.record(
        "collect",
        ("nodes", ",".join(map(str, idx))),
        ("ok", str(int(ok))),
    )
    return result


class _PreparedRepair(NamedTuple):
    """What a repair fixes before any symbol is read: the (helper,
    vector) pairs sent, the newcomer's basis, the decoding mask of each
    of its rows, and the repair record's fields after the node."""

    sent: List[Tuple[int, int]]
    basis: BitMatrix
    masks: List[int]
    fields: Tuple[Tuple[str, str], ...]


def _prepared(
    sent: List[Tuple[int, int]], basis: BitMatrix, m: int, *extra: Tuple[str, str]
) -> _PreparedRepair:
    """The repair that rebuilds basis from the symbols of sent's vectors.

    Row i's mask selects the sent vectors (by index) whose sum it is.
    One elimination over the rows v_j | 1 << (m + j) keeps, in the bits
    above m, which vectors each reduced row sums, so reducing a row by
    them reads its mask as _symbol reads a symbol.  The record's fields
    are the helpers, the symbol count, then extra.
    """
    tagged = _rref_words(v | 1 << (m + j) for j, (_, v) in enumerate(sent))
    masks = [_symbol(tagged, row, m) for row in basis.words()]
    helpers = ",".join(map(str, dict.fromkeys(h for h, _ in sent)))
    fields = (("helpers", helpers), ("symbols_transferred", str(len(sent))), *extra)
    return _PreparedRepair(sent, basis, masks, fields)


def _store_repair(state: SystemState, kind: str, failed: int, prepared: _PreparedRepair) -> None:
    """Rebuild, check, store and record the newcomer's block.

    Each (helper, v) sent gives the symbol v . x, read off the helper's
    symbol rows (see _symbol_rows); bit i of the block is the sum of the
    symbols that mask i selects (see _prepared).  The newcomer checks
    its block against the out-of-band message.
    """
    sent, basis, masks, fields = prepared
    m = state.message_dim
    symbols = 0
    for j, (h, v) in enumerate(sent):
        symbols |= _symbol(_symbol_rows(state, h), v, m) << j
    block = 0
    for i, mask in enumerate(masks):
        block |= ((mask & symbols).bit_count() & 1) << i
    restored = BitVector(basis.row_count, block)

    assert state.message is not None
    if restored != basis.mat_vec(state.message):
        raise SimulationError(f"repair of node {failed} did not restore its block")

    state.bases[failed] = basis
    state.stored[failed] = restored
    state.live.add(failed)
    state.epoch += 1
    state.repairs += 1
    state.symbols_transferred += len(sent)
    state.record(kind, ("node", str(failed)), *fields)


def exact_repair(state: SystemState, plan: RepairPlan) -> None:
    """Rebuild a failed node bit-for-bit from its helpers' repair symbols."""
    if not isinstance(state.rule, ExactRepair):
        raise SimulationError("exact_repair requires an exact-repair state")
    if plan.failed in state.live:
        raise SimulationError(f"node {plan.failed} is still live; fail it first")
    for h in plan.helpers:
        if h not in state.live:
            raise SimulationError(f"helper {h} is not live")
    _store_repair(state, "repair-exact", plan.failed, state.rule.prepare(plan))


def functional_repair(state: SystemState, failed: int) -> None:
    """Replace a failed node's subspace with any spec-satisfying choice.

    Each survivor contributes one vector a_i of its space (beta = 1
    download); the candidate replacement is a node_dim-dimensional
    subspace of the span of the a_i.  Survivor vector tuples are tried
    in lexicographic order of their textual encodings and candidate
    subspaces in canonical enumeration order; the first combination
    satisfying the specification wins, making repairs replayable.

    A repair of the configuration (failed node, survivor spaces) that
    the rule searched last reuses its prepared repair; any other is
    checked against the spec and searched (see FunctionalRepair.prepare).
    Every repair, searched or not, reads its symbols off the helpers'
    current blocks and checks the rebuilt block against the message.
    """
    if not isinstance(state.rule, FunctionalRepair):
        raise SimulationError("functional_repair requires a functional-repair state")
    if failed in state.live:
        raise SimulationError(f"node {failed} is still live; fail it first")
    if len(state.live) != state.rule.spec.node_count - 1:
        raise SimulationError("exactly one node may be failed at a time")
    _store_repair(state, "repair-functional", failed, state.rule.prepare(state, failed))


def _search_functional(
    state: SystemState, failed: int, survivors: List[int], survivor_spaces: List[Subspace]
) -> _PreparedRepair:
    """The first admitted repair of failed from the survivors, prepared.

    The search runs on int words.  The survivors are fixed, so the
    spec's rule subsets of survivors are reduced once (spec.admitter),
    and a verdict depends on the candidate alone; it is memoised, since
    different picks often span the same space.  A span of fewer than
    node_dim rows holds no candidate.  The first span that holds an
    admitted one ends the search.  Each rule test's verdict is kept
    across searches in the rule's verdicts table (see spec.admitter),
    and each span's candidates in its candidates table (see
    FunctionalRepair), so a span is enumerated once per rule.
    """
    spec = state.rule.spec
    m, dim = state.message_dim, spec.node_dim
    admits = spec.admitter(survivor_spaces, state.rule.verdicts)
    candidates = state.rule.candidates

    survivor_vectors = []
    for space in survivor_spaces:
        vectors = [0]  # every XOR combination of the RREF rows, 0 first
        for row in space.basis._words:
            vectors += [v ^ row for v in vectors]
        survivor_vectors.append(sorted(vectors[1:], key=lambda w: _word_text(w, m)))

    checked: Dict[Tuple[int, ...], bool] = {}
    new_words: Optional[Tuple[int, ...]] = None
    for picked in product(*survivor_vectors):
        span = tuple(_rref_words(picked))
        if len(span) < dim:
            continue
        known = candidates.get(span)
        if known is None:
            known = candidates[span] = tuple(_subspace_words(span, dim))
        for cand in known:
            verdict = checked.get(cand)
            if verdict is None:
                verdict = checked[cand] = admits(cand)
                state.spec_checks += 1
            if verdict:
                new_words = cand
                break
        if new_words is not None:
            break
    else:
        raise StuckError(f"no spec-satisfying replacement exists for node {failed}")
    new_space = Subspace._canonical(m, new_words)

    # Downloads: one symbol a_i . x per survivor.
    sent = list(zip(survivors, picked))
    return _prepared(
        sent,
        new_space.basis,
        m,
        ("vectors", ";".join(f"{i}:{_word_text(v, m)}" for i, v in sent)),
        ("new_basis", _space_text(new_space)),
    )


ScriptItem = Union[Tuple[str], Tuple[str, int], Tuple[str, Sequence[int]]]


def run_scenario(state: SystemState, script: Sequence[ScriptItem]) -> List[TraceEvent]:
    """Execute fail / repair / collect events in order; return the trace.

    Each repair applies the state's repair rule to the failed node.
    Only one node may be failed at any time, and every collect on a
    recovery set must decode the original message.
    """
    pending: Optional[int] = None
    for item in script:
        op = item[0]
        if op == "fail":
            if pending is not None:
                raise SimulationError("two simultaneous failures are not allowed")
            node = int(item[1])  # type: ignore[arg-type]
            fail(state, node)
            pending = node
        elif op == "repair":
            if pending is None:
                raise SimulationError("repair without a failed node")
            state.rule(state, pending)
            pending = None
        elif op == "collect":
            indices = list(item[1])  # type: ignore[arg-type]
            result = collect(state, indices)
            if result is not None and result != state.message:
                raise SimulationError("collect decoded the wrong message")
        else:
            raise SimulationError(f"unknown script op {op!r}")
    return state.trace


def random_failure_script(n: int, rounds: int, seed: int) -> List[ScriptItem]:
    """rounds single-failure repair rounds with a seeded node choice."""
    rng = random.Random(seed)
    script: List[ScriptItem] = []
    for _ in range(rounds):
        script.append(("fail", rng.randrange(n)))
        script.append(("repair",))
    return script


def trace_to_text(trace: Sequence[TraceEvent]) -> str:
    return "\n".join(ev.to_record() for ev in trace) + "\n" if trace else ""
