"""The three benchmark workloads and the values their outputs must match.

Each workload has `setup(lib, seed, workdir)`, which builds every input
from the seed, and `run(lib, inputs, rec)`, which performs one pass:
a fixed list of operations, each timed through the Recorder, with every
output checked.  `lib` holds the storagecodes modules by short name;
the library sees only the generated inputs, never the seed.

Every workload is a closed loop with one caller: the next call is made
when the previous one has returned.
"""

from __future__ import annotations

import hashlib
import io
import random
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Sequence

import oracle

FAILED = object()  # result of an operation that raised


class Recorder:
    """Times one pass's operations and counts what went wrong.

    `attempted` counts operations plus pass-level checks; an operation
    fails at most once, whether it raised or its output was wrong.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.fingerprint: List[tuple] = []  # outputs every run must reproduce
        self.counts: Dict[str, int] = defaultdict(int)
        self.wall = 0.0
        self._op_failed = False

    def op(self, kind: str, fn: Callable, *args):
        self.attempted += 1
        self._op_failed = False
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            return FAILED
        self.samples[kind].append(time.perf_counter() - start)
        return result

    def expect(self, ok: bool, what: str) -> None:
        """Check the output of the last operation."""
        if not ok and not self._op_failed:
            self._fail(what)

    def check(self, ok: bool, what: str) -> None:
        """A check that stands on its own, such as a digest."""
        self.attempted += 1
        if not ok:
            self._fail(what)

    def _fail(self, what: str) -> None:
        self._op_failed = True
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def balanced_victims(n: int, reps: int, rng: random.Random) -> List[int]:
    """Every node fails reps times, in seeded order, so the work of a
    pass does not depend on the seed."""
    victims = [v for v in range(n) for _ in range(reps)]
    rng.shuffle(victims)
    return victims


# ---------------------------------------------------------------------------
# game: theorem certificates and exact searches (flowgame, bounds)

VERIFY_CASES = [("r2", n, 2, a, b) for n in range(3, 8) for a, b in ((1, 1), (2, 1))] + [
    ("alpha_eq_beta", 3, 2, 1, 1),
    ("alpha_eq_beta", 4, 3, 1, 1),
    ("alpha_eq_r_beta", 3, 2, 2, 1),
    ("alpha_eq_r_beta", 4, 3, 3, 1),
]
# (value, horizon_searched); each case holds and is tight, so formula == value
VERIFY_PINS = {
    ("r2", 3, 2, 1, 1): (2, 1),
    ("r2", 3, 2, 2, 1): (3, 2),
    ("r2", 4, 2, 1, 1): (2, 2),
    ("r2", 4, 2, 2, 1): (4, 2),
    ("r2", 5, 2, 1, 1): (3, 2),
    ("r2", 5, 2, 2, 1): (5, 3),
    ("r2", 6, 2, 1, 1): (4, 2),
    ("r2", 6, 2, 2, 1): (6, 4),
    ("r2", 7, 2, 1, 1): (4, 3),
    ("r2", 7, 2, 2, 1): (7, 4),
    ("alpha_eq_beta", 3, 2, 1, 1): (2, 1),
    ("alpha_eq_beta", 4, 3, 1, 1): (3, 1),
    ("alpha_eq_r_beta", 3, 2, 2, 1): (3, 2),
    ("alpha_eq_r_beta", 4, 3, 3, 1): (6, 3),
}
# ((n, r, alpha, beta), horizon) -> value; exact search, no target
MINIMAX_PINS = {
    ((4, 3, 3, 1), 8): 6,
    ((5, 2, 2, 1), 7): 5,
}


def setup_game(lib, seed: int, workdir: Path):
    rng = random.Random(seed)
    cases = list(VERIFY_CASES)
    rng.shuffle(cases)
    searches = sorted(MINIMAX_PINS)
    rng.shuffle(searches)
    games = [(lib.flowgame.make_game(*params), params, h) for params, h in searches]
    return SimpleNamespace(cases=cases, games=games)


def run_game(lib, inputs, rec: Recorder) -> None:
    fg = lib.flowgame
    for case in inputs.cases:
        _, n, r, alpha, beta = case
        rep = rec.op("certify", fg.verify_theorem, *case, 2 * n)
        if rep is FAILED:
            continue
        value, horizon = VERIFY_PINS[case]
        got = (rep.value, rep.formula, rep.holds, rep.tight, rep.horizon_searched, rep.capped)
        rec.expect(got == (value, value, True, True, horizon, False), f"{case}: {got}")
        rec.fingerprint.append((case, rep.to_record(), rep.capped))
        _count_line(rec, n, r, alpha, beta, rep.principal_line, rep.value)
    for state, params, horizon in inputs.games:
        n, r, alpha, beta = params
        gv = rec.op("minimax", fg.minimax, state, horizon)
        if gv is FAILED:
            continue
        got = (gv.value, gv.horizon, gv.capped)
        rec.expect(got == (MINIMAX_PINS[params, horizon], horizon, False), f"{params}: {got}")
        rec.fingerprint.append((params, horizon, gv.value, gv.horizon, gv.principal_line))
        _count_line(rec, n, r, alpha, beta, gv.principal_line, gv.value)


def _count_line(rec, n, r, alpha, beta, line, value) -> None:
    # Reported, not failed: the certified values are right even where a
    # line spliced from an isomorphic table entry does not replay.
    rec.counts["lines"] += 1
    rec.counts["lines_replayable"] += oracle.replay_line(n, r, alpha, beta, line, value)


# ---------------------------------------------------------------------------
# marathon: functional repair on the example-3 spec (gf2, constructions, sim)

MARATHON_ROUNDS = 1000
MARATHON_TRACE_PINS = {
    0: "cb39697ab157a43e7cd5e8cae667d9637430dff60cd77a18705a7fa230e4e02a",
}


def setup_marathon(lib, seed: int, workdir: Path):
    c = lib.constructions
    spec = c.example3_spec()
    rng = random.Random(seed)
    return SimpleNamespace(
        seed=seed,
        spec=spec,
        bases=c.example3_initial_bases(),
        message=1 + rng.randrange((1 << spec.ambient_dim) - 1),
        victims=[rng.randrange(spec.node_count) for _ in range(MARATHON_ROUNDS)],
    )


def _fail_and_repair(sim, state, victim: int) -> None:
    sim.fail(state, victim)
    sim.functional_repair(state, victim)


def run_marathon(lib, inputs, rec: Recorder) -> None:
    sim, spec, x = lib.sim, inputs.spec, inputs.message
    m = spec.ambient_dim
    state = sim.encode_functional(spec, inputs.bases, lib.gf2.BitVector(m, x))
    subsets = list(combinations(range(spec.node_count), spec.node_count - 1))
    for epoch, victim in enumerate(inputs.victims, 1):
        rec.op("repair", _fail_and_repair, sim, state, victim)
        words = [[row.word for row in b.rows] for b in state.bases]
        rec.expect(
            oracle.spec_holds(words, m, spec.node_dim)
            and all(state.stored[i].word == oracle.mat_vec(w, x) for i, w in enumerate(words)),
            f"spec or stored blocks broken at epoch {epoch}",
        )
        for subset in subsets:
            got = rec.op("decode", sim.collect, state, subset)
            rec.expect(got is not None and got.word == x, f"decode {subset} at epoch {epoch}")
    digest = sha256(sim.trace_to_text(state.trace))
    rec.fingerprint.append(("trace", digest))
    pin = MARATHON_TRACE_PINS.get(inputs.seed)
    if pin is not None:
        rec.check(digest == pin, f"marathon trace sha256 {digest}")


# ---------------------------------------------------------------------------
# exact: code files, the CLI, cached and searched exact repair
# (gf2, codes, constructions, sim, codefile, cli)

# (registry name, constructor args); rbt-mbr n=7 is left out: one
# searched repair there costs seconds.
EXACT_CODES = [
    ("example1", ()),
    ("rbt-mbr", (4,)),
    ("rbt-mbr", (5,)),
    ("rbt-mbr", (6,)),
    ("parity", (4,)),
    ("repetition", (6, 2, None, "split")),
    ("repetition", (6, 2, None, "copy")),
]
CACHED_REPS = 20  # cached-plan failures per node
SEARCHED_REPS = 3  # plan-search failures per node
SIM_ROUNDS = 20  # `storagecode simulate` rounds
# code name -> (sha256 of the code file, `storagecode validate` stdout)
CODEFILE_PINS: Dict[str, tuple] = {
    "example1": (
        "be80db3faac33ef0d6860b595a5071083a6d13e2de790e898361f8151e2bcef7",
        "profile: (4; 4,2,3,2,1)\nrate: 1/2\noverhead: 1\n",
    ),
    "rbt-mbr-n4": (
        "b0290b7c22bab6aa9bf74650fe6fef2527f42e6f181d7ca03ff231e93d4e26d4",
        "profile: (6; 4,3,3,3,1)\nrate: 1/2\noverhead: 1\n",
    ),
    "rbt-mbr-n5": (
        "4e15ed826ea341fe3216136ab526ed03123641f1c967aa50cc196ea08cc2dbad",
        "profile: (10; 5,4,4,4,1)\nrate: 1/2\noverhead: 1\n",
    ),
    "rbt-mbr-n6": (
        "b0a2ce0160b6b0141ab514df68710ee545f5c7f4a1da8005f4f52a42df98a467",
        "profile: (15; 6,5,5,5,1)\nrate: 1/2\noverhead: 1\n",
    ),
    "parity-r4": (
        "b857a8d45e40ff6b5d45337dc8c6ea47e3ed8a41fad4055d0dff4668600837cc",
        "profile: (4; 5,4,4,1,1)\nrate: 4/5\noverhead: 1/4\n",
    ),
    "repetition-n6-r2-a2-split": (
        "0d3ee45170461fde8bb29114cbdfc9c339b3f07f2016db6b8f58e117e9d245bc",
        "profile: (4; 6,2,2,2,1)\nrate: 1/3\noverhead: 2\n",
    ),
    "repetition-n6-r2-a2-copy": (
        "e3ca751fa7aa7b6af403177f0698c4ac77bd11b9a7f37775b083434bf265d3f0",
        "profile: (4; 6,2,1,2,2)\nrate: 1/3\noverhead: 2\n",
    ),
}
# seed -> code name -> sha256 of the searched-plan trace
SEARCHED_TRACE_PINS: Dict[int, Dict[str, str]] = {
    0: {
        "example1": "a0aab71d04652fe600177aff457b3607a498a16f95a14f8a748e741d57ffadf1",
        "rbt-mbr-n4": "9be5ac28e518651bb000145a927692aa57eaba4aa05619e09ff190dafe8e2138",
        "rbt-mbr-n5": "88b4fb9afb477fb011f2111fd9e0d0e255bda0ab2f814fb8046d5f2109c45762",
        "rbt-mbr-n6": "d2a67bea7abae56743c4dab6ac3bd5abfda3259f23e5732eef2e5be7c76320f6",
        "parity-r4": "0ab852b0c70a19e37882301eb7b2ced614a46c8fd8158e5d0fc6610a6fa71d18",
        "repetition-n6-r2-a2-split": "7235f57d1a7aca155daa5cdee10fc6e4da0d6e695ac1d40ec2e9a547f02c2934",
        "repetition-n6-r2-a2-copy": "678372b15dd829a3561be4ca623908eaea8b211a3c74d9815708198bc5c96b80",
    },
}


def setup_exact(lib, seed: int, workdir: Path):
    registry = lib.constructions.named_codes()
    codes = []
    for name, args in EXACT_CODES:
        named = registry[name](*args)
        code = named.code
        n, m = code.n, code.message_dim
        rng = random.Random(f"{seed}/{named.name}")
        x = rng.randrange(1 << m)
        rounds = []
        for plans, reps in ((named.repair_plans, CACHED_REPS), (None, SEARCHED_REPS)):
            victims = balanced_victims(n, reps, rng)
            subsets = [sorted(rng.sample(range(n), named.declared.k)) for _ in victims]
            decodable = [
                oracle.gf2_rank([row.word for i in s for row in code.node_bases[i].rows]) == m
                for s in subsets
            ]
            rounds.append((plans, list(zip(victims, subsets, decodable))))
        codes.append(
            SimpleNamespace(
                named=named,
                message=lib.gf2.BitVector(m, x),
                rounds=rounds,
                path=workdir / f"{named.name}.json",
            )
        )
    return SimpleNamespace(seed=seed, codes=codes)


def _cli(cli, argv: Sequence[str]):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            status = exc.code
    return status, out.getvalue()


def _codefile_round_trip(codefile, named) -> str:
    text = codefile.dumps(codefile.from_named_code(named))
    if codefile.dumps(codefile.loads(text)) != text:
        raise ValueError("dumps(loads(text)) != text")
    return text


def run_exact(lib, inputs, rec: Recorder) -> None:
    sim, seed = lib.sim, inputs.seed
    for c in inputs.codes:
        name = c.named.name
        text = rec.op("codefile", _codefile_round_trip, lib.codefile, c.named)
        if text is FAILED:
            continue
        c.path.write_text(text, encoding="utf-8")
        # Flags go before the subcommand: after it they exit 2.
        argv = ["--seed", str(seed), "--rounds", str(SIM_ROUNDS), "simulate", str(c.path)]
        for kind, args in (("validate", ["validate", str(c.path)]), ("simulate", argv)):
            got = rec.op(kind, _cli, lib.cli, args)
            if got is FAILED:
                continue
            status, out = got
            rec.expect(status == 0, f"{kind} {name} exit {status}")
            if kind == "validate":
                pin = CODEFILE_PINS.get(name)
                rec.expect((sha256(text), out) == pin, f"{name}: {sha256(text)} {out!r}")
            rec.fingerprint.append((name, kind, sha256(text), status, out))

    pins = SEARCHED_TRACE_PINS.get(seed)
    for c in inputs.codes:
        code, x, name = c.named.code, c.message, c.named.name
        for plans, rounds in c.rounds:
            state = sim.encode(code, x, plans, c.named.declared.beta)
            for victim, subset, decodable in rounds:
                rec.op("repair", sim.run_scenario, state, [("fail", victim), ("repair",)])
                rows = [row.word for row in code.node_bases[victim].rows]
                rec.expect(
                    victim in state.live and state.stored[victim].word == oracle.mat_vec(rows, x.word),
                    f"{name}: node {victim} not restored",
                )
                got = rec.op("decode", sim.collect, state, subset)
                want = x if decodable else None
                rec.expect(got == want, f"{name}: decode {subset} gave {got}")
            digest = sha256(sim.trace_to_text(state.trace))
            rec.fingerprint.append((name, plans is None, digest))
            if plans is None and pins is not None:
                rec.check(digest == pins.get(name), f"{name}: searched trace sha256 {digest}")


# ---------------------------------------------------------------------------

WORKLOADS = {
    "game": SimpleNamespace(
        setup=setup_game,
        run=run_game,
        sums={"certify_s": "certify", "minimax_s": "minimax"},
        latencies=(),
    ),
    "marathon": SimpleNamespace(
        setup=setup_marathon,
        run=run_marathon,
        sums={},
        latencies=("repair", "decode"),
    ),
    "exact": SimpleNamespace(
        setup=setup_exact,
        run=run_exact,
        sums={"validate_s": "validate"},
        latencies=("repair", "decode"),
    ),
}
