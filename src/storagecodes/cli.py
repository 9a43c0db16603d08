"""Command-line frontend: validate, construct, simulate, bound, game.

All randomness is seeded; identical invocations produce identical
output.  The STORAGECODE_CAP environment variable overrides the search
caps (subspace enumeration and the game memo table).  A command raises
on failure, and main reports the error by its row in FAILURES.
"""

from __future__ import annotations

import argparse
import inspect
import os
import random
import sys
from typing import List, Optional

from . import bounds, codefile, flowgame
from .codes import (
    CodeParams,
    is_recovery_set,
    rate_and_overhead,
    recovery_dimension,
    repair_locality,
    validate_plan,
)
from .constructions import named_codes
from .gf2 import BitVector, EnumerationCapError
from .sim import (
    SimulationError,
    encode,
    encode_functional,
    run_scenario,
    random_failure_script,
    trace_to_text,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SIMULATION = 4
EXIT_CAP = 5

# What a command raises -> its exit code and the start of its one-line
# message on stderr.  The first matching row wins, so a subclass comes
# before its base.  validate's violations are a result, not an error:
# cmd_validate prints them and returns EXIT_VALIDATION itself.
FAILURES = (
    (codefile.CodeFileError, EXIT_PARSE, "parse error: "),
    (EnumerationCapError, EXIT_CAP, "cap exceeded: "),
    (flowgame.CapExceededError, EXIT_CAP, "cap exceeded before the bound was certified: "),
    (SimulationError, EXIT_SIMULATION, "simulation failure "),
    (ValueError, EXIT_PARSE, "bad parameters: "),  # CodeError is a ValueError
    (TypeError, EXIT_PARSE, "bad parameters: "),
    (OSError, EXIT_PARSE, "bad parameters: "),  # an unwritable --output
)


def _cap() -> Optional[int]:
    """STORAGECODE_CAP as a positive int, or None when it is unset."""
    raw = os.environ.get("STORAGECODE_CAP")
    if not raw:
        return None
    try:
        cap = int(raw)
    except ValueError:
        cap = None
    if cap is None or cap < 1:
        raise ValueError(f"STORAGECODE_CAP must be a positive integer, got {raw!r}")
    return cap


def _emit(args, pairs) -> None:
    """Print either prose ('key: value') or a flat record stream."""
    if args.format == "record-stream":
        print(" ".join(f"{k}={v}" for k, v in pairs))
    else:
        for k, v in pairs:
            print(f"{k}: {v}")


def _bind(args, fn, defaults) -> dict:
    """fn's arguments from the options of the same name; a given option
    that fn does not take is a ValueError.

    The options are parsed with argparse.SUPPRESS, so a left-out option
    is absent from args and takes its value from defaults.
    """
    params = inspect.signature(fn).parameters
    unused = [f"--{p}" for p in defaults if p not in params and hasattr(args, p)]
    if unused:
        raise ValueError(f"{args.name} does not take {', '.join(unused)}")
    return {p: getattr(args, p, defaults[p]) for p in params}


def cmd_validate(args) -> int:
    cf = codefile.load(args.path)
    spec = cf.spec
    if spec is not None:
        _emit(args, [
            ("mode", "functional"),
            ("spec", spec.name),
            ("m", spec.ambient_dim),
            ("n", spec.node_count),
            ("alpha", spec.node_dim),
            ("beta", spec.beta),
        ])
        return EXIT_OK
    code = cf.code
    problems = []
    k = recovery_dimension(code)
    beta = cf.declared.beta if cf.declared else 1
    r = repair_locality(code, beta, _cap(), cf.plans)
    if r is None:
        problems.append(f"no repair locality exists for beta={beta}")
    if cf.declared is not None:
        if cf.declared.k != k:
            problems.append(f"declared k={cf.declared.k} but computed k={k}")
        if r is not None and r > cf.declared.r:
            problems.append(f"declared r={cf.declared.r} but computed locality {r}")
    for failed, plan in sorted((cf.plans or {}).items()):
        problems += [f"plan for node {failed}: {p}" for p in validate_plan(code, plan)]
        if cf.declared is not None and len(plan.helpers) > cf.declared.r:
            problems.append(f"plan for node {failed} uses more than r={cf.declared.r} helpers")
        if plan.beta != beta:
            source = "default" if cf.declared is None else "declared"
            problems.append(f"plan for node {failed}: beta {plan.beta} != {source} beta {beta}")
    if problems:
        for p in problems:
            print(f"violation: {p}", file=sys.stderr)
        return EXIT_VALIDATION
    rate, overhead = rate_and_overhead(code)
    _emit(args, [
        ("profile", CodeParams(code.message_dim, code.n, k, r, code.alpha, beta)),
        ("rate", rate),
        ("overhead", overhead),
    ])
    return EXIT_OK


# The options of `construct`, with the value each takes when it is not given.
CONSTRUCT_DEFAULTS = {"n": 4, "r": 3, "alpha": None, "variant": "split"}


def cmd_construct(args) -> int:
    """Build a registry code and write its code file.

    Each constructor's parameters (n, r, alpha, variant) are taken from
    the options of the same name.
    """
    build = named_codes()[args.name]
    cf = codefile.from_named_code(build(**_bind(args, build, CONSTRUCT_DEFAULTS)))
    text = codefile.dumps(cf)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.rounds < 0:
        raise ValueError(f"--rounds must be >= 0, got {args.rounds}")
    cf = codefile.load(args.path)
    code = cf.code
    x = BitVector(code.message_dim, random.Random(args.seed).randrange(1 << code.message_dim))
    if cf.spec is None:
        state = encode(code, x, cf.plans, cf.declared.beta if cf.declared else 1)
    else:
        state = encode_functional(cf.spec, code.node_bases, x)
    # After the last round, which repairs the node it failed, every node
    # is live: decode max(rounds, 1) random sets of recovery-dimension
    # size.  Exact repair keeps every node's space, so an exact code's
    # set is completed in index order until it decodes; a functional
    # code's spaces move, and its spec alone decides what decodes.
    k = recovery_dimension(code)
    check_rng = random.Random(args.seed + 1)
    script = random_failure_script(code.n, args.rounds, args.seed)
    for _ in range(max(args.rounds, 1)):
        nodes = check_rng.sample(range(code.n), k)
        rest = (i for i in range(code.n) if i not in nodes)
        while cf.spec is None and not is_recovery_set(code, nodes):
            nodes.append(next(rest))
        script.append(("collect", nodes))
    try:
        run_scenario(state, script)
    except SimulationError as exc:
        raise SimulationError(f"at epoch {state.epoch}: {exc}") from exc
    text = trace_to_text(state.trace)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif args.format == "record-stream":
        sys.stdout.write(text)
    _emit(args, [
        ("repairs", state.repairs),
        ("symbols_transferred", state.symbols_transferred),
        ("decode_checks_passed", sum(("ok", "1") in ev.payload for ev in state.trace)),
    ])
    return EXIT_OK


def _point(alpha_m):
    """An operating point's value m, with its alpha as an extra field."""
    alpha, m = alpha_m
    return m, {"alpha": alpha}


THEOREM_CASES = [bounds.CASE_ALPHA_EQ_BETA, bounds.CASE_ALPHA_EQ_R_BETA]


def _case(text: str) -> str:
    """A case name in either spelling, alpha-eq-beta or alpha_eq_beta."""
    return text.replace("-", "_")


# The options of `bound`, with the value each takes when it is not given.
BOUND_DEFAULTS = {
    "k": 1, "r": 1, "n": 3, "m": 1, "d": 2, "alpha": 1, "beta": 1,
    "case": bounds.CASE_ALPHA_EQ_BETA,
}

# Each bound's parameters are named like the options that supply them; it
# returns its value and the extra fields of its record.
BOUNDS = {
    "cutset": lambda k, r, alpha, beta: (bounds.cutset_bound(k, r, alpha, beta), {}),
    "msr": lambda k, r, beta: _point(bounds.msr_point(k, r, beta)),
    "mbr": lambda k, r, beta: _point(bounds.mbr_point(k, r, beta)),
    "locality-distance": lambda k, r, d: (bounds.linear_locality_distance_bound(k, r, d), {}),
    "info-distance": lambda n, m, r, alpha: (bounds.info_distance_bound(n, m, r, alpha), {}),
    "theorem1": lambda n, r, alpha, case: (
        bounds.theorem1_bound(case, n, r, alpha), {"case": case}
    ),
    "theorem2": lambda n, alpha, beta: (
        bounds.theorem2_bound(n, alpha, beta),
        {"rate_bound": bounds.theorem2_rate_bound(alpha, beta)},
    ),
}


def cmd_bound(args) -> int:
    fn = BOUNDS[args.name]
    inputs = _bind(args, fn, BOUND_DEFAULTS)
    value, extra = fn(**inputs)
    inputs.pop("case", None)  # reported among the extras
    print(bounds.BoundReport(args.name, inputs, value, extra=extra).to_record())
    return EXIT_OK


def cmd_game(args) -> int:
    horizon = 2 * args.n if args.horizon is None else args.horizon
    report = flowgame.verify_theorem(
        args.case, args.n, args.r, args.alpha, args.beta, horizon, _cap()
    )
    print(report.to_record())
    return EXIT_OK


def _common_options(with_defaults: bool) -> argparse.ArgumentParser:
    """Options accepted both before and after the subcommand.

    Without defaults (the copy after the subcommand), an option that is
    not repeated there keeps the value given before the subcommand.
    """
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int)
    common.add_argument("--output")
    common.add_argument("--horizon", type=int)
    common.add_argument("--rounds", type=int)
    common.add_argument("--format", choices=["text", "record-stream"])
    if with_defaults:
        common.set_defaults(seed=0, output=None, horizon=None, rounds=100, format="text")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storagecode",
        description="GF(2) distributed-storage codes: validation, simulation, bounds, games",
        parents=[_common_options(True)],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    after = [_common_options(False)]

    p = sub.add_parser("validate", help="check a code file and print its profile", parents=after)
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    # As with `bound` below, an option left out stays unset and takes its
    # value from CONSTRUCT_DEFAULTS.
    p = sub.add_parser(
        "construct", help="write a named code to a file", parents=after,
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("name", choices=list(named_codes()))
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--alpha", type=int)
    p.add_argument("--variant", choices=["split", "copy"])
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser(
        "simulate", help="run seeded failure/repair rounds on a code file", parents=after
    )
    p.add_argument("path")
    p.set_defaults(fn=cmd_simulate)

    # An option left out stays unset, so cmd_bound can tell it from a
    # given one; its value then comes from BOUND_DEFAULTS.
    p = sub.add_parser(
        "bound", help="evaluate a closed-form bound", parents=after,
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("name", choices=list(BOUNDS))
    for option in BOUND_DEFAULTS:
        if option != "case":
            p.add_argument(f"--{option}", type=int)
    p.add_argument("--case", type=_case, choices=THEOREM_CASES)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("game", help="verify a locality-rate theorem by game search", parents=after)
    p.add_argument("--case", required=True, type=_case, choices=[*THEOREM_CASES, flowgame.CASE_R2])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.set_defaults(fn=cmd_game)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; an error it raises ends as the exit code and
    one-line message of its first row in FAILURES."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(cls for cls, _, _ in FAILURES) as exc:
        status, prefix = next((s, p) for cls, s, p in FAILURES if isinstance(exc, cls))
        print(f"{prefix}{exc}", file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
