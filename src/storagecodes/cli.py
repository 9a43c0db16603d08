"""Command-line frontend: validate, construct, simulate, bound, game.

All randomness is seeded; identical invocations produce identical
output.  The STORAGECODE_CAP environment variable overrides two search
caps: validate's subspace enumeration and game's memo table; the other
commands do not read it.  A command raises on failure, and main reports
the error by its row in FAILURES.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import random
import sys
from typing import List, Literal, Optional, get_args, get_origin

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


def _emit(format, pairs) -> None:
    """Print either prose ('key: value') or a flat record stream."""
    if format == "record-stream":
        print(" ".join(f"{k}={v}" for k, v in pairs))
    else:
        for k, v in pairs:
            print(f"{k}: {v}")


def _bind(name, fn, args, defaults) -> dict:
    """fn's arguments from the options in defaults of the same name; a
    given option that fn does not take is a ValueError that names it
    and name, the command, family or bound that fn runs.

    The options are parsed with argparse.SUPPRESS, so a left-out option
    is absent from args: it takes fn's own default where fn has one,
    and otherwise its value in defaults.
    """
    params = inspect.signature(fn).parameters
    unused = [f"--{p}" for p in defaults if p not in params and hasattr(args, p)]
    if unused:
        raise ValueError(f"{name} does not take {', '.join(unused)}")
    own = {p: param.default for p, param in params.items() if param.default is not param.empty}
    return {p: getattr(args, p, own.get(p, defaults[p])) for p in params if p in defaults}


# The common options, with the value each takes when it is not given.  A
# command takes those its function has parameters for, and no others.
COMMON_DEFAULTS = {"seed": 0, "output": None, "horizon": None, "rounds": 100, "format": "text"}


def cmd_validate(args, format) -> int:
    cf = codefile.load(args.path)
    spec = cf.spec
    if spec is not None:
        _emit(format, [
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
    _emit(format, [
        ("profile", CodeParams(code.message_dim, code.n, k, r, code.alpha, beta)),
        ("rate", rate),
        ("overhead", overhead),
    ])
    return EXIT_OK


def _construct_options() -> dict:
    """The options of `construct`: every registry family's parameters, in
    registry order, each named once with the first family's parameter."""
    options = {}
    for build in named_codes().values():
        for p, param in inspect.signature(build, eval_str=True).parameters.items():
            options.setdefault(p, param)
    return options


def cmd_construct(args, output) -> int:
    """Build a registry code and write its code file.

    The family's constructor takes its parameters from the options of
    the same name, and a left-out one keeps its default.
    """
    build = named_codes()[args.name]
    options = dict.fromkeys(_construct_options())
    cf = codefile.from_named_code(build(**_bind(args.name, build, args, options)))
    text = codefile.dumps(cf)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_simulate(args, seed, rounds, output, format) -> int:
    if rounds < 0:
        raise ValueError(f"--rounds must be >= 0, got {rounds}")
    cf = codefile.load(args.path)
    code = cf.code
    x = BitVector(code.message_dim, random.Random(seed).randrange(1 << code.message_dim))
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
    check_rng = random.Random(seed + 1)
    script = random_failure_script(code.n, rounds, seed)
    for _ in range(max(rounds, 1)):
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
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif format == "record-stream":
        sys.stdout.write(text)
    _emit(format, [
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
    inputs = _bind(args.name, fn, args, BOUND_DEFAULTS)
    value, extra = fn(**inputs)
    inputs.pop("case", None)  # reported among the extras
    _emit("record-stream", [("bound", args.name), *inputs.items(), ("value", value), *extra.items()])
    return EXIT_OK


def cmd_game(args, horizon) -> int:
    horizon = 2 * args.n if horizon is None else horizon
    report = flowgame.verify_theorem(
        args.case, args.n, args.r, args.alpha, args.beta, horizon, _cap()
    )
    print(report.to_record())
    return EXIT_OK


def _argument(param) -> dict:
    """add_argument's keywords for a constructor parameter: a Literal one
    takes one of its values, and any other an integer."""
    if get_origin(param.annotation) is Literal:
        return {"choices": get_args(param.annotation)}
    return {"type": int}


def _add_options(parser, options) -> None:
    """Add the common options named in options to parser."""
    kinds = {"output": {}, "format": {"choices": ["text", "record-stream"]}}
    for option in options:
        parser.add_argument(f"--{option}", **kinds.get(option, {"type": int}))


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: an argument it does not take is its own usage
    error, so the usage shown is the command's, not the root's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process: parsing leaves it unchanged."""
    # Every option left out stays unset, so that _bind can tell it from a
    # given one and take its value from COMMON_DEFAULTS, from BOUND_DEFAULTS
    # or from the signature of the construct family given.  Before the
    # subcommand the command is not known yet, so every common option is
    # parsed there, and main rejects one the command does not take; after
    # it, a command parses only those it takes, each overriding the same
    # one given before it.  construct parses every registry family's
    # parameters, and a family takes only its own.
    parser = argparse.ArgumentParser(
        prog="storagecode",
        description="GF(2) distributed-storage codes: validation, simulation, bounds, games",
        argument_default=argparse.SUPPRESS,
    )
    _add_options(parser, COMMON_DEFAULTS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        _add_options(p, _bind(name, fn, argparse.Namespace(), COMMON_DEFAULTS))
        return p

    p = command("validate", cmd_validate, "check a code file and print its profile")
    p.add_argument("path")

    p = command("construct", cmd_construct, "write a named code to a file")
    p.add_argument("name", choices=list(named_codes()))
    for option, param in _construct_options().items():
        p.add_argument(f"--{option}", **_argument(param))

    p = command("simulate", cmd_simulate, "run seeded failure/repair rounds on a code file")
    p.add_argument("path")

    p = command("bound", cmd_bound, "evaluate a closed-form bound")
    p.add_argument("name", choices=list(BOUNDS))
    for option in BOUND_DEFAULTS:
        if option != "case":
            p.add_argument(f"--{option}", type=int)
    p.add_argument("--case", type=_case, choices=THEOREM_CASES)

    p = command("game", cmd_game, "verify a locality-rate theorem by game search")
    p.add_argument("--case", required=True, type=_case, choices=[*THEOREM_CASES, flowgame.CASE_R2])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command on the common options it takes; an error it raises,
    and a common option given that it does not take, end as the exit code
    and one-line message of the first matching row in FAILURES."""
    args = build_parser().parse_args(argv)
    # By name at each call, not kept in the shared parser, so that a
    # wrapper installed on a command function sees the call.
    fn = globals()[f"cmd_{args.command}"]
    try:
        return fn(args, **_bind(args.command, fn, args, COMMON_DEFAULTS))
    except tuple(cls for cls, _, _ in FAILURES) as exc:
        status, prefix = next((s, p) for cls, s, p in FAILURES if isinstance(exc, cls))
        print(f"{prefix}{exc}", file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
