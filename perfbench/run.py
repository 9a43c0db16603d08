"""storagecodes benchmark: one workload per process, checked and timed.

    python3 perfbench/run.py --workload {game,marathon,exact} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; the library is imported from that
checkout's `src/` and nowhere else.  All timing uses the stdlib
`time.perf_counter`.  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.

--trace 0 times the untraced workload in whole passes: at least
MIN_PASSES, and more while the next one would end within --seconds.
Before each pass, set-up (import plus building every input) runs
SETUP_REPEATS times, each after dropping the package from
`sys.modules`; `setup_s` is the median of all of them.  A pass performs the same operations in the same
order every time, so each operation's time is taken as its median over
the passes; `wall_s` sums these medians over all operations of a pass,
and `peak_rss_mb` is the process peak.  The workload's own metrics
(phase sums and latency percentiles, each with its sample count) and
`error_rate` are printed above the JSON line.

--trace 1 runs one untraced pass, then wraps the public functions of
every layer (see tracer.py), sets up again and runs one traced pass.
It reports call counts and self time per layer, the tracing overhead,
and counts a failure for any result that differs from the untraced
pass.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "storagecodes"
LAYERS = ("gf2", "codes", "constructions", "bounds", "flowgame", "sim", "codefile", "cli")
SETUP_REPEATS = 5  # before each pass, so the samples span the run
MIN_PASSES = 3

# Functions reported with .calls and .self_s.
FUNCTIONS = (
    "flowgame.collector_value",
    "flowgame.build_flow_network",
    "flowgame.canonical_key",
    "flowgame.minimax",
    "flowgame.verify_theorem",
    "gf2.subspace_intersect",
    "gf2.subspace_sum",
    "gf2.span_contains",
    "gf2.subspaces_of",
    "gf2.enumerate_subspaces",
    "gf2.rank",
    "gf2.solve",
    "gf2.Subspace.spanned_by",
    "codes.find_repair_plan",
    "codes.repair_locality",
    "codes.recovery_dimension",
    "codes.validate",
    "codes.validate_plan",
    "codes.is_recovery_set",
    "sim.functional_repair",
    "sim.exact_repair",
    "sim.run_scenario",
    "sim.fail",
    "sim.collect",
    "codefile.dumps",
    "codefile.loads",
    "cli.main",
)
# Groups reported the same way under one name; .calls counts calls
# into the group from outside it.
GROUPS = {
    "constructions.spec_check": (
        "constructions.FunctionalSpec.satisfied",
        "constructions.FunctionalSpec.violations",
    ),
    "constructions.build": (
        "constructions.example1",
        "constructions.rbt_mbr",
        "constructions.single_parity",
        "constructions.repetition_code",
        "constructions.repetition_variants",
        "constructions.example3_spec",
        "constructions.example3_initial_bases",
    ),
    "sim.encode": ("sim.encode", "sim.encode_functional"),
}
COUNTED_ONLY = ("flowgame.kill", "flowgame.rebuild")


def import_lib() -> SimpleNamespace:
    """Import the package afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    mods = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in LAYERS}
    return SimpleNamespace(package=pkg, **mods)


def quantile(samples, q: int) -> float:
    """The q-th percentile (1..99) of the samples."""
    if len(samples) < 2:
        return samples[0] if samples else float("nan")
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def summed_medians(passes, kind: str) -> float:
    """Per-operation medians over the passes, summed over one pass."""
    return sum(statistics.median(t) for t in zip(*(p.samples[kind] for p in passes)))


def workload_metrics(wl, passes):
    """The workload's own end-to-end metrics: (name, value, unit, samples)."""
    out = []
    for metric, kind in wl.sums.items():
        out.append((metric, summed_medians(passes, kind), "s", len(passes)))
    for kind in wl.latencies:
        pooled = [s * 1000 for p in passes for s in p.samples[kind]]
        for q in (50, 99):
            out.append((f"{kind}_p{q}_ms", quantile(pooled, q), "ms", len(pooled)))
    return out


def untraced(wl, seed: int, seconds: float, workdir: Path):
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            lib = import_lib()
            inputs = wl.setup(lib, seed, workdir)
            setups.append(time.perf_counter() - t0)
        rec = workloads.Recorder()
        t0 = time.perf_counter()
        wl.run(lib, inputs, rec)
        rec.wall = time.perf_counter() - t0
        if passes:
            rec.check(rec.fingerprint == passes[0].fingerprint, "pass output differs from pass 1")
        passes.append(rec)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + rec.wall > seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    gated = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (sum(summed_medians(passes, k) for k in passes[0].samples), "s", len(passes)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    shown = dict(gated)
    shown["error_rate"] = (failed / attempted, "ratio", attempted)
    for name, value, unit, n in workload_metrics(wl, passes):
        shown[name] = (value, unit, n)
    lines = passes[0].counts
    if lines["lines"]:
        shown["flowgame.line_replayable"] = (lines["lines_replayable"], "count", lines["lines"])
    return passes, attempted, failed, gated, shown


def install_hooks(tr: Tracer) -> dict:
    """Counters read from results, outside any span."""
    c = {"keys": set(), "found": 0, "ok": 0, "nonzero": 0, "bytes": 0, "repairs": 0, "symbols": 0}

    def repaired(args, result):
        c["repairs"] += 1
        c["symbols"] += int(dict(args[0].trace[-1].payload)["symbols_transferred"])

    def add(key, value):
        c[key] += value

    tr.hooks.update({
        "flowgame.canonical_key": lambda args, key: c["keys"].add(key),
        "codes.find_repair_plan": lambda args, plan: add("found", plan is not None),
        "sim.collect": lambda args, got: add("ok", got is not None),
        "cli.main": lambda args, status: add("nonzero", status != 0),
        "codefile.dumps": lambda args, text: add("bytes", len(text.encode())),
        "sim.exact_repair": repaired,
        "sim.functional_repair": repaired,
    })
    return c


def traced(wl, seed: int, workdir: Path):
    lib = import_lib()
    base = workloads.Recorder()
    inputs = wl.setup(lib, seed, workdir)
    t0 = time.perf_counter()
    wl.run(lib, inputs, base)
    base.wall = time.perf_counter() - t0

    tr = Tracer()
    counters = install_hooks(tr)
    rec = workloads.Recorder()
    tr.install([lib.package, *(getattr(lib, s) for s in LAYERS)], PACKAGE)
    try:
        inputs = wl.setup(lib, seed, workdir)
        self_before = tr.total_self_s()
        t0 = time.perf_counter()
        wl.run(lib, inputs, rec)
        rec.wall = time.perf_counter() - t0
        self_pass = tr.total_self_s() - self_before
    finally:
        tr.restore()
    rec.check(rec.fingerprint == base.fingerprint, "traced output differs from untraced")

    def ratio(part, whole):
        return part / whole if whole else 0.0

    m = {}
    for layer in LAYERS:
        names = [n for n in tr.names() if n.startswith(layer + ".")]
        m[f"{layer}.calls"] = (tr.entries(names), "count")
        m[f"{layer}.self_s"] = (tr.self_s(names), "s")
    for name in FUNCTIONS:
        m[f"{name}.calls"] = (tr.calls[name], "count")
        m[f"{name}.self_s"] = (tr.self_s([name]), "s")
    for metric, names in GROUPS.items():
        m[f"{metric}.calls"] = (tr.entries(names), "count")
        m[f"{metric}.self_s"] = (tr.self_s(names), "s")
    for name in COUNTED_ONLY:
        m[f"{name}.calls"] = (tr.calls[name], "count")
    m["flowgame.canonical_key.distinct_ratio"] = (
        ratio(len(counters["keys"]), tr.calls["flowgame.canonical_key"]), "ratio")
    m["flowgame.line_replayable"] = (rec.counts["lines_replayable"], "count")
    m["flowgame.line_replayable.base"] = (rec.counts["lines"], "count")
    m["gf2.subspaces_of.yielded"] = (tr.yielded["gf2.subspaces_of"], "count")
    m["codes.find_repair_plan.found_ratio"] = (
        ratio(counters["found"], tr.calls["codes.find_repair_plan"]), "ratio")
    m["sim.collect.ok_ratio"] = (ratio(counters["ok"], tr.calls["sim.collect"]), "ratio")
    m["sim.symbols_transferred"] = (counters["symbols"], "count")
    m["sim.repairs"] = (counters["repairs"], "count")
    m["codefile.bytes"] = (counters["bytes"], "count")
    m["cli.main.exit_nonzero"] = (counters["nonzero"], "count")
    m["trace.wall_s"] = (rec.wall, "s")
    m["trace.untraced_wall_s"] = (base.wall, "s")
    m["trace.overhead_s"] = (rec.wall - base.wall, "s")
    m["trace.self_s_sum"] = (self_pass, "s")
    attempted = base.attempted + rec.attempted
    failed = base.failed + rec.failed
    return [base, rec], attempted, failed, m, tr


def print_edges(tr: Tracer, top: int = 25) -> None:
    """The heaviest (function, caller) pairs by self time."""
    rows = sorted(tr.edges.items(), key=lambda kv: -kv[1][1])[:top]
    print(f"  {'self_s':>10} {'spans':>9}  function <- caller")
    for (name, parent), (spans, self_s) in rows:
        print(f"  {self_s:10.4f} {int(spans):9d}  {name} <- {parent or '(benchmark)'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        if args.trace:
            passes, attempted, failed, metrics, tr = traced(wl, args.seed, Path(workdir))
        else:
            passes, attempted, failed, metrics, shown = untraced(wl, args.seed, args.seconds, Path(workdir))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}"
          + (" (untraced, traced)" if args.trace else ""))
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:42s} {value:14.6g} {unit}")
        print_edges(tr)
        result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        for name, (value, unit, n) in shown.items():
            print(f"  {name:26s} {value:14.6g} {unit:6s} n={n}")
        result = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    for p in passes:
        for err in p.errors:
            print(f"FAILED: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
