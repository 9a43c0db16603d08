"""Tests of the benchmark itself: the tracer, the checks and the contract.

    python3 -m pytest -q perfbench/tests

Workloads run here at reduced size (fewer cases and rounds) and with a
seed that has no pinned digests, so every check that does not depend
on a pin runs against inputs the pins never saw.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

UNSEEN_SEED = 987654321


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_self_time_adds_up():
    clock = Clock()
    tr = Tracer(clock)

    def leaf():
        clock.now += 2

    leaf = tr.wrap(leaf, "m.leaf")

    def mid():
        clock.now += 1
        leaf()
        leaf()
        clock.now += 3

    mid = tr.wrap(mid, "m.mid")

    def top():
        clock.now += 5
        mid()

    tr.wrap(top, "m.top")()
    assert tr.self_s(["m.leaf"]) == 4
    assert tr.self_s(["m.mid"]) == 4
    assert tr.self_s(["m.top"]) == 5
    assert tr.total_self_s() == clock.now == 13
    assert tr.edges[("m.leaf", "m.mid")][0] == 2
    assert tr.entries(["m.mid", "m.leaf"]) == 1  # one call into the group


def test_generator_resumptions_are_spans_and_yields_are_counted():
    clock = Clock()
    tr = Tracer(clock)

    def gen(n):
        for i in range(n):
            clock.now += 1
            yield i

    gen = tr.wrap(gen, "m.gen")

    def consume():
        clock.now += 10
        out = list(gen(3))
        for _ in gen(5):
            break  # abandoned after one item
        return out

    assert tr.wrap(consume, "m.consume")() == [0, 1, 2]
    assert tr.calls["m.gen"] == 2
    assert tr.yielded["m.gen"] == 4
    assert tr.edges[("m.gen", "m.consume")][0] == 5  # 4 resumptions + the exhausting one
    assert tr.self_s(["m.gen"]) == 4
    assert tr.self_s(["m.consume"]) == 10
    assert not tr._stack


def test_install_wraps_every_binding_and_restore_undoes_it():
    lib = run.import_lib()
    spec_cls = lib.constructions.FunctionalSpec
    originals = (lib.gf2.solve, lib.sim.solve, vars(spec_cls)["satisfied"], vars(lib.gf2.Subspace)["spanned_by"])
    tr = Tracer()
    tr.install([getattr(lib, s) for s in run.LAYERS], run.PACKAGE)
    try:
        assert lib.sim.solve is lib.gf2.solve is not originals[0]
        assert lib.cli.repair_locality is lib.codes.repair_locality
        v = lib.gf2.BitVector(3, 0b101)
        space = lib.gf2.Subspace.spanned_by(3, [v])
        assert space.contains(v)
        spec = lib.constructions.example3_spec()
        assert not spec.satisfied([space])
    finally:
        tr.restore()
    assert tr.calls["gf2.Subspace.spanned_by"] == 1
    assert tr.calls["constructions.FunctionalSpec.satisfied"] == 1
    assert tr.calls["constructions.FunctionalSpec.violations"] == 1
    assert tr.calls["gf2.span_contains"] == 1
    restored = (lib.gf2.solve, lib.sim.solve, vars(spec_cls)["satisfied"], vars(lib.gf2.Subspace)["spanned_by"])
    assert restored == originals


@pytest.fixture
def small(monkeypatch):
    """Each workload cut down to a few seconds."""
    monkeypatch.setattr(workloads, "VERIFY_CASES", [c for c in workloads.VERIFY_CASES if c[1] <= 5])
    monkeypatch.setattr(workloads, "MINIMAX_PINS", {((4, 3, 3, 1), 8): 6})
    monkeypatch.setattr(workloads, "MARATHON_ROUNDS", 60)
    monkeypatch.setattr(workloads, "EXACT_CODES", [c for c in workloads.EXACT_CODES if c[1] != (6,)])
    monkeypatch.setattr(workloads, "CACHED_REPS", 2)
    monkeypatch.setattr(workloads, "SEARCHED_REPS", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_agrees_with_untraced_and_covers_the_contract(small, tmp_path, name):
    wl = workloads.WORKLOADS[name]
    passes, attempted, failed, m, _ = run.traced(wl, UNSEEN_SEED, tmp_path)
    errors = [e for p in passes for e in p.errors]
    assert failed == 0, errors
    assert passes[0].fingerprint == passes[1].fingerprint
    assert m["trace.self_s_sum"][0] <= m["trace.wall_s"][0]

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [x["name"] for x in contract["per_layer"]] == list(m)
    for x in contract["per_layer"]:
        assert m[x["name"]][1] == x["unit"]

    def calls(layer):
        return m[f"{layer}.calls"][0]

    if name == "game":
        assert calls("gf2") == calls("codes") == calls("sim") == 0
        assert m["flowgame.self_s"][0] > 0.5 * m["trace.self_s_sum"][0]
        assert m["flowgame.line_replayable.base"][0] == len(workloads.VERIFY_CASES) + 1
    else:
        assert calls("flowgame") == 0
        assert m["sim.repairs"][0] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_unseen_seed_passes_every_check(small, tmp_path, name):
    passes, attempted, failed, gated, shown = run.untraced(
        workloads.WORKLOADS[name], UNSEEN_SEED, 0, tmp_path
    )
    assert failed == 0, [e for p in passes for e in p.errors]
    assert len(passes) == run.MIN_PASSES
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [x["name"] for x in contract["end_to_end"]] == list(gated)
    assert all(value > 0 for value, _, _ in gated.values())


def test_a_wrong_pin_is_counted_as_a_failure(small, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "MINIMAX_PINS", {((4, 3, 3, 1), 8): 5})
    rec = workloads.Recorder()
    wl = workloads.WORKLOADS["game"]
    lib = run.import_lib()
    wl.run(lib, wl.setup(lib, 0, tmp_path), rec)
    assert rec.failed == 1 and "(4, 3, 3, 1)" in rec.errors[0]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{BENCH.name}/run.py", "--workload", "game", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
