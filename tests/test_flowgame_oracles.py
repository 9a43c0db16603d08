"""Independent oracles for the game engine's fast paths.

networkx decides isomorphism (for canonical_key) and max flow (for
collector_value, on the plain uncontracted network); a plain minimax
with no table, no alpha-beta and no canonical keys checks minimax.
Every input is seeded.
"""

import hashlib
import random
import time
from itertools import combinations
from typing import Dict, List, Tuple

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from storagecodes import flowgame
from storagecodes.flowgame import (
    FlowGraph,
    Incarnation,
    canonical_key,
    collector_value,
    initial_graph,
    kill,
    make_game,
    minimax,
    rebuild,
)

from test_flowgame import contraction_cases, plain_flow_network


def random_game_graph(rng: random.Random, max_n: int = 4, max_rounds: int = 4) -> FlowGraph:
    """A random kill/rebuild history with one (alpha, beta, r) throughout."""
    n = rng.randrange(3, max_n + 1)
    alpha, beta = rng.randrange(1, 3), rng.randrange(1, 3)
    r = rng.randrange(1, n)
    g = initial_graph(n, alpha)
    for _ in range(rng.randrange(0, max_rounds + 1)):
        g = kill(g, rng.choice(sorted(g.live)))
        g = rebuild(g, rng.sample(sorted(g.live), r), alpha, beta)
    return g


def relevant_nodes(g: FlowGraph) -> List[int]:
    """Incarnations with a path to a live one (the keyed subgraph)."""
    seen = set()
    stack = list(g.live)
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(h for h, _ in g.nodes[v].helpers)
    return sorted(seen)


def to_networkx(g: FlowGraph) -> nx.DiGraph:
    graph = nx.DiGraph()
    for v in relevant_nodes(g):
        inc = g.nodes[v]
        graph.add_node(v, color=(v in g.live, inc.alpha, not inc.helpers))
        for h, b in inc.helpers:
            graph.add_edge(h, v, beta=b)
    return graph


# A pair of isomorphic states that got different keys while each helper
# list was ordered by original index instead of by canonical position.
SPLIT_PAIR = (
    rebuild(kill(rebuild(kill(initial_graph(4, 2), 1), [0, 2, 3], 2, 1), 0), [2, 3, 4], 2, 1),
    rebuild(kill(rebuild(kill(initial_graph(4, 2), 3), [0, 1, 2], 2, 1), 2), [0, 1, 4], 2, 1),
)


def two_helper_graph(pairs: List[Tuple[int, int]]) -> FlowGraph:
    """Dead initial nodes 0..7 and one live child per helper pair."""
    children = tuple(Incarnation(1, ((a, 1), (b, 1))) for a, b in sorted(map(sorted, pairs)))
    return FlowGraph((Incarnation(1, ()),) * 8 + children, frozenset(range(8, 8 + len(pairs))))


# An 8-cycle and two 4-cycles through the initial nodes, labelled two ways.
# Color refinement leaves every initial node in one cell although the
# cell is not an orbit, so the key depends on branching beyond twins.
RING = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (4, 5), (6, 7), (6, 7)]
REFINEMENT_HARD = (
    two_helper_graph(RING),
    two_helper_graph([(7 - a, 7 - b) for a, b in RING]),
)


@pytest.fixture(scope="module")
def oracle_graphs() -> List[FlowGraph]:
    rng = random.Random(600)
    graphs = [random_game_graph(rng) for _ in range(600)]
    return graphs + list(SPLIT_PAIR) + list(REFINEMENT_HARD)


def test_canonical_key_matches_networkx_isomorphism(oracle_graphs):
    graphs = [to_networkx(g) for g in oracle_graphs]
    keys = [canonical_key(g) for g in oracle_graphs]
    node_match = lambda a, b: a["color"] == b["color"]
    edge_match = lambda a, b: a["beta"] == b["beta"]
    pairs, isomorphic, mismatches = 0, 0, []
    for i, j in combinations(range(len(graphs)), 2):
        if len(graphs[i]) != len(graphs[j]):
            continue
        pairs += 1
        iso = nx.is_isomorphic(graphs[i], graphs[j], node_match=node_match, edge_match=edge_match)
        isomorphic += iso
        if iso != (keys[i] == keys[j]):
            mismatches.append((i, j, iso))
    assert mismatches == []
    assert pairs > 10000 and isomorphic > 1000


def branch_on_all_key(g: FlowGraph) -> str:
    """canonical_key's refinement and encoding, individualizing every
    member of the target cell (no twin pruning)."""
    rel = relevant_nodes(g)
    index = {v: i for i, v in enumerate(rel)}
    n = len(rel)
    helpers = [tuple(sorted((b, index[h]) for h, b in g.nodes[v].helpers)) for v in rel]
    children: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        for b, h in helpers[i]:
            children[h].append((b, i))
    live = [v in g.live for v in rel]
    alphas = [g.nodes[v].alpha for v in rel]

    def recolor(signatures: list) -> List[int]:
        mapping = {sig: j for j, sig in enumerate(sorted(set(signatures)))}
        return [mapping[sig] for sig in signatures]

    def refine(colors: List[int]) -> List[int]:
        while True:
            new = recolor([
                (
                    colors[i],
                    tuple(sorted((b, colors[h]) for b, h in helpers[i])),
                    tuple(sorted((b, colors[c]) for b, c in children[i])),
                )
                for i in range(n)
            ])
            if new == colors:
                return colors
            colors = new

    def canonize(colors: List[int]) -> str:
        colors = refine(colors)
        cells: Dict[int, List[int]] = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        ambiguous = [cell for cell in cells.values() if len(cell) > 1]
        if not ambiguous:
            order = sorted(range(n), key=lambda i: colors[i])
            pos = {v: i for i, v in enumerate(order)}
            return ";".join(
                f"{int(live[v])}|{alphas[v]}|"
                + ",".join(f"{b}:{p}" for b, p in sorted((b, pos[h]) for b, h in helpers[v]))
                for v in order
            )
        target = min(ambiguous, key=lambda cell: (len(cell), colors[cell[0]]))
        fresh = max(colors) + 1
        return min(
            canonize([fresh if i == member else c for i, c in enumerate(colors)])
            for member in target
        )

    return canonize(recolor([(live[i], alphas[i], not helpers[i]) for i in range(n)]))


def test_twin_pruned_key_equals_branch_on_all(oracle_graphs):
    for g in oracle_graphs + [initial_graph(5, 1), kill(initial_graph(5, 2), 0)]:
        assert canonical_key(g) == branch_on_all_key(g), g


# sha256 of the newline-joined keys of oracle_graphs, recorded before
# canonical_key's overhead was trimmed: the key strings themselves, not
# only the equivalence they induce, must stay the same.
ORACLE_KEYS_SHA256 = "82cdac4fb1f69db7d4c065f50d80ea7f109f191147953b02c2ec26e25c1d5271"


def test_canonical_key_strings_are_pinned(oracle_graphs):
    keys = "\n".join(canonical_key(g) for g in oracle_graphs)
    assert hashlib.sha256(keys.encode()).hexdigest() == ORACLE_KEYS_SHA256


# sha256 of the sorted keys of every labelled graph two searches key,
# recorded before canonical_key read incarnation ids in place of an
# index remap: the game's own keys must stay byte for byte the same.
SEARCH_KEYS_SHA256 = "24c3c4cedb122f9b397fb6d3dd1568436c1f056f464c59beb41a4e5c6aa2d1e8"


def test_search_keys_are_pinned(monkeypatch):
    keys: List[str] = []
    key_of = flowgame.canonical_key
    monkeypatch.setattr(flowgame, "canonical_key", lambda g: keys.append(key_of(g)) or keys[-1])
    minimax(make_game(4, 3, 3, 1), 6)
    flowgame.verify_theorem("r2", 6, 2, 2, 1, 12)
    assert len(keys) == 273
    assert hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest() == SEARCH_KEYS_SHA256


def test_killing_the_newcomer_restores_the_key():
    # The searcher reuses the killed state's key for its rebuild child's
    # first kill, the newcomer's, which nothing depends on yet.
    rng = random.Random(12)
    checked = 0
    for _ in range(400):
        rebuilt = random_game_graph(rng)
        for g in (rebuilt, kill(rebuilt, rng.choice(sorted(rebuilt.live)))):
            key = canonical_key(g)
            alpha, beta = rng.randrange(1, 4), rng.randrange(1, 4)
            live = sorted(g.live)
            for size in range(1, len(live) + 1):
                for helpers in combinations(live, size):
                    child = rebuild(g, helpers, alpha, beta)
                    assert canonical_key(kill(child, len(g.nodes))) == key, (g, helpers)
                    checked += 1
    assert checked > 5000


# ---------------------------------------------------------------------------
# collector_value


def test_equal_keys_have_equal_collector_values(oracle_graphs):
    # The searcher memoises max flows by the killed state's key, which is
    # sound only if the key determines the collector value.
    cuts: Dict[str, int] = {}
    states = [s for g in oracle_graphs for s in [g] + [kill(g, v) for v in sorted(g.live)]]
    for g in states:
        value = collector_value(g)
        assert cuts.setdefault(canonical_key(g), value) == value, g
    assert len(states) - len(cuts) > 1000


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.randoms(use_true_random=False))
def test_rebuild_keeps_collector_value(rng):
    g = random_game_graph(rng, max_n=5, max_rounds=5)
    killed = kill(g, rng.choice(sorted(g.live)))
    value = collector_value(killed)
    live = sorted(killed.live)
    alpha, beta = rng.randrange(1, 4), rng.randrange(1, 4)
    for r in range(1, len(live) + 1):
        for helpers in combinations(live, r):
            assert collector_value(rebuild(killed, helpers, alpha, beta)) == value


def rebuilt_graph(rng: random.Random, n: int, alpha: int, beta: int, rounds: int) -> FlowGraph:
    """rounds kills, each followed by a rebuild from a random nonempty helper set."""
    g = initial_graph(n, alpha)
    for _ in range(rounds):
        g = kill(g, rng.choice(sorted(g.live)))
        live = sorted(g.live)
        g = rebuild(g, rng.sample(live, rng.randrange(1, len(live) + 1)), alpha, beta)
    return g


def networkx_collector_value(g: FlowGraph) -> int:
    n_vertices, edges, s, t = plain_flow_network(g)
    network = nx.DiGraph()
    network.add_nodes_from(range(n_vertices))
    for u, v, c in edges:
        network.add_edge(u, v, capacity=c)
    return nx.maximum_flow_value(network, s, t)


def test_collector_value_matches_networkx_max_flow():
    rng = random.Random(4300)
    for _ in range(150):
        n = rng.randrange(3, 7)
        alpha, beta = rng.randrange(1, 4), rng.randrange(1, 4)
        g = rebuilt_graph(rng, n, alpha, beta, rng.randrange(8 - n, 12))
        assert plain_flow_network(g)[0] > 14
        assert collector_value(g) == networkx_collector_value(g)
    for g, _, value in contraction_cases().values():
        assert collector_value(g) == value == networkx_collector_value(g)


def test_max_flow_augmentations_do_not_depend_on_capacity():
    # With capacities near 10**9, an augmentation rule whose number of
    # rounds grows with the capacities (one unit per path, say) would run
    # for hours; shortest augmenting paths need a handful per network.
    rng = random.Random(10**9)
    elapsed = 0.0
    for _ in range(40):
        n = rng.randrange(3, 6)
        alpha, beta = 10**9 + rng.randrange(100), 10**9 // rng.randrange(2, 5)
        g = rebuilt_graph(rng, n, alpha, beta, rng.randrange(2, 8))
        start = time.perf_counter()
        value = collector_value(g)
        elapsed += time.perf_counter() - start
        assert value == networkx_collector_value(g)
    assert elapsed < 10


# ---------------------------------------------------------------------------
# minimax


def plain_value(g: FlowGraph, rounds: int, r: int, alpha: int, beta: int) -> float:
    """Min over kills, max over rebuilds, of the smallest post-rebuild cut."""
    if rounds == 0:
        return float("inf")
    return min(
        max(
            min(collector_value(child), plain_value(child, rounds - 1, r, alpha, beta))
            for helpers in combinations(sorted(killed.live), r)
            for child in (rebuild(killed, helpers, alpha, beta),)
        )
        for victim in sorted(g.live)
        for killed in (kill(g, victim),)
    )


def plain_minimax(n: int, r: int, alpha: int, beta: int, horizon: int) -> Tuple[int, int]:
    """(value, horizon) as minimax reports them: deepening stops at value 0."""
    g = initial_graph(n, alpha)
    start = collector_value(g)
    for depth in range(1, horizon + 1):
        value = min(start, plain_value(g, depth, r, alpha, beta))
        if value == 0:
            break
    return int(value), depth


GAMES = [
    (n, r, alpha, beta, h)
    for n, max_h in ((3, 4), (4, 3))
    for r in range(1, n)
    for alpha in (1, 2, 3)
    for beta in (1, 2)
    for h in range(1, max_h + 1)
]


def test_search_keys_no_graph_twice_and_runs_no_flow_twice(monkeypatch):
    # Deepening and window re-searches revisit positions; the searcher's
    # memos must keep them from keying a labelled graph again or running
    # a max flow on a killed state isomorphic to one already cut.
    keyed: List[FlowGraph] = []
    cut: List[str] = []
    key_of, value_of = flowgame.canonical_key, flowgame.collector_value

    def counted_key(g):
        keyed.append(g)
        return key_of(g)

    def counted_value(g):
        cut.append(key_of(g))
        return value_of(g)

    monkeypatch.setattr(flowgame, "canonical_key", counted_key)
    monkeypatch.setattr(flowgame, "collector_value", counted_value)
    assert minimax(make_game(5, 2, 2, 1), 6).value == 5
    assert len(keyed) > 500 and len(cut) > 200
    assert len(keyed) - len(set(keyed)) == 0
    assert len(cut) - len(set(cut)) == 0


def test_minimax_matches_plain_minimax():
    assert len(GAMES) == 102
    for n, r, alpha, beta, h in GAMES:
        got = minimax(make_game(n, r, alpha, beta), h)
        assert (got.value, got.horizon) == plain_minimax(n, r, alpha, beta, h), (n, r, alpha, beta, h)
