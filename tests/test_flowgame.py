"""Tests for information-flow graphs and the kill/rebuild min-cut game.

Max-flow answers are checked against an independent brute-force min-cut
enumeration on the plain information-flow network (every incarnation's
in and out vertices, unbounded source and collector edges), so the
library's contracted network is measured against the uncontracted one;
game values for small parameter sets were computed by an
exhaustive unpruned minimax and frozen here.
"""

import random

import pytest

from storagecodes.bounds import cutset_bound
from storagecodes.flowgame import (
    CapExceededError,
    FlowGraph,
    Incarnation,
    build_flow_network,
    canonical_key,
    collector_value,
    dimakis_cutset_value,
    initial_graph,
    kill,
    make_game,
    minimax,
    rebuild,
    verify_theorem,
)


def brute_force_min_cut(n_vertices, edges, s, t):
    """Minimum s-t cut by enumerating every source-side vertex subset."""
    others = [v for v in range(n_vertices) if v not in (s, t)]
    best = None
    for mask in range(1 << len(others)):
        side = {s}
        for i, v in enumerate(others):
            if (mask >> i) & 1:
                side.add(v)
        cut = sum(c for u, v, c in edges if u in side and v not in side)
        if best is None or cut < best:
            best = cut
    return best


def plain_flow_network(g: FlowGraph):
    """Vertex count, edges, source, sink of the uncontracted network.

    Vertex 0 is the source and 1 the sink; incarnation i has in vertex
    2+2i and out vertex 3+2i.  Each initial node gets a source edge and
    each live node a collector edge, both unbounded: larger than all
    finite capacities together.
    """
    unbounded = 1 + sum(inc.alpha + sum(b for _, b in inc.helpers) for inc in g.nodes)
    edges = []
    for i, inc in enumerate(g.nodes):
        edges += [(3 + 2 * h, 2 + 2 * i, b) for h, b in inc.helpers]
        if not inc.helpers:
            edges.append((0, 2 + 2 * i, unbounded))
        edges.append((2 + 2 * i, 3 + 2 * i, inc.alpha))
    edges += [(3 + 2 * i, 1, unbounded) for i in sorted(g.live)]
    return 2 + 2 * len(g.nodes), edges, 0, 1


def random_small_graph(rng: random.Random) -> FlowGraph:
    """A random kill/rebuild history with at most 6 incarnations."""
    n = rng.randrange(2, 4)
    alpha = rng.randrange(1, 4)
    beta = rng.randrange(1, 4)
    g = initial_graph(n, alpha)
    for _ in range(rng.randrange(0, 4)):
        victim = rng.choice(sorted(g.live))
        g = kill(g, victim)
        live = sorted(g.live)
        r = rng.randrange(1, len(live) + 1)
        g = rebuild(g, rng.sample(live, r), alpha, beta)
    return g


# ---------------------------------------------------------------------------
# graph mechanics


def test_initial_graph_collector_value():
    assert collector_value(initial_graph(3, 2)) == 6
    assert collector_value(initial_graph(2, 1)) == 2


def test_initial_graph_edge_count():
    # every node is initial and live, so each is one source-to-sink edge
    assert build_flow_network(initial_graph(4, 1)) == (2, [(0, 1, 1)] * 4, 0, 1)
    # the plain network: per incarnation a source and an internal edge,
    # plus 4 collector edges
    n_vertices, edges, s, t = plain_flow_network(initial_graph(4, 1))
    assert n_vertices == 2 + 2 * 4
    assert len(edges) == 2 * 4 + 4


def test_initial_graph_validation():
    with pytest.raises(ValueError):
        initial_graph(1, 1)
    with pytest.raises(ValueError):
        initial_graph(3, 0)


def test_kill_removes_from_live_only():
    g = initial_graph(3, 2)
    g2 = kill(g, 1)
    assert g2.live == frozenset({0, 2})
    assert len(g2.nodes) == 3
    with pytest.raises(ValueError):
        kill(g2, 1)


def test_killing_isolated_node_drops_alpha():
    g = initial_graph(3, 2)
    assert collector_value(kill(g, 0)) == 4


def test_rebuild_adds_connected_incarnation():
    g = rebuild(kill(initial_graph(3, 1), 2), [0, 1], 1, 1)
    assert g.live == frozenset({0, 1, 3})
    assert g.nodes[3].helpers == ((0, 1), (1, 1))


def test_rebuild_rejects_dead_helper():
    g = kill(initial_graph(3, 1), 2)
    with pytest.raises(ValueError):
        rebuild(g, [2, 0], 1, 1)


def test_graph_records_are_values():
    # the same labelled graph reached by two move orders is one dict key
    g = rebuild(kill(initial_graph(4, 1), 3), [2, 0, 1], 1, 1)
    a = kill(kill(g, 0), 4)
    b = kill(kill(g, 4), 0)
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    # another beta on one helper edge is another graph
    newcomer = Incarnation(1, ((1, 1), (2, 2)))
    c = FlowGraph(a.nodes[:4] + (newcomer,), a.live)
    assert c != a and {a: 1}.get(c) is None
    with pytest.raises(AttributeError):
        a.live = frozenset()
    with pytest.raises(AttributeError):
        a.nodes[4].alpha = 2
    with pytest.raises(ValueError, match="^node 0 is not live$"):
        kill(a, 0)
    with pytest.raises(ValueError, match="^helper 4 is not live$"):
        rebuild(a, [1, 4], 1, 1)
    with pytest.raises(ValueError, match="^alpha and beta must be positive$"):
        rebuild(a, [1], 1, 0)


def test_one_round_share_limited_value():
    # n=3, r=2, alpha=beta=1: the newcomer's flow must pass through the
    # helpers' saturated internal edges, so the value stays 2
    g = rebuild(kill(initial_graph(3, 1), 2), [0, 1], 1, 1)
    assert collector_value(g) == 2


def test_dead_interior_vertex_still_carries_flow():
    # helper dies after the rebuild; its out-vertex still feeds the child
    g = rebuild(kill(initial_graph(3, 1), 2), [0, 1], 1, 1)
    g = kill(g, 0)
    g = rebuild(g, [1, 3], 1, 1)
    assert 0 not in g.live
    assert collector_value(g) >= 2


def test_rebuild_never_increases_value_beyond_pre_kill():
    rng = random.Random(41)
    for _ in range(60):
        g = random_small_graph(rng)
        before = collector_value(g)
        victim = max(g.live)
        killed = kill(g, victim)
        live = sorted(killed.live)
        helpers = live[: max(1, len(live) - 1)]
        rebuilt = rebuild(killed, helpers, 2, 1)
        assert collector_value(rebuilt) <= before


def test_collector_restriction():
    # the collector reads only live nodes; killed ones keep their edges
    g = kill(kill(initial_graph(4, 2), 2), 3)
    assert collector_value(g) == 4
    # the dead nodes 2 and 3 have no live descendant, so they get no vertex
    assert build_flow_network(g) == (2, [(0, 1, 2), (0, 1, 2)], 0, 1)
    assert len(plain_flow_network(g)[1]) == 2 * 4 + 2


# ---------------------------------------------------------------------------
# max flow against brute force


def test_collector_value_matches_brute_force():
    rng = random.Random(43)
    for _ in range(200):
        g = random_small_graph(rng)
        n_vertices, edges, s, t = plain_flow_network(g)
        assert n_vertices <= 14
        assert collector_value(g) == brute_force_min_cut(n_vertices, edges, s, t)


def contraction_cases():
    """Graphs whose contracted network differs from the plain one:
    name -> (graph, contracted vertex count, collector value)."""
    g = initial_graph(3, 2)
    one = rebuild(kill(g, 2), [0, 1], 2, 1)  # nodes 0, 1 live initial, 3 live
    deep = rebuild(kill(one, 0), [1, 3], 2, 1)
    branch = kill(kill(rebuild(kill(g, 0), [1, 2], 2, 1), 3), 2)
    return {
        # node 3's helper edges leave live nodes, so its in vertex is fed by none
        "live initial node": (one, 3, 4),
        # the dead initial nodes 0 and 1 keep only an out vertex, the dead
        # node 3 both, and the live node 4 only an in vertex
        "dead initial ancestors": (kill(kill(deep, 1), 3), 7, 2),
        # node 3 and its helper 2 are dead and no live node descends from them
        "dead branch": (rebuild(branch, [1], 2, 1), 3, 2),
        "only initial nodes live": (kill(kill(rebuild(kill(g, 2), [0, 1], 2, 1), 3), 0), 2, 2),
        "no live node": (kill(kill(initial_graph(2, 1), 0), 1), 2, 0),
    }


@pytest.mark.parametrize("case", sorted(contraction_cases()))
def test_contracted_network_matches_brute_force_on_the_plain_one(case):
    g, n_vertices, value = contraction_cases()[case]
    network = build_flow_network(g)
    assert network[0] == n_vertices
    assert all(u != 1 and v != 0 for u, v, _ in network[1])  # nothing leaves the sink
    assert collector_value(g) == value == brute_force_min_cut(*plain_flow_network(g))


def test_value_never_exceeds_n_alpha():
    rng = random.Random(47)
    for _ in range(50):
        g = random_small_graph(rng)
        alpha_total = sum(g.nodes[i].alpha for i in g.live)
        assert collector_value(g) <= alpha_total


# ---------------------------------------------------------------------------
# the classic cutset replay


def test_dimakis_replay_reproduces_cutset_bound_small():
    for n in (3, 4, 5):
        for r in range(1, n):
            for k in range(1, r + 1):
                for alpha in (1, 2):
                    for beta in (1, 2):
                        assert dimakis_cutset_value(n, k, r, alpha, beta) == cutset_bound(
                            k, r, alpha, beta
                        )


def test_dimakis_replay_validates_parameters():
    with pytest.raises(ValueError):
        dimakis_cutset_value(3, 3, 3, 1, 1)  # r > n-1


# ---------------------------------------------------------------------------
# canonical keys


def test_canonical_key_invariant_under_node_relabeling():
    # same play from interchangeable initial nodes
    a = rebuild(kill(initial_graph(4, 1), 0), [1, 2], 1, 1)
    b = rebuild(kill(initial_graph(4, 1), 3), [0, 1], 1, 1)
    assert canonical_key(a) == canonical_key(b)


def test_canonical_key_distinguishes_structure():
    base = kill(initial_graph(4, 1), 0)
    two_helpers = rebuild(base, [1, 2], 1, 1)
    three_helpers = rebuild(base, [1, 2, 3], 1, 1)
    assert canonical_key(two_helpers) != canonical_key(three_helpers)


def test_canonical_key_ignores_dead_non_ancestors():
    # a dead node with no live descendants cannot affect future cuts
    g = initial_graph(3, 1)
    a = rebuild(kill(g, 2), [0, 1], 1, 1)
    fresh = initial_graph(2, 1)
    killed_then_built = rebuild(kill(initial_graph(3, 1), 2), [0, 1], 1, 1)
    assert canonical_key(a) == canonical_key(killed_then_built)
    # but it is not the same as two initial nodes plus a different child
    assert canonical_key(a) != canonical_key(fresh)


def test_canonical_key_depends_on_live_flags():
    g = rebuild(kill(initial_graph(3, 1), 2), [0, 1], 1, 1)
    assert canonical_key(g) != canonical_key(kill(g, 0))


# ---------------------------------------------------------------------------
# the game


def test_make_game_validates():
    with pytest.raises(ValueError):
        make_game(3, 3, 1, 1)  # r > n-1


@pytest.mark.parametrize("beta", [0, -5])
def test_nonpositive_capacities_are_rejected(beta):
    # beta = 0 made minimax(make_game(4, 3, 2, 0), 3) return 2, and a
    # negative beta made the collector value 0
    with pytest.raises(ValueError, match="beta must be positive"):
        make_game(4, 3, 2, beta)
    with pytest.raises(ValueError, match="alpha and beta must be positive"):
        rebuild(kill(initial_graph(3, 1), 2), [0, 1], 1, beta)
    with pytest.raises(ValueError, match="alpha and beta must be positive"):
        rebuild(kill(initial_graph(3, 1), 2), [0, 1], 0, 1)


def test_minimax_validates():
    state = make_game(3, 2, 1, 1)
    with pytest.raises(ValueError):
        minimax(state, 0)


def test_minimax_horizon_one_value():
    # one kill + best rebuild from the start state
    state = make_game(3, 2, 1, 1)
    assert minimax(state, 1).value == 2


def test_minimax_small_values_frozen():
    # exhaustively verified optimal values for small parameter sets
    expected = {
        (3, 2, 1, 1, 6): 2,
        (4, 2, 1, 1, 8): 2,
        (4, 2, 2, 1, 8): 4,
        (3, 2, 2, 1, 6): 3,
        (4, 3, 1, 1, 8): 3,
        (4, 3, 3, 1, 8): 6,
    }
    for (n, r, alpha, beta, horizon), value in expected.items():
        state = make_game(n, r, alpha, beta)
        got = minimax(state, horizon)
        assert got.value == value, (n, r, alpha, beta)
        assert not got.capped


def test_minimax_deepening_monotonicity():
    state = make_game(4, 2, 2, 1)
    values = [minimax(make_game(4, 2, 2, 1), h).value for h in range(1, 7)]
    assert values == sorted(values, reverse=True)
    assert collector_value(state.graph) == 8


def test_minimax_principal_line_starts_with_kill():
    got = minimax(make_game(3, 2, 1, 1), 4)
    assert got.principal_line[0][0] == "kill"
    assert got.principal_line[1][0] == "rebuild"


def test_minimax_memo_cap_partial_result():
    got = minimax(make_game(4, 2, 1, 1), 8, memo_cap=40)
    assert got.capped
    assert got.horizon < 8
    assert got.value >= 2  # still a valid upper-bound certificate

    with pytest.raises(CapExceededError):
        minimax(make_game(5, 2, 1, 1), 10, memo_cap=1)


# Caps 7 and 8 straddle the point where depth 2 completes, so the memo cap
# must count the KILLER and BUILDER entries together to reproduce these.
@pytest.mark.parametrize(
    "cap, expected", [(7, (8, 1, True)), (8, (6, 2, True)), (300, (5, 5, True))]
)
def test_minimax_memo_cap_stops_at_a_pinned_depth(cap, expected):
    got = minimax(make_game(5, 2, 2, 1), 7, memo_cap=cap)
    assert (got.value, got.horizon, got.capped) == expected


# (case, horizon, memo_cap) -> the CapExceededError message
CAP_MESSAGES = {
    (("r2", 7, 2, 2, 1), 14, 100): (
        "memo cap 100 hit at depth 4 before any horizon completed; "
        "the probes at depths 1-3 stayed above the target 7"
    ),
    (("r2", 5, 2, 2, 1), 10, 5): (
        "memo cap 5 hit at depth 2 before any horizon completed; "
        "the probe at depth 1 stayed above the target 5"
    ),
    # every probe up to the horizon stayed above the target, then the
    # exact evaluation at the horizon hit the cap
    (("r2", 5, 2, 2, 1), 1, 2): (
        "memo cap 2 hit at depth 1 before any horizon completed; "
        "the probe at depth 1 stayed above the target 5"
    ),
    (("r2", 5, 2, 2, 1), 10, 1): "memo cap 1 hit at depth 1 before any horizon completed",
}


@pytest.mark.parametrize("case, horizon, cap", sorted(CAP_MESSAGES))
def test_cap_message_names_the_depth_and_the_probes_above_the_target(case, horizon, cap):
    with pytest.raises(CapExceededError) as info:
        verify_theorem(*case, horizon, memo_cap=cap)
    assert str(info.value) == CAP_MESSAGES[case, horizon, cap]


def test_minimax_target_certifies_early():
    got = minimax(make_game(4, 2, 1, 1), 8, target=2)
    assert got.value == 2
    assert got.horizon < 8


# ---------------------------------------------------------------------------
# theorem verification


def test_verify_theorem_case_validation():
    with pytest.raises(ValueError):
        verify_theorem("alpha_eq_beta", 4, 2, 2, 1, 8)  # alpha != beta
    with pytest.raises(ValueError):
        verify_theorem("alpha_eq_r_beta", 4, 2, 3, 1, 8)  # alpha != r*beta
    with pytest.raises(ValueError):
        verify_theorem("r2", 4, 3, 1, 1, 8)  # r != 2
    with pytest.raises(ValueError):
        verify_theorem("nonsense", 4, 2, 1, 1, 8)


def test_verify_theorem1_witnesses_tight():
    for case, n, r, alpha, beta in [
        ("alpha_eq_beta", 3, 2, 1, 1),
        ("alpha_eq_beta", 4, 3, 1, 1),
        ("alpha_eq_r_beta", 3, 2, 2, 1),
        ("alpha_eq_r_beta", 4, 3, 3, 1),
    ]:
        report = verify_theorem(case, n, r, alpha, beta, 2 * n)
        assert report.holds and report.tight, (case, n, r)
        assert not report.capped


def test_verify_theorem2_holds_small():
    for n in (3, 4, 5):
        for alpha, beta in ((1, 1), (2, 1)):
            report = verify_theorem("r2", n, 2, alpha, beta, 2 * n)
            assert report.holds, (n, alpha, beta)


def test_r2_tight_is_claimed_at_the_horizon_searched_only():
    # alpha > r*beta: deepening stops at horizon 2, where the value meets
    # the formula, yet deeper horizons go lower (frozen exact values)
    report = verify_theorem("r2", 4, 2, 3, 1, 8)
    assert report.to_record().startswith(
        "case=r2 n=4 r=2 alpha=3 beta=1 horizon=2 value=6 formula=6 holds=1 tight=1 "
    )
    values = [minimax(make_game(4, 2, 3, 1), h).value for h in range(1, 9)]
    assert values == [9, 6, 5, 4, 4, 4, 4, 4]


def test_report_record_format():
    report = verify_theorem("r2", 3, 2, 1, 1, 6)
    record = report.to_record()
    assert "case=r2" in record
    assert "value=2" in record
    assert "formula=2" in record
    assert "holds=1" in record
    assert "line=kill:" in record
