"""Information-flow graphs and the KILLER/BUILDER min-cut game.

Every storage-node incarnation is a capacitated in->out edge; a rebuilt
incarnation additionally receives one beta-edge from each helper's out
vertex.  The data collector attaches to the out vertices of all live
incarnations, and the game value is the smallest collector-side min cut
KILLER can force within a finite number of kill/rebuild rounds.

Only ancestors of live incarnations reach the collector, so max flow
runs on their subgraph with the unbounded edges contracted: every
initial node's in vertex is the source and every live node's out vertex
is the sink.  A live initial node is one source-to-sink alpha-edge, and
a helper edge leaving a live node starts at the sink and is dropped.
A rebuild never changes the collector value (the newcomer's helpers are
live, so their out vertices are the sink already), so the search runs
one max flow per killed state.

State keys refine colors over the same ancestor subgraph, held by
incarnation id.  Graphs and incarnations are named tuples, so the
search's memo of keys by labelled graph hashes them in C.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from . import bounds

DEFAULT_MEMO_CAP = 10**6


class CapExceededError(RuntimeError):
    """Raised when the game search exceeds its memo-table cap."""


class Incarnation(NamedTuple):
    """One storage-node incarnation: internal capacity plus helper edges."""

    alpha: int
    helpers: Tuple[Tuple[int, int], ...]  # (incarnation id, beta); empty = initial


class FlowGraph(NamedTuple):
    """Capacitated DAG of incarnations with a live-node frontier."""

    nodes: Tuple[Incarnation, ...]
    live: FrozenSet[int]


def initial_graph(n: int, alpha: int) -> FlowGraph:
    """n isolated live nodes, each fed from the source with capacity alpha."""
    if n < 2:
        raise ValueError("need n >= 2")
    if alpha < 1:
        raise ValueError("alpha must be positive")
    return FlowGraph(tuple(Incarnation(alpha, ()) for _ in range(n)), frozenset(range(n)))


def kill(g: FlowGraph, node: int) -> FlowGraph:
    """Remove a node from the live set; its vertices stay in the DAG."""
    if node not in g.live:
        raise ValueError(f"node {node} is not live")
    return FlowGraph(g.nodes, g.live - {node})


def rebuild(g: FlowGraph, helpers: Iterable[int], alpha: int, beta: int) -> FlowGraph:
    """Add a new live incarnation fed by beta-edges from the given helpers."""
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be positive")
    helper_ids = tuple(sorted(set(helpers)))
    for h in helper_ids:
        if h not in g.live:
            raise ValueError(f"helper {h} is not live")
    newcomer = Incarnation(alpha, tuple((h, beta) for h in helper_ids))
    return FlowGraph(g.nodes + (newcomer,), g.live | {len(g.nodes)})


def _ancestors_of_live(g: FlowGraph) -> List[int]:
    """Incarnations with a path to a live one, in id order."""
    nodes = g.nodes
    seen = set(g.live)
    stack = list(seen)
    while stack:
        for h, _ in nodes[stack.pop()].helpers:
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return sorted(seen)


# ---------------------------------------------------------------------------
# max flow


def _max_flow(n_vertices: int, edges: List[Tuple[int, int, int]], s: int, t: int) -> int:
    """Exact integral max flow (Edmonds–Karp) on integer capacities.

    Each augmentation follows a shortest residual path, so the number of
    augmentations is at most V·E whatever the capacities are.
    """
    to: List[int] = []
    cap: List[int] = []
    adj: List[List[int]] = [[] for _ in range(n_vertices)]
    for u, v, c in edges:
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)

    flow = 0
    while True:
        via = [-1] * n_vertices  # residual edge that first reached each vertex
        via[s] = -2
        queue = [s]
        for u in queue:
            for e in adj[u]:
                if cap[e] > 0 and via[to[e]] == -1:
                    via[to[e]] = e
                    queue.append(to[e])
            if via[t] != -1:
                break
        else:
            return flow
        path = []
        v = t
        while v != s:
            e = via[v]
            path.append(e)
            v = to[e ^ 1]
        pushed = min([cap[e] for e in path])
        for e in path:
            cap[e] -= pushed
            cap[e ^ 1] += pushed
        flow += pushed


def build_flow_network(g: FlowGraph) -> Tuple[int, List[Tuple[int, int, int]], int, int]:
    """Vertex count, edges, source 0 and sink 1 of the contracted network (module docstring)."""
    nodes, live = g.nodes, g.live
    out: Dict[int, int] = {}  # out vertex of each dead ancestor
    edges: List[Tuple[int, int, int]] = []
    n_vertices = 2
    for i in _ancestors_of_live(g):  # helpers are older, so theirs come first
        inc = nodes[i]
        vin = 0
        if inc.helpers:
            vin, n_vertices = n_vertices, n_vertices + 1
            edges.extend([(out[h], vin, b) for h, b in inc.helpers if h not in live])
        if i in live:
            edges.append((vin, 1, inc.alpha))
        else:
            out[i], n_vertices = n_vertices, n_vertices + 1
            edges.append((vin, out[i], inc.alpha))
    return n_vertices, edges, 0, 1


def collector_value(g: FlowGraph) -> int:
    """Max source-to-collector flow; the collector spans the live frontier."""
    n_vertices, edges, s, t = build_flow_network(g)
    return _max_flow(n_vertices, edges, s, t)


def dimakis_cutset_value(n: int, k: int, r: int, alpha: int, beta: int) -> int:
    """Replay the classic worst-case repair sequence and read off its cut.

    k initial nodes fail one by one; newcomer j connects to all previous
    newcomers plus r-j surviving initial nodes.  The surviving initial
    nodes are then killed, so the collector reads the k newcomers only;
    killed vertices stay in the DAG and still carry flow.  The result
    reproduces the cutset bound exactly.
    """
    if not 1 <= k <= r <= n - 1:
        raise ValueError("need 1 <= k <= r <= n-1")
    g = initial_graph(n, alpha)
    newcomers: List[int] = []
    for j in range(k):
        g = kill(g, n - 1 - j)
        live_initials = [i for i in range(n) if i in g.live]
        g = rebuild(g, newcomers + live_initials[: r - j], alpha, beta)
        newcomers.append(len(g.nodes) - 1)
    for i in range(n - k):
        g = kill(g, i)
    return collector_value(g)


# ---------------------------------------------------------------------------
# canonical state keys


def canonical_key(g: FlowGraph) -> str:
    """Isomorphism-invariant key of the game-relevant part of the graph.

    Only ancestors of live incarnations can influence any future
    collector value, so the key is a canonical form of that subgraph
    (iterated color refinement with individualization on ties).  Swapping
    twins (same color, helpers and children) is an automorphism, so one
    member per twin class is individualized; the key is unchanged.
    Colors are held by incarnation id and helper lists are read as
    stored.  Refinement stops as soon as every color is distinct, since
    a discrete coloring is already stable, or when a round splits no
    class.
    """
    nodes, live = g.nodes, g.live
    rel = _ancestors_of_live(g)
    n = len(rel)
    children: List[List[Tuple[int, int]]] = [[] for _ in nodes]
    for v in rel:
        for h, b in nodes[v].helpers:
            children[h].append((b, v))
    links = [(v, nodes[v].helpers, children[v]) for v in rel]

    def refine(colors: List[int], count: int) -> int:
        # Refines colors in place to dense colors, a ranking of the stable
        # signatures, and returns their number.  Each signature starts
        # with its color, so a round that splits no class is stable.
        while count < n:
            signatures = [
                (
                    colors[v],
                    tuple(sorted([(b, colors[h]) for h, b in hs])) if hs else (),
                    tuple(sorted([(b, colors[x]) for b, x in cs])) if cs else (),
                )
                for v, hs, cs in links
            ]
            distinct = set(signatures)
            if len(distinct) == count:
                break
            mapping = {sig: j for j, sig in enumerate(sorted(distinct))}
            for v, sig in zip(rel, signatures):
                colors[v] = mapping[sig]
            count = len(distinct)
        return count

    def encode(colors: List[int]) -> str:
        # Discrete dense colors are each vertex's position in the order.
        parts = []
        for v in sorted(rel, key=colors.__getitem__):
            alpha, hs = nodes[v]
            prefix = f"{int(v in live)}|{alpha}|"
            if hs:
                prefix += ",".join([f"{b}:{p}" for b, p in sorted([(b, colors[h]) for h, b in hs])])
            parts.append(prefix)
        return ";".join(parts)

    def canonize(colors: List[int], count: int) -> str:
        count = refine(colors, count)
        if count == n:  # dense colors, all distinct
            return encode(colors)
        classes: Dict[int, List[int]] = {}
        for v in rel:
            classes.setdefault(colors[v], []).append(v)
        ambiguous = [members for members in classes.values() if len(members) > 1]
        target = min(ambiguous, key=lambda ms: (len(ms), colors[ms[0]]))
        # rebuild stores helpers sorted by id, so twins' lists compare equal
        twins = {(nodes[m].helpers, tuple(children[m])): m for m in target}
        return min([
            canonize(colors[:m] + [count] + colors[m + 1 :], count + 1) for m in twins.values()
        ])

    # colors[v] is incarnation v's color; only the ancestors' entries are read
    colors = [0] * len(nodes)
    initial = [(v in live, nodes[v].alpha, not nodes[v].helpers) for v in rel]
    distinct = sorted(set(initial))
    mapping = {sig: j for j, sig in enumerate(distinct)}
    for v, sig in zip(rel, initial):
        colors[v] = mapping[sig]
    return canonize(colors, len(distinct))


# ---------------------------------------------------------------------------
# the game

Move = Tuple[str, Tuple[int, ...]]  # ("kill", (node,)) or ("rebuild", helpers)


@dataclass
class GameState:
    """One position of the KILLER/BUILDER game."""

    graph: FlowGraph
    r: int
    alpha: int
    beta: int


@dataclass
class GameValue:
    """Certified game value: min cut guaranteed within the searched horizon.

    capped records that deepening stopped early because the memo-table
    cap was hit; the value is still a valid certificate for the horizon
    actually searched.
    """

    value: int
    horizon: int
    principal_line: Tuple[Move, ...]
    capped: bool = False


def make_game(n: int, r: int, alpha: int, beta: int) -> GameState:
    if not 1 <= r <= n - 1:
        raise ValueError("need 1 <= r <= n-1")
    if beta < 1:
        raise ValueError("beta must be positive")
    return GameState(initial_graph(n, alpha), r, alpha, beta)


_INF = float("inf")


class _Searcher:
    """Alpha-beta minimax over kill/rebuild rounds with a transposition table.

    A table entry maps (side to move, canonical key, rounds left) to a
    fail-soft value with an EXACT/LOWER/UPPER flag plus the best
    continuation.  The memo cap counts the entries of both sides.

    Moves are regenerated on every visit, so two memos keep iterative
    deepening and re-searches with another window from repeating work:
    `keys` holds the canonical key of every labelled graph keyed so far,
    and `cuts` the collector value of every killed state by its key.  A
    key encodes exactly the live nodes' ancestor subgraph, and that
    subgraph is all the collector value depends on.  Kills are tried
    newest victim first and keyed one at a time; a kill whose key matches
    one already tried from the same position is skipped, so a cutoff
    after the first kill keys no further victims.  A rebuild child is
    built only when BUILDER tries its helper set with a round still to
    play.  The child's first kill is its newcomer, which nothing depends
    on yet; that kill has the killed state's ancestor subgraph, so it is
    entered in `keys` with the killed state's key.
    """

    EXACT, LOWER, UPPER = 0, 1, 2
    KILLER, BUILDER = 0, 1

    def __init__(self, r: int, alpha: int, beta: int, memo_cap: int) -> None:
        self.r = r
        self.alpha = alpha
        self.beta = beta
        self.memo_cap = memo_cap
        self.table: Dict[Tuple[int, str, int], Tuple[float, int, Tuple[Move, ...]]] = {}
        self.keys: Dict[FlowGraph, str] = {}
        self.cuts: Dict[str, int] = {}

    def _probe(
        self, entry: Tuple[int, str, int], lo: float, hi: float
    ) -> Optional[Tuple[float, Tuple[Move, ...]]]:
        """The stored result for entry if its flag settles the window."""
        hit = self.table.get(entry)
        if hit is not None:
            value, flag, line = hit
            if flag == self.EXACT or (flag == self.LOWER and value >= hi) or (
                flag == self.UPPER and value <= lo
            ):
                return value, line
        return None

    def _store(
        self, entry: Tuple[int, str, int], best: float, line: Tuple[Move, ...], lo: float, hi: float
    ) -> Tuple[float, Tuple[Move, ...]]:
        """Record a fail-soft result searched in the window (lo, hi); return it."""
        if len(self.table) >= self.memo_cap:
            raise CapExceededError(f"transposition table exceeded {self.memo_cap} entries")
        if best <= lo:
            flag = self.UPPER  # cutoff: true value is at most best
        elif best >= hi:
            flag = self.LOWER  # children were window-pruned: at least best
        else:
            flag = self.EXACT
        self.table[entry] = (best, flag, line)
        return best, line

    def _key(self, g: FlowGraph) -> str:
        key = self.keys.get(g)
        if key is None:
            key = self.keys[g] = canonical_key(g)
        return key

    def search(
        self, g: FlowGraph, rounds: int, lo: float, hi: float
    ) -> Tuple[float, Tuple[Move, ...]]:
        """Value of the next `rounds` >= 1 full rounds, KILLER to move.

        Fail-soft: a result <= lo is an upper bound on the true value and
        a result >= hi is a lower bound.  Returns the optimal minimum
        over collector values of the states visited after each rebuild.
        """
        entry = (self.KILLER, self._key(g), rounds)
        hit = self._probe(entry, lo, hi)
        if hit is not None:
            return hit

        best: float = _INF
        best_line: Tuple[Move, ...] = ()
        tried = set()
        for victim in sorted(g.live, reverse=True):
            killed = kill(g, victim)
            kkey = self._key(killed)
            if kkey in tried:
                continue
            tried.add(kkey)
            value, line = self._builder(killed, rounds, lo, min(hi, best), kkey)
            if value < best:
                best = value
                best_line = (("kill", (victim,)),) + line
            if best <= lo:
                break
        return self._store(entry, best, best_line, lo, hi)

    def _builder(
        self, g: FlowGraph, rounds: int, lo: float, hi: float, kkey: str
    ) -> Tuple[float, Tuple[Move, ...]]:
        """BUILDER replies to a kill; value folds in the post-rebuild cut,
        which every rebuild keeps at the killed state's collector value."""
        entry = (self.BUILDER, kkey, rounds)
        hit = self._probe(entry, lo, hi)
        if hit is not None:
            return hit

        cv = self.cuts.get(kkey)
        if cv is None:
            cv = self.cuts[kkey] = collector_value(g)
        best: float = -_INF
        best_line: Tuple[Move, ...] = ()
        for helpers in combinations(sorted(g.live), self.r):
            if cv <= max(lo, best):
                # Below the window: every candidate is capped by cv, so
                # report it as a fail-soft upper bound.
                best, best_line = cv, (("rebuild", helpers),)
                break
            if rounds == 1:
                sub, line = _INF, ()  # no round left: the child is never looked at
            else:
                child = rebuild(g, helpers, self.alpha, self.beta)
                self.keys.setdefault(kill(child, len(g.nodes)), kkey)
                sub, line = self.search(child, rounds - 1, max(lo, best), hi)
            value = min(cv, sub)
            if value > best:
                best = value
                best_line = (("rebuild", helpers),) + line
            if best >= min(cv, hi):
                break  # cutoff, or min(cv, .) can no longer improve the max
        return self._store(entry, best, best_line, lo, hi)


def minimax(
    state: GameState,
    horizon: int,
    memo_cap: Optional[int] = None,
    target: Optional[int] = None,
) -> GameValue:
    """Optimal-play value over at most `horizon` kill/rebuild rounds.

    One iterative-deepening loop searches depths 1..horizon from the
    root.  If the memo cap is hit at some depth, the deepest completed
    depth is returned (deepening monotonicity makes any completed depth
    a valid upper-bound certificate); if no depth has completed,
    CapExceededError is raised.

    With a target, each depth is first probed with a single null-window
    search, which is much cheaper than an exact evaluation.  Deepening
    stops at the first depth whose value is certified <= target; the
    value is exact at that depth and remains a valid upper bound for
    every deeper horizon.  If no depth below the horizon meets the
    target, the horizon itself is searched exactly, so the value then
    exceeds the target.
    """
    if horizon < 1:
        raise ValueError("need horizon >= 1")
    memo_cap = DEFAULT_MEMO_CAP if memo_cap is None else memo_cap
    value = collector_value(state.graph)  # the start cut bounds every depth
    result: Optional[GameValue] = None
    searcher = _Searcher(state.r, state.alpha, state.beta, memo_cap)
    probed = 0  # depths whose probe completed above the target

    def exact_at_depth(depth: int, upper: int) -> Tuple[int, Tuple[Move, ...]]:
        # Descending null windows walk the value down from a known upper
        # bound; one final exact-band pass yields a genuine principal line.
        v = upper
        while v > 0:
            got, _ = searcher.search(state.graph, depth, v - 1, v)
            if got >= v:
                break
            v = int(got)  # fail-soft upper bound; keep descending
        got, line = searcher.search(state.graph, depth, v - 1, v + 1)
        return min(v, int(got)), line

    for depth in range(1, horizon + 1):
        try:
            if target is not None:
                probe, _ = searcher.search(state.graph, depth, target, target + 1)
                if probe <= target:
                    value = int(probe)  # fail-soft upper bound, at most the start cut
                else:
                    probed = depth  # lower bound above the target
                    if depth < horizon:
                        continue  # deepen
            value, line = exact_at_depth(depth, value)
        except CapExceededError:
            if result is None:
                msg = f"memo cap {memo_cap} hit at depth {depth} before any horizon completed"
                if probed == 1:
                    msg += f"; the probe at depth 1 stayed above the target {target}"
                elif probed:
                    msg += f"; the probes at depths 1-{probed} stayed above the target {target}"
                raise CapExceededError(msg)
            result.capped = True
            break
        result = GameValue(value, depth, line)
        if value == 0 or (target is not None and value <= target):
            break
    return result


@dataclass
class GameReport:
    """verify_theorem outcome: game value against the closed-form bound.

    holds and tight are claimed at horizon_searched, where deepening
    stopped; holds certifies every deeper horizon too, tight does not.
    """

    case: str
    n: int
    r: int
    alpha: int
    beta: int
    horizon_searched: int
    value: int
    formula: int
    holds: bool
    tight: bool
    principal_line: Tuple[Move, ...]
    capped: bool = False

    def to_record(self) -> str:
        line = " ".join(f"{kind}:{','.join(map(str, args))}" for kind, args in self.principal_line)
        return (
            f"case={self.case} n={self.n} r={self.r} alpha={self.alpha} beta={self.beta} "
            f"horizon={self.horizon_searched} value={self.value} formula={self.formula} "
            f"holds={int(self.holds)} tight={int(self.tight)} line={line}"
        )


CASE_R2 = "r2"


def verify_theorem(
    bound_case: str,
    n: int,
    r: int,
    alpha: int,
    beta: int,
    horizon: int,
    memo_cap: Optional[int] = None,
) -> GameReport:
    """Run the game and compare its value to the matching rate bound."""
    if bound_case == bounds.CASE_ALPHA_EQ_BETA:
        if alpha != beta:
            raise ValueError("case alpha_eq_beta requires alpha == beta")
        formula = bounds.theorem1_bound(bound_case, n, r, alpha)
    elif bound_case == bounds.CASE_ALPHA_EQ_R_BETA:
        if alpha != r * beta:
            raise ValueError("case alpha_eq_r_beta requires alpha == r*beta")
        formula = bounds.theorem1_bound(bound_case, n, r, alpha)
    elif bound_case == CASE_R2:
        if r != 2:
            raise ValueError("case r2 requires r == 2")
        formula = bounds.theorem2_bound(n, alpha, beta)
    else:
        raise ValueError(f"unknown case {bound_case!r}")
    state = make_game(n, r, alpha, beta)
    # Certify against the formula: deepening stops at the first horizon
    # whose (exact) value meets the bound, which it then certifies for
    # every deeper horizon as well.
    game = minimax(state, horizon, memo_cap, target=formula)
    return GameReport(
        case=bound_case,
        n=n,
        r=r,
        alpha=alpha,
        beta=beta,
        horizon_searched=game.horizon,
        value=game.value,
        formula=formula,
        holds=game.value <= formula,
        tight=game.value == formula,
        principal_line=game.principal_line,
        capped=game.capped,
    )
