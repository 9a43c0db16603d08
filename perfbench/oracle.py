"""Independent checks for benchmark outputs.

Nothing here calls storagecodes, so a checked result is never checked
by the code that produced it, and the traced run's call counts include
only the workload itself.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import List, Sequence, Tuple


def gf2_rank(words: Sequence[int]) -> int:
    """Rank over GF(2) of int-packed rows."""
    pivots = {}  # leading bit -> row
    for w in words:
        while w:
            top = w.bit_length() - 1
            if top not in pivots:
                pivots[top] = w
                break
            w ^= pivots[top]
    return len(pivots)


def mat_vec(rows: Sequence[int], x: int) -> int:
    """Packed inner products of x with each row (bit i = row i)."""
    return sum((bin(r & x).count("1") & 1) << i for i, r in enumerate(rows))


def spec_holds(node_words: Sequence[Sequence[int]], m: int, node_dim: int) -> bool:
    """The example-3 functional spec: node dimension, trivial pairwise
    intersections and triples that span GF(2)^m."""
    if any(gf2_rank(w) != node_dim for w in node_words):
        return False
    if any(gf2_rank([*a, *b]) != 2 * node_dim for a, b in combinations(node_words, 2)):
        return False
    return all(gf2_rank([*a, *b, *c]) == m for a, b, c in combinations(node_words, 3))


def max_flow(n_vertices: int, edges: Sequence[Tuple[int, int, int]], s: int, t: int) -> int:
    """Edmonds-Karp on a capacity matrix; the graphs here are tiny."""
    cap = [[0] * n_vertices for _ in range(n_vertices)]
    for u, v, c in edges:
        cap[u][v] += c
    flow = 0
    while True:
        prev = [-1] * n_vertices
        prev[s] = s
        queue = deque([s])
        while queue and prev[t] < 0:
            u = queue.popleft()
            for v in range(n_vertices):
                if cap[u][v] > 0 and prev[v] < 0:
                    prev[v] = u
                    queue.append(v)
        if prev[t] < 0:
            return flow
        push, v = None, t
        while v != s:
            c = cap[prev[v]][v]
            push = c if push is None else min(push, c)
            v = prev[v]
        v = t
        while v != s:
            cap[prev[v]][v] -= push
            cap[v][prev[v]] += push
            v = prev[v]
        flow += push


def collector_cut(nodes: Sequence[Tuple[int, Tuple[int, ...]]], live: Sequence[int], beta: int) -> int:
    """Min cut from the source to a collector on the live nodes.

    nodes[i] = (alpha, helpers); an empty helper tuple is an initial
    node fed straight from the source.
    """
    big = sum(a for a, _ in nodes) + beta * sum(len(h) for _, h in nodes) + 1
    edges = []
    for i, (alpha, helpers) in enumerate(nodes):
        vin, vout = 2 + 2 * i, 3 + 2 * i
        if helpers:
            edges += [(3 + 2 * h, vin, beta) for h in helpers]
        else:
            edges.append((0, vin, big))
        edges.append((vin, vout, alpha))
    edges += [(3 + 2 * i, 1, big) for i in live]
    return max_flow(2 + 2 * len(nodes), edges, 0, 1)


def replay_line(n: int, r: int, alpha: int, beta: int, line, value: int) -> bool:
    """True iff the principal line is legal from the root and certifies value.

    Legal: kills and rebuilds alternate, each kill hits a live node and
    each rebuild names r distinct live helpers.  Certifies: the smallest
    collector cut seen (the root's included) equals the claimed value.
    """
    nodes: List[Tuple[int, Tuple[int, ...]]] = [(alpha, ())] * n
    live = set(range(n))
    cut = collector_cut(nodes, sorted(live), beta)
    for i, (kind, args) in enumerate(line):
        if kind != ("kill" if i % 2 == 0 else "rebuild"):
            return False
        if kind == "kill":
            if len(args) != 1 or args[0] not in live:
                return False
            live.discard(args[0])
        else:
            if len(set(args)) != r or not set(args) <= live:
                return False
            nodes.append((alpha, tuple(sorted(args))))
            live.add(len(nodes) - 1)
            cut = min(cut, collector_cut(nodes, sorted(live), beta))
    return cut == value
