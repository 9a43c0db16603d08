"""Exact-repair storage codes as families of GF(2) subspaces.

A code assigns each of n storage nodes an alpha-dimensional storage
space inside the m-dimensional message space.  A node's stored block is
the vector of inner products of the message with its basis rows, so the
stated (not canonicalized) basis of each node is part of the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

from .gf2 import (
    BitMatrix,
    Subspace,
    _check_enumeration,
    _reduce,
    _rref_words,
    _subspace_words,
    subspace_sum,
)


class CodeError(ValueError):
    """Raised for structurally invalid codes or parameters."""


@dataclass(frozen=True)
class CodeParams:
    """The (m; n, k, r, alpha, beta) profile of a storage code."""

    m: int
    n: int
    k: int
    r: int
    alpha: int
    beta: int

    def __post_init__(self) -> None:
        for name in ("m", "n", "k", "r", "alpha", "beta"):
            if getattr(self, name) < 1:
                raise CodeError(f"{name} must be positive")
        if self.k > self.n or self.r > self.n - 1:
            raise CodeError(f"need k <= n and r <= n-1, got k={self.k}, r={self.r}, n={self.n}")

    def __str__(self) -> str:
        return f"({self.m}; {self.n},{self.k},{self.r},{self.alpha},{self.beta})"


@dataclass(frozen=True)
class StorageCode:
    """n storage nodes with fixed basis matrices over GF(2)^m."""

    message_dim: int
    alpha: int
    node_bases: Tuple[BitMatrix, ...]

    @classmethod
    def from_basis_strings(cls, bases: Sequence[Sequence[str]]) -> "StorageCode":
        mats = tuple(BitMatrix.from_strings(rows) for rows in bases)
        if not mats:
            raise CodeError("a storage code needs at least one node")
        return cls(mats[0].col_count, mats[0].row_count, mats)

    @property
    def n(self) -> int:
        return len(self.node_bases)

    @cached_property
    def subspaces(self) -> Tuple[Subspace, ...]:
        return tuple(Subspace.from_matrix(mat) for mat in self.node_bases)

    def basis_strings(self) -> List[List[str]]:
        return [mat.to_strings() for mat in self.node_bases]


def validate(code: StorageCode) -> List[str]:
    """Check the StorageCode invariants; return human-readable violations."""
    violations: List[str] = []
    if code.n < 1:
        violations.append("code has no nodes")
        return violations
    for i, mat in enumerate(code.node_bases):
        if mat.col_count != code.message_dim:
            violations.append(
                f"node {i}: basis width {mat.col_count} != message dimension {code.message_dim}"
            )
        if mat.row_count != code.alpha:
            violations.append(
                f"node {i}: {mat.row_count} basis rows, expected alpha = {code.alpha}"
            )
        elif code.subspaces[i].dim != code.alpha:
            violations.append(f"node {i}: basis rows are dependent (dim < alpha)")
    if not violations:
        total = subspace_sum(list(code.subspaces))
        if total.dim != code.message_dim:
            violations.append(
                f"node subspaces span only dimension {total.dim} of {code.message_dim}"
            )
    return violations


def is_recovery_set(code: StorageCode, indices: Sequence[int]) -> bool:
    """True iff the chosen nodes' storage spaces span the message space."""
    idx = sorted(set(indices))
    for i in idx:
        if not 0 <= i < code.n:
            raise IndexError(f"node index {i} out of range")
    if not idx:
        return code.message_dim == 0
    return subspace_sum([code.subspaces[i] for i in idx]).dim == code.message_dim


def recovery_dimension(code: StorageCode) -> int:
    """Size of the smallest recovery set.

    Depth-first over the nodes in index order, on the RREF words of the
    sum of the nodes chosen so far.  A node that adds no dimension to
    that sum is skipped: no smallest recovery set holds it, as the set
    without it spans the same space.  A branch is cut unless the nodes
    left, each adding at most the largest node dimension, can reach m
    with fewer nodes in all than the smallest set found so far.
    """
    m = code.message_dim
    spaces = [space.basis.words() for space in code.subspaces]
    top = max(1, max(map(len, spaces), default=0))  # the largest node dimension
    best = code.n + 1

    def dfs(start: int, rows: List[int], size: int) -> None:
        nonlocal best
        need = ceil((m - len(rows)) / top)  # nodes still to add, at the least
        for i in range(start, code.n + 1 - need):
            if size + need >= best:
                return
            grown = _rref_words(spaces[i], rows)
            if len(grown) == m:
                best = size + 1
            elif len(grown) > len(rows):
                dfs(i + 1, grown, size + 1)

    dfs(0, [], 0)
    if best > code.n:
        raise CodeError("no recovery set exists; the code does not validate")
    return best


def rate_and_overhead(code: StorageCode) -> Tuple[Fraction, Fraction]:
    """Coding rate m/(n*alpha) and excess storage overhead (n*alpha-m)/m."""
    m = code.message_dim
    stored = code.n * code.alpha
    return Fraction(m, stored), Fraction(stored - m, m)


@dataclass
class RepairPlan:
    """A repair recipe: helpers and one beta-dim repair space per helper."""

    failed: int
    helpers: Tuple[int, ...]
    repair_spaces: Dict[int, Subspace]
    beta: int

    def __post_init__(self) -> None:
        self.helpers = tuple(sorted(self.helpers))
        if not self.helpers:
            raise CodeError("a repair plan needs at least one helper")
        if len(set(self.helpers)) != len(self.helpers):
            raise CodeError("a helper is listed more than once")
        if self.failed in self.helpers:
            raise CodeError("the failed node cannot be its own helper")
        if set(self.repair_spaces) != set(self.helpers):
            raise CodeError("repair_spaces must cover exactly the helper set")


def validate_plan(code: StorageCode, plan: RepairPlan) -> List[str]:
    """Check the RepairPlan invariants against a code."""
    violations: List[str] = []
    if not 0 <= plan.failed < code.n:
        return [f"failed index {plan.failed} out of range"]
    for i in plan.helpers:
        if not 0 <= i < code.n:
            violations.append(f"helper index {i} out of range")
            continue
        w = plan.repair_spaces[i]
        if w.dim != plan.beta:
            violations.append(f"repair space of helper {i} has dim {w.dim}, expected beta = {plan.beta}")
        if not code.subspaces[i].contains_subspace(w):
            violations.append(f"repair space of helper {i} is not inside its storage space")
    if not violations:
        joint = subspace_sum([plan.repair_spaces[i] for i in plan.helpers])
        if not joint.contains_subspace(code.subspaces[plan.failed]):
            violations.append("repair spaces do not jointly cover the failed node's space")
    return violations


def find_repair_plan(
    code: StorageCode,
    failed: int,
    helpers: Sequence[int],
    beta: int,
    cap: Optional[int] = None,
) -> Optional[RepairPlan]:
    """Search for a valid repair plan over the given helper set.

    Depth-first over helpers in index order, enumerating beta-dimensional
    subspaces of each helper's storage space in canonical order; every
    space is a list of RREF words.  With k helpers, P the sum of the
    spaces chosen so far and T the failed node's space, the branch at
    depth d is cut unless

    - the k - d helpers left can add the dimensions still missing: each
      adds at most beta, so dim(P+T) - dim P <= beta * (k - d); and
    - T lies inside P plus the full spaces of those helpers.

    At depth k the two say that P covers T.  Both are necessary for
    completing the branch, so only subtrees without a plan are cut; the
    order of the search is unchanged and the first plan found
    (deterministic) is the same as without them.  Returns that plan or
    None.
    """
    helper_list = tuple(sorted(set(helpers)))
    if failed in helper_list:
        raise CodeError("the failed node cannot be its own helper")
    for i in helper_list + (failed,):
        if not 0 <= i < code.n:
            raise IndexError(f"node index {i} out of range")
    target = code.subspaces[failed].basis.words()
    spaces = [code.subspaces[i].basis.words() for i in helper_list]
    k = len(helper_list)
    suffix: List[List[int]] = [[]]
    for words in reversed(spaces):
        suffix.append(_rref_words(words, suffix[-1]))
    suffix.reverse()  # suffix[d] = sum of the full spaces of helpers d..k-1
    chosen: List[Tuple[int, ...]] = []

    def dfs(depth: int, partial: List[int], with_target: List[int]) -> bool:
        # partial and with_target: the RREF words of P and of P + T
        if len(with_target) - len(partial) > beta * (k - depth):
            return False
        reach = _rref_words(partial, suffix[depth])
        if any(_reduce(reach, t) for t in target):
            return False
        if depth == k:
            return True
        words = spaces[depth]
        if beta > len(words):
            return False
        _check_enumeration(len(words), beta, cap)
        for w in _subspace_words(words, beta):
            chosen.append(w)
            if dfs(depth + 1, _rref_words(w, partial), _rref_words(w, with_target)):
                return True
            chosen.pop()
        return False

    if not dfs(0, [], target):
        return None
    m = code.message_dim
    return RepairPlan(
        failed,
        helper_list,
        {h: Subspace._canonical(m, w) for h, w in zip(helper_list, chosen)},
        beta,
    )


def repair_locality(
    code: StorageCode,
    beta: int,
    cap: Optional[int] = None,
    plans: Optional[Dict[int, RepairPlan]] = None,
) -> Optional[int]:
    """Smallest r such that every node has some repair set of size r.

    None when some node has no repair set.  A node whose plan in plans
    is valid and sends beta walks down from the plan's size while a set
    one smaller has a plan; when every node has dimension >= beta, a
    superset of a repair set is one too, so the walk ends at the
    smallest.  Any other node scans the sizes up from ceil(dim/beta).
    """

    def fits(failed: int, size: int) -> bool:
        others = [i for i in range(code.n) if i != failed]
        return any(find_repair_plan(code, failed, s, beta, cap) for s in combinations(others, size))

    worst = 0
    for failed in range(code.n):
        lower = max(1, ceil(code.subspaces[failed].dim / beta))
        plan = (plans or {}).get(failed)
        if plan and (plan.failed, plan.beta) == (failed, beta) and not validate_plan(code, plan):
            best = len(plan.helpers)
            while best > lower and fits(failed, best - 1):
                best -= 1
        else:
            best = next((size for size in range(lower, code.n) if fits(failed, size)), None)
            if best is None:
                return None
        worst = max(worst, best)
    return worst
