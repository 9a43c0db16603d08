"""Named code families: the worked binary codes and bound witnesses.

All constructors verify their declared parameter profile against the
built code before returning it, so a NamedCode can be trusted as-is.
The exact families state their codes as rows through _exact, which
reads n and alpha off the rows: for them the check covers m, k, r,
beta, the row counts and every repair plan, not n or alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, List, Literal, Optional, Sequence, Tuple

from .codes import (
    CodeError,
    CodeParams,
    RepairPlan,
    StorageCode,
    recovery_dimension,
    validate,
    validate_plan,
)
from .gf2 import BitMatrix, Subspace, _rref_words


@dataclass(frozen=True)
class NamedCode:
    """A constructed code plus its verified parameter profile.

    A functional-repair code carries its spec; code then holds the
    initial node bases, which repairs may replace by any the spec admits.
    """

    name: str
    code: StorageCode
    declared: CodeParams
    repair_plans: Optional[Dict[int, RepairPlan]] = None
    spec: Optional[FunctionalSpec] = None


# Rule verdicts: (rule index, prefix words) -> candidate words -> verdict.
Verdicts = Dict[Tuple[int, Tuple[int, ...]], Dict[Tuple[int, ...], bool]]


@dataclass(frozen=True)
class FunctionalSpec:
    """A decidable predicate bundle over node-subspace assignments.

    Each rule (name, t, test) requires every t-subset of the storage
    spaces to pass test(prefix, words): prefix is the RREF of the sum of
    t-1 of the spaces, words the basis words of the last one.  The split
    lets admitter reduce the survivors' prefixes once per repair.  A
    test must be a deterministic function of (prefix, words): admitter
    keeps each verdict it reaches and returns it for the same pair.
    """

    name: str
    ambient_dim: int
    node_count: int
    node_dim: int
    beta: int
    rules: Tuple[Tuple[str, int, Callable[[Sequence[int], Sequence[int]], bool]], ...]

    def violations(self, spaces: Sequence[Subspace]) -> List[str]:
        """Rule names violated by the given collection of subspaces."""
        out = []
        for space in spaces:
            if space.ambient_dim != self.ambient_dim:
                return [f"ambient dimension {space.ambient_dim} != {self.ambient_dim}"]
            if space.dim != self.node_dim:
                out.append(f"a storage space has dim {space.dim}, expected {self.node_dim}")
        for name, t, test in self.rules:
            if not all(
                test(_sum_rref(subset[:-1]), subset[-1].basis.words())
                for subset in combinations(spaces, t)
            ):
                out.append(name)
        return out

    def check_bases(self, bases: Sequence[BitMatrix]) -> None:
        """Raise CodeError unless bases are an initial state the spec admits.

        Each node needs node_dim independent basis rows.
        """
        if len(bases) != self.node_count:
            raise CodeError(f"{self.node_count} node bases needed, got {len(bases)}")
        spaces = [Subspace.from_matrix(mat) for mat in bases]
        for i, (mat, space) in enumerate(zip(bases, spaces)):
            if mat.row_count != self.node_dim:
                raise CodeError(f"node {i}: {mat.row_count} basis rows, expected {self.node_dim}")
            if space.dim != mat.row_count:
                raise CodeError(f"node {i}: basis rows are dependent")
        problems = self.violations(spaces)
        if problems:
            raise CodeError("initial state violates the spec: " + "; ".join(problems))

    def satisfied(self, spaces: Sequence[Subspace]) -> bool:
        return not self.violations(spaces)

    def admitter(
        self, others: Sequence[Subspace], verdicts: Optional[Verdicts] = None
    ) -> Callable[[Sequence[int]], bool]:
        """A predicate on a candidate's RREF basis words: whether others
        plus the candidate satisfy the spec, given that others do.

        Precondition: others already satisfy the spec.  Then only the
        subsets that contain the candidate can fail, so only those are
        checked, each against its other spaces' sum reduced here once,
        and the check stops at the first failure.  The candidate must
        have node_dim dimensions in the spec's ambient space.

        A test's verdict depends only on its prefix and the candidate,
        so verdicts keeps each under (rule index, prefix words), then
        the candidate's words, and a test is run only on a miss.  The
        table may be shared by every admitter of this spec; without one
        the admitter starts its own.
        """
        if verdicts is None:
            verdicts = {}
        checks = []
        for i, (_, t, test) in enumerate(self.rules):
            for subset in combinations(others, t - 1):
                prefix = _sum_rref(subset)
                checks.append((test, prefix, verdicts.setdefault((i, tuple(prefix)), {})))

        def admits(words: Sequence[int]) -> bool:
            key = tuple(words)
            for test, prefix, known in checks:
                verdict = known.get(key)
                if verdict is None:
                    verdict = known[key] = test(prefix, words)
                if not verdict:
                    return False
            return True

        return admits


def _sum_rref(spaces: Sequence[Subspace]) -> List[int]:
    """The RREF basis words of the sum of spaces."""
    return _rref_words(w for space in spaces for w in space.basis.words())


def _verify(named: NamedCode) -> NamedCode:
    """Check a built code against its declared profile.

    A functional code's initial bases must satisfy its spec.  An exact
    code needs a valid plan for every node, each with at most r helpers
    sending beta symbols, so its repair locality is at most r.
    """
    problems = validate(named.code)
    if problems:
        raise CodeError(f"{named.name}: " + "; ".join(problems))
    p = named.declared
    if (named.code.message_dim, named.code.n, named.code.alpha) != (p.m, p.n, p.alpha):
        raise CodeError(f"{named.name}: declared (m, n, alpha) do not match the code")
    if recovery_dimension(named.code) != p.k:
        raise CodeError(f"{named.name}: declared k does not match the code")
    if named.spec is not None:
        named.spec.check_bases(named.code.node_bases)
        return named
    for failed in range(p.n):
        plan = (named.repair_plans or {}).get(failed)
        if plan is None or plan.failed != failed:
            raise CodeError(f"{named.name}: no repair plan for node {failed}")
        errs = validate_plan(named.code, plan)
        if len(plan.helpers) > p.r:
            errs.append(f"more than r = {p.r} helpers")
        if plan.beta != p.beta:
            errs.append(f"beta {plan.beta} != declared beta {p.beta}")
        if errs:
            raise CodeError(f"{named.name}: plan for node {failed}: " + "; ".join(errs))
    return named


def _exact(
    name: str,
    m: int,
    nodes: Sequence[Sequence[int]],
    plans: Dict[int, Dict[int, Sequence[int]]],
    k: int,
    r: int,
    beta: int,
) -> NamedCode:
    """An exact-repair code stated as rows, verified against its profile.

    nodes[i] holds node i's basis rows as int words over GF(2)^m, and
    plans maps each failed node to each helper's repair-space rows.  The
    declared n and alpha are read off the rows (node 0's count, which
    validate holds every node to), so _verify does not check them.  An
    empty node list gets alpha 0 and fails CodeParams' positivity check.
    """
    alpha = len(nodes[0]) if nodes else 0
    code = StorageCode(m, alpha, tuple(BitMatrix.from_words(m, rows) for rows in nodes))
    repair = {
        failed: RepairPlan(
            failed,
            tuple(spaces),
            {h: Subspace.from_matrix(BitMatrix.from_words(m, rows)) for h, rows in spaces.items()},
            beta,
        )
        for failed, spaces in plans.items()
    }
    params = CodeParams(m, code.n, k, r, code.alpha, beta)
    return _verify(NamedCode(name, code, params, repair))


def example1() -> NamedCode:
    """The (4; 4,2,3,2,1) binary code on four rotating 2-dim subspaces.

    Node i stores (x_i, x_{i+2} + x_{i+3}), indices mod 4, so node 0
    stores (x0, x2+x3).  To repair node f, node f+1 sends x_f + x_{f+3}
    and nodes f+2 and f+3 send their own unit symbols x_{f+2} and
    x_{f+3}: node 0 gets x0+x3, x2 and x3.
    """

    def e(i: int) -> int:
        return 1 << i % 4

    nodes = [[e(i), e(i + 2) | e(i + 3)] for i in range(4)]
    plans = {
        f: {(f + 1) % 4: [e(f) | e(f + 3)], (f + 2) % 4: [e(f + 2)], (f + 3) % 4: [e(f + 3)]}
        for f in range(4)
    }
    return _exact("example1", 4, nodes, plans, k=2, r=3, beta=1)


def rbt_mbr(n: int = 4) -> NamedCode:
    """Rate-1/2 repair-by-transfer MBR code on C(n,2) pair coordinates.

    Node v stores the symbols x_{v,j} for j != v; a failed node gets
    each of them back verbatim from the opposite endpoint.
    """
    if n < 3:
        raise CodeError("rbt_mbr needs n >= 3")
    index = {p: i for i, p in enumerate(combinations(range(n), 2))}

    def x(v: int, j: int) -> int:
        return 1 << index[(min(v, j), max(v, j))]

    nodes = [[x(v, j) for j in range(n) if j != v] for v in range(n)]
    plans = {f: {j: [x(j, f)] for j in range(n) if j != f} for f in range(n)}
    return _exact(f"rbt-mbr-n{n}", len(index), nodes, plans, k=n - 1, r=n - 1, beta=1)


def single_parity(r: int = 3) -> NamedCode:
    """The binary [r+1, r] single-parity code: alpha = beta = 1.

    Nodes 0..r-1 store one message symbol each; the last node stores the
    overall parity.  Meets the alpha = beta locality-rate bound with
    equality at n = r+1.
    """
    if r < 1:
        raise CodeError("single_parity needs r >= 1")
    nodes = [[1 << i] for i in range(r)] + [[(1 << r) - 1]]
    plans = {f: {j: nodes[j] for j in range(r + 1) if j != f} for f in range(r + 1)}
    return _exact(f"parity-r{r}", r, nodes, plans, k=r, r=r, beta=1)


def repetition_code(
    n: int = 4, r: int = 3, alpha: Optional[int] = None, variant: Literal["split", "copy"] = "split"
) -> NamedCode:
    """Repetition code: n/(r+1) groups of r+1 identical nodes.

    Two repair variants exist.  "split" (requires r | alpha) downloads
    beta = alpha/r from each of the r group peers; "copy" downloads the
    whole block (beta = alpha) from a single peer.  In both the first
    alpha/beta peers each send their own beta-symbol chunk of the group
    block.  Both carry the structural declared r; the copy variant's
    plans use one helper.
    """
    if r < 1:
        raise CodeError("repetition_code needs r >= 1")
    if n % (r + 1) != 0:
        raise CodeError(f"r+1 = {r + 1} must divide n = {n}")
    if n < r + 1:
        raise CodeError(f"repetition_code needs n >= r+1 = {r + 1}, got n={n}")
    senders = {"split": r, "copy": 1}.get(variant)
    if senders is None:
        raise CodeError(f"unknown variant {variant!r}")
    alpha = r if alpha is None else alpha
    if alpha < 1:
        raise CodeError(f"repetition_code needs alpha >= 1, got alpha={alpha}")
    if alpha % senders != 0:
        raise CodeError(f"split variant needs r | alpha, got r={r}, alpha={alpha}")
    groups = n // (r + 1)
    beta = alpha // senders
    # node i holds the unit rows of its group's alpha coordinates
    nodes = [[1 << (i // (r + 1) * alpha + s) for s in range(alpha)] for i in range(n)]
    plans = {}
    for f in range(n):
        first = f - f % (r + 1)
        peers = [j for j in range(first, first + r + 1) if j != f][:senders]
        plans[f] = {j: nodes[f][t * beta : (t + 1) * beta] for t, j in enumerate(peers)}
    name = f"repetition-n{n}-r{r}-a{alpha}-{variant}"
    return _exact(name, alpha * groups, nodes, plans, k=groups, r=r, beta=beta)


def _added_rank(prefix: Sequence[int], words: Sequence[int]) -> int:
    """The rank words add to the span of prefix, which must be in RREF.

    Each word is reduced by the prefix pivots, then by the words kept
    so far (_reduce, inlined as in _rref_words); whatever is left is
    kept, and is zero at every earlier pivot, as that reduction needs.
    Not len(_rref_words(words, prefix)) - len(prefix): the rank needs no
    pivot cleared from the kept rows and no sort, and that one-liner
    made `perfbench` `marathon`, whose spec checks run here, 25 % slower
    (wall_s 0.27 -> 0.34 s, 2-core Xeon VM).  Inlining _reduce took the
    fastest of 15 in-process 1000-repair marathons from 0.159-0.188 s to
    0.155-0.186 s, lower in 8 of 8 alternating runs (same VM).
    """
    rows = [*prefix]
    for w in words:
        for row in rows:
            if w & row & -row:
                w ^= row
        if w:
            rows.append(w)
    return len(rows) - len(prefix)


def _trivial_meet(prefix: Sequence[int], words: Sequence[int]) -> bool:
    # A and B meet only in 0 iff dim(A + B) = dim A + dim B.
    return _added_rank(prefix, words) == len(words)


def _spans(m: int) -> Callable[[Sequence[int], Sequence[int]], bool]:
    """The rule test: prefix and words together span GF(2)^m."""
    return lambda prefix, words: len(prefix) + _added_rank(prefix, words) == m


def example3_spec() -> FunctionalSpec:
    """Functional-repair specification with m=5, n=4, alpha=2, beta=1.

    Rule 1: any two storage spaces intersect trivially.  Rule 2: any
    three storage spaces span the whole message space.
    """
    return FunctionalSpec(
        name="example3",
        ambient_dim=5,
        node_count=4,
        node_dim=2,
        beta=1,
        rules=(
            ("any two storage spaces intersect trivially", 2, _trivial_meet),
            ("any three storage spaces span the message space", 3, _spans(5)),
        ),
    )


def example3_initial_bases() -> Tuple[BitMatrix, ...]:
    """A starting assignment satisfying the functional specification."""
    return (
        BitMatrix.from_strings(["10000", "00100"]),  # e0, e2
        BitMatrix.from_strings(["01000", "00010"]),  # e1, e3
        BitMatrix.from_strings(["00001", "11000"]),  # e4, e0+e1
        BitMatrix.from_strings(["00110", "00101"]),  # e2+e3, e2+e4
    )


def example3() -> NamedCode:
    """The example-3 functional-repair code from its initial assignment.

    Any three nodes decode (k = 3) and a newcomer downloads one symbol
    from each of the three survivors.
    """
    code = StorageCode(5, 2, example3_initial_bases())
    named = NamedCode("example3", code, CodeParams(5, 4, 3, 3, 2, 1), spec=example3_spec())
    return _verify(named)


def named_codes() -> Dict[str, Callable[..., NamedCode]]:
    """Constructor registry used by the CLI and by code-file loading.

    Each constructor's parameters, with their defaults, are the options
    that `storagecode construct` takes for its family, and their values
    when left out; functional_specs() names the functional families.
    """
    return {
        "example1": example1,
        "rbt-mbr": rbt_mbr,
        "repetition": repetition_code,
        "parity": single_parity,
        "example3": example3,
    }


def functional_specs() -> Dict[str, Callable[[], FunctionalSpec]]:
    """The registry's functional families, each with its spec's builder;
    every other family is exact.  Reading it builds no code."""
    return {"example3": example3_spec}
