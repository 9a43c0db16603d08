"""Named code families: the worked binary codes and bound witnesses.

All constructors verify their declared parameter profile against the
built code before returning it, so a NamedCode can be trusted as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .codes import (
    CodeError,
    CodeParams,
    RepairPlan,
    StorageCode,
    permute_plan,
    recovery_dimension,
    validate,
    validate_plan,
)
from .gf2 import BitMatrix, BitVector, Subspace, _reduce, _rref_words

MAX_RBT_NODES = 11  # C(n,2) must fit the 64-bit vector packing


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


@dataclass(frozen=True)
class FunctionalSpec:
    """A decidable predicate bundle over node-subspace assignments.

    Each rule (name, t, test) requires every t-subset of the storage
    spaces to pass test(prefix, words): prefix is the RREF of the sum of
    t-1 of the spaces, words the basis words of the last one.  The split
    lets admitter reduce the survivors' prefixes once per repair.
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

    def admitter(self, others: Sequence[Subspace]) -> Callable[[Sequence[int]], bool]:
        """A predicate on a candidate's RREF basis words: whether others
        plus the candidate satisfy the spec, given that others do.

        Precondition: others already satisfy the spec.  Then only the
        subsets that contain the candidate can fail, so only those are
        checked, each against its other spaces' sum reduced here once,
        and the check stops at the first failure.  The candidate must
        have node_dim dimensions in the spec's ambient space.
        """
        checks = [
            (test, _sum_rref(subset))
            for _, t, test in self.rules
            for subset in combinations(others, t - 1)
        ]
        return lambda words: all(test(prefix, words) for test, prefix in checks)

    def admits(self, others: Sequence[Subspace], new: Subspace) -> bool:
        """Whether others plus new satisfy the spec, given that others do."""
        if new.ambient_dim != self.ambient_dim or new.dim != self.node_dim:
            return False
        return self.admitter(others)(new.basis.words())


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


def example1() -> NamedCode:
    """The (4; 4,2,3,2,1) binary code on four rotating 2-dim subspaces.

    Node 0 stores (x0, x2+x3); its canonical repair downloads x0+x3 from
    node 1, x2 from node 2 and x3 from node 3.  Plans for the other
    nodes follow from the coordinate rotation e_i -> e_{i+1 mod 4}.
    """
    code = StorageCode.from_basis_strings(
        [
            ["1000", "0011"],  # e0, e2+e3
            ["0100", "1001"],  # e1, e3+e0
            ["0010", "1100"],  # e2, e0+e1
            ["0001", "0110"],  # e3, e1+e2
        ]
    )
    base_plan = RepairPlan(
        failed=0,
        helpers=(1, 2, 3),
        repair_spaces={
            1: Subspace.spanned_by(4, [BitVector.from_string("1001")]),  # e0+e3
            2: Subspace.spanned_by(4, [BitVector.from_string("0010")]),  # e2
            3: Subspace.spanned_by(4, [BitVector.from_string("0001")]),  # e3
        },
        beta=1,
    )
    plans = {0: base_plan}
    rotation = [1, 2, 3, 0]  # e_i -> e_{i+1 mod 4}
    node_map = {i: (i + 1) % 4 for i in range(4)}
    plan = base_plan
    for shift in range(1, 4):
        plan = permute_plan(plan, rotation, node_map)
        plans[shift] = plan
    named = NamedCode("example1", code, CodeParams(4, 4, 2, 3, 2, 1), plans)
    return _verify(named)


def pair_coordinates(n: int) -> List[Tuple[int, int]]:
    """Lexicographic list of unordered pairs {i,j} over 0..n-1."""
    return list(combinations(range(n), 2))


def rbt_mbr(n: int) -> NamedCode:
    """Rate-1/2 repair-by-transfer MBR code on C(n,2) pair coordinates.

    Node v stores the symbols x_{v,j} for j != v; a failed node gets
    each of them back verbatim from the opposite endpoint.
    """
    if not 3 <= n <= MAX_RBT_NODES:
        raise CodeError(f"rbt_mbr needs 3 <= n <= {MAX_RBT_NODES}")
    pairs = pair_coordinates(n)
    index = {p: i for i, p in enumerate(pairs)}
    m = len(pairs)
    bases = []
    for v in range(n):
        rows = [1 << index[tuple(sorted((v, j)))] for j in range(n) if j != v]
        bases.append(BitMatrix.from_words(m, rows))
    code = StorageCode(m, n - 1, tuple(bases))
    plans = {}
    for failed in range(n):
        helpers = tuple(j for j in range(n) if j != failed)
        spaces = {
            j: Subspace.spanned_by(m, [BitVector.unit(m, index[tuple(sorted((j, failed)))])])
            for j in helpers
        }
        plans[failed] = RepairPlan(failed, helpers, spaces, 1)
    named = NamedCode(f"rbt-mbr-n{n}", code, CodeParams(m, n, n - 1, n - 1, n - 1, 1), plans)
    return _verify(named)


def single_parity(r: int) -> NamedCode:
    """The binary [r+1, r] single-parity code: alpha = beta = 1.

    Nodes 0..r-1 store one message symbol each; the last node stores the
    overall parity.  Meets the alpha = beta locality-rate bound with
    equality at n = r+1.
    """
    if r < 1:
        raise CodeError("single_parity needs r >= 1")
    n = r + 1
    bases = [BitMatrix.from_words(r, [1 << i]) for i in range(r)]
    bases.append(BitMatrix.from_words(r, [(1 << r) - 1]))
    code = StorageCode(r, 1, tuple(bases))
    plans = {}
    for failed in range(n):
        helpers = tuple(j for j in range(n) if j != failed)
        spaces = {j: code.subspaces[j] for j in helpers}
        plans[failed] = RepairPlan(failed, helpers, spaces, 1)
    named = NamedCode(f"parity-r{r}", code, CodeParams(r, n, r, r, 1, 1), plans)
    return _verify(named)


def repetition_code(n: int, r: int, alpha: Optional[int] = None, variant: str = "split") -> NamedCode:
    """Repetition code: n/(r+1) groups of r+1 identical nodes.

    Two repair variants exist.  "split" (requires r | alpha) downloads
    beta = alpha/r from each of the r group peers; "copy" downloads the
    whole block (beta = alpha) from a single peer.  Both carry the
    structural declared r; the copy variant's plans use one helper.
    """
    if r < 1:
        raise CodeError("repetition_code needs r >= 1")
    if n % (r + 1) != 0:
        raise CodeError(f"r+1 = {r + 1} must divide n = {n}")
    if variant not in ("split", "copy"):
        raise CodeError(f"unknown variant {variant!r}")
    alpha = r if alpha is None else alpha
    if variant == "split" and alpha % r != 0:
        raise CodeError(f"split variant needs r | alpha, got r={r}, alpha={alpha}")
    groups = n // (r + 1)
    m = alpha * groups
    bases = []
    for node in range(n):
        group = node // (r + 1)
        rows = [1 << (group * alpha + s) for s in range(alpha)]
        bases.append(BitMatrix.from_words(m, rows))
    code = StorageCode(m, alpha, tuple(bases))
    beta = alpha // r if variant == "split" else alpha
    plans = {}
    for failed in range(n):
        group = failed // (r + 1)
        peers = [j for j in range(group * (r + 1), (group + 1) * (r + 1)) if j != failed]
        if variant == "split":
            spaces = {}
            for t, peer in enumerate(peers):
                rows = [
                    BitVector.unit(m, group * alpha + t * beta + s) for s in range(beta)
                ]
                spaces[peer] = Subspace.spanned_by(m, rows)
            plans[failed] = RepairPlan(failed, tuple(peers), spaces, beta)
        else:
            helper = peers[0]
            plans[failed] = RepairPlan(failed, (helper,), {helper: code.subspaces[helper]}, beta)
    params = CodeParams(m, n, groups, r, alpha, beta)
    named = NamedCode(f"repetition-n{n}-r{r}-a{alpha}-{variant}", code, params, plans)
    return _verify(named)


def _added_rank(prefix: Sequence[int], words: Sequence[int]) -> int:
    """The rank words add to the span of prefix, which must be in RREF.

    Each word is reduced by the prefix pivots, then by the words kept
    so far; whatever is left is kept, and is zero at every earlier
    pivot, as _reduce needs.
    """
    rows = [*prefix]
    for w in words:
        w = _reduce(rows, w)
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
    """Constructor registry used by the CLI and by code-file loading."""
    return {
        "example1": example1,
        "rbt-mbr": rbt_mbr,
        "repetition": repetition_code,
        "parity": single_parity,
        "example3": example3,
    }
