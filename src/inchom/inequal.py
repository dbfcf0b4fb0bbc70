"""Fold operator, monotonicity chains, and lower-bound deduction for orbit counts.

The fold of a series over a residue class mod pi drives the chain
[c_m] >= [c_{m-1}] >= ... >= [c_{m-s}] >= 0 with m = floor(n/2) and
s = floor(pi/2); for pi > n it degenerates to the Livingstone-Wagner /
Stanley monotonicity toward the middle.
"""

from dataclasses import dataclass

from . import homology
from .errors import InternalConsistencyError, ResourceLimitError


def _bounded(entries: int, what: str) -> None:
    """Refuse, before it is built, a result of more entries than a scan may report."""
    if entries > homology.MAX_SCAN_RECORDS:
        raise ResourceLimitError(f"{what} has {entries} entries, over the bound {homology.MAX_SCAN_RECORDS}")


def _values(c) -> tuple:
    vals = tuple(getattr(c, "values", c))
    if not vals:
        raise ValueError("empty series")
    return vals


def fold(c, pi: int, k: int) -> int:
    """Sum of the series over indices congruent to k mod pi, inside 0..n."""
    if pi < 1:
        raise ValueError(f"fold needs pi >= 1, got {pi}")
    vals = _values(c)
    return sum(vals[j] for j in range(k % pi, len(vals), pi))


@dataclass(frozen=True)
class FoldedChainResult:
    n: int
    pi: int
    m: int
    s: int
    folded: tuple
    passed: bool
    violation_r: int | None


def check_chain(c, pi: int) -> FoldedChainResult:
    """Evaluate the folded chain and report the first failing comparison, if any."""
    if pi < 2:
        raise ValueError(f"check_chain needs pi >= 2, got {pi}")
    _bounded(pi // 2 + 1, f"the folded chain at pi = {pi}")
    vals = _values(c)
    n = len(vals) - 1
    m, s = n // 2, pi // 2
    folded = tuple(fold(vals, pi, m - r) for r in range(s + 1))
    violation = None
    for r in range(1, s + 1):
        if folded[r] > folded[r - 1]:
            violation = r
            break
    if violation is None and folded[-1] < 0:
        violation = s
    return FoldedChainResult(
        n=n, pi=pi, m=m, s=s, folded=folded,
        passed=violation is None, violation_r=violation,
    )


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    violation: tuple | None = None


def check_lw(c) -> CheckResult:
    """Monotonicity c_k <= c_l for all k <= l with k + l <= n."""
    vals = _values(c)
    n = len(vals) - 1
    for k in range(n + 1):
        for l in range(k + 1, n - k + 1):
            if vals[k] > vals[l]:
                return CheckResult(passed=False, violation=(k, l))
    return CheckResult(passed=True)


def check_palindrome(c) -> CheckResult:
    """Symmetry c_k = c_{n-k} for all k."""
    vals = _values(c)
    n = len(vals) - 1
    for k in range(n + 1):
        if vals[k] != vals[n - k]:
            return CheckResult(passed=False, violation=(k,))
    return CheckResult(passed=True)


def symbolic_chain(n: int, pi: int) -> list:
    """For r = 0..s, the in-range indices congruent to m - r mod pi, as sorted tuples.

    This is the folded chain left symbolic: no symmetry substitution, so the
    index sets expose which multiplicities each comparison really relates.
    """
    if pi < 2:
        raise ValueError(f"symbolic_chain needs pi >= 2, got {pi}")
    if n < 1:
        raise ValueError(f"symbolic_chain needs n >= 1, got {n}")
    _bounded(pi // 2 + 1, f"the folded chain at pi = {pi}")
    m, s = n // 2, pi // 2
    return [
        tuple(j for j in range((m - r) % pi, n + 1, pi))
        for r in range(s + 1)
    ]


@dataclass(frozen=True)
class BoundsReport:
    n: int
    pis: tuple
    bounds: tuple
    log: tuple


def deduce_bounds(n: int, pi_list) -> BoundsReport:
    """Best lower bounds on orbit counts derivable from the folded chains.

    Iterates four sound rules to a fixpoint: every count is >= 1, counts are
    palindromic, counts grow toward the middle rank, and a chain comparison
    whose greater side folds to a single index bounds that index from below
    by the sum over the lesser side.  The sum rule never fires on multi-index
    greater sides, where a joint bound cannot be split soundly.
    """
    pis = tuple(pi_list)
    for pi in pis:
        if pi < 2:
            raise ValueError(f"deduce_bounds needs each pi >= 2, got {pi}")
    if n < 1:
        raise ValueError(f"deduce_bounds needs n >= 1, got {n}")
    # the bounds and every chain, counted before any is built
    _bounded(n + 1 + sum(pi // 2 + 1 for pi in pis), f"deducing bounds to n = {n} at pi = {list(pis)}")
    m = n // 2
    bounds = [1] * (n + 1)
    log = [f"baseline: L_k = 1 for k = 0..{n}"]
    chains = {pi: symbolic_chain(n, pi) for pi in pis}
    max_rounds = 4 * n
    for _ in range(max_rounds):
        changed = False

        def raise_to(k, new, why):
            nonlocal changed
            if new > bounds[k]:
                log.append(f"{why}: L_{k} {bounds[k]} -> {new}")
                bounds[k] = new
                changed = True

        for k in range(m):
            raise_to(k + 1, bounds[k], f"monotone from L_{k}")
        for k in range(n + 1):
            raise_to(n - k, bounds[k], f"symmetry from L_{k}")
        for pi in pis:
            sets = chains[pi]
            for r in range(len(sets) - 1):
                greater, lesser = sets[r], sets[r + 1]
                if len(greater) != 1:
                    continue
                total = sum(bounds[v] for v in lesser)
                terms = "+".join(f"L_{v}" for v in lesser)
                raise_to(greater[0], total, f"chain(pi={pi}): {terms}")
        if not changed:
            return BoundsReport(n=n, pis=pis, bounds=tuple(bounds), log=tuple(log))
    raise InternalConsistencyError(
        f"bound propagation did not converge within {max_rounds} rounds"
    )
