"""Generalized homology of the boundary-power sequences.

For 0 < i < pi the modules at indices {j + t*pi} and {j - i + t*pi} form a
two-step periodic sequence whose consecutive maps compose to zero.  This
module lays out such sequences (initial arrow, position), computes homology
dimensions from closed-form p-ranks of incidence matrices, and checks the
dimension-level trace identity against folded rank-size sums.
"""

from dataclasses import dataclass

from .errors import InternalConsistencyError
from .poset import PosetSpec, _check_cap, incidence_rank, rank_size
from .qarith import FieldSpec, quantum_char


@dataclass(frozen=True)
class SequenceLayout:
    """Layout data of one periodic sequence: its initial arrow and the position of index j.

    indices is the display window of the sequence: both index classes
    clipped to one period around 0..n (always containing j and the arrow).
    """

    j: int
    i: int
    pi: int
    n: int
    arrow: tuple[int, int]
    d: int
    indices: tuple


def _index_window(j: int, i: int, pi: int):
    """Sorted sequence indices in a window wide enough to contain the initial arrow and j."""
    lo = min(j, -2 * pi) - 2 * pi
    hi = max(j, 2 * pi) + 2 * pi
    idx = set()
    t = (lo - j) // pi
    while j + t * pi <= hi:
        for v in (j + t * pi, j - i + t * pi):
            if lo <= v <= hi:
                idx.add(v)
        t += 1
    return sorted(idx)


def sequence_layout(j: int, i: int, pi: int, n: int) -> SequenceLayout:
    """Find the unique consecutive pair (a, b) with 0 <= a + b < pi and the arrow distance d of j.

    The module at index b is the 0-position; d counts arrows between b and j.
    Uniqueness of the initial arrow is asserted by scanning all consecutive
    pairs in the window rather than assumed.
    """
    if not (0 < i < pi):
        raise ValueError(f"need 0 < i < pi, got i={i}, pi={pi}")
    idx = _index_window(j, i, pi)
    initial = [
        (idx[t], idx[t + 1])
        for t in range(len(idx) - 1)
        if 0 <= idx[t] + idx[t + 1] < pi
    ]
    if len(initial) != 1:
        raise InternalConsistencyError(
            f"expected one initial arrow for (j={j}, i={i}, pi={pi}), found {initial}"
        )
    a, b = initial[0]
    if b - a not in (i, pi - i):
        raise InternalConsistencyError(f"initial arrow {initial[0]} has bad gap")
    d = abs(idx.index(j) - idx.index(b))
    lo, hi = min(j, a, -pi), max(j, b, n + pi)
    display = tuple(v for v in idx if lo <= v <= hi)
    return SequenceLayout(j=j, i=i, pi=pi, n=n, arrow=(a, b), d=d, indices=display)


def vanishing_window(n: int, pi: int, j: int, i: int) -> bool:
    """True iff n - pi < 2j - i < n, the only band where homology can be nonzero."""
    if not (0 < i < pi):
        raise ValueError(f"need 0 < i < pi, got i={i}, pi={pi}")
    return n - pi < 2 * j - i < n


def homology_dim(spec: PosetSpec, field: FieldSpec, j: int, i: int, cap: int | None = None) -> int:
    """dim of (kernel of the i-fold boundary on rank j) / (image of the (pi-i)-fold boundary).

    The ranks of both boundary powers come in closed form from
    poset.incidence_rank, so no matrix is built and cap None sets no
    ceiling.  A given cap raises ResourceLimitError when rank j or a rank the
    two boundary powers read has more than cap elements.
    """
    return _homology_dim(spec, field, quantum_char(field.p, spec.q), j, i, cap)


def _homology_dim(spec: PosetSpec, field: FieldSpec, pi: int, j: int, i: int, cap) -> int:
    if not (0 < i < pi):
        raise ValueError(f"need 0 < i < pi = {pi}, got i={i}")
    if not (0 <= j <= spec.n):
        raise ValueError(f"need 0 <= j <= {spec.n}, got j={j}")
    if cap is not None:
        # the powers read ranks j - i..j and j..j + pi - i when those lie in
        # 0..n; rank sizes are unimodal and symmetric about n/2, so the
        # largest rank read is the one of that range nearest n/2
        lo = j - i if j >= i else j
        hi = j + pi - i if j + pi - i <= spec.n else j
        _check_cap(spec, min(max(spec.n // 2, lo), hi), cap)
    # for 0 < i < pi the i-fold boundary from rank k is (i!)_q times the
    # incidence matrix W_{k-i,k}, and (i!)_q is a unit mod p, so both have
    # the same rank
    kernel = rank_size(spec, j) - incidence_rank(spec, j, i, field)
    image = incidence_rank(spec, j + pi - i, pi - i, field)
    dim = kernel - image
    if dim < 0:
        raise InternalConsistencyError(
            f"image exceeds kernel at (j={j}, i={i}) over GF({field.p}): "
            f"{image} > {kernel}"
        )
    return dim


def _folded_rank_sum(spec: PosetSpec, k: int, pi: int) -> int:
    total = 0
    for v in range(k % pi, spec.n + 1, pi):
        total += rank_size(spec, v)
    return total


def _dim_any(spec: PosetSpec, field: FieldSpec, pi: int, j: int, i: int, cap) -> int:
    """Homology dimension with ranks outside 0..n treated as the zero module."""
    if j < 0 or j > spec.n:
        return 0
    return _homology_dim(spec, field, pi, j, i, cap)


def distinguished_slot(n: int, pi: int, j: int, i: int) -> tuple | None:
    """The unique (j*, i*) of the sequence through (j, i) that lies in the window.

    The homology slots of one periodic sequence have 2j' - i' = 2j - i + s*pi
    over s in Z; the open window (n - pi, n) of width pi admits at most one s.
    Returns None when no slot is in the window, i.e. the sequence is exact.
    """
    target = 2 * j - i
    for s in range((n - pi + 1 - target) // pi - 1, (n - target) // pi + 2):
        if n - pi < target + s * pi < n:
            if s % 2 == 0:
                return (j + (s // 2) * pi, i)
            return (j - i + ((s + 1) // 2) * pi, pi - i)
    return None


@dataclass(frozen=True)
class TraceCheck:
    j: int
    i: int
    slot: tuple
    lhs: int
    rhs: int
    passed: bool
    layout: SequenceLayout


def trace_check(spec: PosetSpec, field: FieldSpec, j: int, i: int,
                cap: int | None = None) -> TraceCheck:
    """Check the trace identity of the almost-exact sequence through (j, i).

    The sequence has at most one homology slot inside the window; lhs is the
    dimension there (or at (j, i) itself when the sequence is exact), and rhs
    is (-1)^d ([size_b] - [size_a]) folded mod pi, with the arrow (a, b) and
    the position d taken at that slot.  cap is passed to homology_dim.
    """
    return _trace_check(spec, field, quantum_char(field.p, spec.q), j, i, cap)


def _trace_check(spec: PosetSpec, field: FieldSpec, pi: int, j: int, i: int, cap) -> TraceCheck:
    if not (0 < i < pi):
        raise ValueError(f"need 0 < i < pi = {pi}, got i={i}")
    slot = distinguished_slot(spec.n, pi, j, i)
    if slot is None:
        slot = (j, i)
    js, is_ = slot
    lhs = _dim_any(spec, field, pi, js, is_, cap)
    layout = sequence_layout(js, is_, pi, spec.n)
    a, b = layout.arrow
    rhs = (-1) ** layout.d * (
        _folded_rank_sum(spec, b, pi) - _folded_rank_sum(spec, a, pi)
    )
    return TraceCheck(j=j, i=i, slot=slot, lhs=lhs, rhs=rhs, passed=lhs == rhs, layout=layout)


@dataclass(frozen=True)
class ScanRecord:
    j: int
    i: int
    dim: int
    in_window: bool
    lhs: int
    rhs: int
    passed: bool


@dataclass(frozen=True)
class HomologyReport:
    poset: str
    p: int
    pi: int
    records: tuple
    passed: bool

    def to_dict(self) -> dict:
        return {
            "poset": self.poset,
            "p": self.p,
            "pi": self.pi,
            "passed": self.passed,
            "records": [
                {
                    "j": r.j,
                    "i": r.i,
                    "dim": r.dim,
                    "in_window": r.in_window,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "passed": r.passed,
                }
                for r in self.records
            ],
        }


def homology_scan(spec: PosetSpec, field: FieldSpec, cap: int | None = None) -> HomologyReport:
    """Check every (j, i) with 0 <= j <= n, 0 < i < pi.

    A record passes when the trace identity holds and the dimension vanishes
    outside the window.  A negative signed rhs would mean the position
    convention broke, and aborts the scan.  cap is passed to homology_dim.
    """
    pi = quantum_char(field.p, spec.q)
    records = []
    ok = True
    for i in range(1, pi):
        for j in range(0, spec.n + 1):
            sizes = (rank_size(spec, j - i), rank_size(spec, j), rank_size(spec, j + pi - i))
            if not any(sizes):
                continue
            window = vanishing_window(spec.n, pi, j, i)
            dim = _homology_dim(spec, field, pi, j, i, cap)
            tc = _trace_check(spec, field, pi, j, i, cap)
            if tc.rhs < 0:
                raise InternalConsistencyError(
                    f"negative signed trace value {tc.rhs} at (j={j}, i={i})"
                )
            passed = tc.passed and (window or dim == 0)
            ok = ok and passed
            records.append(
                ScanRecord(
                    j=j, i=i, dim=dim, in_window=window,
                    lhs=tc.lhs, rhs=tc.rhs, passed=passed,
                )
            )
    return HomologyReport(
        poset=spec.describe(), p=field.p, pi=pi, records=tuple(records), passed=ok
    )
