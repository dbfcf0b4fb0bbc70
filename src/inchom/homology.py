"""Generalized homology of the boundary-power sequences.

For 0 < i < pi the modules at indices {j + t*pi} and {j - i + t*pi} form a
two-step periodic sequence whose consecutive maps compose to zero.  This
module lays out such sequences (the initial arrow and the position of j, in
closed form from 2j - i mod pi and checked at run time), computes homology
dimensions from closed-form p-ranks of incidence matrices, and checks the
dimension-level trace identity against folded rank-size sums.  Every query
goes through a HomologyTable, which holds what is fixed for one (poset,
field): pi, the rank sizes, their folded sums and the incidence ranks.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InternalConsistencyError, ResourceLimitError
from .poset import PosetSpec, _incidence_rank
from .qarith import FieldSpec, gauss_row, quantum_char

# a scan reports (n + 1)(pi - 1) records; above this many it fails before
# starting (boolean:6 at p = 10007 is 70,042 records, and its 11 MB of --json
# take about 0.8 s and 32 MB peak RSS on a 2-core x86 box with Python 3.11)
MAX_SCAN_RECORDS = 1_000_000


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


def _index_window(j: int, i: int, pi: int) -> list:
    """Sorted sequence indices in a window wide enough to contain the initial arrow and j.

    Since 0 < i < pi, j - i + t*pi lies strictly between j + (t-1)*pi and
    j + t*pi, so appending the two classes in turn keeps the list sorted and
    free of repeats.
    """
    lo = min(j, -2 * pi) - 2 * pi
    hi = max(j, 2 * pi) + 2 * pi
    idx = []
    for v in range(j + (lo - j) // pi * pi, hi + 1, pi):
        if v - i >= lo:
            idx.append(v - i)
        if v >= lo:
            idx.append(v)
    return idx


def _initial_arrow(j: int, i: int, pi: int) -> tuple:
    """(a, b, d): the initial arrow (a, b) of the sequence through (j, i) and j's distance d.

    The consecutive pairs of the sequence have sums 2j - i + s*pi, one for
    each integer s: with t, odd = divmod(s, 2) the pair is
    (j + t*pi, j - i + (t+1)*pi) for odd s and (j - i + t*pi, j + t*pi) for
    even s, and its b lies |s| arrows from j.  The initial arrow has
    0 <= a + b < pi, so s = -((2j - i) // pi).
    """
    s = -((2 * j - i) // pi)
    t, odd = divmod(s, 2)
    if odd:
        a, b = j + t * pi, j - i + (t + 1) * pi
    else:
        a, b = j - i + t * pi, j + t * pi
    if not (0 <= a + b < pi and b - a in (i, pi - i)):
        raise InternalConsistencyError(
            f"bad initial arrow {(a, b)} for (j={j}, i={i}, pi={pi})"
        )
    return a, b, abs(s)


def sequence_layout(j: int, i: int, pi: int, n: int) -> SequenceLayout:
    """The initial arrow (a, b), the consecutive pair with 0 <= a + b < pi, and j's distance d.

    The module at index b is the 0-position; d counts arrows between b and j.
    Both come in closed form from _initial_arrow, which checks the arrow's
    sum and gap before returning it; the display window lists the indices.
    """
    if not (0 < i < pi):
        raise ValueError(f"need 0 < i < pi, got i={i}, pi={pi}")
    a, b, d = _initial_arrow(j, i, pi)
    lo, hi = min(j, a, -pi), max(j, b, n + pi)
    display = tuple(v for v in _index_window(j, i, pi) if lo <= v <= hi)
    return SequenceLayout(j=j, i=i, pi=pi, n=n, arrow=(a, b), d=d, indices=display)


def vanishing_window(n: int, pi: int, j: int, i: int) -> bool:
    """True iff n - pi < 2j - i < n, the only band where homology can be nonzero."""
    if not (0 < i < pi):
        raise ValueError(f"need 0 < i < pi, got i={i}, pi={pi}")
    return n - pi < 2 * j - i < n


def distinguished_slot(n: int, pi: int, j: int, i: int) -> tuple | None:
    """The unique (j*, i*) of the sequence through (j, i) that lies in the window.

    The homology slots of one periodic sequence have 2j' - i' = 2j - i + s*pi
    over s in Z.  The open window (n - pi, n) holds the pi - 1 integers
    n - pi + 1 .. n - 1, so it misses exactly the class 2j - i = n (mod pi):
    then no slot is in the window and the sequence is exact (None).  Otherwise
    s is the largest one with 2j - i + s*pi <= n - 1.
    """
    target = 2 * j - i
    if (target - n) % pi == 0:
        return None
    s = (n - 1 - target) // pi
    if s % 2 == 0:
        return (j + (s // 2) * pi, i)
    return (j - i + ((s + 1) // 2) * pi, pi - i)


@dataclass(frozen=True)
class TraceCheck:
    j: int
    i: int
    slot: tuple
    lhs: int
    rhs: int
    passed: bool
    layout: SequenceLayout


class ScanRecord(NamedTuple):
    """One (j, i) of a scan; a named tuple, because a scan makes one per record."""

    j: int
    i: int
    dim: int
    in_window: bool
    lhs: int
    rhs: int
    passed: bool


@dataclass(frozen=True)
class HomologyReport:
    """A scan's records and verdict; to_dict() is its plain JSON form."""

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
            "records": [r._asdict() for r in self.records],
        }


class HomologyTable:
    """What every homology query over one (poset, field) reads, built once.

    It holds pi = pi(p, q), the rank sizes [n, s]_q for s = 0..n, the folded
    rank sums per residue mod pi, and the incidence ranks and dimensions
    memoised as they are first asked for.
    """

    def __init__(self, spec: PosetSpec, field: FieldSpec):
        self.spec, self.field = spec, field
        self.pi = pi = quantum_char(field.p, spec.q)
        self.sizes = gauss_row(spec.n, spec.q)
        self.folded = {}
        for v, size in enumerate(self.sizes):
            self.folded[v % pi] = self.folded.get(v % pi, 0) + size
        self._ranks = {}
        self._dims = {}

    def _rank(self, k: int, t: int) -> int:
        """rank_p of the incidence matrix W_{t,k}, memoised inside 0 <= t <= k <= n."""
        if k > self.spec.n or t < 0:
            return 0
        rank = self._ranks.get((k, t))
        if rank is None:
            rank = self._ranks[k, t] = _incidence_rank(self.sizes, self.field.p, self.pi, k, t)
        return rank

    def dim(self, j: int, i: int) -> int:
        """homology_dim at (j, i)."""
        dim = self._dims.get((j, i))
        if dim is not None:
            return dim
        pi, n = self.pi, self.spec.n
        if not (0 < i < pi):
            raise ValueError(f"need 0 < i < pi = {pi}, got i={i}")
        if not (0 <= j <= n):
            raise ValueError(f"need 0 <= j <= {n}, got j={j}")
        # for 0 < i < pi the i-fold boundary from rank k is (i!)_q times the
        # incidence matrix W_{k-i,k}, and (i!)_q is a unit mod p, so both have
        # the same rank
        kernel = self.sizes[j] - self._rank(j, j - i)
        image = self._rank(j + pi - i, j)
        dim = kernel - image
        if dim < 0:
            raise InternalConsistencyError(
                f"image exceeds kernel at (j={j}, i={i}) over GF({self.field.p}): "
                f"{image} > {kernel}"
            )
        self._dims[j, i] = dim
        return dim

    def _trace_values(self, j: int, i: int) -> tuple:
        """(slot, lhs, rhs) of the trace identity through (j, i), for 0 < i < pi.

        A negative signed rhs would mean the position convention broke, so it
        raises InternalConsistencyError on every route: scan, trace and cell.
        """
        pi, n = self.pi, self.spec.n
        slot = distinguished_slot(n, pi, j, i) or (j, i)
        js, is_ = slot
        # ranks outside 0..n are the zero module
        lhs = self.dim(js, is_) if 0 <= js <= n else 0
        a, b, d = _initial_arrow(js, is_, pi)
        rhs = (-1) ** d * (self.folded.get(b % pi, 0) - self.folded.get(a % pi, 0))
        if rhs < 0:
            raise InternalConsistencyError(
                f"negative signed trace value {rhs} at (j={j}, i={i})"
            )
        return slot, lhs, rhs

    def trace(self, j: int, i: int) -> TraceCheck:
        """trace_check at (j, i)."""
        pi = self.pi
        if not (0 < i < pi):
            raise ValueError(f"need 0 < i < pi = {pi}, got i={i}")
        slot, lhs, rhs = self._trace_values(j, i)
        layout = sequence_layout(*slot, pi, self.spec.n)
        return TraceCheck(j=j, i=i, slot=slot, lhs=lhs, rhs=rhs, passed=lhs == rhs, layout=layout)

    def scan(self) -> HomologyReport:
        """homology_scan of the table's poset and field."""
        spec, pi = self.spec, self.pi
        n = spec.n
        count = (n + 1) * (pi - 1)
        if count > MAX_SCAN_RECORDS:
            raise ResourceLimitError(
                f"a scan of {spec.describe()} over GF({self.field.p}) has {count} records, "
                f"over the bound {MAX_SCAN_RECORDS}"
            )
        records = []
        ok = True
        for i in range(1, pi):
            for j in range(0, n + 1):
                window = vanishing_window(n, pi, j, i)
                dim = self.dim(j, i)
                _, lhs, rhs = self._trace_values(j, i)
                passed = lhs == rhs and (window or dim == 0)
                ok = ok and passed
                records.append(ScanRecord(j, i, dim, window, lhs, rhs, passed))
        return HomologyReport(
            poset=spec.describe(), p=self.field.p, pi=pi, records=tuple(records), passed=ok
        )


def homology_dim(spec: PosetSpec, field: FieldSpec, j: int, i: int) -> int:
    """dim of (kernel of the i-fold boundary on rank j) / (image of the (pi-i)-fold boundary).

    The ranks of both boundary powers come in closed form from the incidence
    ranks of poset.incidence_rank, so no matrix is built.
    """
    return HomologyTable(spec, field).dim(j, i)


def trace_check(spec: PosetSpec, field: FieldSpec, j: int, i: int) -> TraceCheck:
    """Check the trace identity of the almost-exact sequence through (j, i).

    The sequence has at most one homology slot inside the window; lhs is the
    dimension there (or at (j, i) itself when the sequence is exact), and rhs
    is (-1)^d ([size_b] - [size_a]) folded mod pi, with the arrow (a, b) and
    the position d taken at that slot.
    """
    return HomologyTable(spec, field).trace(j, i)


def homology_scan(spec: PosetSpec, field: FieldSpec) -> HomologyReport:
    """Check every (j, i) with 0 <= j <= n, 0 < i < pi.

    A record passes when the trace identity holds and the dimension vanishes
    outside the window.  A negative signed rhs would mean the position
    convention broke, and aborts the scan.  A scan of more than
    MAX_SCAN_RECORDS records raises ResourceLimitError before it starts.
    """
    return HomologyTable(spec, field).scan()
