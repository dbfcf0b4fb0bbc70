"""Ranked posets of subsets P(n, 1) and subspaces P(n, q), with their incidence operators.

Rank-k elements are encoded canonically: bit masks for subsets, reduced
row echelon matrices (as tuples of row tuples) for subspaces.  Enumeration
order is fixed — numeric mask order, respectively lexicographic order of the
flattened rref entries — so every emitted matrix is reproducible.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import TYPE_CHECKING

from . import gf
from .errors import IncompatibleFieldError, ResourceLimitError
from .qarith import FieldSpec, divides_gauss_binom, gauss_row, q_int, quantum_char

if TYPE_CHECKING:
    from .gfpla import SparseMat

DEFAULT_RANK_CAP = 5_000_000


@dataclass(frozen=True)
class PosetSpec:
    """One of the two supported poset families.

    kind "boolean": subsets of an n-set, q fixed to 1.
    kind "projective": subspaces of GF(q)^n, q a prime power >= 2.
    """

    kind: str
    n: int
    q: int = 1

    def __post_init__(self):
        if self.kind not in ("boolean", "projective"):
            raise ValueError(f"unknown poset kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"poset needs n >= 1, got {self.n}")
        if self.kind == "boolean":
            if self.q != 1:
                raise ValueError("boolean poset requires q = 1")
        else:
            if self.q < 2 or gf.prime_power_decomposition(self.q) is None:
                raise ValueError(f"projective poset needs a prime power q >= 2, got {self.q}")

    @staticmethod
    def boolean(n: int) -> "PosetSpec":
        return PosetSpec("boolean", n, 1)

    @staticmethod
    def projective(n: int, q: int) -> "PosetSpec":
        return PosetSpec("projective", n, q)

    @classmethod
    def parse(cls, text: str) -> "PosetSpec":
        """Parse "boolean:<n>" or "projective:<n>,<q>"."""
        kind, _, rest = text.partition(":")
        try:
            if kind == "boolean":
                return cls.boolean(int(rest))
            if kind == "projective":
                n, q = rest.split(",")
                return cls.projective(int(n), int(q))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad poset {text!r}: {exc}") from None
        raise ValueError(f"bad poset {text!r}; use boolean:<n> or projective:<n>,<q>")

    def describe(self) -> str:
        if self.kind == "boolean":
            return f"boolean:{self.n}"
        return f"projective:{self.n},{self.q}"


def rank_size(spec: PosetSpec, k: int) -> int:
    """Number of rank-k elements, [n, k]_q; zero outside 0..n."""
    if k < 0 or k > spec.n:
        return 0
    return gauss_row(spec.n, spec.q)[k]


def _check_cap(spec: PosetSpec, k: int, cap) -> int:
    size = rank_size(spec, k)
    limit = DEFAULT_RANK_CAP if cap is None else cap
    if size > limit:
        raise ResourceLimitError(
            f"rank {k} of {spec.describe()} has {size} elements, over the cap {limit}"
        )
    return size


def _rref_profiles(k: int, n: int, q: int) -> list:
    """All rank-k reduced row echelon k x n matrices over GF(q), k >= 0, sorted.

    Built anew on every call and kept by no cache: a listing lives as long
    as its caller holds it.
    """
    out = []
    for pivots in combinations(range(n), k):
        free = [
            (r, c)
            for r in range(k)
            for c in range(n)
            if c > pivots[r] and c not in pivots
        ]
        base = [[0] * n for _ in range(k)]
        for r, c in enumerate(pivots):
            base[r][c] = 1
        for values in product(range(q), repeat=len(free)):
            rows = [list(row) for row in base]
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            out.append(tuple(tuple(row) for row in rows))
    out.sort()
    return out


def enumerate_rank(spec: PosetSpec, k: int, cap: int | None = None) -> list:
    """Deterministic sorted list of the rank-k elements; empty outside 0..n."""
    if k < 0 or k > spec.n:
        return []
    _check_cap(spec, k, cap)
    if spec.kind == "boolean":
        from .groupact import _bool_mask_array  # deferred: groupact loads numpy

        return [int(m) for m in _bool_mask_array(spec.n, k)]
    return _rref_profiles(k, spec.n, spec.q)


def canonical_form(spec: PosetSpec, x):
    """Re-encode an element canonically; idempotent on valid encodings."""
    if spec.kind == "boolean":
        return int(x)
    return gf.rref(x, spec.n, gf.field(spec.q))


def element_rank(spec: PosetSpec, x) -> int:
    if spec.kind == "boolean":
        return int(x).bit_count()
    return len(x)


def contains(spec: PosetSpec, x, y) -> bool:
    """True iff y <= x in the poset (y a subset / subspace of x)."""
    if spec.kind == "boolean":
        return int(y) & ~int(x) == 0
    F = gf.field(spec.q)
    pivots = [next(c for c in range(spec.n) if row[c]) for row in x]
    for row in y:
        v = list(row)
        for r, pc in enumerate(pivots):
            if v[pc]:
                f = v[pc]
                v = [F.sub(a, F.mul(f, b)) for a, b in zip(v, x[r])]
        if any(v):
            return False
    return True


def _subobjects(spec: PosetSpec, x, i: int, profiles):
    """All elements of corank i below x, in canonical encoding.

    Below a subspace x of k rows they are the row spaces of c x, c running
    over `profiles`: the rank-(k - i) reduced coefficient matrices with k
    columns, which the caller lists once for all x of a rank.
    """
    if spec.kind == "boolean":
        bits = [b for b in range(spec.n) if (x >> b) & 1]
        for keep in combinations(bits, len(bits) - i):
            yield sum(1 << b for b in keep)
    else:
        F = gf.field(spec.q)
        cols = tuple(zip(*x))
        for coeff in profiles:
            rows = tuple(tuple(F.dot(crow, col) for col in cols) for crow in coeff)
            yield gf.rref(rows, spec.n, F)


@lru_cache(maxsize=64)
def _incidence_cached(spec: PosetSpec, k: int, i: int) -> "SparseMat":
    from .gfpla import SparseMat  # deferred: gfpla loads numpy

    nrows = rank_size(spec, k - i)
    ncols = rank_size(spec, k)
    if k < 0 or k > spec.n or k - i < 0:
        return SparseMat.zero(nrows, ncols, 0)
    index = {y: row for row, y in enumerate(enumerate_rank(spec, k - i))}
    profiles = _rref_profiles(k - i, k, spec.q) if spec.kind == "projective" else None
    entries = {
        (index[y], col): 1
        for col, x in enumerate(enumerate_rank(spec, k))
        for y in _subobjects(spec, x, i, profiles)
    }
    return SparseMat(nrows, ncols, entries, 0)


def incidence_matrix(spec: PosetSpec, k: int, i: int) -> "SparseMat":
    """0/1 integer matrix with entry (y, x) = 1 iff y <= x and rk x - rk y = i.

    Raises ResourceLimitError when rank k or rank k - i has more than
    poset.DEFAULT_RANK_CAP elements, before any cached matrix is used.
    """
    if i < 1:
        raise ValueError(f"incidence_matrix needs i >= 1, got {i}")
    _check_cap(spec, k, None)
    _check_cap(spec, k - i, None)
    return _incidence_cached(spec, k, i)


def incidence_rank(spec: PosetSpec, k: int, i: int, field: FieldSpec) -> int:
    """Rank over GF(p) of incidence_matrix(spec, k, i), in closed form; builds no matrix.

    p = field.p must not divide q.  With t = k - i <= n - k this is
    Wilson's diagonal form for subsets (Europ. J. Combin. 11, 1990) and its
    q-analogue for subspaces (Frumkin and Yakir, Israel J. Math. 71, 1990):

        rank = sum over s = 0..t with p not dividing [k-s, t-s]_q
               of [n, s]_q - [n, s-1]_q.

    For t > n - k, complements of subsets (orthogonal complements of
    subspaces) reverse inclusion, so the matrix is the transpose of the one
    for (n - k, n - t), which satisfies the condition.  The terms come from
    the cached row [n, s]_q, and divisibility from the q-Lucas theorem.
    """
    if i < 1:
        raise ValueError(f"incidence_rank needs i >= 1, got {i}")
    q, p = spec.q, field.p
    if q % p == 0:
        raise IncompatibleFieldError(f"characteristic {p} divides q = {q} of {spec.describe()}")
    return _incidence_rank(gauss_row(spec.n, q), p, quantum_char(p, q), k, k - i)


def _incidence_rank(row: tuple, p: int, pi: int, k: int, t: int) -> int:
    """incidence_rank of W_{t,k} from the row [n, s]_q (n = len(row) - 1) and pi = pi(p, q)."""
    n = len(row) - 1
    if k > n or t < 0:
        return 0
    if t > n - k:
        t, k = n - k, n - t
    rank = 0
    below = 0
    for s in range(t + 1):
        if not divides_gauss_binom(p, pi, k - s, t - s):
            rank += row[s] - below
        below = row[s]
    return rank


def boundary_matrix(spec: PosetSpec, k: int, field: FieldSpec) -> "SparseMat":
    """Matrix over GF(p) of the incidence map from rank k to rank k - 1.

    Each column carries one 1 per corank-1 subobject: k ones in the boolean
    case, q_int(k, q) ones in the projective case.
    """
    if not (1 <= k <= spec.n):
        raise ValueError(f"boundary_matrix needs 1 <= k <= {spec.n}, got {k}")
    if spec.q % field.p == 0:
        raise IncompatibleFieldError(
            f"characteristic {field.p} divides q = {spec.q} of {spec.describe()}"
        )
    return incidence_matrix(spec, k, 1).reduce_mod(field.p)


def expected_column_ones(spec: PosetSpec, k: int) -> int:
    """Saturated-chain count below a rank-k element at corank 1."""
    if spec.kind == "boolean":
        return k
    return q_int(k, spec.q)
