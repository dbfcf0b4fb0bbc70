"""Exact sparse linear algebra over GF(p): rank, products, boundary powers.

Matrices carry their modulus; p = 0 marks a plain integer matrix (used for
incidence matrices before reduction).  Zero-dimensional matrices are ordinary
values so that sequence edges need no special-casing.
"""

from functools import lru_cache

import numpy as np

from .qarith import FieldSpec


class SparseMat:
    """Immutable sparse matrix with entries stored as {(row, col): value}.

    For p >= 2 the values lie in 1..p-1; for p = 0 they are arbitrary nonzero
    integers.  No zeros are stored and no duplicate positions exist.
    """

    __slots__ = ("rows", "cols", "p", "entries")

    def __init__(self, rows: int, cols: int, entries: dict, p: int):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if p < 0 or p == 1:
            raise ValueError(f"modulus must be 0 or >= 2, got {p}")
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            if v == 0:
                raise ValueError(f"stored zero at ({r},{c})")
            if p and not (1 <= v < p):
                raise ValueError(f"value {v} at ({r},{c}) not reduced mod {p}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "entries", dict(entries))

    def __setattr__(self, name, value):
        raise AttributeError("SparseMat is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int, p: int) -> "SparseMat":
        return cls(rows, cols, {}, p)

    @classmethod
    def identity(cls, n: int, p: int) -> "SparseMat":
        return cls(n, n, {(i, i): 1 for i in range(n)}, p)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def entry(self, r: int, c: int) -> int:
        return self.entries.get((r, c), 0)

    def is_zero(self) -> bool:
        return not self.entries

    def reduce_mod(self, p: int) -> "SparseMat":
        if p < 2:
            raise ValueError("reduce_mod needs p >= 2")
        ent = {}
        for pos, v in self.entries.items():
            v %= p
            if v:
                ent[pos] = v
        return SparseMat(self.rows, self.cols, ent, p)

    def scale(self, c: int) -> "SparseMat":
        """Entrywise multiple; reduced mod p when the matrix carries a modulus."""
        if self.p:
            c %= self.p
        if c == 0:
            return SparseMat.zero(self.rows, self.cols, self.p)
        ent = {}
        for pos, v in self.entries.items():
            w = v * c % self.p if self.p else v * c
            if w:
                ent[pos] = w
        return SparseMat(self.rows, self.cols, ent, self.p)

    def transpose(self) -> "SparseMat":
        ent = {(c, r): v for (r, c), v in self.entries.items()}
        return SparseMat(self.cols, self.rows, ent, self.p)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.int64)
        for (r, c), v in self.entries.items():
            out[r, c] = v
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMat):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.p == other.p
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseMat({self.rows}x{self.cols}, mod {self.p}, nnz={self.nnz})"


def matmul(a: SparseMat, b: SparseMat) -> SparseMat:
    """Exact product; operands must share modulus and have compatible shapes."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if a.p != b.p:
        raise ValueError(f"modulus mismatch: {a.p} vs {b.p}")
    p = a.p
    a_cols: dict[int, list] = {}
    for (r, c), v in a.entries.items():
        a_cols.setdefault(c, []).append((r, v))
    b_cols: dict[int, list] = {}
    for (r, c), v in b.entries.items():
        b_cols.setdefault(c, []).append((r, v))
    ent = {}
    for j, bcol in b_cols.items():
        acc: dict[int, int] = {}
        for r, v in bcol:
            for ar, av in a_cols.get(r, ()):
                acc[ar] = acc.get(ar, 0) + av * v
        for ar, v in acc.items():
            v = v % p if p else v
            if v:
                ent[(ar, j)] = v
    return SparseMat(a.rows, b.cols, ent, p)


def _rank_gf2(m: SparseMat) -> int:
    rows: dict[int, int] = {}
    for (r, c), _ in m.entries.items():
        rows[r] = rows.get(r, 0) | (1 << c)
    pivots: dict[int, int] = {}
    rank = 0
    for r in sorted(rows):
        row = rows[r]
        while row:
            b = row.bit_length() - 1
            other = pivots.get(b)
            if other is None:
                pivots[b] = row
                rank += 1
                break
            row ^= other
    return rank


def _rank_modp(m: SparseMat) -> int:
    p = m.p
    A = m.to_dense()
    if A.shape[0] > A.shape[1]:
        A = A.T.copy()
    rows, cols = A.shape
    # lazy reduction: per pivot only the pivot column and row are reduced, so
    # off-pivot values grow by at most (p-1)^2 per step (the pivot-row product
    # itself is at most (p-1)^2) and stay below (p-1)^2 * (steps + 1) in size;
    # past int64 the same elimination runs on Python integers
    bound = (p - 1) ** 2 * (min(rows, cols) + 1)
    if bound < 2**31:
        A = A.astype(np.int32)
    elif bound >= 2**63:
        A = A.astype(object)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        A[r:, c] %= p
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = int(nz[0]) + r
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r, c:] %= p
        inv = pow(int(A[r, c]), p - 2, p)
        A[r, c:] = A[r, c:] * inv % p
        f = A[r + 1 :, c]
        if np.any(f):
            A[r + 1 :, c + 1 :] -= np.outer(f, A[r, c + 1 :])
            A[r + 1 :, c] = 0
        r += 1
    return r


def rank(m: SparseMat) -> int:
    """GF(p) rank by exact elimination; deterministic."""
    if m.p == 0:
        raise ValueError("rank needs a matrix over GF(p); reduce_mod first")
    if m.rows == 0 or m.cols == 0 or m.is_zero():
        return 0
    if m.p == 2:
        return _rank_gf2(m)
    return _rank_modp(m)


def nullity(m: SparseMat) -> int:
    """Dimension of the kernel, columns acting as the domain."""
    return m.cols - rank(m)


@lru_cache(maxsize=256)
def _power_cached(spec, k: int, i: int, field: FieldSpec) -> SparseMat:
    from . import poset  # deferred: poset builds on SparseMat

    def factor(j):
        if 1 <= j <= spec.n:
            return poset.boundary_matrix(spec, j, field)
        return SparseMat.zero(poset.rank_size(spec, j - 1), poset.rank_size(spec, j), field.p)

    out = factor(k)
    for j in range(k - 1, k - i, -1):
        out = matmul(factor(j), out)
    return out


def power_boundary(spec, k: int, i: int, field: FieldSpec) -> SparseMat:
    """Matrix of the i-fold boundary map from rank k to rank k - i.

    Computed as an i-fold product of single-step boundary matrices; ranks
    outside 0..n contribute zero-dimensional factors, so the result is an
    empty matrix whenever the domain or codomain vanishes.
    """
    if i < 1:
        raise ValueError(f"power_boundary needs i >= 1, got {i}")
    return _power_cached(spec, k, i, field)
