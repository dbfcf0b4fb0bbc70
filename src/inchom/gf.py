"""Arithmetic for GF(q), q prime or one of the supported prime powers 4, 8, 9, 16.

Elements are integers 0..q-1.  For prime powers the integer encodes the
coefficient vector of a polynomial in base p, and sums and products are
looked up in tables built once from the digit vectors and the reducing
polynomial.
"""

import operator
from functools import lru_cache

from .qarith import factorize

# reducing polynomials, little-endian coefficients
_MIN_POLY = {
    4: (2, (1, 1, 1)),  # x^2 + x + 1 over GF(2)
    8: (2, (1, 1, 0, 1)),  # x^3 + x + 1
    9: (3, (1, 0, 1)),  # x^2 + 1 over GF(3)
    16: (2, (1, 1, 0, 0, 1)),  # x^4 + x + 1
}


def prime_power_decomposition(q: int):
    """Return (p, e) with q = p^e and p prime, or None if q is not a prime power."""
    if q < 2:
        return None
    factors = factorize(q)
    return next(iter(factors.items())) if len(factors) == 1 else None


class GF:
    """Field arithmetic on integer-encoded elements of GF(q)."""

    def __init__(self, q: int):
        dec = prime_power_decomposition(q)
        if dec is None:
            raise ValueError(f"{q} is not a prime power")
        p, e = dec
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            self._add = self._neg = self._mul = self._inv = None
        else:
            if q not in _MIN_POLY:
                raise ValueError(f"GF({q}) is not supported (prime q or q in 4, 8, 9, 16)")
            self._add, self._mul = self._build_tables()
            self._neg = [row.index(0) for row in self._add]
            self._inv = [0] + [row.index(1) for row in self._mul[1:]]

    def _build_tables(self):
        """(add table, mul table) on base-p digit vectors, products reduced by the polynomial."""
        p, e, q = self.p, self.e, self.q
        _, red = _MIN_POLY[q]
        digits = [[a // p**i % p for i in range(e)] for a in range(q)]

        def undigits(ds):
            return sum(d * p**i for i, d in enumerate(ds))

        add = [[undigits((x + y) % p for x, y in zip(da, db)) for db in digits]
               for da in digits]
        times = [[0] * q for _ in range(q)]
        for a, da in enumerate(digits):
            for b, db in enumerate(digits):
                prod = [0] * (2 * e - 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(db):
                            prod[i + j] = (prod[i + j] + x * y) % p
                # reduce modulo the defining polynomial
                for i in range(len(prod) - 1, e - 1, -1):
                    c = prod[i]
                    if c:
                        prod[i] = 0
                        for j in range(e):
                            prod[i - e + j] = (prod[i - e + j] - c * red[j]) % p
                times[a][b] = undigits(prod[:e])
        return add, times

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return self._add[a][b]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._inv[a]

    def dot(self, u, v) -> int:
        """The sum of u[i] v[i] over GF(q); 0 for empty vectors.

        The point action, `act` and the incidence oracle's subobjects
        compute every matrix product with it, one call per entry.
        """
        if self.e == 1:
            return sum(map(operator.mul, u, v)) % self.p
        add, table = self._add, self._mul
        acc = 0
        for a, b in zip(u, v):
            acc = add[acc][table[a][b]]
        return acc


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    return GF(q)


def rref(rows, n: int, F: GF):
    """Reduced row echelon form over F; returns a tuple of nonzero row tuples.

    The result is the canonical encoding of the row space: two row sets span
    the same subspace iff their rref tuples are equal.
    """
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = F.inv(work[r][c])
        work[r] = [F.mul(inv, v) for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [F.sub(v, F.mul(f, w)) for v, w in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r])
