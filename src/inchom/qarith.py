"""Exact q-integer arithmetic and the quantum characteristic pi(p, q).

All values are plain Python integers, so Gaussian binomials never overflow.
The case q = 1 is handled by the same code paths and recovers ordinary
integers, factorials and binomial coefficients.
"""

from dataclasses import dataclass

from .errors import IncompatibleFieldError, InternalConsistencyError


def is_prime(p: int) -> bool:
    """Deterministic trial division; inputs here are desk-scale."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The prime field GF(p) used for matrix coefficients."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"field characteristic must be prime, got {self.p}")


def q_int(i: int, q: int) -> int:
    """The q-integer 1 + q + q^2 + ... + q^(i-1); equals i when q = 1."""
    if i < 1:
        raise ValueError(f"q_int needs i >= 1, got {i}")
    if q < 1:
        raise ValueError(f"q_int needs q >= 1, got {q}")
    if q == 1:
        return i
    return (q**i - 1) // (q - 1)


def q_factorial(i: int, q: int) -> int:
    """Product q_int(1, q) * q_int(2, q) * ... * q_int(i, q); empty product is 1."""
    if i < 0:
        raise ValueError(f"q_factorial needs i >= 0, got {i}")
    if q < 1:
        raise ValueError(f"q_factorial needs q >= 1, got {q}")
    out = 1
    for t in range(1, i + 1):
        out *= q_int(t, q)
    return out


def gauss_binom(n: int, k: int, q: int) -> int:
    """Gaussian binomial [n choose k]_q.

    Counts k-dimensional subspaces of GF(q)^n for q > 1 and k-subsets of an
    n-set for q = 1.  Zero outside 0 <= k <= n.
    """
    if n < 0:
        raise ValueError(f"gauss_binom needs n >= 0, got {n}")
    if q < 1:
        raise ValueError(f"gauss_binom needs q >= 1, got {q}")
    if k < 0 or k > n:
        return 0
    m = min(k, n - k)
    # after step t, out = [n - m + t, t]_q, so every division is exact
    out = 1
    for t in range(1, m + 1):
        out, rem = divmod(out * q_int(n - m + t, q), q_int(t, q))
        if rem:
            raise InternalConsistencyError(f"gauss_binom({n},{k},{q}) not integral")
    return out


def quantum_char(p: int, q: int) -> int:
    """Least pi > 0 with q_int(pi, q) divisible by p; requires p prime, p not dividing q.

    Found by direct search; pi never exceeds p, because pi = p when p divides
    q - 1 and pi equals the multiplicative order of q mod p otherwise.
    """
    if not is_prime(p):
        raise ValueError(f"quantum_char needs a prime p, got {p}")
    if q < 1:
        raise ValueError(f"quantum_char needs q >= 1, got {q}")
    if q % p == 0:
        raise IncompatibleFieldError(f"p = {p} divides q = {q}")
    s = 0
    for i in range(1, p + 1):
        s = (s * q + 1) % p
        if s == 0:
            return i
    raise InternalConsistencyError(f"no quantum characteristic below {p} for q = {q}")


def quantum_char_via_order(p: int, q: int) -> int:
    """Number-theoretic form of quantum_char, used as an independent cross-check."""
    if not is_prime(p):
        raise ValueError(f"quantum_char_via_order needs a prime p, got {p}")
    if q % p == 0:
        raise IncompatibleFieldError(f"p = {p} divides q = {q}")
    if (q - 1) % p == 0:
        return p
    order, x = 1, q % p
    while x != 1:
        x = x * q % p
        order += 1
    return order
