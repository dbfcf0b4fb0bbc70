"""Exact q-integer arithmetic and the quantum characteristic pi(p, q).

All values are plain Python integers, so Gaussian binomials never overflow.
The case q = 1 is handled by the same code paths and recovers ordinary
integers, factorials and binomial coefficients.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import IncompatibleFieldError, InternalConsistencyError, ResourceLimitError

# the first 13 primes; no composite below PRIME_BOUND is a strong pseudoprime
# to all of them (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981

# factorize trial-divides below _TRIAL_BOUND, then splits cofactors by rho
# within _RHO_STEPS squarings (gcds of _RHO_BATCH differences at a time)
_TRIAL_BOUND = 1000
_RHO_STEPS = 1 << 20
_RHO_BATCH = 128


def _strong_probable_prime(p: int) -> bool:
    """True iff the odd p > 41 passes Miller-Rabin to every base in _MR_BASES."""
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < PRIME_BOUND; larger p raise ResourceLimitError."""
    if p >= PRIME_BOUND:
        raise ResourceLimitError(f"primality of {p} is decided only below {PRIME_BOUND}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    return _strong_probable_prime(p)


def _rho_divisor(m: int) -> int | None:
    """A divisor 1 < d < m of the composite m, or None after _RHO_STEPS steps.

    Brent's variant of Pollard's rho (BIT 20, 1980) on x -> x^2 + c, seeded
    with x0 = 2 and c = 1, 2, ... in turn, so every run takes the same path.
    The products of _RHO_BATCH differences share one gcd; when that gcd is m,
    the batch is walked again one difference at a time.
    """
    steps = 0
    for c in range(1, _RHO_STEPS):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys, prod = y, 1
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    prod = prod * (x - y) % m
                g = gcd(prod, m)
                k += _RHO_BATCH
            steps += 2 * r
            if steps > _RHO_STEPS:
                return None
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(x - ys, m)
        if g != m:
            return g
    return None


def _iroot(m: int, k: int) -> int:
    """Floor of the k-th root of m >= 1, by Newton's method from above."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(m: int) -> tuple[int, int] | None:
    """(r, k) with r^k = m and k >= 2 the least such exponent, or None.

    Rho needs about sqrt(p) steps to find the least prime factor p, so the
    square of a prime above about 10^12 would exhaust its budget; an exact
    root needs no search.
    """
    for k in range(2, m.bit_length()):
        r = _iroot(m, k)
        if r**k == m:
            return r, k
    return None


def factorize(m: int) -> dict[int, int]:
    """Prime factorization {p: e} of m >= 1, ascending.

    Trial division removes the prime factors below _TRIAL_BOUND, and it stops
    early once d * d exceeds the cofactor.  Then every cofactor is either
    proved prime by is_prime (below PRIME_BOUND), split into k equal parts as
    an exact power r^k, or split by Brent's rho, so no factor is ever reported
    prime unproved.  A composite that rho does not split within _RHO_STEPS
    steps raises ResourceLimitError, and so does a cofactor at or above
    PRIME_BOUND that is a strong probable prime.
    """
    if m < 1:
        raise ValueError(f"factorize needs m >= 1, got {m}")
    out = {}
    for d in range(2, _TRIAL_BOUND):
        if d * d > m:
            break
        while m % d == 0:
            m //= d
            out[d] = out.get(d, 0) + 1
    pending = [m] if m > 1 else []
    while pending:
        c = pending.pop()
        if c < PRIME_BOUND:
            if is_prime(c):
                out[c] = out.get(c, 0) + 1
                continue
        elif _strong_probable_prime(c):
            # almost surely prime, so rho would spend its whole budget on it
            raise ResourceLimitError(
                f"{c} is a probable prime, and primality is decided only below {PRIME_BOUND}"
            )
        root = _perfect_power(c)
        if root is not None:
            pending += [root[0]] * root[1]
            continue
        d = _rho_divisor(c)
        if d is None:
            raise ResourceLimitError(
                f"the composite {c} did not split within {_RHO_STEPS} rho steps"
            )
        pending += [d, c // d]
    return dict(sorted(out.items()))


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


@lru_cache(maxsize=32)
def gauss_row(n: int, q: int) -> tuple:
    """The row ([n, 0]_q, ..., [n, n]_q), cached per (n, q).

    Built with [n, s]_q = [n, s-1]_q * q_int(n - s + 1, q) / q_int(s, q), so
    each entry costs one multiplication and one exact division.
    """
    if n < 0:
        raise ValueError(f"gauss_row needs n >= 0, got {n}")
    if q < 1:
        raise ValueError(f"gauss_row needs q >= 1, got {q}")
    row = [1]
    for s in range(1, n + 1):
        row.append(row[-1] * q_int(n - s + 1, q) // q_int(s, q))
    return tuple(row)


def divides_gauss_binom(p: int, pi: int, a: int, b: int) -> bool:
    """True iff p divides [a, b]_q, for 0 <= b and pi = quantum_char(p, q).

    By the q-Lucas theorem (Olive 1965; Sagan, Adv. Math. 95, 1992),
    [a, b]_q = C(a // pi, b // pi) * [a % pi, b % pi]_q (mod p).  The second
    factor is a unit iff b % pi <= a % pi, and Lucas's theorem says p does not
    divide the first iff every base-p digit of b // pi is at most the
    matching digit of a // pi.
    """
    if b % pi > a % pi:
        return True
    a, b = a // pi, b // pi
    while b:
        if b % p > a % p:
            return True
        a, b = a // p, b // p
    return False


def quantum_char(p: int, q: int) -> int:
    """Least pi > 0 with q_int(pi, q) divisible by p; requires p prime, p not dividing q.

    pi = p when p divides q - 1.  Otherwise q_int(i, q) = (q^i - 1)/(q - 1)
    with q - 1 a unit mod p, so pi is the multiplicative order of q mod p.
    That order divides p - 1; starting from p - 1, each prime factor d of
    p - 1 (from `factorize`) is divided out while q^(order/d) = 1 mod p.
    """
    if not is_prime(p):
        raise ValueError(f"quantum_char needs a prime p, got {p}")
    if q < 1:
        raise ValueError(f"quantum_char needs q >= 1, got {q}")
    if q % p == 0:
        raise IncompatibleFieldError(f"p = {p} divides q = {q}")
    if (q - 1) % p == 0:
        return p
    order = p - 1
    for d in factorize(p - 1):
        while order % d == 0 and pow(q, order // d, p) == 1:
            order //= d
    return order


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
