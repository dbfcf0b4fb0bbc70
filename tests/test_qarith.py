import pytest

from inchom.errors import IncompatibleFieldError
from inchom.qarith import (
    FieldSpec,
    gauss_binom,
    is_prime,
    q_factorial,
    q_int,
    quantum_char,
    quantum_char_via_order,
)

# the published pi(p, q) grid; None marks p | q
PI_TABLE_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23)
PI_TABLE = {
    2: (None, 2, None, 2, 2, None, 2, 2, 2, None, 2, 2, 2),
    3: (2, None, 3, 2, 3, 2, None, 2, 3, 3, 2, 3, 2),
    5: (4, 4, 2, None, 4, 4, 2, 5, 4, 5, 4, 2, 4),
    7: (3, 6, 3, 6, None, 7, 3, 3, 2, 3, 6, 6, 3),
    11: (10, 5, 5, 5, 10, 10, 5, None, 10, 5, 10, 10, 11),
    13: (12, 3, 6, 4, 12, 4, 3, 12, None, 3, 6, 12, 6),
    17: (8, 16, 4, 16, 16, 8, 8, 16, 4, 2, None, 8, 16),
    19: (18, 18, 9, 9, 3, 6, 9, 3, 18, 9, 9, None, 9),
}


def test_q_int_examples():
    assert q_int(4, 3) == 40
    assert q_int(7, 1) == 7
    assert q_int(3, 2) == 7


def test_q_int_rejects_bad_args():
    with pytest.raises(ValueError):
        q_int(0, 2)
    with pytest.raises(ValueError):
        q_int(3, 0)


def test_q_factorial_examples():
    assert q_factorial(3, 2) == 21
    assert q_factorial(0, 5) == 1
    assert q_factorial(4, 1) == 24


def test_gauss_binom_examples():
    assert gauss_binom(6, 3, 2) == 1395
    assert gauss_binom(5, 2, 1) == 10
    assert gauss_binom(4, 2, 2) == 35
    assert gauss_binom(4, -1, 2) == 0
    assert gauss_binom(4, 5, 2) == 0


def test_gauss_binom_matches_factorial_quotient():
    for q in (1, 2, 3, 4, 5, 7, 8, 9):
        for n in range(41):
            for k in range(-1, n + 2):
                if 0 <= k <= n:
                    den = q_factorial(k, q) * q_factorial(n - k, q)
                    want, rem = divmod(q_factorial(n, q), den)
                    assert rem == 0
                else:
                    want = 0
                assert gauss_binom(n, k, q) == want, (n, k, q)


def test_gauss_binom_matches_subspace_enumeration():
    # brute-force oracle: count 2-dimensional subspaces of GF(2)^4 by span sets
    vectors = [tuple((v >> i) & 1 for i in range(4)) for v in range(1, 16)]
    spans = set()
    for a in vectors:
        for b in vectors:
            if a == b:
                continue
            span = frozenset(
                tuple((x * ai + y * bi) % 2 for ai, bi in zip(a, b))
                for x in range(2)
                for y in range(2)
            )
            if len(span) == 4:
                spans.add(span)
    assert gauss_binom(4, 2, 2) == len(spans)


def test_gauss_binom_symmetry_and_pascal():
    for n in range(13):
        for q in (1, 2, 3, 4):
            for k in range(n + 1):
                assert gauss_binom(n, k, q) == gauss_binom(n, n - k, q)
                if n >= 1:
                    assert gauss_binom(n, k, q) == gauss_binom(
                        n - 1, k - 1, q
                    ) + q**k * gauss_binom(n - 1, k, q)


def test_quantum_char_examples():
    assert quantum_char(17, 2) == 8
    assert quantum_char(73, 2) == 9
    assert quantum_char(127, 2) == 7
    assert quantum_char(13, 1) == 13
    assert quantum_char(5, 4) == 2
    assert quantum_char(11, 23) == 11


def test_quantum_char_rejects_p_dividing_q():
    with pytest.raises(IncompatibleFieldError):
        quantum_char(3, 9)


def test_quantum_char_full_table():
    for p, row in PI_TABLE.items():
        for q, want in zip(PI_TABLE_QS, row):
            if want is None:
                assert q % p == 0
            else:
                assert quantum_char(p, q) == want, (p, q)


def test_quantum_char_agrees_with_order_form():
    for p in PI_TABLE:
        for q in range(1, 30):
            if q % p == 0:
                continue
            assert quantum_char(p, q) == quantum_char_via_order(p, q), (p, q)


def test_quantum_char_defining_properties():
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        for q in (1, 2, 3, 4, 5, 8, 9):
            if q % p == 0:
                continue
            pi = quantum_char(p, q)
            assert pow(q, pi, p) == 1 % p
            assert q_int(pi, q) % p == 0
            if pi >= 2:
                assert q_factorial(pi - 1, q) % p != 0
            assert q_factorial(pi, q) % p == 0


def test_fieldspec_checks_primality():
    FieldSpec(7)
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(1)


def test_is_prime_small_values():
    primes = [p for p in range(2, 40) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
