import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inchom import qarith
from inchom.errors import IncompatibleFieldError, ResourceLimitError
from inchom.qarith import (
    FieldSpec,
    PRIME_BOUND,
    divides_gauss_binom,
    factorize,
    gauss_binom,
    gauss_row,
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


def test_gauss_row_matches_gauss_binom():
    for q in (1, 2, 3, 4, 5, 7, 8, 9):
        for n in range(41):
            assert gauss_row(n, q) == tuple(gauss_binom(n, s, q) for s in range(n + 1)), (n, q)
    with pytest.raises(ValueError):
        gauss_row(-1, 2)
    with pytest.raises(ValueError):
        gauss_row(3, 0)


Q_LUCAS_QS = (1, 2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
Q_LUCAS_PS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_q_lucas_divisibility_grid():
    # every 0 <= b <= a + 1 with a < 40, each p <= 31 prime to q; pi runs
    # from 2 to p, so both the Lucas digits and the residues mod pi matter
    cases = 0
    for q in Q_LUCAS_QS:
        for a in range(40):
            for b in range(a + 2):
                value = gauss_binom(a, b, q)
                for p in Q_LUCAS_PS:
                    if q % p == 0:
                        continue
                    pi = quantum_char(p, q)
                    assert divides_gauss_binom(p, pi, a, b) == (value % p == 0), (a, b, p, q)
                    cases += 1
    assert cases == 95_460


@settings(max_examples=300, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=300),
    data=st.data(),
    q=st.sampled_from(Q_LUCAS_QS),
    p=st.sampled_from(Q_LUCAS_PS),
)
def test_q_lucas_divisibility_property(a, data, q, p):
    b = data.draw(st.integers(min_value=0, max_value=a), label="b")
    if q % p == 0:
        return
    pi = quantum_char(p, q)
    assert divides_gauss_binom(p, pi, a, b) == (gauss_binom(a, b, q) % p == 0)


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


def direct_quantum_char(p, q):
    """Oracle: the least pi with p | q_int(pi, q), by direct search in O(p)."""
    s = 0
    for i in range(1, p + 1):
        s = (s * q + 1) % p
        if s == 0:
            return i
    raise AssertionError(f"no quantum characteristic up to {p} for q = {q}")


def test_quantum_char_agrees_with_direct_search():
    cases = 0
    for p in range(2, 2000):
        if not is_prime(p):
            continue
        for q in range(1, 31):
            if q % p == 0:
                continue
            want = direct_quantum_char(p, q)
            assert quantum_char(p, q) == want, (p, q)
            assert quantum_char_via_order(p, q) == want, (p, q)
            cases += 1
    # 303 primes below 2000, 30 values of q, minus the 43 pairs with p | q
    assert cases == 303 * 30 - 43


def test_quantum_char_of_huge_primes():
    # pi(p, 2) = (p - 1) / 2 for p = 10^9 + 7; a search in O(p) would not return
    assert quantum_char(1_000_000_007, 2) == 500_000_003
    assert quantum_char(1_000_000_007, 1) == 1_000_000_007
    assert quantum_char(2**31 - 1, 2) == 31
    # 7 is a primitive root of 2^31 - 1 = 2 * 3^2 * 7 * 11 * 31 * 151 * 331 + 1
    assert quantum_char(2**31 - 1, 7) == 2**31 - 2


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


def trial_division_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_is_prime_matches_trial_division_below_1e5():
    assert [p for p in range(100_000) if is_prime(p)] == [
        p for p in range(100_000) if trial_division_is_prime(p)]


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,  # to the bases 2..31
    318665857834031151167461,  # to the bases 2..37; base 41 exposes it
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_large_primes_and_the_bound():
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime((2**61 - 1) * (2**13 - 1))
    assert PRIME_BOUND == 3317044064679887385961981
    with pytest.raises(ResourceLimitError, match=str(PRIME_BOUND)):
        is_prime(PRIME_BOUND)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**12))
def test_factorize_round_trip(m):
    factors = factorize(m)
    assert math.prod(p**e for p, e in factors.items()) == m
    assert all(is_prime(p) and e >= 1 for p, e in factors.items())
    assert list(factors) == sorted(factors)


def test_factorize_splits_large_cofactors_by_rho():
    # trial division below 1000 leaves 1063 * 2801 * 159871 * 1527007411 *
    # 125096112091 of 7^45 - 1 for rho to split
    assert factorize(7**45 - 1) == {2: 1, 3: 3, 19: 1, 31: 1, 37: 1, 1063: 1, 2801: 1,
                                    159871: 1, 1527007411: 1, 125096112091: 1}
    assert factorize(1000000007 * 1000000009) == {1000000007: 1, 1000000009: 1}
    # above PRIME_BOUND a composite splits into parts that can be proved prime
    m = (2**61 - 1) * 1000000007 * 1000000009
    assert m > PRIME_BOUND
    assert factorize(m) == {1000000007: 1, 1000000009: 1, 2**61 - 1: 1}
    assert factorize(1009**3 * 1013**2) == {1009: 3, 1013: 2}


def _next_prime(m):
    while not is_prime(m):
        m += 1
    return m


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1000, 10**8), min_size=1, max_size=4), st.integers(0, 5))
def test_factorize_products_of_primes(starts, twos):
    primes = [_next_prime(m) for m in starts]
    want = {}
    for p in primes + [2] * twos:
        want[p] = want.get(p, 0) + 1
    assert factorize(math.prod(primes) << twos) == dict(sorted(want.items()))


def test_factorize_fails_fast_where_it_cannot_prove():
    # a probable prime above PRIME_BOUND is refused at once, not given rho's budget
    with pytest.raises(ResourceLimitError, match="probable prime"):
        factorize(2**127 - 1)
    with pytest.raises(ResourceLimitError, match="probable prime"):
        factorize(6 * (2**89 - 1))


def test_factorize_rho_budget(monkeypatch):
    # a cofactor that does not split within the step budget is refused
    monkeypatch.setattr(qarith, "_RHO_STEPS", 64)
    with pytest.raises(ResourceLimitError, match="did not split"):
        factorize(1000000007 * 1000000009)
    assert factorize(2**20 * 3 * 1009) == {2: 20, 3: 1, 1009: 1}


def test_factorize_splits_exact_powers_without_rho(monkeypatch):
    # rho needs about sqrt(p) steps for p^2; with a budget of 64 steps only
    # the exact root can split these
    monkeypatch.setattr(qarith, "_RHO_STEPS", 64)
    p = 10**12 + 39
    assert factorize(3**60 * p**2) == {3: 60, p: 2}
    assert factorize((2**61 - 1) ** 2) == {2**61 - 1: 2}
    assert factorize(7 * p**3) == {7: 1, p: 3}
    assert factorize(1000003**6) == {1000003: 6}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**40), st.integers(2, 9))
def test_integer_root_is_the_floor(m, k):
    r = qarith._iroot(m, k)
    assert r**k <= m < (r + 1) ** k


def test_factorize_stops_at_a_prime_cofactor():
    # 2^61 - 2 = 2 * 3^2 * 5^2 * 7 * 11 * 13 * 31 * 41 * 61 * 151 * 331 * 1321
    assert factorize(2**61 - 2) == {2: 1, 3: 2, 5: 2, 7: 1, 11: 1, 13: 1, 31: 1, 41: 1,
                                    61: 1, 151: 1, 331: 1, 1321: 1}
    assert factorize(2**61 - 1) == {2**61 - 1: 1}
    assert factorize(2**10 * 3 * (2**61 - 1)) == {2: 10, 3: 1, 2**61 - 1: 1}
    assert factorize(1) == {}
    with pytest.raises(ValueError):
        factorize(0)
