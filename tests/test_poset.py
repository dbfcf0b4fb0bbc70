import random
from functools import reduce

import pytest

from inchom import gfpla, poset
from inchom.errors import IncompatibleFieldError, ResourceLimitError
from inchom.gf import field, prime_power_decomposition, rref
from inchom.gfpla import rank
from inchom.poset import (
    PosetSpec,
    boundary_matrix,
    canonical_form,
    contains,
    element_rank,
    enumerate_rank,
    expected_column_ones,
    incidence_matrix,
    incidence_rank,
    rank_size,
)
from inchom.qarith import FieldSpec, gauss_binom, q_int


def test_spec_validation():
    PosetSpec.boolean(3)
    PosetSpec.projective(4, 9)
    with pytest.raises(ValueError):
        PosetSpec("boolean", 3, 2)
    with pytest.raises(ValueError):
        PosetSpec.projective(3, 6)
    with pytest.raises(ValueError):
        PosetSpec.boolean(0)
    with pytest.raises(ValueError):
        PosetSpec("simplicial", 3)


def test_spec_parse_roundtrip():
    assert PosetSpec.parse("boolean:8") == PosetSpec.boolean(8)
    assert PosetSpec.parse("projective:4,2") == PosetSpec.projective(4, 2)
    with pytest.raises(ValueError):
        PosetSpec.parse("boolean:x")
    with pytest.raises(ValueError):
        PosetSpec.parse("projective:4")


def test_rank_size_examples():
    assert rank_size(PosetSpec.boolean(24), 12) == 2704156
    assert rank_size(PosetSpec.projective(4, 2), 1) == 15
    assert rank_size(PosetSpec.boolean(5), -1) == 0
    assert rank_size(PosetSpec.boolean(5), 6) == 0


def test_rank_sizes_sum_and_palindrome():
    for spec in (PosetSpec.boolean(6), PosetSpec.projective(4, 3)):
        sizes = [rank_size(spec, k) for k in range(spec.n + 1)]
        assert sizes == sizes[::-1]
        if spec.kind == "boolean":
            assert sum(sizes) == 2**spec.n
        else:
            assert sum(sizes) == sum(
                gauss_binom(spec.n, k, spec.q) for k in range(spec.n + 1)
            )


def test_enumerate_boolean():
    spec = PosetSpec.boolean(3)
    assert enumerate_rank(spec, 2) == [0b011, 0b101, 0b110]
    assert enumerate_rank(PosetSpec.boolean(4), 5) == []
    masks = enumerate_rank(PosetSpec.boolean(10), 4)
    assert len(masks) == 210 == len(set(masks))
    assert masks == sorted(masks)
    assert all(m.bit_count() == 4 for m in masks)


def test_enumerate_projective():
    spec = PosetSpec.projective(3, 2)
    points = enumerate_rank(spec, 1)
    assert len(points) == 7
    assert points == sorted(points)
    assert all(len(x) == 1 for x in points)
    # every nonzero vector appears exactly once up to scaling (q=2: as itself)
    assert {x[0] for x in points} == {
        tuple((v >> (2 - i)) & 1 for i in range(3)) for v in range(1, 8)
    }
    for k in range(4):
        elems = enumerate_rank(spec, k)
        assert len(elems) == rank_size(spec, k) == len(set(elems))


def test_enumerate_cap_names_offending_size():
    with pytest.raises(ResourceLimitError, match="2704156"):
        enumerate_rank(PosetSpec.boolean(24), 12, cap=1000)


def test_canonical_idempotent():
    spec = PosetSpec.projective(4, 3)
    for x in enumerate_rank(spec, 2)[:40]:
        assert canonical_form(spec, x) == x
        assert element_rank(spec, x) == 2
    b = PosetSpec.boolean(5)
    for x in enumerate_rank(b, 3):
        assert canonical_form(b, x) == x
        assert element_rank(b, x) == 3


def test_canonical_recognizes_scaled_bases():
    spec = PosetSpec.projective(3, 3)
    F = field(3)
    for x in enumerate_rank(spec, 2):
        doubled = tuple(tuple(F.mul(2, v) for v in row) for row in x)
        assert canonical_form(spec, doubled) == x


def test_contains():
    b = PosetSpec.boolean(4)
    assert contains(b, 0b1101, 0b0101)
    assert not contains(b, 0b1101, 0b0010)
    p = PosetSpec.projective(3, 2)
    planes = enumerate_rank(p, 2)
    points = enumerate_rank(p, 1)
    for plane in planes:
        below = [pt for pt in points if contains(p, plane, pt)]
        assert len(below) == 3  # Fano lines carry 3 points


def test_boundary_examples():
    b3 = PosetSpec.boolean(3)
    m = boundary_matrix(b3, 1, FieldSpec(5))
    assert (m.rows, m.cols) == (1, 3) and sorted(m.entries.values()) == [1, 1, 1]

    b4 = PosetSpec.boolean(4)
    m = boundary_matrix(b4, 2, FieldSpec(2))
    assert (m.rows, m.cols) == (4, 6)

    fano = boundary_matrix(PosetSpec.projective(3, 2), 2, FieldSpec(3))
    assert (fano.rows, fano.cols) == (7, 7)
    col_weight = {}
    for (r, c), v in fano.entries.items():
        assert v == 1
        col_weight[c] = col_weight.get(c, 0) + 1
    assert set(col_weight.values()) == {3}


def test_boundary_column_ones_invariant():
    cases = [(PosetSpec.boolean(6), 7), (PosetSpec.projective(4, 3), 5)]
    for spec, p in cases:
        f = FieldSpec(p)
        for k in range(1, spec.n + 1):
            m = boundary_matrix(spec, k, f)
            counts = {}
            for (r, c), v in m.entries.items():
                counts[c] = counts.get(c, 0) + 1
            assert set(counts.values()) == {expected_column_ones(spec, k)}
            assert len(counts) == rank_size(spec, k)


def test_boundary_rejects_p_dividing_q():
    with pytest.raises(IncompatibleFieldError):
        boundary_matrix(PosetSpec.projective(3, 4), 1, FieldSpec(2))


def test_incidence_examples():
    b4 = PosetSpec.boolean(4)
    m = incidence_matrix(b4, 2, 2)
    assert (m.rows, m.cols) == (1, 6) and m.nnz == 6

    m = incidence_matrix(b4, 3, 2)
    assert (m.rows, m.cols) == (4, 4)
    # entry (y, x) = 1 iff singleton y inside triple x; each column has 3 ones
    singles = enumerate_rank(b4, 1)
    triples = enumerate_rank(b4, 3)
    for (r, c), v in m.entries.items():
        assert v == 1 and singles[r] & triples[c] == singles[r]
    assert m.nnz == 12

    m = incidence_matrix(PosetSpec.projective(4, 2), 2, 1)
    assert (m.rows, m.cols) == (15, 35)
    counts = {}
    for (r, c), v in m.entries.items():
        counts[c] = counts.get(c, 0) + 1
    assert set(counts.values()) == {q_int(2, 2)}


def test_incidence_cap_applies_to_warm_cache(monkeypatch):
    spec = PosetSpec.boolean(8)
    assert incidence_matrix(spec, 4, 1).cols == 70
    assert incidence_matrix(spec, 7, 2).rows == 56
    monkeypatch.setattr(poset, "DEFAULT_RANK_CAP", 10)
    with pytest.raises(ResourceLimitError):
        incidence_matrix(spec, 4, 1)
    with pytest.raises(ResourceLimitError):
        boundary_matrix(spec, 4, FieldSpec(3))
    # rank k - i is checked too: 8 seven-sets over 56 five-sets
    with pytest.raises(ResourceLimitError):
        incidence_matrix(spec, 7, 2)
    monkeypatch.setattr(poset, "DEFAULT_RANK_CAP", 56)
    assert incidence_matrix(spec, 7, 2).rows == 56


def test_each_incidence_matrix_is_the_callers_own():
    spec = PosetSpec.boolean(4)
    incidence_matrix(spec, 2, 1).entries.clear()
    assert incidence_matrix(spec, 2, 1).nnz == 12


def test_incidence_rank_matches_elimination():
    # the closed form against exact elimination for every 1 <= i <= k <= n,
    # i >= pi included; both branches (t = k - i <= n - k, and the
    # complemented t > n - k) run for every poset
    specs = [PosetSpec.boolean(n) for n in range(1, 11)]
    specs += [PosetSpec.projective(n, 2) for n in range(1, 6)]
    specs += [PosetSpec.projective(n, 3) for n in range(1, 5)]
    specs += [PosetSpec.projective(n, q) for q in (4, 5) for n in range(1, 4)]
    cases = 0
    for spec in specs:
        branches = set()
        for p in (2, 3, 5, 7, 11, 13):
            if spec.q % p == 0:
                continue
            for k in range(1, spec.n + 1):
                for i in range(1, k + 1):
                    want = rank(incidence_matrix(spec, k, i).reduce_mod(p))
                    assert incidence_rank(spec, k, i, FieldSpec(p)) == want, (spec.describe(), p, k, i)
                    branches.add(k - i <= spec.n - k)
                    cases += 1
        assert branches == ({True, False} if spec.n > 1 else {True})
    assert cases == 1695


def _incidence_rank_by_full_binomials(spec, k, i, p):
    """The Wilson / Frumkin-Yakir sum with every Gaussian binomial computed in full."""
    n, q, t = spec.n, spec.q, k - i
    if k > n or t < 0:
        return 0
    if t > n - k:
        t, k = n - k, n - t
    return sum(
        gauss_binom(n, s, q) - gauss_binom(n, s - 1, q)
        for s in range(t + 1)
        if gauss_binom(k - s, t - s, q) % p
    )


def test_incidence_rank_matches_full_binomial_formula():
    # the row and q-Lucas route against the formula it replaced, past
    # elimination scale: subsets up to n = 29, subspaces up to n = 9
    specs = [PosetSpec.boolean(n) for n in range(1, 30)]
    specs += [PosetSpec.projective(n, q) for q in (2, 3, 4, 5, 7, 8, 9) for n in range(1, 10)]
    cases = 0
    for spec in specs:
        for p in (2, 3, 5, 7, 11, 13, 17, 31):
            if spec.q % p == 0:
                continue
            field = FieldSpec(p)
            for k in range(spec.n + 2):
                for i in range(1, k + 2):
                    want = _incidence_rank_by_full_binomials(spec, k, i, p)
                    assert incidence_rank(spec, k, i, field) == want, (spec.describe(), p, k, i)
                    cases += 1
    assert cases == 57_434


def test_incidence_rank_edges():
    # ranks outside 0..n give empty matrices
    b5 = PosetSpec.boolean(5)
    assert incidence_rank(b5, 6, 1, FieldSpec(3)) == 0
    assert incidence_rank(b5, 2, 3, FieldSpec(3)) == 0
    with pytest.raises(ValueError):
        incidence_rank(b5, 2, 0, FieldSpec(3))
    with pytest.raises(IncompatibleFieldError):
        incidence_rank(PosetSpec.projective(3, 4), 2, 1, FieldSpec(2))
    # the field is a FieldSpec, so a composite characteristic never arrives
    for composite in (4, 6):
        with pytest.raises(ValueError):
            incidence_rank(b5, 2, 1, FieldSpec(composite))


def test_incidence_against_containment_oracle():
    spec = PosetSpec.projective(4, 2)
    m = incidence_matrix(spec, 2, 1)
    points = enumerate_rank(spec, 1)
    lines = enumerate_rank(spec, 2)
    for r, y in enumerate(points):
        for c, x in enumerate(lines):
            assert m.entry(r, c) == (1 if contains(spec, x, y) else 0)


def test_prime_power_decomposition():
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(7) == (7, 1)
    assert prime_power_decomposition(12) is None
    assert prime_power_decomposition(1) is None


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_field_axioms_sampled(q):
    F = field(q)
    elems = range(q)
    for a in elems:
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in range(q):
        for b in range(q):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    # sampled associativity and distributivity
    pts = [0, 1, q - 1, q // 2]
    for a in pts:
        for b in pts:
            for c in pts:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_dot_is_the_add_mul_fold(q):
    F = field(q)
    rng = random.Random(q)
    assert F.dot((), ()) == 0
    for length in range(1, 12):
        for _ in range(20):
            u = [rng.choice([0, 0, rng.randrange(q)]) for _ in range(length)]
            v = [rng.choice([0, rng.randrange(q)]) for _ in range(length)]
            want = reduce(F.add, map(F.mul, u, v), 0)
            assert F.dot(u, v) == want, (u, v)


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_add_and_neg_tables_are_digitwise_mod_p(q):
    # an element of GF(p^e) is the integer of its base-p digit vector, and
    # addition and negation act on each digit mod p
    p, e = prime_power_decomposition(q)

    def digits(a):
        return [a // p**i % p for i in range(e)]

    def number(ds):
        return sum(d * p**i for i, d in enumerate(ds))

    F = field(q)
    for a in range(q):
        assert F.neg(a) == number([-d % p for d in digits(a)])
        for b in range(q):
            assert F.add(a, b) == number([(x + y) % p for x, y in zip(digits(a), digits(b))])
            assert F.sub(a, b) == number([(x - y) % p for x, y in zip(digits(a), digits(b))])


def test_no_cache_but_the_incidence_matrices():
    # a rank's rref listing, an incidence matrix and a boundary power live
    # for one call, so every call checks its caps and owns what it returns
    cached = [name for module in (poset, gfpla) for name, obj in vars(module).items()
              if hasattr(obj, "cache_info") and obj.__module__ == module.__name__]
    assert cached == []


@pytest.mark.parametrize("q", [10007, 1000003])
def test_large_prime_field_inverses(q):
    F = field(q)
    for a in (1, 2, 3, q // 2, q - 2, q - 1):
        assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_rref_canonicalizes():
    F = field(2)
    rows = ((1, 1, 0), (0, 1, 1))
    red = rref(rows, 3, F)
    assert red == ((1, 0, 1), (0, 1, 1))
    assert rref(red, 3, F) == red
    assert rref(((1, 1, 0), (1, 1, 0)), 3, F) == ((1, 1, 0),)


def test_gf9_supported_in_posets():
    spec = PosetSpec.projective(2, 9)
    pts = enumerate_rank(spec, 1)
    assert len(pts) == rank_size(spec, 1) == 10


def test_unsupported_prime_power_counts_but_no_arithmetic():
    # enumeration is free of field arithmetic, so q = 25 still counts and
    # lists; anything needing multiplication (boundary columns) is rejected
    spec = PosetSpec.projective(3, 25)
    assert rank_size(spec, 1) == q_int(3, 25)
    assert len(enumerate_rank(spec, 1)) == q_int(3, 25)
    with pytest.raises(ValueError):
        boundary_matrix(spec, 2, FieldSpec(3))


def test_basis_order_golden():
    # basis order is part of the contract: matrices must be reproducible
    b3 = PosetSpec.boolean(3)
    m = boundary_matrix(b3, 2, FieldSpec(5))
    assert m.entries == {
        (0, 0): 1, (1, 0): 1,
        (0, 1): 1, (2, 1): 1,
        (1, 2): 1, (2, 2): 1,
    }
    p32 = PosetSpec.projective(3, 2)
    assert enumerate_rank(p32, 2)[0] == ((0, 1, 0), (0, 0, 1))
    assert enumerate_rank(p32, 1)[0] == ((0, 0, 1),)
