from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inchom import poset
from inchom.errors import ResourceLimitError
from inchom.gfpla import SparseMat, matmul, nullity, power_boundary, rank
from inchom.poset import PosetSpec, boundary_matrix, incidence_matrix
from inchom.qarith import FieldSpec


def span_rank(m: SparseMat) -> int:
    """Independent oracle: rank as log_p of the row-span size (tiny matrices only)."""
    p = m.p
    rows = [tuple(m.entry(r, c) for c in range(m.cols)) for r in range(m.rows)]
    span = {tuple([0] * m.cols)}
    for row in rows:
        additions = set()
        for v in span:
            for c in range(1, p):
                additions.add(tuple((a + c * b) % p for a, b in zip(v, row)))
        span |= additions
    size = len(span)
    k = 0
    while p**k < size:
        k += 1
    assert p**k == size
    return k


def test_sparsemat_invariants():
    m = SparseMat(2, 3, {(0, 1): 1, (1, 2): 2}, 3)
    assert m.nnz == 2 and m.entry(0, 1) == 1 and m.entry(0, 0) == 0
    with pytest.raises(ValueError):
        SparseMat(2, 2, {(0, 0): 0}, 3)
    with pytest.raises(ValueError):
        SparseMat(2, 2, {(0, 5): 1}, 3)
    with pytest.raises(ValueError):
        SparseMat(2, 2, {(0, 0): 3}, 3)
    with pytest.raises(AttributeError):
        m.rows = 5


def test_reduce_scale_transpose():
    m = SparseMat(2, 2, {(0, 0): 3, (1, 1): 2}, 0)
    r = m.reduce_mod(3)
    assert r.entries == {(1, 1): 2}
    assert m.scale(2).entries == {(0, 0): 6, (1, 1): 4}
    assert r.scale(2).entries == {(1, 1): 1}
    assert m.transpose().entries == {(0, 0): 3, (1, 1): 2}
    t = SparseMat(2, 3, {(0, 2): 1}, 5).transpose()
    assert (t.rows, t.cols) == (3, 2) and t.entries == {(2, 0): 1}


def test_rank_examples():
    b4 = PosetSpec.boolean(4)
    m = boundary_matrix(b4, 2, FieldSpec(2))
    assert rank(m) == 3
    assert rank(SparseMat.identity(5, 7)) == 5
    assert rank(SparseMat.zero(4, 6, 5)) == 0
    assert rank(SparseMat.zero(0, 6, 5)) == 0


def test_rank_against_span_oracle():
    b4 = PosetSpec.boolean(4)
    for p in (2, 3, 5):
        for k in (1, 2, 3, 4):
            m = boundary_matrix(b4, k, FieldSpec(p))
            assert rank(m) == span_rank(m), (p, k)
    fano = boundary_matrix(PosetSpec.projective(3, 2), 2, FieldSpec(3))
    assert rank(fano) == span_rank(fano)


def test_rank_transpose_invariant():
    for p in (2, 3, 7):
        for k in (2, 3):
            m = boundary_matrix(PosetSpec.boolean(6), k, FieldSpec(p))
            assert rank(m) == rank(m.transpose())
            assert rank(m) <= min(m.rows, m.cols)


def test_rank_full_rational_when_p_large():
    # over GF(p) with p > n the inclusion operator has full rational rank
    from inchom.qarith import gauss_binom

    for n in range(2, 11):
        p = next(v for v in (11, 13) if v > n)
        spec = PosetSpec.boolean(n)
        for k in range(1, n + 1):
            m = boundary_matrix(spec, k, FieldSpec(p))
            assert rank(m) == min(gauss_binom(n, k, 1), gauss_binom(n, k - 1, 1))


def test_matmul_identity_and_mismatch():
    m = boundary_matrix(PosetSpec.boolean(4), 2, FieldSpec(5))
    assert matmul(m, SparseMat.identity(m.cols, 5)) == m
    assert matmul(SparseMat.identity(m.rows, 5), m) == m
    with pytest.raises(ValueError):
        matmul(m, m)
    with pytest.raises(ValueError):
        matmul(m, SparseMat.identity(m.cols, 7))


def test_boundary_squares():
    b4 = PosetSpec.boolean(4)
    f2, f3 = FieldSpec(2), FieldSpec(3)
    for k in (2, 3, 4):
        prod = matmul(boundary_matrix(b4, k - 1, f2), boundary_matrix(b4, k, f2))
        assert prod.is_zero()
    for k in (2, 3, 4):
        prod = matmul(boundary_matrix(b4, k - 1, f3), boundary_matrix(b4, k, f3))
        want = incidence_matrix(b4, k, 2).reduce_mod(3).scale(2)
        assert prod == want


def test_matmul_against_dense_oracle():
    a = boundary_matrix(PosetSpec.boolean(5), 2, FieldSpec(7))
    b = boundary_matrix(PosetSpec.boolean(5), 3, FieldSpec(7))
    got = matmul(a, b).to_dense()
    want = (a.to_dense() @ b.to_dense()) % 7
    assert (got == want).all()


def test_power_boundary_examples():
    b4 = PosetSpec.boolean(4)
    f3 = FieldSpec(3)
    pb = power_boundary(b4, 4, 2, f3)
    assert (pb.rows, pb.cols) == (6, 1)
    assert sorted(pb.entries.values()) == [2] * 6

    b5 = PosetSpec.boolean(5)
    got = power_boundary(b5, 2, 2, FieldSpec(5))
    want = incidence_matrix(b5, 2, 2).reduce_mod(5).scale(2)
    assert got == want


def test_power_boundary_nilpotent_at_pi():
    from inchom.qarith import quantum_char

    cases = [
        (PosetSpec.boolean(5), 2),
        (PosetSpec.boolean(6), 3),
        (PosetSpec.projective(4, 2), 3),
        (PosetSpec.projective(3, 3), 2),
    ]
    for spec, p in cases:
        pi = quantum_char(p, spec.q)
        for k in range(spec.n + 1):
            assert power_boundary(spec, k, pi, FieldSpec(p)).is_zero(), (spec, p, k)


def test_power_boundary_empty_edges():
    b4 = PosetSpec.boolean(4)
    f3 = FieldSpec(3)
    out = power_boundary(b4, 1, 2, f3)
    assert (out.rows, out.cols) == (0, 4) and out.is_zero()
    out = power_boundary(b4, 0, 1, f3)
    assert (out.rows, out.cols) == (0, 1)
    with pytest.raises(ValueError):
        power_boundary(b4, 2, 0, f3)


def test_power_boundary_cap_applies_after_a_warm_call(monkeypatch):
    # boolean:6 rank 2 has 15 elements and rank 4 as many; every factor is
    # built, and its caps checked, on every call
    spec, f3 = PosetSpec.boolean(6), FieldSpec(3)
    warm = power_boundary(spec, 4, 2, f3)
    assert (warm.rows, warm.cols) == (15, 15)
    monkeypatch.setattr(poset, "DEFAULT_RANK_CAP", 5)
    with pytest.raises(ResourceLimitError):
        power_boundary(spec, 4, 2, f3)


def test_nullity():
    m = boundary_matrix(PosetSpec.boolean(4), 2, FieldSpec(2))
    assert nullity(m) == m.cols - 3


def test_rank_modp_random_cross_check():
    # compare the elimination paths on a fixed pseudo-random matrix
    entries = {}
    state = 12345
    for r, c in product(range(9), range(11)):
        state = (1103515245 * state + 12345) % (1 << 31)
        v = state % 5
        if v:
            entries[(r, c)] = v
    m = SparseMat(9, 11, entries, 5)
    assert rank(m) == span_rank(m) == rank(m.transpose())


def elimination_rank(rows, p):
    """Independent oracle: Gaussian elimination mod p on Python integers."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# primes on both sides of the int32 and int64 kernel limits, up to 2^61 - 1
RANK_PRIMES = [3, 7, 1009, 46337, 2**31 - 1, 4294967291, 2**61 - 1]


@st.composite
def low_rank_matrices(draw):
    """Products B C of random factors over GF(p), so the rank is often below full."""
    p = draw(st.sampled_from(RANK_PRIMES))
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    r = draw(st.integers(0, min(m, n)))
    entry = st.integers(0, p - 1)
    b = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=m, max_size=m))
    c = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    return p, [[sum(b[i][t] * c[t][j] for t in range(r)) % p for j in range(n)] for i in range(m)]


@settings(max_examples=200, deadline=None)
@given(low_rank_matrices())
def test_rank_modp_matches_elimination_oracle(case):
    p, dense = case
    entries = {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}
    m = SparseMat(len(dense), len(dense[0]), entries, p)
    assert rank(m) == elimination_rank(dense, p)
