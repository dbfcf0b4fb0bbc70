from inchom.chartab import multiplicity_series, sn_table
from inchom.homology import _initial_arrow
from inchom.inequal import (
    check_chain,
    check_lw,
    check_palindrome,
    deduce_bounds,
    fold,
    symbolic_chain,
)

M24_SERIES = (1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 5, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1)


def test_fold_examples():
    assert fold((1, 1, 2, 2, 1, 1), 3, 2) == 3
    c = (1, 4, 2, 7)
    for k in range(4):
        assert fold(c, 9, k) == c[k]
    assert fold(M24_SERIES, 13, 11) == 4  # N_11 + N_24


def test_fold_linear():
    a = (1, 2, 0, 3, 1, 1)
    b = (0, 1, 4, 1, 2, 0)
    ab = tuple(x + y for x, y in zip(a, b))
    for pi in (2, 3, 4, 7):
        for k in range(6):
            assert fold(ab, pi, k) == fold(a, pi, k) + fold(b, pi, k)


def test_fold_accepts_negative_k():
    assert fold((1, 2, 3, 4), 3, -1) == fold((1, 2, 3, 4), 3, 2)


def test_check_chain_m24():
    r13 = check_chain(M24_SERIES, 13)
    assert r13.passed and r13.folded == (5, 4, 4, 4, 4, 3, 3)
    r17 = check_chain(M24_SERIES, 17)
    assert r17.passed and r17.folded == (5, 3, 3, 3, 3, 3, 3, 2, 2)
    r19 = check_chain(M24_SERIES, 19)
    assert r19.passed and r19.folded == (5, 3, 3, 3, 3, 2, 2, 2, 2, 2)


def test_check_chain_small():
    r = check_chain((1, 1, 2, 1, 1), 3)
    assert r.passed and r.folded == (2, 2)
    r = check_chain((0, 2, 1, 0, 0), 3)
    assert not r.passed and r.violation_r == 1 and r.folded == (1, 2)


def test_check_lw():
    assert check_lw((1, 1, 2, 1, 1)).passed
    bad = check_lw((1, 2, 1, 2, 1))
    assert not bad.passed and bad.violation == (1, 2)


def test_check_palindrome():
    assert check_palindrome((1, 1, 2, 1, 1)).passed
    bad = check_palindrome((1, 2, 2, 1, 1))
    assert not bad.passed and bad.violation == (1,)
    assert check_palindrome(M24_SERIES).passed


def test_symbolic_chain_examples():
    assert symbolic_chain(10, 8) == [(5,), (4,), (3,), (2, 10), (1, 9)]
    assert symbolic_chain(4, 5) == [(2,), (1,), (0,)]
    assert symbolic_chain(24, 13) == [
        (12,), (11, 24), (10, 23), (9, 22), (8, 21), (7, 20), (6, 19),
    ]


def test_deduce_bounds_examples():
    rep = deduce_bounds(10, [9, 8, 7])
    assert rep.bounds[2] == 2 and rep.bounds[3] == 3
    assert rep.bounds[4] == 4 and rep.bounds[5] == 4
    assert rep.bounds == tuple(reversed(rep.bounds))

    rep = deduce_bounds(24, [13, 17, 19])
    assert rep.bounds[6] == rep.bounds[7] == 2
    assert all(rep.bounds[k] == 3 for k in range(8, 12))
    assert rep.bounds[12] == 4

    rep = deduce_bounds(6, [])
    assert rep.bounds == (1,) * 7


def test_deduce_bounds_logs_improvements():
    rep = deduce_bounds(10, [9, 8, 7])
    assert any("chain(pi=9)" in line for line in rep.log)
    assert any("chain(pi=8)" in line for line in rep.log)
    assert any("chain(pi=7)" in line for line in rep.log)


def test_deduce_bounds_monotone_in_inputs():
    base = deduce_bounds(24, [13]).bounds
    more = deduce_bounds(24, [13, 17]).bounds
    all_three = deduce_bounds(24, [13, 17, 19]).bounds
    assert all(b >= a for a, b in zip(base, more))
    assert all(b >= a for a, b in zip(more, all_three))


def test_bounds_report_invariants():
    for n, pis in ((10, [9, 8, 7]), (24, [13, 17, 19]), (7, [3]), (6, [])):
        rep = deduce_bounds(n, pis)
        assert all(v >= 1 for v in rep.bounds)
        assert rep.bounds == tuple(reversed(rep.bounds))
        middle = rep.bounds[: n // 2 + 1]
        assert all(a <= b for a, b in zip(middle, middle[1:]))


def test_bounds_sound_for_m24():
    rep = deduce_bounds(24, [13, 17, 19])
    assert all(n >= b for n, b in zip(M24_SERIES, rep.bounds))


def test_bounds_sound_on_corpus_series():
    # deduced bounds may use any primes coprime to the group order; every
    # actually computed orbit series must dominate them
    from corpus import corpus
    from inchom.groupact import burnside_counts, group_order
    from inchom.poset import PosetSpec

    for name, g, _, _, deg in corpus():
        order = group_order(g)
        pis = [p for p in (3, 5, 7, 11, 13) if order % p != 0][:3]
        if not pis:
            continue
        series = burnside_counts(g, PosetSpec.boolean(deg))
        rep = deduce_bounds(deg, pis)
        assert all(n >= b for n, b in zip(series.values, rep.bounds)), (name, pis)


def test_chain_beats_plain_lw_when_pi_exceeds_n():
    # for pi > n the fold picks single terms, so the chain is plain monotonicity
    t = sn_table(6)
    for irr in t.irreducibles:
        series = multiplicity_series(t, irr.name, 6)
        r = check_chain(series, 7)
        assert r.passed == check_lw(series).passed
        assert r.folded == tuple(series.values[3 - rr] for rr in range(4))


def test_layout_pairwise_inequalities_on_series():
    # the sequence's nonvanishing slot with even position forces [c_a] <= [c_b]
    # (odd position the reverse) whenever the characteristic does not divide
    # the group order; S_5 with p = 7 and C_5 with p = 3 qualify
    from corpus import cyclic_entry
    from inchom.homology import distinguished_slot

    cases = []
    t5 = sn_table(5)
    for irr in t5.irreducibles:
        cases.append((multiplicity_series(t5, irr.name, 5), 5, 7))
    _, _, c5_table, _ = cyclic_entry(5)
    for irr in c5_table.irreducibles:
        cases.append((multiplicity_series(c5_table, irr.name, 5), 5, 3))

    for vals, n, pi in cases:
        for i in range(1, pi):
            for j in range(n + 1):
                slot = distinguished_slot(n, pi, j, i) or (j, i)
                a, b, d = _initial_arrow(slot[0], slot[1], pi)
                fa, fb = fold(vals, pi, a), fold(vals, pi, b)
                if d % 2 == 0:
                    assert fa <= fb, (vals, j, i)
                else:
                    assert fb <= fa, (vals, j, i)
