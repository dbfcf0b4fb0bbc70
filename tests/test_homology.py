import sys

import pytest

from inchom import qarith
from inchom.errors import ResourceLimitError
from inchom.homology import (
    MAX_SCAN_RECORDS,
    _index_window,
    _initial_arrow,
    distinguished_slot,
    homology_dim,
    homology_scan,
    sequence_layout,
    trace_check,
    vanishing_window,
)
from inchom.poset import PosetSpec, rank_size
from inchom.qarith import FieldSpec, quantum_char


def test_sequence_layout_examples():
    lay = sequence_layout(2, 1, 3, 4)
    assert lay.arrow == (-1, 1) and lay.d == 1
    lay = sequence_layout(3, 2, 7, 5)
    assert lay.arrow == (1, 3) and lay.d == 0
    lay = sequence_layout(2, 1, 2, 4)
    assert lay.arrow == (0, 1) and lay.d == 1


def test_sequence_layout_invariants():
    for pi in (2, 3, 5, 7, 8):
        for i in range(1, pi):
            for j in range(0, 12):
                lay = sequence_layout(j, i, pi, 10)
                a, b = lay.arrow
                assert 0 <= a + b < pi
                assert b - a in (i, pi - i)
                assert lay.d >= 0
                assert j in lay.indices and a in lay.indices and b in lay.indices
                gaps = {y - x for x, y in zip(lay.indices, lay.indices[1:])}
                assert gaps <= {i, pi - i}


def _index_window_by_set(j, i, pi):
    """The window as a set of both index classes, sorted afterwards."""
    lo = min(j, -2 * pi) - 2 * pi
    hi = max(j, 2 * pi) + 2 * pi
    idx = set()
    t = (lo - j) // pi
    while j + t * pi <= hi:
        for v in (j + t * pi, j - i + t * pi):
            if lo <= v <= hi:
                idx.add(v)
        t += 1
    return sorted(idx)


def test_index_window_matches_set_construction():
    for pi in range(2, 40):
        for i in range(1, pi):
            for j in range(-3 * pi, 3 * pi):
                assert _index_window(j, i, pi) == _index_window_by_set(j, i, pi), (j, i, pi)


def _initial_arrow_by_scan(j, i, pi):
    """(a, b, d) found by scanning every consecutive pair of the index window."""
    idx = _index_window(j, i, pi)
    initial = [(x, y) for x, y in zip(idx, idx[1:]) if 0 <= x + y < pi]
    assert len(initial) == 1, (j, i, pi, initial)
    a, b = initial[0]
    return a, b, abs(idx.index(j) - idx.index(b))


def test_initial_arrow_matches_window_scan():
    # slots reach below 0 and above n, so j runs past both ends
    for pi in range(2, 40):
        for i in range(1, pi):
            for j in range(-3 * pi, 5 * pi + 21):
                assert _initial_arrow(j, i, pi) == _initial_arrow_by_scan(j, i, pi), (j, i, pi)


def test_sequence_layout_rejects_bad_i():
    with pytest.raises(ValueError):
        sequence_layout(2, 0, 3, 4)
    with pytest.raises(ValueError):
        sequence_layout(2, 3, 3, 4)


def test_vanishing_window():
    assert vanishing_window(10, 8, 5, 1)
    assert not vanishing_window(5, 2, 2, 1)
    assert vanishing_window(4, 3, 2, 1)


def test_distinguished_slot():
    # the slot shares the sequence (2j - i mod pi fixed), lands in the window
    assert distinguished_slot(8, 3, 2, 1) == (4, 2)
    assert distinguished_slot(8, 3, 4, 2) == (4, 2)
    assert distinguished_slot(8, 3, 5, 1) == (4, 2)
    assert distinguished_slot(4, 3, 2, 1) == (2, 1)
    # fully exact sequence: 2j - i congruent to n mod pi leaves the window empty
    assert distinguished_slot(6, 3, 2, 1) is None


def _distinguished_slot_by_search(n, pi, j, i):
    """The slot found by trying every s near the window, the reference for the closed form."""
    target = 2 * j - i
    for s in range((n - pi + 1 - target) // pi - 1, (n - target) // pi + 2):
        if n - pi < target + s * pi < n:
            if s % 2 == 0:
                return (j + (s // 2) * pi, i)
            return (j - i + ((s + 1) // 2) * pi, pi - i)
    return None


def test_distinguished_slot_matches_search():
    for pi in range(2, 14):
        for n in range(30):
            for j in range(-15, 45):
                for i in range(1, pi):
                    want = _distinguished_slot_by_search(n, pi, j, i)
                    assert distinguished_slot(n, pi, j, i) == want, (n, pi, j, i)


def test_homology_dim_examples():
    assert homology_dim(PosetSpec.boolean(4), FieldSpec(3), 2, 1) == 1
    assert homology_dim(PosetSpec.boolean(6), FieldSpec(2), 3, 1) == 0
    assert homology_dim(PosetSpec.boolean(5), FieldSpec(2), 2, 1) == 0


def test_homology_dim_exhaustive_oracle():
    # enumerate the whole space GF(3)^6: count kernel vectors of the single
    # boundary step and image vectors of the double step, independently of
    # any rank computation
    from itertools import product

    from inchom.gfpla import power_boundary
    from inchom.poset import boundary_matrix

    spec, f = PosetSpec.boolean(4), FieldSpec(3)
    single = boundary_matrix(spec, 2, f).to_dense()
    double = power_boundary(spec, 4, 2, f).to_dense()

    kernel = sum(
        1
        for v in product(range(3), repeat=6)
        if all(sum(single[r][c] * v[c] for c in range(6)) % 3 == 0 for r in range(4))
    )
    image = {
        tuple(sum(double[r][c] * w[c] for c in range(1)) % 3 for r in range(6))
        for w in product(range(3), repeat=1)
    }
    ker_dim = 0
    while 3**ker_dim < kernel:
        ker_dim += 1
    im_dim = 0
    while 3**im_dim < len(image):
        im_dim += 1
    assert 3**ker_dim == kernel and 3**im_dim == len(image)
    assert homology_dim(spec, f, 2, 1) == ker_dim - im_dim == 1


def test_homology_dim_validates_args():
    with pytest.raises(ValueError):
        homology_dim(PosetSpec.boolean(4), FieldSpec(3), 2, 3)
    with pytest.raises(ValueError):
        homology_dim(PosetSpec.boolean(4), FieldSpec(3), 5, 1)


def test_trace_check_examples():
    tc = trace_check(PosetSpec.boolean(4), FieldSpec(3), 2, 1)
    assert (tc.lhs, tc.rhs, tc.passed) == (1, 1, True)
    # rhs here is -(C(4,1) + C(4,4) - C(4,2)) = -(5 - 6)
    tc = trace_check(PosetSpec.boolean(6), FieldSpec(2), 3, 1)
    assert (tc.lhs, tc.rhs, tc.passed) == (0, 0, True)


def test_trace_check_slot_localization():
    # the sequence through (2, 1) at n=8, pi=3 carries its homology at (4, 2)
    spec, f = PosetSpec.boolean(8), FieldSpec(3)
    tc = trace_check(spec, f, 2, 1)
    assert tc.slot == (4, 2) and tc.passed and tc.rhs >= 0
    assert homology_dim(spec, f, 2, 1) == 0
    assert homology_dim(spec, f, 4, 2) == tc.lhs == 1


def test_scan_boolean_8_p3():
    rep = homology_scan(PosetSpec.boolean(8), FieldSpec(3))
    assert rep.passed
    nonzero = [(r.j, r.i) for r in rep.records if r.dim]
    assert nonzero and all(5 < 2 * j - i < 8 for j, i in nonzero)


def test_scan_boolean_4_p5():
    # pi = 5 > n: the window -1 < 2j - i < 4 still admits slots; dims must
    # match the folded sums, which the trace identity asserts per record
    rep = homology_scan(PosetSpec.boolean(4), FieldSpec(5))
    assert rep.passed
    for r in rep.records:
        if not r.in_window:
            assert r.dim == 0
        assert r.lhs == r.rhs


def test_scan_projective():
    rep = homology_scan(PosetSpec.projective(4, 3), FieldSpec(2))
    assert rep.passed and rep.pi == 2
    rep = homology_scan(PosetSpec.projective(3, 2), FieldSpec(3))
    assert rep.passed and rep.pi == quantum_char(3, 2)


def test_scan_report_shape():
    rep = homology_scan(PosetSpec.boolean(5), FieldSpec(3))
    doc = rep.to_dict()
    assert doc["poset"] == "boolean:5" and doc["p"] == 3 and doc["pi"] == 3
    assert doc["passed"] is True
    assert len(doc["records"]) == (rep.pi - 1) * 6
    for rec in doc["records"]:
        assert set(rec) == {"j", "i", "dim", "in_window", "lhs", "rhs", "passed"}


def test_trace_rhs_reduces_to_rank_difference_for_large_pi():
    # pi > n: each fold picks at most one in-range term, so the signed rhs is
    # a plain rank-size difference and must be nonnegative
    spec, f = PosetSpec.boolean(4), FieldSpec(7)
    pi = quantum_char(7, 1)
    assert pi > spec.n
    for j in range(spec.n + 1):
        for i in range(1, pi):
            tc = trace_check(spec, f, j, i)
            assert tc.rhs >= 0
            a, b = tc.layout.arrow
            sizes = sorted(
                (
                    sum(rank_size(spec, v) for v in range(b % pi, spec.n + 1, pi)),
                    sum(rank_size(spec, v) for v in range(a % pi, spec.n + 1, pi)),
                )
            )
            assert tc.rhs == sizes[1] - sizes[0]


def test_scan_builds_no_matrix(monkeypatch):
    # dimensions come from the closed-form ranks only; elimination, products
    # and incidence builds stay available to tests as the oracle.  The rank
    # kernels are patched too, so a module that bound `rank` at import
    # cannot slip past the guard.
    from inchom import gfpla, poset

    def forbidden(*args, **kwargs):
        raise AssertionError("homology reached the elimination route")

    for name in ("rank", "_rank_gf2", "_rank_modp", "matmul"):
        monkeypatch.setattr(gfpla, name, forbidden)
    monkeypatch.setattr(poset, "incidence_matrix", forbidden)
    assert homology_scan(PosetSpec.boolean(10), FieldSpec(7)).passed


def test_scan_far_past_matrix_scale():
    # the middle rank has C(40, 20) ~ 1.4e11 elements; the trace identity is
    # the independent oracle of every record
    rep = homology_scan(PosetSpec.boolean(40), FieldSpec(7))
    assert rep.passed and len(rep.records) == 41 * 6
    assert any(r.dim for r in rep.records)


def test_scan_at_large_n():
    rep = homology_scan(PosetSpec.boolean(200), FieldSpec(13))
    assert rep.passed and len(rep.records) == 201 * 12
    assert any(r.dim for r in rep.records)


def test_scan_records_match_single_cells():
    # each cell query builds its own table, so this also checks that the
    # scan's shared memos change no record
    cases = [(PosetSpec.boolean(n), p) for n in range(1, 11) for p in (2, 3, 5, 7, 13)]
    cases += [(PosetSpec.projective(4, 2), p) for p in (3, 5, 7)]
    cases += [(PosetSpec.projective(3, 3), p) for p in (2, 5, 13)]
    for spec, p in cases:
        f = FieldSpec(p)
        rep = homology_scan(spec, f)
        assert len(rep.records) == (spec.n + 1) * (rep.pi - 1)
        for r in rep.records:
            tc = trace_check(spec, f, r.j, r.i)
            assert r.dim == homology_dim(spec, f, r.j, r.i), (spec, p, r)
            assert (r.lhs, r.rhs) == (tc.lhs, tc.rhs), (spec, p, r)
            assert r.passed == (tc.passed and (r.in_window or r.dim == 0))


def test_scan_computes_no_full_binomials(monkeypatch):
    # rank sizes come from one cached row and divisibility from q-Lucas, so
    # a scan of 9,072 records needs (almost) no Gaussian binomial
    calls = []
    real = qarith.gauss_binom

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("inchom") and getattr(module, "gauss_binom", None) is real:
            monkeypatch.setattr(module, "gauss_binom", counting)
    rep = homology_scan(PosetSpec.boolean(8), FieldSpec(1009))
    assert rep.passed and len(rep.records) == 9 * 1008
    assert len(calls) <= 100


def test_scan_record_bound():
    # 7 * 10006 records pass; the bound is checked before any record is made
    rep = homology_scan(PosetSpec.boolean(6), FieldSpec(10007))
    assert rep.passed and len(rep.records) == 70_042
    with pytest.raises(ResourceLimitError, match=f"7000014 records, over the bound {MAX_SCAN_RECORDS}"):
        homology_scan(PosetSpec.boolean(6), FieldSpec(1_000_003))
