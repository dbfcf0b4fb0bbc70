"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import functools
import time

import pytest

from corpus import corpus
from inchom import poset
from inchom.chartab import load_table, multiplicity_series, sn_table, validate_table
from inchom.cli import data_text, main
from inchom.gfpla import power_boundary
from inchom.groupact import burnside_counts, group_order, orbit_count_unionfind, parse_group
from inchom.homology import homology_dim, homology_scan
from inchom.inequal import check_chain, check_lw, deduce_bounds, fold, symbolic_chain
from inchom.poset import PosetSpec
from inchom.qarith import FieldSpec, q_factorial, quantum_char

from test_qarith import PI_TABLE, PI_TABLE_QS

M24_EXPECTED_HALF = (1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 5)

_m24_series_cache = {}


def _report(num, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def m24_full_series():
    """Orbit counts for k = 0..12 by union-find, extended to n = 24 by symmetry."""
    if "series" not in _m24_series_cache:
        g = parse_group(data_text("m24.json"))
        assert group_order(g) == 244823040
        spec = PosetSpec.boolean(24)
        half = tuple(orbit_count_unionfind(g, spec, k) for k in range(13))
        _m24_series_cache["series"] = half + tuple(reversed(half[:-1]))
        _m24_series_cache["half"] = half
    return _m24_series_cache["series"]


def test_criterion_01_pitable():
    import contextlib
    import io
    import json

    buf = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(["pitable", "--json"])
    elapsed = time.perf_counter() - started
    assert code == 0
    doc = json.loads(buf.getvalue())
    cells = doc["results"]["cells"]
    assert doc["results"]["primes"] == sorted(PI_TABLE)
    assert tuple(doc["results"]["qs"]) == PI_TABLE_QS
    for p, row in zip(sorted(PI_TABLE), cells):
        assert tuple(row) == PI_TABLE[p], p
    _report(1, elapsed < 1.0, f"all 8x13 cells incl. dashes match, {elapsed:.2f}s")


def test_criterion_02_m24_orbit_numbers():
    g = parse_group(data_text("m24.json"))
    order = group_order(g)
    assert order == 244823040
    spec = PosetSpec.boolean(24)
    started = time.perf_counter()
    n12 = orbit_count_unionfind(g, spec, 12)
    k12_time = time.perf_counter() - started
    assert n12 == 5
    series = m24_full_series()
    half = _m24_series_cache["half"]
    assert half == M24_EXPECTED_HALF
    assert series[:13] == M24_EXPECTED_HALF
    _report(2, k12_time < 60.0, f"N_0..N_12 = {half}, k=12 in {k12_time:.1f}s")


def test_criterion_03_m24_chains():
    series = m24_full_series()
    results = {pi: check_chain(series, pi) for pi in (13, 17, 19)}
    ok = all(r.passed for r in results.values())
    assert results[13].folded == (5, 4, 4, 4, 4, 3, 3)
    assert results[19].folded == (5, 3, 3, 3, 3, 2, 2, 2, 2, 2)
    # pi = 17 instantiation of the published row
    # N_8 >= N_7+N_0 >= N_6+N_1 >= N_5+N_2 >= N_4+N_3 >= 2N_3
    r17 = results[17]
    assert r17.folded == (5, 3, 3, 3, 3, 3, 3, 2, 2)
    row = tuple(fold(series, 17, k) for k in (8, 7, 6, 5, 4))
    assert row == (3, 3, 3, 2, 2)
    assert row == (
        series[8],
        series[7] + series[0],
        series[6] + series[1],
        series[5] + series[2],
        series[4] + series[3],
    )
    assert row[-1] >= 2 * series[3] == 2
    _report(3, ok, f"chains pass for pi=13,17,19; pi=17 row {row} >= {2 * series[3]}")


def test_criterion_04_bound_deduction():
    started = time.perf_counter()
    ten = deduce_bounds(10, [9, 8, 7])
    t_ten = time.perf_counter() - started
    assert ten.bounds[2] == 2 and ten.bounds[3] == 3 and ten.bounds[4] == 4

    started = time.perf_counter()
    twenty_four = deduce_bounds(24, [13, 17, 19])
    t_tf = time.perf_counter() - started
    assert twenty_four.bounds[6] == twenty_four.bounds[7] == 2
    assert all(twenty_four.bounds[k] == 3 for k in range(8, 12))
    assert twenty_four.bounds[12] == 4
    _report(4, t_ten < 1.0 and t_tf < 1.0,
            f"L(10;9,8,7) and L(24;13,17,19) exact, {t_ten + t_tf:.2f}s")


def test_criterion_05_vanishing_windows():
    started = time.perf_counter()
    checked = 0
    for n in range(4, 13):
        for p in (2, 3, 5, 7):
            rep = homology_scan(PosetSpec.boolean(n), FieldSpec(p))
            assert rep.passed, ("boolean", n, p)
            checked += len(rep.records)
    for q in (2, 3):
        for n in range(1, 6):
            for p in (2, 3, 5, 7):
                if q % p == 0:
                    continue
                rep = homology_scan(PosetSpec.projective(n, q), FieldSpec(p))
                assert rep.passed, ("projective", n, q, p)
                checked += len(rep.records)
    # anchor value
    assert homology_dim(PosetSpec.boolean(4), FieldSpec(3), 2, 1) == 1
    elapsed = time.perf_counter() - started
    _report(5, elapsed < 300.0, f"{checked} (j,i) records across the grid, {elapsed:.0f}s")


def test_criterion_06_operator_identities(monkeypatch):
    started = time.perf_counter()
    # the library builds every matrix anew; this test rebuilds the same
    # incidence matrices many times, so it keeps them for its own run, and
    # the boundary factors of power_boundary come from the same memo
    incidence = functools.cache(poset.incidence_matrix)
    monkeypatch.setattr(poset, "incidence_matrix", incidence)
    configs = [(PosetSpec.boolean(n), p) for n in range(4, 13) for p in (2, 3, 5, 7)]
    configs += [
        (PosetSpec.projective(n, q), p)
        for q in (2, 3)
        for n in range(1, 6)
        for p in (2, 3, 5, 7)
        if q % p != 0
    ]
    identities = 0
    for spec, p in configs:
        field = FieldSpec(p)
        pi = quantum_char(p, spec.q)
        for k in range(spec.n + 1):
            assert power_boundary(spec, k, pi, field).is_zero(), (spec.describe(), p, k)
            for i in range(1, min(k, pi - 1) + 1):
                got = power_boundary(spec, k, i, field)
                want = (
                    incidence(spec, k, i)
                    .reduce_mod(p)
                    .scale(q_factorial(i, spec.q))
                )
                assert got == want, (spec.describe(), p, k, i)
                identities += 1
    elapsed = time.perf_counter() - started
    _report(6, True, f"nilpotency + {identities} factorial identities, {elapsed:.0f}s")


def test_criterion_07_burnside_equals_unionfind():
    groups = corpus()
    assert len(groups) >= 10
    kinds = {name.rstrip("0123456789") for name, *_ in groups}
    assert {"C", "D", "S", "A"} <= {k[:1] for k in kinds}
    assert any(deg == 10 for *_, deg in groups)  # transitive degree-10 member
    for name, g, _, _, deg in groups:
        assert group_order(g) <= 10**5
        spec = PosetSpec.boolean(deg)
        series = burnside_counts(g, spec)
        for k in range(deg + 1):
            assert series.values[k] == orbit_count_unionfind(g, spec, k), (name, k)
    _report(7, True, f"{len(groups)} groups, all ranks agree")


def test_criterion_08_character_pipeline():
    for n in range(1, 9):
        diag = validate_table(sn_table(n))
        assert diag.passed, (n, diag.problems)
    for name, g, table, triv, deg in corpus():
        series = multiplicity_series(table, triv, deg)
        assert series.values == burnside_counts(g, PosetSpec.boolean(deg)).values, name
    for n in range(2, 9):
        t = sn_table(n)
        for j in range(0, n // 2 + 1):
            label = f"{n - j},{j}" if j else str(n)
            series = multiplicity_series(t, label, n)
            want = tuple(1 if j <= min(k, n - k) else 0 for k in range(n + 1))
            assert series.values == want, (n, j)
        for irr in t.irreducibles:
            assert check_lw(multiplicity_series(t, irr.name, n)).passed, (n, irr.name)
    _report(8, True, "orthogonality, Burnside match, Young pattern, monotonicity")


def test_criterion_09_c5_folded_chain():
    table = load_table(data_text("c5_table.json"))
    series = multiplicity_series(table, "chi1", 5)
    assert series.values == (0, 1, 2, 2, 1, 0)
    pi = quantum_char(3, 1)
    assert pi == 3
    result = check_chain(series, pi)
    assert result.folded == (2, 2) and result.passed
    _report(9, True, "[c_2]_3 = 2 >= [c_1]_3 = 2 >= 0")


def test_criterion_10_symbolic_chain():
    chain = symbolic_chain(10, 8)
    assert chain == [(5,), (4,), (3,), (2, 10), (1, 9)]
    _report(10, True, "P(10,2) pi=8 chain {5},{4},{3},{2,10},{1,9}")
