import cmath
import json
import random
from math import comb, gcd

import pytest

from corpus import corpus, cyclic_entry
from inchom import chartab
from inchom.chartab import (
    CharacterTable,
    ConjClass,
    Irreducible,
    dump_table,
    load_table,
    multiplicity_series,
    partitions,
    perm_character,
    sn_table,
    validate_table,
)
from inchom.cli import data_text
from inchom.errors import DataError
from inchom.groupact import burnside_counts
from inchom.poset import PosetSpec
from inchom.qarith import gauss_binom


def test_partitions():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions(10)) == 42


def test_sn3_values():
    t = sn_table(3)
    assert [c.name for c in t.classes] == ["1,1,1", "2,1", "3"]
    by_name = {irr.name: irr.values for irr in t.irreducibles}
    assert by_name["3"] == (1, 1, 1)
    assert by_name["2,1"] == (2, 0, -1)
    assert by_name["1,1,1"] == (1, -1, 1)


def test_sn1_degenerate():
    t = sn_table(1)
    assert len(t.classes) == 1 and len(t.irreducibles) == 1
    assert t.irreducibles[0].values == (1,)


def test_sn4_degrees():
    t = sn_table(4)
    degrees = [irr.values[0] for irr in t.irreducibles]
    assert degrees == [1, 3, 2, 3, 1]
    assert sum(d * d for d in degrees) == 24


def test_sn_range_check():
    with pytest.raises(ValueError):
        sn_table(0)
    with pytest.raises(ValueError):
        sn_table(11)


@pytest.mark.parametrize("n", range(1, 9))
def test_sn_orthogonality_exact(n):
    diag = validate_table(sn_table(n))
    assert diag.passed, diag.problems


def test_validate_catches_bad_tables():
    t = sn_table(4)
    import dataclasses

    bad_sizes = dataclasses.replace(
        t, classes=tuple(
            dataclasses.replace(c, size=c.size + (1 if i == 2 else 0))
            for i, c in enumerate(t.classes)
        )
    )
    diag = validate_table(bad_sizes)
    assert not diag.passed

    dup = dataclasses.replace(t, irreducibles=t.irreducibles[:-1] + (t.irreducibles[0],))
    diag = validate_table(dup)
    assert not diag.passed
    assert any("expected 0" in p for p in diag.problems)


def test_load_table_roundtrip():
    t = sn_table(4)
    again = load_table(dump_table(t))
    assert again.order == t.order
    assert [c.cycle_type for c in again.classes] == [c.cycle_type for c in t.classes]
    assert [i.values for i in again.irreducibles] == [i.values for i in t.irreducibles]


def test_load_table_rejects_perturbed():
    doc = json.loads(dump_table(sn_table(4)))
    doc["irreducibles"][1]["values"][2] += 1
    with pytest.raises(DataError):
        load_table(json.dumps(doc))


def test_load_complex_c5_table():
    t = load_table(data_text("c5_table.json"))
    # C5 has values zeta_5^i, held exactly as (5, coeffs)
    assert t.irreducibles[1].values[1] == (5, (0, 1))
    assert t.irreducibles[2].values[4] == (5, (0, 0, 0, 1))
    assert validate_table(t).passed
    assert load_table(dump_table(t)) == t
    series = multiplicity_series(t, "chi1", 5)
    assert series.values == (0, 1, 2, 2, 1, 0)


def _cyclic_table(n: int) -> str:
    """C_n acting regularly on n points, chi_j(g^r) = zeta_n^(jr) in the exact JSON form."""
    def zeta(e):
        return 1 if e % n == 0 else {"root": n, "coeffs": [0] * (e % n) + [1]}

    return json.dumps({
        "group_order": n,
        "classes": [{"name": f"g^{r}", "size": 1, "cycle_type": [n // gcd(r, n)] * gcd(r, n)}
                    for r in range(n)],
        "irreducibles": [{"name": f"chi{j}", "values": [zeta(j * r) for r in range(n)]}
                         for j in range(n)],
    })


def _mobius(m: int) -> int:
    sign, p = 1, 2
    while m > 1:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


def _ramanujan_sum(m: int, j: int) -> int:
    """c_m(j), the sum of the j-th powers of the primitive m-th roots of unity."""
    g = gcd(m, j)
    return sum(_mobius(m // e) * e for e in range(1, g + 1) if g % e == 0)


def _cyclic_multiplicity(n: int, j: int, k: int) -> int:
    """(1/n) sum over d | n with (n/d) | k of C(d, k/(n/d)) c_{n/d}(j): chi_j in the k-subsets."""
    total = sum(comb(d, k // (n // d)) * _ramanujan_sum(n // d, j)
                for d in range(1, n + 1) if n % d == 0 and k % (n // d) == 0)
    assert total % n == 0
    return total // n


@pytest.mark.parametrize("n", [5, 30, 48, 64])
def test_exact_cyclic_tables_match_the_closed_form(n):
    # at n = 64 the sums pass 2^53, past the integers a double holds exactly
    t = load_table(_cyclic_table(n))
    series = [multiplicity_series(t, f"chi{j}", n).values for j in range(n)]
    for j in range(n):
        assert series[j] == tuple(_cyclic_multiplicity(n, j, k) for k in range(n + 1)), j
    for k in range(n + 1):
        assert sum(s[k] for s in series) == comb(n, k), k  # every degree is 1
    if n == 64:
        assert series[1][30] == 25_317_000_155_697_261
        assert series[0][32] == 28_634_752_211_620_266


def test_a_conjugation_that_is_the_identity_fails_on_c5(monkeypatch):
    # the mutant reads conj(zeta^i) as zeta^i, so <chi_1, chi_1> sums zeta^(2r) to 0
    _, _, table, _ = cyclic_entry(5)
    lift = chartab._lift
    monkeypatch.setattr(chartab, "_lift", lambda values, root, conj=False: lift(values, root))
    diag = validate_table(table)
    assert not diag.passed
    assert "<chi1,chi1> = 0/5, expected 1" in diag.problems


def _embedded(v, m: int, z: complex) -> complex:
    """The value v at zeta_m = z, in floating point, as an oracle for small values."""
    return v if type(v) is int else sum(a * z ** (i * (m // v[0])) for i, a in enumerate(v[1]))


@pytest.mark.parametrize("m", [6, 8, 9, 12, 30, 60, 105])
def test_cyclotomic_sums_are_rational_exactly_when_every_embedding_agrees(m):
    # sum |C| u conj(v) is a rational integer iff zeta_m -> zeta_m^a, a prime to m,
    # fixes it; the Galois orbit sum of a term is one such, a random row is not
    rng = random.Random(m)
    units = [a for a in range(1, m) if gcd(a, m) == 1]
    t = CharacterTable(order=1, classes=(ConjClass("c", 1),) * len(units), irreducibles=())
    roots = [d for d in range(2, m + 1) if m % d == 0]
    seen = set()
    for case in range(120):
        e, r = rng.randrange(m), rng.choice(roots)
        us = [(m, tuple([0] * (a * e % m) + [1])) for a in units]  # an orbit sum
        vs = [1] * len(units)
        if case % 2:
            us = [rng.choice([rng.randrange(-2, 3), (r, tuple(rng.randrange(-2, 3) for _ in range(r)))])
                  for _ in units]
            vs = [rng.choice([1, (r, tuple(rng.randrange(-1, 2) for _ in range(r)))]) for _ in units]
        values = [sum(_embedded(u, m, z) * _embedded(v, m, z).conjugate() for u, v in zip(us, vs))
                  for z in (cmath.exp(2j * cmath.pi * a / m) for a in units)]
        rational = max(abs(w - values[0]) for w in values) < 1e-6
        lifted = (chartab._lift(us, m), chartab._lift(vs, m, conj=True))
        if rational:
            assert chartab._inner_product(t, *lifted, m, "sum") == round(values[0].real), case
        else:
            with pytest.raises(DataError, match="not a rational integer"):
                chartab._inner_product(t, *lifted, m, "sum")
        seen.add(rational)
    assert seen == {True, False}


@pytest.mark.parametrize("value", [1.5, [0.3, 0.9], {"root": 0, "coeffs": []},
                                   {"root": 2, "coeffs": [0, 1, 0]}, {"root": 5, "coeffs": [0, 1.0]},
                                   {"root": True, "coeffs": [1]}, {"coeffs": [1]}])
def test_load_table_refuses_a_value_not_in_the_exact_form(value):
    doc = json.loads(data_text("c5_table.json"))
    doc["irreducibles"][1]["values"][1] = value
    with pytest.raises(DataError, match="root|coeffs|not read"):
        load_table(json.dumps(doc))


def test_a_sum_at_a_root_of_three_large_primes_is_decided_at_once():
    # zeta_M, M = 1009 * 1013 * 1019, is no character value of a group of order 2;
    # a reduction that always removed the top digit q - 1 would expand its
    # conjugate into about 10^6 terms
    doc = {"group_order": 2, "classes": [{"name": "e", "size": 1}, {"name": "g", "size": 1}],
           "irreducibles": [{"name": "triv", "values": [1, 1]},
                            {"name": "chi", "values": [1, {"root": 1009 * 1013 * 1019, "coeffs": [0, 1]}]}]}
    with pytest.raises(DataError, match=r"\|G\| <triv,chi> is not a rational integer"):
        load_table(json.dumps(doc))


@pytest.mark.parametrize("cycle_types, name, k, want", [
    (([1, 1, 1], [3]), "triv", 1, "is 3/2"),  # an element of order 2 as a 3-cycle
    (([2], [1, 1]), "sign", 1, "is -2/2"),  # the identity as a 2-cycle
])
def test_a_multiplicity_that_is_no_nonnegative_integer_is_refused(cycle_types, name, k, want):
    classes = tuple(ConjClass(f"c{i}", 1, tuple(ct)) for i, ct in enumerate(cycle_types))
    t = CharacterTable(order=2, classes=classes,
                       irreducibles=(Irreducible("triv", (1, 1)), Irreducible("sign", (1, -1))))
    assert validate_table(t).passed
    with pytest.raises(DataError, match=f"{name!r} at k = {k} {want}, not a nonnegative integer"):
        multiplicity_series(t, name, sum(cycle_types[0]))


def test_perm_character_examples():
    t = sn_table(4)
    assert perm_character(t, 4, 2) == (6, 2, 2, 0, 0)
    assert perm_character(t, 4, 0) == (1, 1, 1, 1, 1)
    assert perm_character(t, 4, 5) == (0, 0, 0, 0, 0)


def test_perm_character_needs_cycle_types():
    t = sn_table(3)
    import dataclasses

    stripped = dataclasses.replace(
        t, classes=tuple(dataclasses.replace(c, cycle_type=None) for c in t.classes)
    )
    with pytest.raises(DataError):
        perm_character(stripped, 3, 1)


def test_multiplicity_examples():
    t5 = sn_table(5)
    assert multiplicity_series(t5, "5", 5).values == (1, 1, 1, 1, 1, 1)
    assert multiplicity_series(t5, "4,1", 5).values == (0, 1, 1, 1, 1, 0)
    with pytest.raises(DataError):
        multiplicity_series(t5, "nope", 5)


def test_column_reconstruction():
    # summed over irreducibles, deg * multiplicity recovers the space dimension
    for n in range(2, 9):
        t = sn_table(n)
        series = {irr.name: multiplicity_series(t, irr.name, n) for irr in t.irreducibles}
        for k in range(n + 1):
            total = sum(
                irr.values[0] * series[irr.name].values[k] for irr in t.irreducibles
            )
            assert total == gauss_binom(n, k, 1), (n, k)


def test_trivial_series_equals_burnside_on_corpus():
    for name, g, table, triv, deg in corpus():
        series = multiplicity_series(table, triv, deg)
        counts = burnside_counts(g, PosetSpec.boolean(deg))
        assert series.values == counts.values, name


def test_youngs_rule_pattern():
    for n in range(2, 9):
        t = sn_table(n)
        for j in range(0, n // 2 + 1):
            label = f"{n - j},{j}" if j else str(n)
            series = multiplicity_series(t, label, n)
            for k in range(n + 1):
                expect = 1 if j <= min(k, n - k) else 0
                assert series.values[k] == expect, (n, j, k)


def test_palindromicity_of_series():
    for n in range(2, 9):
        t = sn_table(n)
        for irr in t.irreducibles:
            vals = multiplicity_series(t, irr.name, n).values
            assert vals == vals[::-1], (n, irr.name)
