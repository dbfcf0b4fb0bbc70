import json
from fractions import Fraction
from math import comb, cos, gcd, pi, sin

import pytest

from corpus import corpus
from inchom.chartab import (
    dump_table,
    load_table,
    multiplicity_series,
    partitions,
    perm_character,
    sn_table,
    validate_table,
)
from inchom.cli import data_text
from inchom.errors import DataError, ResourceLimitError
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
    # C5 has complex character values, so the table is not exact
    assert not all(isinstance(v, (int, Fraction)) for irr in t.irreducibles for v in irr.values)
    assert validate_table(t).passed
    series = multiplicity_series(t, "chi1", 5)
    assert series.values == (0, 1, 2, 2, 1, 0)


def _cyclic_float_table(n: int) -> str:
    """C_n acting regularly on n points, chi_j(g^r) as the float pair of exp(2 pi i jr/n)."""
    return json.dumps({
        "group_order": n,
        "classes": [{"name": f"g^{r}", "size": 1, "cycle_type": [n // gcd(r, n)] * gcd(r, n)}
                    for r in range(n)],
        "irreducibles": [{"name": f"chi{j}", "values": [[cos(2 * pi * j * r / n), sin(2 * pi * j * r / n)]
                                                        for r in range(n)]} for j in range(n)],
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


@pytest.mark.parametrize("n", [5, 30, 48])
def test_float_cyclic_tables_match_the_closed_form(n):
    # the float error of every sum stays under |G|/4, so each multiplicity is exact
    t = load_table(_cyclic_float_table(n))
    for j in range(n):
        want = tuple(_cyclic_multiplicity(n, j, k) for k in range(n + 1))
        assert multiplicity_series(t, f"chi{j}", n).values == want, j


def test_float_table_too_large_for_doubles_is_refused():
    # at n = 64 the sums pass 2^53, where a float cannot show a wrong integer:
    # chi1 at k = 30 came out 3 too large with status pass
    t = load_table(_cyclic_float_table(64))
    for name in ("chi0", "chi1", "chi63"):
        with pytest.raises(ResourceLimitError, match="not below"):
            multiplicity_series(t, name, 64)


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
