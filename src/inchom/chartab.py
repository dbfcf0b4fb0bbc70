"""Character tables, permutation characters and multiplicity series.

Symmetric-group tables are generated exactly with the Murnaghan-Nakayama
rule (via beta-sets); tables of other groups are ingested from JSON and
validated against the orthogonality relations.  Multiplicities are computed
over the complex numbers, which match the characteristic-p values whenever
p does not divide the group order.  Permutation characters of k-subset
actions come from `fix_count_subsets`, which Burnside counting shares.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DataError, InternalConsistencyError

FLOAT_TOL = 1e-8
MULT_TOL = 1e-6


@dataclass(frozen=True)
class ConjClass:
    name: str
    size: int
    cycle_type: tuple | None = None


@dataclass(frozen=True)
class Irreducible:
    name: str
    values: tuple


@dataclass(frozen=True)
class CharacterTable:
    order: int
    classes: tuple
    irreducibles: tuple

    def irreducible(self, name: str) -> Irreducible:
        for irr in self.irreducibles:
            if irr.name == name:
                return irr
        raise DataError(f"no irreducible named {name!r}; have "
                        + ", ".join(i.name for i in self.irreducibles))


@dataclass(frozen=True)
class Series:
    """Multiplicities c_0..c_n of one irreducible in the rank-set representations."""

    n: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.n + 1:
            raise InternalConsistencyError("series has wrong length")
        if any((not isinstance(v, int)) or v < 0 for v in self.values):
            raise InternalConsistencyError("series values must be nonnegative integers")


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple:
    """Partitions of n as descending tuples, in descending lexicographic order."""

    def gen(total, largest):
        if total == 0:
            yield ()
            return
        for first in range(min(total, largest), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def partition_label(p) -> str:
    return ",".join(str(v) for v in p) if p else "-"


def _class_size(ct, n: int) -> int:
    z = 1
    mult: dict[int, int] = {}
    for c in ct:
        mult[c] = mult.get(c, 0) + 1
    for length, m in mult.items():
        z *= length**m * factorial(m)
    return factorial(n) // z


@lru_cache(maxsize=None)
def _mn_value(lam: tuple, mu: tuple) -> int:
    """Murnaghan-Nakayama recursion over beta-sets.

    Removing a border strip of length l from lam corresponds to replacing a
    beta number b by b - l when b - l is not already a beta number; the sign
    is (-1)^(number of beta numbers strictly between them).
    """
    if not mu:
        return 1
    ell, rest = mu[0], mu[1:]
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    bset = set(beta)
    total = 0
    for b in beta:
        if b < ell or (b - ell) in bset:
            continue
        height = sum(1 for x in beta if b - ell < x < b)
        newbeta = sorted([x for x in beta if x != b] + [b - ell], reverse=True)
        newlam = tuple(
            v
            for v in (newbeta[i] - (m - 1 - i) for i in range(m))
            if v > 0
        )
        total += (-1) ** height * _mn_value(newlam, rest)
    return total


@lru_cache(maxsize=None)
def sn_table(n: int) -> CharacterTable:
    """Exact character table of the symmetric group on n points, 1 <= n <= 10.

    Classes are cycle types in ascending order (identity first); irreducibles
    are labeled by partitions in descending order.
    """
    if not (1 <= n <= 10):
        raise ValueError(f"sn_table supports 1 <= n <= 10, got {n}")
    parts = partitions(n)
    class_parts = tuple(reversed(parts))
    classes = tuple(
        ConjClass(name=partition_label(ct), size=_class_size(ct, n), cycle_type=ct)
        for ct in class_parts
    )
    irreducibles = tuple(
        Irreducible(
            name=partition_label(lam),
            values=tuple(_mn_value(lam, ct) for ct in class_parts),
        )
        for lam in parts
    )
    table = CharacterTable(order=factorial(n), classes=classes, irreducibles=irreducibles)
    diag = validate_table(table)
    if not diag.passed:
        raise InternalConsistencyError(
            "generated symmetric group table failed validation: " + "; ".join(diag.problems)
        )
    return table


@dataclass(frozen=True)
class TableDiagnostics:
    passed: bool
    problems: tuple


def _inner_product(t: CharacterTable, u: Irreducible, v: Irreducible):
    total = 0
    for cls, a, b in zip(t.classes, u.values, v.values):
        b_conj = b.conjugate() if isinstance(b, complex) else b
        total += cls.size * a * b_conj
    if isinstance(total, complex):
        return total / t.order
    return Fraction(total, t.order)


def validate_table(t: CharacterTable) -> TableDiagnostics:
    """Check class sizes, degrees and orthonormality of the rows.

    Exact tables are checked exactly; float tables within FLOAT_TOL.  The
    first class must be the identity class (size 1).
    """
    problems = []
    if sum(c.size for c in t.classes) != t.order:
        problems.append(
            f"class sizes sum to {sum(c.size for c in t.classes)}, not |G| = {t.order}"
        )
    if not t.classes or t.classes[0].size != 1:
        problems.append("first class must be the identity class of size 1")
    else:
        deg_sq = 0
        for irr in t.irreducibles:
            d = irr.values[0]
            if isinstance(d, complex):
                if abs(d.imag) > FLOAT_TOL or abs(d.real - round(d.real)) > FLOAT_TOL:
                    problems.append(f"degree of {irr.name} is not a positive integer: {d}")
                    continue
                d = round(d.real)
            if d < 1:
                problems.append(f"degree of {irr.name} is not positive: {d}")
                continue
            deg_sq += d * d
        if not problems and deg_sq != t.order:
            problems.append(f"sum of squared degrees is {deg_sq}, not |G| = {t.order}")
    for i, u in enumerate(t.irreducibles):
        for j in range(i, len(t.irreducibles)):
            v = t.irreducibles[j]
            ip = _inner_product(t, u, v)
            want = 1 if i == j else 0
            if isinstance(ip, Fraction):
                bad = ip != want
            else:
                bad = abs(ip - want) > FLOAT_TOL
            if bad:
                problems.append(f"<{u.name},{v.name}> = {ip}, expected {want}")
    return TableDiagnostics(passed=not problems, problems=tuple(problems))


def _decode_value(v):
    if isinstance(v, bool):
        raise DataError(f"bad character value {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return complex(v, 0.0)
    if isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v):
        return complex(v[0], v[1])
    raise DataError(f"bad character value {v!r}")


def _encode_value(v):
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else [float(v), 0.0]
    return [v.real, v.imag]


def load_table(source: str) -> CharacterTable:
    """Parse and validate a character table from its JSON text."""
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise DataError(f"table file is not valid JSON: {exc}") from None
    try:
        order = doc["group_order"]
        raw_classes = doc["classes"]
        raw_irrs = doc["irreducibles"]
    except (KeyError, TypeError):
        raise DataError(
            "table file needs group_order, classes and irreducibles"
        ) from None
    # JSON true is an int to Python, so the type is tested exactly
    if type(order) is not int or order < 1:
        raise DataError(f"bad group_order {order!r}")
    if not (isinstance(raw_classes, list) and isinstance(raw_irrs, list)):
        raise DataError("table file needs classes and irreducibles as lists")
    classes = []
    for i, c in enumerate(raw_classes):
        try:
            name, size = c["name"], c["size"]
        except (KeyError, TypeError):
            raise DataError(f"class {i + 1}: needs name and size") from None
        if not isinstance(name, str):
            raise DataError(f"class {i + 1}: name {name!r} is not a string")
        if type(size) is not int or size < 1:
            raise DataError(f"class {name!r}: bad size {size!r}")
        ct = c.get("cycle_type")
        if ct is not None:
            if not isinstance(ct, list) or any(type(v) is not int or v < 1 for v in ct):
                raise DataError(f"class {name!r}: bad cycle_type {ct!r}")
            ct = tuple(sorted(ct, reverse=True))
        classes.append(ConjClass(name=name, size=size, cycle_type=ct))
    irreducibles = []
    for i, r in enumerate(raw_irrs):
        try:
            name, values = r["name"], r["values"]
        except (KeyError, TypeError):
            raise DataError(f"irreducible {i + 1}: needs name and values") from None
        if not isinstance(name, str):
            raise DataError(f"irreducible {i + 1}: name {name!r} is not a string")
        if not isinstance(values, list) or len(values) != len(classes):
            raise DataError(f"irreducible {name!r}: needs one value per class")
        irreducibles.append(
            Irreducible(name=name, values=tuple(_decode_value(v) for v in values))
        )
    table = CharacterTable(
        order=order, classes=tuple(classes), irreducibles=tuple(irreducibles)
    )
    diag = validate_table(table)
    if not diag.passed:
        raise DataError("table rejected: " + "; ".join(diag.problems))
    return table


def dump_table(t: CharacterTable) -> str:
    doc = {
        "group_order": t.order,
        "classes": [
            {
                "name": c.name,
                "size": c.size,
                **({"cycle_type": list(c.cycle_type)} if c.cycle_type else {}),
            }
            for c in t.classes
        ],
        "irreducibles": [
            {"name": irr.name, "values": [_encode_value(v) for v in irr.values]}
            for irr in t.irreducibles
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def fix_count_subsets(ct, k: int) -> int:
    """Number of k-subsets fixed by a permutation of cycle type ct.

    Coefficient of t^k in the product of (1 + t^c) over the cycle lengths c.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    n = sum(ct)
    if k > n:
        return 0
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    total = 0
    for c in ct:
        total += c
        for d in range(min(total, n), c - 1, -1):
            coeffs[d] += coeffs[d - c]
    return coeffs[k]


def perm_character(t: CharacterTable, n: int, k: int) -> tuple:
    """Value of the k-subset permutation character on each class."""
    for c in t.classes:
        if c.cycle_type is None:
            raise DataError(f"class {c.name!r} has no cycle_type; cannot act on subsets")
        if sum(c.cycle_type) != n:
            raise DataError(
                f"class {c.name!r} has cycle type of {sum(c.cycle_type)} points, not {n}"
            )
    return tuple(fix_count_subsets(c.cycle_type, k) for c in t.classes)


def multiplicity_series(t: CharacterTable, irreducible: str, n: int) -> Series:
    """Multiplicity of the named irreducible in the k-subset representations, k = 0..n."""
    irr = t.irreducible(irreducible)
    values = []
    for k in range(n + 1):
        fix = perm_character(t, n, k)
        total = 0
        for cls, f, v in zip(t.classes, fix, irr.values):
            v_conj = v.conjugate() if isinstance(v, complex) else v
            total += cls.size * f * v_conj
        if isinstance(total, complex):
            c = total / t.order
            if abs(c.imag) > MULT_TOL or abs(c.real - round(c.real)) > MULT_TOL:
                raise DataError(
                    f"multiplicity of {irreducible!r} at k = {k} is not an integer: {c}"
                )
            c = round(c.real)
        else:
            c = Fraction(total, t.order)
            if c.denominator != 1:
                raise DataError(
                    f"multiplicity of {irreducible!r} at k = {k} is not an integer: {c}"
                )
            c = int(c)
        if c < 0:
            raise DataError(
                f"multiplicity of {irreducible!r} at k = {k} is negative: {c}"
            )
        values.append(c)
    return Series(n=n, values=tuple(values))
