"""Character tables, permutation characters and multiplicity series.

Symmetric-group tables are generated exactly with the Murnaghan-Nakayama
rule (via beta-sets); tables of other groups are ingested from JSON and
validated against the orthogonality relations.  A character value is an int
or a cyclotomic integer (m, coeffs), the sum of coeffs[i] zeta_m^i, so every
multiplicity is exact; it matches the characteristic-p value whenever p does
not divide the group order.  Permutation characters of k-subset actions come
from `fix_count_subsets`, which Burnside counting shares.
"""

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, lcm

from .errors import DataError, InternalConsistencyError, field, read_json
from .qarith import factorize


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


def _lift(values, root: int, conj: bool = False):
    """A row of ints at root 1 as it is; else each value, or with conj its
    conjugate (zeta^i to zeta^-i), as its terms (i, a) for a zeta_root^i."""
    if root == 1:
        return values
    return [((0, v),) if type(v) is int else
            [((-i if conj else i) * (root // v[0]) % root, a) for i, a in enumerate(v[1]) if a]
            for v in values]


def _inner_product(t: CharacterTable, us, vs, root: int, what: str) -> int:
    """|G| <u, v> = sum over classes of |C| u(C) conj(v(C)), for us = _lift(u, root)
    and vs = _lift(v, root, conj=True): an int, or DataError naming what.

    Summed in Z[x]/(x^M - 1), M = root, then reduced mod Phi_M: for each q^e || M
    but the largest prime p, zeta^j is minus the q - 1 other powers of its coset
    of M/q, which differ in the top base-q digit of j mod q^e; the digit d > 0
    that the fewest terms have is reduced away, so the sum at most doubles.  It
    is rational iff then, on each coset of M/p, all coefficients off zeta^0 agree."""
    if root == 1:
        return sum(c.size * a * b for c, a, b in zip(t.classes, us, vs))
    acc = Counter()
    for c, xs, ys in zip(t.classes, us, vs):
        for i, x in xs:
            for j, y in ys:
                acc[(i + j) % root] += c.size * x * y
    *small, (p, _) = factorize(root).items()
    for q, e in small:
        used = Counter(i // q ** (e - 1) % q for i in acc)
        d = min(range(1, min(q, len(used) + 2)), key=used.__getitem__)
        for i, a in list(acc.items()):
            if i // q ** (e - 1) % q == d:
                del acc[i]
                for s in range(1, q):
                    acc[(i + s * root // q) % root] -= a
    cosets = {}
    for i, a in acc.items():
        if a and i:
            cosets.setdefault(i % (root // p), []).append(a)
    if any(len(a) != p - (k == 0) or len(set(a)) > 1 for k, a in cosets.items()):
        raise DataError(f"{what} is not a rational integer")
    return acc[0] - cosets.get(0, [0])[0]


def validate_table(t: CharacterTable) -> TableDiagnostics:
    """Check class sizes, degrees and orthonormality of the rows.

    Every check is exact.  The first class must be the identity class (size 1).
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
            if type(d) is not int or d < 1:
                problems.append(f"degree of {irr.name} is not a positive integer: {d}")
                continue
            deg_sq += d * d
        if not problems and deg_sq != t.order:
            problems.append(f"sum of squared degrees is {deg_sq}, not |G| = {t.order}")
    root = lcm(*(v[0] for irr in t.irreducibles for v in irr.values if type(v) is tuple))
    rows = [(_lift(irr.values, root), _lift(irr.values, root, conj=True)) for irr in t.irreducibles]
    for i, u in enumerate(t.irreducibles):
        for j, v in enumerate(t.irreducibles[i:], i):
            ip = _inner_product(t, rows[i][0], rows[j][1], root, f"|G| <{u.name},{v.name}>")
            if ip != (t.order if i == j else 0):
                problems.append(f"<{u.name},{v.name}> = {ip}/{t.order}, expected {int(i == j)}")
    return TableDiagnostics(passed=not problems, problems=tuple(problems))


def _decode_value(v, path: str):
    """An int as it is; {"root": m, "coeffs": [a_0, ...]} as the int a_0 when
    no other a_i is nonzero, else as (m, coeffs), the sum of a_i zeta_m^i."""
    if type(v) is int:
        return v
    if type(v) is not dict:
        raise DataError(f'{path} = {v!r} is not an integer or {{"root": m, "coeffs": [a_0, ...]}} for '
                        "the sum of a_i zeta_m^i; floats and [re, im] pairs are not read")
    m = field(v.get("root"), int, f"{path}.root", low=1)
    coeffs = tuple(field(a, int, f"{path}.coeffs[{i}]")
                   for i, a in enumerate(field(v.get("coeffs"), list, f"{path}.coeffs")))
    if len(coeffs) > m:
        raise DataError(f"{path}.coeffs has {len(coeffs)} entries, more than root = {m}")
    return (m, coeffs) if any(coeffs[1:]) else (coeffs or (0,))[0]


def load_table(source: str) -> CharacterTable:
    """Parse and validate a character table from its JSON text."""
    doc = field(read_json(source, "table file"), dict, "table file")
    order = field(doc.get("group_order"), int, "group_order", low=1)
    classes = []
    for i, c in enumerate(field(doc.get("classes"), list, "classes")):
        path = f"classes[{i}]"
        c = field(c, dict, path)
        ct = field(c.get("cycle_type"), list, f"{path}.cycle_type", default=None)
        if ct is not None:
            ct = tuple(sorted((field(v, int, f"{path}.cycle_type[{j}]", low=1)
                               for j, v in enumerate(ct)), reverse=True))
        classes.append(ConjClass(name=field(c.get("name"), str, f"{path}.name"),
                                 size=field(c.get("size"), int, f"{path}.size", low=1),
                                 cycle_type=ct))
    irreducibles = []
    for i, r in enumerate(field(doc.get("irreducibles"), list, "irreducibles")):
        path = f"irreducibles[{i}]"
        r = field(r, dict, path)
        name = field(r.get("name"), str, f"{path}.name")
        values = field(r.get("values"), list, f"{path}.values")
        if len(values) != len(classes):
            raise DataError(f"{path}.values has {len(values)} entries, not one per class")
        irreducibles.append(Irreducible(name=name, values=tuple(
            _decode_value(v, f"{path}.values[{j}]") for j, v in enumerate(values))))
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
        "classes": [{"name": c.name, "size": c.size,
                     **({"cycle_type": list(c.cycle_type)} if c.cycle_type else {})} for c in t.classes],
        "irreducibles": [{"name": irr.name, "values": [
            v if type(v) is int else {"root": v[0], "coeffs": list(v[1])} for v in irr.values]}
            for irr in t.irreducibles],
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
    root = lcm(*(v[0] for v in irr.values if type(v) is tuple))
    vs = _lift(irr.values, root, conj=True)
    values = []
    for k in range(n + 1):
        total = _inner_product(t, _lift(perm_character(t, n, k), root), vs, root,
                               f"|G| times the multiplicity of {irreducible!r} at k = {k}")
        c, r = divmod(total, t.order)
        if r or c < 0:
            raise DataError(f"multiplicity of {irreducible!r} at k = {k} is {total}/{t.order}, "
                            "not a nonnegative integer")
        values.append(c)
    return Series(n=n, values=tuple(values))
