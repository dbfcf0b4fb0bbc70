"""Corpus of small permutation groups with full character tables.

Group generators are fed through the public JSON parser; conjugacy classes
are recovered by brute force (independent of the package's machinery), and
the classical character values are attached per class, as exact cyclotomic
integers.  Every table must pass exact orthogonality validation before use,
so a transcription slip in any value fails loudly.
"""

import json
import math
from itertools import combinations

from inchom.chartab import CharacterTable, ConjClass, Irreducible, sn_table, validate_table
from inchom.groupact import Group, parse_group


def pmul(a, b):
    return tuple(a[i] for i in b)


def pinv(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def closure(gens):
    n = len(gens[0])
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = pmul(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return sorted(seen)


def matmul(a, b, F):
    """Product of two square matrices over the field F."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for t in range(n):
                acc = F.add(acc, F.mul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def matrix_closure(gens, F):
    """Every product of the invertible matrices gens over F, by breadth-first search."""
    n = len(gens[0])
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = matmul(x, g, F)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def brute_classes(gens):
    """Conjugacy classes by conjugating with generators; deterministic order."""
    elements = closure(gens)
    inv_gens = [pinv(g) for g in gens]
    remaining = set(elements)
    classes = []
    for x in elements:
        if x not in remaining:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g, gi in zip(gens, inv_gens):
                z = pmul(g, pmul(y, gi))
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        remaining -= orbit
        classes.append(sorted(orbit))
    return classes


def ctype(perm):
    n = len(perm)
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        length, x = 0, s
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        out.append(length)
    return tuple(sorted(out, reverse=True))


def to_cycles(perm):
    n = len(perm)
    seen = [False] * n
    parts = []
    for s in range(n):
        if seen[s] or perm[s] == s:
            seen[s] = True
            continue
        cyc = [s]
        seen[s] = True
        x = perm[s]
        while x != s:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        parts.append("(" + ",".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts) if parts else "()"


def cyclotomic(m, exps, sign=1):
    """sign times the sum of zeta_m^e over exps, held as chartab holds a value:
    an int when only zeta^0 has a nonzero coefficient, else (m, coeffs)."""
    coeffs = [0] * m
    for e in exps:
        coeffs[e % m] += sign
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return (m, tuple(coeffs)) if any(coeffs[1:]) else (coeffs or [0])[0]


def make_group(gens, order=None) -> Group:
    degree = len(gens[0])
    doc = {"kind": "permutation", "degree": degree,
           "generators": [to_cycles(g) for g in gens]}
    if order is not None:
        doc["order"] = order
    return parse_group(json.dumps(doc))


def _table(order, class_data, irr_rows) -> CharacterTable:
    classes = tuple(
        ConjClass(name=name, size=size, cycle_type=ct) for name, size, ct in class_data
    )
    irreducibles = tuple(Irreducible(name=n, values=tuple(vals)) for n, vals in irr_rows)
    t = CharacterTable(order=order, classes=classes, irreducibles=irreducibles)
    diag = validate_table(t)
    assert diag.passed, diag.problems
    return t


def trivial_entry(n=3):
    gens = [tuple(range(n))]
    group = make_group(gens, order=1)
    table = _table(
        1,
        [("e", 1, (1,) * n)],
        [("triv", [1])],
    )
    return "trivial", group, table, "triv"


def cyclic_entry(n):
    r = tuple((i + 1) % n for i in range(n))
    group = make_group([r], order=n)
    class_data = []
    for a in range(n):
        d = math.gcd(a, n) if a else n
        class_data.append((f"g^{a}", 1, tuple(sorted([n // d] * d, reverse=True))))
    irr_rows = [
        (f"chi{j}", [cyclotomic(n, [j * a]) for a in range(n)])
        for j in range(n)
    ]
    table = _table(n, class_data, irr_rows)
    return f"C{n}", group, table, "chi0"


def _rotation_amount(perm, m):
    # perm is x -> x + j on 0..m-1, or a reflection (returns None)
    j = perm[0]
    if all(perm[x] == (x + j) % m for x in range(m)):
        return j
    return None


def dihedral_entry(m):
    r = tuple((i + 1) % m for i in range(m))
    s = tuple((-i) % m for i in range(m))
    group = make_group([r, s], order=2 * m)
    ident = tuple(range(m))
    reps = []
    for cls in brute_classes([r, s]):
        rep = cls[0]
        # prefer a rotation representative when one exists, for value lookup
        for x in cls:
            if _rotation_amount(x, m) is not None:
                rep = x
                break
        reps.append((rep, len(cls)))
    reps.sort(key=lambda rs: (rs[0] != ident, to_cycles(rs[0])))
    class_data = [(to_cycles(rep), size, ctype(rep)) for rep, size in reps]
    reps = [rep for rep, _ in reps]

    def linear(rot_sign, refl_sign):
        vals = []
        for rep in reps:
            j = _rotation_amount(rep, m)
            if j is not None:
                vals.append(rot_sign**j)
            elif rot_sign == 1:
                vals.append(refl_sign)
            else:
                # even m: vertex reflections (2 fixed points) are s r^even,
                # edge reflections (none) are s r^odd
                fixed = sum(1 for x in range(m) if rep[x] == x)
                vals.append(refl_sign if fixed else -refl_sign)
        return vals

    irr_rows = [("triv", linear(1, 1)), ("sgn", linear(1, -1))]
    if m % 2 == 0:
        irr_rows.append(("rho", linear(-1, 1)))
        irr_rows.append(("rhosgn", linear(-1, -1)))
    top = (m - 1) // 2 if m % 2 else m // 2 - 1
    for h in range(1, top + 1):
        vals = []
        for rep in reps:
            j = _rotation_amount(rep, m)
            # 2 cos(2 pi h j / m) = zeta_m^(hj) + zeta_m^(-hj)
            vals.append(cyclotomic(m, [h * j, -h * j]) if j is not None else 0)
        irr_rows.append((f"2d{h}", vals))
    table = _table(2 * m, class_data, irr_rows)
    return f"D{m}", group, table, "triv"


def sn_entry(n):
    gens = [tuple([1, 0] + list(range(2, n))), tuple(list(range(1, n)) + [0])]
    group = make_group(gens, order=math.factorial(n))
    return f"S{n}", group, sn_table(n), str(n)


def a4_entry():
    a = (1, 0, 3, 2)  # (1 2)(3 4)
    b = (1, 2, 0, 3)  # (1 2 3)
    group = make_group([a, b], order=12)
    rep123 = b
    rep132 = pmul(b, b)
    ident = tuple(range(4))
    ordered = sorted(brute_classes([a, b]), key=lambda cls: (cls[0] != ident, len(cls), cls[0]))
    class_data = [(to_cycles(cls[0]), len(cls), ctype(cls[0])) for cls in ordered]

    def chi_linear(power):
        vals = []
        for cls in ordered:
            if rep123 in cls:
                vals.append(cyclotomic(3, [power]))
            elif rep132 in cls:
                vals.append(cyclotomic(3, [2 * power]))
            else:
                vals.append(1)
        return vals

    def chi3():
        vals = []
        for cls in ordered:
            rep = cls[0]
            if rep == ident:
                vals.append(3)
            elif ctype(rep) == (2, 2):
                vals.append(-1)
            else:
                vals.append(0)
        return vals

    irr_rows = [
        ("triv", [1] * 4),
        ("w", chi_linear(1)),
        ("w2", chi_linear(2)),
        ("std", chi3()),
    ]
    table = _table(12, class_data, irr_rows)
    return "A4", group, table, "triv"


def a5_entry():
    a = (1, 2, 0, 3, 4)  # (1 2 3)
    b = (1, 2, 3, 4, 0)  # (1 2 3 4 5)
    group = make_group([a, b], order=60)
    classes = brute_classes([a, b])
    ident = tuple(range(5))
    ordered = sorted(classes, key=lambda cls: (cls[0] != ident, len(cls), cls[0]))
    five_a = next(cls for cls in ordered if b in cls)
    # the golden ratio (1 + sqrt 5) / 2 = 1 + zeta_5 + zeta_5^4, and 1 - phi
    phi, phi_bar = cyclotomic(5, [0, 1, 4]), cyclotomic(5, [1, 4], sign=-1)
    class_data = [(to_cycles(cls[0]), len(cls), ctype(cls[0])) for cls in ordered]

    def by_type(vals_map, five_a_val, five_b_val):
        vals = []
        for cls in ordered:
            ct = ctype(cls[0])
            if ct == (5,):
                vals.append(five_a_val if cls is five_a else five_b_val)
            else:
                vals.append(vals_map[ct])
        return vals

    irr_rows = [
        ("triv", [1] * 5),
        ("3a", by_type({(1, 1, 1, 1, 1): 3, (2, 2, 1): -1, (3, 1, 1): 0}, phi, phi_bar)),
        ("3b", by_type({(1, 1, 1, 1, 1): 3, (2, 2, 1): -1, (3, 1, 1): 0}, phi_bar, phi)),
        ("4", by_type({(1, 1, 1, 1, 1): 4, (2, 2, 1): 0, (3, 1, 1): 1}, -1, -1)),
        ("5", by_type({(1, 1, 1, 1, 1): 5, (2, 2, 1): 1, (3, 1, 1): -1}, 0, 0)),
    ]
    table = _table(60, class_data, irr_rows)
    return "A5", group, table, "triv"


def s5_on_pairs_entry():
    pairs = list(combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}

    def induce(perm):
        return tuple(
            index[tuple(sorted((perm[a], perm[b])))] for (a, b) in pairs
        )

    s5_gens = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
    gens10 = [induce(g) for g in s5_gens]
    group = make_group(gens10, order=120)
    base = sn_table(5)
    # same abstract classes and characters; cycle types taken on the 10 pairs
    reps = {}
    for cls in base.classes:
        ct = cls.cycle_type
        perm, pos = [], 0
        for length in ct:
            perm.extend([pos + (i + 1) % length for i in range(length)])
            pos += length
        reps[cls.name] = induce(tuple(perm))
    classes = tuple(
        ConjClass(name=c.name, size=c.size, cycle_type=ctype(reps[c.name]))
        for c in base.classes
    )
    table = CharacterTable(order=120, classes=classes, irreducibles=base.irreducibles)
    diag = validate_table(table)
    assert diag.passed, diag.problems
    return "S5/pairs", group, table, "5"


def corpus():
    """(name, group, table, trivial irreducible name, acting degree) tuples."""
    entries = [
        trivial_entry(3),
        cyclic_entry(4),
        cyclic_entry(5),
        cyclic_entry(6),
        sn_entry(3),
        sn_entry(4),
        sn_entry(5),
        sn_entry(6),
        a4_entry(),
        a5_entry(),
        dihedral_entry(4),
        dihedral_entry(5),
        dihedral_entry(6),
        dihedral_entry(10),
        s5_on_pairs_entry(),
    ]
    return [(name, g, t, triv, g.degree) for name, g, t, triv in entries]
