"""Seeded operation lists of the benchmark workloads.

Every operation is one `inchom <args> --json` call.  An operation either has
fixed input, and is checked against the SHA-256 of its stdout recorded in
expected.json, or reads a group file generated here from the seed, and is
checked against the group order and orbit counts known by construction.
The same seed always gives the same operations and files.
"""

import math
import random
from dataclasses import dataclass

M24_ORDER = 244_823_040
# N_0..N_12 from the paper, mirrored
M24_SERIES = (1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 5, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1)
GROUP_DIR = ".perfbench_run/groups"


@dataclass(frozen=True)
class Op:
    """One CLI call.

    argv excludes --json.  fixed marks a fixed-input call checked by digest;
    order and series, when set, are the expected group order and orbit counts
    (all ranks).  files are (path relative to the checkout, text) pairs the
    call reads.
    """

    argv: tuple
    fixed: bool = True
    order: int | None = None
    series: tuple | None = None
    files: tuple = ()

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------- oracles


def _subset_fix_poly(cycle_lengths, n):
    """Coefficients of prod (1 + t^c): fixed k-subsets of one permutation."""
    coeffs = [1] + [0] * n
    for c in cycle_lengths:
        for d in range(n, c - 1, -1):
            coeffs[d] += coeffs[d - c]
    return coeffs


def _burnside_series(n, type_counts, order):
    """Orbit counts on k-subsets from the cycle types of all group elements."""
    total = [0] * (n + 1)
    for lengths, count in type_counts.items():
        for k, v in enumerate(_subset_fix_poly(lengths, n)):
            total[k] += count * v
    if any(t % order for t in total):
        raise ValueError("Burnside sum not divisible by the group order")
    return tuple(t // order for t in total)


@dataclass(frozen=True)
class PermGroup:
    """Permutation group on 0..degree-1 with order and orbit series known by construction."""

    name: str
    degree: int
    gens: tuple
    order: int
    series: tuple


def _rotation_types(n):
    types = {}
    for r in range(n):
        g = math.gcd(n, r)
        key = (n // g,) * g
        types[key] = types.get(key, 0) + 1
    return types


def cyclic(n: int) -> PermGroup:
    gen = tuple((i + 1) % n for i in range(n))
    return PermGroup(f"c{n}", n, (gen,), n, _burnside_series(n, _rotation_types(n), n))


def dihedral(n: int) -> PermGroup:
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple((-i) % n for i in range(n))
    types = _rotation_types(n)
    if n % 2:
        refl_types = {(2,) * (n // 2) + (1,): n}
    else:
        refl_types = {(2,) * (n // 2 - 1) + (1, 1): n // 2, (2,) * (n // 2): n // 2}
    for key, count in refl_types.items():
        types[key] = types.get(key, 0) + count
    return PermGroup(f"d{n}", n, (rot, refl), 2 * n, _burnside_series(n, types, 2 * n))


def symmetric(n: int) -> PermGroup:
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple((i + 1) % n for i in range(n))
    return PermGroup(f"s{n}", n, (swap, cycle), math.factorial(n), (1,) * (n + 1))


def direct_product(a: PermGroup, b: PermGroup) -> PermGroup:
    """a x b on disjoint points; orbits on k-subsets pair orbits on a- and b-subsets."""
    n = a.degree + b.degree
    gens = tuple(g + tuple(range(a.degree, n)) for g in a.gens)
    gens += tuple(tuple(range(a.degree)) + tuple(a.degree + v for v in h) for h in b.gens)
    series = tuple(
        sum(a.series[i] * b.series[k - i] for i in range(k + 1)
            if i <= a.degree and k - i <= b.degree)
        for k in range(n + 1)
    )
    return PermGroup(f"{a.name}x{b.name}", n, gens, a.order * b.order, series)


def _cycle_text(perm) -> str:
    seen, parts = set(), []
    for s in range(len(perm)):
        if s in seen or perm[s] == s:
            continue
        cyc, x = [], s
        while x not in seen:
            seen.add(x)
            cyc.append(x + 1)
            x = perm[x]
        parts.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(parts)


def perm_group_file(g: PermGroup, rng: random.Random) -> str:
    """Group file of g with its points relabelled by a random permutation."""
    sigma = list(range(g.degree))
    rng.shuffle(sigma)
    gens = []
    for h in g.gens:
        conj = [0] * g.degree
        for i in range(g.degree):
            conj[sigma[i]] = sigma[h[i]]
        gens.append('"' + _cycle_text(conj) + '"')
    return (f'{{"kind": "permutation", "degree": {g.degree}, "order": {g.order}, '
            f'"generators": [{", ".join(gens)}]}}\n')


@dataclass(frozen=True)
class MatrixGroup:
    """GL(a, q) x GL(b, q) as block-diagonal matrices on GF(q)^(a+b), q prime."""

    a: int
    b: int
    q: int

    @property
    def n(self) -> int:
        return self.a + self.b

    @property
    def name(self) -> str:
        return f"gl{self.a}x{self.b}q{self.q}"

    @property
    def order(self) -> int:
        return _gl_order(self.a, self.q) * _gl_order(self.b, self.q)

    @property
    def series(self) -> tuple:
        """A k-subspace X of U + W is fixed up to the group by dim(X & U) = i,
        dim(X & W) = j and the rank r = k - i - j of the graph part between
        its projections (Goursat), with i + r <= a and j + r <= b."""
        return tuple(
            sum(1 for i in range(k + 1) for j in range(k + 1 - i)
                if i + (k - i - j) <= self.a and j + (k - i - j) <= self.b)
            for k in range(self.n + 1)
        )

    def gens(self) -> list:
        n, out = self.n, []
        for size, offset in ((self.a, 0), (self.b, self.a)):
            for g in _gl_gens(size, self.q):
                m = _identity(n)
                for r in range(size):
                    for c in range(size):
                        m[offset + r][offset + c] = g[r][c]
                out.append(m)
        return out


def _gl_order(m: int, q: int) -> int:
    out = 1
    for i in range(m):
        out *= q**m - q**i
    return out


def _identity(n):
    return [[int(r == c) for c in range(n)] for r in range(n)]


def _gl_gens(m: int, q: int) -> list:
    """Adjacent transvections generate SL(m, q); a primitive-root diagonal adds GL."""
    gens = []
    if q > 2:
        omega = next(w for w in range(2, q) if len({pow(w, e, q) for e in range(q - 1)}) == q - 1)
        d = _identity(m)
        d[0][0] = omega
        gens.append(d)
    for i in range(m - 1):
        for r, c in ((i, i + 1), (i + 1, i)):
            t = _identity(m)
            t[r][c] = 1
            gens.append(t)
    return gens


def _matmul(x, y, q):
    n = len(x)
    return [[sum(x[i][t] * y[t][j] for t in range(n)) % q for j in range(n)] for i in range(n)]


def _inverse(m, q):
    """Inverse over GF(q) by Gauss-Jordan, or None when m is singular."""
    n = len(m)
    work = [list(row) + _identity(n)[i] for i, row in enumerate(m)]
    for c in range(n):
        piv = next((r for r in range(c, n) if work[r][c]), None)
        if piv is None:
            return None
        work[c], work[piv] = work[piv], work[c]
        inv = pow(work[c][c], q - 2, q)
        work[c] = [v * inv % q for v in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [(v - f * w) % q for v, w in zip(work[r], work[c])]
    return [row[n:] for row in work]


def matrix_group_file(g: MatrixGroup, rng: random.Random) -> str:
    """Group file of g conjugated by a random change of basis."""
    while True:
        p = [[rng.randrange(g.q) for _ in range(g.n)] for _ in range(g.n)]
        p_inv = _inverse(p, g.q)
        if p_inv is not None:
            break
    gens = [_matmul(_matmul(p, m, g.q), p_inv, g.q) for m in g.gens()]
    text = ", ".join(str(m) for m in gens)
    return (f'{{"kind": "matrix", "n": {g.n}, "q": {g.q}, "order": {g.order}, '
            f'"generators": [{text}]}}\n')


# ---------------------------------------------------------------- operations


def _perm_op(g: PermGroup, rng, method=None, command="orbits") -> Op:
    path = f"{GROUP_DIR}/{g.name}.json"
    files = ((path, perm_group_file(g, rng)),)
    if command == "order":
        return Op(("order", path), fixed=False, order=g.order, files=files)
    argv = ("orbits", path, f"boolean:{g.degree}") + (("--method", method) if method else ())
    return Op(argv, fixed=False, order=g.order, series=g.series, files=files)


def _matrix_op(g: MatrixGroup, rng) -> Op:
    path = f"{GROUP_DIR}/{g.name}.json"
    return Op(("orbits", path, f"projective:{g.n},{g.q}"), fixed=False,
              order=g.order, series=g.series, files=((path, matrix_group_file(g, rng)),))


HOMOLOGY_MATRIX = (
    ("homology", "boolean:12", "-p", "7"),
    ("homology", "projective:6,2", "-p", "7"),
    ("homology", "boolean:16", "-p", "2"),
)
HOMOLOGY_ARITH = (("homology", "boolean:8", "-p", "1009"),)
ORBITS_M24 = ("orbits", "data:m24.json", "boolean:24")


def _cells(poset: str, n: int, pis: dict) -> tuple:
    """Every single-cell homology query (j, i) of one poset, per prime."""
    return tuple(("homology", poset, "-p", str(p), "-j", str(j), "-i", str(i))
                 for p, pi in pis.items() for i in range(1, pi) for j in range(n + 1))


# Fixed-input pools of small-queries; the seed draws from them.  Calls in one
# pool cost about the same, so the seed moves the inputs but not the load.
SMALL_POOLS = {
    "mult10": tuple(("mult", "sn:10", "boolean:10", "-p", str(p), "--irreducible", lam)
                    for lam in ("9,1", "8,2", "7,3", "6,4", "5,5", "8,1,1", "7,2,1", "4,3,2,1")
                    for p in (3, 7, 11, 13)),
    "mult8": tuple(("mult", "sn:8", "boolean:8", "-p", str(p), "--irreducible", lam)
                   for lam in ("7,1", "6,2", "5,3", "4,4", "6,1,1", "3,3,2")
                   for p in (3, 5, 11)),
    "bounds": (("bounds", "-n", "10", "--pis", "9,8,7"),
               ("bounds", "-n", "24", "--pis", "13,17,19"),
               ("bounds", "-n", "12", "--pis", "11,7,5"),
               ("bounds", "-n", "16", "--pis", "13,11,7"),
               ("bounds", "-n", "20", "--pis", "19,17,13,11"),
               ("bounds", "-n", "18", "--pis", "17,13,11")),
    "chain": tuple(("chain", "--series", ",".join(map(str, M24_SERIES)), "--pi", str(pi))
                   for pi in (13, 17, 19, 29, 31)),
    "pitable": tuple(("pitable", "--pmax", str(p)) for p in (13, 17, 19, 23, 29, 31)),
    "scan_boolean": tuple(("homology", f"boolean:{n}", "-p", "2") for n in (9, 10, 11)),
    "scan_projective": (("homology", "projective:4,3", "-p", "2"),
                        ("homology", "projective:3,5", "-p", "2"),
                        ("homology", "projective:3,7", "-p", "2")),
    "cell_boolean": _cells("boolean:10", 10, {3: 3, 5: 5, 7: 7}),
    "cell_projective": _cells("projective:4,2", 4, {3: 2, 5: 4, 7: 3}),
    "order": (("order", "data:m24.json"),),
}
# how many calls each pool contributes to one pass of small-queries
SMALL_DRAWS = {"mult10": 1, "mult8": 2, "bounds": 2, "chain": 2, "pitable": 2,
               "scan_boolean": 1, "scan_projective": 2, "cell_boolean": 5,
               "cell_projective": 2, "order": 1}


def homology_matrix(rng) -> list:
    ops = [Op(a) for a in HOMOLOGY_MATRIX]
    rng.shuffle(ops)
    return ops


def homology_arith(rng) -> list:
    return [Op(a) for a in HOMOLOGY_ARITH]


def orbits_m24(rng) -> list:
    return [Op(ORBITS_M24, order=M24_ORDER, series=M24_SERIES)]


def small_queries(rng) -> list:
    ops = [
        _perm_op(symmetric(8), rng, "both"),
        _perm_op(dihedral(12), rng, "both"),
        _perm_op(direct_product(cyclic(5), dihedral(6)), rng, "both"),
        _perm_op(direct_product(cyclic(7), symmetric(5)), rng, "both"),
        _perm_op(cyclic(16), rng),
        _perm_op(direct_product(dihedral(10), dihedral(10)), rng),
        _perm_op(direct_product(symmetric(9), cyclic(5)), rng, command="order"),
        _matrix_op(MatrixGroup(2, 2, 2), rng),
        _matrix_op(MatrixGroup(2, 3, 2), rng),
        _matrix_op(MatrixGroup(2, 2, 3), rng),
    ]
    for pool, draws in SMALL_DRAWS.items():
        ops += [Op(a) for a in rng.sample(SMALL_POOLS[pool], draws)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "homology-matrix": homology_matrix,
    "homology-arith": homology_arith,
    "orbits-m24": orbits_m24,
    "small-queries": small_queries,
}

# one short call per workload, for the harness self-test
SHORT = {
    "homology-matrix": lambda rng: [Op(("homology", "boolean:8", "-p", "7"))],
    "homology-arith": lambda rng: [Op(("homology", "boolean:5", "-p", "101"))],
    "orbits-m24": lambda rng: [Op(ORBITS_M24 + ("-k", "2"), order=M24_ORDER,
                                  series=M24_SERIES[2:3])],
    "small-queries": lambda rng: [_perm_op(symmetric(5), rng, "both"),
                                  _matrix_op(MatrixGroup(1, 2, 2), rng)],
}


def generate(workload: str, seed: int, short: bool = False) -> list:
    """The operation list of a workload for a seed."""
    table = SHORT if short else WORKLOADS
    return table[workload](random.Random(f"{workload}/{seed}"))


def fixed_argvs() -> list:
    """Every fixed-input call any workload or the self-test can generate."""
    out = list(HOMOLOGY_MATRIX) + list(HOMOLOGY_ARITH) + [ORBITS_M24]
    for pool in SMALL_POOLS.values():
        out += pool
    out += [op.argv for w in SHORT for op in generate(w, 0, short=True) if op.fixed]
    return out
