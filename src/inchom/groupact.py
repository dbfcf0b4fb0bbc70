"""Permutation and matrix groups acting on rank sets.

Covers group parsing, exact order computation (one stabilizer chain: on the
points of a permutation group, on the vectors a matrix group moves the
standard basis to), cycle types, Burnside orbit counting over the elements
listed from the chain, generator-closure orbit counting on a single rank set,
and the choice of a certified pair of random elements to count with where
that pays.  The orbit counter works on numpy arrays, so this is the one
module of the command line that loads numpy; `cli` imports it only for
`orbits` and `order`.
"""

import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import comb, prod
from operator import itemgetter

import numpy as np

from . import gf, poset
from .chartab import fix_count_subsets
from .errors import DataError, InternalConsistencyError, ResourceLimitError
from .poset import PosetSpec

DEFAULT_GROUP_CAP = 1_000_000
# representative slots (orbit points times degree, summed over the levels)
# a stabilizer chain may hold: 2**25 slots of 8 bytes are 256 MiB
MAX_CHAIN_ENTRIES = 2**25
# random pairs `_counting_generators` draws at most before it keeps the input generators
GENERATOR_DRAWS = 20


def _pmul(a, b):
    """Composition a after b: (a*b)(x) = a(b(x)), gathered in C by itemgetter."""
    return itemgetter(*b)(a) if len(b) > 1 else tuple(a[i] for i in b)


def _pinv(a):
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[ai] = i
    return tuple(out)


def _identity(n):
    return tuple(range(n))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> tuple:
    """Parse 1-based cycle notation like "(1,2,3)(4,5)"; fixed points may be omitted."""
    compact = text.replace(" ", "")
    if _CYCLE_RE.sub("", compact) != "":
        raise DataError(f"bad cycle notation {text!r}")
    perm = list(range(degree))
    seen = set()
    for body in _CYCLE_RE.findall(compact):
        if not body:
            continue
        try:
            pts = [int(tok) - 1 for tok in body.split(",")]
        except ValueError:
            raise DataError(f"bad cycle {body!r} in {text!r}") from None
        for v in pts:
            if not (0 <= v < degree):
                raise DataError(f"point {v + 1} outside 1..{degree} in {text!r}")
            if v in seen:
                raise DataError(f"point {v + 1} repeated in {text!r}")
            seen.add(v)
        for i, v in enumerate(pts):
            perm[v] = pts[(i + 1) % len(pts)]
    return tuple(perm)


def cycles_of(perm) -> str:
    """Render a permutation back into 1-based cycle notation."""
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


@dataclass(frozen=True)
class Group:
    """A permutation group on 1..degree, or a matrix group on GF(q)^degree."""

    kind: str
    degree: int
    generators: tuple
    q: int = 0
    declared_order: int | None = None

    def __post_init__(self):
        # the orbit counter walks forward images only, which needs every
        # generator to be a bijection; a map that merges points would hang it
        if self.kind == "permutation":
            for i, perm in enumerate(self.generators):
                if sorted(perm) != list(range(self.degree)):
                    raise DataError(
                        f"generator {i + 1} is not a permutation of 0..{self.degree - 1}"
                    )
        elif self.kind == "matrix":
            # `_point_action` needs every generator to permute the vectors it
            # reaches; a singular or malformed matrix would give a wrong |G|
            try:
                gf.field(self.q if type(self.q) is int else -1)
            except ValueError as exc:
                raise DataError(f"unsupported field size q = {self.q!r}: {exc}") from None
            for i, mat in enumerate(self.generators):
                _validate_matrix_generator(mat, self.degree, self.q, f"generator {i + 1}")
        else:
            # `_chain` would take any other kind for a matrix group
            raise DataError(f"unknown group kind {self.kind!r}")

    @cached_property
    def _chain(self) -> tuple:
        """(the points G acts on, the generators as permutations of them, their stabilizer chain).

        Built on first use and kept on this object alone: a permutation
        group acts on its points, a matrix group on the vectors of
        `_point_action`.  An equal Group built anew builds its own, so no
        result depends on what was computed before.
        """
        if self.kind == "permutation":
            points, perms = range(self.degree), self.generators
        else:
            points, perms = _point_action(self)
        return points, perms, _stabilizer_chain(perms, len(points))


def _validate_matrix_generator(mat, n: int, q: int, where: str):
    """Refuse, with DataError, anything but an invertible n x n tuple of tuples over GF(q)."""
    if not (isinstance(mat, tuple) and len(mat) == n
            and all(isinstance(r, tuple) and len(r) == n for r in mat)):
        raise DataError(f"{where}: matrix is not {n}x{n}")
    for r in mat:
        for v in r:
            if type(v) is not int or not (0 <= v < q):
                raise DataError(f"{where}: entry {v!r} outside 0..{q - 1}")
    if len(gf.rref(mat, n, gf.field(q))) != n:
        raise DataError(f"{where}: matrix is singular over GF({q})")


def _as_tuples(value):
    """JSON lists as tuples, all the way down; anything else as it is."""
    return tuple(map(_as_tuples, value)) if isinstance(value, list) else value


def parse_group(source: str) -> Group:
    """Build a validated Group from its JSON description."""
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise DataError(f"group file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DataError("group file must be an object with a 'kind' field")
    kind = doc["kind"]
    declared = doc.get("order")
    # JSON true and false are ints to Python, so every number is tested by type
    if declared is not None and (type(declared) is not int or declared < 1):
        raise DataError(f"declared order {declared!r} is not a positive integer")

    if kind == "permutation":
        degree = doc.get("degree")
        if type(degree) is not int or degree < 1:
            raise DataError(f"bad degree {degree!r}")
        raw = doc.get("generators")
        if not isinstance(raw, list) or not raw:
            raise DataError("permutation group needs a nonempty generator list")
        gens = []
        for i, text in enumerate(raw):
            if not isinstance(text, str):
                raise DataError(f"generator {i + 1}: expected a cycle string")
            try:
                gens.append(parse_cycles(text, degree))
            except DataError as exc:
                raise DataError(f"generator {i + 1}: {exc}") from None
        return Group(
            kind="permutation", degree=degree, generators=tuple(gens),
            declared_order=declared,
        )

    if kind == "matrix":
        n = doc.get("n")
        if type(n) is not int or n < 1:
            raise DataError(f"bad dimension n = {n!r}")
        raw = doc.get("generators")
        if not isinstance(raw, list) or not raw:
            raise DataError("matrix group needs a nonempty generator list")
        # Group checks the field and every generator
        return Group(
            kind="matrix", degree=n, q=doc.get("q"), generators=_as_tuples(raw),
            declared_order=declared,
        )

    raise DataError(f"unknown group kind {kind!r}")


def _stabilizer_chain(gens, n: int) -> tuple:
    """One {orbit point x: u in G_i with u(b_i) = x} per base point b_i, G_i fixing b_0..b_{i-1}.

    |G| is the product of the dict sizes, and G is the products u_0 u_1 ...
    of one u per level.  Incremental Schreier-Sims (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, 4.4.2) completes the levels
    from the deepest up, sifting the Schreier generator u_{s(x)}^-1 s u_x of
    each pair (x, s) of a level's orbit and strong generators once.  A residue
    h joins the strong generators of every level whose base points it fixes
    (a new level if it fixes them all); their orbits grow in place, which
    changes no representative, and the scan resumes at the deepest of them.
    Past MAX_CHAIN_ENTRIES stored slots it raises ResourceLimitError.
    """
    ident = _identity(n)
    base, strong, reps, tested = [], [], [], []
    entries = 0

    def store(tr, x, u):
        nonlocal entries
        entries += n
        if entries > MAX_CHAIN_ENTRIES:
            raise ResourceLimitError(
                f"the stabilizer chain on {n} points needs {entries} representative "
                f"slots or more, over MAX_CHAIN_ENTRIES = {MAX_CHAIN_ENTRIES}"
            )
        tr[x] = u

    def add(h, depth):
        """Make h, which fixes b_0..b_{depth-1}, a strong generator of levels 0..depth."""
        if depth == len(base):
            b = next(i for i in range(n) if h[i] != i)
            base.append(b)
            strong.append([])
            reps.append({})
            store(reps[-1], b, ident)
            tested.append(set())
        for i in range(depth + 1):
            strong[i].append(h)
            tr = reps[i]
            grown = []
            for x, ux in list(tr.items()):
                if h[x] not in tr:
                    store(tr, h[x], _pmul(h, ux))
                    grown.append(h[x])
            while grown:
                x = grown.pop()
                for s in strong[i]:
                    if s[x] not in tr:
                        store(tr, s[x], _pmul(s, tr[x]))
                        grown.append(s[x])

    def sift(a, b, depth):
        """Level at which a^-1 b leaves the chain from `depth` on, and its residue there.

        Kept as the pair (a, b), no representative is inverted: a^-1 b maps
        b_j to a.index(b[b_j]) = z, and dividing by u_z replaces a by a u_z.
        """
        for j in range(depth, len(base)):
            if a == b:
                return j, ident
            z = a.index(b[base[j]])
            uz = reps[j].get(z)
            if uz is None:
                return j, _pmul(_pinv(a), b)
            a = _pmul(a, uz)
        return len(base), (ident if a == b else _pmul(_pinv(a), b))

    def first_residue(i):
        """Sift the untested Schreier generators of level i until one leaves a residue."""
        for x, ux in reps[i].items():
            for t, s in enumerate(strong[i]):
                if (x, t) not in tested[i]:
                    tested[i].add((x, t))
                    depth, h = sift(reps[i][s[x]], _pmul(s, ux), i + 1)
                    if h != ident:
                        return h, depth
        return None

    for g in gens:
        depth, h = sift(ident, g, 0)
        if h != ident:
            add(h, depth)
    i = len(base) - 1
    while i >= 0:
        residue = first_residue(i)
        if residue is None:
            i -= 1
        else:
            add(*residue)
            i = residue[1]
    return tuple(reps)


def _point_action(g: Group) -> tuple:
    """(P, the permutation of P by each generator) for a matrix group g.

    P is the set of vectors reached from the standard basis by applying the
    generators (v -> g v, as in `act`).  P is finite and closed under every
    generator, so each generator permutes it, and g acts faithfully on P
    because P contains the basis.  The search refuses once |P|^2 exceeds
    MAX_CHAIN_ENTRIES, the bound on the chain's slots: one level whose orbit
    is all of P alone would take |P|^2.
    """
    F = gf.field(g.q)
    n = g.degree
    points = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    index = {v: i for i, v in enumerate(points)}
    images = [[] for _ in g.generators]
    # points grows inside the loop; the iteration visits every point found
    for v in points:
        for mat, img in zip(g.generators, images):
            w = tuple(F.dot(v, row) for row in mat)
            if w not in index:
                index[w] = len(points)
                points.append(w)
                if len(points) ** 2 > MAX_CHAIN_ENTRIES:
                    raise ResourceLimitError(
                        f"the matrix group moves at least {len(points)} vectors, and "
                        f"{len(points)}^2 exceeds MAX_CHAIN_ENTRIES = {MAX_CHAIN_ENTRIES}"
                    )
            img.append(index[w])
    return tuple(points), tuple(map(tuple, images))


def group_order(g: Group) -> int:
    """Exact |G| from g's stabilizer chain; a declared order is always checked."""
    order = prod(map(len, g._chain[2]))
    if g.declared_order is not None and g.declared_order != order:
        raise DataError(f"declared order {g.declared_order} but computed {order}")
    return order


def _counting_generators(g: Group, total: int) -> tuple:
    """Generators to count G's orbits with, on rank sets of `total` elements in all.

    Orbit counts depend only on the group generated, and each generator costs
    one image per element counted.  So a group of more than two generators is
    replaced by the first seeded random pair that generates it.  Draw i takes
    random.Random(i) and makes x and y each a product u_0 u_1 ... of one
    uniformly chosen coset representative per level of G's chain, so both
    are uniform in G and the same in every process.  A pair is accepted when
    its chain has order |G|: a subgroup of the same order is G.  A
    successful draw builds a chain as large as G's, and Schreier-Sims sifts
    a Schreier generator for each orbit point and strong generator of a
    level (up to one strong generator per level below it), each through up
    to every level; so a draw is counted as the slots of G's chain times its
    levels squared, and the draws stop once their count would pass the
    (generators - 2) x total images a pair saves, or at GENERATOR_DRAWS.
    Without an accepted pair the input generators are kept.  A matrix group
    draws among the permutations of P (`_point_action`); the matrix of a
    drawn permutation x has column c equal to the point x(e_c), P's first n
    points being the standard basis e_0..e_{n-1}.
    """
    if len(g.generators) <= 2:
        return g.generators
    points, _, chain = g._chain
    degree = len(points)
    work = degree * sum(map(len, chain)) * len(chain) ** 2
    draws = min(GENERATOR_DRAWS, (len(g.generators) - 2) * total // max(1, work))
    order = prod(map(len, chain))
    for draw in range(draws):
        rng = random.Random(draw)
        pair = tuple(reduce(_pmul, [rng.choice(list(tr.values())) for tr in chain],
                            _identity(degree)) for _ in range(2))
        if prod(map(len, _stabilizer_chain(pair, degree))) == order:
            break
    else:
        return g.generators
    if g.kind == "permutation":
        return pair
    n = g.degree
    return tuple(tuple(tuple(points[x[c]][r] for c in range(n)) for r in range(n))
                 for x in pair)


def cycle_type(perm) -> tuple:
    """Multiset of cycle lengths, descending, summing to the degree."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for s in range(n):
        if seen[s]:
            continue
        length = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@dataclass(frozen=True)
class OrbitSeries:
    """Orbit counts N_0..N_n on the rank sets; always palindromic with N_0 = N_n = 1."""

    n: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.n + 1:
            raise InternalConsistencyError("orbit series has wrong length")
        if any(v < 1 for v in self.values):
            raise InternalConsistencyError("orbit counts must be positive")
        if self.values[0] != 1 or self.values[self.n] != 1:
            raise InternalConsistencyError("orbit series must start and end at 1")
        if any(self.values[k] != self.values[self.n - k] for k in range(self.n + 1)):
            raise InternalConsistencyError("orbit series must be palindromic")


def _check_action(g: Group, spec: PosetSpec):
    if spec.kind == "boolean":
        if g.kind != "permutation" or g.degree != spec.n:
            raise DataError(
                f"group ({g.kind}, degree {g.degree}) does not act on {spec.describe()}"
            )
    else:
        if g.kind != "matrix" or g.degree != spec.n or g.q != spec.q:
            raise DataError(
                f"group ({g.kind}, degree {g.degree}, q={g.q}) does not act on {spec.describe()}"
            )


def burnside_counts(g: Group, spec: PosetSpec, cap: int | None = None) -> OrbitSeries:
    """Orbit counts as the average number of fixed k-subsets over all elements.

    Requires a permutation group matching a boolean poset with |G| at most
    the cap.  The elements are the products of one coset representative per
    level of the stabilizer chain.  Division by |G| must be exact.
    """
    if g.kind != "permutation" or spec.kind != "boolean":
        raise DataError("burnside_counts needs a permutation group on a boolean poset")
    _check_action(g, spec)
    limit = DEFAULT_GROUP_CAP if cap is None else cap
    order = group_order(g)
    if order > limit:
        raise ResourceLimitError(f"|G| = {order} exceeds the cap {limit}")
    elements = [_identity(g.degree)]
    for tr in reversed(g._chain[2]):
        elements = [_pmul(u, h) for u in tr.values() for h in elements]
    type_counts = Counter(map(cycle_type, elements))
    n = spec.n
    values = []
    for k in range(n + 1):
        total = sum(cnt * fix_count_subsets(ct, k) for ct, cnt in type_counts.items())
        quot, rem = divmod(total, order)
        if rem:
            raise InternalConsistencyError(
                f"Burnside sum {total} not divisible by |G| = {order} at k = {k}"
            )
        values.append(quot)
    return OrbitSeries(n=n, values=tuple(values))


def _check_mask_width(n: int):
    if n > 63:
        raise ResourceLimitError(f"boolean enumeration is limited to n <= 63, got n = {n}")


def _mask_dtype(n: int):
    """The narrowest unsigned type that holds n-bit masks: uint32 up to 32 bits, else uint64."""
    return np.uint32 if n <= 32 else np.uint64


def _bool_mask_array(n: int, k: int) -> np.ndarray:
    """All n-bit masks of weight k, ascending, as `_mask_dtype(n)`; built per call, never cached."""
    _check_mask_width(n)
    dtype = _mask_dtype(n)
    if k < 0 or k > n:
        return np.zeros(0, dtype=dtype)
    # row-by-row merge; only the anti-diagonal band feeding (n, k) is kept
    row = {0: np.array([0], dtype=dtype)}
    for m in range(1, n + 1):
        lo = max(0, k - (n - m))
        hi = min(k, m)
        new = {}
        for j in range(lo, hi + 1):
            parts = []
            if j in row:
                parts.append(row[j])
            if j - 1 in row:
                parts.append(row[j - 1] | dtype(1 << (m - 1)))
            new[j] = np.concatenate(parts) if len(parts) > 1 else parts[0]
        row = new
    return row[k]


def _colex_unrank(rank: int, n: int, k: int) -> int:
    """The weight-k n-bit mask at position `rank` in colex order, chosen bit by bit from the top."""
    mask = 0
    for c in reversed(range(n)):
        if k and comb(c, k) <= rank:
            rank -= comb(c, k)
            mask |= 1 << c
            k -= 1
    return mask


# elements per block of an index-map build or a search level; bounds the temporaries
_BLOCK = 1 << 14


def _index_dtype(size: int):
    return np.int32 if size < 2**31 else np.int64


@lru_cache(maxsize=8)
def _colex_tables(nbytes: int):
    """Byte-wise colex rank table, and the row step of every byte value.

    Row j of byte b holds, at column v, the colex contribution of byte value
    v at byte b when j bits are set below that byte: the sum of C(8b + t,
    j + m) over the m-th set bit t of v.  Rows are 256 apart, so a byte moves
    the row offset on by 256 times its popcount.  The position of a weight-k
    mask among all weight-k masks in ascending order (which is colex order)
    is the sum of its bytes' entries.  The binomials come from math.comb,
    and an entry adds the term of one bit of the byte value at a time, the
    row step counting the bits on the way.  An entry sums at most eight
    binomials C(c, r) with c < 64, each at most C(63, 31) < 2^63 / 8, so
    int64 holds it exactly.  Exact tables make every rank read from them
    exact, which is what lets `_ranked_images` trust a rank without looking
    up the mask stored there.
    """
    width = 8 * nbytes
    binom = np.array([[comb(c, r) for r in range(width + 9)] for c in range(width)],
                     dtype=np.int64)
    values = np.arange(256)
    rows = np.arange(width)[:, None]
    table = np.zeros((nbytes, width, 256), dtype=np.int64)
    below = np.zeros(256, dtype=np.int64)  # bits of each value below bit t
    for t in range(8):
        bit = (values >> t) & 1
        c = 8 * np.arange(nbytes)[:, None, None] + t
        table += bit * binom[c, rows + below + 1]
        below += bit
    return table.reshape(nbytes, width * 256), 256 * below


def _byte_images(perm, nbytes: int) -> np.ndarray:
    """Image of every byte value at every byte position (nbytes x 256).

    The images are masks of `_mask_dtype(8 nbytes)`: uint32 up to four bytes,
    uint64 above.
    """
    dtype = _mask_dtype(8 * nbytes)
    dst = np.zeros(8 * nbytes, dtype=dtype)
    dst[: len(perm)] = np.left_shift(dtype(1), np.array(perm, dtype=dtype))
    bits = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)
    return np.bitwise_or.reduce(
        np.where(bits, dst.reshape(nbytes, 1, 8), dtype(0)), axis=2
    )


def _ranked_images(images: np.ndarray, masks: np.ndarray, k: int, size: int) -> tuple:
    """(the images of masks under every permutation, their colex ranks), each generators x masks.

    `images` stacks the permutations' `_byte_images`: the image of a mask is
    the OR of one lookup per byte, and its rank the sum of one `_colex_tables`
    entry per byte of the image.  Every image must have weight k (the row
    offset ends at 256 k) and a rank inside 0..size-1, or the count stops
    with InternalConsistencyError: a point sent to n or beyond, or two
    points of a mask sent to one, fails here.  The tables are exact, so an
    image that passes is the weight-k mask stored at its rank.
    """
    gens, nbytes = images.shape[:2]
    colex, step = _colex_tables(nbytes)
    # little-endian views of the masks' own width, 4 or 8 bytes: column b of
    # a byte view holds bits 8b..8b+7
    width = images.dtype.itemsize
    order = f"<u{width}"
    src = masks.astype(order, copy=False).view(np.uint8).reshape(-1, width)
    img = images[:, 0].take(src[:, 0], axis=1)
    for b in range(1, nbytes):
        img |= images[:, b].take(src[:, b], axis=1)
    dst = img.astype(order, copy=False).view(np.uint8).reshape(gens, -1, width)
    idx = colex[0].take(dst[..., 0])
    row = step.take(dst[..., 0])
    for b in range(1, nbytes):
        idx += colex[b].take(row + dst[..., b])
        row += step.take(dst[..., b])
    # table entries are never negative, so idx >= 0 holds already
    if not ((row == 256 * k) & (idx < size)).all():
        raise InternalConsistencyError("permutation image left the rank set")
    return img, idx


class _Subsets:
    """Permutations of n points acting on weight-k n-bit masks, each element carried as its mask.

    Masks are `_mask_dtype(n)`, 4 bytes each up to n = 32.  `step` computes
    the images of a block of masks under every generator and their colex
    ranks from the stacked byte tables (`_ranked_images`), so neither the
    array of all masks nor an index map exists until `index_maps` builds
    both through `step`, which only a fallback does.  Ascending masks have
    ascending ranks, so a sorted frontier of masks gathers its marks in
    ascending order.
    """

    def __init__(self, perms, n: int, k: int):
        _check_mask_width(n)
        self.n, self.k, self.size = n, k, comb(n, k)
        self.images = np.stack([_byte_images(perm, (n + 7) // 8) for perm in perms])

    def first(self, rank: int) -> np.ndarray:
        return np.array([_colex_unrank(rank, self.n, self.k)], dtype=_mask_dtype(self.n))

    def step(self, frontier: np.ndarray) -> tuple:
        return _ranked_images(self.images, frontier, self.k, self.size)

    def index_maps(self) -> np.ndarray:
        """Position of the image of every element under every generator (generators x size)."""
        masks = _bool_mask_array(self.n, self.k)
        maps = np.empty((len(self.images), self.size), dtype=_index_dtype(self.size))
        for s in range(0, self.size, _BLOCK):
            maps[:, s : s + _BLOCK] = self.step(masks[s : s + _BLOCK])[1]
        return maps


def _count_components(subsets: _Subsets) -> int:
    """Number of orbits of the group generated by the generators of `subsets` on its rank set.

    Every generator acts as a permutation, so the elements reached forward
    from i form the whole orbit of i; no inverses are needed.  Phase 1 peels
    orbits one at a time by breadth-first search (`_peel_orbit`), each from
    the least index not yet seen.  It suits a few large orbits: each
    element's images are computed once.  Phase 2 is the stop rule: once an
    orbit holds less than 1/8 of what was unseen before it, the seen marks
    are dropped and `_propagate_labels` counts every orbit from scratch, on
    the index maps.  Each peel that continues removes at least 1/8 of what
    is left, so there are at most ln(size)/ln(8/7) + 1 traversals (112 for
    2.7M elements), and a fallback wastes at most one pass over the
    elements, about a third of what the propagation itself costs.
    """
    size = subsets.size
    seen = np.zeros(size, dtype=bool)
    count, left, start = 0, size, 0
    while left:
        start += int(np.argmin(seen[start:]))
        orbit = _peel_orbit(start, subsets, seen)
        if 8 * orbit < left:
            del seen
            return _propagate_labels(size, subsets.index_maps())
        count += 1
        left -= orbit
    return count


def _peel_orbit(start: int, subsets: _Subsets, seen: np.ndarray) -> int:
    """Mark the orbit of index start in seen by breadth-first search; return its size.

    The frontier holds masks, and each level takes it in blocks, computing
    the images of a block under every generator at once with their ranks.
    The unseen images are kept and marked one generator row at a time; a
    generator is injective, so the new frontier has no repeats.  The old
    frontier and the last step's output are released before the new one is
    joined, which is then sorted, in place rather than by a copying np.sort,
    so that the next level's marks are read in ascending order.
    """
    seen[start] = True
    frontier = subsets.first(start)
    orbit = 1
    while frontier.size:
        parts = []
        for s in range(0, frontier.size, _BLOCK):
            block = frontier[s : s + _BLOCK]
            ahead, ranks = subsets.step(block)
            for t in range(len(ranks)):
                new = (~seen[ranks[t]]).nonzero()[0]
                seen[ranks[t]] = True
                parts.append(ahead[t].take(new))
        del frontier, block, ahead, ranks
        frontier = np.concatenate(parts)
        del parts
        frontier.sort()
        orbit += frontier.size
    return orbit


def _propagate_labels(size: int, maps: np.ndarray) -> int:
    """Number of orbits of the index maps (generators x size) by label propagation.

    The orbits are the connected components of the graph with an edge from
    every i to each img[i].  Every label starts as its own index and each
    round starts with every label a root (its own label).  For each map whose
    images do not all carry the label of their preimage, a round lowers the
    label of each endpoint's root to the other endpoint's label, along the
    map and its inverse; then labels jump to their label's label until
    stable.  A round with no such map ends the loop: labels are then constant
    along every edge, so each orbit has exactly one root, its least element.
    """
    ids = np.arange(size, dtype=_index_dtype(size))
    labels = ids.copy()
    while True:
        before = labels.copy()
        stable = True
        for img in maps:
            ahead = labels[img]
            if np.array_equal(ahead, before):
                continue
            stable = False
            np.minimum.at(labels, before, ahead)
            np.minimum.at(labels, ahead, before)
        if stable:
            return int(np.count_nonzero(labels == ids))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def orbit_count_unionfind(g: Group, spec: PosetSpec, k: int, cap: int | None = None) -> int:
    """Exact number of generator-closure orbits on the rank-k elements.

    It counts with the generators of g as given; `inchom orbits` passes the
    pair `_counting_generators` certifies, chosen once per command.  Without
    generators every element is its own orbit.  On subsets they act on masks
    directly (`_Subsets`), and `_count_components` counts: breadth-first
    search while the orbits are large, one label propagation over the whole
    rank set once they turn small.  On subspaces each generator becomes an
    index map, built by `act` and the canonical-form index before counting
    starts, and `_propagate_labels` counts over those maps.  The rank's
    listing and that index are built for this call and freed when it returns.
    """
    _check_action(g, spec)
    size = poset._check_cap(spec, k, cap)
    if size == 0:
        raise ValueError(f"rank {k} of {spec.describe()} is empty")
    if not g.generators:
        return size

    if spec.kind == "boolean":
        return _count_components(_Subsets(g.generators, spec.n, k))
    elements = poset._rref_profiles(k, spec.n, spec.q)
    index = {x: i for i, x in enumerate(elements)}
    maps = np.stack([
        np.fromiter((index[act(mat, x, spec)] for x in elements),
                    dtype=_index_dtype(size), count=size)
        for mat in g.generators
    ])
    return _propagate_labels(size, maps)


def act(element, x, spec: PosetSpec):
    """Image of the rank element x under a group element, re-canonicalized.

    Matrix elements act on row vectors v by v -> v g^T, so that composing
    group elements by matrix product gives a left action on subspaces.
    """
    if spec.kind == "boolean":
        mask = int(x)
        out = 0
        for src, dst in enumerate(element):
            if (mask >> src) & 1:
                out |= 1 << dst
        return out
    F = gf.field(spec.q)
    moved = tuple(tuple(F.dot(row, grow) for grow in element) for row in x)
    out = gf.rref(moved, spec.n, F)
    if len(out) != len(x):
        raise InternalConsistencyError("matrix action changed the rank of a subspace")
    return out
