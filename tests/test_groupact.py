import gc
import importlib
import itertools
import json
import random
import tracemalloc
from dataclasses import replace
from functools import reduce
from math import comb, factorial, gcd, prod
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import closure, corpus, matmul, matrix_closure, pmul
from inchom.chartab import dump_table, fix_count_subsets, load_table, sn_table
from inchom.cli import data_text, main
from inchom.gf import field, rref
from inchom import groupact
from inchom.errors import DataError, InternalConsistencyError, ResourceLimitError
from inchom.groupact import (
    Group,
    _bool_mask_array,
    _count_components,
    _propagate_labels,
    act,
    burnside_counts,
    cycle_type,
    cycles_of,
    group_order,
    orbit_count_unionfind,
    parse_cycles,
    parse_group,
)
from inchom.poset import PosetSpec, enumerate_rank


def test_parse_cycles():
    assert parse_cycles("(1,2,3)(4,5)", 5) == (1, 2, 0, 4, 3)
    assert parse_cycles("()", 4) == (0, 1, 2, 3)
    assert parse_cycles("(2,4)", 4) == (0, 3, 2, 1)
    with pytest.raises(DataError):
        parse_cycles("(1,2)(2,3)", 4)
    with pytest.raises(DataError):
        parse_cycles("(1,9)", 4)
    with pytest.raises(DataError):
        parse_cycles("(1,2", 4)


def test_cycles_roundtrip():
    for text in ("(1,2,3)(4,5)", "(1,24)(2,23)", "()"):
        degree = 24
        assert cycles_of(parse_cycles(text, degree)) == text.replace(" ", "") or parse_cycles(
            cycles_of(parse_cycles(text, degree)), degree
        ) == parse_cycles(text, degree)


def test_parse_group_files():
    s4 = parse_group(data_text("s4.json"))
    assert s4.kind == "permutation" and s4.degree == 4 and len(s4.generators) == 2
    m24 = parse_group(data_text("m24.json"))
    assert m24.degree == 24 and m24.declared_order == 244823040
    with pytest.raises(DataError):
        parse_group("not json")
    with pytest.raises(DataError):
        parse_group(json.dumps({"kind": "permutation", "degree": 4, "generators": []}))
    with pytest.raises(DataError):
        parse_group(json.dumps({"kind": "permutation", "degree": 4,
                                "generators": ["(1,2)(2,3)"]}))


_ONE_POINT = {"kind": "permutation", "degree": 1, "generators": ["()"]}
_ONE_BY_ONE = {"kind": "matrix", "n": 1, "q": 2, "generators": [[[1]]]}


@pytest.mark.parametrize("field", ["degree", "order", "n", "q", "entry", "group_order", "size",
                                   "cycle_type"])
def test_json_true_is_not_a_number(field):
    # JSON true is the int 1 to Python, which is a valid degree, order,
    # dimension, entry, group order, class size and cycle length; q = 1 was
    # already refused
    table = json.loads(dump_table(sn_table(1)))
    if field == "group_order":
        table["group_order"] = True
    if field == "size":
        table["classes"][0]["size"] = True
    if field == "cycle_type":
        table["classes"][0]["cycle_type"] = [True]
    docs = {"degree": _ONE_POINT | {"degree": True},
            "order": _ONE_POINT | {"order": True},
            "n": _ONE_BY_ONE | {"n": True},
            "q": _ONE_BY_ONE | {"q": True},
            "entry": _ONE_BY_ONE | {"generators": [[[True]]]}}
    load = parse_group if field in docs else load_table
    with pytest.raises(DataError, match="True"):
        load(json.dumps(docs.get(field, table)))


def test_parse_matrix_group():
    doc = {"kind": "matrix", "n": 2, "q": 3,
           "generators": [[[0, 1], [2, 0]], [[1, 1], [0, 1]]]}
    g = parse_group(json.dumps(doc))
    assert g.kind == "matrix" and g.q == 3
    singular = {"kind": "matrix", "n": 2, "q": 3, "generators": [[[1, 1], [2, 2]]]}
    with pytest.raises(DataError):
        parse_group(json.dumps(singular))
    unsupported = {"kind": "matrix", "n": 2, "q": 6, "generators": [[[1, 0], [0, 1]]]}
    with pytest.raises(DataError):
        parse_group(json.dumps(unsupported))
    with pytest.raises(DataError, match="unsupported field size q = 6"):
        replace(g, q=6)


def test_group_order_examples():
    assert group_order(parse_group(data_text("s4.json"))) == 24
    assert group_order(parse_group(data_text("c4.json"))) == 4
    assert group_order(parse_group(data_text("d10.json"))) == 20


def test_group_order_m24():
    order = group_order(parse_group(data_text("m24.json")))
    assert order == 244823040
    assert order == 2**10 * 3**3 * 5 * 7 * 11 * 23


def _chain_elements(g):
    """The products u_0 u_1 ... of one representative per level of the stabilizer chain."""
    elements = [tuple(range(g.degree))]
    for tr in reversed(groupact._stabilizer_chain(g.generators, g.degree)):
        elements = [pmul(u, h) for u in tr.values() for h in elements]
    return elements


def test_group_order_matches_closure_on_corpus():
    for name, g, _, _, _ in corpus():
        elements = closure(list(g.generators))
        assert group_order(g) == len(elements), name
        assert sorted(_chain_elements(g)) == elements, name


def _alternating(n):
    """A_n by a 3-cycle and an (n-1)- or n-cycle, whichever is even."""
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2:
        return (three, tuple(range(1, n)) + (0,))
    return (three, (0,) + tuple(range(2, n)) + (1,))


@pytest.mark.parametrize("n", range(2, 25))
def test_symmetric_and_alternating_orders(n):
    assert group_order(_symmetric_on(n, n)) == factorial(n)
    if n >= 3:
        g = Group(kind="permutation", degree=n, generators=_alternating(n))
        assert group_order(g) == factorial(n) // 2


def test_bundled_permutation_groups_have_their_declared_orders():
    from importlib import resources

    checked = []
    for path in sorted(resources.files("inchom.data").iterdir(), key=lambda f: f.name):
        doc = json.loads(path.read_text())
        if doc.get("kind") == "permutation":
            g = parse_group(path.read_text())
            assert g.declared_order is not None and group_order(g) == g.declared_order, path.name
            checked.append(path.name)
    assert checked == ["c4.json", "d10.json", "m24.json", "s4.json"]


def test_group_order_rejects_bad_declared():
    doc = {"kind": "permutation", "degree": 4, "generators": ["(1,2,3,4)"], "order": 5}
    with pytest.raises(DataError):
        group_order(parse_group(json.dumps(doc)))


def _gl32(order=None):
    doc = {"kind": "matrix", "n": 3, "q": 2,
           "generators": [[[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                          [[1, 1, 0], [0, 1, 0], [0, 0, 1]]]}
    return parse_group(json.dumps(doc | ({} if order is None else {"order": order})))


def test_matrix_group_order_checks_the_declared_order():
    assert group_order(_gl32()) == group_order(_gl32(168)) == 168
    with pytest.raises(DataError, match="declared order 169 but computed 168"):
        group_order(_gl32(169))


@st.composite
def matrix_groups(draw):
    """Random invertible generators over GF(2), GF(3) or GF(4) in dimension n <= 3.

    Two random generators in GL(3, 4) almost always generate the whole group,
    whose 181,440 elements the closure oracle would list at seconds per
    example, so there one generator is drawn.
    """
    q = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 3))
    F = field(q)
    square = st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                      min_size=n, max_size=n)
    invertible = square.filter(lambda m: len(rref(m, n, F)) == n)
    count = 1 if (n, q) == (3, 4) else draw(st.integers(1, 2))
    return q, draw(st.lists(invertible, min_size=count, max_size=count))


@settings(max_examples=60, deadline=None)
@given(matrix_groups())
def test_matrix_group_order_matches_closure(case):
    q, gens = case
    g = parse_group(json.dumps({"kind": "matrix", "n": len(gens[0]), "q": q,
                                "generators": gens}))
    assert group_order(g) == len(matrix_closure(g.generators, field(q)))


def _gl_order(n, q):
    return prod(q**n - q**i for i in range(n))


def test_matrix_group_orders_of_the_benchmark_groups(monkeypatch):
    # GL(a, q) x GL(b, q) in a random basis, as the benchmark writes them,
    # with the declared order checked; GL(3, 3)^2 has 126,157,824 elements
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    rng = random.Random(0)
    for a, b, q in [(2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 2), (3, 3, 3)]:
        spec = workloads.MatrixGroup(a, b, q)
        g = parse_group(workloads.matrix_group_file(spec, rng))
        assert group_order(g) == _gl_order(a, q) * _gl_order(b, q) == g.declared_order
    assert g.declared_order == 126_157_824


def test_matrix_group_order_over_gf4_in_dimension_3():
    # GL(3, 4) from the adjacent transvections and diag(x, 1, 1), x of order 3
    gens = [[[int(i == j) for j in range(3)] for i in range(3)] for _ in range(5)]
    gens[0][0][0] = 2
    for t, (r, c) in enumerate([(0, 1), (1, 0), (1, 2), (2, 1)], start=1):
        gens[t][r][c] = 1
    g = parse_group(json.dumps({"kind": "matrix", "n": 3, "q": 4, "generators": gens}))
    assert group_order(g) == _gl_order(3, 4) == 181_440


def test_chain_bound_refuses(monkeypatch):
    # the chain of S_8 stores 8 + 7 + ... + 2 = 35 representatives of 8 points;
    # GL(3, 2) moves the 7 nonzero vectors of GF(2)^3, and 7^2 > 40
    monkeypatch.setattr(groupact, "MAX_CHAIN_ENTRIES", 40)
    with pytest.raises(ResourceLimitError, match="over MAX_CHAIN_ENTRIES = 40"):
        group_order(_symmetric_on(8, 8))
    with pytest.raises(ResourceLimitError, match="7\\^2 exceeds MAX_CHAIN_ENTRIES = 40"):
        group_order(_gl32())
    monkeypatch.setattr(groupact, "MAX_CHAIN_ENTRIES", 35 * 8)
    assert group_order(_symmetric_on(8, 8)) == factorial(8)


def test_chain_bound_admits_m24_and_s64():
    # each Group builds its own chain, so the bound is checked while it is built
    assert group_order(parse_group(data_text("m24.json"))) == 244823040
    assert group_order(_symmetric_on(64, 64)) == factorial(64)


def test_chain_bound_holds_after_an_equal_group_was_computed(monkeypatch):
    # a fresh Group builds its own chain and point action, so what an equal
    # group computed before cannot get past a lowered bound
    assert group_order(_symmetric_on(8, 8)) == factorial(8)
    assert group_order(_gl32()) == 168
    monkeypatch.setattr(groupact, "MAX_CHAIN_ENTRIES", 40)
    with pytest.raises(ResourceLimitError, match="over MAX_CHAIN_ENTRIES = 40"):
        group_order(_symmetric_on(8, 8))
    with pytest.raises(ResourceLimitError, match="7\\^2 exceeds MAX_CHAIN_ENTRIES = 40"):
        group_order(_gl32())


def test_no_cache_is_keyed_by_generators():
    # chains and point actions live on their Group; the only module-level
    # cache is keyed by a byte count
    cached = [name for name, obj in vars(groupact).items()
              if hasattr(obj, "cache_info") and obj.__module__ == groupact.__name__]
    assert cached == ["_colex_tables"]


def test_cycle_type():
    assert cycle_type((0, 1, 2, 3, 4)) == (1, 1, 1, 1, 1)
    assert cycle_type((1, 0, 3, 2, 4)) == (2, 2, 1)
    assert cycle_type((1, 2, 3, 0)) == (4,)


def test_fix_count_subsets():
    assert fix_count_subsets((1, 1, 1, 1, 1), 2) == 10
    assert fix_count_subsets((2, 2, 1), 2) == 2
    assert fix_count_subsets((4,), 2) == 0
    assert fix_count_subsets((3, 2), 7) == 0
    with pytest.raises(ValueError):
        fix_count_subsets((2, 1), -1)


def test_burnside_examples():
    b4 = PosetSpec.boolean(4)
    assert burnside_counts(parse_group(data_text("c4.json")), b4).values == (1, 1, 2, 1, 1)
    assert burnside_counts(parse_group(data_text("s4.json")), b4).values == (1, 1, 1, 1, 1)
    triv = parse_group(json.dumps({"kind": "permutation", "degree": 3, "generators": ["()"]}))
    assert burnside_counts(triv, PosetSpec.boolean(3)).values == (1, 3, 3, 1)


def test_burnside_kind_mismatch():
    with pytest.raises(DataError):
        burnside_counts(parse_group(data_text("c4.json")), PosetSpec.boolean(5))
    with pytest.raises(DataError):
        burnside_counts(parse_group(data_text("c4.json")), PosetSpec.projective(4, 2))


def brute_orbit_count(gens, elems, apply):
    """Independent oracle: orbit partition by breadth-first search."""
    remaining = set(elems)
    count = 0
    for x in elems:
        if x not in remaining:
            continue
        count += 1
        frontier = [x]
        remaining.discard(x)
        while frontier:
            y = frontier.pop()
            for g in gens:
                z = apply(g, y)
                if z in remaining:
                    remaining.discard(z)
                    frontier.append(z)
    return count


def test_unionfind_matches_brute_force_boolean():
    spec = PosetSpec.boolean(6)
    for name, g, _, _, deg in corpus():
        if deg != 6:
            continue
        for k in range(7):
            got = orbit_count_unionfind(g, PosetSpec.boolean(6), k)
            want = brute_orbit_count(
                g.generators,
                enumerate_rank(spec, k),
                lambda p, m: act(p, m, spec),
            )
            assert got == want, (name, k)


def test_unionfind_vectorized_path_agrees():
    # C(20, 10) = 184756 elements spans many blocks of the image stage
    rot = tuple((i + 1) % 20 for i in range(20))
    doc = {"kind": "permutation", "degree": 20,
           "generators": [cycles_of(rot)]}
    g = parse_group(json.dumps(doc))
    spec = PosetSpec.boolean(20)
    got = orbit_count_unionfind(g, spec, 10)
    series = burnside_counts(g, spec)
    assert got == series.values[10]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14).flatmap(
    lambda n: st.tuples(
        st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3),
        st.integers(0, n),
    )
))
def test_unionfind_matches_brute_force_random_generators(case):
    gens, k = case
    n = len(gens[0])
    spec = PosetSpec.boolean(n)
    g = Group(kind="permutation", degree=n, generators=tuple(gens))
    want = brute_orbit_count(gens, enumerate_rank(spec, k), lambda p, m: act(p, m, spec))
    assert orbit_count_unionfind(g, spec, k) == want


@pytest.mark.parametrize("n", [33, 63])
def test_unionfind_many_byte_tables(n):
    # degree 33 needs five byte tables, degree 63 eight
    rng = random.Random(n)
    gens = []
    for _ in range(2):
        perm = list(range(n))
        rng.shuffle(perm)
        gens.append(tuple(perm))
    gens.append(tuple(range(1, 11)) + (0,) + tuple(range(11, n)))
    g = Group(kind="permutation", degree=n, generators=tuple(gens))
    spec = PosetSpec.boolean(n)
    for k in range(3):
        want = brute_orbit_count(gens, enumerate_rank(spec, k), lambda p, m: act(p, m, spec))
        assert orbit_count_unionfind(g, spec, k) == want, k
    cyclic = Group(kind="permutation", degree=n,
                   generators=(tuple((i + 1) % n for i in range(n)),))
    series = burnside_counts(cyclic, spec)
    assert [orbit_count_unionfind(cyclic, spec, k) for k in range(3)] == list(series.values[:3])


def _necklaces(n, k):
    """Orbits of C_n on the k-subsets of n points: sum of phi(d) C(n/d, k/d) over d | gcd(n, k), over n."""
    def phi(d):
        return sum(gcd(d, i) == 1 for i in range(1, d + 1))
    g = gcd(n, k)
    return sum(phi(d) * comb(n // d, k // d) for d in range(1, g + 1) if g % d == 0) // n


def _bracelets(n, k):
    """Orbits of D_n on the k-subsets: necklaces, plus the mean count the n reflections fix, over 2."""
    if n % 2:  # every reflection fixes one point and swaps (n - 1)/2 pairs
        fixed = n * comb((n - 1) // 2, k // 2)
    else:  # n/2 fix two points and swap (n - 2)/2 pairs, n/2 swap n/2 pairs
        through_points = sum(comb(2, j) * comb((n - 2) // 2, (k - j) // 2)
                             for j in range(min(k, 2) + 1) if j % 2 == k % 2)
        through_edges = comb(n // 2, k // 2) if k % 2 == 0 else 0
        fixed = n // 2 * (through_points + through_edges)
    return (n * _necklaces(n, k) + fixed) // (2 * n)


def test_closed_forms_by_hand():
    assert [_necklaces(6, k) for k in range(7)] == [1, 1, 3, 4, 3, 1, 1]
    assert [_bracelets(6, k) for k in range(7)] == [1, 1, 3, 3, 3, 1, 1]
    assert [_bracelets(5, k) for k in range(6)] == [1, 1, 2, 2, 1, 1]


@pytest.mark.parametrize("n", [32, 33])
def test_counts_at_the_mask_width_boundary(n):
    # 32 points are the widest uint32 masks, with bit 31 in use; 33 the first
    # uint64 ones; k = 1 peels one orbit, k = 2, 3 fall back to label propagation
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple(-i % n for i in range(n))
    spec = PosetSpec.boolean(n)
    cyclic = Group(kind="permutation", degree=n, generators=(rotation,))
    dihedral = Group(kind="permutation", degree=n, generators=(rotation, reflection))
    for k in range(4):
        assert orbit_count_unionfind(cyclic, spec, k) == _necklaces(n, k), k
        assert orbit_count_unionfind(dihedral, spec, k) == _bracelets(n, k), k


def _colex_rank(mask):
    """Position of mask among the masks of its weight in ascending order: sum of C(c_m, m)."""
    bits = [c for c in range(mask.bit_length()) if mask >> c & 1]
    return sum(comb(c, m) for m, c in enumerate(bits, 1))


def test_ranked_images_with_bit_31_set():
    n = 32
    rng = random.Random(31)
    perm = list(range(n))
    rng.shuffle(perm)
    spec = PosetSpec.boolean(n)
    for k in (1, 2, 5, 16, 31, 32):
        masks = [1 << 31 | sum(1 << c for c in rng.sample(range(31), k - 1)) for _ in range(50)]
        for p in (tuple(range(n)), tuple(perm)):
            want = [act(p, m, spec) for m in masks]
            img, idx = groupact._ranked_images(
                groupact._byte_images(p, 4)[None], np.array(masks, dtype=np.uint32), k, comb(n, k))
            assert img.dtype == np.uint32 and img.tolist() == [want], k
            assert idx.tolist() == [[_colex_rank(m) for m in want]], k


@pytest.mark.parametrize("n,k", [(12, 6), (33, 2), (63, 1)])
def test_boolean_index_map_matches_searchsorted(n, k):
    perm = list(range(n))
    random.Random(7).shuffle(perm)
    masks = _bool_mask_array(n, k)
    images = np.array([act(perm, int(m), PosetSpec.boolean(n)) for m in masks], dtype=np.uint64)
    got = groupact._Subsets((perm,), n, k).index_maps()
    assert got.dtype == np.int32 and got.shape == (1, masks.size)
    assert np.array_equal(got[0], np.searchsorted(masks, images))


@pytest.mark.parametrize("bad", [(0, 0, 2), (0, 1, 5), (2, 3, 1)])
def test_image_outside_rank_set_is_caught(bad):
    # not permutations of 0..2: two points merge, or a point leaves the 3-set;
    # Group refuses them, so they reach the counter below it
    with pytest.raises(InternalConsistencyError):
        _count_components(groupact._Subsets((bad,), 3, 2))


@pytest.mark.parametrize("gens", [
    ((3, 2, 2, 2), (1, 2, 3, 0)),  # merges points; on 1-subsets it would hang the counter
    ((0, 1, 2),),  # too short
    ((0, 1, 2, 4),),  # a point outside 0..3
    ((1, 0, 3, 2), (0, 1, 2, 3, 4)),  # too long
])
def test_a_generator_that_is_not_a_permutation_is_refused(gens):
    with pytest.raises(DataError, match="is not a permutation of 0..3"):
        Group(kind="permutation", degree=4, generators=gens)
    g = Group(kind="permutation", degree=4, generators=((1, 2, 3, 0),))
    with pytest.raises(DataError, match="is not a permutation"):
        replace(g, generators=gens)


def test_an_unknown_group_kind_is_refused():
    # any kind but "permutation" was taken for a matrix group, and
    # group_order then failed on q = 0 with a ValueError
    with pytest.raises(DataError, match="unknown group kind 'perm'"):
        Group(kind="perm", degree=3, generators=((1, 2, 0),))
    g = Group(kind="permutation", degree=3, generators=((1, 2, 0),))
    with pytest.raises(DataError, match="unknown group kind 'perm'"):
        replace(g, kind="perm")


@pytest.mark.parametrize("gens,match", [
    # with the swap, the singular matrix made group_order return |G| = 2
    ((((1, 1), (0, 0)), ((0, 1), (1, 0))), r"generator 1: matrix is singular over GF\(2\)"),
    ((((1, 0, 0), (0, 1, 0)),), "generator 1: matrix is not 2x2"),
    ((((0, 1), (1, 0)), ((5, 0), (0, 1))), "generator 2: entry 5 outside 0..1"),
])
def test_a_matrix_generator_that_is_not_invertible_is_refused(gens, match):
    with pytest.raises(DataError, match=match):
        Group(kind="matrix", degree=2, q=2, generators=gens)
    g = Group(kind="matrix", degree=2, q=2, generators=(((0, 1), (1, 0)),))
    assert group_order(g) == 2
    with pytest.raises(DataError, match=match):
        replace(g, generators=gens)


# (n, q, generators) of small matrix groups acting on projective:n,q
MATRIX_GROUPS = [
    (3, 2, [[[0, 1, 0], [0, 0, 1], [1, 0, 0]]]),
    (3, 3, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[2, 0, 0], [0, 1, 0], [0, 0, 1]]]),
    (4, 2, [[[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]]),
    (2, 4, [[[2, 0], [0, 1]], [[1, 1], [0, 1]]]),
]


def test_unionfind_matrix_groups_match_brute_force():
    for n, q, gens in MATRIX_GROUPS:
        g = parse_group(json.dumps({"kind": "matrix", "n": n, "q": q, "generators": gens}))
        spec = PosetSpec.projective(n, q)
        for k in range(n + 1):
            want = brute_orbit_count(
                g.generators, enumerate_rank(spec, k), lambda m, x: act(m, x, spec)
            )
            assert orbit_count_unionfind(g, spec, k) == want, (n, q, k)


def test_unionfind_projective():
    gl32 = parse_group(json.dumps({
        "kind": "matrix", "n": 3, "q": 2,
        "generators": [[[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                       [[1, 1, 0], [0, 1, 0], [0, 0, 1]]],
    }))
    spec = PosetSpec.projective(3, 2)
    assert orbit_count_unionfind(gl32, spec, 0) == 1
    assert orbit_count_unionfind(gl32, spec, 1) == 1
    assert orbit_count_unionfind(gl32, spec, 2) == 1
    identity_only = parse_group(json.dumps({
        "kind": "matrix", "n": 3, "q": 2,
        "generators": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
    }))
    assert orbit_count_unionfind(identity_only, spec, 1) == 7


def test_act_permutation():
    spec = PosetSpec.boolean(4)
    g = parse_cycles("(1,2,3)", 4)
    assert act(g, 0b0011, spec) == 0b0110


def test_act_matrix_is_left_action():
    spec = PosetSpec.projective(3, 3)
    g = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    h = ((1, 1, 0), (0, 1, 0), (0, 0, 2))
    gh = matmul(g, h, field(3))
    for k in (1, 2):
        for x in enumerate_rank(spec, k)[:25]:
            assert act(gh, x, spec) == act(g, act(h, x, spec), spec)
            assert len(act(g, x, spec)) == k


def test_act_identity_matrix_fixes():
    spec = PosetSpec.projective(4, 2)
    ident = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    for x in enumerate_rank(spec, 2)[:20]:
        assert act(ident, x, spec) == x


def test_orbit_series_palindromic_on_corpus():
    for name, g, _, _, deg in corpus():
        series = burnside_counts(g, PosetSpec.boolean(deg))
        assert series.values == series.values[::-1], name
        assert series.values[0] == series.values[-1] == 1, name


def test_orbit_series_livingstone_wagner_on_corpus():
    from inchom.inequal import check_lw

    for name, g, _, _, deg in corpus():
        series = burnside_counts(g, PosetSpec.boolean(deg))
        assert check_lw(series).passed, name


def test_matrix_group_over_gf4():
    # diag(x, 1) with x a generator of GF(4)* has order 3; on the projective
    # line it fixes [1:0] and [0:1] and 3-cycles the remaining points
    g = parse_group(json.dumps({
        "kind": "matrix", "n": 2, "q": 4,
        "generators": [[[2, 0], [0, 1]]],
    }))
    assert group_order(g) == 3
    spec = PosetSpec.projective(2, 4)
    assert orbit_count_unionfind(g, spec, 1) == 3


def test_act_is_group_action_sampled_permutations():
    spec = PosetSpec.boolean(5)
    g = parse_cycles("(1,2,3,4,5)", 5)
    h = parse_cycles("(1,2)", 5)
    gh = pmul(g, h)
    for x in enumerate_rank(spec, 2):
        assert act(gh, x, spec) == act(g, act(h, x, spec), spec)


@st.composite
def permutation_groups(draw, max_degree=14):
    """Generators that each permute a random subset of the n <= max_degree points.

    Supports of every size give groups with one orbit per rank as well as
    groups with many small orbits, so both phases of the counter run.
    """
    n = draw(st.integers(1, max_degree))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.lists(st.integers(0, n - 1), unique=True))
        perm = list(range(n))
        for src, dst in zip(support, draw(st.permutations(support))):
            perm[src] = dst
        gens.append(tuple(perm))
    return gens


@settings(max_examples=40, deadline=None)
@given(permutation_groups())
def test_counter_phases_agree_with_brute_force(gens):
    n = len(gens[0])
    spec = PosetSpec.boolean(n)
    for k in range(n + 1):
        subsets = groupact._Subsets(gens, n, k)
        want = brute_orbit_count(gens, enumerate_rank(spec, k), lambda p, m: act(p, m, spec))
        assert _count_components(subsets) == want, k
        assert _propagate_labels(subsets.size, subsets.index_maps()) == want, k


@settings(max_examples=40, deadline=None)
@given(permutation_groups(6), permutation_groups(6))
def test_chain_of_a_direct_product(a_gens, b_gens):
    # A x B acts on the disjoint union of their points; its elements are all pairs
    a, b = len(a_gens[0]), len(b_gens[0])
    gens = ([x + tuple(range(a, a + b)) for x in a_gens]
            + [tuple(range(a)) + tuple(a + v for v in y) for y in b_gens])
    g = Group(kind="permutation", degree=a + b, generators=tuple(gens))
    a_elements, b_elements = closure(a_gens), closure(b_gens)
    assert group_order(g) == len(a_elements) * len(b_elements)
    want = sorted(x + tuple(a + v for v in y) for x in a_elements for y in b_elements)
    assert sorted(_chain_elements(g)) == want


@pytest.fixture
def counter_spy(monkeypatch):
    """Record the size of each orbit the counter peels and each fallback it takes."""
    record = {"peeled": [], "fallbacks": 0}
    peel, propagate = groupact._peel_orbit, groupact._propagate_labels

    def peeling(start, subsets, seen):
        size = peel(start, subsets, seen)
        record["peeled"].append(size)
        return size

    def falling_back(size, maps):
        record["fallbacks"] += 1
        return propagate(size, maps)

    monkeypatch.setattr(groupact, "_peel_orbit", peeling)
    monkeypatch.setattr(groupact, "_propagate_labels", falling_back)
    return record


def _symmetric_on(m, n):
    """S_m on the first m of n points, by an m-cycle and a transposition."""
    cycle = tuple(range(1, m)) + (0,) + tuple(range(m, n))
    swap = (1, 0) + tuple(range(2, n))
    return Group(kind="permutation", degree=n, generators=(cycle, swap))


def test_counter_peels_only_for_the_symmetric_group(counter_spy):
    g = _symmetric_on(8, 8)
    spec = PosetSpec.boolean(8)
    series = burnside_counts(g, spec)
    for k in range(9):
        counter_spy["peeled"].clear()
        assert orbit_count_unionfind(g, spec, k) == series.values[k] == 1
        assert counter_spy["peeled"] == [comb(8, k)], k
    assert counter_spy["fallbacks"] == 0


@pytest.mark.parametrize("g,n,k", [
    (Group(kind="permutation", degree=6, generators=(tuple(range(6)),)), 6, 3),
    (Group(kind="permutation", degree=20,
           generators=(tuple((i + 1) % 20 for i in range(20)),)), 20, 10),
])
def test_counter_falls_back_after_one_small_orbit(counter_spy, g, n, k):
    # the trivial group on 20 sets of size 3, and C_20 on 184,756 sets of size 10
    spec = PosetSpec.boolean(n)
    assert orbit_count_unionfind(g, spec, k) == burnside_counts(g, spec).values[k]
    assert len(counter_spy["peeled"]) == 1 and counter_spy["fallbacks"] == 1


def test_counter_falls_back_after_large_orbits(counter_spy):
    # S_8 fixing 4 of 12 points: the 4-sets inside the moved points form one
    # orbit of 70, then those with one fixed point orbits of 56 and those with
    # two orbits of 28.  Peels continue while an orbit holds at least 1/8 of
    # what is left (70 of 495, 56 of 425, 56 of 369); 28 of 313 is too little.
    g = _symmetric_on(8, 12)
    spec = PosetSpec.boolean(12)
    assert orbit_count_unionfind(g, spec, 4) == burnside_counts(g, spec).values[4] == 16
    assert counter_spy["peeled"] == [70, 56, 56, 28] and counter_spy["fallbacks"] == 1


def test_counter_builds_no_chain(draw_spy, monkeypatch):
    # S_63 from a 63-cycle, (1,2) and (2,3): the counter counts with the three
    # generators it is given, so it builds no stabilizer chain and draws nothing
    def building(gens, n):
        raise AssertionError("the counter built a stabilizer chain")

    monkeypatch.setattr(groupact, "_stabilizer_chain", building)
    cycle = tuple((i + 1) % 63 for i in range(63))
    swaps = [(1, 0) + tuple(range(2, 63)), (0, 2, 1) + tuple(range(3, 63))]
    g = Group(kind="permutation", degree=63, generators=(cycle, *swaps))
    assert orbit_count_unionfind(g, PosetSpec.boolean(63), 3) == 1
    assert draw_spy == []


def test_counter_without_generators():
    # no map moves anything, so every element is its own orbit
    g = Group(kind="permutation", degree=6, generators=())
    assert [orbit_count_unionfind(g, PosetSpec.boolean(6), k) for k in range(7)] == [
        comb(6, k) for k in range(7)]


# the 26 classes of M24 as (cycle type on the 24 points, centralizer order)
M24_CLASSES = [
    ((1,) * 24, 244823040), ((2,) * 8 + (1,) * 8, 21504), ((2,) * 12, 7680),
    ((3,) * 6 + (1,) * 6, 1080), ((3,) * 8, 504), ((4,) * 4 + (2,) * 4, 384),
    ((4,) * 4 + (2,) * 2 + (1,) * 4, 128), ((4,) * 6, 96), ((5,) * 4 + (1,) * 4, 60),
    ((6, 6, 3, 3, 2, 2, 1, 1), 24), ((6,) * 4, 24), ((7, 7, 7, 1, 1, 1), 42),
    ((7, 7, 7, 1, 1, 1), 42), ((8, 8, 4, 2, 1, 1), 16), ((10, 10, 2, 2), 20),
    ((11, 11, 1, 1), 11), ((12, 6, 4, 2), 12), ((12, 12), 12), ((14, 7, 2, 1), 14),
    ((14, 7, 2, 1), 14), ((15, 5, 3, 1), 15), ((15, 5, 3, 1), 15), ((21, 3), 21),
    ((21, 3), 21), ((23, 1), 23), ((23, 1), 23),
]


def test_m24_counts_without_label_propagation(monkeypatch):
    # every rank of M24 is a few large orbits, so the counter must never fall
    # back, and the search on masks builds neither the mask array nor an
    # index map; the counts must match Burnside over the class sizes of M24
    order = 244823040
    assert sum(order // c for _, c in M24_CLASSES) == order

    def refuse(name):
        def refusing(*args):
            raise AssertionError(f"{name} ran during the search")
        return refusing

    for name in ("_propagate_labels", "_bool_mask_array"):
        monkeypatch.setattr(groupact, name, refuse(name))
    g = parse_group(data_text("m24.json"))
    spec = PosetSpec.boolean(24)
    for k in range(13):
        fixed = sum(order // c * fix_count_subsets(t, k) for t, c in M24_CLASSES)
        assert orbit_count_unionfind(g, spec, k) * order == fixed, k
    monkeypatch.undo()

    # C_20 on the 10-subsets of 20 points falls back: it builds the masks once,
    # ranks their images into the map of its one generator, and propagates
    # labels over it
    calls = []
    for name in ("_propagate_labels", "_bool_mask_array"):
        def spying(*args, _f=getattr(groupact, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(groupact, name, spying)
    c20 = Group(kind="permutation", degree=20, generators=(tuple((i + 1) % 20 for i in range(20)),))
    spec = PosetSpec.boolean(20)
    assert orbit_count_unionfind(c20, spec, 10) == burnside_counts(c20, spec).values[10]
    assert calls == ["_bool_mask_array", "_propagate_labels"]


def test_m24_search_peak_memory():
    # rank 11 of M24 (2,496,144 subsets) is three orbits, all searched: numpy's
    # traced peak is the seen marks and the next frontier twice (its parts and
    # their concatenation), about 7.5 MiB with uint32 masks, the previous
    # frontier released and the new one sorted in place; keeping the previous
    # frontier reads 8.2 MiB, a copying np.sort 8.04 MiB, uint64 masks 11.3 MiB
    g = parse_group(data_text("m24.json"))
    pair = replace(g, generators=groupact._counting_generators(g, comb(24, 11)))
    assert len(pair.generators) == 2
    groupact._colex_tables(3)
    tracemalloc.start()
    try:
        count = orbit_count_unionfind(pair, PosetSpec.boolean(24), 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 3
    assert peak < 8 * 2**20, peak


# ---------------------------------------------------------------- colex ranks of masks


def test_colex_unrank_matches_the_mask_array():
    for n in range(17):
        for k in range(n + 1):
            masks = _bool_mask_array(n, k).tolist()
            assert [groupact._colex_unrank(i, n, k) for i in range(len(masks))] == masks, (n, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 63).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(0, comb(n, k) - 1))))))
def test_colex_unrank_round_trips_through_the_ranks(case):
    n, (k, i) = case
    mask = groupact._colex_unrank(i, n, k)
    assert mask.bit_count() == k and mask < 1 << n
    identity = groupact._byte_images(tuple(range(n)), (n + 7) // 8)
    img, idx = groupact._ranked_images(identity[None], np.array([mask], dtype=np.uint64), k,
                                       comb(n, k))
    assert img.tolist() == [[mask]] and idx.tolist() == [[i]]


def test_colex_tables_are_checked_entry_by_entry():
    # pure-Python oracle: entry (b, j, v) is the sum of C(8b + t, j + m) over
    # the m-th set bit t of v, and the row step of v is 256 times its popcount
    step = [256 * v.bit_count() for v in range(256)]
    bits = [[t for t in range(8) if v >> t & 1] for v in range(256)]
    for nbytes in range(1, 9):
        width = 8 * nbytes
        want = [[sum(comb(8 * b + t, j + m) for m, t in enumerate(bits[v], 1))
                 for j in range(width) for v in range(256)] for b in range(nbytes)]
        table, got_step = groupact._colex_tables(nbytes)
        assert table.dtype == np.int64 and table.tolist() == want, nbytes
        assert got_step.tolist() == step, nbytes


def _with_a_rank(gens):
    """gens, and a rank of their degree with at most 20,000 subsets."""
    n = len(gens[0])
    return st.tuples(st.just(gens),
                     st.sampled_from([k for k in range(n + 1) if comb(n, k) <= 20_000]))


@settings(max_examples=60, deadline=None)
@given(permutation_groups(40).flatmap(_with_a_rank))
def test_search_on_masks_counts_as_the_index_maps_do(case):
    # degrees up to 40 need up to five byte tables
    gens, k = case
    subsets = groupact._Subsets(gens, len(gens[0]), k)
    assert _count_components(subsets) == _propagate_labels(subsets.size, subsets.index_maps())


# ---------------------------------------------------------------- the counting pair


@pytest.fixture
def draw_spy(monkeypatch):
    """Record the number of every pair draw `_counting_generators` makes."""
    draws = []

    def seeded(draw):
        draws.append(draw)
        return random.Random(draw)

    monkeypatch.setattr(groupact, "random", SimpleNamespace(Random=seeded))
    return draws


def _benchmark_matrix_group(a, b, q):
    """GL(a, q) x GL(b, q) in a random basis, as the benchmark writes it, and its spec."""
    workloads = importlib.import_module("workloads")
    spec = workloads.MatrixGroup(a, b, q)
    return parse_group(workloads.matrix_group_file(spec, random.Random(0))), spec


@pytest.fixture
def benchmark_path(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))


def _padded(g, words):
    """g with the products of its generators named by each word added as generators."""
    if g.kind == "permutation":
        mul, spec = pmul, PosetSpec.boolean(g.degree)
    else:
        F = field(g.q)
        mul, spec = (lambda a, b: matmul(a, b, F)), PosetSpec.projective(g.degree, g.q)
    extra = tuple(reduce(mul, (g.generators[i % len(g.generators)] for i in w)) for w in words)
    return replace(g, generators=g.generators + extra, declared_order=None), spec


def _test_groups():
    """Every corpus group and every matrix group of these tests."""
    groups = [g for _, g, _, _, _ in corpus()]
    groups += [parse_group(json.dumps({"kind": "matrix", "n": n, "q": q, "generators": gens}))
               for n, q, gens in MATRIX_GROUPS]
    return groups


def _assert_reduction_keeps_counts(g, spec):
    reduced = groupact._counting_generators(g, 10**9)
    assert len(reduced) <= len(g.generators)
    pair = replace(g, generators=reduced)
    assert ([orbit_count_unionfind(pair, spec, k) for k in range(spec.n + 1)]
            == [orbit_count_unionfind(g, spec, k) for k in range(spec.n + 1)])
    return reduced


def test_counts_from_the_reduced_set_on_every_test_group():
    reduced = 0
    for g in _test_groups():
        padded, spec = _padded(g, [(0, 1), (1, 0, 1), (0, 0)])
        reduced += len(_assert_reduction_keeps_counts(padded, spec)) == 2
    # every one of these groups is 2-generated: the trivial group, cyclic and
    # dihedral groups, S_n, A_n, and the matrix groups
    assert reduced == len(_test_groups())


@settings(max_examples=40, deadline=None)
@given(st.data(),
       st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=4), min_size=1, max_size=3))
def test_counts_from_the_reduced_set_equal_counts_from_the_input(data, words):
    _assert_reduction_keeps_counts(*_padded(data.draw(st.sampled_from(_test_groups())), words))


@settings(max_examples=40, deadline=None)
@given(permutation_groups(10))
def test_reduction_of_random_permutation_groups(gens):
    # three random supports need not give a 2-generated group; either way the
    # counts must not move
    g = Group(kind="permutation", degree=len(gens[0]), generators=tuple(gens))
    _assert_reduction_keeps_counts(g, PosetSpec.boolean(g.degree))


def _elementary_abelian_2(m, n=None):
    """C_2^m by m disjoint transpositions on n >= 2m points (2m by default)."""
    return tuple(tuple(4 * i + 1 - j if j in (2 * i, 2 * i + 1) else j
                       for j in range(n or 2 * m)) for i in range(m))


def _dihedral_square():
    """D10 x D10 on 20 points: a rotation and a reflection of each decagon."""
    rot = tuple((i + 1) % 10 for i in range(10))
    refl = tuple((-i) % 10 for i in range(10))
    left = [x + tuple(range(10, 20)) for x in (rot, refl)]
    right = [tuple(range(10)) + tuple(10 + v for v in x) for x in (rot, refl)]
    return tuple(left + right)


def test_groups_that_are_not_two_generated_keep_their_generators(draw_spy, tmp_path):
    # C_2^4 and D10 x D10 (abelianized to C_2^4) need four generators
    for gens in (_elementary_abelian_2(4), _dihedral_square()):
        g = Group(kind="permutation", degree=len(gens[0]), generators=gens)
        draw_spy.clear()
        assert groupact._counting_generators(g, 10**9) is g.generators
        assert draw_spy == list(range(groupact.GENERATOR_DRAWS))
    # on 12 points the chain holds 2 + 2 + 2 + 2 representatives on 4 levels,
    # 12 x 8 x 4^2 = 1536 per draw, and an all-ranks command counts ranks
    # 0..6, 2510 subsets; a pair would save two images of each, which pays for
    # three draws, made once for the whole command
    g = Group(kind="permutation", degree=12, generators=_elementary_abelian_2(4, 12))
    path = tmp_path / "c2four.json"
    path.write_text(json.dumps({"kind": "permutation", "degree": 12,
                                "generators": [cycles_of(x) for x in g.generators]}))
    draw_spy.clear()
    assert main(["orbits", str(path), "boolean:12", "--method", "both", "--json"]) == 0
    assert draw_spy == [0, 1, 2]


def test_draws_only_while_they_pay(draw_spy, monkeypatch):
    # M24's chain holds 24 + 23 + 22 + 21 + 20 + 16 + 3 = 129 representatives
    # of 24 points on 7 levels; with 3 generators a pair saves one image of
    # each element counted, so counting rank 6 alone (134,596 subsets) draws
    # nothing and rank 7 alone (346,104) or all ranks do; the first pair drawn
    # generates M24
    g = parse_group(data_text("m24.json"))
    chain = groupact._stabilizer_chain(g.generators, 24)
    work = 24 * sum(map(len, chain)) * len(chain) ** 2
    assert work == 24 * 129 * 7**2
    for total in (comb(24, 6), work - 1, work, comb(24, 7), sum(comb(24, k) for k in range(13))):
        draw_spy.clear()
        gens = groupact._counting_generators(g, total)
        assert draw_spy == ([0] if total >= work else []), total
        assert len(gens) == (2 if total >= work else 3), total
    # the command counts each rank with the generators it chose
    counted = []
    count = groupact.orbit_count_unionfind

    def counting(h, spec, k, cap=None):
        counted.append(h.generators)
        return count(h, spec, k, cap=cap)

    monkeypatch.setattr(groupact, "orbit_count_unionfind", counting)
    for k, want in ((6, g.generators), (7, groupact._counting_generators(g, comb(24, 7)))):
        counted.clear()
        assert main(["orbits", "data:m24.json", "boolean:24", "-k", str(k), "--json"]) == 0
        assert counted == [want] and len(want) == (2 if k == 7 else 3), k
    # C_2^4 on 8 points is not 2-generated, and its chain holds 2 + 2 + 2 + 2
    # representatives on 4 levels: it draws only as often as that pays
    g = Group(kind="permutation", degree=8, generators=_elementary_abelian_2(4))
    work = 8 * 8 * 4**2
    for allowed in range(4):
        draw_spy.clear()
        assert groupact._counting_generators(g, allowed * work // 2 + 1) is g.generators
        assert draw_spy == list(range(allowed))


def test_groups_with_two_generators_never_draw(draw_spy):
    spec = PosetSpec.boolean(8)
    for gens in [(), (tuple(range(8)),), (tuple((i + 1) % 8 for i in range(8)),),
                 _symmetric_on(8, 8).generators]:
        g = Group(kind="permutation", degree=8, generators=gens)
        assert groupact._counting_generators(g, 10**9) is g.generators
        assert [orbit_count_unionfind(g, spec, k) for k in range(9)]
    g = parse_group(data_text("s4.json"))
    assert groupact._counting_generators(g, 10**9) is g.generators
    assert draw_spy == []


def test_certification_compares_orders(benchmark_path, draw_spy):
    # the determinant maps GL(3, 3) x GL(2, 3) onto C_2 x C_2, so many random
    # pairs generate proper subgroups: the first pairs drawn here do
    g, spec = _benchmark_matrix_group(3, 2, 3)
    reduced = groupact._counting_generators(g, 10**9)
    assert len(g.generators) == 8 and len(reduced) == 2
    assert draw_spy[-1] > 0
    pair = replace(g, generators=reduced, declared_order=None)
    assert group_order(pair) == g.declared_order == spec.order
    poset_spec = PosetSpec.projective(5, 3)
    assert [orbit_count_unionfind(pair, poset_spec, k) for k in range(6)] == list(spec.series)
    # every rejected pair generates a subgroup of smaller order
    for draw in draw_spy[:-1]:
        x, y = _drawn_elements(g, draw)
        assert group_order(replace(g, generators=(x, y), declared_order=None)) < spec.order


def test_orbits_searches_the_vectors_of_a_matrix_group_once(monkeypatch, tmp_path):
    # |G| and the counting pair of a 4-generator group read the one P kept on the Group
    from inchom.cli import main

    g = parse_group(json.dumps({"kind": "matrix", "n": 3, "q": 3,
                                "generators": MATRIX_GROUPS[1][2]}))
    padded, spec = _padded(g, [(0, 1), (1, 0, 1)])
    path = tmp_path / "four.json"
    path.write_text(json.dumps({"kind": "matrix", "n": 3, "q": 3,
                                "generators": [list(map(list, m)) for m in padded.generators]}))
    calls = []
    point_action = groupact._point_action

    def spying(h):
        calls.append(len(h.generators))
        return point_action(h)

    monkeypatch.setattr(groupact, "_point_action", spying)
    assert main(["orbits", str(path), spec.describe(), "--json"]) == 0
    assert calls == [4]


def _drawn_elements(g, draw):
    """The matrices of draw number `draw`, made as the counter makes them."""
    points, _, chain = g._chain
    rng = random.Random(draw)
    n = g.degree
    out = []
    for _ in range(2):
        x = reduce(pmul, [rng.choice(list(tr.values())) for tr in chain], tuple(range(len(points))))
        out.append(tuple(tuple(points[x[c]][r] for c in range(n)) for r in range(n)))
    return out


# ---------------------------------------------------------------- the Singer-cycle oracle


def _gaussian(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _mobius(m):
    out, p = 1, 2
    while m > 1:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return out


def singer_orbit_counts(n, q):
    """N_0..N_n of a Singer cycle on the subspaces of GF(q)^n, in closed form.

    The cycle is GF(q^n)^* acting on GF(q^n), N = (q^n - 1)/(q - 1) points of
    projective space once scalars are divided out.  An element fixes a
    subspace exactly when the subspace is a vector space over the subfield
    GF(q^e) the element generates, e | n, which needs e | k; c_e counts those
    elements, divided by q - 1, by Moebius inversion over the subfields.
    Burnside gives N_k = (1/N) sum over e | gcd(n, k) of c_e [n/e, k/e]_{q^e}.
    """
    big = (q**n - 1) // (q - 1)

    def c(e):
        return sum(_mobius(e // f) * (q**f - 1) // (q - 1) for f in range(1, e + 1) if e % f == 0)

    out = []
    for k in range(n + 1):
        total = sum(c(e) * _gaussian(n // e, k // e, q**e)
                    for e in range(1, n + 1) if gcd(n, k) % e == 0)
        assert total % big == 0, (n, q, k)
        out.append(total // big)
    return out


def _singer_cycle(n, q):
    """A companion matrix whose powers move e_0 through all q^n - 1 nonzero vectors."""
    F = field(q)
    for column in itertools.product(range(q), repeat=n):
        if not column[0]:
            continue
        # C e_i = e_{i+1} for i < n - 1, and C e_{n-1} = column
        mat = [[int(r == c + 1) for c in range(n - 1)] + [column[r]] for r in range(n)]
        v, steps = (1,) + (0,) * (n - 1), 0
        while True:
            v = tuple(reduce(F.add, (F.mul(a, b) for a, b in zip(row, v)), 0) for row in mat)
            steps += 1
            if v == (1,) + (0,) * (n - 1):
                break
        if steps == q**n - 1:
            return mat
    raise AssertionError(f"no Singer cycle found for GF({q})^{n}")


def test_singer_closed_form_by_hand():
    assert singer_orbit_counts(7, 2)[2:4] == [21, 93]
    assert singer_orbit_counts(8, 2)[2:5] == [43, 381, 791]
    for n, q in [(6, 2), (7, 3), (9, 4), (12, 2)]:
        series = singer_orbit_counts(n, q)
        assert series == series[::-1] and series[0] == series[1] == 1, (n, q)


@pytest.mark.parametrize("n,q,top", [(6, 2, 6), (7, 2, 3), (4, 3, 4), (4, 4, 4)])
def test_singer_cycle_counts_match_the_closed_form(draw_spy, n, q, top):
    g = parse_group(json.dumps({"kind": "matrix", "n": n, "q": q,
                                "generators": [_singer_cycle(n, q)]}))
    assert group_order(g) == q**n - 1
    spec = PosetSpec.projective(n, q)
    want = singer_orbit_counts(n, q)
    assert [orbit_count_unionfind(g, spec, k) for k in range(top + 1)] == want[: top + 1]
    # one generator: the counter never draws, and never uses more generators
    assert groupact._counting_generators(g, 10**9) is g.generators
    assert draw_spy == []


def test_a_subspace_count_keeps_nothing_once_it_returns():
    # the rank's listing and its index live for one count: an rref listing
    # cached across calls kept about 4 MiB after a count at rank 3 of
    # projective:7,2 (11,811 subspaces).  A full collection also empties
    # the interpreter's tuple free lists, which hold up to 2,000 spent
    # tuples of each length.
    singer = parse_group(json.dumps({"kind": "matrix", "n": 7, "q": 2,
                                     "generators": [_singer_cycle(7, 2)]}))
    spec = PosetSpec.projective(7, 2)
    assert orbit_count_unionfind(singer, spec, 1) == 1
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        count = orbit_count_unionfind(singer, spec, 3)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert count == singer_orbit_counts(7, 2)[3]
    assert kept < 64 * 2**10, kept


def test_subspace_counts_propagate_labels_without_a_search(benchmark_path, monkeypatch):
    # `act` builds every subspace map before counting starts, so the counter
    # propagates labels over them at once and never peels an orbit
    def refusing(*args):
        raise AssertionError("a subspace count peeled an orbit")

    monkeypatch.setattr(groupact, "_peel_orbit", refusing)
    singer = parse_group(json.dumps({"kind": "matrix", "n": 6, "q": 2,
                                     "generators": [_singer_cycle(6, 2)]}))
    spec = PosetSpec.projective(6, 2)
    assert [orbit_count_unionfind(singer, spec, k) for k in range(7)] == singer_orbit_counts(6, 2)
    # GL(a, q) x GL(b, q) in the benchmark's basis, against the Goursat series
    for a, b, q in [(2, 2, 2), (2, 3, 2), (2, 2, 3)]:
        g, group = _benchmark_matrix_group(a, b, q)
        spec = PosetSpec.projective(group.n, q)
        assert [orbit_count_unionfind(g, spec, k) for k in range(group.n + 1)] == list(
            group.series), (a, b, q)
