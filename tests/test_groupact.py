import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import closure, corpus, pmul
from inchom.cli import data_text
from inchom.errors import DataError, InternalConsistencyError, ResourceLimitError
from inchom.groupact import (
    Group,
    _boolean_index_map,
    act,
    burnside_counts,
    cycle_type,
    cycles_of,
    fix_count_subsets,
    group_order,
    orbit_count_unionfind,
    parse_cycles,
    parse_group,
)
from inchom.poset import PosetSpec, _bool_mask_array, enumerate_rank


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


def test_group_order_examples():
    assert group_order(parse_group(data_text("s4.json"))) == 24
    assert group_order(parse_group(data_text("c4.json"))) == 4
    assert group_order(parse_group(data_text("d10.json"))) == 20


def test_group_order_m24():
    order = group_order(parse_group(data_text("m24.json")))
    assert order == 244823040
    assert order == 2**10 * 3**3 * 5 * 7 * 11 * 23


def test_group_order_matches_closure_on_corpus():
    for name, g, _, _, _ in corpus():
        assert group_order(g) == len(closure(list(g.generators))), name


def test_group_order_rejects_bad_declared():
    doc = {"kind": "permutation", "degree": 4, "generators": ["(1,2,3,4)"], "order": 5}
    with pytest.raises(DataError):
        group_order(parse_group(json.dumps(doc)))


def test_matrix_group_order_closure_and_cap():
    gl32 = parse_group(json.dumps({
        "kind": "matrix", "n": 3, "q": 2,
        "generators": [[[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                       [[1, 1, 0], [0, 1, 0], [0, 0, 1]]],
    }))
    assert group_order(gl32) == 168
    with pytest.raises(ResourceLimitError):
        group_order(gl32, cap=10)
    declared = parse_group(json.dumps({
        "kind": "matrix", "n": 3, "q": 2, "order": 168,
        "generators": [[[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                       [[1, 1, 0], [0, 1, 0], [0, 0, 1]]],
    }))
    assert group_order(declared, cap=10) == 168


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


@pytest.mark.parametrize("n,k", [(12, 6), (33, 2), (63, 1)])
def test_boolean_index_map_matches_searchsorted(n, k):
    perm = list(range(n))
    random.Random(7).shuffle(perm)
    masks = _bool_mask_array(n, k)
    images = np.array([act(perm, int(m), PosetSpec.boolean(n)) for m in masks], dtype=np.uint64)
    got = _boolean_index_map(masks, perm, k)
    assert got.dtype == np.int32
    assert np.array_equal(got, np.searchsorted(masks, images))


@pytest.mark.parametrize("bad", [(0, 0, 2), (0, 1, 5), (2, 3, 1)])
def test_image_outside_rank_set_is_caught(bad):
    # not permutations of 0..2: two points merge, or a point leaves the 3-set
    g = Group(kind="permutation", degree=3, generators=(bad,))
    with pytest.raises(InternalConsistencyError):
        orbit_count_unionfind(g, PosetSpec.boolean(3), 2)


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
    from inchom.gf import field
    import inchom.groupact as ga

    spec = PosetSpec.projective(3, 3)
    F = field(3)
    g = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    h = ((1, 1, 0), (0, 1, 0), (0, 0, 2))
    gh = ga._matrix_mul(g, h, F)
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
