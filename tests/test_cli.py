import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import inchom
from corpus import corpus
from inchom import groupact, inequal
from inchom.cli import _chain_pis, data_text, main
from inchom.groupact import cycles_of, orbit_count_unionfind, parse_group
from inchom.homology import HomologyTable
from inchom.poset import PosetSpec
from inchom.qarith import FieldSpec, gauss_row, is_prime
from test_groupact import MATRIX_GROUPS

# N_0..N_12 of M24 on the subsets of its 24 points
M24_HALF = [1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 5]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_pitable_matches_published_grid(capsys):
    code, doc = run_json(capsys, "pitable")
    assert code == 0 and doc["status"] == "pass"
    res = doc["results"]
    assert res["primes"] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert res["qs"] == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23]
    from test_qarith import PI_TABLE

    for p, row in zip(res["primes"], res["cells"]):
        assert tuple(row) == PI_TABLE[p]
    # dashes where p | q in human output: 4 + 2 + 1 * 6 cells
    code, out, _ = run(capsys, "pitable")
    assert code == 0 and out.count("--") == 12


def test_pitable_single_cells(capsys):
    code, doc = run_json(capsys, "pitable", "--pmax", "2", "--q-list", "3")
    assert code == 0 and doc["results"]["cells"] == [[2]]
    code, doc = run_json(capsys, "pitable", "--pmax", "3", "--q-list", "3")
    assert doc["results"]["cells"][-1] == [None]


def test_json_determinism(capsys):
    first = run(capsys, "homology", "boolean:6", "-p", "3", "--json")
    second = run(capsys, "homology", "boolean:6", "-p", "3", "--json")
    assert first == second
    assert first[0] == 0


def test_homology_single_pair(capsys):
    code, doc = run_json(capsys, "homology", "boolean:4", "-p", "3", "-j", "2", "-i", "1")
    assert code == 0
    res = doc["results"]
    assert res["dim"] == 1 and res["lhs"] == res["rhs"] == 1
    assert res["pi"] == 3


def test_broken_sign_convention_aborts_scan_and_cell(capsys, monkeypatch):
    # with the folded sums negated, every positive signed trace value turns
    # negative; the scan and a single cell must both stop, not report a fail
    init = HomologyTable.__init__

    def flipped(self, *args):
        init(self, *args)
        self.folded = {r: -v for r, v in self.folded.items()}

    monkeypatch.setattr(HomologyTable, "__init__", flipped)
    for cell in ((), ("-j", "3", "-i", "1")):
        code, doc = run_json(capsys, "homology", "boolean:6", "-p", "3", *cell)
        assert code == 2 and doc["status"] == "error", cell
        assert doc["results"]["type"] == "InternalConsistencyError", cell
        assert "negative signed trace value" in doc["results"]["error"], cell


def test_homology_scan_projective(capsys):
    code, doc = run_json(capsys, "homology", "projective:4,2", "-p", "3")
    assert code == 0 and doc["results"]["pi"] == 2
    assert doc["status"] == "pass"


def test_homology_scan_record_bound(capsys):
    code, doc = run_json(capsys, "homology", "boolean:6", "-p", "1000003")
    assert code == 2 and doc["results"]["type"] == "ResourceLimitError"
    assert "records" not in doc["results"]


def _child_env():
    """The environment of a new interpreter that imports this inchom."""
    return dict(os.environ, PYTHONPATH=str(Path(inchom.__file__).resolve().parents[1]))


def _cli_within(seconds, *argv):
    """(exit code, JSON report) of the command line run in a new interpreter under a timeout."""
    out = subprocess.run([sys.executable, "-m", "inchom.cli", *argv, "--json"],
                         env=_child_env(), capture_output=True, text=True, timeout=seconds)
    return out.returncode, json.loads(out.stdout)


@pytest.mark.parametrize("poset,pi", [("boolean:4", 1_000_000_007),
                                      ("projective:4,2", 500_000_003)])
def test_homology_cell_at_a_huge_prime_returns(poset, pi):
    code, doc = _cli_within(20, "homology", poset, "-p", "1000000007", "-j", "2", "-i", "1")
    assert code == 0 and doc["results"]["pi"] == pi


def test_homology_scan_at_a_huge_prime_fails_fast():
    code, doc = _cli_within(20, "homology", "boolean:6", "-p", "1000000007")
    assert code == 2 and doc["results"]["type"] == "ResourceLimitError"


@pytest.mark.parametrize("poset,extra,pi", [("boolean:4", ("-j", "2", "-i", "1"), 2**61 - 1),
                                            ("projective:4,2", ("-j", "1", "-i", "1"), 61)])
def test_homology_cell_at_a_mersenne_prime_returns(poset, extra, pi):
    # 2^61 - 1 hung trial division; 2 has order 61 modulo it
    code, doc = _cli_within(20, "homology", poset, "-p", str(2**61 - 1), *extra)
    assert code == 0 and doc["results"]["pi"] == pi


def test_homology_scan_at_a_mersenne_prime_fails_fast():
    code, doc = _cli_within(20, "homology", "boolean:6", "-p", str(2**61 - 1))
    assert code == 2 and doc["results"]["type"] == "ResourceLimitError"


@pytest.fixture
def int_digit_limit():
    """Python's default 4,300-digit limit on int-to-string conversion, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on int-to-string conversion")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


def test_reports_print_integers_of_any_length(int_digit_limit, capsys):
    # at pi(3, 16) = 3 the folded rank sizes of projective:120,16 have 4,335
    # digits; the report used to stop halfway with a ValueError and exit 1
    folded = [0, 0, 0]
    for k, size in enumerate(gauss_row(120, 16)):
        folded[k % 3] += size
    rhs = folded[0] - folded[1]
    assert rhs > 10**4300
    for cell in ((), ("-j", "60", "-i", "1")):
        for report in (("--json",), ()):
            sys.set_int_max_str_digits(4300)
            code, out, _ = run(capsys, "homology", "projective:120,16", "-p", "3",
                               *cell, *report)
            sys.set_int_max_str_digits(0)
            assert code == 0
            if report:
                results = json.loads(out)["results"]
                record = results if cell else results["records"][0]
                assert (record["j"], record["i"], record["rhs"]) == (
                    (60, 1, rhs) if cell else (0, 1, rhs))
            else:
                assert str(rhs) in out and out.endswith("status: pass\n")


def test_main_restores_the_digit_limit(int_digit_limit, capsys):
    # the limit is lifted for the command only: a passing run, an argument
    # error from argparse and an error report all hand the caller's back
    assert run(capsys, "chain", "--series", "1,2,1", "--pi", "3", "--json")[0] == 0
    assert sys.get_int_max_str_digits() == 4300
    with pytest.raises(SystemExit) as exc:
        main(["orbits"])
    assert exc.value.code == 2 and sys.get_int_max_str_digits() == 4300
    code, doc = run_json(capsys, "homology", "boolean:0", "-p", "3")
    assert code == 2 and doc["status"] == "error"
    assert sys.get_int_max_str_digits() == 4300


def test_arguments_take_integers_of_any_length(int_digit_limit, capsys):
    # sums printed by one report can be passed back in: the limit is lifted
    # before the arguments are parsed, in both forms of an integer list
    big = "1" + "0" * 4400
    for series in (f"1,{big},1", f"[1, {big}, 1]"):
        code, out, _ = run(capsys, "chain", "--series", series, "--pi", "3", "--json")
        assert code == 0 and sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        assert json.loads(out)["inputs"]["series"] == [1, int(big), 1]
        sys.set_int_max_str_digits(4300)


def _recorded_digests():
    """SHA-256 of stdout for each fixed benchmark call, keyed by its argv."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    return json.loads(path.read_text())


def test_homology_reports_match_recorded_digests(capsys):
    # the benchmark's fixed homology calls, scans and single cells, must
    # print byte for byte what the reference commit printed
    expected = _recorded_digests()
    keys = [key for key in expected if key.startswith("homology")]
    assert len(keys) == 174
    for key in keys:
        main(key.split() + ["--json"])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected[key], key


def test_other_reports_match_recorded_digests(capsys):
    # every fixed call of the benchmark beyond homology: mult, bounds,
    # pitable, chain, orbits (M24 over all ranks and at k = 2) and order
    expected = _recorded_digests()
    keys = [key for key in expected if not key.startswith("homology")]
    commands = [key.split()[0] for key in keys]
    assert {c: commands.count(c) for c in set(commands)} == {
        "mult": 50, "bounds": 6, "pitable": 6, "chain": 5, "orbits": 2, "order": 1}
    for key in keys:
        main(key.split() + ["--json"])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected[key], key


@st.composite
def _scans(draw):
    """A small boolean or projective poset and a prime p < 60 not dividing its q."""
    p = draw(st.sampled_from([p for p in range(2, 60) if is_prime(p)]))
    if draw(st.booleans()):
        return PosetSpec.boolean(draw(st.integers(1, 8))), p
    q = draw(st.sampled_from([q for q in (2, 3, 4, 5, 7) if q % p]))
    return PosetSpec.projective(draw(st.integers(1, 5)), q), p


@settings(max_examples=80, deadline=None)
@given(_scans())
@example((PosetSpec.boolean(5), 2))
@example((PosetSpec.projective(4, 2), 3))
def test_scan_json_is_json_dumps_of_the_report(scan):
    # the record template against json.dumps of to_dict(), byte for byte
    spec, p = scan
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["homology", spec.describe(), "-p", str(p), "--json"])
    report = HomologyTable(spec, FieldSpec(p)).scan()
    status = "pass" if report.passed else "fail"
    want = json.dumps({"command": "homology", "inputs": {"poset": spec.describe(), "p": p},
                       "results": report.to_dict(), "status": status}, sort_keys=True, indent=2)
    assert out.getvalue() == want + "\n"
    assert code == (0 if report.passed else 1)


SCAN_TEXT = {
    ("boolean:4", "3"): ["pi = 3", "10 (j,i) pairs checked, 2 with nonzero homology",
                         "  j=2 i=1: dim=1 window=in trace 1=1",
                         "  j=2 i=2: dim=1 window=in trace 1=1", "status: pass"],
    ("projective:4,2", "3"): ["pi = 2", "5 (j,i) pairs checked, 1 with nonzero homology",
                              "  j=2 i=1: dim=7 window=in trace 7=7", "status: pass"],
}


def test_scan_human_output(capsys):
    for (poset, p), lines in SCAN_TEXT.items():
        code, out, err = run(capsys, "homology", poset, "-p", p)
        assert code == 0 and out == "\n".join(lines) + "\n" and err.endswith("s]\n")


def _holds_records(obj) -> bool:
    """True iff obj holds, at any depth, a non-empty value under a "records" key."""
    if isinstance(obj, dict):
        return bool(obj.get("records")) or any(_holds_records(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_holds_records(v) for v in obj)
    return False


def test_scan_records_never_reach_json_dumps(monkeypatch, capsys):
    real, seen = json.dumps, []

    def spy(obj, *args, **kwargs):
        seen.append(_holds_records(obj))
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    code, out, _ = run(capsys, "homology", "boolean:8", "-p", "1009", "--json")
    monkeypatch.undo()
    assert seen == [False]
    assert code == 0 and len(json.loads(out)["results"]["records"]) == 9 * 1008


def test_homology_requires_both_j_and_i(capsys):
    code, doc = run_json(capsys, "homology", "boolean:4", "-p", "3", "-j", "2")
    assert code == 2 and doc["status"] == "error"


def test_orbits_both_methods(capsys):
    code, doc = run_json(capsys, "orbits", "data:c4.json", "boolean:4", "--method", "both")
    assert code == 0
    res = doc["results"]
    assert res["unionfind"] == res["burnside"] == [1, 1, 2, 1, 1]
    assert res["methods_agree"] is True and res["order"] == 4


def test_orbits_single_k(capsys):
    code, doc = run_json(capsys, "orbits", "data:s4.json", "boolean:4", "-k", "2")
    assert code == 0 and doc["results"]["unionfind"] == [1]


def test_orbits_kind_mismatch(capsys):
    code, doc = run_json(capsys, "orbits", "data:c4.json", "boolean:5")
    assert code == 2 and doc["status"] == "error"
    assert "does not act" in doc["results"]["error"]


def test_mult_sn5(capsys):
    code, doc = run_json(
        capsys, "mult", "sn:5", "boolean:5", "-p", "3", "--irreducible", "4,1"
    )
    assert code == 0
    res = doc["results"]
    assert res["series"] == [0, 1, 1, 1, 1, 0]
    assert res["folded"] == [1, 2] and res["chain_passed"] is False
    assert res["chain_guaranteed"] is False  # 3 divides 120
    assert res["stanley_passed"] and res["palindrome_passed"]


def test_mult_stanley_regime(capsys):
    code, doc = run_json(
        capsys, "mult", "sn:6", "boolean:6", "-p", "7", "--irreducible", "5,1"
    )
    assert code == 0 and doc["results"]["stanley_regime"] is True
    assert doc["results"]["chain_passed"] is True


def test_mult_c5_guaranteed_chain(capsys):
    code, doc = run_json(
        capsys, "mult", "data:c5_table.json", "boolean:5", "-p", "3",
        "--irreducible", "chi1",
    )
    assert code == 0
    res = doc["results"]
    assert res["folded"] == [2, 2] and res["chain_passed"] and res["chain_guaranteed"]


def test_mult_rejects_broken_table(tmp_path, capsys):
    from inchom.chartab import dump_table, sn_table

    doc = json.loads(dump_table(sn_table(4)))
    doc["irreducibles"][0]["values"][1] += 1
    bad = tmp_path / "bad_table.json"
    bad.write_text(json.dumps(doc))
    code, out = run_json(
        capsys, "mult", str(bad), "boolean:4", "-p", "5", "--irreducible", "4"
    )
    assert code == 2 and out["status"] == "error"
    assert "expected" in out["results"]["error"]


def test_bounds_examples(capsys):
    code, doc = run_json(capsys, "bounds", "-n", "10", "--pis", "9,8,7")
    assert code == 0
    bounds = doc["results"]["bounds"]
    assert bounds[2] == 2 and bounds[3] == 3 and bounds[4] == 4
    code, doc = run_json(capsys, "bounds", "-n", "24", "--pis", "13,17,19")
    assert doc["results"]["bounds"][12] == 4


def test_chain_pass_and_fail(capsys):
    series = "1,1,1,1,1,1,2,2,3,3,3,3,5,3,3,3,3,2,2,1,1,1,1,1,1"
    code, doc = run_json(capsys, "chain", "--series", series, "--pi", "17")
    assert code == 0 and doc["results"]["folded"][0] == 5
    code, doc = run_json(capsys, "chain", "--series", "0,2,1,0,0", "--pi", "3")
    assert code == 1 and doc["status"] == "fail"
    assert doc["results"]["violation_r"] == 1


def test_order_m24(capsys):
    code, doc = run_json(capsys, "order", "data:m24.json")
    assert code == 0
    res = doc["results"]
    assert res["order"] == 244823040
    assert res["factorization"] == {"2": 10, "3": 3, "5": 1, "7": 1, "11": 1, "23": 1}


def test_order_of_a_huge_declared_order_returns(tmp_path):
    # GL(3,2) declared with a false order: the order is computed, never trusted
    path = tmp_path / "semi.json"
    path.write_text(json.dumps({
        "kind": "matrix", "n": 3, "q": 2, "order": 1000000007 * 1000000009,
        "generators": [[[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]]],
    }))
    code, doc = _cli_within(20, "order", str(path))
    assert code == 2 and doc["results"]["type"] == "DataError"
    assert "computed 168" in doc["results"]["error"]


def test_order_over_a_large_prime_field_returns(tmp_path):
    # diag(-1, 1) over GF(1000003); the field is built without an inverse table
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"kind": "matrix", "n": 2, "q": 1000003,
                                "generators": [[[1000002, 0], [0, 1]]]}))
    code, doc = _cli_within(20, "order", str(path))
    assert code == 0 and doc["results"]["order"] == 2


def test_order_of_a_long_cycle_is_refused(tmp_path):
    # the chain of a 6000-cycle would hold 6000 * 6000 slots, over MAX_CHAIN_ENTRIES
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"kind": "permutation", "degree": 6000,
                                "generators": ["(" + ",".join(map(str, range(1, 6001))) + ")"]}))
    code, doc = _cli_within(30, "order", str(path))
    assert code == 2 and doc["results"]["type"] == "ResourceLimitError"
    assert str(groupact.MAX_CHAIN_ENTRIES) in doc["results"]["error"]


def test_error_report_for_missing_file(capsys):
    code, doc = run_json(capsys, "order", "no_such_file.json")
    assert code == 2 and doc["status"] == "error"


def test_human_output_has_timing_but_json_does_not(capsys):
    code, out, err = run(capsys, "pitable")
    assert code == 0 and "s]" in err
    code, out, err = run(capsys, "pitable", "--json")
    assert err == "" and "timing" not in out
    assert json.loads(out)


def test_exit_code_contract(capsys):
    assert run(capsys, "chain", "--series", "1,2,1", "--pi", "2")[0] == 0
    assert run(capsys, "chain", "--series", "5,0,5", "--pi", "2")[0] == 1


@pytest.mark.parametrize("argv,good", [
    (["chain", "--series", "{}", "--pi", "2"], "[1,2,1]"),
    (["bounds", "-n", "4", "--pis", "{}"], "[2,3]"),
    (["pitable", "--pmax", "3", "--q-list", "{}"], "[2,3]"),
], ids=["series", "pis", "q-list"])
def test_json_true_is_not_an_integer_in_a_list(capsys, argv, good):
    # JSON true is the int 1 to Python; `chain --series "[1,true,1]"` used to
    # echo true in inputs.series and check the chain on it
    for bad in ("[1,true,1]", "[1,2.5,1]"):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(bad) for arg in argv] + ["--json"])
        assert exc.value.code == 2
        assert "expected a JSON integer array" in capsys.readouterr().err
    code, _ = run_json(capsys, *[arg.format(good) for arg in argv])
    assert code == 0


def test_max_rank_size_leaves_library_defaults_alone(capsys):
    from inchom.poset import PosetSpec, enumerate_rank

    code, _ = run_json(capsys, "orbits", "data:c4.json", "boolean:4", "-k", "1",
                       "--max-rank-size", "5")
    assert code == 0
    assert len(enumerate_rank(PosetSpec.boolean(4), 2)) == 6


def test_max_rank_size_zero_is_honoured_everywhere(capsys):
    code, doc = run_json(capsys, "orbits", "data:c4.json", "boolean:4", "--max-rank-size", "0")
    assert code == 2 and doc["results"]["type"] == "ResourceLimitError"


def test_rank_cap_applies_to_warm_caches(capsys):
    # the uncapped run enumerates and caches every rank first
    code, _ = run_json(capsys, "orbits", "data:c4.json", "boolean:4")
    assert code == 0
    code, doc = run_json(capsys, "orbits", "data:c4.json", "boolean:4", "--max-rank-size", "5")
    assert code == 2 and "over the cap 5" in doc["results"]["error"]


def test_error_report_keeps_inputs_and_type(capsys):
    code, doc = run_json(capsys, "order", "no_such_file.json")
    assert code == 2
    assert doc["inputs"] == {"group": "no_such_file.json"}
    assert doc["results"]["type"] == "FileNotFoundError"
    code, doc = run_json(capsys, "orbits", "data:c4.json", "boolean:5")
    assert doc["inputs"] == {"group": "data:c4.json", "poset": "boolean:5", "k": None,
                             "method": "uf", "max_rank_size": None, "max_group_order": None}
    assert doc["results"]["type"] == "DataError"


def _orbit_cases(tmp_path):
    """(group file, poset, group, spec) for the corpus groups and the matrix groups."""
    docs = [
        ({"kind": "permutation", "degree": deg,
          "generators": [cycles_of(p) for p in g.generators]}, PosetSpec.boolean(deg))
        for _, g, _, _, deg in corpus()
    ] + [
        ({"kind": "matrix", "n": n, "q": q, "generators": gens}, PosetSpec.projective(n, q))
        for n, q, gens in MATRIX_GROUPS
    ]
    for i, (doc, spec) in enumerate(docs):
        path = tmp_path / f"group{i}.json"
        path.write_text(json.dumps(doc))
        yield str(path), spec.describe(), parse_group(json.dumps(doc)), spec


def test_orbits_mirror_matches_direct_counts(tmp_path, capsys):
    for path, poset, g, spec in _orbit_cases(tmp_path):
        direct = [orbit_count_unionfind(g, spec, k) for k in range(spec.n + 1)]
        code, doc = run_json(capsys, "orbits", path, poset)
        assert code == 0 and doc["results"]["unionfind"] == direct, poset
        for j in range(spec.n + 1):
            _, low = run_json(capsys, "orbits", path, poset, "-k", str(j))
            _, high = run_json(capsys, "orbits", path, poset, "-k", str(spec.n - j))
            assert low["results"]["unionfind"] == [direct[j]], (poset, j)
            assert high["results"]["unionfind"] == [direct[spec.n - j]], (poset, j)


def test_orbits_mirror_keeps_error_reports(tmp_path, capsys):
    for k in ("-1", "5", "9"):
        for method in ("uf", "burnside", "both"):
            code, doc = run_json(capsys, "orbits", "data:c4.json", "boolean:4", "-k", k,
                                 "--method", method)
            assert code == 2, method
            assert doc["results"] == {"error": f"rank {k} of boolean:4 is empty",
                                      "type": "ValueError"}, method
    over = {"type": "ResourceLimitError"}
    code, doc = run_json(capsys, "orbits", "data:c4.json", "boolean:4", "-k", "3",
                         "--max-rank-size", "3")
    assert code == 2
    assert doc["results"] == over | {"error": "rank 3 of boolean:4 has 4 elements, over the cap 3"}
    assert doc["inputs"]["k"] == 3
    code, doc = run_json(capsys, "orbits", "data:c4.json", "boolean:4", "--max-rank-size", "5")
    assert code == 2
    assert doc["results"] == over | {"error": "rank 2 of boolean:4 has 6 elements, over the cap 5"}
    path = tmp_path / "gl.json"
    path.write_text(json.dumps({"kind": "matrix", "n": 3, "q": 2,
                                "generators": MATRIX_GROUPS[0][2]}))
    code, doc = run_json(capsys, "orbits", str(path), "projective:3,2", "-k", "2",
                         "--max-rank-size", "6")
    assert code == 2
    assert doc["results"] == over | {"error": "rank 2 of projective:3,2 has 7 elements, over the cap 6"}


def test_orbits_check_every_cap_before_counting(monkeypatch, capsys):
    # only the middle rank of M24 (2,704,156 subsets) is over the cap: the run
    # fails with the report it gave when it counted ranks 0..11 first, but
    # now neither counts a rank nor draws a pair
    touched = []
    monkeypatch.setattr(groupact, "orbit_count_unionfind",
                        lambda g, spec, k, cap=None: touched.append(k))
    monkeypatch.setattr(groupact, "random",
                        SimpleNamespace(Random=lambda draw: touched.append(draw)))
    code, doc = run_json(capsys, "orbits", "data:m24.json", "boolean:24",
                         "--max-rank-size", "2600000")
    assert code == 2 and touched == []
    assert doc == {
        "command": "orbits",
        "inputs": {"group": "data:m24.json", "k": None, "max_group_order": None,
                   "max_rank_size": 2600000, "method": "uf", "poset": "boolean:24"},
        "results": {"error": "rank 12 of boolean:24 has 2704156 elements, over the cap 2600000",
                    "type": "ResourceLimitError"},
        "status": "error",
    }


def test_burnside_group_order_cap(capsys):
    code, doc = run_json(capsys, "orbits", "data:s4.json", "boolean:4", "--method", "burnside",
                         "--max-group-order", "10")
    assert code == 2 and doc["results"]["type"] == "ResourceLimitError"
    assert "|G| = 24" in doc["results"]["error"]


def test_traced_names_resolve(monkeypatch):
    # the benchmark's traced runs wrap these functions by name
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    targets = tracing._targets()
    assert targets
    for module, attr, _, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_orbits_count_only_the_lower_half(tmp_path, monkeypatch, capsys):
    calls = []
    real = groupact.orbit_count_unionfind

    def recording(g, spec, k, cap=None):
        calls.append(k)
        return real(g, spec, k, cap=cap)

    monkeypatch.setattr(groupact, "orbit_count_unionfind", recording)
    for path, poset, _, spec in _orbit_cases(tmp_path):
        calls.clear()
        code, _ = run_json(capsys, "orbits", path, poset)
        assert code == 0 and calls == list(range(spec.n // 2 + 1)), poset
    calls.clear()
    # a single rank is counted as asked: k and n - k cost the same
    code, doc = run_json(capsys, "orbits", "data:d10.json", "boolean:10", "-k", "7")
    assert code == 0 and calls == [7]


def _fake_counts(monkeypatch, half):
    monkeypatch.setattr(groupact, "orbit_count_unionfind",
                        lambda g, spec, k, cap=None: half[k])


def test_chain_gate_pis():
    # q = 1: pi(p, 1) = p for the primes p <= 24 not dividing |M24|
    assert _chain_pis(24, 1, 244823040) == [13, 17, 19]
    # q = 3, n = 4: 3^e - 1 = 2, 8, 26, 80 have the prime factors 2, 13, 5;
    # pi(13, 3) = 3 and pi(5, 3) = 4, and |G| = 2 rules out p = 2
    assert _chain_pis(4, 3, 2) == [3, 4]
    # q = 4, n = 2: 4^2 - 1 = 15, but pi(3, 4) = 3 > 2 and pi(5, 4) = 2
    assert _chain_pis(2, 4, 1) == [2]


def test_chain_gate_checks_only_primes_prime_to_the_order(monkeypatch, capsys):
    _fake_counts(monkeypatch, M24_HALF)
    seen = []
    real = inequal.check_chain
    monkeypatch.setattr(inequal, "check_chain", lambda c, pi: seen.append(pi) or real(c, pi))
    code, doc = run_json(capsys, "orbits", "data:m24.json", "boolean:24")
    assert code == 0 and doc["results"]["unionfind"] == M24_HALF + M24_HALF[-2::-1]
    # the real series breaks the chain at pi = 23, which divides |M24|
    assert not real(doc["results"]["unionfind"], 23).passed
    assert seen == [13, 17, 19]


def test_chain_gate_rejects_broken_series(monkeypatch, capsys):
    # N_11 = N_12 keeps monotonicity, but at pi = 13 the chain needs N_12 >= N_11 + N_24
    _fake_counts(monkeypatch, M24_HALF[:12] + [3])
    code, doc = run_json(capsys, "orbits", "data:m24.json", "boolean:24")
    assert code == 2 and doc["results"]["type"] == "InternalConsistencyError"
    assert "folded chain at pi = 13" in doc["results"]["error"]
    # N_11 > N_12 breaks Livingstone-Wagner
    _fake_counts(monkeypatch, M24_HALF[:11] + [6, 5])
    code, doc = run_json(capsys, "orbits", "data:m24.json", "boolean:24")
    assert code == 2 and doc["results"]["type"] == "InternalConsistencyError"
    assert "Livingstone-Wagner" in doc["results"]["error"]


def _fresh_python(code, *args):
    """JSON printed last by code run in a new interpreter that imports this inchom."""
    out = subprocess.run([sys.executable, "-c", code, *args], env=_child_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


_CALLS_THEN_NUMPY = """
import contextlib, io, json, sys
from inchom.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv + ["--json"]) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_only_orbit_counting_loads_numpy():
    calls = [
        ["pitable", "--pmax", "7"],
        ["homology", "boolean:6", "-p", "3"],
        ["homology", "boolean:4", "-p", "3", "-j", "2", "-i", "1"],
        ["mult", "sn:8", "boolean:8", "-p", "3", "--irreducible", "7,1"],
        ["bounds", "-n", "10", "--pis", "9,8,7"],
        ["chain", "--series", "1,1,2,1,1", "--pi", "3"],
    ]
    got = _fresh_python(_CALLS_THEN_NUMPY, json.dumps(calls))
    assert got == {"codes": [0] * len(calls), "numpy": False}
    got = _fresh_python(_CALLS_THEN_NUMPY, json.dumps([["orbits", "data:c4.json", "boolean:4"]]))
    assert got == {"codes": [0], "numpy": True}
    # the start-up import graph: `import inchom.cli` loads exactly these
    got = _fresh_python("import json, sys, inchom.cli; print(json.dumps(sorted("
                        "m for m in sys.modules if m.split('.')[0] in ('inchom', 'numpy'))))")
    assert got == ["inchom", "inchom.chartab", "inchom.cli", "inchom.errors", "inchom.gf",
                   "inchom.homology", "inchom.inequal", "inchom.poset", "inchom.qarith"]


# every name the package exported while it imported gfpla and groupact eagerly,
# by the module that defines it
PACKAGE_EXPORTS = {
    "chartab": "CharacterTable Series fix_count_subsets load_table multiplicity_series "
               "perm_character sn_table validate_table",
    "errors": "DataError IncompatibleFieldError InternalConsistencyError ResourceLimitError",
    "gfpla": "SparseMat matmul power_boundary rank",
    "groupact": "Group OrbitSeries act burnside_counts cycle_type group_order "
                "orbit_count_unionfind parse_group",
    "homology": "homology_dim homology_scan sequence_layout trace_check vanishing_window",
    "inequal": "check_chain check_lw check_palindrome deduce_bounds fold symbolic_chain",
    "poset": "PosetSpec boundary_matrix enumerate_rank incidence_matrix incidence_rank rank_size",
    "qarith": "FieldSpec gauss_binom q_factorial q_int quantum_char",
}


def test_package_exports_load_on_first_use():
    code = ("import json, sys, inchom; before = 'numpy' in sys.modules; "
            "same = inchom.gfpla.rank is inchom.rank; "
            "print(json.dumps([before, same, 'numpy' in sys.modules]))")
    assert _fresh_python(code) == [False, True, True]
    for module, names in PACKAGE_EXPORTS.items():
        defining = importlib.import_module(f"inchom.{module}")
        for name in names.split():
            scope = {}
            exec(f"from inchom import {name}", scope)
            assert scope[name] is getattr(defining, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        inchom.no_such_name
    with pytest.raises(ImportError):
        exec("from inchom import no_such_name", {})


def test_method_both_builds_the_group_chain_once(monkeypatch, tmp_path, capsys):
    # C_2^3 on 18 points is not 2-generated, so every pair drawn fails: its
    # chain is 18 x 6 slots on 3 levels, 972 per draw, and rank 5 holds 8568
    # subsets, which pays for 8 draws; |G|, the draws and Burnside all read
    # the one chain kept on the group, and each draw builds its own
    builds = []
    build = groupact._stabilizer_chain

    def building(gens, n):
        builds.append(gens)
        return build(gens, n)

    monkeypatch.setattr(groupact, "_stabilizer_chain", building)
    path = tmp_path / "c2cubed.json"
    path.write_text(json.dumps({"kind": "permutation", "degree": 18,
                                "generators": ["(1,2)", "(3,4)", "(5,6)"]}))
    code, doc = run_json(capsys, "orbits", str(path), "boolean:18", "-k", "5", "--method", "both")
    assert code == 0 and doc["results"]["methods_agree"]
    assert builds.count(parse_group(path.read_text()).generators) == 1
    assert len(builds) == 1 + 8


_DRAWN_PAIRS = """
import json, sys
from inchom import groupact
groups = [groupact.parse_group(text) for text in json.loads(sys.argv[1])]
pairs = [groupact._counting_generators(g, 10**9) for g in groups]
again = [groupact._counting_generators(groupact.parse_group(text), 10**9)
         for text in reversed(json.loads(sys.argv[1]))][::-1]
print(json.dumps([pairs, again]))
"""


def test_the_same_pair_comes_back_in_a_fresh_process(monkeypatch):
    # M24 accepts its first pair; GL(3, 3) x GL(2, 3) rejects a few first
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    texts = [data_text("m24.json"),
             workloads.matrix_group_file(workloads.MatrixGroup(3, 2, 3), random.Random(0))]
    here = json.loads(json.dumps([groupact._counting_generators(groupact.parse_group(t), 10**9)
                                  for t in texts]))
    first, again = _fresh_python(_DRAWN_PAIRS, json.dumps(texts))
    assert first == again == here
    assert [len(pair) for pair in here] == [2, 2]
