import json

from inchom.cli import main


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


def test_homology_scan_projective(capsys):
    code, doc = run_json(capsys, "homology", "projective:4,2", "-p", "3")
    assert code == 0 and doc["results"]["pi"] == 2
    assert doc["status"] == "pass"


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


def test_max_rank_size_leaves_library_defaults_alone(capsys):
    from inchom.homology import homology_scan
    from inchom.poset import PosetSpec, enumerate_rank
    from inchom.qarith import FieldSpec

    code, _ = run_json(capsys, "orbits", "data:c4.json", "boolean:4", "-k", "1",
                       "--max-rank-size", "5")
    assert code == 0
    assert len(enumerate_rank(PosetSpec.boolean(4), 2)) == 6
    assert homology_scan(PosetSpec.boolean(4), FieldSpec(3)).passed


def test_max_rank_size_zero_is_honoured_everywhere(capsys):
    for argv in (("homology", "boolean:4", "-p", "3"),
                 ("homology", "boolean:4", "-p", "3", "-j", "2", "-i", "1"),
                 ("orbits", "data:c4.json", "boolean:4")):
        code, doc = run_json(capsys, *argv, "--max-rank-size", "0")
        assert code == 2 and doc["results"]["type"] == "ResourceLimitError", argv


def test_rank_cap_applies_to_warm_caches(capsys):
    # the scan without a cap builds and caches every matrix first
    code, _ = run_json(capsys, "homology", "boolean:6", "-p", "3")
    assert code == 0
    code, doc = run_json(capsys, "homology", "boolean:6", "-p", "3", "--max-rank-size", "19")
    assert code == 2 and "over the cap 19" in doc["results"]["error"]
    code, doc = run_json(capsys, "homology", "boolean:6", "-p", "3", "--max-rank-size", "20")
    assert code == 0


def test_error_report_keeps_inputs_and_type(capsys):
    code, doc = run_json(capsys, "order", "no_such_file.json", "--max-group-order", "7")
    assert code == 2
    assert doc["inputs"] == {"group": "no_such_file.json", "max_group_order": 7}
    assert doc["results"]["type"] == "FileNotFoundError"
    code, doc = run_json(capsys, "orbits", "data:c4.json", "boolean:5")
    assert doc["inputs"] == {"group": "data:c4.json", "poset": "boolean:5", "k": None,
                             "method": "uf", "max_rank_size": None, "max_group_order": None}
    assert doc["results"]["type"] == "DataError"
