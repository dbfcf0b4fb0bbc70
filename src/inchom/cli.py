"""Command-line front end.

Every subcommand assembles a Report dict and can emit it as JSON with
--json; identical invocations print byte-identical JSON (timing is shown
only in the human-readable output).  A homology scan keeps its
HomologyReport under "results" until it is printed.  Exit status: 0 pass,
1 fail, 2 error.
"""

import argparse
import json
import sys
import time
from dataclasses import replace
from importlib import resources

from . import chartab, homology, inequal, poset
from .errors import DataError, IncompatibleFieldError, InternalConsistencyError, ResourceLimitError
from .qarith import FieldSpec, factorize, is_prime, quantum_char

PITABLE_DEFAULT_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23)


def data_text(name: str) -> str:
    """Contents of a bundled data file (group descriptions, exported tables)."""
    return resources.files("inchom.data").joinpath(name).read_text()


def _read_source(path: str) -> str:
    if path.startswith("data:"):
        return data_text(path[len("data:"):])
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _int_list(text: str) -> list:
    """Comma-separated integers, with a JSON array accepted as well."""
    text = text.strip()
    if text.startswith("["):
        try:
            vals = json.loads(text)
        except json.JSONDecodeError:
            vals = None
        # JSON true is an int to Python, so the type is tested exactly
        if isinstance(vals, list) and all(type(v) is int for v in vals):
            return vals
        raise argparse.ArgumentTypeError(f"expected a JSON integer array, got {text!r}")
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def cmd_pitable(args) -> dict:
    primes = [p for p in range(2, args.pmax + 1) if is_prime(p)]
    qs = args.q_list
    cells = []
    for p in primes:
        row = []
        for q in qs:
            row.append(None if q % p == 0 else quantum_char(p, q))
        cells.append(row)
    return {
        "command": "pitable",
        "inputs": {"pmax": args.pmax, "qs": qs},
        "results": {"primes": primes, "qs": qs, "cells": cells},
        "status": "pass",
    }


def _render_pitable(report) -> str:
    res = report["results"]
    width = 4
    lines = ["pi(p,q)" + "".join(f"{q:>{width}}" for q in res["qs"])]
    for p, row in zip(res["primes"], res["cells"]):
        cells = "".join(f"{'--' if v is None else v:>{width}}" for v in row)
        lines.append(f"p={p:<5}" + cells)
    return "\n".join(lines)


def cmd_homology(args) -> dict:
    spec = poset.PosetSpec.parse(args.poset)
    field = FieldSpec(args.p)
    table = homology.HomologyTable(spec, field)
    pi = table.pi
    inputs = {"poset": spec.describe(), "p": field.p}
    if (args.j is None) != (args.i is None):
        raise DataError("give both -j and -i, or neither")
    if args.j is not None:
        inputs |= {"j": args.j, "i": args.i}
        tc = table.trace(args.j, args.i)
        dim = table.dim(args.j, args.i)
        window = homology.vanishing_window(spec.n, pi, args.j, args.i)
        results = {
            "pi": pi,
            "j": args.j,
            "i": args.i,
            "dim": dim,
            "in_window": window,
            "slot": list(tc.slot),
            "lhs": tc.lhs,
            "rhs": tc.rhs,
            "arrow": list(tc.layout.arrow),
            "d": tc.layout.d,
        }
        status = "pass" if tc.passed and (window or dim == 0) else "fail"
    else:
        # the HomologyReport itself, so that _print_json writes its records
        # from their tuples
        results = table.scan()
        status = "pass" if results.passed else "fail"
    return {"command": "homology", "inputs": inputs, "results": results, "status": status}


def _render_homology(report) -> str:
    res = report["results"]
    if isinstance(res, homology.HomologyReport):
        res = res.to_dict()
    lines = [f"pi = {res['pi']}"]
    if "records" in res:
        nonzero = [r for r in res["records"] if r["dim"]]
        lines.append(f"{len(res['records'])} (j,i) pairs checked, "
                     f"{len(nonzero)} with nonzero homology")
        for r in nonzero:
            lines.append(
                f"  j={r['j']} i={r['i']}: dim={r['dim']} "
                f"window={'in' if r['in_window'] else 'OUT'} trace {r['lhs']}={r['rhs']}"
            )
    else:
        lines.append(
            f"j={res['j']} i={res['i']}: dim={res['dim']}, arrow={tuple(res['arrow'])}, "
            f"d={res['d']}, trace lhs={res['lhs']} rhs={res['rhs']}"
        )
    lines.append(f"status: {report['status']}")
    return "\n".join(lines)


def _chain_pis(n: int, q: int, order: int) -> list:
    """The values pi(p, q) <= n of primes p not dividing q*|G|, ascending.

    For q > 1, pi(p, q) <= n means p divides q^e - 1 for some e <= n, so the
    candidates are the prime factors of those numbers; for q = 1, pi(p, 1) = p.
    """
    if q == 1:
        candidates = {p for p in range(2, n + 1) if is_prime(p)}
    else:
        candidates = {p for e in range(1, n + 1) for p in factorize(q**e - 1)}
    pis = {quantum_char(p, q) for p in candidates if (q * order) % p}
    return sorted(pi for pi in pis if pi <= n)


def _check_orbit_series(counts, spec, order):
    """Gate an all-ranks orbit series on the paper's inequalities.

    Orbit counts grow toward the middle rank (Livingstone-Wagner, Stanley),
    and for every prime p not dividing q*|G| they satisfy the folded chain at
    pi(p, q); for pi > n the chain degenerates to that monotonicity.
    """
    lw = inequal.check_lw(counts)
    if not lw.passed:
        raise InternalConsistencyError(
            f"orbit series {counts} breaks Livingstone-Wagner monotonicity at (k, l) = {lw.violation}"
        )
    for pi in _chain_pis(spec.n, spec.q, order):
        chain = inequal.check_chain(counts, pi)
        if not chain.passed:
            raise InternalConsistencyError(
                f"orbit series {counts} breaks the folded chain at pi = {pi}, r = {chain.violation_r}"
            )


def cmd_orbits(args) -> dict:
    from . import groupact  # deferred: groupact loads numpy

    g = groupact.parse_group(_read_source(args.group))
    spec = poset.PosetSpec.parse(args.poset)
    if args.k is not None and not 0 <= args.k <= spec.n:
        raise ValueError(f"rank {args.k} of {spec.describe()} is empty")
    order = groupact.group_order(g)
    inputs = {"group": args.group, "poset": spec.describe(),
              "method": args.method, "k": args.k}
    results = {"order": order}
    status = "pass"
    n = spec.n
    ks = [args.k] if args.k is not None else list(range(n + 1))
    if args.method in ("uf", "both"):
        # N_k = N_{n-k}: complement commutes with a permutation action, and
        # g fixes as many k-subspaces as (n-k)-subspaces because g and g^T
        # are conjugate in GL(n, q); so an all-ranks run counts ranks 0..n//2
        counted = ks if args.k is not None else range(n // 2 + 1)
        # every rank passes the cap before a pair is drawn or a rank counted
        total = sum(poset._check_cap(spec, k, args.max_rank_size) for k in counted)
        counting = replace(g, generators=groupact._counting_generators(g, total))
        counts = [groupact.orbit_count_unionfind(counting, spec, k, cap=args.max_rank_size)
                  for k in counted]
        if args.k is None:
            counts = [counts[min(k, n - k)] for k in ks]
            _check_orbit_series(counts, spec, order)
        results["unionfind"] = counts
    if args.method in ("burnside", "both"):
        series = groupact.burnside_counts(g, spec, cap=args.max_group_order)
        results["burnside"] = [series.values[k] for k in ks]
    if args.method == "both":
        agree = results["unionfind"] == results["burnside"]
        results["methods_agree"] = agree
        if not agree:
            status = "fail"
    results["k_values"] = ks
    return {"command": "orbits", "inputs": inputs, "results": results, "status": status}


def _render_orbits(report) -> str:
    res = report["results"]
    lines = [f"|G| = {res['order']}"]
    for key in ("unionfind", "burnside"):
        if key in res:
            pairs = ", ".join(f"N_{k}={v}" for k, v in zip(res["k_values"], res[key]))
            lines.append(f"{key}: {pairs}")
    if "methods_agree" in res:
        lines.append(f"methods agree: {res['methods_agree']}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines)


def cmd_mult(args) -> dict:
    if args.table.startswith("sn:"):
        table = chartab.sn_table(int(args.table[3:]))
    else:
        table = chartab.load_table(_read_source(args.table))
    spec = poset.PosetSpec.parse(args.poset)
    if spec.kind != "boolean":
        raise DataError("multiplicity series need a boolean poset (subset action)")
    field = FieldSpec(args.p)
    pi = quantum_char(field.p, spec.q)
    series = chartab.multiplicity_series(table, args.irreducible, spec.n)
    chain = inequal.check_chain(series, pi)
    palindrome = inequal.check_palindrome(series)
    stanley = inequal.check_lw(series)
    # complex multiplicities equal the characteristic-p ones only when p is
    # coprime to |G|; outside that regime a failed folded chain is informative,
    # not an error
    guaranteed = table.order % field.p != 0
    status = "pass"
    if not (palindrome.passed and stanley.passed):
        status = "fail"
    if guaranteed and not chain.passed:
        status = "fail"
    return {
        "command": "mult",
        "inputs": {"table": args.table, "poset": spec.describe(),
                   "p": args.p, "irreducible": args.irreducible},
        "results": {
            "pi": pi,
            "series": list(series.values),
            "folded": list(chain.folded),
            "chain_passed": chain.passed,
            "chain_violation_r": chain.violation_r,
            "chain_guaranteed": guaranteed,
            "palindrome_passed": palindrome.passed,
            "stanley_passed": stanley.passed,
            "stanley_regime": pi > spec.n,
        },
        "status": status,
    }


def _render_mult(report) -> str:
    res = report["results"]
    chain_note = "pass" if res["chain_passed"] else "FAIL"
    if not res["chain_guaranteed"]:
        chain_note += " (p divides |G|: chain not guaranteed for complex multiplicities)"
    lines = [
        f"pi = {res['pi']}" + ("  (pi > n: plain Stanley regime)" if res["stanley_regime"] else ""),
        "series: " + ",".join(str(v) for v in res["series"]),
        "folded chain: " + " >= ".join(str(v) for v in res["folded"]) + f"  -> {chain_note}",
        f"palindrome: {'pass' if res['palindrome_passed'] else 'FAIL'}, "
        f"monotone toward middle: {'pass' if res['stanley_passed'] else 'FAIL'}",
        f"status: {report['status']}",
    ]
    return "\n".join(lines)


def cmd_bounds(args) -> dict:
    report = inequal.deduce_bounds(args.n, args.pis)
    return {
        "command": "bounds",
        "inputs": {"n": args.n, "pis": list(args.pis)},
        "results": {"bounds": list(report.bounds), "log": list(report.log)},
        "status": "pass",
    }


def _render_bounds(report) -> str:
    res = report["results"]
    lines = ["k : " + " ".join(f"{k}" for k in range(len(res["bounds"])))]
    lines.append("L : " + " ".join(str(v) for v in res["bounds"]))
    lines.extend("  " + step for step in res["log"])
    lines.append(f"status: {report['status']}")
    return "\n".join(lines)


def cmd_chain(args) -> dict:
    result = inequal.check_chain(args.series, args.pi)
    return {
        "command": "chain",
        "inputs": {"series": args.series, "pi": args.pi, "n": result.n},
        "results": {
            "m": result.m,
            "s": result.s,
            "folded": list(result.folded),
            "violation_r": result.violation_r,
        },
        "status": "pass" if result.passed else "fail",
    }


def _render_chain(report) -> str:
    res = report["results"]
    out = " >= ".join(str(v) for v in res["folded"])
    lines = [f"folded chain (m={res['m']}, s={res['s']}): {out}"]
    if res["violation_r"] is not None:
        lines.append(f"violated at r = {res['violation_r']}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines)


def cmd_order(args) -> dict:
    from . import groupact  # deferred: groupact loads numpy

    g = groupact.parse_group(_read_source(args.group))
    order = groupact.group_order(g)
    factors = {str(p): e for p, e in factorize(order).items()}
    return {
        "command": "order",
        "inputs": {"group": args.group},
        "results": {"order": order, "factorization": factors, "declared": g.declared_order},
        "status": "pass",
    }


def _render_order(report) -> str:
    res = report["results"]
    factors = " * ".join(
        f"{p}^{e}" if e > 1 else p for p, e in sorted(res["factorization"].items(), key=lambda kv: int(kv[0]))
    )
    return f"|G| = {res['order']} = {factors}\nstatus: {report['status']}"


# one ScanRecord as json.dumps(report, sort_keys=True, indent=2) writes it in
# the list at report["results"]["records"]: seven sorted keys, int or bool values
_SCAN_RECORD_JSON = (
    '      {\n        "dim": %d,\n        "i": %d,\n        "in_window": %s,\n'
    '        "j": %d,\n        "lhs": %d,\n        "passed": %s,\n        "rhs": %d\n      }'
)
_JSON_BOOL = ("false", "true")
_NO_RECORDS = '\n    "records": []'


def _print_json(report: dict) -> None:
    """Print json.dumps(report, sort_keys=True, indent=2), byte for byte.

    With indent set, json.dumps runs its pure-Python encoder, which costs more
    than the scan itself for a scan's thousands of records.  So a scan report
    goes through json.dumps with an empty record list, and its records are
    streamed into that one place from the ScanRecord tuples by a fixed template.
    """
    scan = report["results"]
    if not isinstance(scan, homology.HomologyReport):
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    head = report | {"results": replace(scan, records=()).to_dict()}
    before, after = json.dumps(head, sort_keys=True, indent=2).split(_NO_RECORDS)
    # a scan has (n + 1)(pi - 1) >= 2 records, so the list is never empty
    write = sys.stdout.write
    write(before + '\n    "records": [\n')
    sep = ""
    for j, i, dim, in_window, lhs, rhs, passed in scan.records:
        write(sep + _SCAN_RECORD_JSON % (dim, i, _JSON_BOOL[in_window], j, lhs,
                                         _JSON_BOOL[passed], rhs))
        sep = ",\n"
    write("\n    ]" + after + "\n")


_RENDERERS = {
    "pitable": _render_pitable,
    "homology": _render_homology,
    "orbits": _render_orbits,
    "mult": _render_mult,
    "bounds": _render_bounds,
    "chain": _render_chain,
    "order": _render_order,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inchom",
        description="Incidence homology, orbit counts and multiplicity chains "
                    "on subset and subspace lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit the machine-readable report")

    p = sub.add_parser("pitable", help="print the quantum characteristic grid pi(p, q)")
    p.add_argument("--pmax", type=int, default=19)
    p.add_argument("--q-list", dest="q_list", type=_int_list,
                   default=list(PITABLE_DEFAULT_QS))
    add_json(p)
    p.set_defaults(func=cmd_pitable)

    p = sub.add_parser("homology", help="scan homology dimensions and trace identities")
    p.add_argument("poset", help="boolean:<n> or projective:<n>,<q>")
    p.add_argument("-p", type=int, required=True, help="field characteristic")
    p.add_argument("-j", type=int, default=None)
    p.add_argument("-i", type=int, default=None)
    add_json(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("orbits", help="orbit counts of a group on rank sets")
    p.add_argument("group", help="group file path, or data:<bundled name>")
    p.add_argument("poset")
    p.add_argument("-k", type=int, default=None, help="single rank (default: all)")
    p.add_argument("--method", choices=("uf", "burnside", "both"), default="uf")
    p.add_argument("--max-rank-size", type=int, default=None)
    p.add_argument("--max-group-order", type=int, default=None)
    add_json(p)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("mult", help="multiplicity series of one irreducible, with chains")
    p.add_argument("table", help="sn:<n>, a table file path, or data:<bundled name>")
    p.add_argument("poset")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--irreducible", required=True)
    add_json(p)
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("bounds", help="lower bounds on orbit counts from folded chains")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--pis", type=_int_list, required=True)
    add_json(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("chain", help="check the folded chain of an explicit series")
    p.add_argument("--series", type=_int_list, required=True)
    p.add_argument("--pi", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("order", help="order of a group given by generators")
    p.add_argument("group")
    add_json(p)
    p.set_defaults(func=cmd_order)

    return parser


def main(argv=None) -> int:
    # folded sums of large projective posets run to thousands of digits
    # (4,335 for projective:120,16), and from 3.10.7 on Python refuses to
    # read or print an int of more than 4,300 digits; the limit is lifted
    # while this call parses, runs and prints, so such sums can be passed
    # back in, and the caller's value comes back after, argparse's exit too
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(build_parser().parse_args(argv))
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        sys.set_int_max_str_digits(digits)


def _run(args) -> int:
    """Run the parsed command, print its report and return the exit status."""
    started = time.perf_counter()
    try:
        report = args.func(args)
    except (DataError, IncompatibleFieldError, ResourceLimitError,
            InternalConsistencyError, ValueError, OSError) as exc:
        inputs = {k: v for k, v in vars(args).items() if k not in ("command", "func", "json")}
        report = {
            "command": args.command,
            "inputs": inputs,
            "results": {"error": str(exc), "type": type(exc).__name__},
            "status": "error",
        }
    elapsed = time.perf_counter() - started
    if args.json:
        _print_json(report)
    else:
        if report["status"] == "error":
            print(f"error: {report['results']['error']}", file=sys.stderr)
        else:
            print(_RENDERERS[report["command"]](report))
        print(f"[{elapsed:.2f}s]", file=sys.stderr)
    return {"pass": 0, "fail": 1}.get(report["status"], 2)


if __name__ == "__main__":
    sys.exit(main())
