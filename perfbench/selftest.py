"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs one short operation per workload, untraced and traced, and checks that
every metric named in BENCHMARK.json is emitted with its unit, that the
design record names the same workloads and metrics, and that an operation
whose output does not match its expected digest counts as failed.
"""

import json
import sys

import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((run.HERE / "design.json").read_text())


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_names():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    expect(names == list(workloads.WORKLOADS), "BENCHMARK.json workloads match workloads.py")
    expect(names == list(DESIGN["workloads"]), "design.json records every workload")
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    expect(e2e == set(DESIGN["end_to_end"]), "design.json describes every end-to-end metric")
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    expect(layers == tracing.METRICS, "BENCHMARK.json per-layer metrics match tracing.METRICS")
    expect(set(layers) == set(DESIGN["per_layer"]), "design.json maps every per-layer metric")


def check_metrics(workload, trace, result):
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{workload} trace={trace} emits {sorted(want)} with units")
    expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
           f"{workload} trace={trace} metric values are numbers")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace} short run is correct: {result}")


def main() -> int:
    check_names()
    expected = json.loads(run.EXPECTED.read_text())
    for workload in workloads.WORKLOADS:
        ops = workloads.generate(workload, 0, short=True)
        for trace in (0, 1):
            result, _ = run.run(workload, 0, 0, trace, ops=ops, expected=expected)
            check_metrics(workload, trace, result)
            print(f"ok {workload} trace={trace}: {len(result['metrics'])} metrics")

    op = workloads.generate("homology-arith", 0, short=True)[0]
    wrong = dict(expected, **{op.key: "0" * 64})
    result, _ = run.run("homology-arith", 0, 0, 0, ops=[op], expected=wrong)
    expect(not result["correct"] and result["failed"] == result["attempted"] == 1,
           "a wrong expected digest counts as a failed operation")
    print("ok a wrong digest fails the operation")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
