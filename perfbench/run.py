"""Benchmark of the inchom command line, run as its users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one fresh `python -m inchom.cli <args> --json` process,
run one at a time (a closed loop with one client), so each pays interpreter
start-up and package import as a user does.  The workload's operation list,
generated from the seed (workloads.py), is run as whole passes until S
seconds have gone, and every output is checked.

--trace 0 prints the end-to-end metrics (see README.md).  --trace 1
alternates untraced passes with passes whose calls run under tracing.py,
and prints the per-layer metrics and the tracing overhead.  The last line of
stdout is always one JSON object: correct, attempted, failed, metrics.
A run record with metadata, the operation list and every sample is written
to .perfbench_run/ and printed on the line before it.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
EXPECTED = HERE / "expected.json"

SETUP_SPAWNS = 9
# the whole run must end within 180 s; no operation is started past this
DEADLINE_S = 165.0
TAIL_LEVEL = 75

CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
CHILD_ENV["PYTHONPATH"] = str(SRC)
# inchom makes no BLAS calls, but importing numpy starts an OpenBLAS pool of
# nproc threads that spin; on a shared 2-core box they compete with the one
# working thread, so their cost is scheduler noise rather than program time.
CHILD_ENV.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


@dataclass
class Sample:
    """One finished operation: its timings, resources and check result."""

    op_index: int
    traced: bool
    wall: float
    cpu: float
    rss_mb: float
    failure: str | None
    profile: dict | None = None


def spawn(cmd, timeout):
    """Run cmd to completion; (wall s, rusage of this child alone, exit code, stdout).

    os.wait4 gives the child's own rusage; RUSAGE_CHILDREN would fold in the
    peak RSS of every earlier child.  A child still running after timeout is
    killed and reported with exit code None.
    """
    RUN_DIR.mkdir(exist_ok=True)
    started = time.perf_counter()
    with open(RUN_DIR / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, stderr=err)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, None if timed_out.is_set() else proc.returncode, out


def check(op, code, stdout, expected) -> str | None:
    """Why the operation failed, or None when its output is right."""
    if code is None:
        return "timed out"
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if report.get("status") != "pass":
        return f"status {report.get('status')!r}"
    res = report.get("results", {})
    if op.fixed:
        want = expected.get(op.key)
        if want is None:
            return "no recorded digest"
        if hashlib.sha256(stdout).hexdigest() != want:
            return "output differs from the recorded digest"
    if op.order is not None and res.get("order") != op.order:
        return f"order {res.get('order')} != {op.order}"
    if op.series is not None:
        for method in ("unionfind", "burnside"):
            if method in res and res[method] != list(op.series):
                return f"{method} counts {res[method]} != {list(op.series)}"
    if res.get("methods_agree") is False:
        return "methods_agree is false"
    return None


def remaining(deadline) -> float:
    return max(1.0, deadline - time.perf_counter())


def run_op(index, op, traced, expected, deadline) -> Sample:
    cli = [*op.argv, "--json"]
    if traced:
        spans = RUN_DIR / "spans.npz"
        spans.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), *cli]
    else:
        cmd = [sys.executable, "-m", "inchom.cli", *cli]
    wall, usage, code, out = spawn(cmd, remaining(deadline))
    failure = check(op, code, out, expected)
    profile = None
    if traced and failure is None:
        profile = tracing.profile(spans)
    if failure:
        err = (RUN_DIR / "stderr.txt").read_text(errors="replace").strip().splitlines()
        failure += f" ({err[-1]})" if err else ""
    return Sample(index, traced, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024, failure, profile)


def measure(ops, seconds, modes, expected, deadline) -> list:
    """Whole passes over ops, cycling through modes, as many as fit in `seconds`.

    Each mode gets at least one pass; another cycle starts only when it is
    expected to end within `seconds`, so a run never measures much longer
    than asked.  Passes are whole so that every operation has the same
    number of samples.
    """
    samples = []
    started = time.perf_counter()
    cycles = 0
    while True:
        for traced in modes:
            for i, op in enumerate(ops):
                samples.append(run_op(i, op, traced, expected, deadline))
        cycles += 1
        elapsed = time.perf_counter() - started
        if elapsed * (cycles + 1) / cycles > min(seconds, deadline - started):
            return samples


def tail(values):
    """(level, value): p75 once ten or more samples lie above it, else the median.

    A fixed level keeps runs with different sample counts comparable; p75 is
    the highest level that small-queries, the one workload with 40 or more
    samples per run, supports.
    """
    if len(values) >= 40:
        return TAIL_LEVEL, statistics.quantiles(values, n=100, method="inclusive")[TAIL_LEVEL - 1]
    return 50, statistics.median(values)


def per_op_median(samples, n_ops, attr):
    return [statistics.median(getattr(s, attr) for s in samples if s.op_index == i)
            for i in range(n_ops)]


def end_to_end(samples, n_ops, setup_s) -> tuple:
    walls = [s.wall for s in samples]
    level, tail_s = tail(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_op_median(samples, n_ops, "wall")), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail_s, "s"),
        "cpu_s": (sum(per_op_median(samples, n_ops, "cpu")), "s"),
        "peak_rss_mb": (max(s.rss_mb for s in samples), "MB"),
    }
    return metrics, {"op_samples": len(walls), "op_tail_percentile": level}


def per_layer(samples, n_ops) -> tuple:
    traced = [s for s in samples if s.traced]
    plain = [s for s in samples if not s.traced]
    passes = [traced[i:i + n_ops] for i in range(0, len(traced), n_ops)]
    per_pass = [
        [tracing.layer_metrics(s.profile) for s in p if s.profile is not None] for p in passes
    ]
    metrics = {}
    for name, unit in tracing.METRICS.items():
        if name == "trace_overhead_ratio":
            value = (sum(per_op_median(traced, n_ops, "wall"))
                     / sum(per_op_median(plain, n_ops, "wall")))
        else:
            value = statistics.median(sum(m[name] for m in p) for p in per_pass)
        metrics[name] = (value, unit)
    totals = {}
    for s in traced:
        for name, row in (s.profile["spans"] if s.profile else {}).items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            for j, v in enumerate(row):
                acc[j] += v
    # [calls, outermost s, self s] per traced pass, largest self time first
    spans = {n: [v / len(passes) for v in row]
             for n, row in sorted(totals.items(), key=lambda kv: -kv[1][2])}
    return metrics, {"traced_passes": len(passes), "spans_per_pass": spans}


def setup_time(deadline) -> tuple:
    """Median wall time of a fresh interpreter importing inchom.cli, and the versions seen.

    The first spawn also checks that the package comes from this checkout and
    compiles its bytecode; it is not timed.
    """
    probe = ("import json, platform, sys, numpy, inchom, inchom.cli; "
             "print(json.dumps({'inchom': inchom.__file__, 'python': platform.python_version(), "
             "'numpy': numpy.__version__}))")
    _, _, code, out = spawn([sys.executable, "-c", probe], remaining(deadline))
    if code != 0:
        sys.exit("inchom.cli does not import from this checkout")
    seen = json.loads(out)
    if not Path(seen["inchom"]).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"inchom imports from {seen['inchom']}, not from {SRC}")
    times = [spawn([sys.executable, "-c", "import inchom.cli"], remaining(deadline))[0]
             for _ in range(SETUP_SPAWNS)]
    return statistics.median(times), seen


def metadata(seed, trace, seen) -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.exists() else ref
        else:
            sha = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "inchom").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    if Path("/proc/cpuinfo").exists():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": seen["python"], "numpy": seen["numpy"],
            "platform": platform.platform(), "seed": seed, "traced": bool(trace)}


def write_files(ops):
    for op in ops:
        for rel, text in op.files:
            path = ROOT / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)


def run(workload, seed, seconds, trace, ops=None, expected=None) -> tuple:
    """Measure one workload; returns the result and the run record."""
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    if ops is None:
        ops = workloads.generate(workload, seed)
    if expected is None:
        expected = json.loads(EXPECTED.read_text())
    write_files(ops)
    setup_s, seen = setup_time(deadline)
    modes = (False, True) if trace else (False,)
    samples = measure(ops, seconds, modes, expected, deadline)
    if trace:
        metrics, detail = per_layer(samples, len(ops))
    else:
        metrics, detail = end_to_end(samples, len(ops), setup_s)
    failures = [{"op": ops[s.op_index].key, "traced": s.traced, "reason": s.failure}
                for s in samples if s.failure]
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload,
        "meta": metadata(seed, trace, seen),
        "seconds": seconds,
        "ops": [op.key for op in ops],
        "failures": failures,
        "fail_ratio": len(failures) / len(samples),
        "samples": [[s.op_index, int(s.traced), s.wall, s.cpu, s.rss_mb] for s in samples],
        **detail,
        # every child's ru_maxrss is at least this: exec keeps the parent's high-water mark
        "harness_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "run_s": time.perf_counter() - started,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "inchom" / "cli.py").is_file():
        print(f"no inchom sources under {SRC}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RUN_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    for f in record["failures"]:
        print(f"FAILED {f['op']}: {f['reason']}")
    for metric, m in result["metrics"].items():
        print(f"{metric} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {record['fail_ratio']:.6g} ({result['failed']}/{result['attempted']})")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
