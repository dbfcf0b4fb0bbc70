"""Record the SHA-256 of the --json output of every fixed-input benchmark call.

    python3 perfbench/record.py

Writes perfbench/expected.json.  Run it only at a commit whose outputs are
the reference: the benchmark then fails any call whose output differs from
it by a single byte.  Every recorded call must exit 0 with status "pass".
"""

import hashlib
import json
import sys

import run
import workloads


def main() -> int:
    expected = {}
    for argv in workloads.fixed_argvs():
        key = " ".join(argv)
        if key in expected:
            continue
        _, _, code, out = run.spawn([sys.executable, "-m", "inchom.cli", *argv, "--json"], 170)
        status = json.loads(out).get("status") if code == 0 else None
        if status != "pass":
            print(f"{key}: exit code {code}, status {status!r}", file=sys.stderr)
            return 1
        expected[key] = hashlib.sha256(out).hexdigest()
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} digests in {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
