"""Record the outputs the benchmark's check compares against.

    python3 perfbench/record_reference.py

Runs every workload once, untraced, for each of REFERENCE_SEEDS and rewrites
perfbench/reference.json.  A run that fails any other check (exit code,
divergence, invariants, call counts) is not recorded.  gecsr must keep its
numbers, so re-record only for a change that is meant to alter them, and
say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEEDS = range(16)


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_work", f"reference-{os.getpid()}")
    seeds: dict[str, dict] = {}
    env = None
    try:
        for seed in REFERENCE_SEEDS:
            for name in WORKLOADS:
                shutil.rmtree(workdir, ignore_errors=True)
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
                     "--seed", str(seed), "--trace", "0", "--workdir", workdir],
                    cwd=ROOT, capture_output=True, text=True, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if result["errors"]:
                    print(f"seed {seed} {name}: {result['errors']}", file=sys.stderr)
                    return 1
                seeds.setdefault(str(seed), {})[name] = result["outputs"]
                env = result["env"]
                print(f"seed {seed} {name}: recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "seeds": seeds}, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
