"""gecsr benchmark: one workload, repeated for a fixed time, outputs checked.

    python3 perfbench/run.py --workload eval --seed 0 --seconds 20 --trace 0

Each repetition is a fresh workload process (perfbench/worker.py) that
writes the seeded inputs and runs one gecsr command through
`gecsr.cli.main`, as a user would.  Repetitions run one at a time (a closed
loop with one client) until --seconds have passed, and at least
MIN_REPEATS times.  End-to-end metrics are medians over the repetitions.

With --trace 1, traced and untraced repetitions alternate: the per-layer
metrics are medians over the traced ones, and bench.trace_overhead
compares the two kinds' median wall times.

Human-readable lines come first; the last line of standard output is the
JSON result.  The command exits non-zero without a result when gecsr's
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import PER_LAYER
from workloads import WORKLOADS, items, quality

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

MIN_REPEATS = {0: 3, 1: 4}
# Start no repetition after this many seconds: the run must end within 180.
LAST_START_S = 120.0
REPEAT_TIMEOUT_S = 50.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)


def repeat_once(workload: str, seed: int, traced: bool, workdir: str) -> dict:
    """Run one workload process; return its result with setup_s added."""
    shutil.rmtree(workdir, ignore_errors=True)
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
             "--trace", str(int(traced)), "--workdir", workdir],
            cwd=ROOT, capture_output=True, text=True, timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": [f"workload process exceeded {REPEAT_TIMEOUT_S:g} s"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"errors": [f"workload process exited {proc.returncode}: {tail[0]}"]}
    result = json.loads(lines[-1])
    result["errors"] += result.pop("reference_errors")
    result["setup_s"] = result["ready"] - launched
    return result


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gecsr", "cli.py")):
        print(f"gecsr sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    results: list[tuple[bool, dict]] = []
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            if len(results) >= MIN_REPEATS[args.trace] and elapsed >= args.seconds:
                break
            if elapsed >= LAST_START_S:
                break
            traced = bool(args.trace) and len(results) % 2 == 1
            results.append((traced, repeat_once(args.workload, args.seed, traced, workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it

    # Every repetition of one seed must write byte-identical outputs.
    digests = {r.get("digest") for _, r in results if not r["errors"]}
    if len(digests) > 1:
        for _, r in results:
            r["errors"].append("outputs differ between repetitions of one seed")
    good = [(t, r) for t, r in results if not r["errors"]]
    per_repetition = items(WORKLOADS[args.workload])
    attempted = len(results) * per_repetition
    failed = (len(results) - len(good)) * per_repetition
    for i, (traced, r) in enumerate(results):
        kind = "traced" if traced else "untraced"
        if "wall_s" in r:
            print(f"repetition {i} ({kind}): wall {r['wall_s']:.4f} s, "
                  f"setup {r['setup_s']:.4f} s, peak RSS {r['peak_rss_mb']:.1f} MB")
        for error in r["errors"]:
            print(f"check failed, repetition {i} ({kind}): {error}")

    # A repetition whose check failed still measured its time.
    metrics: dict[str, dict] = {}
    plain = [r for t, r in results if not t and "wall_s" in r]
    traced_runs = [r for t, r in results if t and "per_layer" in r]
    if args.trace == 0:
        values = {}
        if plain:
            values = {
                "setup_s": median_of(plain, "setup_s"),
                "wall_s": median_of(plain, "wall_s"),
                "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in plain),
                "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            }
        # Reported even when no repetition ran to the end, e.g. gecsr fails to import.
        values["ok_frac"] = 1.0 - failed / attempted
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    elif args.trace == 1 and plain and traced_runs:
        layer_values = {name: statistics.median(r["per_layer"][name] for r in traced_runs)
                        for name, _, _ in PER_LAYER if name != "bench.trace_overhead"}
        layer_values["bench.trace_overhead"] = (
            median_of(traced_runs, "wall_s") / median_of(plain, "wall_s") - 1.0)
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}

    env = (good or results)[0][1].get("env", {})
    print(f"workload {args.workload}, seed {args.seed}: {len(results)} repetitions "
          f"({len(traced_runs)} traced), {attempted - failed}/{attempted} items ok")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if good:
        name, value, unit = quality(WORKLOADS[args.workload], good[0][1]["outputs"])
        print(f"output quality (checked, not a metric): {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
