"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run real workload processes (about a minute in all), so they live
beside the benchmark rather than in the package's tier-1 suite.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

_RESULTS: dict = {}


def run_worker(tmp_root, name: str, seed: int, trace: int, repeat: int = 0) -> dict:
    """One workload process; results are shared between tests."""
    key = (name, seed, trace, repeat)
    if key not in _RESULTS:
        workdir = os.path.join(tmp_root, "-".join(map(str, key)))
        proc = subprocess.run(
            [sys.executable, worker.__file__, "--workload", name, "--seed", str(seed),
             "--trace", str(trace), "--workdir", workdir],
            cwd=ROOT, capture_output=True, text=True, check=True)
        _RESULTS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RESULTS[key]


@pytest.fixture(scope="module")
def tmp_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench"))


def _input_bytes(name: str, seed: int, directory) -> dict:
    in_dir = os.path.join(directory, "in")
    workloads.write_inputs(workloads.WORKLOADS[name], seed, in_dir,
                           os.path.join(directory, "out"))
    return {f: open(os.path.join(in_dir, f), "rb").read() for f in sorted(os.listdir(in_dir))}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(name, tmp_path):
    first = _input_bytes(name, 3, tmp_path / "a")
    again = _input_bytes(name, 3, tmp_path / "b")
    other = _input_bytes(name, 4, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[f] != other[f] for f in first)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_identical(name, tmp_root):
    plain = run_worker(tmp_root, name, 1, 0)
    traced = run_worker(tmp_root, name, 1, 1)
    assert plain["errors"] == [] and traced["errors"] == []
    assert plain["digest"] == traced["digest"]


@pytest.mark.parametrize("name", ["eval", "train-spsa"])
def test_call_counts_repeat_across_traced_runs(name, tmp_root):
    first = run_worker(tmp_root, name, 1, 1)["per_layer"]
    second = run_worker(tmp_root, name, 1, 1, repeat=1)["per_layer"]
    counts = [n for n, unit, _ in tracer.PER_LAYER if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_fit_in_traced_wall(name, tmp_root):
    result = run_worker(tmp_root, name, 1, 1)
    assert 0.0 < result["self_s_total"] <= result["wall_s"]


def test_missed_binding_site_is_an_error():
    empty = tracer.Tracer(timed=True)
    errors = worker.trace_errors(workloads.WORKLOADS["eval"], empty)
    assert "wrapper hypernets.gru_step saw no calls" in errors
    assert any(e.startswith("solver.run_solver saw 0 calls") for e in errors)


def test_reference_mismatch_is_reported():
    got = {"curves": {"v": {"nmse_median_db": [-20.0, -25.0]}}}
    assert workloads.compare_reference(got, got) == []
    off = {"curves": {"v": {"nmse_median_db": [-20.0, -25.01]}}}
    assert len(workloads.compare_reference(off, got)) == 1


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.PER_LAYER)


def test_exits_without_result_when_gecsr_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
