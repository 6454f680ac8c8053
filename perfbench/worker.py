"""One workload process: write the inputs, run one gecsr command, check it.

Run as `python3 perfbench/worker.py --workload eval --seed 0 --trace 0
--workdir DIR`.  The BLAS thread count is pinned before numpy loads.  The
last line of standard output is one JSON object: timings, the outcome of
the output check, the numeric environment and, when traced, the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

# One thread gives steadier timings on a small shared box, and it is the
# count the reference outputs were recorded with.  numpy is imported only
# after this point, so OpenBLAS starts with it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")


def numeric_env() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count()}


def digest(out_dir: str) -> str:
    """Hash of every output file's name and bytes."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def expected_counts(workload) -> dict[str, int]:
    """Per-layer call counts implied by the workload size (traced run)."""
    import workloads as wl
    want = {"cli.main.calls": 1}
    solves = wl.solves(workload)
    if solves:
        want["solver.run_solver.calls"] = solves
    if workload.name == "eval":
        want["model.sample_at.calls"] = solves
        want["solver.spectral_init.calls"] = solves
        want["hypernets.beta.calls"] = 2 * workload.layers * workload.count
    if workload.name == "train-spsa":
        want["hypernets.beta.calls"] = 2 * workload.layers * solves
        want["training.spsa_gradient.calls"] = workload.steps
    if workload.name.startswith("train-"):
        want["model.sample_at.calls"] = workload.count
        want["solver.spectral_init.calls"] = workload.count
        want["training.adam_step.calls"] = workload.steps
    if workload.name == "train-adjoint":
        want["adjoint.loss_and_gradient.calls"] = wl.adjoint_calls(workload)
        want["adjoint.gradient_vector.calls"] = wl.adjoint_calls(workload)
    if workload.name == "image":
        want["model.dense_gaussian_matrix.calls"] = 1
        want["hypernets.beta.calls"] = 2 * workload.layers
    return want


# Spans each workload must enter at least once; a wrapper that saw no call
# on a workload that drives its module means a binding site was missed.
MUST_SEE = {
    "eval": ("training.evaluate", "solver.magnitude_posterior", "solver.lmmse_posterior",
             "solver.gb_posterior", "solver.extrinsic", "solver.damp",
             "solver.bessel_ratio", "hypernets.gru_step", "hypernets.attention_head",
             "hypernets.policy_for_params", "hypernets.load_checkpoint"),
    "train-spsa": ("training.train", "training.sample_loss", "solver.bessel_ratio",
                   "hypernets.gru_step", "hypernets.attention_head",
                   "hypernets.policy_for_params", "hypernets.params_from_vector",
                   "hypernets.save_checkpoint"),
    "train-adjoint": ("training.train", "adjoint.bessel_ratio",
                      "hypernets.params_from_vector", "hypernets.save_checkpoint"),
    "image": ("solver.spectral_init", "solver.lmmse_posterior", "solver.bessel_ratio",
              "hypernets.gru_step", "hypernets.attention_head",
              "hypernets.load_checkpoint"),
}


def trace_errors(workload, tracer) -> list[str]:
    errors = []
    for key, want in expected_counts(workload).items():
        span = key.rsplit(".", 1)[0]
        got = tracer.stats[span].calls if span in tracer.stats else 0
        if got != want:
            errors.append(f"{span} saw {got} calls, workload size implies {want}")
    for span in MUST_SEE[workload.name]:
        if span not in tracer.stats or tracer.stats[span].calls == 0:
            errors.append(f"wrapper {span} saw no calls")
    return errors


def run(workload_name: str, seed: int, traced: bool, workdir: str) -> dict:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from gecsr import cli
    import tracer as tr
    import workloads as wl

    workload = wl.WORKLOADS[workload_name]
    out_dir = os.path.join(workdir, "out")
    argv = wl.write_inputs(workload, seed, os.path.join(workdir, "in"), out_dir)
    tracer = tr.Tracer(timed=traced)
    tracer.install()
    ready = time.monotonic()
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = [] if code == 0 else [f"gecsr exited with code {code}"]
    reference_errors: list[str] = []
    outputs, out_digest = {}, ""
    if code == 0:
        outputs = wl.read_outputs(workload, out_dir)
        out_digest = digest(out_dir)
        init_db = [r[2] for r in tracer.solver_runs]
        errors += wl.check_invariants(workload, outputs, init_db)
        solves = len(tracer.solver_runs)
        if solves != wl.solves(workload):
            errors.append(f"{solves} solves, workload size implies {wl.solves(workload)}")
        if len(tracer.adjoint_runs) != wl.adjoint_calls(workload):
            errors.append(f"{len(tracer.adjoint_runs)} adjoint gradients, workload "
                          f"size implies {wl.adjoint_calls(workload)}")
        diverged = sum(r[0] for r in tracer.solver_runs) + sum(tracer.adjoint_runs)
        if diverged:
            errors.append(f"{diverged} diverged solves")
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)["seeds"].get(str(seed), {}).get(workload_name)
        if reference is not None:
            reference_errors = wl.compare_reference(outputs, reference)
    if traced:
        errors += trace_errors(workload, tracer)
    result = {
        "ready": ready, "wall_s": wall, "items": wl.items(workload),
        "peak_rss_mb": peak_rss_mb, "errors": errors,
        "reference_errors": reference_errors, "digest": out_digest,
        "outputs": outputs, "env": numeric_env(),
    }
    if traced:
        result["per_layer"] = tracer.per_layer()
        result["self_s_total"] = tracer.self_time_total()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    result = run(args.workload, args.seed, bool(args.trace), args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
