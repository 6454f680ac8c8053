"""The four benchmark workloads: sizes, generated inputs, commands, checks.

Every input is generated from the benchmark seed alone, so the same seed
gives byte-identical inputs.  gecsr itself only sees the written files and
the command line, exactly as a user would run it.  The controllers are
seeded, untrained `init_variant_params` checkpoints: an untrained
controller does the same work per policy query as a trained one, so no
workload has to train a controller before it can be timed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

CONTROLLER = "hypergru_attn"

# (400, 100) scenario shared by the eval and training workloads: both
# matrix classes, as in the README's manifest example.  SNR and sparsity are
# fixed rather than drawn: the Bessel-ratio kernel's cost depends on the
# SNR, and with a few samples a drawn SNR would make the work vary by seed.
_SCENARIO = {
    "m": 400, "n": 100,
    "matrix_class": ["gaussian", "geometric"], "gammas": [1.0, 0.97],
    "snr_db_range": [25.0, 25.0], "rho_range": [0.5, 0.5],
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    count: int = 0          # manifest samples
    layers: int = 10        # solver layers per run
    batch: int = 0          # training batch size
    epochs: int = 0
    pairs: int = 0          # SPSA perturbation pairs
    image_side: int = 0     # PGM edge length in pixels
    ratio: float = 4.0      # measurements per pixel (image)

    @property
    def steps(self) -> int:
        return self.epochs * (self.count // self.batch) if self.batch else 0


WORKLOADS = {
    w.name: w for w in (
        Workload("eval", count=4, layers=30,
                 why="gecsr eval of a checkpoint plus both baselines at 30 layers; "
                     "every sample and spectral init is regenerated per policy, so "
                     "generation dominates"),
        Workload("train-spsa", count=4, batch=2, epochs=2, pairs=8,
                 why="SPSA training over two epochs: after the first, samples are "
                     "cached, so small forward solves and policy queries dominate"),
        Workload("train-adjoint", count=48, batch=48, epochs=2,
                 why="adjoint training at batch 48 with gradient clipping; the only "
                     "workload that runs the adjoint module"),
        Workload("image", layers=10, image_side=32,
                 why="recon-image of a 32x32 PGM at ratio 4 (M=4096, N=1024): a dense "
                     "SVD and BLAS-bound products on the largest working set"),
    )
}


def _manifest(seed: int, count: int) -> dict:
    return dict(_SCENARIO, seed=seed, count=count)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_checkpoint(path: str, seed: int, n: int) -> None:
    from gecsr import hypernets
    params = hypernets.init_variant_params(CONTROLLER, n, 10, seed=seed)
    hypernets.save_checkpoint(
        path, hypernets.checkpoint_payload(CONTROLLER, params, n=n, layers=10))


def synthetic_image(seed: int, side: int) -> np.ndarray:
    """Bright discs and bars on a black background, pixels in [0, 1]."""
    rng = np.random.default_rng([seed, side])
    yy, xx = np.mgrid[0:side, 0:side].astype(float)
    image = np.zeros((side, side))
    for _ in range(4):
        cy, cx = rng.uniform(0.2 * side, 0.8 * side, 2)
        radius = rng.uniform(0.08 * side, 0.2 * side)
        image[(yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2] = rng.uniform(0.5, 1.0)
    row = int(rng.integers(0, side - 3))
    image[row:row + 3, :] = rng.uniform(0.3, 0.8)
    return image


def write_inputs(workload: Workload, seed: int, in_dir: str, out_dir: str) -> list[str]:
    """Write the workload's input files; return the gecsr command line."""
    from gecsr import model
    os.makedirs(in_dir, exist_ok=True)
    name = workload.name
    if name == "eval":
        manifest = os.path.join(in_dir, "manifest.json")
        checkpoint = os.path.join(in_dir, f"{CONTROLLER}.json")
        _write_json(manifest, _manifest(seed, workload.count))
        _write_checkpoint(checkpoint, seed, _SCENARIO["n"])
        return ["eval", "--manifest", manifest, "--checkpoint", checkpoint,
                "--layers", str(workload.layers), "--out", out_dir]
    if name in ("train-spsa", "train-adjoint"):
        trainer = {"batch_size": workload.batch, "epochs": workload.epochs,
                   "layers": workload.layers, "seed": seed}
        if name == "train-spsa":
            trainer["grad_pairs"] = workload.pairs
        else:
            trainer.update(grad_estimator="adjoint", learning_rate=0.02,
                           grad_clip_norm=1.0)
        config = os.path.join(in_dir, "train.json")
        _write_json(config, {"variants": [CONTROLLER],
                             "manifest": _manifest(seed, workload.count),
                             "trainer": trainer})
        return ["train", "--config", config, "--out", out_dir]
    if name == "image":
        image = os.path.join(in_dir, "image.pgm")
        checkpoint = os.path.join(in_dir, f"{CONTROLLER}.json")
        model.write_pgm(image, synthetic_image(seed, workload.image_side))
        _write_checkpoint(checkpoint, seed, _SCENARIO["n"])
        return ["recon-image", "--image", image, "--checkpoint", checkpoint,
                "--ratio", f"{workload.ratio:g}", "--layers", str(workload.layers),
                "--seed", str(seed), "--out", out_dir]
    raise KeyError(name)


def solves(workload: Workload) -> int:
    """run_solver calls the workload size implies (0: solver not driven)."""
    if workload.name == "eval":
        return workload.count * 3          # checkpoint + two baselines
    if workload.name == "train-spsa":
        return workload.steps * 2 * workload.pairs * workload.batch
    if workload.name == "image":
        return 1
    return 0


def adjoint_calls(workload: Workload) -> int:
    """loss_and_gradient calls the workload size implies."""
    return workload.steps * workload.batch if workload.name == "train-adjoint" else 0


def items(workload: Workload) -> int:
    """Units of work per command: solves, per-sample gradients or layers."""
    if workload.name == "image":
        return workload.layers
    return solves(workload) or adjoint_calls(workload)


# ----------------------------------------------------------- output reading


def read_outputs(workload: Workload, out_dir: str) -> dict:
    """The numbers a user reads off the command's output files."""
    if workload.name == "eval":
        curves: dict[str, dict[str, list[float]]] = {}
        with open(os.path.join(out_dir, "eval.csv"), encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                curves.setdefault(row["variant"], {}).setdefault(
                    row["metric"], []).append(float(row["value"]))
        return {"curves": curves}
    if workload.name == "image":
        with open(os.path.join(out_dir, "recon_report.json"), encoding="utf-8") as fh:
            return {"nmse_db": float(json.load(fh)["nmse_db"])}
    with open(os.path.join(out_dir, f"{CONTROLLER}_loss.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {"batch_loss": [float(r["batch_loss"]) for r in rows],
            "moving_avg": [float(r["moving_avg"]) for r in rows]}


def quality(workload: Workload, outputs: dict) -> tuple[str, float, str]:
    """The output quality a user reads: final NMSE or final training loss."""
    if workload.name == "eval":
        return "nmse_db", outputs["curves"]["schedule_0.9t"]["nmse_median_db"][-1], "dB"
    if workload.name == "image":
        return "nmse_db", outputs["nmse_db"], "dB"
    return "train_loss", outputs["moving_avg"][-1], "1"


# Output files round to 6 significant digits; a reference match is judged
# to a few units in that last digit.
REL_TOL = 1e-4
ABS_TOL = 1e-6
# The 0.9^t baseline must end this far below its spectral initialization.
MIN_GAIN_DB = 10.0


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{prefix}{key}.")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield f"{prefix}{i}", v
    else:
        yield prefix.rstrip("."), value


def compare_reference(got: dict, want: dict) -> list[str]:
    """Differences between outputs and stored reference values."""
    errors = []
    got_flat = dict(_flatten(got))
    want_flat = dict(_flatten(want))
    if got_flat.keys() != want_flat.keys():
        return [f"output fields differ from the reference: "
                f"{sorted(got_flat.keys() ^ want_flat.keys())[:4]}"]
    for key, ref in want_flat.items():
        if not math.isclose(got_flat[key], ref, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            errors.append(f"{key} = {got_flat[key]!r}, reference {ref!r}")
    return errors[:8]


def check_invariants(workload: Workload, outputs: dict, init_nmse_db: list[float]) -> list[str]:
    """Seed-independent checks on the outputs of one command."""
    errors = []
    values = [v for _, v in _flatten(outputs)]
    if not all(math.isfinite(v) for v in values):
        errors.append("non-finite value in the outputs")
    if workload.name == "eval":
        curves = outputs["curves"]
        for variant in (CONTROLLER, "schedule_0.9t", "schedule_0.5"):
            for metric in ("nmse_median_db", "nmse_mean_db"):
                if len(curves.get(variant, {}).get(metric, [])) != workload.layers:
                    errors.append(f"eval.csv lacks {workload.layers} {metric} rows "
                                  f"for {variant}")
        if not errors:
            final = curves["schedule_0.9t"]["nmse_median_db"][-1]
            start = float(np.median(init_nmse_db))
            if not final <= start - MIN_GAIN_DB:
                errors.append(f"schedule_0.9t ends at {final:.2f} dB, not "
                              f"{MIN_GAIN_DB:g} dB below its {start:.2f} dB init")
    elif workload.name.startswith("train-"):
        if len(outputs["batch_loss"]) != workload.steps:
            errors.append(f"loss CSV has {len(outputs['batch_loss'])} rows, "
                          f"expected {workload.steps}")
        from gecsr.training import TrainerConfig
        clip = TrainerConfig().loss_clip  # charged per diverged sample
        if any(v >= clip / workload.batch for v in outputs["batch_loss"]):
            errors.append("a batch loss carries the divergence clip value")
    return errors
