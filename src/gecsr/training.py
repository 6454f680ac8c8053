"""Training and evaluation of damping controllers.

Two gradient estimators drive the same Adam loop over the unrolled solver
loss: simultaneous perturbation (SPSA) with common random numbers -- the
same batch, measurements, and spectral initializations are reused for both
perturbation signs -- and exact reverse-mode gradients from the adjoint
module.

The per-sample loss is `solver.aligned_error` summed over layers, and one
batch loop scores a batch by its mean for both estimators.  Divergent runs
are charged the loss clip value so one bad sample cannot destroy a gradient
estimate.  Evaluation runs a checkpoint's controller as loaded: controllers
apply their own depth and width rules (see `hypernets`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import adjoint, hypernets, model, solver
from .hypernets import (
    checkpoint_payload,
    init_variant_params,
    params_from_vector,
    params_to_vector,
    policy_for_params,
)
from .model import DatasetManifest
from .solver import DampingPolicy, SolverTrace, aligned_error, run_solver


class EstimatorError(RuntimeError):
    """A gradient estimator hit a non-finite loss; carries the parameters."""

    def __init__(self, message: str, theta: Optional[np.ndarray] = None):
        super().__init__(message)
        self.theta = theta


class TrainingAborted(RuntimeError):
    """Training stopped because the solver diverged on most of a batch."""


class TruncatedTraceError(ValueError):
    """A trace is shorter than the number of layers being scored."""


class IncompatibleError(RuntimeError):
    """Checkpoint and evaluation scenario do not fit together."""


@dataclass(frozen=True)
class TrainerConfig:
    learning_rate: float = 0.05
    batch_size: int = 100
    epochs: int = 1
    layers: int = 10
    grad_estimator: str = "spsa"
    grad_pairs: int = 8
    grad_perturbation: float = 0.05
    optimizer: str = "adam"  # the only one; kept so saved configs still read
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    hidden: int = 32
    heads: int = 4
    tied: bool = False
    loss_clip: float = 1e6
    abort_fraction: float = 0.5
    keep_best: bool = True
    grad_clip_norm: float = 0.0  # 0 disables; >0 rescales large gradients
    direct_init_base: float = 0.9  # warm-start schedule for direct logits

    def __post_init__(self) -> None:
        for key, spec in self.__dataclass_fields__.items():
            if spec.type == "int":
                object.__setattr__(self, key, model.integer_field(key, getattr(self, key)))
            elif spec.type == "float":
                model.number_field(key, getattr(self, key))
            elif spec.type == "bool" and not isinstance(getattr(self, key), bool):
                raise ValueError(f"{key} must be true or false, got {getattr(self, key)!r}")
        for key, low in (("batch_size", 1), ("layers", 1), ("grad_pairs", 1), ("epochs", 0),
                         ("hidden", 0), ("heads", 0), ("seed", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        for key in ("learning_rate", "grad_perturbation"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        if self.grad_estimator not in ("spsa", "adjoint"):
            raise ValueError(f"unknown gradient estimator {self.grad_estimator!r}")
        if self.optimizer != "adam":
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def sample_loss(x_true: np.ndarray, trace: SolverTrace, layers: int) -> float:
    """`solver.aligned_error` summed over the first `layers` estimates."""
    if trace.layers < layers:
        raise TruncatedTraceError(
            f"trace has {trace.layers} layers, need {layers}")
    total = 0.0
    for est in trace.x_means[:layers]:
        total += aligned_error(x_true, est)[0]
    return total


@dataclass
class SpsaEstimate:
    gradient: np.ndarray
    loss_mean: float


def spsa_gradient(loss_fn: Callable[[np.ndarray], float], theta: np.ndarray,
                  pairs: int, perturbation: float,
                  rng: np.random.Generator) -> SpsaEstimate:
    """Simultaneous-perturbation gradient estimate.

    Averages [L(theta + c D) - L(theta - c D)] / (2c) * D over `pairs`
    independent Rademacher directions D (whose componentwise inverse is D
    itself).  Also reports the mean of all loss evaluations, a free
    O(perturbation^2)-accurate estimate of L(theta).
    """
    if pairs < 1:
        raise ValueError("need at least one perturbation pair")
    if perturbation <= 0:
        raise ValueError("perturbation must be positive")
    grad = np.zeros_like(theta)
    loss_sum = 0.0
    for _ in range(pairs):
        delta = rng.integers(0, 2, theta.size) * 2.0 - 1.0
        plus = loss_fn(theta + perturbation * delta)
        minus = loss_fn(theta - perturbation * delta)
        if not (np.isfinite(plus) and np.isfinite(minus)):
            raise EstimatorError("non-finite loss during SPSA", theta=theta)
        grad += (plus - minus) / (2.0 * perturbation) * delta
        loss_sum += plus + minus
    return SpsaEstimate(gradient=grad / pairs, loss_mean=loss_sum / (2 * pairs))


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @staticmethod
    def fresh(dim: int) -> "AdamState":
        return AdamState(m=np.zeros(dim), v=np.zeros(dim), step=0)


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState,
              config: TrainerConfig) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update."""
    b1, b2 = config.adam_beta1, config.adam_beta2
    m = b1 * state.m + (1.0 - b1) * grad
    v = b2 * state.v + (1.0 - b2) * grad * grad
    step = state.step + 1
    m_hat = m / (1.0 - b1**step)
    v_hat = v / (1.0 - b2**step)
    theta = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return theta, AdamState(m=m, v=v, step=step)


# The sample cache keeps the first entries that fit in this many bytes and
# regenerates the rest, bit for bit, each time they are read.  It never
# evicts: training scans the manifest in the same order every epoch, and an
# eviction would drop each sample just before its next read.  At about
# 0.8 MB per (400, 100) sample, the 144-sample acceptance manifests (115 MB)
# and every benchmark manifest stay whole, and a 4800-sample manifest no
# longer needs 3.9 GB.
SAMPLE_CACHE_BYTES = 512 * 2**20


class _SampleCache:
    """Samples and spectral initializations, generated once per index and
    kept while they fit in SAMPLE_CACHE_BYTES."""

    def __init__(self, manifest: DatasetManifest):
        self.manifest = manifest
        self._store: dict[int, tuple] = {}  # index -> (sample, init)
        self._bytes = 0

    def get(self, index: int):
        hit = self._store.get(index)
        if hit is not None:
            return hit
        sample = model.sample_at(self.manifest, index)
        init = solver.spectral_init(sample.y, sample.matrix)
        size = sum(a.nbytes for a in (sample.x, sample.y, sample.matrix.operator,
                                      sample.matrix.right_unitary, sample.matrix.singulars,
                                      init[0].mean, init[1].mean))
        if self._bytes + size <= SAMPLE_CACHE_BYTES:
            self._store[index] = (sample, init)
            self._bytes += size
        return sample, init


@dataclass
class TrainResult:
    checkpoint: dict
    history: list


def train(variant: str, manifest: DatasetManifest, config: TrainerConfig) -> TrainResult:
    """Train one controller variant on a manifest.

    Iterates epochs x batches over the manifest; every step fetches its
    batch once from the per-index RNG streams (cached, so later epochs reuse
    it), runs the solver under the candidate parameters, and takes an Adam
    step along the configured estimator's gradient.  History rows are
    (step, batch_loss, moving_avg) where batch_loss is the estimator's own
    evaluation average at that step.
    """
    params = init_variant_params(variant, manifest.n, config.layers,
                                 hidden=config.hidden, heads=config.heads,
                                 tied=config.tied, seed=config.seed,
                                 direct_init_base=config.direct_init_base)
    theta = params_to_vector(params)
    cache = _SampleCache(manifest)
    direction_rng = np.random.default_rng([config.seed, 0x5B5A])
    batches = manifest.count // config.batch_size
    if config.epochs > 0 and batches == 0:
        raise ValueError("manifest smaller than one batch")

    def batch_mean(vec: np.ndarray, batch: list, gradient: bool):
        """Mean clipped loss over a batch, and the mean adjoint gradient when
        `gradient` is set.  Without it (SPSA) the loss scores solver traces
        under one policy, and the gradient returned is zero."""
        candidate = params_from_vector(params, vec)
        policy = None if gradient else policy_for_params(candidate)
        total, grad, n_diverged = 0.0, np.zeros_like(vec), 0
        for sample, init in batch:
            if gradient:
                loss, grads, diverged = adjoint.loss_and_gradient(
                    sample, candidate, config.layers, init=init, loss_clip=config.loss_clip)
                grad += adjoint.gradient_vector(grads)
            else:
                trace = run_solver(sample, policy, config.layers, init=init)
                diverged = trace.diverged
                loss = (config.loss_clip if diverged
                        else sample_loss(sample.x, trace, config.layers))
            total += min(loss, config.loss_clip)
            n_diverged += diverged
        if n_diverged > config.abort_fraction * len(batch):
            raise TrainingAborted(
                f"training aborted: solver diverged on {n_diverged}/{len(batch)} "
                f"samples of a batch")
        return total / len(batch), grad / len(batch)

    history: list[tuple[int, float, float]] = []
    adam = AdamState.fresh(theta.size)
    step = 0
    recent: list[float] = []
    best_theta = theta.copy()
    best_ma = float("inf")
    for _epoch in range(config.epochs):
        for b in range(batches):
            batch = [cache.get(i) for i in
                     range(b * config.batch_size, (b + 1) * config.batch_size)]
            if config.grad_estimator == "spsa":
                est = spsa_gradient(lambda vec: batch_mean(vec, batch, False)[0],
                                    theta, config.grad_pairs,
                                    config.grad_perturbation, direction_rng)
                grad, observed = est.gradient, est.loss_mean
            else:
                observed, grad = batch_mean(theta, batch, True)
            if config.grad_clip_norm > 0.0:
                norm = float(np.linalg.norm(grad))
                if norm > config.grad_clip_norm:
                    grad = grad * (config.grad_clip_norm / norm)
            recent.append(observed)
            moving = float(np.mean(recent[-10:]))
            # SPSA wanders around the optimum; remember the iterate whose
            # recent training loss was best (no test data involved).
            if len(recent) >= min(5, config.epochs * batches) and moving < best_ma:
                best_ma = moving
                best_theta = theta.copy()
            theta, adam = adam_step(theta, grad, adam, config)
            history.append((step, observed, moving))
            step += 1

    if config.keep_best and history:
        theta = best_theta
    metadata = {
        "train_manifest_hash": manifest.hash(),
        "trainer": config.to_dict(),
        "steps": step,
        "final_loss": history[-1][1] if history else None,
        # No progress unless the last ten steps' mean loss is below the first ten's.
        "no_progress": bool(recent) and not (np.mean(recent[-10:]) < np.mean(recent[:10])),
    }
    payload = checkpoint_payload(variant, params_from_vector(params, theta), n=manifest.n,
                                 layers=config.layers, metadata=metadata)
    return TrainResult(checkpoint=payload, history=history)


def policy_for_evaluation(source: Union[DampingPolicy, dict],
                          n: Optional[int] = None) -> DampingPolicy:
    """Build the evaluation policy for a checkpoint or pass one through.

    A checkpoint trained at a signal dimension other than `n` is rejected.
    The controllers apply their own depth and width rules (see `hypernets`).
    """
    if isinstance(source, DampingPolicy):
        return source
    params = hypernets.params_from_checkpoint(source)
    if n is not None and source["n"] != n:
        raise IncompatibleError(
            f"checkpoint trained at N={source['n']}, scenario has N={n}")
    return policy_for_params(params)


@dataclass
class EvalResult:
    """Per-layer reconstruction quality over a test manifest."""

    layers: int
    nmse_db: np.ndarray        # (samples, layers)
    init_nmse_db: np.ndarray   # (samples,)
    diverged: np.ndarray       # (samples,) bool

    @property
    def mean_db(self) -> np.ndarray:
        return self.nmse_db.mean(axis=0)

    @property
    def median_db(self) -> np.ndarray:
        return np.median(self.nmse_db, axis=0)


def evaluate(source: Union[DampingPolicy, dict], manifest: DatasetManifest,
             layers: int) -> EvalResult:
    """Run the solver over every manifest sample and collect NMSE curves.

    Divergent runs keep their recorded prefix; the remaining layers are
    charged 0 dB (no better than a zero estimate) and the run is flagged.
    """
    policy = policy_for_evaluation(source, n=manifest.n)
    curves = np.zeros((manifest.count, layers))
    inits = np.zeros(manifest.count)
    flags = np.zeros(manifest.count, dtype=bool)
    for i in range(manifest.count):
        sample = model.sample_at(manifest, i)
        trace = run_solver(sample, policy, layers)
        curves[i, :trace.layers] = trace.nmse_db
        inits[i] = trace.init_nmse_db
        flags[i] = trace.diverged
    return EvalResult(layers=layers, nmse_db=curves, init_nmse_db=inits,
                      diverged=flags)
