"""Gradient checks shared by the trainer, adjoint and acceptance tests.

`grad_check` checks SPSA.  Part one compares it with the analytic gradient
of a 2-D quadratic; part two compares it with central differences of the
true training loss of a tiny static controller (60 parameters) on a fixed
(16, 8), 3-layer scenario.

`adjoint_check` compares the exact adjoint gradient of a batch's mean loss
with central differences of that loss, componentwise.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from gecsr import adjoint, hypernets, model, solver
from gecsr.model import DatasetManifest
from gecsr.training import EstimatorError, sample_loss, spsa_gradient


def central_diff_gradient(loss_fn: Callable[[np.ndarray], float],
                          theta: np.ndarray, step: float) -> np.ndarray:
    """Componentwise central differences (2 * dim evaluations), exact to
    O(step^2): the reference the SPSA estimates are checked against."""
    if step <= 0:
        raise ValueError("step must be positive")
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        probe = theta.copy()
        probe[i] = theta[i] + step
        plus = loss_fn(probe)
        probe[i] = theta[i] - step
        minus = loss_fn(probe)
        if not (np.isfinite(plus) and np.isfinite(minus)):
            raise EstimatorError("non-finite loss during central differences",
                                 theta=theta)
        grad[i] = (plus - minus) / (2.0 * step)
    return grad


@dataclass
class GradCheckReport:
    quadratic_cosine: float
    end_to_end_cosine: float
    end_to_end_rel_norm_error: float


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def grad_check(pairs: int = 64, perturbation: float = 1e-3,
               seed: int = 0) -> GradCheckReport:
    """Compare SPSA against exact/central-difference gradients."""
    if perturbation <= 0:
        raise ValueError("perturbation must be positive")
    rng = np.random.default_rng(seed)

    anchor = np.array([0.3, -1.2])
    quad = lambda th: float(np.sum((th - anchor) ** 2))
    theta_q = np.array([1.0, -2.0])
    est_q = spsa_gradient(quad, theta_q, pairs, perturbation, rng)
    quad_cos = _cosine(est_q.gradient, 2.0 * (theta_q - anchor))

    manifest = DatasetManifest(seed=20, count=4, m=16, n=8,
                               matrix_class=("gaussian",),
                               snr_db_range=(20.0, 20.0), rho_range=(0.5, 0.5))
    cases = [(s, solver.spectral_init(s.y, s.matrix))
             for s in (model.sample_at(manifest, i) for i in range(manifest.count))]
    template = hypernets.init_variant_params("hypernet", manifest.n, 3, hidden=5,
                                             seed=seed)
    theta_e = hypernets.params_to_vector(template)
    if theta_e.size > 64:
        raise ValueError("end-to-end surrogate exceeds 64 parameters")

    def end_loss(vec: np.ndarray) -> float:
        policy = hypernets.StaticHyperNetPolicy(
            hypernets.params_from_vector(template, vec))
        total = 0.0
        for sample, init in cases:
            trace = solver.run_solver(sample, policy, 3, init=init)
            total += min(sample_loss(sample.x, trace, 3), 1e6)
        return total / manifest.count

    est_e = spsa_gradient(end_loss, theta_e, max(pairs, 64), perturbation, rng)
    reference = central_diff_gradient(end_loss, theta_e, perturbation)
    cos = _cosine(est_e.gradient, reference)
    ref_norm = float(np.linalg.norm(reference))
    rel = (float(np.linalg.norm(est_e.gradient - reference)) / ref_norm
           if ref_norm > 0 else float("inf"))
    return GradCheckReport(quadratic_cosine=quad_cos, end_to_end_cosine=cos,
                           end_to_end_rel_norm_error=rel)


def adjoint_check(params, batch, layers: int, step: float = 1e-6
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(adjoint gradient, central differences) of the mean
    `adjoint.loss_and_gradient` loss over `batch`, a list of (sample,
    spectral init) pairs, at `layers` layers."""
    theta = hypernets.params_to_vector(params)

    def mean_loss(vec: np.ndarray) -> float:
        candidate = hypernets.params_from_vector(params, vec)
        return sum(adjoint.loss_and_gradient(sample, candidate, layers, init=init)[0]
                   for sample, init in batch) / len(batch)

    grad = np.zeros_like(theta)
    for sample, init in batch:
        _, grads, _ = adjoint.loss_and_gradient(sample, params, layers, init=init)
        grad += adjoint.gradient_vector(grads)
    return grad / len(batch), central_diff_gradient(mean_loss, theta, step)
