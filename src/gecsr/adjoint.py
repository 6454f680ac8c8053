"""Exact gradients of the unrolled-solver loss by reverse-mode accumulation.

`loss_and_gradient` drives the solver's layer recursion
(`solver.LayerRecursion`) in its taped mode, then walks it back layer by
layer with `LayerRecursion.backward`.  Each solver step's adjoint sits
beside its forward in `solver.py`, and each controller's in `hypernets.py`,
so a recurrent controller is differentiated through time over the
interleaved solver/controller graph.  The loss is `solver.aligned_error`
summed over layers, and its gradient is a bundle shaped like the weights.
The one solver step kept here is a taped copy of the phase reconstructor
with its adjoint (see `_forward_magnitude`); it forms the solver's
expressions, so the forward pass and the loss equal the solver's bit for
bit.  Spectral initializations are constants of the sample, so the
recursion stops there.

Everything here is validated against central differences of the actual
training loss (see tests/test_adjoint.py).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .hypernets import _zeros_like, params_to_vector, policy_for_params
from .model import Sample
from .solver import (
    GaussianMessage,
    LayerRecursion,
    aligned_error,
    bessel_ratio,
    clamp_variance,
    clamp_variance_grad,
)


def bessel_ratio_derivative(kappa, ratio):
    """d/dk of the Bessel ratio, via R' = 1 - R^2 - R/k (series near 0)."""
    kappa = np.asarray(kappa, dtype=float)
    ratio = np.asarray(ratio, dtype=float)
    small = kappa < 1e-6
    safe = np.where(small, 1.0, kappa)
    out = 1.0 - ratio * ratio - ratio / safe
    return np.where(small, 0.5 - 3.0 * kappa**2 / 16.0, out)


def _forward_magnitude(mu, v, y, rec):
    """The phase reconstructor of `solver.magnitude_posterior`, taped: the
    solver's expressions, bit for bit, plus the real `scale` (mean = scale *
    mu) the adjoint reads.  It stays a copy only because the benchmark's traced
    adjoint workload times this module's own `bessel_ratio` binding; it folds
    into the solver with the next change to the benchmark.
    """
    c = v / (v + 1.0)
    amu = np.abs(mu)
    kappa = (2.0 / (v + 1.0)) * y * amu
    ratio = bessel_ratio(kappa)
    safe = np.where(amu > 0, amu, 1.0)
    scale = (1.0 - c) + (c * ratio) * (y / safe)
    mean = (mu / safe) * ((1.0 - c) * amu + (c * ratio) * y)
    t_mean = float(np.mean(y * y * (1.0 - ratio * ratio)))
    var_raw = c + c * c * t_mean
    rec.update(mu=mu, v=v, c=c, amu=amu, kappa=kappa, ratio=ratio,
               safe=safe, scale=scale, t_mean=t_mean, var_raw=var_raw)
    return mean, clamp_variance(var_raw)


def _backward_magnitude(g_mean, g_var, y, rec):
    mu, v = rec["mu"], rec["v"]
    c, amu, kappa, ratio = rec["c"], rec["amu"], rec["kappa"], rec["ratio"]
    safe, scale = rec["safe"], rec["scale"]
    m = y.shape[0]
    g_var = g_var * clamp_variance_grad(rec["var_raw"])
    dratio = bessel_ratio_derivative(kappa, ratio)
    # Variance path: var = c + c^2 * mean(y^2 (1 - ratio^2)).
    dc = 1.0 / (v + 1.0) ** 2
    g_c = g_var * (1.0 + 2.0 * c * rec["t_mean"])
    g_ratio = g_var * (c * c) * (-2.0 * y * y * ratio) / m
    # Mean path: mean_i = scale_i * mu_i with real scale_i.
    g_scale = 2.0 * np.real(np.conj(g_mean) * mu)
    g_mu = scale * g_mean
    # scale = (1 - c) + c * ratio * y / safe.
    y_safe = y / safe
    g_c += float(np.dot(g_scale, ratio * y_safe - 1.0))
    g_ratio = g_ratio + g_scale * (c * y_safe)
    # ratio depends on kappa = (2 /(v+1)) y amu.
    g_kappa = g_ratio * dratio
    g_amu = g_kappa * (2.0 * y / (v + 1.0))
    # scale's explicit 1/safe dependence (safe == amu where amu > 0).
    g_amu = g_amu - g_scale * (c * ratio * y_safe / safe)
    g_amu = np.where(amu > 0, g_amu, 0.0)
    # |mu| adjoint folds into the complex gradient along the phase direction.
    unit = np.where(amu > 0, mu / safe, 0.0)
    g_mu = g_mu + 0.5 * g_amu * unit
    # v enters through c and through kappa's 1/(v+1).
    g_v = g_c * dc - float(np.dot(g_kappa, kappa)) / (v + 1.0)
    return g_mu, g_v


def loss_and_gradient(sample: Sample, params, layers: int,
                      init: Optional[tuple[GaussianMessage, GaussianMessage]] = None,
                      loss_clip: float = 1e6):
    """Aligned multi-layer loss of one sample and d(loss)/d(parameters).

    Returns (loss, grads, diverged) with grads a bundle shaped like `params`
    (`gradient_vector` flattens it).  The loss is `sample_loss` of the
    solver's trace, bit for bit.  A clipped or non-finite run returns the
    clip value with zero gradients.  A non-finite damping factor raises
    `PolicyError`, as in the solver.
    """
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers}")
    policy = policy_for_params(params)
    recursion = LayerRecursion(sample, policy, init, taped=True)

    y, x_true = sample.y, sample.x
    layer_tapes = []   # (phase reconstructor tape, loss adjoint) per layer
    loss = 0.0
    for t in range(1, layers + 1):
        mag = {}
        msg_1z = recursion.msg_1z
        layer = recursion.advance(
            t, *_forward_magnitude(msg_1z.mean, msg_1z.variance, y, mag))
        if layer is None or not recursion.finite():
            return loss_clip, _zeros_like(params), True
        term, g_est = aligned_error(x_true, layer[0])
        loss += term
        layer_tapes.append((mag, g_est))

    if not np.isfinite(loss) or loss >= loss_clip:
        return loss_clip, _zeros_like(params), False

    # Backward sweep; g_1z and g_2x are the adjoints of the next layer's inputs.
    g_1z = (np.zeros(sample.matrix.m, complex), 0.0)
    g_2x = (np.zeros(sample.matrix.n, complex), 0.0)
    for t in range(layers, 0, -1):
        mag, g_est = layer_tapes.pop()
        g_post_z, g_var_z, (g_m1z, g_v1z), g_2x = recursion.backward(t, g_est, g_1z, g_2x)
        g_mu, g_v = _backward_magnitude(g_post_z, g_var_z, y, mag)
        g_1z = (g_m1z + g_mu, g_v1z + g_v)

    return loss, policy.gradients(), False


def gradient_vector(grads) -> np.ndarray:
    """Flatten a gradient bundle in params_to_vector order."""
    return params_to_vector(grads)
