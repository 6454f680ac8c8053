"""Exact gradients of the unrolled-solver loss by reverse-mode accumulation.

The forward pass drives the solver's own layer recursion
(`solver.LayerRecursion`), handing each estimator a tape and recording the
damping steps; the backward pass walks the tapes in reverse, propagating
adjoints of the complex message means (Wirtinger convention: g = dL/dm*, so
dL = 2 Re(g^H dm)) and of the real scalar variances, through the three
estimators, the extrinsic and damping steps, and into the controller
parameters.  Only the phase reconstructor keeps a forward copy here (see
`_forward_magnitude`).  Spectral initializations are constants of the
sample, so the recursion stops there.

The damping factors come from the solver's own controller
(`hypernets.policy_for_params`), queried through the solver's damping
step; reset with a tape, it records its queries and runs its own backward
pass, so this module holds no controller math.  Controller coupling is
complete: recurrent controllers receive gradients both through the damping
factors they emitted and through their inputs (the damping-factor history
and the current extrinsic variance), which is what makes this equivalent
to backpropagation through time over the interleaved solver/controller
graph.

Everything here is validated against central differences of the actual
training loss (see tests/test_adjoint.py).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .hypernets import _named_arrays, policy_for_params
from .model import Sample, SignalPrior
from .solver import (
    V_MAX,
    V_MIN,
    DampedSide,
    GaussianMessage,
    LayerRecursion,
    bessel_ratio,
    clamp_variance,
)


def bessel_ratio_derivative(kappa, ratio):
    """d/dk of the Bessel ratio, via R' = 1 - R^2 - R/k (series near 0)."""
    kappa = np.asarray(kappa, dtype=float)
    ratio = np.asarray(ratio, dtype=float)
    small = kappa < 1e-6
    safe = np.where(small, 1.0, kappa)
    out = 1.0 - ratio * ratio - ratio / safe
    return np.where(small, 0.5 - 3.0 * kappa**2 / 16.0, out)


# ----------------------------------------------------------- primitives


def _aligned_sq_error(x, x_sq, est):
    """Phase-aligned squared error and its adjoint wrt the estimate.

    `x_sq` is the reference energy sum(|x|^2), a constant of the sample.
    """
    inner = np.vdot(est, x)
    mag = abs(inner)
    value = float(x_sq + np.sum(np.abs(est) ** 2) - 2.0 * mag)
    if mag > 0:
        grad = est - (np.conj(inner) / mag) * x
    else:
        grad = est - x
    return value, grad


def _clamp_grad(value: float) -> float:
    """1 inside the variance clamp, 0 on the rails."""
    return 1.0 if V_MIN < value < V_MAX else 0.0


def _forward_magnitude(mu, v, y, rec):
    """The phase reconstructor of `solver.magnitude_posterior`, taped.

    It stays a copy only because the benchmark's traced adjoint workload
    times this module's own `bessel_ratio` binding; it folds into the solver
    with the next change to the benchmark.
    """
    c = v / (v + 1.0)
    amu = np.abs(mu)
    kappa = (2.0 / (v + 1.0)) * y * amu
    ratio = bessel_ratio(kappa)
    safe = np.where(amu > 0, amu, 1.0)
    scale = (1.0 - c) + (c * ratio) * (y / safe)
    mean = scale * mu
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
    g_var = g_var * _clamp_grad(rec["var_raw"])
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


def _backward_gb(g_mean, g_var, prior: SignalPrior, tape):
    """Adjoint of `solver.gb_posterior`: (dL/dr*, dL/dv)."""
    r, v, gain, q = tape["r"], tape["v"], tape["gain"], tape["r2"]
    g_var = g_var * _clamp_grad(tape["var_raw"])
    s2 = prior.slab_variance
    dgain = -gain / (s2 + v)
    resp = tape["resp"]
    if resp is None:
        g_r = gain * g_mean
        g_gain = 2.0 * float(np.vdot(g_mean, r).real) + g_var * v
        g_v = g_gain * dgain + g_var * gain
        return g_r, g_v
    n = r.shape[0]
    # mean_i = resp_i * gain * r_i, so with p_i = Re(conj(g_i) r_i) the mean
    # path gives dL/dresp_i = 2 gain p_i and dL/dgain = 2 sum(resp_i p_i).
    p = np.real(np.conj(g_mean) * r)
    g_r = (resp * gain) * g_mean
    g_second_coeff = g_var / n
    # var = mean_i of resp (gain^2 q + gain v) - resp^2 gain^2 q.
    gq = gain * q
    keep = 1.0 - resp
    g_resp = gain * (2.0 * p + g_second_coeff * (gq * (keep - resp) + v))
    g_gain = float(np.dot(resp, 2.0 * p + g_second_coeff * (2.0 * gq * keep + v)))
    g_q = g_second_coeff * (gain * gain) * (resp * keep)
    g_v_direct = g_second_coeff * gain * float(np.sum(resp))
    # resp = sigmoid(logit), logit = const(v) + q a with a = 1/v - 1/(s2+v),
    # so dlogit/dv = a (1 - q b) with b = 1/v + 1/(s2+v).
    g_logit = g_resp * (resp * keep)
    a = 1.0 / v - 1.0 / (s2 + v)
    b = 1.0 / v + 1.0 / (s2 + v)
    g_q = g_q + g_logit * a
    g_v = (a * float(np.dot(g_logit, 1.0 - b * q)) + g_gain * dgain + g_v_direct)
    g_r = g_r + g_q * r
    return g_r, g_v


def _backward_lmmse(matrix, g_mean, g_var, tape, output):
    """Adjoint of `solver.lmmse_posterior`: (dL/d z_proj*, dL/dv_z, dL/dmu_x*, dL/dv_x).

    The z mean's adjoint stays in mode space: with z_proj = S U^H mu_z,
    dL/dmu_z* = U S dL/d z_proj* = A V dL/d z_proj*.  A layer's two calls
    read mu_z through one shared projection, so the caller sums their
    mode-space adjoints and applies A V once (`apply_modes`).
    """
    v, sig = matrix.right_unitary, matrix.singulars
    x_modes, z_proj, d, combo = tape["x_modes"], tape["z_proj"], tape["d"], tape["combo"]
    vx, vz = tape["vx"], tape["vz"]
    g_var = g_var * _clamp_grad(tape["var_raw"])
    if output == "x":
        g_w = (g_mean.conj() @ v).conj()
        g_d_var = g_var / d.shape[0]
    else:
        g_w = matrix.project(g_mean)
        g_d_var = g_var * (sig * sig) / matrix.m
    # w = d * combo with d = (1/vx + sig^2/vz)^-1, combo = x_modes/vx + z_proj/vz.
    g_d = 2.0 * np.real(np.conj(g_w) * combo) + g_d_var
    g_combo = d * g_w
    g_x_modes = g_combo / vx
    g_z_proj = g_combo / vz
    g_mx = v @ g_x_modes
    d2 = d * d
    g_vx = (float(np.dot(g_d, d2)) / (vx * vx)
            - 2.0 * float(np.vdot(g_x_modes, x_modes).real) / vx)
    g_vz = (float(np.dot(g_d, d2 * (sig * sig))) / (vz * vz)
            - 2.0 * float(np.vdot(g_z_proj, z_proj).real) / vz)
    return g_z_proj, g_vz, g_mx, g_vx


def _backward_extrinsic(g_mean, g_var, tape):
    """Adjoint of `solver.extrinsic`: (dL/d post mean*, dL/d post var,
    dL/d prior mean*, dL/d prior var)."""
    if tape["fallback"]:
        return g_mean, 0.0, np.zeros_like(g_mean), 0.0
    v2, combo = tape["v2_raw"], tape["combo"]
    post_var, pri_var = tape["post_var"], tape["pri_var"]
    # mean = v2 * combo with the raw v2; only the variance passes the clamp.
    g_combo = v2 * g_mean
    g_v2 = 2.0 * float(np.vdot(g_mean, combo).real) + g_var * _clamp_grad(v2)
    # v2 = (1/post_var - 1/pri_var)^(-1).
    g_post_var = g_v2 * (v2 * v2) / (post_var * post_var)
    g_pri_var = -g_v2 * (v2 * v2) / (pri_var * pri_var)
    g_post_mean = g_combo / post_var
    g_pri_mean = -g_combo / pri_var
    g_post_var -= 2.0 * float(np.vdot(g_combo, tape["post_mean"]).real) / post_var**2
    g_pri_var += 2.0 * float(np.vdot(g_combo, tape["pri_mean"]).real) / pri_var**2
    return g_post_mean, g_post_var, g_pri_mean, g_pri_var


class _TapedSide(DampedSide):
    """The solver's damping step, recording each layer for its adjoint.

    Backward runs the layers in reverse, carrying the adjoints that reach
    the history and, through the policy's feature inputs, the earlier
    factors.
    """

    def __init__(self, side, policy, sigma_tilde, sqrt_snr, start):
        super().__init__(side, policy, sigma_tilde, sqrt_snr, start)
        self.records = []
        self.g_hist = (np.zeros_like(start.mean), 0.0)
        # dL/dbeta(t) arriving as the next query's beta_prev input, and as
        # the one after's beta_prev2 input.
        self.g_feed = (0.0, 0.0)

    def step(self, t, ext):
        previous = self.hist
        out = super().step(t, ext)
        self.records.append((self.betas[0], previous, ext, self.hist[1]))
        return out

    def backward(self, t, g_mean, g_var):
        """Adjoint of layer t's step: (dL/d ext mean, dL/d ext variance)."""
        beta, (hist_m, hist_v), ext, var = self.records.pop()
        g_mean = g_mean + self.g_hist[0]
        g_var = g_var * _clamp_grad(var) + self.g_hist[1]
        g_beta = (2.0 * float(np.vdot(g_mean, hist_m - ext.mean).real)
                  + g_var * (hist_v - ext.variance))
        self.g_hist = (beta * g_mean, beta * g_var)
        fb1, fb2 = self.g_feed
        feat_grads = self.policy.backward_beta(self.side, t, g_beta + fb1)
        self.g_feed = (fb2 + feat_grads.get("beta_prev", 0.0),
                       feat_grads.get("beta_prev2", 0.0))
        return ((1.0 - beta) * g_mean,
                (1.0 - beta) * g_var + feat_grads.get("v_ext", 0.0))


def loss_and_gradient(sample: Sample, prior: SignalPrior, params, layers: int,
                      init: Optional[tuple[GaussianMessage, GaussianMessage]] = None,
                      loss_clip: float = 1e6):
    """Aligned multi-layer loss of one sample and d(loss)/d(parameters).

    Returns (loss, grads, diverged) with grads keyed like the checkpoint
    arrays; the vector form follows hypernets.params_to_vector ordering.
    A clipped or non-finite run returns the clip value with zero gradients,
    matching the trainer's handling of divergent samples.  A policy that
    returns a non-finite damping factor raises `PolicyError`, as in the
    solver.
    """
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers}")
    matrix = sample.matrix
    policy = policy_for_params(params)
    policy.reset(tape=True)
    recursion = LayerRecursion(sample, prior, policy, init, side=_TapedSide)
    side_z, side_x = recursion.side_z, recursion.side_x

    y, x_true = sample.y, sample.x
    x_sq = np.sum(np.abs(x_true) ** 2)
    zero = {name: np.zeros_like(arr) for name, arr in _named_arrays(params)}
    records = []
    loss = 0.0
    for t in range(1, layers + 1):
        # One tape per estimator call, named after the message it makes.
        rec = {key: {} for key in ("mag", "ez", "bx", "ex1", "gb", "ex2", "bz", "ez2")}
        msg_1z = recursion.msg_1z
        post_z = _forward_magnitude(msg_1z.mean, msg_1z.variance, y, rec["mag"])
        layer = recursion.advance(t, *post_z, rec)
        if layer is None or not recursion.finite():
            return loss_clip, zero, True
        term, rec["g_est"] = _aligned_sq_error(x_true, x_sq, layer[0])
        loss += term
        records.append(rec)

    if not np.isfinite(loss) or loss >= loss_clip:
        return loss_clip, zero, False

    # Backward sweep; g_m1z .. g_v2x are the adjoints of the next layer's inputs.
    g_m1z = np.zeros(matrix.m, complex)
    g_v1z = 0.0
    g_m2x = np.zeros(matrix.n, complex)
    g_v2x = 0.0
    for t in range(layers, 0, -1):
        rec = records[t - 1]
        g_post_z2, g_pvar_z2, g_dzm_pri, g_dzv_pri = _backward_extrinsic(
            g_m1z, g_v1z, rec["ez2"])
        g_dzk_b, g_dzv_b, g_dxm_b, g_dxv_b = _backward_lmmse(
            matrix, g_post_z2, g_pvar_z2, rec["bz"], "z")
        g_ext_mx, g_ext_vx = side_x.backward(t, g_m2x + g_dxm_b, g_v2x + g_dxv_b)

        # Extrinsic after the denoiser, the denoiser, extrinsic after B_x.
        g_den_x, g_den_v, g_m1x_a, g_v1x_a = _backward_extrinsic(
            g_ext_mx, g_ext_vx, rec["ex2"])
        g_r, g_v1x_b = _backward_gb(g_den_x + rec["g_est"], g_den_v, prior, rec["gb"])
        g_post_x, g_pvar_x, g_m2x_pri, g_v2x_pri = _backward_extrinsic(
            g_m1x_a + g_r, g_v1x_a + g_v1x_b, rec["ex1"])
        g_dzk_bx, g_dzv_bx, g_m2x_bx, g_v2x_bx = _backward_lmmse(
            matrix, g_post_x, g_pvar_x, rec["bx"], "x")
        # Both LMMSE calls read the damped z mean through one projection.
        g_dzm = g_dzm_pri + matrix.apply_modes(g_dzk_b + g_dzk_bx)
        g_ext_mz, g_ext_vz = side_z.backward(t, g_dzm, g_dzv_pri + g_dzv_b + g_dzv_bx)

        # Extrinsic after the phase reconstructor, then the reconstructor.
        g_post_zp, g_pvar_zp, g_m1z_pri, g_v1z_pri = _backward_extrinsic(
            g_ext_mz, g_ext_vz, rec["ez"])
        g_mu_a, g_v_a = _backward_magnitude(g_post_zp, g_pvar_zp, y, rec["mag"])
        g_m1z = g_m1z_pri + g_mu_a
        g_v1z = g_v1z_pri + g_v_a
        g_m2x = g_m2x_pri + g_m2x_bx
        g_v2x = g_v2x_pri + g_v2x_bx

    return loss, dict(_named_arrays(policy.gradients())), False


def gradient_vector(params, grads: dict) -> np.ndarray:
    """Flatten a gradient dict in params_to_vector order."""
    return np.concatenate([grads[name].ravel() for name, _ in _named_arrays(params)])
