"""Expectation-consistent phase-retrieval solver with pluggable damping.

One solver layer runs three Bayesian estimators in sequence -- a phase
reconstructor working on the magnitude measurements, an SVD-domain linear
(LMMSE) reconstructor coupling the signal and its transform, and a denoiser
applying the true signal prior -- each followed by an extrinsic (debiasing)
step.  The messages leaving the phase reconstructor and the denoiser pass
through a damping operation whose factor beta(t) is supplied online by a
DampingPolicy, which is where fixed schedules, learned vectors, and
hypernetwork controllers plug in.  A run resets the policy with its scenario
(the unit-norm spectrum and sqrt(SNR)); a query passes the extrinsic variance.

All messages carry a complex mean vector and a single scalar variance (the
component average).  Variances are clamped to [V_MIN, V_MAX] throughout.

Each step's adjoint sits beside its forward (`gb_backward` and so on), and
`LayerRecursion.backward` inverts a taped layer.  A complex mean's adjoint
is g = dL/dm* (Wirtinger), so dL = 2 Re(g^H dm); a variance's is dL/dv.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model import Sample, SignalPrior, TransformMatrix

V_MIN = 1e-11
V_MAX = 1e11

NMSE_FLOOR_DB = -120.0

_POWER_ITERATIONS = 50
_CF_DEPTH = 40
_CF_CUTOFF = 30.0


class PolicyError(RuntimeError):
    """A damping policy returned an unusable value."""


def clamp_variance(v: float) -> float:
    return min(max(float(v), V_MIN), V_MAX)


def clamp_variance_grad(v: float) -> float:
    """d clamp_variance / dv: 1 inside the clamp, 0 on the rails."""
    return 1.0 if V_MIN < v < V_MAX else 0.0


@dataclass
class GaussianMessage:
    """Complex mean vector with one shared scalar variance."""

    mean: np.ndarray
    variance: float


def bessel_ratio(kappa):
    """Ratio of modified Bessel functions I1(k)/I0(k) for k >= 0.

    Monotone increasing from 0 towards 1.  Small arguments use a 40-term
    continued fraction; above the cutoff an asymptotic expansion takes over
    (both branches agree to ~1e-8 at the switch).  Accepts scalars or arrays.
    """
    k = np.asarray(kappa, dtype=float)
    if np.any(k < 0):
        raise ValueError("bessel_ratio requires non-negative arguments")
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    out = np.empty_like(k)

    big = k > _CF_CUTOFF
    if np.any(big):
        kl = k[big]
        out[big] = (1.0 - 1.0 / (2.0 * kl) - 1.0 / (8.0 * kl**2)
                    - 1.0 / (8.0 * kl**3) - 25.0 / (128.0 * kl**4))
    small = ~big
    if np.any(small):
        ks = np.where(k[small] > 0, k[small], 1.0)
        # Row i holds 2 j / k for j = 40 - i, the innermost term first.
        table = (2.0 * np.arange(_CF_DEPTH, 0, -1.0))[:, None] / ks
        r = np.zeros_like(ks)
        for row in table:
            r += row
            np.divide(1.0, r, out=r)
        out[small] = np.where(k[small] > 0, r, 0.0)
    return float(out[0]) if scalar else out


def magnitude_posterior(msg: GaussianMessage, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Posterior (mean, avg variance) of z from y = |z + n| under z ~ CN(mu, v).

    Marginalizing the unit-variance noise leaves the phase of z + n as the
    only unknown, with a von Mises posterior of concentration 2 y |mu|/(v+1);
    mixing back through the joint Gaussian gives closed forms in terms of the
    Bessel ratio.  The phase of a zero prior mean is taken as 0.
    """
    v = float(msg.variance)
    mu = msg.mean
    if not np.isfinite(v) or not np.all(np.isfinite(mu)) or not np.all(np.isfinite(y)):
        raise FloatingPointError("non-finite inputs to the phase reconstructor")
    c = v / (v + 1.0)
    amu = np.abs(mu)
    ratio = bessel_ratio((2.0 / (v + 1.0)) * y * amu)
    safe = np.where(amu > 0, amu, 1.0)
    mean = (mu / safe) * ((1.0 - c) * amu + (c * ratio) * y)
    var = c + c * c * float(np.mean(y * y * (1.0 - ratio * ratio)))
    return mean, clamp_variance(var)


def gb_responsibility(r2: np.ndarray, v: float, prior: SignalPrior) -> np.ndarray:
    """Posterior slab probability of each component of r = x + CN(0, v).

    r2 holds |r|^2; the spike/slab mixture is normalized in log space.
    """
    s2 = prior.slab_variance
    log_slab = np.log(prior.rho) - r2 / (s2 + v) - np.log(s2 + v)
    log_spike = np.log1p(-prior.rho) - r2 / v - np.log(v)
    return np.exp(log_slab - np.logaddexp(log_slab, log_spike))


def gb_posterior(msg: GaussianMessage, prior: SignalPrior,
                 tape: Optional[dict] = None) -> tuple[np.ndarray, float]:
    """Posterior (mean, avg variance) of x under the Bernoulli-Gaussian prior.

    The pseudo-measurement model is r = x + e with e ~ CN(0, v).  A tape
    receives the inputs, |r|^2, the responsibility (None when rho = 1) and
    the variance before the clamp.
    """
    v = float(msg.variance)
    r = msg.mean
    s2 = prior.slab_variance
    gain = s2 / (s2 + v)
    r2 = r.real * r.real + r.imag * r.imag
    if prior.rho >= 1.0:
        resp = None
        mean = gain * r
        var = gain * v
    else:
        resp = gb_responsibility(r2, v, prior)
        mean = (resp * gain) * r
        second = resp * ((gain * gain) * r2 + gain * v)
        var = float(np.mean(second - (resp * gain) ** 2 * r2))
    if tape is not None:
        tape.update(r=r, v=v, gain=gain, r2=r2, resp=resp, var_raw=var)
    return mean, clamp_variance(var)


def gb_backward(g_mean: np.ndarray, g_var: float, prior: SignalPrior, tape: dict
                ) -> tuple[np.ndarray, float]:
    """Adjoint of `gb_posterior`: (dL/dr*, dL/dv)."""
    r, v, gain, q = tape["r"], tape["v"], tape["gain"], tape["r2"]
    g_var = g_var * clamp_variance_grad(tape["var_raw"])
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


def lmmse_posterior(msg_z: GaussianMessage, msg_x: GaussianMessage,
                    matrix: TransformMatrix, output: str,
                    tape: Optional[dict] = None, *,
                    z_proj: np.ndarray) -> tuple[np.ndarray, float]:
    """Joint-Gaussian (LMMSE) posterior of x or z = A x in the SVD basis.

    The model couples x ~ CN(mu_x, v_x I) with the pseudo-observation
    mu_z = A x + e, e ~ CN(0, v_z I); per singular mode the posterior variance
    is (1/v_x + s^2/v_z)^{-1}.  `output` selects which variable's (mean,
    averaged variance) is returned: "x" or "z".  `z_proj` is
    `matrix.project(msg_z.mean)`, S U^H mu_z: a layer's two calls share one
    damped z message, so the caller projects it once.  The z mean leaves
    mode space as A (V w) (`TransformMatrix.apply_modes`), so U is never
    formed.  A tape receives the x modes, the z projection, the per-mode
    variances d, the mode combination that d scales into the per-mode
    means, the input variances and the variance before the clamp.
    """
    if msg_x.mean.shape != (matrix.n,) or msg_z.mean.shape != (matrix.m,):
        raise ValueError("message shapes do not match the transform size")
    if output not in ("x", "z"):
        raise ValueError(f"output must be 'x' or 'z', got {output!r}")
    v, sig = matrix.right_unitary, matrix.singulars
    vx = float(msg_x.variance)
    vz = float(msg_z.variance)
    x_modes = (msg_x.mean.conj() @ v).conj()
    d = 1.0 / (1.0 / vx + (sig * sig) / vz)
    combo = x_modes / vx + z_proj / vz
    w = d * combo
    if output == "x":
        mean, var = v @ w, float(np.mean(d))
    else:
        mean, var = matrix.apply_modes(w), float(np.sum(sig * sig * d)) / matrix.m
    if tape is not None:
        tape.update(x_modes=x_modes, z_proj=z_proj, d=d, combo=combo, vx=vx, vz=vz,
                    var_raw=var)
    return mean, clamp_variance(var)


def lmmse_backward(matrix: TransformMatrix, g_mean: np.ndarray, g_var: float,
                   tape: dict, output: str
                   ) -> tuple[np.ndarray, float, np.ndarray, float]:
    """Adjoint of `lmmse_posterior`: (dL/d z_proj*, dL/dv_z, dL/dmu_x*, dL/dv_x).

    The z mean's adjoint stays in mode space: with z_proj = S U^H mu_z,
    dL/dmu_z* = U S dL/d z_proj* = A V dL/d z_proj*.  A layer's two calls
    read mu_z through one shared projection, so the caller sums their
    mode-space adjoints and applies A V once (`apply_modes`).
    """
    v, sig = matrix.right_unitary, matrix.singulars
    x_modes, z_proj, d, combo = tape["x_modes"], tape["z_proj"], tape["d"], tape["combo"]
    vx, vz = tape["vx"], tape["vz"]
    g_var = g_var * clamp_variance_grad(tape["var_raw"])
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


def extrinsic(post_mean: np.ndarray, post_var: float, prior: GaussianMessage,
              tape: Optional[dict] = None) -> GaussianMessage:
    """Divide the posterior by the incoming prior (Gaussian quotient).

    When the quotient variance is non-positive or above V_MAX (no information
    gained), fall back to a weak message: the posterior mean with variance
    V_MAX.  Otherwise the mean is scaled by the raw quotient variance and
    only the returned variance is clamped.  A tape receives the fallback
    flag and, without it, the inputs, the raw variance and the scaled
    difference of means.
    """
    if not np.isfinite(post_var) or not np.isfinite(prior.variance):
        raise FloatingPointError("non-finite variance in extrinsic step")
    inv = 1.0 / post_var - 1.0 / prior.variance
    fallback = inv <= 1.0 / V_MAX
    if tape is not None:
        tape["fallback"] = fallback
    if fallback:
        return GaussianMessage(post_mean, V_MAX)
    v2 = 1.0 / inv
    combo = post_mean / post_var - prior.mean / prior.variance
    if tape is not None:
        tape.update(v2_raw=v2, combo=combo, post_mean=post_mean, post_var=post_var,
                    pri_mean=prior.mean, pri_var=prior.variance)
    return GaussianMessage(v2 * combo, clamp_variance(v2))


def extrinsic_backward(g_mean: np.ndarray, g_var: float, tape: dict
                       ) -> tuple[np.ndarray, float, np.ndarray, float]:
    """Adjoint of `extrinsic`: (dL/d post mean*, dL/d post var,
    dL/d prior mean*, dL/d prior var)."""
    if tape["fallback"]:
        return g_mean, 0.0, np.zeros_like(g_mean), 0.0
    v2, combo = tape["v2_raw"], tape["combo"]
    post_var, pri_var = tape["post_var"], tape["pri_var"]
    # mean = v2 * combo with the raw v2; only the variance passes the clamp.
    g_combo = v2 * g_mean
    g_v2 = 2.0 * float(np.vdot(g_mean, combo).real) + g_var * clamp_variance_grad(v2)
    # v2 = (1/post_var - 1/pri_var)^(-1).
    g_post_var = g_v2 * (v2 * v2) / (post_var * post_var)
    g_pri_var = -g_v2 * (v2 * v2) / (pri_var * pri_var)
    g_post_mean = g_combo / post_var
    g_pri_mean = -g_combo / pri_var
    g_post_var -= 2.0 * float(np.vdot(g_combo, tape["post_mean"]).real) / post_var**2
    g_pri_var += 2.0 * float(np.vdot(g_combo, tape["pri_mean"]).real) / pri_var**2
    return g_post_mean, g_post_var, g_pri_mean, g_pri_var


def damp(current: tuple[np.ndarray, float], previous: tuple[np.ndarray, float],
         beta: float) -> tuple[np.ndarray, float]:
    """Convex combination beta * previous + (1 - beta) * current.

    beta must lie in [0, 1]; the solver's policy query clamps it there.
    """
    mean = beta * previous[0] + (1.0 - beta) * current[0]
    var = beta * previous[1] + (1.0 - beta) * current[1]
    return mean, var


def spectral_init(y: np.ndarray, matrix: TransformMatrix
                  ) -> tuple[GaussianMessage, GaussianMessage]:
    """Leading-eigenvector initialization from the weighted covariance.

    Runs a fixed 50-step power iteration on S = (1/M) A^H diag(y^2) A from a
    deterministic unit start vector, then scales the eigenvector so that
    ||A x0||^2 matches the measurement energy with the expected noise energy
    subtracted.  Returns the z-side message (A x0, SNR) and the x-side
    message (x0, 1).
    """
    m, n = matrix.m, matrix.n
    snr = clamp_variance(matrix.snr)
    y2 = y * y
    total = float(np.sum(y2))
    if total == 0.0:
        return (GaussianMessage(np.zeros(m, complex), snr),
                GaussianMessage(np.zeros(n, complex), 1.0))
    x = np.ones(n, dtype=complex) / np.sqrt(n)
    for _ in range(_POWER_ITERATIONS):
        w = matrix.apply(x)
        w *= y2
        x = matrix.adjoint(w) / m
        norm = np.linalg.norm(x)
        if norm == 0.0:
            break
        x /= norm
    target = max(total - m, 1e-6)
    ax = matrix.apply(x)
    norm_ax = float(np.linalg.norm(ax))
    if norm_ax > 0.0:
        scale = np.sqrt(target) / norm_ax
        x = x * scale
        ax = ax * scale
    return GaussianMessage(ax, snr), GaussianMessage(x, 1.0)


def align_phase(x_true: np.ndarray, x_est: np.ndarray) -> np.ndarray:
    """Rotate the estimate by the global phase minimizing the L2 distance."""
    if x_true.shape != x_est.shape:
        raise ValueError("aligned vectors must have equal length")
    inner = np.vdot(x_est, x_true)
    if inner == 0:
        return x_est
    return (inner / abs(inner)) * x_est


def aligned_error(x_true: np.ndarray, x_est: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared error |phase * est - x|^2 under the best global phase,
    phase = <est, x>/|<est, x>| (1 when that is 0), and its adjoint
    dL/d est* = conj(phase) * (phase * est - x)."""
    inner = np.vdot(x_est, x_true)
    phase = inner / abs(inner) if inner != 0 else 1.0
    diff = phase * x_est - x_true
    return float(np.sum(diff.real**2 + diff.imag**2)), np.conj(phase) * diff


def nmse_db(x_true: np.ndarray, x_est: np.ndarray) -> float:
    """Normalized squared error in dB, floored at -120 dB."""
    denom = float(np.sum(np.abs(x_true) ** 2))
    if denom == 0.0:
        raise ValueError("NMSE undefined for a zero reference signal")
    num = float(np.sum(np.abs(x_true - x_est) ** 2))
    if num == 0.0:
        return NMSE_FLOOR_DB
    return max(10.0 * np.log10(num / denom), NMSE_FLOOR_DB)


class DampingPolicy:
    """Online source of damping factors, queried once per side per layer."""

    def reset(self, sigma_tilde: np.ndarray, sqrt_snr: float, tape: bool = False) -> None:
        """Start a run in its scenario: the unit-norm spectrum and sqrt(SNR).
        `LayerRecursion` calls it once per run, taped when recorded."""

    def beta(self, side: str, t: int, v_ext: float) -> float:
        """Layer t's factor for side "z" or "x", given its extrinsic variance."""
        raise NotImplementedError


class SchedulePolicy(DampingPolicy):
    """Fixed schedule beta(t), identical for both sides."""

    def __init__(self, schedule: Callable[[int], float]):
        self._schedule = schedule

    def beta(self, side: str, t: int, v_ext: float) -> float:
        return float(self._schedule(t))


def geometric_schedule(base: float = 0.9) -> SchedulePolicy:
    """beta(t) = base^t."""
    return SchedulePolicy(lambda t: base**t)


def constant_schedule(value: float = 0.5) -> SchedulePolicy:
    """beta(t) = value for every layer."""
    return SchedulePolicy(lambda t: value)


@dataclass
class SolverTrace:
    """Per-layer record of one solver run."""

    x_means: list = field(default_factory=list)
    nmse_db: list = field(default_factory=list)
    beta_z: list = field(default_factory=list)
    beta_x: list = field(default_factory=list)
    v2z: list = field(default_factory=list)
    v2x: list = field(default_factory=list)
    init_nmse_db: float = 0.0
    diverged: bool = False

    @property
    def layers(self) -> int:
        return len(self.x_means)


class DampedSide:
    """One side's damping step: the policy query, damp() and the clamp.

    Layer t's factor beta comes from the policy, which sees the extrinsic
    variance, and is clamped to [0, 1].  The damped message is beta *
    previous + (1 - beta) * extrinsic, where "previous" is the last damped
    message with its raw variance (the initial message at the start); the
    clamped copy goes on.  `beta` keeps the last factor, for the trace.

    A taped side records each step for `backward`, which carries adjoints
    back to the history and, through the policy, to the extrinsic variance.
    """

    def __init__(self, side: str, policy: DampingPolicy, start: GaussianMessage,
                 taped: bool = False):
        self.side, self.policy = side, policy
        self.hist = (start.mean, start.variance)
        self.records = [] if taped else None
        self.g_hist = (0.0, 0.0)   # dL/d(history)

    def step(self, t: int, ext: GaussianMessage) -> GaussianMessage:
        beta = self.policy.beta(self.side, t, ext.variance)
        if not np.isfinite(beta):
            raise PolicyError(f"policy returned non-finite damping factor {beta}")
        self.beta = beta = min(max(float(beta), 0.0), 1.0)
        previous = self.hist
        self.hist = damp((ext.mean, ext.variance), previous, beta)
        if self.records is not None:
            self.records.append((beta, previous, ext, self.hist[1]))
        return GaussianMessage(self.hist[0], clamp_variance(self.hist[1]))

    def backward(self, t: int, g_mean: np.ndarray, g_var: float
                 ) -> tuple[np.ndarray, float]:
        """Adjoint of layer t's step: (dL/d ext mean*, dL/d ext variance)."""
        beta, (hist_m, hist_v), ext, var = self.records.pop()
        g_mean = g_mean + self.g_hist[0]
        g_var = g_var * clamp_variance_grad(var) + self.g_hist[1]
        g_beta = (2.0 * float(np.vdot(g_mean, hist_m - ext.mean).real)
                  + g_var * (hist_v - ext.variance))
        self.g_hist = (beta * g_mean, beta * g_var)
        g_v_ext = self.policy.backward_beta(self.side, t, g_beta)
        return (1.0 - beta) * g_mean, (1.0 - beta) * g_var + g_v_ext


class LayerRecursion:
    """What one solver layer hands to the next: `msg_1z`, `msg_2x` and the
    two damping steps, which start at the spectral initialization (computed
    here when `init` is None).  Each caller runs its own phase reconstructor
    on `msg_1z` and hands the posterior to `advance`.  The recursion resets
    its policy with the scenario; a taped one resets it with a tape and
    records every step of every layer, for `backward`.
    """

    def __init__(self, sample: Sample, prior: SignalPrior, policy: DampingPolicy,
                 init: Optional[tuple[GaussianMessage, GaussianMessage]] = None,
                 taped: bool = False):
        self.matrix, self.prior = sample.matrix, prior
        msg_z0, msg_x0 = spectral_init(sample.y, self.matrix) if init is None else init
        self.msg_1z = GaussianMessage(msg_z0.mean, clamp_variance(msg_z0.variance))
        self.msg_2x = GaussianMessage(msg_x0.mean, clamp_variance(msg_x0.variance))
        self.side_z = DampedSide("z", policy, self.msg_1z, taped)
        self.side_x = DampedSide("x", policy, self.msg_2x, taped)
        self.tapes = [] if taped else None
        policy.reset(self.matrix.sigma_tilde, float(np.sqrt(self.matrix.snr)), tape=taped)

    def advance(self, t: int, post_z: np.ndarray, var_z: float
                ) -> Optional[tuple[np.ndarray, float, float]]:
        """Layer t from the phase reconstructor's posterior (post_z, var_z) on.

        Runs extrinsic -> damping (z side) -> LMMSE towards x -> extrinsic ->
        denoiser -> extrinsic -> damping (x side) -> LMMSE towards z ->
        extrinsic; both LMMSE calls share one projection of the damped z
        mean.  Returns the denoiser mean with the z- and x-side extrinsic
        variances, or None when that mean is not finite.
        """
        tapes = {}
        if self.tapes is not None:
            tapes = {key: {} for key in ("ez", "bx", "ex1", "gb", "ex2", "bz", "ez2")}
            self.tapes.append(tapes)
        tape = tapes.get
        matrix = self.matrix
        ext_z = extrinsic(post_z, var_z, self.msg_1z, tape("ez"))
        msg_2z = self.side_z.step(t, ext_z)
        z_proj = matrix.project(msg_2z.mean)
        # `matrix` stays positional: perfbench's tracer reads it as args[2].
        post_x, var_x = lmmse_posterior(msg_2z, self.msg_2x, matrix, "x", tape("bx"),
                                        z_proj=z_proj)
        msg_1x = extrinsic(post_x, var_x, self.msg_2x, tape("ex1"))
        den_x, den_var = gb_posterior(msg_1x, self.prior, tape("gb"))
        if not np.all(np.isfinite(den_x)):
            return None
        ext_x = extrinsic(den_x, den_var, msg_1x, tape("ex2"))
        self.msg_2x = self.side_x.step(t, ext_x)
        post_z2, var_z2 = lmmse_posterior(msg_2z, self.msg_2x, matrix, "z", tape("bz"),
                                          z_proj=z_proj)
        self.msg_1z = extrinsic(post_z2, var_z2, msg_2z, tape("ez2"))
        return den_x, ext_z.variance, ext_x.variance

    def backward(self, t: int, g_den: np.ndarray, g_1z: tuple[np.ndarray, float],
                 g_2x: tuple[np.ndarray, float]):
        """Adjoint of `advance(t)`, the last taped layer not yet inverted.

        From the adjoints of its denoiser mean and of the `msg_1z` and `msg_2x`
        it handed on, returns those of `post_z`, `var_z` and the `msg_1z` and
        `msg_2x` it read (less the caller's phase reconstructor's share).
        """
        tape = self.tapes.pop()
        matrix = self.matrix
        g_post_z2, g_pvar_z2, g_dzm_pri, g_dzv_pri = extrinsic_backward(*g_1z, tape["ez2"])
        g_dzk_b, g_dzv_b, g_dxm_b, g_dxv_b = lmmse_backward(
            matrix, g_post_z2, g_pvar_z2, tape["bz"], "z")
        g_ext_mx, g_ext_vx = self.side_x.backward(t, g_2x[0] + g_dxm_b, g_2x[1] + g_dxv_b)
        g_den_x, g_den_v, g_m1x_a, g_v1x_a = extrinsic_backward(
            g_ext_mx, g_ext_vx, tape["ex2"])
        g_r, g_v1x_b = gb_backward(g_den_x + g_den, g_den_v, self.prior, tape["gb"])
        g_post_x, g_pvar_x, g_m2x_pri, g_v2x_pri = extrinsic_backward(
            g_m1x_a + g_r, g_v1x_a + g_v1x_b, tape["ex1"])
        g_dzk_bx, g_dzv_bx, g_m2x_bx, g_v2x_bx = lmmse_backward(
            matrix, g_post_x, g_pvar_x, tape["bx"], "x")
        # Both LMMSE calls read the damped z mean through one projection.
        g_dzm = g_dzm_pri + matrix.apply_modes(g_dzk_b + g_dzk_bx)
        g_ext_mz, g_ext_vz = self.side_z.backward(t, g_dzm, g_dzv_pri + g_dzv_b + g_dzv_bx)
        g_post_z, g_var_z, g_m1z, g_v1z = extrinsic_backward(g_ext_mz, g_ext_vz, tape["ez"])
        return (g_post_z, g_var_z, (g_m1z, g_v1z),
                (g_m2x_pri + g_m2x_bx, g_v2x_pri + g_v2x_bx))

    def finite(self) -> bool:
        """Whether the messages handed to the next layer are finite."""
        return bool(np.all(np.isfinite(self.msg_1z.mean))
                    and np.all(np.isfinite(self.msg_2x.mean)))


def run_solver(sample: Sample, prior: SignalPrior, policy: DampingPolicy,
               layers: int,
               init: Optional[tuple[GaussianMessage, GaussianMessage]] = None
               ) -> SolverTrace:
    """Run the layered solver and record the per-layer trace.

    Each layer runs the phase reconstructor, then `LayerRecursion.advance`.
    A non-finite message truncates the run and flags divergence.

    `init` may carry a precomputed spectral initialization so the (pure)
    layer recursion can be re-run cheaply under different policies.
    """
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers}")
    recursion = LayerRecursion(sample, prior, policy, init)

    trace = SolverTrace()
    trace.init_nmse_db = nmse_db(sample.x, align_phase(sample.x, recursion.msg_2x.mean))
    for t in range(1, layers + 1):
        layer = recursion.advance(t, *magnitude_posterior(recursion.msg_1z, sample.y))
        if layer is not None:
            den_x, v2z, v2x = layer
            trace.x_means.append(den_x)
            trace.nmse_db.append(nmse_db(sample.x, align_phase(sample.x, den_x)))
            trace.beta_z.append(recursion.side_z.beta)
            trace.beta_x.append(recursion.side_x.beta)
            trace.v2z.append(v2z)
            trace.v2x.append(v2x)
        if layer is None or not recursion.finite():
            trace.diverged = True
            break
    return trace
