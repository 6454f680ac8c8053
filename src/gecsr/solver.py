"""Expectation-consistent phase-retrieval solver with pluggable damping.

One solver layer runs three Bayesian estimators in sequence -- a phase
reconstructor working on the magnitude measurements, an SVD-domain linear
(LMMSE) reconstructor coupling the signal and its transform, and a denoiser
applying the true signal prior -- each followed by an extrinsic (debiasing)
step.  The messages leaving the phase reconstructor and the denoiser pass
through a damping operation whose factor beta(t) is supplied online by a
DampingPolicy, which is where fixed schedules, learned vectors, and
hypernetwork controllers plug in.

All messages carry a complex mean vector and a single scalar variance (the
component average).  Variances are clamped to [V_MIN, V_MAX] throughout.
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


def nmse_db(x_true: np.ndarray, x_est: np.ndarray) -> float:
    """Normalized squared error in dB, floored at -120 dB."""
    denom = float(np.sum(np.abs(x_true) ** 2))
    if denom == 0.0:
        raise ValueError("NMSE undefined for a zero reference signal")
    num = float(np.sum(np.abs(x_true - x_est) ** 2))
    if num == 0.0:
        return NMSE_FLOOR_DB
    return max(10.0 * np.log10(num / denom), NMSE_FLOOR_DB)


@dataclass(frozen=True)
class PolicyFeatures:
    """Per-query inputs available to a damping policy."""

    sigma_tilde: np.ndarray
    sqrt_snr: float
    beta_prev: float
    beta_prev2: float
    v_ext: float


class DampingPolicy:
    """Online source of damping factors, queried once per side per layer."""

    def reset(self) -> None:
        """Clear per-run state; called by the solver before each run."""

    def beta(self, side: str, t: int, features: PolicyFeatures) -> float:
        raise NotImplementedError


class SchedulePolicy(DampingPolicy):
    """Fixed schedule beta(t), identical for both sides."""

    def __init__(self, schedule: Callable[[int], float]):
        self._schedule = schedule

    def beta(self, side: str, t: int, features: PolicyFeatures) -> float:
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


def _query(policy: DampingPolicy, side: str, t: int,
           features: PolicyFeatures) -> float:
    beta = policy.beta(side, t, features)
    if not np.isfinite(beta):
        raise PolicyError(f"policy returned non-finite damping factor {beta}")
    return min(max(float(beta), 0.0), 1.0)


class DampedSide:
    """One side's damping step: the policy query, damp() and the clamp.

    Layer t's factor beta comes from the policy, which sees the scenario,
    this side's two previous factors (1 before the first layer) and the
    extrinsic variance.  The damped message is beta * previous + (1 - beta)
    * extrinsic, where "previous" is the last damped message with its raw
    variance (the initial message at the start); the clamped copy goes on.
    """

    def __init__(self, side: str, policy: DampingPolicy, sigma_tilde: np.ndarray,
                 sqrt_snr: float, start: GaussianMessage):
        self.side, self.policy = side, policy
        self.sigma_tilde, self.sqrt_snr = sigma_tilde, sqrt_snr
        self.hist = (start.mean, start.variance)
        self.betas = (1.0, 1.0)

    def step(self, t: int, ext: GaussianMessage) -> GaussianMessage:
        beta = _query(self.policy, self.side, t, PolicyFeatures(
            self.sigma_tilde, self.sqrt_snr, self.betas[0], self.betas[1],
            ext.variance))
        self.betas = (beta, self.betas[0])
        self.hist = damp((ext.mean, ext.variance), self.hist, beta)
        return GaussianMessage(self.hist[0], clamp_variance(self.hist[1]))


def run_solver(sample: Sample, prior: SignalPrior, policy: DampingPolicy,
               layers: int,
               init: Optional[tuple[GaussianMessage, GaussianMessage]] = None
               ) -> SolverTrace:
    """Run the layered solver and record the per-layer trace.

    Each layer executes: phase reconstructor -> extrinsic -> damping (z side)
    -> LMMSE towards x -> extrinsic -> denoiser -> extrinsic -> damping
    (x side) -> LMMSE towards z -> extrinsic.  Damping histories start at the
    spectral-initialization messages; damping-factor histories start at 1.
    A non-finite message truncates the run and flags divergence.

    `init` may carry a precomputed spectral initialization so the (pure)
    layer recursion can be re-run cheaply under different policies.
    """
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers}")
    matrix = sample.matrix
    msg_z0, msg_x0 = spectral_init(sample.y, matrix) if init is None else init
    sigma_tilde = matrix.sigma_tilde
    sqrt_snr = float(np.sqrt(matrix.snr))
    policy.reset()

    trace = SolverTrace()
    trace.init_nmse_db = nmse_db(sample.x, align_phase(sample.x, msg_x0.mean))

    msg_1z = GaussianMessage(msg_z0.mean, clamp_variance(msg_z0.variance))
    msg_2x = GaussianMessage(msg_x0.mean, clamp_variance(msg_x0.variance))
    side_z = DampedSide("z", policy, sigma_tilde, sqrt_snr, msg_1z)
    side_x = DampedSide("x", policy, sigma_tilde, sqrt_snr, msg_2x)

    for t in range(1, layers + 1):
        post_z, var_z = magnitude_posterior(msg_1z, sample.y)
        ext_z = extrinsic(post_z, var_z, msg_1z)
        msg_2z = side_z.step(t, ext_z)
        z_proj = matrix.project(msg_2z.mean)

        post_x, var_x = lmmse_posterior(msg_2z, msg_2x, matrix, "x", z_proj=z_proj)
        msg_1x = extrinsic(post_x, var_x, msg_2x)

        den_x, den_var = gb_posterior(msg_1x, prior)
        if not np.all(np.isfinite(den_x)):
            trace.diverged = True
            break
        trace.x_means.append(den_x)
        trace.nmse_db.append(nmse_db(sample.x, align_phase(sample.x, den_x)))

        ext_x = extrinsic(den_x, den_var, msg_1x)
        msg_2x = side_x.step(t, ext_x)

        trace.beta_z.append(side_z.betas[0])
        trace.beta_x.append(side_x.betas[0])
        trace.v2z.append(ext_z.variance)
        trace.v2x.append(ext_x.variance)

        post_z2, var_z2 = lmmse_posterior(msg_2z, msg_2x, matrix, "z", z_proj=z_proj)
        msg_1z = extrinsic(post_z2, var_z2, msg_2z)

        if not (np.all(np.isfinite(msg_1z.mean)) and np.all(np.isfinite(msg_2x.mean))):
            trace.diverged = True
            break
    return trace


def trace_csv_rows(trace: SolverTrace, sample_id: int) -> list[str]:
    """Long-format CSV rows (sample_id, t, beta_z, beta_x, v2z, v2x, nmse_db)."""
    rows = []
    for t in range(trace.layers):
        rows.append(f"{sample_id},{t + 1},{trace.beta_z[t]!r},{trace.beta_x[t]!r},"
                    f"{trace.v2z[t]!r},{trace.v2x[t]!r},{trace.nmse_db[t]!r}")
    return rows


TRACE_CSV_HEADER = "sample_id,t,beta_z,beta_x,v2z,v2x,nmse_db"


def write_trace_csv(path: str, traces) -> None:
    """Write one CSV for a sequence of traces, sample ids in order."""
    lines = [TRACE_CSV_HEADER]
    for sample_id, trace in enumerate(traces):
        lines.extend(trace_csv_rows(trace, sample_id))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
