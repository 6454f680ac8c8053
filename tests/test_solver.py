"""Solver tests: Bessel ratio, estimator oracles, message algebra, traces.

The three Bayesian estimators are checked against independent numerical
oracles: the phase reconstructor against quadrature of the circular phase
posterior (and against full 2-D likelihood quadrature on spot points), the
denoiser against radial quadrature of the spike-and-slab posterior, and the
linear reconstructor against the dense LMMSE formula.
"""

import numpy as np
import pytest
from scipy import integrate
from scipy.special import i0e, i1e

from gecsr import hypernets, model
from gecsr.hypernets import init_hypergru_params, policy_for_params
from gecsr.model import SignalPrior, TransformMatrix, gaussian_matrix
from gecsr.solver import (
    V_MAX,
    V_MIN,
    DampingPolicy,
    GaussianMessage,
    LayerRecursion,
    PolicyError,
    SchedulePolicy,
    align_phase,
    bessel_ratio,
    constant_schedule,
    damp,
    extrinsic,
    gb_posterior,
    geometric_schedule,
    lmmse_posterior,
    magnitude_posterior,
    nmse_db,
    run_solver,
    spectral_init,
)

# ------------------------------------------------------------- oracles


def bessel_ratio_quadrature(kappa: float) -> float:
    """I1/I0 via the scaled integral definitions (independent oracle)."""
    def integrand(theta, order):
        return np.exp(kappa * (np.cos(theta) - 1.0)) * np.cos(order * theta)

    i1, _ = integrate.quad(integrand, 0, np.pi, args=(1,), epsabs=1e-13, limit=200)
    i0, _ = integrate.quad(integrand, 0, np.pi, args=(0,), epsabs=1e-13, limit=200)
    return i1 / i0


def bessel_ratio_fixed_depth(kappa: float) -> float:
    """The small-argument continued fraction as a plain 40-term loop.

    `bessel_ratio` runs it over a precomputed table of 2 j / k and must
    reproduce this loop bit for bit.
    """
    if kappa == 0.0:
        return 0.0
    r = 0.0
    for j in range(40, 0, -1):
        r = 1.0 / (2.0 * j / kappa + r)
    return r


def phase_posterior_quadrature(y: float, mu_abs: float, v: float) -> tuple[float, float]:
    """Oracle for the phase reconstructor: quadrature of the phase posterior.

    With w = z + n conditioned on |w| = y, the residual phase follows a
    circular (von Mises) law with concentration 2 y |mu| / (v + 1); its first
    moment is evaluated numerically and folded through the joint-Gaussian
    conditioning, giving the posterior mean along the prior phase and the
    per-component variance.
    """
    c = v / (v + 1.0)
    kappa = 2.0 * y * mu_abs / (v + 1.0)
    moment = bessel_ratio_quadrature(kappa)
    mean = (1.0 - c) * mu_abs + c * y * moment
    var = c + c * c * y * y * (1.0 - moment * moment)
    return mean, var


def phase_posterior_quadrature_2d(y: float, mu_abs: float, v: float) -> tuple[float, float]:
    """Full 2-D oracle: integrate the Rician likelihood against the prior.

    Works in polar coordinates z = s e^{i phi} with the prior mean on the
    real axis; i0e keeps the likelihood finite at large arguments.
    """
    def weight(phi, s):
        # dblquad convention: inner variable (phi) first.
        like = 2.0 * y * np.exp(-((y - s) ** 2)) * i0e(2.0 * y * s)
        pri = np.exp(-(s**2 + mu_abs**2 - 2.0 * s * mu_abs * np.cos(phi)) / v) / (np.pi * v)
        return s * like * pri

    s_hi = max(y, mu_abs) + 8.0 * np.sqrt(max(v, 1.0))
    opts = dict(epsabs=1e-13, epsrel=1e-11)
    z_norm = integrate.dblquad(weight, 0, s_hi, -np.pi, np.pi, **opts)[0]
    z_mean = integrate.dblquad(lambda phi, s: np.cos(phi) * s * weight(phi, s),
                               0, s_hi, -np.pi, np.pi, **opts)[0]
    z_sq = integrate.dblquad(lambda phi, s: s * s * weight(phi, s),
                             0, s_hi, -np.pi, np.pi, **opts)[0]
    mean = z_mean / z_norm
    var = z_sq / z_norm - mean**2
    return mean, var


def gb_posterior_quadrature(r: float, v: float, rho: float) -> tuple[float, float]:
    """Oracle for the denoiser: radial quadrature of the spike-and-slab law.

    The angular integral of the complex-Gaussian likelihood reduces to
    scaled Bessel factors; the radial integrals are evaluated numerically,
    so none of the implementation's Gaussian-product algebra is reused.
    All weights are rescaled by the peak log-density so the quadrature works
    on O(1) values (ratios are unaffected).
    """
    s2 = 1.0 / rho

    def log_kernel(u):
        return (-((r - u) ** 2) / v - (u**2) / s2
                + np.log(i0e(2.0 * r * u / v)))

    u_hi = r + 10.0 * np.sqrt(v) + 10.0 * np.sqrt(s2)
    probe = np.linspace(1e-9, u_hi, 4001)
    shift = float(np.max(log_kernel(probe)))

    def radial(u, order):
        scale = i1e if order == 1 else i0e
        base = np.exp(-((r - u) ** 2) / v - (u**2) / s2 - shift)
        return u ** (order + 1) * base * scale(2.0 * r * u / v)

    # The integrand peaks sharply near the shrunk radius for small v; hand
    # the quadrature both candidate peaks so it cannot skip them.
    peak = s2 * r / (s2 + v)
    hints = sorted({min(max(p, 0.0), u_hi) for p in (peak, r)})
    opts = dict(epsabs=1e-14, epsrel=1e-12, limit=400, points=hints)
    i_norm = integrate.quad(radial, 0, u_hi, args=(0,), **opts)[0]
    i_mean = integrate.quad(radial, 0, u_hi, args=(1,), **opts)[0]
    i_sq = integrate.quad(lambda u: u * u * radial(u, 0), 0, u_hi, **opts)[0]
    # Spike weight divided by the slab integrals' common factor
    # (2 / (pi v s2)) e^shift so both live in the same rescaled space.
    log_spike = -(r**2) / v - shift + np.log(s2 / 2.0)
    spike = (1.0 - rho) * np.exp(log_spike) if log_spike > -700 else 0.0
    norm = spike + rho * i_norm
    mean = rho * i_mean / norm
    second = rho * i_sq / norm
    return mean, second - mean**2


def lmmse_dense(mu_z, vz, mu_x, vx, a_dense):
    """Dense-inverse LMMSE oracle for both output directions."""
    m, n = a_dense.shape
    cov = np.linalg.inv(np.eye(n) / vx + a_dense.conj().T @ a_dense / vz)
    x_hat = cov @ (mu_x / vx + a_dense.conj().T @ mu_z / vz)
    vx_hat = float(np.real(np.trace(cov))) / n
    z_hat = a_dense @ x_hat
    vz_hat = float(np.real(np.trace(a_dense @ cov @ a_dense.conj().T))) / m
    return x_hat, vx_hat, z_hat, vz_hat


# ------------------------------------------------------ bessel ratio


class TestBesselRatio:
    def test_zero(self):
        assert bessel_ratio(0.0) == 0.0

    def test_reference_point(self):
        # Frozen from the quadrature oracle.
        oracle = bessel_ratio_quadrature(1.0)
        assert abs(oracle - 0.44639) < 1e-5
        assert abs(bessel_ratio(1.0) - oracle) < 1e-9

    def test_large_argument(self):
        oracle = bessel_ratio_quadrature(100.0)
        assert abs(oracle - 0.99499) < 1e-5
        assert abs(bessel_ratio(100.0) - oracle) < 1e-5

    def test_against_quadrature_grid(self):
        for kappa in (0.01, 0.1, 0.5, 2.0, 7.5, 29.9, 30.1, 55.0, 400.0):
            oracle = bessel_ratio_quadrature(kappa)
            assert abs(bessel_ratio(kappa) - oracle) <= 1e-6 * max(oracle, 1e-9)

    def test_matches_fixed_depth_loop(self):
        grid = np.unique(np.concatenate([
            np.geomspace(1e-9, 30.0, 2000), np.linspace(0.0, 30.0, 2001),
            [np.nextafter(30.0, 0.0), np.nextafter(30.0, 31.0), 30.0 + 1e-9, 31.0]]))
        small = grid <= 30.0
        want = np.array([bessel_ratio_fixed_depth(k) for k in grid[small]])
        np.testing.assert_array_equal([bessel_ratio(k) for k in grid[small]], want)
        mixed = bessel_ratio(grid)
        np.testing.assert_array_equal(mixed[small], want)
        np.testing.assert_array_equal(mixed[~small],
                                      [bessel_ratio(k) for k in grid[~small]])

    def test_monotone_increasing(self):
        grid = np.concatenate([np.linspace(0, 29.9, 200), np.linspace(30.2, 300, 200)])
        vals = bessel_ratio(grid)
        assert np.all(np.diff(vals) > 0)
        # Branch switch may jump by the asymptotic truncation (~2e-8), no more.
        assert bessel_ratio(30.0 + 1e-9) - bessel_ratio(30.0) > -1e-7

    def test_range(self):
        vals = bessel_ratio(np.linspace(0, 1000, 500))
        assert np.all(vals >= 0) and np.all(vals < 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bessel_ratio(-0.5)


# ------------------------------------------------ phase reconstructor


class TestMagnitudePosterior:
    def test_zero_measurement(self):
        # y = 0, mu = 2, v = 1: mean collapses to mu/(v+1), variance to 1/2.
        mean, var = magnitude_posterior(GaussianMessage(np.array([2.0 + 0j]), 1.0),
                                        np.array([0.0]))
        np.testing.assert_allclose(mean, [1.0 + 0j], atol=1e-12)
        np.testing.assert_allclose(var, 0.5, atol=1e-12)

    def test_tiny_prior_variance_pins_mean(self):
        msg = GaussianMessage(np.array([1.5 - 0.5j]), 1e-12)
        mean, var = magnitude_posterior(msg, np.array([4.0]))
        np.testing.assert_allclose(mean, msg.mean, rtol=1e-9)
        assert var <= 1e-11

    def test_zero_prior_mean_symmetry(self):
        mean, var = magnitude_posterior(GaussianMessage(np.array([0.0 + 0j]), 1.0),
                                        np.array([1.0]))
        np.testing.assert_allclose(mean, [0.0 + 0j], atol=1e-14)
        np.testing.assert_allclose(var, 0.75, atol=1e-12)

    def test_against_phase_quadrature_grid(self):
        # Same grid as the acceptance gate, spot-checked here early.
        for y in (0.0, 1.0, 20.0):
            for mu in (0.0, 2.0):
                for v in (0.5, 10.0):
                    ref_mean, ref_var = phase_posterior_quadrature(y, mu, v)
                    mean, var = magnitude_posterior(
                        GaussianMessage(np.array([mu + 0j]), v), np.array([y]))
                    assert abs(mean[0].real - ref_mean) <= 1e-6 * (abs(ref_mean) + 1e-9)
                    assert abs(var - ref_var) <= 1e-6 * abs(ref_var)

    def test_against_full_2d_quadrature(self):
        for y, mu, v in ((1.0, 0.5, 0.7), (2.0, 1.5, 1.0), (0.5, 2.0, 0.3),
                         (3.0, 0.0, 2.0)):
            ref_mean, ref_var = phase_posterior_quadrature_2d(y, mu, v)
            mean, var = magnitude_posterior(
                GaussianMessage(np.array([mu + 0j]), v), np.array([y]))
            assert abs(mean[0].real - ref_mean) <= 2e-6 * (abs(ref_mean) + 1e-6)
            assert abs(var - ref_var) <= 2e-6 * abs(ref_var)

    def test_phase_equivariance(self):
        rng = np.random.default_rng(5)
        mu = model.complex_normal(rng, 6)
        y = np.abs(model.complex_normal(rng, 6))
        rot = np.exp(0.77j)
        base, var_b = magnitude_posterior(GaussianMessage(mu, 0.8), y)
        spun, var_s = magnitude_posterior(GaussianMessage(rot * mu, 0.8), y)
        np.testing.assert_allclose(spun, rot * base, rtol=1e-12)
        assert var_b == var_s

    def test_rejects_non_finite(self):
        with pytest.raises(FloatingPointError):
            magnitude_posterior(GaussianMessage(np.array([np.nan + 0j]), 1.0),
                                np.array([1.0]))


# ------------------------------------------------------------ denoiser


class TestGbPosterior:
    def test_pure_gaussian_case(self):
        mean, var = gb_posterior(GaussianMessage(np.array([2.0 + 0j]), 1.0),
                                 SignalPrior(1.0))
        np.testing.assert_allclose(mean, [1.0 + 0j], atol=1e-12)
        np.testing.assert_allclose(var, 0.5, atol=1e-12)

    def test_zero_input_symmetry(self):
        for rho in (0.3, 0.7, 1.0):
            mean, _ = gb_posterior(GaussianMessage(np.array([0.0 + 0j]), 0.4),
                                   SignalPrior(rho))
            np.testing.assert_allclose(mean, [0.0 + 0j], atol=1e-14)

    def test_against_quadrature_spot(self):
        ref_mean, ref_var = gb_posterior_quadrature(1.0, 0.25, 0.5)
        mean, var = gb_posterior(GaussianMessage(np.array([1.0 + 0j]), 0.25),
                                 SignalPrior(0.5))
        assert abs(mean[0].real - ref_mean) <= 1e-8 * abs(ref_mean)
        assert abs(var - ref_var) <= 1e-8 * abs(ref_var)

    def test_against_quadrature_grid(self):
        for rho in (0.3, 0.5, 1.0):
            for r in (0.0, 0.5, 2.0):
                for v in (0.1, 1.0, 4.0):
                    ref_mean, ref_var = gb_posterior_quadrature(r, v, rho)
                    mean, var = gb_posterior(
                        GaussianMessage(np.array([r + 0j]), v), SignalPrior(rho))
                    assert abs(mean[0].real - ref_mean) <= 1e-6 * (abs(ref_mean) + 1e-9)
                    assert abs(var - ref_var) <= 1e-6 * abs(ref_var)

    def test_phase_equivariance(self):
        rng = np.random.default_rng(6)
        r = model.complex_normal(rng, 5)
        rot = np.exp(-1.1j)
        base, _ = gb_posterior(GaussianMessage(r, 0.6), SignalPrior(0.4))
        spun, _ = gb_posterior(GaussianMessage(rot * r, 0.6), SignalPrior(0.4))
        np.testing.assert_allclose(spun, rot * base, rtol=1e-12)

    def test_sparse_shrinks_harder_than_dense(self):
        msg = GaussianMessage(np.array([0.8 + 0j]), 1.0)
        sparse, _ = gb_posterior(msg, SignalPrior(0.2))
        dense, _ = gb_posterior(msg, SignalPrior(1.0))
        assert abs(sparse[0]) < abs(dense[0])


# ------------------------------------------------- linear reconstructor


class TestLmmsePosterior:
    def test_identity_fusion(self):
        mat = TransformMatrix(np.eye(3, dtype=complex), np.eye(3, dtype=complex),
                              np.ones(3))
        msg_z = GaussianMessage(np.full(3, 2.0 + 0j), 1.0)
        msg_x = GaussianMessage(np.zeros(3, complex), 1.0)
        mean, var = lmmse_posterior(msg_z, msg_x, mat, output="x",
                                    z_proj=mat.project(msg_z.mean))
        np.testing.assert_allclose(mean, np.ones(3), atol=1e-12)
        np.testing.assert_allclose(var, 0.5, atol=1e-12)

    def test_uninformative_observation(self):
        rng = np.random.default_rng(7)
        mat = gaussian_matrix(8, 4, 3.0, rng)
        mu_x = model.complex_normal(rng, 4)
        msg_z = GaussianMessage(model.complex_normal(rng, 8), V_MAX)
        msg_x = GaussianMessage(mu_x, 0.7)
        mean, var = lmmse_posterior(msg_z, msg_x, mat, output="x",
                                    z_proj=mat.project(msg_z.mean))
        np.testing.assert_allclose(mean, mu_x, atol=1e-6)
        np.testing.assert_allclose(var, 0.7, rtol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_against_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mat = gaussian_matrix(12, 5, 4.0, rng)
        mu_z = model.complex_normal(rng, 12)
        mu_x = model.complex_normal(rng, 5)
        vz, vx = 0.3, 1.7
        x_hat, vx_hat, z_hat, vz_hat = lmmse_dense(mu_z, vz, mu_x, vx, mat.operator)
        z_proj = mat.project(mu_z)
        got_x, got_vx = lmmse_posterior(GaussianMessage(mu_z, vz),
                                        GaussianMessage(mu_x, vx), mat, output="x",
                                        z_proj=z_proj)
        got_z, got_vz = lmmse_posterior(GaussianMessage(mu_z, vz),
                                        GaussianMessage(mu_x, vx), mat, output="z",
                                        z_proj=z_proj)
        np.testing.assert_allclose(got_x, x_hat, atol=1e-9)
        np.testing.assert_allclose(got_vx, vx_hat, atol=1e-9)
        np.testing.assert_allclose(got_z, z_hat, atol=1e-9)
        np.testing.assert_allclose(got_vz, vz_hat, atol=1e-9)

    def test_against_dense_oracle_larger(self):
        rng = np.random.default_rng(99)
        mat = gaussian_matrix(24, 12, 10.0, rng)
        mu_z = model.complex_normal(rng, 24)
        mu_x = model.complex_normal(rng, 12)
        x_hat, vx_hat, _, _ = lmmse_dense(mu_z, 0.9, mu_x, 2.2, mat.operator)
        got_x, got_vx = lmmse_posterior(GaussianMessage(mu_z, 0.9),
                                        GaussianMessage(mu_x, 2.2), mat, output="x",
                                        z_proj=mat.project(mu_z))
        np.testing.assert_allclose(got_x, x_hat, atol=1e-9)
        np.testing.assert_allclose(got_vx, vx_hat, atol=1e-9)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(8)
        mat = gaussian_matrix(6, 3, 2.0, rng)
        with pytest.raises(ValueError):
            lmmse_posterior(GaussianMessage(np.zeros(5, complex), 1.0),
                            GaussianMessage(np.zeros(3, complex), 1.0),
                            mat, output="x", z_proj=np.zeros(3, complex))


# --------------------------------------------------- message algebra


class TestExtrinsic:
    def test_arithmetic(self):
        prior = GaussianMessage(np.array([0.0 + 0j]), 2.0)
        msg = extrinsic(np.array([1.0 + 0j]), 1.0, prior)
        np.testing.assert_allclose(msg.mean, [2.0 + 0j])
        assert msg.variance == 2.0

    def test_no_information_fallback(self):
        prior = GaussianMessage(np.array([0.5 + 0j]), 1.0)
        msg = extrinsic(np.array([0.9 + 0j]), 1.0, prior)
        assert msg.variance == V_MAX
        np.testing.assert_allclose(msg.mean, [0.9 + 0j])

    def test_product_round_trip(self):
        # Combining the extrinsic back with the prior through the Gaussian
        # product rule must recover the posterior when no clamp fires.
        rng = np.random.default_rng(9)
        for _ in range(50):
            prior_var = float(rng.uniform(0.5, 3.0))
            post_var = float(rng.uniform(0.05, prior_var * 0.9))
            prior = GaussianMessage(model.complex_normal(rng, 4), prior_var)
            post_mean = model.complex_normal(rng, 4)
            ext = extrinsic(post_mean, post_var, prior)
            v_back = 1.0 / (1.0 / ext.variance + 1.0 / prior.variance)
            mu_back = v_back * (ext.mean / ext.variance + prior.mean / prior.variance)
            np.testing.assert_allclose(mu_back, post_mean, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(v_back, post_var, rtol=1e-9)

    def test_clamp_range(self):
        prior = GaussianMessage(np.array([0.0 + 0j]), 1.0)
        msg = extrinsic(np.array([1.0 + 0j]), 1e-15, prior)
        assert V_MIN <= msg.variance <= V_MAX


class TestDamp:
    def test_endpoints(self):
        cur = (np.array([2.0 + 0j]), 1.0)
        prev = (np.array([1.0 + 0j]), 3.0)
        mean0, var0 = damp(cur, prev, 0.0)
        np.testing.assert_allclose(mean0, cur[0])
        assert var0 == 1.0
        mean1, var1 = damp(cur, prev, 1.0)
        np.testing.assert_allclose(mean1, prev[0])
        assert var1 == 3.0

    def test_convex_mix(self):
        mean, var = damp((np.array([2.0 + 0j]), 2.0), (np.array([1.0 + 0j]), 1.0), 0.3)
        np.testing.assert_allclose(mean, [1.7 + 0j])
        np.testing.assert_allclose(var, 1.7)

    def test_out_of_range_policy_factors_are_clamped(self):
        # A policy emitting factors outside [0, 1] is clamped by the
        # solver's query, before damp() sees the factor.
        class OutOfRange(DampingPolicy):
            def beta(self, side, t, v_ext):
                return 1.5 if side == "z" else -0.5

        sample = _small_sample(seed=9)
        trace = run_solver(sample, SignalPrior(sample.rho), OutOfRange(), 3)
        assert trace.beta_z == [1.0, 1.0, 1.0]
        assert trace.beta_x == [0.0, 0.0, 0.0]


# ---------------------------------------------- alignment and metric


class TestAlignPhase:
    def test_removes_global_phase(self):
        rng = np.random.default_rng(10)
        x = model.complex_normal(rng, 16)
        est = np.exp(1j * np.pi / 3) * x
        np.testing.assert_allclose(align_phase(x, est), x, atol=1e-12)

    def test_orthogonal_unchanged(self):
        x = np.array([1.0 + 0j, 0.0])
        est = np.array([0.0j, 1.0])
        np.testing.assert_array_equal(align_phase(x, est), est)

    def test_grid_search_optimality(self):
        rng = np.random.default_rng(11)
        x = model.complex_normal(rng, 12)
        est = model.complex_normal(rng, 12)
        aligned = align_phase(x, est)
        best = np.linalg.norm(x - aligned)
        for theta in np.linspace(0, 2 * np.pi, 360, endpoint=False):
            assert best <= np.linalg.norm(x - np.exp(1j * theta) * est) + 1e-12


class TestNmse:
    def test_exact_hits_floor(self):
        x = np.array([1.0 + 1j])
        assert nmse_db(x, x.copy()) == -120.0

    def test_zero_estimate(self):
        x = np.array([1.0 + 0j, 2.0])
        assert abs(nmse_db(x, np.zeros(2, complex))) < 1e-12

    def test_scaled_estimate(self):
        x = np.array([1.0 + 0j, -2.0, 3.0j])
        np.testing.assert_allclose(nmse_db(x, 1.1 * x), -20.0, atol=1e-10)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            nmse_db(np.zeros(3, complex), np.ones(3, complex))


# ------------------------------------------------------ spectral init


class TestSpectralInit:
    def test_diagonal_delta_signal(self):
        n = 6
        mat = TransformMatrix(np.eye(n, dtype=complex), np.eye(n, dtype=complex),
                              np.ones(n))
        x = np.zeros(n, complex)
        x[0] = 1.0
        y = np.abs(mat.apply(x))
        msg_z, msg_x = spectral_init(y, mat)
        got = msg_x.mean
        cosine = abs(np.vdot(got, x)) / (np.linalg.norm(got) * np.linalg.norm(x))
        assert cosine > 1.0 - 1e-9
        np.testing.assert_allclose(msg_z.mean, mat.apply(got), atol=1e-12)
        assert msg_x.variance == 1.0
        np.testing.assert_allclose(msg_z.variance, mat.snr)

    def test_zero_measurements(self):
        rng = np.random.default_rng(12)
        mat = gaussian_matrix(10, 4, 2.0, rng)
        msg_z, msg_x = spectral_init(np.zeros(10), mat)
        np.testing.assert_array_equal(msg_x.mean, np.zeros(4, complex))
        np.testing.assert_array_equal(msg_z.mean, np.zeros(10, complex))
        assert msg_x.variance == 1.0

    def test_alignment_above_chance(self):
        # Gaussian matrices at M/N = 4 and 20 dB: the spectral start should
        # correlate clearly with the signal on average.
        rng_master = np.random.default_rng(13)
        cosines = []
        for trial in range(20):
            rng = np.random.default_rng([14, trial])
            mat = gaussian_matrix(120, 30, 100.0, rng)
            x = model.sample_signal(SignalPrior(0.5), 30, rng)
            y = model.forward_measure(mat, x, rng)
            _, msg_x = spectral_init(y, mat)
            got = msg_x.mean
            cosines.append(abs(np.vdot(got, x))
                           / (np.linalg.norm(got) * np.linalg.norm(x) + 1e-30))
        assert np.mean(cosines) > 0.5


# ------------------------------------------------------------ run loop


def _small_sample(seed=0, m=24, n=8, snr_db=20.0, rho=0.5):
    manifest = model.DatasetManifest(seed=seed, count=1, m=m, n=n,
                                     matrix_class=("gaussian",),
                                     snr_db_range=(snr_db, snr_db),
                                     rho_range=(rho, rho))
    return model.sample_at(manifest, 0)


class TestRunSolver:
    def test_rejects_zero_layers(self):
        sample = _small_sample()
        with pytest.raises(ValueError):
            run_solver(sample, SignalPrior(sample.rho), constant_schedule(0.5), 0)

    def test_full_damping_is_fixed_point(self):
        # With beta = 1 the damped messages never leave their initialization,
        # so every layer reproduces the layer-1 estimate exactly.
        sample = _small_sample(1)
        trace = run_solver(sample, SignalPrior(sample.rho), constant_schedule(1.0), 5)
        assert trace.layers == 5
        for t in range(1, 5):
            np.testing.assert_array_equal(trace.x_means[t], trace.x_means[0])
            assert trace.nmse_db[t] == trace.nmse_db[0]
        for t in range(2, 5):
            assert trace.v2z[t] == trace.v2z[1]

    def test_purity(self):
        sample = _small_sample(2)
        prior = SignalPrior(sample.rho)
        t1 = run_solver(sample, prior, geometric_schedule(0.9), 6)
        t2 = run_solver(sample, prior, geometric_schedule(0.9), 6)
        np.testing.assert_array_equal(np.array(t1.nmse_db), np.array(t2.nmse_db))
        np.testing.assert_array_equal(t1.x_means[-1], t2.x_means[-1])

    def test_variances_stay_clamped(self):
        sample = _small_sample(3)
        trace = run_solver(sample, SignalPrior(sample.rho), constant_schedule(0.0), 12)
        for v in trace.v2z + trace.v2x:
            assert V_MIN <= v <= V_MAX

    def test_policy_error_on_nan_beta(self):
        sample = _small_sample(4)

        class BadPolicy(DampingPolicy):
            def beta(self, side, t, v_ext):
                return float("nan")

        with pytest.raises(PolicyError):
            run_solver(sample, SignalPrior(sample.rho), BadPolicy(), 3)

    def test_trace_shape_and_csv(self):
        sample = _small_sample(5)
        trace = run_solver(sample, SignalPrior(sample.rho), geometric_schedule(0.9), 4)
        assert trace.layers == 4
        for column in (trace.nmse_db, trace.beta_z, trace.beta_x, trace.v2z, trace.v2x):
            assert len(column) == 4

    def test_beta_history_features_reach_policy(self, monkeypatch):
        # Entries n+1 and n+2 of each GRU step input are the querying
        # side's own factors at t-1 and t-2 (1 before the first layer).
        sample = _small_sample(6)
        n = sample.matrix.n
        inputs = []
        gru_step = hypernets.gru_step

        def recording_step(state, s, params, tape=None):
            inputs.append(s.copy())
            return gru_step(state, s, params, tape)

        monkeypatch.setattr(hypernets, "gru_step", recording_step)
        policy = policy_for_params(init_hypergru_params(n, hidden=5, seed=6))
        trace = run_solver(sample, SignalPrior(sample.rho), policy, 3)
        assert trace.beta_z != trace.beta_x
        assert len(inputs) == 6
        for k, s in enumerate(inputs):
            t, own = k // 2 + 1, trace.beta_x if k % 2 else trace.beta_z
            history = [1.0, 1.0] + own
            assert (s[n + 1], s[n + 2]) == (history[t], history[t - 1])

    def test_sigma_tilde_feature_normalized(self):
        sample = _small_sample(7)
        seen = []

        class NormCheck(DampingPolicy):
            def reset(self, sigma_tilde, sqrt_snr, tape=False):
                assert abs(np.linalg.norm(sigma_tilde) - 1.0) < 1e-9
                seen.append(sqrt_snr)

            def beta(self, side, t, v_ext):
                return 0.5

        run_solver(sample, SignalPrior(sample.rho), NormCheck(), 2)
        assert seen == [np.sqrt(sample.matrix.snr)]

    def test_convergence_small_instance(self):
        sample = _small_sample(8, m=80, n=20)
        trace = run_solver(sample, SignalPrior(sample.rho), geometric_schedule(0.9), 25)
        assert trace.nmse_db[-1] < -10.0


class TestLayerRecursionBackward:
    """`LayerRecursion.backward` against central differences of one
    `advance` call, one input and one output at a time.

    The inputs are the phase reconstructor's posterior (post_z, var_z), the
    msg_1z and msg_2x the layer reads and the two damping histories.  The
    outputs are the denoiser mean, the msg_1z and msg_2x the layer hands on
    and the two histories.  The means are probed together by
    sum 2 Re(c_k^H mean_k), each variance alone by a_k * variance, so every
    adjoint entry is checked against the output it comes from: a variance
    near V_MAX costs its own differences their precision, not the others'.
    """

    A = (0.7, -0.4, 0.3, 0.9)   # probe weights of the four variances

    @staticmethod
    def _advance(sample, inputs, taped=False):
        post_z, var_z, m1z, v1z, m2x, v2x, hz, hvz, hx, hvx = inputs
        policy = policy_for_params(init_hypergru_params(sample.matrix.n, hidden=5,
                                                        seed=5))
        init = (GaussianMessage(m1z, v1z), GaussianMessage(m2x, v2x))
        recursion = LayerRecursion(sample, SignalPrior(sample.rho), policy, init, taped)
        recursion.side_z.hist, recursion.side_x.hist = (hz, hvz), (hx, hvx)
        den_x, _, _ = recursion.advance(1, post_z, var_z)
        sides = (recursion.side_z.hist, recursion.side_x.hist)
        means = (den_x, recursion.msg_1z.mean, recursion.msg_2x.mean,
                 sides[0][0], sides[1][0])
        variances = (recursion.msg_1z.variance, recursion.msg_2x.variance,
                     sides[0][1], sides[1][1])
        return recursion, means, variances

    def _adjoint(self, sample, inputs, c, a):
        recursion, _, _ = self._advance(sample, inputs, taped=True)
        fallback = recursion.tapes[0]["ez"]["fallback"]
        recursion.side_z.g_hist = (c[3], a[2])
        recursion.side_x.g_hist = (c[4], a[3])
        g_post, g_var, g_1z, g_2x = recursion.backward(1, c[0], (c[1], a[0]),
                                                       (c[2], a[1]))
        grads = (g_post, g_var, *g_1z, *g_2x, *recursion.side_z.g_hist,
                 *recursion.side_x.g_hist)
        return grads, fallback

    def _check(self, cls, var_z_scale=1.0, hist_x_var=0.6, want_fallback=False):
        manifest = model.DatasetManifest(seed=17, count=1, m=16, n=8,
                                         matrix_class=(cls,),
                                         snr_db_range=(20.0, 20.0),
                                         rho_range=(0.5, 0.5))
        sample = model.sample_at(manifest, 0)
        msg_z, msg_x = spectral_init(sample.y, sample.matrix)
        post_z, var_z = magnitude_posterior(msg_z, sample.y)
        rng = np.random.default_rng(23)
        inputs = [post_z, var_z * var_z_scale, msg_z.mean, msg_z.variance,
                  msg_x.mean, msg_x.variance,
                  0.8 * msg_z.mean + 0.1 * model.complex_normal(rng, 16),
                  1.5 * msg_z.variance,
                  0.9 * msg_x.mean + 0.1 * model.complex_normal(rng, 8), hist_x_var]
        c = [model.complex_normal(rng, size) for size in (8, 16, 8, 16, 8)]
        zero_c = [np.zeros_like(ck) for ck in c]

        def probe(args):
            _, means, variances = self._advance(sample, args)
            mean_part = sum(2.0 * float(np.real(np.vdot(ck, mk)))
                            for ck, mk in zip(c, means))
            return np.array([mean_part, *variances])

        # Output 0 is every mean; output k >= 1 is variance k alone.
        adjoints = []
        for k in range(5):
            a = [self.A[j] if j == k - 1 else 0.0 for j in range(4)]
            grads, fallback = self._adjoint(sample, inputs, c if k == 0 else zero_c, a)
            assert fallback == want_fallback
            adjoints.append(grads)
        base = np.abs(probe(inputs))
        weights = np.array([1.0, *self.A])
        for j, value in enumerate(inputs):
            if isinstance(value, np.ndarray):
                direction = model.complex_normal(rng, value.shape[0])
                h = 1e-6 * float(np.max(np.abs(value)))
            else:
                direction, h = 1.0, 1e-6 * value
            plus, minus = list(inputs), list(inputs)
            plus[j] = value + h * direction
            minus[j] = value - h * direction
            fd = weights * (probe(plus) - probe(minus)) / (2.0 * h)
            for k in range(5):
                grad = adjoints[k][j]
                got = (2.0 * float(np.real(np.vdot(grad, direction)))
                       if isinstance(value, np.ndarray) else float(grad))
                # Rounding of an output of size |f| costs its difference
                # about eps |f| / h.
                noise = 1e-15 * weights[k] * base[k] / h
                assert got == pytest.approx(fd[k], rel=1e-6,
                                            abs=1e-9 * (1.0 + abs(fd[k])) + noise), (j, k)
        return base[1:]   # the handed-on variances, as probed

    @pytest.mark.parametrize("cls", ["gaussian", "geometric", "binary"])
    def test_matches_central_differences(self, cls):
        self._check(cls)

    def test_extrinsic_fallback(self):
        # A reconstructor posterior wider than its prior gains no information:
        # the z-side extrinsic falls back to a V_MAX message.
        self._check("gaussian", var_z_scale=1e3, want_fallback=True)

    def test_damped_variance_on_the_rail(self):
        # A history variance of 1e12 damps the x message past V_MAX, so the
        # clamped copy handed on passes no gradient back to it.
        variances = self._check("gaussian", hist_x_var=1e12)
        assert variances[1] == V_MAX
