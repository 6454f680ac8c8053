"""Generation-layer tests: priors, matrices, measurements, manifests."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gecsr import model
from gecsr.model import (
    DatasetManifest,
    ManifestError,
    SignalPrior,
    TransformMatrix,
    binary_matrix,
    dense_gaussian_matrix,
    economy_factors,
    forward_measure,
    gaussian_class_singulars,
    gaussian_matrix,
    geometric_matrix,
    geometric_singulars,
    sample_at,
    sample_haar_isometry,
    sample_signal,
    scale_to_snr,
)


class TestComplexNormal:
    def test_bit_identical_to_separate_draws(self):
        # Filled ROW_BLOCK rows at a time, the array equals the two-draw
        # expression bit for bit, and the generator ends where the two whole
        # draws leave it; the shapes straddle the row block.
        for shape in ((), (0,), (4, 0), (1,), (5,), (7,), (40, 10), (63, 3), (64, 3),
                      (65, 3), (400, 100)):
            rng, blocked = np.random.default_rng(2), np.random.default_rng(2)
            re = rng.standard_normal(shape)
            im = rng.standard_normal(shape)
            old = (re + 1j * im) * np.sqrt(0.5)
            new = model.complex_normal(blocked, *shape)
            assert new.dtype == complex and new.flags.c_contiguous
            assert new.tobytes() == old.tobytes()
            assert blocked.bit_generator.state == rng.bit_generator.state


class TestSignalPrior:
    def test_rejects_zero_and_negative_rho(self):
        for bad in (0.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                SignalPrior(bad)

    def test_slab_variance(self):
        assert SignalPrior(0.25).slab_variance == 4.0

    def test_dense_prior_second_moment(self):
        # rho = 1: every component Gaussian with E|x|^2 = 1 (3-sigma band).
        rng = np.random.default_rng(11)
        x = sample_signal(SignalPrior(1.0), 10_000, rng)
        assert 0.97 <= np.mean(np.abs(x) ** 2) <= 1.03
        assert np.all(x != 0)

    def test_sparse_prior_support_fraction(self):
        rng = np.random.default_rng(12)
        x = sample_signal(SignalPrior(0.5), 10_000, rng)
        assert 0.485 <= np.mean(x != 0) <= 0.515

    def test_single_draw_dense_never_zero(self):
        rng = np.random.default_rng(13)
        x = sample_signal(SignalPrior(1.0), 1, rng)
        assert x.shape == (1,) and x[0] != 0

    def test_unit_second_moment_any_rho(self):
        rng = np.random.default_rng(14)
        for rho in (0.3, 0.6, 0.9):
            x = sample_signal(SignalPrior(rho), 40_000, rng)
            assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 0.03

    def test_bad_length(self):
        with pytest.raises(ValueError):
            sample_signal(SignalPrior(0.5), 0, np.random.default_rng(0))


class TestHaarUnitary:
    def test_scalar_case_unit_modulus(self):
        q = sample_haar_isometry(1, 1, np.random.default_rng(0))
        assert abs(abs(q[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        q = sample_haar_isometry(8, 8, np.random.default_rng(1))
        np.testing.assert_allclose(q.conj().T @ q, np.eye(8), atol=1e-9)

    def test_first_entry_moment(self):
        # |Q_11|^2 ~ Beta(1, k-1) under Haar, so E = 1/k; check a 3-sigma band.
        k, draws = 64, 200
        rng = np.random.default_rng(2)
        vals = [abs(sample_haar_isometry(k, k, rng)[0, 0]) ** 2 for _ in range(draws)]
        var = (k - 1.0) / (k**2 * (k + 1.0))
        tol = 3.0 * np.sqrt(var / draws)
        assert abs(np.mean(vals) - 1.0 / k) < tol

    def test_entry_moment_grid(self):
        # Under Haar every entry has E[Q_ij] = 0 and E|Q_ij|^2 = 1/k, checked
        # entry by entry.  An unfolded QR breaks the first: its diagonal
        # leans negative.  Over k^2 = 256 entries, 3-sigma bands would
        # expect 0.7 false failures per grid, so they are 4.5-sigma
        # (two-sided p = 6.8e-6 each, 5.2e-3 over all 768 bands).
        k, draws = 16, 500
        rng = np.random.default_rng(3)
        acc = np.zeros((k, k), dtype=complex)
        acc_sq = np.zeros((k, k))
        for _ in range(draws):
            q = sample_haar_isometry(k, k, rng)
            acc += q
            acc_sq += np.abs(q) ** 2
        var = (k - 1.0) / (k**2 * (k + 1.0))
        assert np.all(np.abs(acc_sq / draws - 1.0 / k) < 4.5 * np.sqrt(var / draws))
        # Real and imaginary parts each have variance 1 / (2k).
        tol = 4.5 * np.sqrt(0.5 / k / draws)
        mean = acc / draws
        assert np.all(np.abs(mean.real) < tol) and np.all(np.abs(mean.imag) < tol)


class TestHaarIsometry:
    @staticmethod
    def _full_qr_columns(m, n, rng):
        # Reference: QR of the whole m x m draw, phases folded, sliced to n.
        q, r = np.linalg.qr(model.complex_normal(rng, m, m))
        d = np.diagonal(r)
        return (q * (d / np.abs(d)))[:, :n]

    def test_matches_full_qr_columns(self):
        for m, n, seed in ((400, 100, 0), (37, 5, 1), (9, 9, 2), (6, 1, 3)):
            got = sample_haar_isometry(m, n, np.random.default_rng(seed))
            want = self._full_qr_columns(m, n, np.random.default_rng(seed))
            assert got.shape == (m, n)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_leaves_generator_where_full_draw_does(self):
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        sample_haar_isometry(50, 7, rng_a)
        self._full_qr_columns(50, 7, rng_b)
        np.testing.assert_array_equal(rng_a.standard_normal(5), rng_b.standard_normal(5))

    def test_orthonormal_columns(self):
        u = sample_haar_isometry(40, 12, np.random.default_rng(5))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(12), atol=1e-12)

    def test_rejects_bad_width(self):
        rng = np.random.default_rng(6)
        for m, n in ((4, 5), (4, 0), (4, -1)):
            with pytest.raises(ValueError):
                sample_haar_isometry(m, n, rng)

    def test_tall_entry_moments(self):
        # |Q_ij|^2 ~ Beta(1, m-1) under Haar, so E = 1/m; a fixed row is used
        # because every column's squares sum to one.  The folded phases make
        # E[Q_jj] = 0, which an unfolded QR misses (its diagonal leans
        # negative).  3-sigma bands; the row entries correlate negatively,
        # so the independent-draw band is conservative.
        m, n, draws = 32, 4, 300
        rng = np.random.default_rng(7)
        row = np.zeros(n)
        diag = np.zeros(n, dtype=complex)
        for _ in range(draws):
            q = sample_haar_isometry(m, n, rng)
            row += np.abs(q[0]) ** 2
            diag += np.diagonal(q)
        var = (m - 1.0) / (m**2 * (m + 1.0))
        assert abs(row.mean() / draws - 1.0 / m) < 3.0 * np.sqrt(var / (draws * n))
        tol = 3.0 * np.sqrt(0.5 / m / (draws * n))
        mean_diag = diag.mean() / draws
        assert abs(mean_diag.real) < tol and abs(mean_diag.imag) < tol


class TestHaarTransform:
    """gaussian_matrix and geometric_matrix against (U s) V^H, with U and V
    from sample_haar_isometry on a replay of the same stream."""

    SHAPES = ((400, 100), (37, 5), (8, 4), (120, 100), (101, 100), (100, 100))

    @staticmethod
    def _draw(cls, m, n, rng):
        if cls == "gaussian":
            return gaussian_matrix(m, n, 50.0, rng)
        return geometric_matrix(m, n, 50.0, 0.9, rng)

    @staticmethod
    def _replay(cls, m, n, rng):
        u = sample_haar_isometry(m, n, rng)
        v = sample_haar_isometry(n, n, rng)
        s = (gaussian_class_singulars(m, n, rng) if cls == "gaussian"
             else geometric_singulars(n, 0.9))
        return (u * scale_to_snr(s, m, 50.0)) @ v.conj().T

    @pytest.mark.parametrize("cls", ["gaussian", "geometric"])
    def test_operator_matches_householder_route(self, cls):
        bounds = []
        for (m, n) in self.SHAPES:
            for seed in (0, 1):
                rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
                got = self._draw(cls, m, n, rng).operator
                want = self._replay(cls, m, n, replay)
                scale = np.max(np.abs(want))
                np.testing.assert_allclose(got / scale, want / scale, rtol=0, atol=1e-12,
                                           err_msg=f"{cls} {(m, n)} seed {seed}")
                np.testing.assert_array_equal(rng.standard_normal(4),
                                              replay.standard_normal(4))
                z = model._haar_columns(m, n, np.random.default_rng(seed))
                bounds.append(model._cholesky_inverse(z)[1])
        # Both routes are exercised: the Cholesky one at every (400, 100)
        # draw, Householder QR at least once ((101, 100) at seed 0).
        assert min(bounds) <= model.GRAM_CONDITION_CAP < max(bounds)

    def test_singular_draw_keeps_householder_route(self):
        # A repeated column makes the Gram matrix singular: Cholesky fails or
        # the bound is past the cap, and Householder QR still factors it.
        z = model.complex_normal(np.random.default_rng(3), 12, 4)
        z[:, 3] = z[:, 2]
        assert model._cholesky_inverse(z)[1] > model.GRAM_CONDITION_CAP
        v = sample_haar_isometry(4, 4, np.random.default_rng(4))
        s = np.array([4.0, 3.0, 2.0, 1.0])
        mat = model._haar_transform(z, v, s)
        np.testing.assert_allclose(mat.operator, (model._folded_qr(z) * s) @ v.conj().T,
                                   rtol=0, atol=1e-14)


class TestSpectra:
    def test_gaussian_class_trivial(self):
        s = gaussian_class_singulars(1, 1, np.random.default_rng(4))
        assert s.shape == (1,) and s[0] >= 0

    def test_gaussian_class_energy(self):
        s = gaussian_class_singulars(400, 100, np.random.default_rng(5))
        assert 0.95 <= np.sum(s**2) / (400 * 100) <= 1.05

    def test_gaussian_class_sorted(self):
        s = gaussian_class_singulars(30, 10, np.random.default_rng(6))
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_geometric_flat(self):
        np.testing.assert_allclose(geometric_singulars(5, 1.0), np.ones(5))

    def test_geometric_ratios(self):
        s = geometric_singulars(3, 0.5)
        np.testing.assert_allclose(s[1:] / s[:-1], [0.5, 0.5])

    def test_geometric_closed_form(self):
        s = geometric_singulars(100, 0.97)
        np.testing.assert_allclose(s[99] / s[0], 0.97**99, rtol=1e-12)

    def test_geometric_rejects_bad_gamma(self):
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                geometric_singulars(4, bad)

    def test_scale_noop_when_satisfied(self):
        np.testing.assert_allclose(scale_to_snr(np.array([1.0, 1.0]), 2, 1.0),
                                   [1.0, 1.0])

    def test_scale_factor(self):
        s = scale_to_snr(np.array([3.0, 4.0]), 4, 100.0)
        np.testing.assert_allclose(np.sum(s**2), 400.0, rtol=1e-12)
        np.testing.assert_allclose(s, [12.0, 16.0])

    def test_scale_exact_contract(self):
        rng = np.random.default_rng(7)
        s = scale_to_snr(rng.random(50), 20, 31.4)
        np.testing.assert_allclose(np.sum(s**2) / 20, 31.4, rtol=1e-12)

    def test_scale_rejects_zero_spectrum(self):
        with pytest.raises(ValueError):
            scale_to_snr(np.zeros(3), 2, 1.0)


class TestTransformMatrix:
    def test_snr_contract(self):
        rng = np.random.default_rng(8)
        mat = gaussian_matrix(40, 10, 100.0, rng)
        assert abs(mat.snr / 100.0 - 1.0) < 1e-9

    def test_factors_unitary(self):
        # Every class: the implied left factor U = A V / s is an isometry,
        # V is unitary, and the projection and the mode product are
        # S U^H z and U S w on the dense operator.
        rng = np.random.default_rng(9)
        mats = {"gaussian": gaussian_matrix(40, 10, 10.0, rng),
                "geometric": geometric_matrix(40, 10, 10.0, 0.9, rng),
                "binary": binary_matrix(40, 10, 10.0, rng),
                "dense_gaussian": dense_gaussian_matrix(40, 10, 10.0, rng)}
        for cls, mat in mats.items():
            a, v, s = mat.operator, mat.right_unitary, mat.singulars
            assert a.shape == (40, 10) and v.shape == (10, 10), cls
            u = a @ v / s
            np.testing.assert_allclose(u.conj().T @ u, np.eye(10), rtol=0, atol=1e-12,
                                       err_msg=cls)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(10), rtol=0, atol=1e-12,
                                       err_msg=cls)
            z = model.complex_normal(rng, 40)
            w = model.complex_normal(rng, 10)
            scale = s[0] * np.linalg.norm(z)
            np.testing.assert_allclose(mat.project(z) / scale,
                                       s * (u.conj().T @ z) / scale,
                                       rtol=0, atol=1e-12, err_msg=cls)
            np.testing.assert_allclose(mat.project(z) / scale,
                                       v.conj().T @ (a.conj().T @ z) / scale,
                                       rtol=0, atol=1e-12, err_msg=cls)
            scale = s[0] * np.linalg.norm(w)
            np.testing.assert_allclose(mat.apply_modes(w) / scale, u @ (s * w) / scale,
                                       rtol=0, atol=1e-12, err_msg=cls)

    def test_adjoint_matches_dense(self):
        # The operator is U diag(s) V^H of the Haar factors drawn first from
        # the same stream.
        mat = gaussian_matrix(15, 7, 5.0, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        u = sample_haar_isometry(15, 7, rng)
        v = sample_haar_isometry(7, 7, rng)
        z = model.complex_normal(rng, 15)
        np.testing.assert_allclose(mat.adjoint(z),
                                   v @ (mat.singulars * (u.conj().T @ z)), atol=1e-10)

    def test_apply_matches_dense(self):
        mat = geometric_matrix(15, 7, 5.0, 0.8, np.random.default_rng(10))
        rng = np.random.default_rng(10)
        u = sample_haar_isometry(15, 7, rng)
        v = sample_haar_isometry(7, 7, rng)
        x = model.complex_normal(rng, 7)
        np.testing.assert_allclose(mat.apply(x),
                                   u @ (mat.singulars * (v.conj().T @ x)), atol=1e-10)

    def test_rejects_unsorted_spectrum(self):
        with pytest.raises(ValueError):
            TransformMatrix(np.eye(2, dtype=complex), np.eye(2, dtype=complex),
                            np.array([1.0, 2.0]))

    def test_rejects_factors_that_do_not_match_the_spectrum(self):
        # The operator needs exactly one column per singular value, and the
        # right factor one row and column per singular value.
        s = np.array([2.0, 1.0])
        with pytest.raises(ValueError):
            TransformMatrix(np.eye(3, dtype=complex), np.eye(2, dtype=complex), s)
        with pytest.raises(ValueError):
            TransformMatrix(np.eye(3, dtype=complex)[:, :1], np.eye(2, dtype=complex), s)
        with pytest.raises(ValueError):
            TransformMatrix(np.eye(3, dtype=complex)[:, :2], np.eye(3, dtype=complex), s)

    def test_factors_stored_contiguous(self):
        rng = np.random.default_rng(12)
        a = sample_haar_isometry(6, 6, rng)[:, :3]
        v = sample_haar_isometry(3, 3, rng).T
        mat = TransformMatrix(a, v, np.array([3.0, 2.0, 1.0]))
        assert mat.operator.flags.c_contiguous
        assert mat.right_unitary.flags.c_contiguous


class TestEconomyFactors:
    @staticmethod
    def _check_factors(a, s, v, u):
        k = a.shape[1]
        assert u.shape == a.shape and s.shape == (k,) and v.shape == (k, k)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(k), rtol=0, atol=1e-12)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(k), rtol=0, atol=1e-12)
        scale = np.abs(a).max()
        np.testing.assert_allclose((u * s) @ v.conj().T / scale, a / scale,
                                   rtol=0, atol=1e-12)

    def test_well_conditioned_matches_svd(self):
        a = model.complex_normal(np.random.default_rng(30), 60, 15)
        s, v = economy_factors(a)
        u = a @ v / s
        self._check_factors(a, s, v, u)
        u_ref, s_ref, vh_ref = np.linalg.svd(a, full_matrices=False)
        np.testing.assert_allclose(s, s_ref, rtol=1e-12, atol=0)
        # Singular vectors are unique up to one unit phase per pair.
        phase = np.sum(vh_ref * v.T, axis=1)
        np.testing.assert_allclose(np.abs(phase), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v, vh_ref.conj().T * phase, rtol=0, atol=1e-12)
        np.testing.assert_allclose(u, u_ref * phase, rtol=0, atol=1e-12)

    def test_large_draw_eigensolver_accuracy(self):
        # At N = 256 the MRRR eigenvectors' loss of orthogonality, which
        # grows like N eps, is visible (about 1e-13) where at N = 15 it is
        # not; 100 N eps bounds that scale.
        m, n = 1024, 256
        a = model.complex_normal(np.random.default_rng(34), m, n)
        s, v = economy_factors(a)
        assert s.shape == (n,) and v.shape == (n, n)
        np.testing.assert_allclose(s, np.linalg.svd(a, compute_uv=False),
                                   rtol=1e-12, atol=0)
        gram = a.conj().T @ a
        np.testing.assert_allclose((v * s ** 2) @ v.conj().T, gram, rtol=0,
                                   atol=1e-13 * np.abs(gram).max())
        assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 100 * n * np.finfo(float).eps

    def test_gram_matches_complex_product(self):
        # The real symmetric product gives a^H a exactly Hermitian and
        # within rounding of the complex product.
        a = model.complex_normal(np.random.default_rng(33), 80, 20)
        gram = model._gram(a)
        ref = a.conj().T @ a
        np.testing.assert_allclose(gram, ref, rtol=0, atol=1e-14 * np.abs(ref).max())
        np.testing.assert_array_equal(gram, gram.conj().T)

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (3, 3), (63, 63), (64, 64), (65, 65),
                                      (400, 100), (129, 129), (300, 129), (257, 257),
                                      (600, 257)])
    @pytest.mark.parametrize("draw", ["gaussian", "binary"])
    def test_gram_fold_is_bit_identical(self, m, n, draw):
        # Folded in place over the product's first half, the Gram matrix is
        # bit for bit the fold of the whole product into a new array.
        rng = np.random.default_rng(m + n)
        if draw == "gaussian":
            a = model.complex_normal(rng, m, n)
        else:
            a = np.where(rng.random((m, n)) < 0.5, 1.7, 0.0).astype(complex)
        b = a.view(float).reshape(m, 2 * n)
        r = (b.T @ b).reshape(n, 2, n, 2)
        gram = model._gram(a)
        assert gram.shape == (n, n) and gram.flags.f_contiguous
        assert gram.real.tobytes() == (r[:, 0, :, 0] + r[:, 1, :, 1]).tobytes()
        assert gram.imag.tobytes() == (r[:, 0, :, 1] - r[:, 1, :, 0]).tobytes()
        np.testing.assert_array_equal(gram, gram.conj().T)

    def test_gram_under_a_debugger(self):
        # A debugger that reads each frame's locals holds a second reference
        # to the product while _gram releases its second half.
        def trace(frame, event, arg):
            frame.f_locals
            return trace

        a = model.complex_normal(np.random.default_rng(38), 40, 10)
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            gram = model._gram(a)
        finally:
            sys.settrace(previous)
        assert gram.tobytes() == model._gram(a).tobytes()

    def test_rank_deficient(self):
        # Repeated columns: the Gram matrix is singular, so the SVD is used.
        a = model.complex_normal(np.random.default_rng(31), 40, 6)
        a[:, 4] = a[:, 0]
        a[:, 5] = a[:, 1]
        s, v = economy_factors(a)
        # The left factor is not returned; the SVD's own gives the check.
        self._check_factors(a, s, v, np.linalg.svd(a, full_matrices=False)[0])
        np.testing.assert_allclose(s, np.linalg.svd(a, compute_uv=False),
                                   rtol=0, atol=1e-12)
        assert s[-1] < 1e-12 * s[0] and s[-3] > 1e-3 * s[0]

    def test_ill_conditioned(self):
        # kappa = 1e6, past GRAM_CONDITION_CAP: squaring it would lose the
        # small singular values, so the SVD is used.
        rng = np.random.default_rng(32)
        s_true = np.logspace(0.0, -6.0, 8)
        a = ((sample_haar_isometry(50, 8, rng) * s_true)
             @ sample_haar_isometry(8, 8, rng).conj().T)
        s, v = economy_factors(a)
        self._check_factors(a, s, v, np.linalg.svd(a, full_matrices=False)[0])
        np.testing.assert_allclose(s, s_true, rtol=1e-9, atol=0)


def _scipy_eigh_one_thread(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy.linalg.eigh(driver="evr") with scipy's own OpenBLAS on one thread."""
    import ctypes

    from scipy.linalg import cython_lapack, eigh

    blas = ctypes.CDLL(cython_lapack.__file__)
    if not hasattr(blas, "scipy_openblas_set_num_threads"):
        pytest.skip("scipy is not linked to its bundled OpenBLAS")
    threads = blas.scipy_openblas_get_num_threads()
    blas.scipy_openblas_set_num_threads(1)
    try:
        return eigh(gram, driver="evr")
    finally:
        blas.scipy_openblas_set_num_threads(threads)


_NEEDS_BUNDLED = pytest.mark.skipif(model._bundled_lapack() is None,
                                    reason="numpy is not linked to its bundled OpenBLAS")


class TestBundledEigensolve:
    """The Gram eigensolve calls the zheevr of the OpenBLAS numpy links."""

    @_NEEDS_BUNDLED
    @pytest.mark.parametrize("draw", ["dense", "binary"])
    def test_matches_scipy_evr_driver(self, draw):
        # The same LAPACK driver with the same arguments, on one thread each:
        # scipy's OpenBLAS 0.3.30 and numpy's 0.3.31 gave identical bits.
        rng = np.random.default_rng(35)
        if draw == "dense":
            a = model.complex_normal(rng, 512, 256)
        else:
            a = (rng.random((400, 100)) < 0.5).astype(complex)
        w_ref, v_ref = _scipy_eigh_one_thread(model._gram(a))
        w, v = model._gram_eigh(a)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)

    def test_fallback_without_bundled_symbols(self, monkeypatch):
        # A numpy built on another BLAS exports no scipy_LAPACKE_zheevr64_;
        # economy_factors then runs np.linalg.eigh.
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(model, "CDLL", lambda path: object())
        monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h) or eigh(h))
        model._bundled_lapack.cache_clear()
        try:
            assert model._bundled_lapack() is None
            a = model.complex_normal(np.random.default_rng(36), 300, 120)
            s, v = economy_factors(a)
        finally:
            model._bundled_lapack.cache_clear()
        assert len(calls) == 1
        # U from the SVD of A, each column turned to the phase of A v_i.
        u, av = np.linalg.svd(a, full_matrices=False)[0], a @ v
        phase = np.sum(u.conj() * av, axis=0)
        u = u * (phase / np.abs(phase))
        assert np.linalg.norm(av - u * s) / np.linalg.norm(a) < 1e-10
        assert np.linalg.norm(v.conj().T @ v - np.eye(120)) < 1e-10

    @_NEEDS_BUNDLED
    def test_nan_raises(self):
        # A NaN entry of A puts NaN in a row and column of the Gram matrix,
        # which LAPACKE's NaN check refuses with info -6.
        a = model.complex_normal(np.random.default_rng(37), 40, 10)
        a[3, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="info -6"):
            model._gram_eigh(a)


class TestDenseGaussianMatrix:
    def test_operator_scaled_to_snr(self):
        rng = np.random.default_rng(23)
        mat = dense_gaussian_matrix(60, 15, 20.0, rng)
        assert abs(mat.snr / 20.0 - 1.0) < 1e-12
        energy = np.linalg.norm(mat.operator) ** 2
        np.testing.assert_allclose(energy / 60, 20.0, rtol=1e-12)

    def test_peak_memory_bounded_by_the_draw(self):
        # Besides the M x N draw the working set is two N x N complex arrays:
        # the real Gram product, then the Gram matrix and V.  The slack is two
        # real ROW_BLOCK-row temporaries, of the draw or of the fold.  A real
        # M x N part, a separate Gram array or a second complex M x N array
        # (a conjugate copy, a left factor) breaks the bound.
        for m, n in ((2048, 512), (2048, 256)):
            slack = 2 * 8 * model.ROW_BLOCK * n
            tracemalloc.start()
            try:
                mat = dense_gaussian_matrix(m, n, 10.0, np.random.default_rng(24))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert mat.operator.shape == (m, n)
            assert peak <= 16 * m * n + 2 * 16 * n * n + slack, (m, n)


class TestBinaryMatrix:
    def test_all_ones_scale(self):
        # If every entry lands on c, 4 c^2 / 2 = snr=2 forces c = 1.  Draw
        # until a dense 2x2 all-ones mask appears (p = 1/16 per draw).
        rng = np.random.default_rng(0)
        # Entries are 0 or c >= 1, so |entry| > 0.5 tells them apart.
        for _ in range(1000):
            dense = binary_matrix(2, 2, 2.0, rng).operator
            if np.all(np.abs(dense) > 0.5):
                break
        else:
            pytest.fail("never drew an all-ones mask")
        np.testing.assert_allclose(dense, np.ones((2, 2)), atol=1e-12)

    def test_svd_reconstruction(self):
        # The operator is the drawn {0, c} matrix, and the factors rebuild
        # it; the mask is the first draw of the same stream.
        mat = binary_matrix(9, 5, 3.0, np.random.default_rng(21))
        mask = np.random.default_rng(21).random((9, 5)) < 0.5
        assert mask.any()
        c = np.sqrt(9 * 3.0 / mask.sum())
        np.testing.assert_array_equal(mat.operator, np.where(mask, c, 0.0))
        u = mat.operator @ mat.right_unitary / mat.singulars
        np.testing.assert_allclose((u * mat.singulars) @ mat.right_unitary.conj().T,
                                   np.where(mask, c, 0.0), atol=1e-8)

    def test_snr_contract_large(self):
        rng = np.random.default_rng(22)
        mat = binary_matrix(400, 100, 1e5, rng)
        assert abs(mat.snr / 1e5 - 1.0) < 1e-6


_DUMP_BINARY_FACTORS = """
import sys
import numpy as np
from gecsr.model import DatasetManifest, sample_at
manifest = DatasetManifest(seed=11, count=12, m=400, n=100, matrix_class=("binary",),
                           snr_db_range=(15.0, 30.0))
mats = [sample_at(manifest, i).matrix for i in range(manifest.count)]
np.savez(sys.argv[1], a=[t.operator for t in mats], v=[t.right_unitary for t in mats],
         s=[t.singulars for t in mats])
"""


_DUMP_DENSE_FACTORS = """
import sys
import numpy as np
from gecsr.model import dense_gaussian_matrix
mat = dense_gaussian_matrix(512, 256, 100.0, np.random.default_rng(12))
np.savez(sys.argv[1], a=mat.operator, v=mat.right_unitary, s=mat.singulars)
"""


_DUMP_HAAR_OPERATORS = """
import sys
import numpy as np
from gecsr.model import gaussian_matrix, geometric_matrix
rng = np.random.default_rng(14)
np.savez(sys.argv[1], gaussian=gaussian_matrix(400, 100, 100.0, rng).operator,
         geometric=geometric_matrix(400, 100, 100.0, 0.97, rng).operator)
"""


def _dumps_under_thread_counts(script: str, tmp_path) -> list[dict]:
    """The arrays a script saves, run under one and then two OpenBLAS threads."""
    src = os.path.dirname(os.path.dirname(model.__file__))
    dumps = []
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        path = tmp_path / f"threads{threads}.npz"
        subprocess.run([sys.executable, "-c", script, str(path)],
                       env=env, check=True, timeout=300)
        with np.load(path) as dump:
            dumps.append({key: dump[key] for key in dump.files})
    return dumps


class TestBlasThreadCount:
    def test_binary_factors_match_across_thread_counts(self, tmp_path):
        # A {0, c} draw has a real Gram matrix, whose product and N x N
        # eigensolve came out identical under one and two OpenBLAS 0.3.31
        # threads; the factors of LAPACK's M x N SVD move by up to about
        # 1e-12.  The operator is the draw itself.
        dumps = _dumps_under_thread_counts(_DUMP_BINARY_FACTORS, tmp_path)
        for key in ("a", "v", "s"):
            np.testing.assert_allclose(dumps[0][key], dumps[1][key], rtol=0, atol=1e-14)

    def test_dense_factors_match_across_thread_counts(self, tmp_path):
        # zheevr left to two threads returns other eigenvector phases for
        # this complex Gram matrix (V moved by 1.7); on its one thread the
        # factors are identical.
        dumps = _dumps_under_thread_counts(_DUMP_DENSE_FACTORS, tmp_path)
        for key in ("a", "v", "s"):
            np.testing.assert_allclose(dumps[0][key], dumps[1][key], rtol=1e-14,
                                       atol=1e-14)

    def test_haar_operators_close_across_thread_counts(self, tmp_path):
        # Neither QR route is bit-identical under one and two OpenBLAS 0.3.31
        # threads.  Over 16 draws each at (400, 100) and SNR 100 (entries up
        # to 3.8), A moved by up to 1.8e-14 on the Householder route and
        # 2.0e-14 on the Cholesky one.
        dumps = _dumps_under_thread_counts(_DUMP_HAAR_OPERATORS, tmp_path)
        for key in ("gaussian", "geometric"):
            np.testing.assert_allclose(dumps[0][key], dumps[1][key], rtol=0, atol=1e-13,
                                       err_msg=key)


class TestForwardMeasure:
    def test_zero_signal_noiseless(self):
        rng = np.random.default_rng(30)
        mat = gaussian_matrix(10, 4, 2.0, rng)
        np.testing.assert_allclose(np.abs(mat.apply(np.zeros(4, complex))), 0.0)

    def test_identity_modulus(self):
        mat = TransformMatrix(np.eye(1, dtype=complex), np.eye(1, dtype=complex),
                              np.array([1.0]))
        np.testing.assert_allclose(np.abs(mat.apply(np.array([3 + 4j]))), [5.0])

    def test_noise_second_moment(self):
        # Rows with (Ax)_m = 0 see pure noise: E[y^2] = 1 within 3 sigma.
        m = 10_000
        mat = TransformMatrix(np.zeros((m, 1), dtype=complex),
                              np.eye(1, dtype=complex), np.array([0.0]))
        y = forward_measure(mat, np.zeros(1, complex), np.random.default_rng(31))
        assert abs(np.mean(y**2) - 1.0) < 3.0 * np.sqrt(1.0 / m)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(32)
        mat = gaussian_matrix(6, 3, 2.0, rng)
        with pytest.raises(ValueError):
            forward_measure(mat, np.zeros(5, complex), rng)


def _from_json(text: str) -> DatasetManifest:
    """A manifest read from JSON text as load_manifest reads a file's object."""
    return model.record_from_object(DatasetManifest, json.loads(text), "manifest")


def _dataset_digest(manifest: DatasetManifest) -> str:
    h = hashlib.sha256()
    for index in range(manifest.count):
        sample = sample_at(manifest, index)
        h.update(sample.x.tobytes())
        h.update(sample.y.tobytes())
        h.update(sample.matrix.singulars.tobytes())
    return h.hexdigest()


class TestManifest:
    def _small(self, **kw) -> DatasetManifest:
        base = dict(seed=77, count=6, m=16, n=4,
                    matrix_class=("gaussian", "geometric"), gammas=(1.0, 0.97),
                    snr_db_range=(15.0, 25.0), rho_range=(0.3, 0.8))
        base.update(kw)
        return DatasetManifest(**base)

    def test_empty_stream(self):
        # An empty manifest holds no sample to access; nor does any index
        # past the count.
        with pytest.raises(IndexError):
            sample_at(self._small(count=0), 0)
        with pytest.raises(IndexError):
            sample_at(self._small(), 6)

    def test_regeneration_bit_identical(self):
        m = self._small()
        assert _dataset_digest(m) == _dataset_digest(m)

    def test_sample_invariants(self):
        m = self._small()
        for i in range(m.count):
            sample = sample_at(m, i)
            assert np.all(sample.y >= 0)
            assert sample.y.shape == (16,) and sample.x.shape == (4,)
            assert abs(sample.matrix.snr / sample.snr - 1.0) < 1e-9
            assert 0.3 <= sample.prior.rho <= 0.8

    def test_class_cycling_equal_counts(self):
        m = self._small(count=8)
        classes = [model.scenario_at(m, i)[0] for i in range(8)]
        assert classes.count("gaussian") == classes.count("geometric") == 4
        gammas = [model.scenario_at(m, i)[1] for i in range(8)
                  if model.scenario_at(m, i)[0] == "geometric"]
        assert gammas.count(1.0) == gammas.count(0.97) == 2

    def test_snr_sampled_uniform_in_db(self):
        m = self._small(count=400, m=4, n=2, matrix_class=("geometric",))
        snr_db = [10 * np.log10(sample_at(m, i).snr) for i in range(400)]
        assert 15.0 <= min(snr_db) and max(snr_db) <= 25.0
        assert abs(np.mean(snr_db) - 20.0) < 0.5

    def test_rejects_inverted_ranges(self):
        with pytest.raises(ManifestError):
            self._small(snr_db_range=(25.0, 15.0))
        with pytest.raises(ManifestError):
            self._small(rho_range=(0.8, 0.3))
        with pytest.raises(ManifestError, match="rho_range"):
            self._small(rho_range=(0.3, 0.5, 0.8))

    @pytest.mark.parametrize("snr_db_range", [(float("nan"), float("nan")), (1e9, 1e9),
                                              (20.0, float("inf")), (-300.5, 20.0)])
    def test_rejects_non_finite_or_overflowing_snr(self, snr_db_range):
        # 10^(dB/10) must stay a positive, finite float.
        with pytest.raises(ManifestError, match="snr_db_range"):
            self._small(snr_db_range=snr_db_range)

    def test_accepts_snr_at_the_limits(self):
        limits = (-300.0, 300.0)
        assert self._small(snr_db_range=limits).snr_db_range == limits

    def test_rejects_unknown_class(self):
        with pytest.raises(ManifestError):
            self._small(matrix_class=("fourier",))

    def test_rejects_negative_seed(self):
        # numpy would refuse it at the first draw, naming no field.
        with pytest.raises(ManifestError, match="seed must be >= 0, got -1"):
            self._small(seed=-1)
        assert self._small(seed=0).seed == 0

    def test_json_round_trip(self):
        m = self._small()
        again = _from_json(m.to_json())
        assert again == m
        assert again.hash() == m.hash()

    def test_json_bytes_pinned(self):
        # Checkpoints and the acceptance cache key on these bytes' hash.
        assert self._small().hash() == (
            "989863211964e3ad8fd98b7099dc07832e636fdd63ed7fb252759c0c51e2c357")
        assert DatasetManifest(seed=3, count=10, m=40, n=10).hash() == (
            "18de1454db7433196bc1b188b16729c9f89c53414b33bac7810b30d97a7edc62")

    def test_code_and_json_build_the_same_record(self):
        # Checkpoints record the training manifest's hash(), so a manifest
        # built in code with integer entries and a bare class name must hash
        # as the same manifest read from JSON.
        built = DatasetManifest(seed=3, count=10, m=40, n=10, matrix_class="binary",
                                gammas=(1,), snr_db_range=(20, 20), rho_range=(1, 1))
        read = _from_json('{"seed": 3, "count": 10, "m": 40, "n": 10, '
                          '"matrix_class": "binary", "gammas": [1], '
                          '"snr_db_range": [20, 20], "rho_range": [1, 1]}')
        assert built == read and built.matrix_class == ("binary",)
        assert built.hash() == read.hash() and hash(built) == hash(read)

    def test_from_json_fills_absent_fields_with_defaults(self):
        got = _from_json(
            '{"seed": 3, "count": 10, "m": 40, "n": 10, "matrix_class": "binary"}')
        assert got == DatasetManifest(seed=3, count=10, m=40, n=10,
                                      matrix_class=("binary",))

    def test_from_json_rejects_non_list_class(self):
        with pytest.raises(ManifestError):
            _from_json(
                '{"seed": 3, "count": 10, "m": 40, "n": 10, "matrix_class": 3}')

    @pytest.mark.parametrize("field, value", [("seed", 1.9), ("count", 3.7), ("m", 400.5),
                                              ("n", True), ("count", "3")])
    def test_from_json_rejects_non_integer_counts(self, field, value):
        # int() used to truncate these silently: seed 1.9 loaded as seed 1.
        raw = dict(seed=3, count=10, m=40, n=10)
        raw[field] = value
        with pytest.raises(ManifestError, match=field):
            _from_json(json.dumps(raw))

    def test_constructor_rejects_non_integer_counts(self):
        with pytest.raises(ManifestError, match="^count must be an integer"):
            self._small(count=2.5)
        with pytest.raises(ManifestError, match="^n must be an integer"):
            self._small(n=True)

    def test_from_json_accepts_integral_floats(self):
        got = _from_json('{"seed": 3.0, "count": 10, "m": 4e1, "n": 10}')
        assert got == DatasetManifest(seed=3, count=10, m=40, n=10)
        assert isinstance(got.m, int) and got.hash() == DatasetManifest(
            seed=3, count=10, m=40, n=10).hash()

    def test_from_json_rejects_unknown_fields(self):
        # A misspelt field must not leave its default in place unnoticed.
        with pytest.raises(ManifestError, match="snr_range"):
            _from_json(
                '{"seed": 3, "count": 10, "m": 40, "n": 10, "snr_range": [40, 40]}')

    def test_from_json_rejects_garbage(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError):
            model.load_manifest(str(path))
        with pytest.raises(ManifestError):
            _from_json("{\"seed\": 1}")


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(40)
        img = rng.random((7, 5))
        path = tmp_path / "img.pgm"
        model.write_pgm(str(path), img)
        back = model.read_pgm(str(path))
        assert back.shape == (7, 5)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_rejects_non_p5(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValueError):
            model.read_pgm(str(path))

    def test_header_comments(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 64, 128, 255]))
        img = model.read_pgm(str(path))
        np.testing.assert_allclose(img.ravel() * 255, [0, 64, 128, 255])
