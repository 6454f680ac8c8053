"""Signal, transform-matrix, and measurement generation for phase retrieval.

Everything here is deterministic given a seed.  Datasets are described by a
small JSON manifest (seed + scenario ranges) and regenerated on demand; each
sample owns an independent RNG stream derived from (manifest seed, index), so
generation is order-independent and parallel-safe.

Conventions: the noise is standard circularly-symmetric complex Gaussian with
unit variance per component, and the SNR is absorbed into the transform matrix
scale, tr(A A^H) / M = SNR.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import sys
from ctypes import CDLL, c_char, c_double, c_int, c_int64, c_void_p
from dataclasses import MISSING, asdict, dataclass
from typing import Iterable, Optional

import numpy as np

MATRIX_CLASSES = ("gaussian", "geometric", "binary")


class ManifestError(ValueError):
    """Raised when a dataset manifest is inconsistent or malformed."""


def integer_field(name: str, value, error: type = ManifestError) -> int:
    """A config field's value as an int; booleans and fractions are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer))
            or value % 1):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def number_field(name: str, value) -> float:
    """A config field's value as a float; booleans and non-finite values are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):  # NaN fails the comparison too
        raise ManifestError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def read_json_object(path: str, error: type, what: str) -> dict:
    """The JSON object in a file; anything else raises `error` naming `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{what} {path} must be a JSON object")
    return raw


def check_keys(raw, what: str, required: Iterable[str], optional: Iterable[str]) -> None:
    """Refuse, with a ManifestError, a config value that is not a JSON object,
    or whose keys leave out one of `required` or name one in neither list."""
    if not isinstance(raw, dict):
        raise ManifestError(f"{what} must be a JSON object, got {raw!r}")
    missing = set(required) - raw.keys()
    if missing:
        raise ManifestError(f"{what} missing fields: {sorted(missing)}")
    unknown = raw.keys() - set(required) - set(optional)
    if unknown:
        raise ManifestError(f"unknown {what} fields: {sorted(unknown)}")


def record_from_object(cls, raw, what: str):
    """The dataclass record `cls` built from a JSON object of its fields; the
    fields without a default are required."""
    fields = cls.__dataclass_fields__
    check_keys(raw, what, [k for k, f in fields.items() if f.default is MISSING], fields)
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ManifestError(f"{what} field has wrong type: {exc}") from exc


def write_atomic(path: str, chunks: Iterable[str | bytes]) -> None:
    """Stream str (UTF-8) and bytes chunks to a temp file renamed over `path`,
    so no reader ever sees a partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
    os.replace(tmp, path)


def check_snr_db(name: str, value: float) -> None:
    """Refuse an SNR in dB outside +-300, where the solver stays finite on every
    transform class, or that is not a number at all.  At (400, 100) a +1000 dB
    solve overflows to 0 dB rows and -500 dB ones report +170 to +250 dB."""
    if not abs(value) <= 300.0:  # NaN fails the comparison too
        raise ManifestError(f"{name} must be a finite number of dB in "
                            f"[-300, 300], got {value}")


# Rows (along the last axis) drawn, or Gram columns folded, per step: the
# temporaries of complex_normal and _gram stay at ROW_BLOCK rows.
ROW_BLOCK = 64


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussian draws (unit variance).

    All real parts are drawn first, then all imaginary parts, ROW_BLOCK rows
    at a time into one complex array.  The generator's stream does not depend
    on how a draw is split, so the numbers and its end state are those of two
    whole-array draws, without a real temporary of the array's size.
    """
    out = np.empty(shape, dtype=complex)
    rows = out.reshape(math.prod(shape[:-1]), *shape[-1:])  # 0-d and empty shapes too
    for part in (rows.real, rows.imag):
        for lo in range(0, len(rows), ROW_BLOCK):
            block = part[lo:lo + ROW_BLOCK]
            block[...] = rng.standard_normal(block.shape)
    out *= np.sqrt(0.5)
    return out


@dataclass(frozen=True)
class SignalPrior:
    """Bernoulli-Gaussian signal prior with unit per-component second moment.

    Each component is zero with probability 1 - rho and otherwise drawn from a
    circular complex Gaussian with variance 1/rho, so E|x_i|^2 = 1 for any rho.
    """

    rho: float

    def __post_init__(self) -> None:
        if not (0.0 < self.rho <= 1.0):
            raise ValueError(f"sparsity rate must be in (0, 1], got {self.rho}")

    @property
    def slab_variance(self) -> float:
        return 1.0 / self.rho


def sample_signal(prior: SignalPrior, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a length-n signal from the Bernoulli-Gaussian prior."""
    if n < 1:
        raise ValueError(f"signal length must be >= 1, got {n}")
    support = rng.random(n) < prior.rho
    values = complex_normal(rng, n) * np.sqrt(prior.slab_variance)
    return np.where(support, values, 0.0 + 0.0j)


def _haar_columns(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The first n columns of an m x m complex Gaussian draw.  The whole draw
    is taken, so the generator ends in the same state for any n."""
    if not (m >= n >= 1):
        raise ValueError(f"need m >= n >= 1, got ({m}, {n})")
    z = np.empty((m, n), dtype=complex)
    z.real = rng.standard_normal((m, m))[:, :n]
    z.imag = rng.standard_normal((m, m))[:, :n]
    z *= np.sqrt(0.5)
    return z


def _folded_qr(z: np.ndarray) -> np.ndarray:
    """Q of the Householder QR of z, with R's diagonal phases folded in."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sample_haar_isometry(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the first n columns of an m x m Haar unitary (an m x n isometry).

    Q from the QR decomposition of an i.i.d. complex Gaussian matrix, with
    the phases of R's diagonal folded back in, is exactly Haar-distributed;
    its first n columns depend only on the first n columns of the draw
    (Mezzadri, arXiv:math-ph/0609050), so only those are factorized, by
    Householder QR; the result matches the full factorization's first n
    columns to rounding.  n = m gives a Haar unitary.  This Q is the thin
    QR factor whose R has a positive diagonal.
    """
    return _folded_qr(_haar_columns(m, n, rng))


# The Gram route squares the condition number kappa = s_max / s_min.  eigh
# resolves each eigenvalue of A^H A to about eps * s_max^2 absolute (Golub &
# Van Loan, Matrix Computations, 5.3 and 8.6), so s_i = sqrt(lambda_i) and
# the implied left vectors u_i = A v_i / s_i carry relative errors of about
# eps * kappa^2: 2.2e-10 at kappa = 1e3 for eps = 2.2e-16, the order of the
# 1e-10 relative tolerance solver results are held to.  Cholesky QR loses
# orthogonality by the same eps * kappa^2 (Yamamoto, Nakatsukasa, Yanagisawa
# & Fukaya, ETNA 44, 2015).  Past the cap, factors come from the SVD or
# Householder QR.  kappa is about 3 for a ratio-4 Gaussian draw and 20 for a
# (400, 100) binary one; the Haar bound ||L||_F ||L^-1||_F >= kappa reads
# about 115 at (400, 100) and 580-1530 at (101, 100).
GRAM_CONDITION_CAP = 1e3


def _gram(a: np.ndarray) -> np.ndarray:
    """a^H a of a complex M x N matrix from one real symmetric product.

    With b the M x 2N float view of a (columns Re a_1, Im a_1, Re a_2, ...),
    r = b^T b is a symmetric rank-k update, half the flops of a general
    product, and needs no conjugate copy of a.  numpy mirrors its triangle, so
    r is exactly symmetric, and Gram entry (k, j) has real part r[2j, 2k] +
    r[2j+1, 2k+1] and imaginary part r[2j+1, 2k] - r[2j, 2k+1]: column j
    reads rows 2j and 2j+1 only.  It is written as complex floats over row j
    of r: row 0 entry by entry, then row ranges [lo, hi) of at most
    min(lo, ROW_BLOCK) rows, each of which writes only rows that earlier
    ranges have read.  So the first half of r becomes the Fortran-ordered
    Gram matrix zheevr reads, and the second half is released.  Besides a,
    the working set peaks at r, 32 N^2 bytes.
    """
    m, n = a.shape
    b = np.ascontiguousarray(a).view(float).reshape(m, 2 * n)
    r = b.T @ b
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, min(lo, ROW_BLOCK)))
        np.add(r[2 * lo:2 * hi:2, 0::2], r[2 * lo + 1:2 * hi:2, 1::2], out=r[lo:hi, 0::2])
        np.subtract(r[2 * lo + 1:2 * hi:2, 0::2], r[2 * lo:2 * hi:2, 1::2],
                    out=r[lo:hi, 1::2])
        lo = hi
    # No view of r is alive, and a debugger reading the frame's locals holds r
    # itself, which refcheck would refuse.
    r.resize(2 * n * n, refcheck=False)
    return r.view(complex).reshape(n, n).T


def _gram_conditioned(w: np.ndarray) -> bool:
    """Descending Gram eigenvalues within GRAM_CONDITION_CAP squared."""
    return bool(w[-1] * GRAM_CONDITION_CAP ** 2 > w[0])


def gaussian_class_singulars(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Singular values of an m x n i.i.d. standard complex Gaussian matrix.

    They are the square roots of the Gram eigenvalues, with the SVD used
    past GRAM_CONDITION_CAP, as in economy_factors.
    """
    if not (m >= n >= 1):
        raise ValueError(f"need m >= n >= 1, got ({m}, {n})")
    a = complex_normal(rng, m, n)
    w = np.linalg.eigvalsh(_gram(a))[::-1]
    if not _gram_conditioned(w):
        return np.linalg.svd(a, compute_uv=False)
    return np.sqrt(w)


@functools.cache
def _bundled_lapack():
    """LAPACKE zheevr and the thread count get/set of numpy's OpenBLAS, or None."""
    lib = CDLL(np.linalg._umath_linalg.__file__)
    names = ("LAPACKE_zheevr", "openblas_get_num_threads", "openblas_set_num_threads")
    funcs = [getattr(lib, f"scipy_{name}64_", None) for name in names]
    if None in funcs:  # a numpy built on another BLAS
        return None
    funcs[0].restype = c_int64  # numpy's scipy-openblas64 has int64 LAPACK integers
    funcs[0].argtypes = [c_int] + [c_char] * 3 + [
        c_int64, c_void_p, c_int64, c_double, c_double, c_int64, c_int64, c_double,
        c_void_p, c_void_p, c_void_p, c_int64, c_void_p]
    funcs[1].argtypes, funcs[2].argtypes, funcs[2].restype = [], [c_int], None
    return funcs


def _gram_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of the Gram matrix a^H a by zheevr, on one thread.

    LAPACKE's zheevr (column-major 102, jobz V, range A, uplo L, abstol 0: scipy's
    eigh(driver="evr")) runs in numpy's OpenBLAS, in place on the Fortran-ordered
    Gram matrix, with the process-wide thread count set to 1: two threads give other
    eigenvector phases, which the 10-layer image solve amplifies past 1e-10 relative.
    A numpy linked to another BLAS runs np.linalg.eigh.
    """
    gram, n = _gram(a), a.shape[1]
    if _bundled_lapack() is None:
        return np.linalg.eigh(gram)
    zheevr, get_threads, set_threads = _bundled_lapack()
    w, v = np.empty(n), np.empty((n, n), dtype=complex, order="F")
    found, support = np.zeros(1, dtype=np.int64), np.empty(2 * n, dtype=np.int64)
    threads = get_threads()
    set_threads(1)
    try:
        info = zheevr(102, b"V", b"A", b"L", n, gram.ctypes.data, n, 0.0, 0.0, 0, 0, 0.0,
                      found.ctypes.data, w.ctypes.data, v.ctypes.data, n, support.ctypes.data)
    finally:
        set_threads(threads)
    if info or found[0] < n:
        raise np.linalg.LinAlgError(f"zheevr info {info}: {found[0]} of {n} eigenvalues")
    return w, v


def economy_factors(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors of a tall matrix.

    Returns (s, v) with s descending, so that a = u diag(s) v^H for the
    isometry u = a v / s, which is not formed.  The eigenpairs of the
    N x N Gram matrix a^H a give s^2 and v: one real symmetric product and
    an N x N Hermitian eigensolve cost less time and memory than the SVD
    of the M x N matrix.  When the eigenvalues show rank deficiency or a
    condition number above GRAM_CONDITION_CAP, np.linalg.svd is used
    instead.

    The eigensolve is LAPACK's zheevr, whose MRRR tridiagonal stage
    (Dhillon, Parlett & Voemel, ACM TOMS 32(4), 2006) finds the
    eigenvectors in O(N^2) and overwrites the Gram matrix in place of
    zheevd's divide-and-conquer workspace.  Its eigenvectors are
    orthogonal to O(N eps), against O(eps) for zheevd: about 1e-12 at
    N = 1024, inside the eps * kappa^2 budget of GRAM_CONDITION_CAP.  It
    is numpy's own OpenBLAS zheevr, on one thread (_gram_eigh).
    """
    w, v = _gram_eigh(a)
    w, v = w[::-1], v[:, ::-1]
    if not _gram_conditioned(w):
        _, s, vh = np.linalg.svd(a, full_matrices=False)
        return s, vh.conj().T
    return np.sqrt(w), v


def geometric_singulars(n: int, gamma: float) -> np.ndarray:
    """Geometric spectrum sigma_{k+1}/sigma_k = gamma, unnormalized."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"spectrum decay must be in (0, 1], got {gamma}")
    return gamma ** np.arange(n, dtype=float)


def _snr_scale(singulars: np.ndarray, m: int, snr_linear: float) -> float:
    """The factor that brings tr(A A^H) / M to the target SNR."""
    if snr_linear <= 0:
        raise ValueError(f"SNR must be positive, got {snr_linear}")
    energy = float(np.sum(np.square(singulars)))
    if energy == 0.0:
        raise ValueError("cannot scale an all-zero spectrum")
    return np.sqrt(m * snr_linear / energy)


def scale_to_snr(singulars: np.ndarray, m: int, snr_linear: float) -> np.ndarray:
    """Rescale a spectrum so that tr(A A^H) / M equals the target SNR."""
    return singulars * _snr_scale(singulars, m, snr_linear)


@dataclass
class TransformMatrix:
    """Linear operator A (M x N) with the right factors of its economy SVD.

    A = U diag(s) V^H: right_unitary is the N x N unitary V and singulars
    holds s, non-negative and sorted descending.  The left isometry
    U = A V / s is not stored; the solver reads it only through the
    projection S U^H z = V^H (A^H z) (`project`) and the product
    U S w = A (V w) (`apply_modes`).  A and V are stored C-contiguous, and
    products with their adjoints are taken as transposed products,
    (z^H A)^H, so no adjoint copy is kept.
    """

    operator: np.ndarray
    right_unitary: np.ndarray
    singulars: np.ndarray

    def __post_init__(self) -> None:
        k = len(self.singulars)
        if self.operator.ndim != 2 or self.operator.shape[1] != k:
            raise ValueError(f"operator needs one column per singular value "
                             f"({k}), got shape {self.operator.shape}")
        if self.right_unitary.shape != (k, k):
            raise ValueError(f"right factor must be {k} x {k}, "
                             f"got shape {self.right_unitary.shape}")
        if np.any(self.singulars < 0):
            raise ValueError("singular values must be non-negative")
        if np.any(np.diff(self.singulars) > 0):
            raise ValueError("singular values must be sorted descending")
        self.operator = np.ascontiguousarray(self.operator)
        self.right_unitary = np.ascontiguousarray(self.right_unitary)

    @property
    def m(self) -> int:
        return self.operator.shape[0]

    @property
    def n(self) -> int:
        return self.right_unitary.shape[0]

    @property
    def snr(self) -> float:
        """tr(A A^H) / M under the unit-noise convention."""
        return float(np.sum(np.square(self.singulars))) / self.m

    @property
    def sigma_tilde(self) -> np.ndarray:
        """Spectrum normalized to unit L2 norm (the matrix 'shape')."""
        norm = float(np.linalg.norm(self.singulars))
        if norm == 0.0:
            return np.zeros_like(self.singulars)
        return self.singulars / norm

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A @ x."""
        return self.operator @ x

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """A^H @ z."""
        return (z.conj() @ self.operator).conj()

    def project(self, z: np.ndarray) -> np.ndarray:
        """V^H A^H z = S U^H z, the left-mode coordinates of z scaled by s."""
        return ((z.conj() @ self.operator) @ self.right_unitary).conj()

    def apply_modes(self, w: np.ndarray) -> np.ndarray:
        """A V w = U S w, the image of the signal whose right-mode
        coordinates are w."""
        return self.operator @ (self.right_unitary @ w)


def _cholesky_inverse(z: np.ndarray) -> tuple[Optional[np.ndarray], float]:
    """L^-1 for z^H z = L L^H, with ||L||_F ||L^-1||_F >= cond(z) (inf on failure)."""
    try:
        chol = np.linalg.cholesky(_gram(z))
        inv = np.linalg.inv(chol)
    except np.linalg.LinAlgError:
        return None, np.inf
    return inv, float(np.linalg.norm(chol) * np.linalg.norm(inv))


def _haar_transform(z: np.ndarray, v: np.ndarray, s: np.ndarray) -> TransformMatrix:
    """A = U diag(s) V^H for U the folded QR factor (sample_haar_isometry) of z.

    U = z L^-H, so A = z (L^-H diag(s) V^H): an N x N inverse and one M x N
    product.  Draws past GRAM_CONDITION_CAP keep Householder QR and (U s) V^H.
    """
    inv, bound = _cholesky_inverse(z)
    if not bound <= GRAM_CONDITION_CAP:
        return TransformMatrix((_folded_qr(z) * s) @ v.conj().T, v, s)
    return TransformMatrix(z @ ((inv.conj().T * s) @ v.conj().T), v, s)


def gaussian_matrix(m: int, n: int, snr_linear: float,
                    rng: np.random.Generator) -> TransformMatrix:
    """Gaussian-class transform: Haar factors (drawn first), i.i.d.-Gaussian spectrum."""
    z = _haar_columns(m, n, rng)
    v = sample_haar_isometry(n, n, rng)
    s = scale_to_snr(gaussian_class_singulars(m, n, rng), m, snr_linear)
    return _haar_transform(z, v, s)


def geometric_matrix(m: int, n: int, snr_linear: float, gamma: float,
                     rng: np.random.Generator) -> TransformMatrix:
    """Geometric-class transform: Haar factors, geometric spectrum."""
    z = _haar_columns(m, n, rng)
    v = sample_haar_isometry(n, n, rng)
    return _haar_transform(z, v, scale_to_snr(geometric_singulars(n, gamma), m, snr_linear))


def binary_matrix(m: int, n: int, snr_linear: float,
                  rng: np.random.Generator) -> TransformMatrix:
    """Transform with i.i.d. entries in {0, c}, scaled to the target SNR.

    Entries are one with probability 1/2 and the single global scale c is
    chosen so tr(A A^H) / M = snr_linear for the realized draw.  The draw
    is kept as the operator, with its right factors (economy_factors).
    """
    mask = rng.random((m, n)) < 0.5
    while not mask.any():
        mask = rng.random((m, n)) < 0.5
    c = np.sqrt(m * snr_linear / mask.sum())
    a = np.where(mask, c, 0.0).astype(complex)
    s, v = economy_factors(a)
    return TransformMatrix(a, v, s)


def dense_gaussian_matrix(m: int, n: int, snr_linear: float,
                          rng: np.random.Generator) -> TransformMatrix:
    """Gaussian-class transform built from a dense i.i.d. draw.

    Distributionally equivalent to gaussian_matrix; used for large image-reconstruction
    instances.  The M x N draw is kept as the operator, scaled in place, with the right
    factors of its N x N Gram matrix (economy_factors), which numpy's own zheevr reads
    in place.  Its condition number is near (1 + sqrt(N/M)) / (1 - sqrt(N/M)), 3 at
    M = 4N, so the SVD fallback runs only for draws close to square.  Besides the draw,
    the working set peaks at two N x N complex arrays: the real 2N x 2N Gram product,
    which _gram folds into its own first half, then the Gram matrix and V during the
    eigensolve.  Drawing adds one real block of ROW_BLOCK rows; no second complex
    M x N array is made.
    """
    a = complex_normal(rng, m, n)
    s, v = economy_factors(a)
    scale = _snr_scale(s, m, snr_linear)
    a *= scale
    return TransformMatrix(a, v, s * scale)


def forward_measure(matrix: TransformMatrix, x: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Phase-less measurement y = |A x + n| with unit-variance complex noise."""
    if x.shape != (matrix.n,):
        raise ValueError(f"signal shape {x.shape} does not match N={matrix.n}")
    return np.abs(matrix.apply(x) + complex_normal(rng, matrix.m))


@dataclass
class Sample:
    """One phase-retrieval instance: signal, measurements, scenario and prior."""

    x: np.ndarray
    y: np.ndarray
    matrix: TransformMatrix
    snr: float
    prior: SignalPrior


@dataclass(frozen=True)
class DatasetManifest:
    """Reproducible dataset description (seed + scenario ranges).

    matrix_class may list several classes; samples cycle through them with
    equal counts.  Geometric-class samples cycle through the listed gammas,
    also with equal counts.  SNR is drawn uniformly in dB over snr_db_range
    and the sparsity rate uniformly over rho_range.
    """

    seed: int
    count: int
    m: int
    n: int
    matrix_class: tuple[str, ...] = ("gaussian",)
    gammas: tuple[float, ...] = (1.0, 0.97)
    snr_db_range: tuple[float, float] = (15.0, 25.0)
    rho_range: tuple[float, float] = (0.3, 0.8)

    def __post_init__(self) -> None:
        for key in ("seed", "count", "m", "n"):
            object.__setattr__(self, key, integer_field(key, getattr(self, key)))
        # Code and JSON build the same record and hash(): a class name is a
        # one-class list and a number a float (NaN is left to the range checks).
        classes = self.matrix_class
        object.__setattr__(self, "matrix_class",
                           (classes,) if isinstance(classes, str) else tuple(classes))
        for key in ("gammas", "snr_db_range", "rho_range"):
            object.__setattr__(self, key, tuple(
                v if isinstance(v, float) else number_field(key, v)
                for v in getattr(self, key)))
        for key in ("seed", "count"):
            if getattr(self, key) < 0:
                raise ManifestError(f"{key} must be >= 0, got {getattr(self, key)}")
        if not (self.m >= self.n >= 1):
            raise ManifestError(f"need M >= N >= 1, got ({self.m}, {self.n})")
        if not self.matrix_class:
            raise ManifestError("matrix_class must name at least one class")
        for cls in self.matrix_class:
            if cls not in MATRIX_CLASSES:
                raise ManifestError(f"unknown matrix class {cls!r}")
        if "geometric" in self.matrix_class:
            if not self.gammas:
                raise ManifestError("geometric class requires at least one gamma")
            for g in self.gammas:
                if not (0.0 < g <= 1.0):
                    raise ManifestError(f"gamma must be in (0, 1], got {g}")
        for name, pair in (("snr_db_range", self.snr_db_range),
                           ("rho_range", self.rho_range)):
            if len(pair) != 2 or pair[0] > pair[1]:
                raise ManifestError(f"{name} must be [lo, hi] with lo <= hi, got {list(pair)}")
        for value in self.snr_db_range:
            check_snr_db("snr_db_range", value)
        if not (0.0 < self.rho_range[0] and self.rho_range[1] <= 1.0):
            raise ManifestError(f"rho_range must lie in (0, 1], got {self.rho_range}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def load_manifest(path: str) -> DatasetManifest:
    return record_from_object(DatasetManifest,
                              read_json_object(path, ManifestError, "manifest"), "manifest")


def scenario_at(manifest: DatasetManifest, index: int) -> tuple[str, Optional[float]]:
    """Matrix class (and gamma, for geometric) assigned to a sample index."""
    classes = manifest.matrix_class
    cls = classes[index % len(classes)]
    gamma = None
    if cls == "geometric":
        gamma = manifest.gammas[(index // len(classes)) % len(manifest.gammas)]
    return cls, gamma


def sample_at(manifest: DatasetManifest, index: int) -> Sample:
    """Generate the index-th sample of a manifest (order-independent).

    An all-zero signal draw (possible for sparse priors at small N) would
    make the instance degenerate, so the signal is redrawn from the same
    stream until at least one component is active.
    """
    if not (0 <= index < manifest.count):
        raise IndexError(f"sample index {index} out of range [0, {manifest.count})")
    rng = np.random.default_rng([manifest.seed, index])
    snr_db = rng.uniform(*manifest.snr_db_range)
    snr = 10.0 ** (snr_db / 10.0)
    prior = SignalPrior(rng.uniform(*manifest.rho_range))
    x = sample_signal(prior, manifest.n, rng)
    while not np.any(x):
        x = sample_signal(prior, manifest.n, rng)
    cls, gamma = scenario_at(manifest, index)
    if cls == "gaussian":
        matrix = gaussian_matrix(manifest.m, manifest.n, snr, rng)
    elif cls == "geometric":
        matrix = geometric_matrix(manifest.m, manifest.n, snr, gamma, rng)
    else:
        matrix = binary_matrix(manifest.m, manifest.n, snr, rng)
    y = forward_measure(matrix, x, rng)
    return Sample(x=x, y=y, matrix=matrix, snr=snr, prior=prior)


def read_pgm(path: str) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM image as floats in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ValueError("only binary PGM (P5) images are supported")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        try:
            fields.append(int(data[start:pos]))
        except ValueError as exc:
            raise ValueError("malformed PGM header") from exc
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"only 8-bit PGM supported (maxval 255), got {maxval}")
    pos += 1
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    if pixels.size != width * height:
        raise ValueError("truncated PGM pixel data")
    return pixels.reshape(height, width).astype(float) / 255.0


def write_pgm(path: str, image: np.ndarray) -> None:
    """Write floats in [0, 1] as a binary (P5) 8-bit PGM image."""
    if image.ndim != 2:
        raise ValueError("image must be 2-D")
    clipped = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n"
    write_atomic(path, (header, clipped.tobytes()))
