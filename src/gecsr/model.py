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

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

MATRIX_CLASSES = ("gaussian", "geometric", "binary")


class ManifestError(ValueError):
    """Raised when a dataset manifest is inconsistent or malformed."""


def integer_field(name: str, value) -> int:
    """A config field's value as an int; booleans and fractions are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer))
            or value % 1):
        raise ManifestError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_snr_db(name: str, value: float) -> None:
    """Refuse an SNR in dB outside +-3000, where 10^(dB/10) stops being a
    positive, finite float, or that is not a number at all."""
    if not abs(value) <= 3000.0:  # NaN fails the comparison too
        raise ManifestError(f"{name} must be a finite number of dB in "
                            f"[-3000, 3000], got {value}")


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussian draws (unit variance).

    All real parts are drawn first, then all imaginary parts, each written
    straight into one complex array.
    """
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
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
    b^T b is a symmetric rank-k update, half the flops of a general product,
    and needs no conjugate copy of a.  Its 2 x 2 blocks hold the real and
    imaginary parts of the Gram entries.
    """
    m, n = a.shape
    b = np.ascontiguousarray(a).view(float).reshape(m, 2 * n)
    r = (b.T @ b).reshape(n, 2, n, 2)
    gram = np.empty((n, n), dtype=complex)
    np.add(r[:, 0, :, 0], r[:, 1, :, 1], out=gram.real)
    np.subtract(r[:, 0, :, 1], r[:, 1, :, 0], out=gram.imag)
    return gram


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


def _eigh_one_thread(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a Hermitian matrix by zheevr, on one thread.

    Under two OpenBLAS threads zheevr returns other eigenvector phases
    than under one, and the 10-layer image solve amplifies that rounding
    past 1e-10 relative; on one thread the factors, and with them the
    solve, do not depend on the process's thread count.  scipy's wheels
    carry their own OpenBLAS, whose process-wide count is set for this
    call and then restored; where scipy links another BLAS, the solve
    runs on that BLAS's own count.  scipy is imported here so that
    commands which never factor a dense draw do not pay for loading it.
    The Gram matrix is overwritten.
    """
    import ctypes

    from scipy.linalg import cython_lapack, eigh

    blas = ctypes.CDLL(cython_lapack.__file__)
    get_threads = getattr(blas, "scipy_openblas_get_num_threads", None)
    set_threads = getattr(blas, "scipy_openblas_set_num_threads", None)
    if get_threads is None or set_threads is None:
        return eigh(gram, driver="evr", overwrite_a=True, check_finite=False)
    threads = get_threads()
    set_threads(1)
    try:
        return eigh(gram, driver="evr", overwrite_a=True, check_finite=False)
    finally:
        set_threads(threads)


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
    runs on one BLAS thread (_eigh_one_thread).
    """
    w, v = _eigh_one_thread(_gram(a))
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

    Distributionally equivalent to gaussian_matrix; used for large
    image-reconstruction instances.  The M x N draw is kept as the
    operator, scaled in place, with the right factors of its N x N Gram
    matrix (economy_factors).  Its condition number is near
    (1 + sqrt(N/M)) / (1 - sqrt(N/M)), 3 at M = 4N, so the SVD fallback
    runs only for draws close to square.  Besides the draw, the working
    set peaks at one real component of it (while drawing) or at the Gram
    product and the N x N factors: no second complex M x N array.
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
    """One phase-retrieval instance: signal, measurements, and scenario."""

    x: np.ndarray
    y: np.ndarray
    matrix: TransformMatrix
    snr: float
    rho: float


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
        if self.count < 0:
            raise ManifestError(f"count must be >= 0, got {self.count}")
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
        for name, (lo, hi) in (("snr_db_range", self.snr_db_range),
                               ("rho_range", self.rho_range)):
            if lo > hi:
                raise ManifestError(f"{name} has lo > hi: [{lo}, {hi}]")
        for value in self.snr_db_range:
            check_snr_db("snr_db_range", value)
        if not (0.0 < self.rho_range[0] and self.rho_range[1] <= 1.0):
            raise ManifestError(f"rho_range must lie in (0, 1], got {self.rho_range}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "DatasetManifest":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ManifestError("manifest must be a JSON object")
        required = {"seed", "count", "m", "n"}
        missing = required - raw.keys()
        if missing:
            raise ManifestError(f"manifest missing fields: {sorted(missing)}")
        unknown = raw.keys() - DatasetManifest.__dataclass_fields__.keys()
        if unknown:
            raise ManifestError(f"unknown manifest fields: {sorted(unknown)}")
        try:
            fields = {key: raw[key] for key in required}
            if "matrix_class" in raw:
                classes = raw["matrix_class"]
                fields["matrix_class"] = ((classes,) if isinstance(classes, str)
                                          else tuple(classes))
            for key in ("gammas", "snr_db_range", "rho_range"):
                if key in raw:
                    fields[key] = tuple(float(v) for v in raw[key])
            return DatasetManifest(**fields)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ManifestError):
                raise
            raise ManifestError(f"manifest field has wrong type: {exc}") from exc

    def hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def load_manifest(path: str) -> DatasetManifest:
    with open(path, "r", encoding="utf-8") as fh:
        return DatasetManifest.from_json(fh.read())


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
    rho = rng.uniform(*manifest.rho_range)
    prior = SignalPrior(rho)
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
    return Sample(x=x, y=y, matrix=matrix, snr=snr, rho=rho)


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
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header + clipped.tobytes())
