"""Dense complex-matrix kernels used throughout the package.

Everything operates on plain numpy ``complex128`` arrays in row-major order.
Spectral outputs (singular values, Hermitian eigenvalues) are always sorted
in descending order so downstream results serialize deterministically.

The DU core takes every singular value and polar factor from one kernel,
:func:`_svd_polar`, the only choice of algorithm by size: the closed form
:func:`_svd_polar_2x2` at 2x2 (no LAPACK call), else one batched SVD.

Haar sampling has one path: :func:`ginibre_stack` draws the Gaussian
entries, one ``standard_normal`` call per generator, and
:func:`haar_from_ginibre` turns the whole stack into Haar unitaries with one
batched QR. :func:`haar_unitary` is a stack of one, so a generator yields
the same unitaries whether they are drawn one at a time or as a stack.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Frobenius-norm tolerance for unitarity / Hermiticity validation. Double
# precision decompositions on dim <= 64 matrices stay well below this.
UNITARY_TOL = 1e-9
HERMITIAN_TOL = 1e-9

# Singular values / eigenvalue weights below this count as zero in rank
# decisions (double-precision noise floor).
RANK_CUTOFF = 1e-12


class PolarFactors(NamedTuple):
    """Polar decomposition ``a = unitary @ psd``."""

    unitary: np.ndarray
    psd: np.ndarray


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D, C-ordered complex128 array with finite entries."""
    m = np.ascontiguousarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(a† b)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``a = u @ diag(s) @ vh``.

    Singular values are real, nonnegative and descending.
    """
    a = as_matrix(a)
    u, s, vh = np.linalg.svd(a)
    return u, s, vh


def polar(a) -> PolarFactors:
    """Polar decomposition of a square matrix via its SVD.

    Returns ``(w, p)`` with ``a = w @ p``, ``w`` unitary and ``p`` Hermitian
    PSD. The SVD route (``w = u @ vh``) keeps ``w`` unitary even when ``a``
    is rank deficient, and ``w`` maximizes |tr(v† a)| over unitaries ``v``
    with maximum tr(sqrt(a† a)).
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"polar decomposition needs a square matrix, got {a.shape}")
    u, s, vh = np.linalg.svd(a)
    w = u @ vh
    p = (vh.conj().T * s) @ vh
    return PolarFactors(w, p)


# Constants of the closed-form 2x2 kernel, on matrices flattened row-major:
# the signs of the adjugate, adj [[a, b], [c, d]] = [[d, -b], [-c, a]]; the
# map from the norms (||m + y||_F, ||m - y||_F) = sqrt(2) (s1 + s2, s1 - s2)
# to (s1, s2); and the identity.
_ADJ_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
_PLUS_MINUS = np.array([[1.0], [-1.0]])
_NORMS_TO_SINGULAR = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(8.0)
_SQRT2 = np.sqrt(2.0)
_EYE_FLAT = np.array([1.0, 0.0, 0.0, 1.0])


def _svd_polar_2x2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and unitary polar factors of a stack of 2x2 matrices.

    Closed form, no LAPACK call (Higham, Functions of Matrices, SIAM 2008,
    ch. 8). For m = U diag(s1, s2) V†, y = phase(det m) adj(m)† equals
    U diag(s2, s1) V†, so m + y = (s1 + s2) U V† and m - y =
    (s1 - s2) U diag(1, -1) V†. Hence
    s1 + s2 = ||m + y||_F / sqrt(2) = sqrt(||m||_F^2 + 2 |det m|), in which
    nothing cancels, s1 - s2 = ||m - y||_F / sqrt(2), whose absolute error is
    about eps s1 as LAPACK's is, and the polar factor is
    (m + y) / (s1 + s2). A singular m takes phase 1 (any phase gives a
    maximizer of Re tr(w† m)); a zero m gets singular values (0, 0) and the
    identity, with no division by zero. ``m`` is a complex128 stack of shape
    (..., 2, 2); returns the singular values (..., 2), descending, and the
    polar factors (..., 2, 2).
    """
    f = m.reshape(m.shape[:-2] + (4,))
    cross = f[..., :2] * f[..., :1:-1]  # m00 m11, m01 m10
    det = cross[..., 0] - cross[..., 1]
    mag = np.abs(det)
    singular = mag == 0.0
    if singular.any():
        det = np.where(singular, 1.0, det)
        mag = np.where(singular, 1.0, mag)
    y = f[..., ::-1].conj()
    y *= (det / mag)[..., None] * _ADJ_SIGNS
    sums = f[..., None, :] + _PLUS_MINUS * y[..., None, :]  # m + y, m - y
    re = sums.view(np.float64)
    norms = np.sqrt((re * re).sum(axis=-1))
    s = np.maximum(norms @ _NORMS_TO_SINGULAR, 0.0)
    p, total = sums[..., 0, :], norms[..., :1] / _SQRT2
    zero = total == 0.0
    if zero.any():
        p = np.where(zero, _EYE_FLAT, p)
        total = np.where(zero, 1.0, total)
    return s, (p / total).reshape(m.shape)


def _svd_polar(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (..., n), descending, and unitary polar factors
    (..., n, n) of a complex128 stack of square matrices: the closed form
    at 2x2, else one batched SVD with polar factor u @ vh."""
    if m.shape[-1] == 2:
        return _svd_polar_2x2(m)
    u, s, vh = np.linalg.svd(m)
    return s, u @ vh


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(vals, vecs)`` with eigenvalues descending and eigenvectors in
    the columns of ``vecs``, so ``h = vecs @ diag(vals) @ vecs†``. Raises if
    the input is not Hermitian within HERMITIAN_TOL. No canonical basis is
    promised inside degenerate eigenspaces.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got {h.shape}")
    defect = float(np.linalg.norm(h - h.conj().T))
    if defect > HERMITIAN_TOL * max(1.0, float(np.linalg.norm(h))):
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    vals, vecs = np.linalg.eigh(h)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def ginibre_stack(dim: int, rngs, count: int = 1) -> np.ndarray:
    """Real Gaussian draws for ``count`` complex Ginibre matrices per generator.

    Returns shape ``(len(rngs), count, 2, dim, dim)``: the real then the
    imaginary part of each matrix. Each generator fills its block in one
    ``standard_normal`` call, which consumes its stream exactly as ``count``
    sequential :func:`haar_unitary` calls would.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    g = np.empty((len(rngs), count, 2, dim, dim))
    for block, rng in zip(g, rngs):
        rng.standard_normal(out=block)
    return g


def haar_from_ginibre(g: np.ndarray, columns=slice(None)) -> np.ndarray:
    """Haar unitaries from a stack of Ginibre draws, one QR for the stack.

    ``g`` has shape ``(..., 2, m, m)`` as returned by :func:`ginibre_stack`.
    Each matrix z = (re + i im) / sqrt(2) is factored as z = QR and the
    R-diagonal phases are pushed into Q (Q * diag(r_jj/|r_jj|)); the raw QR
    convention alone is not Haar (Mezzadri, Notices AMS 54, 2007). Only the
    requested ``columns`` of each unitary are phased and returned, so the
    result has shape ``(..., m, len(columns))``. Every matrix comes out bit
    for bit as if it had been factored alone.
    """
    # Each stack is as large as the chunk it serves, so every intermediate
    # is dropped as soon as it is used; the sampler's peak memory is that of
    # the QR.
    z = np.empty(g.shape[:-3] + g.shape[-2:], dtype=np.complex128)
    z.real = g[..., 0, :, :]
    z.imag = g[..., 1, :, :]
    del g
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    del z
    d = np.diagonal(r, axis1=-2, axis2=-1)[..., columns]
    mag = np.abs(d)
    ph = np.where(mag > 0.0, d / np.where(mag > 0.0, mag, 1.0), 1.0)
    del r, d, mag
    return q[..., columns] * ph[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary of the given dimension.

    A stack of one through :func:`haar_from_ginibre`. Deterministic for a
    given generator state.
    """
    return haar_from_ginibre(ginibre_stack(dim, [rng]))[0, 0]


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: a normalized complex Gaussian vector."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def unitarity_defect(u) -> float:
    """Frobenius norm of U†U - I."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got {u.shape}")
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def assert_unitary(u, tol: float = UNITARY_TOL) -> np.ndarray:
    """Validate unitarity within ``tol``; returns the coerced matrix."""
    u = as_matrix(u)
    defect = unitarity_defect(u)
    if defect > tol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e} > {tol:.1e})")
    return u
