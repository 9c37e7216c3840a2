"""Dense complex-matrix kernels used throughout the package.

Everything operates on plain numpy ``complex128`` arrays in row-major order.
Spectral outputs (singular values, Hermitian eigenvalues) are always sorted
in descending order so downstream results serialize deterministically.

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
