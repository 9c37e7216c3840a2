"""Dense complex-matrix kernels used throughout the package.

Everything operates on plain numpy ``complex128`` arrays in row-major order.

The DU core takes every polar factor from one kernel, :func:`_svd_polar`,
the only choice of algorithm by size: the closed form :func:`_svd_polar_2x2`
at 2x2 (no LAPACK call), else one batched SVD. Its singular values are
sorted in descending order so downstream results serialize
deterministically.

Haar sampling has one path: :func:`ginibre_stack` draws the Gaussian
entries, one ``standard_normal`` call per generator, and
:func:`haar_from_ginibre` turns the whole stack into Haar unitaries with one
batched QR of only the leading columns the caller keeps (all of them for a
full unitary). :func:`haar_unitary` is a stack of one, so a generator yields
the same unitaries whether they are drawn one at a time or as a stack.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

# Frobenius-norm tolerance for unitarity validation. Double precision
# decompositions on dim <= 64 matrices stay well below this.
UNITARY_TOL = 1e-9

# Relative rank cutoff: a canonical weight or chi eigenvalue at or below
# RANK_CUTOFF * max(1, largest) counts as zero (double-precision noise floor).
RANK_CUTOFF = 1e-12

# Python and numpy booleans: float() and operator.index() take them, this package does not.
_BOOLS = (bool, np.bool_)


def _require_at_least(name: str, value, low: int) -> None:
    """ValueError naming ``name`` unless ``value`` is an integer >= ``low``."""
    try:
        if isinstance(value, _BOOLS):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _is_real(value) -> bool:
    """Whether ``value`` is a real number to this package: ``numbers.Real``,
    not a boolean, and so not a string, though float() would parse one."""
    # float and int first: they answer without the slower ABC check
    return not isinstance(value, _BOOLS) and isinstance(value, (float, int, numbers.Real))


def _require_real(name: str, value, low: float, strict: bool) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a real
    number, finite, and above ``low`` (``strict``) or at least ``low``; a
    ``low`` of -inf bounds nothing."""
    try:
        x = float(value) if _is_real(value) else math.nan
    except OverflowError:  # an integer or fraction beyond float's range
        x = math.inf
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        bound = f" {'>' if strict else '>='} {low:g}" if low > -math.inf else ""
        raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")
    return x


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D, C-ordered complex128 array with finite entries."""
    m = np.ascontiguousarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


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


def ginibre_stack(dim: int, rngs, count: int = 1) -> np.ndarray:
    """Real Gaussian draws for ``count`` complex Ginibre matrices per generator.

    Returns shape ``(len(rngs), count, 2, dim, dim)``: the real then the
    imaginary part of each matrix. Each generator fills its block in one
    ``standard_normal`` call, which consumes its stream exactly as ``count``
    sequential :func:`haar_unitary` calls would.
    """
    _require_at_least("dim", dim, 1)
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
    ``columns`` (a slice or an index array) of each unitary are phased and
    returned, in shape ``(..., m, len(columns))``. Householder QR makes
    column j of Q and r_jj depend on columns 0..j of z alone, so only the
    leading columns up to the last one kept are factored (one reduced QR of
    an ``(..., m, lead)`` stack), and every kept column comes out bit for bit
    as in the full factorization of its matrix alone.
    """
    # Each stack is as large as the chunk it serves, so every intermediate
    # is dropped as soon as it is used; the sampler's peak memory is that of
    # the QR.
    keep = np.arange(g.shape[-1])[columns]
    lead = int(keep.max(initial=-1)) + 1
    z = np.empty(g.shape[:-3] + (g.shape[-2], lead), dtype=np.complex128)
    z.real = g[..., 0, :, :lead]
    z.imag = g[..., 1, :, :lead]
    del g
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    del z
    d = r[..., keep, keep]
    mag = np.abs(d)
    ph = np.where(mag > 0.0, d / np.where(mag > 0.0, mag, 1.0), 1.0)
    del r, d, mag
    return q[..., keep] * ph[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary of the given dimension.

    A stack of one through :func:`haar_from_ginibre`. Deterministic for a
    given generator state.
    """
    return haar_from_ginibre(ginibre_stack(dim, [rng]))[0, 0]


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
