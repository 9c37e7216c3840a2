"""Quantum channels as Kraus operator sets.

A channel acts as rho -> sum_k E_k rho E_k†, with trace preservation
requiring sum_k E_k† E_k = I. This module provides construction and
validation, conversion to and from the process (chi) matrix, the canonical
orthogonal Kraus form, detection of mixed-unitary structure, the standard
named single-qubit channels with their closed-form DU, Haar-dilation random
channel sampling, channel composition, and trajectories of channels.

Chi-matrix convention: operator basis A_j = |m><n| with flat index
j = m * dim + n, i.e. row-major flattening of the matrix units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import RANK_CUTOFF, _is_real, _require_at_least, _require_real, _svd_polar
from .linalg import as_matrix, ginibre_stack, haar_from_ginibre

# Frobenius tolerance on sum_k E_k† E_k - I for trace preservation.
TRACE_PRESERVATION_TOL = 1e-9

# Tolerance of the "F† F proportional to I" test that detects
# mixed-unitary structure in canonical Kraus operators.
PROPORTIONALITY_TOL = 1e-8

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_PAULIS = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])

STANDARD_KINDS = ("depolarizing", "bit_flip", "phase_flip", "amplitude_damping")


class ChannelValidationError(ValueError):
    """A channel violated a contract (e.g. not trace preserving)."""


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A quantum process given by Kraus operators on a dim-dimensional system.

    ``kraus`` may be given as any iterable of dim x dim operators (a tuple, a
    list, a generator or a (K, dim, dim) array); the instance holds a copy,
    one C-ordered, read-only complex128 array of shape (K, dim, dim). The
    constructor checks shapes and finiteness only; trace preservation is
    checked by :func:`validate` (report style) or enforced by
    :func:`require_trace_preserving`. Instances are immutable.
    """

    dim: int
    kraus: np.ndarray

    def __post_init__(self):
        _require_at_least("dim", self.dim, 1)
        ops = [as_matrix(op) for op in self.kraus]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        for op in ops:
            if op.shape != (self.dim, self.dim):
                raise ValueError(
                    f"Kraus operator shape {op.shape} does not match dim {self.dim}"
                )
        kraus = np.array(ops)
        kraus.flags.writeable = False
        object.__setattr__(self, "kraus", kraus)

    @property
    def n_ops(self) -> int:
        return len(self.kraus)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Channel snapshots along an evolution, at ascending times."""

    times: tuple[float, ...]
    channels: tuple[KrausChannel, ...]

    def __post_init__(self):
        times = tuple(_require_real("times", t, -math.inf, False) for t in self.times)
        if not times:
            raise ValueError("expected at least one time point")
        if len(times) != len(self.channels):
            raise ValueError(f"{len(times)} times but {len(self.channels)} channels")
        if any(not t1 < t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be strictly ascending")
        dims = {ch.dim for ch in self.channels}
        if len(dims) > 1:
            raise ValueError(f"channels have mixed dims {sorted(dims)}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "channels", tuple(self.channels))


@dataclass(frozen=True, eq=False)
class ChiMatrix:
    """Process matrix chi in the |m><n| operator basis (j = m*dim + n).

    ``mat`` is a read-only complex128 copy of the input, (dim^2, dim^2).
    """

    dim: int
    mat: np.ndarray

    def __post_init__(self):
        _require_at_least("dim", self.dim, 1)
        m = as_matrix(self.mat)
        d2 = self.dim * self.dim
        if m.shape != (d2, d2):
            raise ValueError(f"chi must be {d2}x{d2} for dim {self.dim}, got {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True, eq=False)
class CanonicalKraus:
    """Orthogonalized Kraus set with <F_i, F_k> = delta_ik * weights[k].

    ``ops`` are sorted by descending weight; operators with weight at or
    below RANK_CUTOFF * max(1, weights[0]) are dropped. From
    :func:`canonicalize`, ``ops`` is one C-ordered, read-only complex128
    array of shape (R, dim, dim) and ``weights`` a read-only float array of
    shape (R,).
    """

    dim: int
    ops: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class MixedUnitaryForm:
    """Channel written as E_k = alpha_k U_k with U_k unitary.

    When derived from a canonical form the unitaries are pairwise orthogonal
    in the Hilbert-Schmidt inner product, as canonical operators are at every
    dimension. For trace-preserving channels sum_k |alpha_k|^2 = 1. Each U_k
    carries the fixed phase convention that its first nonzero entry (in
    row-major scan) is real positive. ``unitaries`` is one C-ordered,
    read-only complex128 array of shape (K, dim, dim), ``coefficients``
    the alpha_k, read-only, shape (K,).
    """

    dim: int
    unitaries: np.ndarray
    coefficients: np.ndarray


@dataclass(frozen=True)
class ValidationReport:
    """Trace-preservation check result."""

    residual: float
    passed: bool
    tol: float = TRACE_PRESERVATION_TOL


def identity_channel(dim: int) -> KrausChannel:
    """The do-nothing channel {I}."""
    _require_at_least("dim", dim, 1)
    return KrausChannel(dim, (np.eye(dim, dtype=np.complex128),))


def unitary_channel(u) -> KrausChannel:
    """Channel with the single Kraus operator u."""
    u = as_matrix(u)
    return KrausChannel(len(u), u[None])


def convex_unitary_mixture(unitaries, probs) -> KrausChannel:
    """Channel sum_k p_k U_k rho U_k† as Kraus operators {sqrt(p_k) U_k}."""
    if np.ndim(probs) != 1 or len(unitaries) != len(probs):
        raise ValueError("need one probability per unitary")
    probs = np.array([_require_real("probs", p, 0.0, False) for p in probs])
    if abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    ops = tuple(np.sqrt(p) * as_matrix(u) for p, u in zip(probs, unitaries))
    return KrausChannel(ops[0].shape[0], ops)


def validate(ch: KrausChannel, tol: float = TRACE_PRESERVATION_TOL) -> ValidationReport:
    """Report the trace-preservation residual ||sum_k E_k† E_k - I||_F.

    ``tol`` must be a finite number above 0, else ValueError.
    """
    tol = _require_real("tol", tol, 0.0, True)
    residual = float(_trace_residuals(ch.kraus[None])[0])
    return ValidationReport(residual=residual, passed=bool(residual <= tol), tol=tol)


def _trace_residuals(kraus: np.ndarray) -> np.ndarray:
    """||sum_k E_k† E_k - I||_F of each channel of a (B, K, n, n) Kraus stack."""
    acc = np.einsum("bkji,bkjl->bil", kraus.conj(), kraus)
    return np.linalg.norm(acc - np.eye(kraus.shape[-1]), axis=(-2, -1))


def _check_trace_residuals(residuals: np.ndarray) -> None:
    """Raise ChannelValidationError for the first residual above
    TRACE_PRESERVATION_TOL, in stack order."""
    failed = np.flatnonzero(~(residuals <= TRACE_PRESERVATION_TOL))
    if failed.size:
        raise ChannelValidationError(
            f"channel is not trace preserving (residual {residuals[failed[0]]:.3e}"
            f" > {TRACE_PRESERVATION_TOL:.1e})"
        )


def require_trace_preserving(ch: KrausChannel) -> None:
    """Raise ChannelValidationError if the channel is not trace preserving
    within TRACE_PRESERVATION_TOL."""
    _check_trace_residuals(_trace_residuals(ch.kraus[None]))


def apply_channel(ch: KrausChannel, rho) -> np.ndarray:
    """Apply the channel to a density matrix: sum_k E_k rho E_k†."""
    rho = as_matrix(rho)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"state shape {rho.shape} does not match channel dim {ch.dim}")
    if np.linalg.norm(rho - rho.conj().T) > 1e-9 * max(1.0, float(np.linalg.norm(rho))):
        raise ValueError("state must be Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise ValueError("state must have unit trace")
    return (ch.kraus @ rho @ ch.kraus.conj().transpose(0, 2, 1)).sum(axis=0)


def kraus_to_chi(ch: KrausChannel) -> ChiMatrix:
    """Process matrix chi_{jl} = sum_k c_{kj} c*_{kl} with c_k = vec(E_k).

    ``vec`` is row-major flattening, matching the A_j = |m><n| basis with
    j = m*dim + n. The result is Hermitian PSD by construction.
    """
    v = ch.kraus.reshape(ch.n_ops, -1)
    chi = v.T @ v.conj()
    return ChiMatrix(ch.dim, chi)


def chi_to_kraus(x: ChiMatrix) -> KrausChannel:
    """Recover Kraus operators from a chi matrix by eigendecomposition.

    E_k = sqrt(lambda_k) * unvec(v_k) for eigenpairs of chi; eigenvalues at
    or below RANK_CUTOFF * max(1, lambda_max) are dropped, the rank rule of
    :func:`canonicalize`. Raises ChannelValidationError when chi fails
    Hermiticity or PSD beyond a relative 1e-9.
    """
    mat = x.mat
    if np.linalg.norm(mat - mat.conj().T) > 1e-9 * max(1.0, float(np.linalg.norm(mat))):
        raise ChannelValidationError("chi matrix is not Hermitian")
    vals, vecs = np.linalg.eigh(mat)  # ascending
    scale = max(1.0, float(vals[-1]))
    if vals[0] < -1e-9 * scale:
        raise ChannelValidationError(f"chi matrix is not PSD (min eigenvalue {vals[0]:.3e})")
    keep = np.flatnonzero(vals > RANK_CUTOFF * scale)[::-1]
    if not keep.size:
        raise ChannelValidationError("chi matrix has no weight above the rank cutoff")
    ops = np.sqrt(vals[keep])[:, None] * vecs[:, keep].T
    return KrausChannel(x.dim, ops.reshape(-1, x.dim, x.dim))


def _canonical_stack(kraus: np.ndarray):
    """Canonical form of a (B, K, n, n) stack of Kraus sets.

    One batched ``eigh`` of the correlation matrices; its R = min(K, n^2)
    largest eigenpairs (a Gram matrix of vectors in C^(n^2) has no more
    nonzero ones) give the weights (B, R) and the operators (B, R, n, n).
    R is fixed by shape, so no channel's set depends on the rest of its
    stack. A weight at or below RANK_CUTOFF * max(1, w_0), w_0 the
    channel's largest, and its operator are zero.
    """
    n_batch, k, n = kraus.shape[:3]
    flat = kraus.reshape(n_batch, k, n * n)
    corr = np.einsum("bjx,bkx->bjk", flat.conj(), flat)
    vals, vecs = np.linalg.eigh(corr)
    top = slice(-1, -min(k, n * n) - 1, -1)  # eigh sorts ascending
    vals, vecs = vals[:, top], vecs[:, :, top]
    keep = vals > RANK_CUTOFF * np.maximum(1.0, vals[:, :1])
    ops = np.einsum("bji,bjxy->bixy", vecs, kraus)
    return np.where(keep, vals, 0.0), np.where(keep[..., None, None], ops, 0.0)


def canonicalize(ch: KrausChannel) -> CanonicalKraus:
    """Diagonalize the correlation matrix W_jk = <E_j, E_k> into orthogonal form.

    With W = u† D u (D descending), the operators F_i = sum_j conj(u[i, j]) E_j
    satisfy <F_i, F_k> = delta_ik D_kk and represent the same channel.
    Of the at most dim^2 combinations, those with weight at or below
    RANK_CUTOFF * max(1, D_00) are discarded, so scaling the set by c scales
    the weights by c^2 and keeps the rank.
    """
    weights, ops = _canonical_stack(ch.kraus[None])
    rank = np.count_nonzero(weights[0])
    ops.flags.writeable = False
    weights.flags.writeable = False
    return CanonicalKraus(dim=ch.dim, ops=ops[0, :rank], weights=weights[0, :rank])


def _unitary_multiples(s: np.ndarray):
    """Which operators F satisfy F† F = c I, from singular values s (..., n).

    F† F = V diag(s^2) V†, so ||F† F - c I||_F = ||s^2 - mean(s^2)||_2. The
    test holds within PROPORTIONALITY_TOL, relative to max(1, tr F† F); a
    zero operator passes. Returns the (...) flags and c = tr(F† F) / n.
    """
    sq = s * s
    c = sq.mean(axis=-1)
    dev = np.linalg.norm(sq - c[..., None], axis=-1)
    return dev <= PROPORTIONALITY_TOL * np.maximum(1.0, c * s.shape[-1]), c


def as_mixed_unitary(ck: CanonicalKraus) -> MixedUnitaryForm | None:
    """Extract E_k = alpha_k U_k structure from a canonical Kraus set.

    Each operator is tested for F† F proportional to I within
    PROPORTIONALITY_TOL (Frobenius norm, relative to max(1, tr F† F)), the
    DU core's test. Returns None when any operator fails; this is the
    regular "not mixed-unitary" outcome, not an error. ``ck.ops`` may be
    any (K, n, n) array or sequence of n x n operators.
    """
    ops = np.asarray(ck.ops, dtype=np.complex128)
    ok, c = _unitary_multiples(_svd_polar(ops)[0])
    if not ok.all():
        return None
    a = np.sqrt(c)
    u = ops / a[:, None, None]
    flat = u.reshape(len(u), -1)
    first = flat[np.arange(len(u)), np.argmax(np.abs(flat) > 1e-12, axis=1)]  # row-major
    phase = np.where(np.abs(first) > 1e-12, first / np.abs(first), 1.0)
    unitaries = u / phase[:, None, None]
    coefficients = a * phase
    unitaries.flags.writeable = coefficients.flags.writeable = False
    return MixedUnitaryForm(dim=ck.dim, unitaries=unitaries, coefficients=coefficients)


def _check_standard(kind: str, param) -> float:
    """``param`` as a float; ValueError unless it is a real number (not a
    boolean) in [0, 1] and ``kind`` is one of STANDARD_KINDS."""
    if not _is_real(param):
        raise ValueError(f"parameter must be a real number, got {param!r}")
    if not 0.0 <= param <= 1.0:
        raise ValueError(f"parameter must be in [0, 1], got {param}")
    if kind not in STANDARD_KINDS:
        raise ValueError(f"unknown channel kind {kind!r}; expected one of {STANDARD_KINDS}")
    return float(param)


# The Pauli families' weights on I, X, Y, Z at parameter p are a + b * p,
# which rounds exactly as the formulas 1 - 3p/4, p/4, p and 1 - p do.
_PAULI_WEIGHTS = {
    "depolarizing": np.array([(1.0, 0.0, 0.0, 0.0), (-0.75, 0.25, 0.25, 0.25)]),
    "bit_flip": np.array([(0.0, 1.0, 0.0, 0.0), (1.0, -1.0, 0.0, 0.0)]),
    "phase_flip": np.array([(0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, -1.0)]),
}


def _standard_kraus(kind: str, params: np.ndarray) -> np.ndarray:
    """The Kraus sets of :func:`standard_channel` at every parameter of a
    1-D float array, built in whole-array operations: one (B, 4, 2, 2)
    complex128 stack, zero where a coefficient is zero and in amplitude
    damping's unused slots. ``kind`` and ``params`` are taken as valid."""
    kraus = np.zeros((len(params), 4, 2, 2), dtype=np.complex128)
    if kind == "amplitude_damping":
        kraus[:, 0, 0, 0] = 1.0
        kraus[:, 0, 1, 1] = np.sqrt(1.0 - params)
        kraus[:, 1, 0, 1] = np.sqrt(params)
    else:
        a, b = _PAULI_WEIGHTS[kind]
        kraus[:] = np.sqrt(a + params[:, None] * b)[:, :, None, None] * _PAULIS
    return kraus


def standard_channel(kind: str, param: float) -> KrausChannel:
    """Standard single-qubit noise channels.

    depolarizing (p):      sqrt(1-3p/4) I, sqrt(p/4) X, sqrt(p/4) Y, sqrt(p/4) Z
    bit_flip (p):          sqrt(p) I, sqrt(1-p) X
    phase_flip (p):        sqrt(p) I, sqrt(1-p) Z
    amplitude_damping (g): [[1, 0], [0, sqrt(1-g)]], [[0, sqrt(g)], [0, 0]]

    Operators with an exactly zero coefficient are omitted, so e.g.
    depolarizing at p = 0 is the single-operator identity channel. A kind
    not in STANDARD_KINDS or a parameter outside [0, 1] is a ValueError.
    The Kraus set is the family builder's on a grid of one, the one that
    :func:`~unitarity.harness.run_table1` runs over its whole grid, less its
    zero operators: an operator is zero exactly when its coefficient is.
    """
    ops = _standard_kraus(kind, np.array([_check_standard(kind, param)]))[0]
    return KrausChannel(2, ops[ops.any(axis=(1, 2))])


def _closed_forms(kind: str, p: np.ndarray) -> np.ndarray:
    """The closed forms of :func:`closed_form_du` at every parameter of a
    1-D float array, in whole-array operations."""
    if kind == "depolarizing":
        return np.maximum(0.25 * p, 1.0 - 0.75 * p)
    if kind == "amplitude_damping":
        return (1.0 + np.sqrt(1.0 - p)) ** 2 / 4.0
    return np.maximum(p, 1.0 - p)  # bit_flip, phase_flip


def closed_form_du(kind: str, param: float) -> float:
    """Reference DU for the standard single-qubit channel families, as a
    Python float: the paper's Table 1 formulas, kept literal rather than
    derived from the Kraus sets they check, by the array code that
    :func:`~unitarity.harness.run_table1` runs over its whole grid, here on
    a grid of one. Rejects what :func:`standard_channel` rejects."""
    return float(_closed_forms(kind, np.array([_check_standard(kind, param)]))[0])


def _dilation_kraus_stack(sys_dim: int, env_dim: int, rngs) -> np.ndarray:
    """Kraus stack of one Haar-dilation channel per generator.

    Each generator draws the Ginibre matrix of one Haar unitary U of
    dimension sys_dim * env_dim, and E_k = (I (x) <k|) U (I (x) |0>) for
    k < env_dim. Returns shape (len(rngs), env_dim, sys_dim, sys_dim). Only
    the columns b * env_dim of U, the system columns with the environment in
    |0>, are formed: one batched QR factors the leading
    (sys_dim - 1) * env_dim + 1 columns of every draw and none of the rest.
    """
    _require_at_least("sys_dim", sys_dim, 2)
    _require_at_least("env_dim", env_dim, 1)
    n, d = sys_dim, env_dim
    u = haar_from_ginibre(ginibre_stack(n * d, rngs)[:, 0], d * np.arange(n))
    # row a * d + k of U is system row a with the environment in |k>
    return np.ascontiguousarray(u.reshape(-1, n, d, n).transpose(0, 2, 1, 3))


def random_channel(sys_dim: int, env_dim: int, rng: np.random.Generator) -> KrausChannel:
    """Random channel from a Haar unitary on system (x) environment.

    Draws a Haar unitary of dimension sys_dim * env_dim, couples the system
    to the environment in |0>, and traces it out:
    E_k = (I (x) <k|) U (I (x) |0>) for k < env_dim. Trace preserving by
    construction. Any other fixed environment state |e> = V|0> gives the
    same ensemble, since U (I (x) V) is Haar whenever U is, so only the
    environment's dimension matters. A batch of one of the samplers' stack,
    so a sampler record's seed regenerates its channel bit for bit.
    """
    return KrausChannel(sys_dim, _dilation_kraus_stack(sys_dim, env_dim, [rng])[0])


def compose(f: KrausChannel, e: KrausChannel) -> KrausChannel:
    """Composition f after e, with Kraus set {F_j E_k} compressed to the
    canonical orthogonal form (at most dim^2 operators)."""
    if f.dim != e.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {e.dim}")
    products = (f.kraus[:, None] @ e.kraus).reshape(-1, f.dim, f.dim)
    ck = canonicalize(KrausChannel(f.dim, products))
    return KrausChannel(f.dim, ck.ops)
