"""Degree of unitarity (DU) of a quantum channel.

DU is the maximal process fidelity between the channel and any unitary:
max_U sum_k |tr(U† E_k)|^2 / n^2. It ranges from 1/n^2 (maximal
depolarizing) to 1 (unitary channel).

Four routes are implemented:

* exact value for channels whose canonical Kraus operators are proportional
  to pairwise-orthogonal unitaries (max_k |alpha_k|^2 with witness U_k);
* exact value for every qubit channel, evaluated over a stack of channels
  at once. A qubit unitary is a phase times x0 I + i x.sigma with x a real
  unit 4-vector, so the objective is x^T A x for a real symmetric PSD 4x4
  matrix A, and DU = lambda_max(A) / 4 with the top eigenvector as
  witness. The bulk samplers (:mod:`unitarity.harness`) use it;
* certified lower/upper bounds from the singular values of the canonical
  operators and the polar-decomposition nearest unitaries;
* a fixed-point ascent over the unitary group. The objective
  f(U) = sum_k |<U, E_k>|^2 is a PSD quadratic form in U, so linearizing at
  U and projecting the gradient back to the unitary manifold
  (U <- polar(sum_k tr(E_k† U) E_k)) is monotonically non-decreasing. The
  ascent runs from Haar-random restarts plus the two bound witnesses as
  warm starts, which also guarantees the result never falls below the
  lower bounds.

The dispatcher :func:`du` picks the mixed-unitary exact path when
available, otherwise the optimizer (qubit channels included), and always
attaches the bound report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    CanonicalKraus,
    KrausChannel,
    MixedUnitaryForm,
    as_mixed_unitary,
    canonicalize,
    require_trace_preserving,
)
from .linalg import ginibre_stack, haar_from_ginibre, polar

EXACT_METHOD = "exact_mixed_unitary"
OPTIMIZER_METHOD = "numerical_optimizer"

# Orthogonality tolerance on |<U_i, U_k>| for the exact path hypothesis.
ORTHOGONALITY_TOL = 1e-8

# Ascent stops when the objective improves by less than this per sweep.
CONVERGENCE_TOL = 1e-12
MAX_ITERATIONS = 10_000
DEFAULT_RESTARTS = 32

# Bound-consistency guard: computed value must sit in [lb - BOUND_SLACK,
# ub + BOUND_SLACK].
BOUND_SLACK = 1e-9


class OrthogonalityError(ValueError):
    """Exact-path hypothesis violated: unitaries are not pairwise orthogonal."""


@dataclass(frozen=True, eq=False)
class DuResult:
    """Best available DU value with the (near-)maximizing unitary witness.

    ``iterations`` is the winning start's own sweep count (0 on the exact
    path), and ``objective_trace``, when requested, that start's objective
    before and after each sweep.
    """

    value: float
    method: str
    witness: np.ndarray
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...] | None = None


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Certified DU bounds from the canonical Kraus singular values.

    lb1 uses the polar unitary of the operator with the largest Frobenius
    norm, lb2 the one with the largest nuclear norm (ties break to the
    lowest canonical index). lb1_simplified keeps only the leading
    operator's own contribution, (sum_j sigma_1j)^2 / n^2. The upper bound
    sum_i (sum_j sigma_ij)^2 / n^2 never exceeds 1 for a trace-preserving
    channel.
    """

    lb1: float
    lb1_simplified: float
    lb2: float
    ub: float
    singular_values: tuple[np.ndarray, ...]
    witness_lb1: np.ndarray
    witness_lb2: np.ndarray


def du_exact_mixed_unitary(mu: MixedUnitaryForm) -> DuResult:
    """Exact DU of a channel written with pairwise-orthogonal unitaries.

    For E_k = alpha_k U_k with <U_i, U_k> = 0 for i != k, the DU equals
    max_k |alpha_k|^2 and the corresponding U_k is a maximizer.
    """
    n = mu.dim
    for i in range(len(mu.unitaries)):
        for k in range(i + 1, len(mu.unitaries)):
            overlap = abs(np.vdot(mu.unitaries[i], mu.unitaries[k]))
            if overlap > ORTHOGONALITY_TOL * n:
                raise OrthogonalityError(
                    f"unitaries {i} and {k} overlap by {overlap:.3e}; "
                    "use the bounds/optimizer path"
                )
    weights = np.abs(mu.coefficients) ** 2
    best = int(np.argmax(weights))
    return DuResult(
        value=float(weights[best]),
        method=EXACT_METHOD,
        witness=mu.unitaries[best],
        iterations=0,
        converged=True,
    )


def du_bounds(ck: CanonicalKraus) -> BoundReport:
    """Lower and upper DU bounds for a canonical (orthogonal) Kraus set."""
    n = ck.dim
    ops = np.stack(ck.ops)
    svals = np.linalg.svd(ops, compute_uv=False)
    fro2 = (svals**2).sum(axis=1)
    nuc = svals.sum(axis=1)
    i_fro = int(np.argmax(fro2))
    i_nuc = int(np.argmax(nuc))
    w1 = polar(ops[i_fro]).unitary
    w0 = polar(ops[i_nuc]).unitary
    lb1 = float(np.sum(np.abs([np.vdot(w1, op) for op in ops]) ** 2)) / n**2
    lb2 = float(np.sum(np.abs([np.vdot(w0, op) for op in ops]) ** 2)) / n**2
    lb1_simplified = float(nuc[i_fro] ** 2) / n**2
    ub = float(np.sum(nuc**2)) / n**2
    return BoundReport(
        lb1=lb1,
        lb1_simplified=lb1_simplified,
        lb2=lb2,
        ub=ub,
        singular_values=tuple(svals[i].copy() for i in range(len(ck.ops))),
        witness_lb1=w1,
        witness_lb2=w0,
    )


# Every qubit unitary is a phase times sum_p x_p _QUBIT_BASIS[p] with x a
# real unit 4-vector.
_QUBIT_BASIS = np.stack([PAULI_I, 1j * PAULI_X, 1j * PAULI_Y, 1j * PAULI_Z])


def _qubit_du_stack(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact DU and SU(2) witnesses of a stack of qubit Kraus sets.

    ops has shape (B, K, 2, 2). With c_kp = <_QUBIT_BASIS[p], E_k>,
    sum_k |tr(U† E_k)|^2 = x^T A x for the real symmetric PSD matrix
    A = Re(c† c), so DU = lambda_max(A) / 4 and the top eigenvector x gives
    the witness. Returns values (B,) and witnesses (B, 2, 2).
    """
    c = np.einsum("pij,bkij->bkp", _QUBIT_BASIS.conj(), ops)
    a = np.einsum("bkp,bkq->bpq", c.conj(), c).real
    vals, vecs = np.linalg.eigh(a)
    witnesses = np.einsum("bp,pij->bij", vecs[:, :, -1], _QUBIT_BASIS)
    return vals[:, -1] / 4.0, witnesses


def _polar_unitary_stack(a: np.ndarray) -> np.ndarray:
    """Unitary polar factors of a stack of square matrices."""
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def _ascend(
    ops: np.ndarray,
    starts: np.ndarray,
    tol: float,
    max_iter: int,
    want_trace: bool,
):
    """Fixed-point ascent from a stack of unitary starts.

    Returns (objectives, unitaries, sweeps, converged_flags, traces).
    Objectives are the raw f(U) = sum_k |<U, F_k>|^2 values; ``sweeps``
    counts each start's own sweeps until it converged or the cap stopped it,
    so a start's trace has sweeps + 1 entries. An ascent step
    that decreases the objective beyond floating-point noise indicates a
    broken update and raises ArithmeticError.
    """
    u = starts.copy()
    ov = np.einsum("kij,sij->sk", ops.conj(), u)
    f = (np.abs(ov) ** 2).sum(axis=1)
    n_starts = u.shape[0]
    converged = np.zeros(n_starts, dtype=bool)
    sweeps = np.zeros(n_starts, dtype=int)
    iterations = 0
    traces = [[float(v)] for v in f] if want_trace else None
    active = np.arange(n_starts)
    while active.size and iterations < max_iter:
        g = np.einsum("sk,kij->sij", ov[active], ops)
        u_new = _polar_unitary_stack(g)
        ov_new = np.einsum("kij,sij->sk", ops.conj(), u_new)
        f_new = (np.abs(ov_new) ** 2).sum(axis=1)
        delta = f_new - f[active]
        if np.any(delta < -1e-10 * np.maximum(1.0, f[active])):
            raise ArithmeticError("ascent step decreased the objective")
        u[active] = u_new
        ov[active] = ov_new
        f[active] = f_new
        if want_trace:
            for idx, val in zip(active, f_new):
                traces[idx].append(float(val))
        iterations += 1
        sweeps[active] = iterations
        done = np.abs(delta) < tol
        converged[active[done]] = True
        active = active[~done]
    return f, u, sweeps, converged, traces


def _optimize_canonical(
    ck: CanonicalKraus,
    restarts: int,
    rng: np.random.Generator,
    bounds: BoundReport,
    tol: float,
    max_iter: int,
    trace: bool,
) -> DuResult:
    n = ck.dim
    ops = np.stack(ck.ops)
    starts = np.concatenate(
        [
            np.stack([bounds.witness_lb1, bounds.witness_lb2]),
            haar_from_ginibre(ginibre_stack(n, [rng], restarts))[0],
        ]
    )
    f, u, sweeps, converged, traces = _ascend(ops, starts, tol, max_iter, trace)
    best = int(np.argmax(f))
    return DuResult(
        value=float(f[best]) / n**2,
        method=OPTIMIZER_METHOD,
        witness=np.ascontiguousarray(u[best]),
        iterations=int(sweeps[best]),
        converged=bool(converged[best]),
        objective_trace=tuple(traces[best]) if trace else None,
    )


def du_optimize(
    ch: KrausChannel,
    restarts: int = DEFAULT_RESTARTS,
    rng: np.random.Generator | None = None,
    *,
    tol: float = CONVERGENCE_TOL,
    max_iter: int = MAX_ITERATIONS,
    trace: bool = False,
) -> DuResult:
    """Numerical DU via monotone fixed-point ascent over the unitary group.

    Runs ``restarts`` Haar-random starts plus the two bound witnesses as
    warm starts; a start is converged when its objective improves by less
    than ``tol`` in a sweep. ``converged`` reports the best run's own flag.
    With ``trace=True`` the best run's objective sequence is attached.

    ``rng`` defaults to a fixed-seed generator so repeated calls are
    deterministic.
    """
    require_trace_preserving(ch)
    if rng is None:
        rng = np.random.default_rng(0)
    ck = canonicalize(ch)
    bounds = du_bounds(ck)
    return _optimize_canonical(ck, restarts, rng, bounds, tol, max_iter, trace)


def du(
    ch: KrausChannel,
    restarts: int = DEFAULT_RESTARTS,
    rng: np.random.Generator | None = None,
) -> tuple[DuResult, BoundReport]:
    """Best certified DU of a channel, with its bound report.

    Canonicalizes the channel and takes the exact mixed-unitary path when
    the canonical operators are proportional to orthogonal unitaries;
    otherwise falls back to the numerical optimizer. The returned value is
    checked against the bounds (lb - 1e-9 <= value <= ub + 1e-9).
    """
    require_trace_preserving(ch)
    if rng is None:
        rng = np.random.default_rng(0)
    ck = canonicalize(ch)
    bounds = du_bounds(ck)
    mu = as_mixed_unitary(ck)
    if mu is not None:
        result = du_exact_mixed_unitary(mu)
    else:
        result = _optimize_canonical(
            ck, restarts, rng, bounds, CONVERGENCE_TOL, MAX_ITERATIONS, False
        )
    lb = max(bounds.lb1, bounds.lb2)
    if not (lb - BOUND_SLACK <= result.value <= bounds.ub + BOUND_SLACK):
        raise ArithmeticError(
            f"DU value {result.value!r} escapes bounds [{lb!r}, {bounds.ub!r}]"
        )
    return result, bounds
