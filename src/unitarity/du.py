"""Degree of unitarity (DU) of a quantum channel.

DU is the maximal process fidelity between the channel and any unitary:
max_U sum_k |tr(U† E_k)|^2 / n^2. It ranges from 1/n^2 (maximal
depolarizing) to 1 (unitary channel).

There is one pipeline, :func:`_du_stack`. It takes a (B, K, n, n) stack of
Kraus sets with one generator per channel and runs each stage once over
the whole stack:

1. the canonical orthogonal Kraus form (one batched ``eigh``);
2. certified lower/upper bounds from the singular values of the canonical
   operators and their polar-decomposition nearest unitaries, all from one
   call of the kernel :func:`~unitarity.linalg._svd_polar` (closed form for
   qubits, one batched SVD otherwise);
3. the exact value for channels whose canonical operators are all
   proportional to unitaries (all singular values of each equal, read from
   stage 2): max_k |alpha_k|^2 = w_0 / n with the lb1 witness polar(F_0);
4. the exact value for every other qubit channel. A qubit unitary is a
   phase times x0 I + i x.sigma with x a real unit 4-vector, so the
   objective is x^T A x for a real symmetric PSD 4x4 matrix A, and
   DU = lambda_max(A) / 4 with the top eigenvector as witness;
5. a fixed-point ascent over the unitary group for every other channel.
   The objective f(U) = sum_k |<U, E_k>|^2 is a PSD quadratic form in U,
   so linearizing at U and projecting the gradient back to the unitary
   manifold (U <- polar(sum_k tr(E_k† U) E_k)) is monotonically
   non-decreasing. The ascent runs from Haar-random restarts plus the two
   bound witnesses as warm starts, which also guarantees the result never
   falls below the lower bounds.

The public functions are batches of one: :func:`du` is the whole
pipeline, :func:`du_bounds` stage 2 and :func:`du_optimize` stages 1, 2
and 5 (the reference the exact routes are tested against). The bulk
samplers of :mod:`unitarity.harness` feed the pipeline a chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    CanonicalKraus,
    KrausChannel,
    MixedUnitaryForm,
    _canonical_stack,
    _unitary_multiples,
    require_trace_preserving,
)
from .linalg import _svd_polar, ginibre_stack, haar_from_ginibre

EXACT_METHOD = "exact_mixed_unitary"
QUBIT_METHOD = "exact_qubit"
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
    routes), and ``objective_trace``, when requested, that start's objective
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

    lb1 uses the polar unitary of the leading canonical operator (the
    largest weight, which is its squared Frobenius norm), lb2 the one with
    the largest nuclear norm (ties break to the lowest canonical index).
    lb1_simplified keeps only the leading operator's own contribution,
    (sum_j sigma_1j)^2 / n^2. The upper bound
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


class _BoundStack(NamedTuple):
    """The bound stage over a stack of B canonical Kraus sets."""

    singular_values: np.ndarray  # (B, K, n)
    lb1: np.ndarray
    lb1_simplified: np.ndarray
    lb2: np.ndarray
    ub: np.ndarray
    witnesses: np.ndarray  # (B, 2, n, n): the lb1 then the lb2 witness


def _bound_report(s, i: int) -> BoundReport:
    """Channel i of a :class:`_BoundStack` or :class:`_DuStack`."""
    return BoundReport(
        lb1=float(s.lb1[i]),
        lb1_simplified=float(s.lb1_simplified[i]),
        lb2=float(s.lb2[i]),
        ub=float(s.ub[i]),
        singular_values=tuple(sv.copy() for sv in s.singular_values[i]),
        witness_lb1=s.witnesses[i, 0],
        witness_lb2=s.witnesses[i, 1],
    )


def _bound_stack(ops: np.ndarray) -> _BoundStack:
    """Bounds of a (B, K, n, n) stack of canonical operators.

    One :func:`~unitarity.linalg._svd_polar` call gives the singular values
    and polar factors of every operator, at every n; :func:`_du_stack` reads
    its exact mixed-unitary test from the same singular values.
    """
    n = ops.shape[-1]
    svals, polars = _svd_polar(ops)
    nuc = svals.sum(axis=-1)
    # per channel, operator 0 and the one of largest nuclear norm
    w = polars[np.arange(len(ops))[:, None], np.argmax(nuc, axis=1)[:, None] * [0, 1]]
    lb = (np.abs(np.einsum("bkij,bwij->bwk", ops.conj(), w)) ** 2).sum(axis=-1) / n**2
    return _BoundStack(
        singular_values=svals,
        lb1=lb[:, 0],
        lb1_simplified=nuc[:, 0] ** 2 / n**2,
        lb2=lb[:, 1],
        ub=(nuc**2).sum(axis=1) / n**2,
        witnesses=w,
    )


def du_bounds(ck: CanonicalKraus) -> BoundReport:
    """Lower and upper DU bounds for a canonical (orthogonal) Kraus set."""
    return _bound_report(_bound_stack(np.stack(ck.ops)[None]), 0)


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


def _require_at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _ascend(
    ops: np.ndarray,
    warm: np.ndarray,
    rngs,
    restarts: int,
    want_trace: bool,
):
    """Fixed-point ascent of each channel of an (A, K, n, n) canonical stack.

    Each channel starts from its warm starts ``warm`` (A, W, n, n) plus
    ``restarts`` Haar unitaries that its generator draws as one stack. Each
    start retires on its own once its objective improves by less than
    CONVERGENCE_TOL in a sweep, and only the starts still ascending are
    polar-decomposed; no start takes more than MAX_ITERATIONS sweeps.
    Returns, for each channel's best start, its DU, its unitary, its own
    sweep count, whether it converged before the cap, and with
    ``want_trace`` its raw objectives f(U) = sum_k |<U, F_k>|^2 before and
    after each sweep. An ascent step that decreases the objective beyond
    floating-point noise indicates a broken update and raises
    ArithmeticError.
    """
    n = ops.shape[-1]
    u = np.concatenate([warm, haar_from_ginibre(ginibre_stack(n, rngs, restarts))], axis=1)
    a, p = u.shape[:2]
    u = u.reshape(a, p, n * n)
    flat = ops.reshape(a, -1, n * n)
    flat_h = np.ascontiguousarray(flat.conj().transpose(0, 2, 1))
    ov = u @ flat_h
    f = (np.abs(ov) ** 2).sum(axis=-1).ravel()
    sweeps = np.zeros(a * p, dtype=int)
    active = np.ones(a * p, dtype=bool)
    # f of every start after each sweep; a retired start's f stays fixed
    history = [f.copy()] if want_trace else None
    iterations = 0
    while active.any() and iterations < MAX_ITERATIONS:
        idx = np.flatnonzero(active)
        by_channel = active.reshape(a, p)
        ascending = by_channel.any(axis=1)
        live = slice(None) if ascending.all() else np.flatnonzero(ascending)
        act = by_channel[live]
        g = (ov[live] @ flat[live])[act]
        u.reshape(-1, n * n)[idx] = _svd_polar(g.reshape(-1, n, n))[1].reshape(-1, n * n)
        ov[live] = ov_live = u[live] @ flat_h[live]
        f_new = (np.abs(ov_live[act]) ** 2).sum(axis=-1)
        f_old = f[idx]
        delta = f_new - f_old
        if np.any(delta < -1e-10 * np.maximum(1.0, f_old)):
            raise ArithmeticError("ascent step decreased the objective")
        f[idx] = f_new
        iterations += 1
        sweeps[idx] = iterations
        active[idx[np.abs(delta) < CONVERGENCE_TOL]] = False
        if want_trace:
            history.append(f.copy())
    best = np.argmax(f.reshape(a, p), axis=1) + p * np.arange(a)
    return (
        f[best] / n**2,
        u.reshape(-1, n, n)[best],
        sweeps[best],
        ~active[best],
        [np.array(history)[: sweeps[i] + 1, i].tolist() for i in best] if want_trace else None,
    )


def du_optimize(
    ch: KrausChannel,
    restarts: int = DEFAULT_RESTARTS,
    rng: np.random.Generator | None = None,
    *,
    trace: bool = False,
) -> DuResult:
    """Numerical DU via monotone fixed-point ascent over the unitary group.

    Runs ``restarts`` Haar-random starts plus the two bound witnesses as
    warm starts; a start is converged when its objective improves by less
    than CONVERGENCE_TOL in a sweep before MAX_ITERATIONS sweeps.
    ``converged`` reports the best run's own flag.
    With ``trace=True`` the best run's objective sequence is attached.
    Takes the ascent for every channel, so it is the reference for the
    exact routes.

    ``rng`` defaults to a fixed-seed generator so repeated calls are
    deterministic.
    """
    require_trace_preserving(ch)
    _require_at_least("restarts", restarts, 0)
    if rng is None:
        rng = np.random.default_rng(0)
    _, ops, _ = _canonical_stack(np.stack(ch.kraus)[None])
    value, witness, sweeps, converged, traces = _ascend(
        ops, _bound_stack(ops).witnesses, [rng], restarts, trace
    )
    return DuResult(
        value=float(value[0]),
        method=OPTIMIZER_METHOD,
        witness=np.ascontiguousarray(witness[0]),
        iterations=int(sweeps[0]),
        converged=bool(converged[0]),
        objective_trace=tuple(traces[0]) if trace else None,
    )


class _DuStack(NamedTuple):
    """Results of :func:`_du_stack`, one entry per channel; the bound
    fields are those of :class:`_BoundStack`."""

    du: np.ndarray
    witness: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    exact: np.ndarray  # took the exact mixed-unitary route
    singular_values: np.ndarray
    lb1: np.ndarray
    lb1_simplified: np.ndarray
    lb2: np.ndarray
    ub: np.ndarray
    witnesses: np.ndarray


def _du_stack(kraus: np.ndarray, rngs, restarts: int) -> _DuStack:
    """DU with its bounds for a (B, K, n, n) stack of trace-preserving
    Kraus sets, one generator per channel.

    Every stage runs on the whole stack: canonical form, bounds, the exact
    mixed-unitary test, the exact qubit kernel for the other qubit
    channels, and for the other channels of dimension 3 and up the ascent,
    whose Haar restarts each channel's generator draws after its channel.
    Raises ArithmeticError when a value escapes its bounds by more than
    BOUND_SLACK, and ValueError when ``restarts`` is negative.
    """
    _require_at_least("restarts", restarts, 0)
    n = kraus.shape[-1]
    weights, ops, _ = _canonical_stack(kraus)
    bounds = _bound_stack(ops)
    exact = _unitary_multiples(bounds.singular_values)[0].all(axis=1)

    # the exact route's value and witness, which the other routes overwrite:
    # the leading operator has the largest weight, |alpha_0|^2 = weight / n,
    # and its polar factor, the lb1 witness, is phase * U_0
    value = weights[:, 0] / n
    witness = bounds.witnesses[:, 0].copy()
    iterations = np.zeros(len(ops), dtype=int)
    converged = np.ones(len(ops), dtype=bool)

    todo = np.flatnonzero(~exact)
    if todo.size and n == 2:
        value[todo], witness[todo] = _qubit_du_stack(ops[todo])
    elif todo.size:
        value[todo], witness[todo], iterations[todo], converged[todo], _ = _ascend(
            ops[todo], bounds.witnesses[todo], [rngs[b] for b in todo], restarts, False
        )

    lb = np.maximum(bounds.lb1, bounds.lb2)
    escaped = np.flatnonzero((value < lb - BOUND_SLACK) | (value > bounds.ub + BOUND_SLACK))
    if escaped.size:
        i = escaped[0]
        raise ArithmeticError(
            f"DU value {value[i]!r} escapes bounds [{lb[i]!r}, {bounds.ub[i]!r}]"
        )
    return _DuStack(value, witness, iterations, converged, exact, **bounds._asdict())


def du(
    ch: KrausChannel,
    restarts: int = DEFAULT_RESTARTS,
    rng: np.random.Generator | None = None,
) -> tuple[DuResult, BoundReport]:
    """Best certified DU of a channel, with its bound report.

    The DU core on a stack of one: the exact mixed-unitary route when the
    canonical operators are proportional to orthogonal unitaries, else the
    exact qubit kernel for a qubit channel, else the ascent from the bound
    witnesses and ``restarts`` Haar starts drawn from ``rng``. The value is
    checked against the bounds (lb - 1e-9 <= value <= ub + 1e-9).
    """
    require_trace_preserving(ch)
    if rng is None:
        rng = np.random.default_rng(0)
    s = _du_stack(np.stack(ch.kraus)[None], [rng], restarts)
    method = EXACT_METHOD if s.exact[0] else QUBIT_METHOD if ch.dim == 2 else OPTIMIZER_METHOD
    result = DuResult(
        value=float(s.du[0]),
        method=method,
        witness=s.witness[0],
        iterations=int(s.iterations[0]),
        converged=bool(s.converged[0]),
    )
    return result, _bound_report(s, 0)
