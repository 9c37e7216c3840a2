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
   falls below the lower bounds. Most starts of a channel climb into the
   same basin, so after each sweep a start whose unitary matches a better
   start's up to a global phase retires, one polar factor per basin rather
   than per start (the multistart rule MLSL, Rinnooy Kan & Timmer 1987).
   The better start is one that has not retired this way, and the winner is
   chosen among those too, so it is never a retired start and its sweep
   count and convergence flag are its own.

The stages fill one record, :class:`_DuStack`: stage 2 its bound fields,
then :func:`_du_stack` each channel's route, decided once, and its DU
fields. Every consumer reads that record. The public functions are batches
of one: :func:`du` is the whole pipeline, :func:`du_bounds` stage 2 and
:func:`du_optimize` stages 1, 2 and 5 (the reference the exact routes are
tested against). The drivers of :mod:`unitarity.harness` feed the pipeline
whole stacks: the bulk samplers a chunk at a time, the closed-form table
and the witness one stack per Kraus-stack shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import (
    _PAULIS,
    CanonicalKraus,
    KrausChannel,
    _canonical_stack,
    _unitary_multiples,
    require_trace_preserving,
)
from .linalg import _require_at_least, _svd_polar, ginibre_stack, haar_from_ginibre

EXACT_METHOD = "exact_mixed_unitary"
QUBIT_METHOD = "exact_qubit"
OPTIMIZER_METHOD = "numerical_optimizer"

# A start converges when its objective f improves by less than
# CONVERGENCE_TOL * max(1, f) in a sweep.
CONVERGENCE_TOL = 1e-12
# A start retires once its unitary matches a better start of its channel up
# to a global phase: |<U_a, U_b>| > n (1 - DUPLICATE_TOL).
DUPLICATE_TOL = 1e-6
MAX_ITERATIONS = 10_000
DEFAULT_RESTARTS = 32

# Bound-consistency guard: computed value must sit in [lb - BOUND_SLACK,
# ub + BOUND_SLACK].
BOUND_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class DuResult:
    """Best available DU value with the (near-)maximizing unitary witness.

    ``iterations`` is the winning start's own sweep count (0 on the exact
    routes), and ``objective_trace``, when requested, that start's objective
    before and after each sweep. ``sweeps_total`` is the sweeps of all starts
    together, one polar factor each: the ascent's real cost (0 on the exact
    routes).
    """

    value: float
    method: str
    witness: np.ndarray
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...] | None = None
    sweeps_total: int = 0


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Certified DU bounds from the canonical Kraus singular values.

    lb1 uses the polar unitary of the leading canonical operator (the
    largest weight, which is its squared Frobenius norm), lb2 the one with
    the largest nuclear norm (ties break to the lowest canonical index).
    lb1_simplified keeps only the leading operator's own contribution,
    (sum_j sigma_1j)^2 / n^2. The upper bound
    sum_i (sum_j sigma_ij)^2 / n^2 never exceeds 1 for a trace-preserving
    channel. ``singular_values`` is one read-only float array of shape
    (K, n): row i holds sigma_i1 >= ... >= sigma_in of canonical operator i.
    """

    lb1: float
    lb1_simplified: float
    lb2: float
    ub: float
    singular_values: np.ndarray
    witness_lb1: np.ndarray
    witness_lb2: np.ndarray


class _DuStack(NamedTuple):
    """The DU core's one record of a stack of B channels, one entry per
    channel. :func:`_bound_stack` sets the bound fields and leaves the DU
    fields at None; the routes fill those in with ``_replace``."""

    singular_values: np.ndarray  # (B, K, n)
    lb1: np.ndarray
    lb1_simplified: np.ndarray
    lb2: np.ndarray
    ub: np.ndarray
    witnesses: np.ndarray  # (B, 2, n, n): the lb1 then the lb2 witness
    du: np.ndarray | None = None
    witness: np.ndarray | None = None
    iterations: np.ndarray | None = None
    converged: np.ndarray | None = None
    sweeps_total: np.ndarray | None = None
    route: np.ndarray | None = None  # index into _ROUTES


# The route labels, in the order the DU core tries them.
_ROUTES = (EXACT_METHOD, QUBIT_METHOD, OPTIMIZER_METHOD)


def _bound_report(s: _DuStack) -> BoundReport:
    """The bounds of the only channel of a record of one."""
    return BoundReport(
        lb1=float(s.lb1[0]),
        lb1_simplified=float(s.lb1_simplified[0]),
        lb2=float(s.lb2[0]),
        ub=float(s.ub[0]),
        singular_values=s.singular_values[0],
        witness_lb1=s.witnesses[0, 0],
        witness_lb2=s.witnesses[0, 1],
    )


def _du_result(s: _DuStack, objective_trace: tuple[float, ...] | None = None) -> DuResult:
    """The DU result of the only channel of a record of one."""
    return DuResult(
        value=float(s.du[0]),
        method=_ROUTES[s.route[0]],
        witness=s.witness[0],
        iterations=int(s.iterations[0]),
        converged=bool(s.converged[0]),
        objective_trace=objective_trace,
        sweeps_total=int(s.sweeps_total[0]),
    )


def _bound_stack(ops: np.ndarray) -> _DuStack:
    """Bounds of a (B, K, n, n) stack of canonical operators.

    One :func:`~unitarity.linalg._svd_polar` call gives the singular values
    and polar factors of every operator, at every n; :func:`_du_stack` reads
    its exact mixed-unitary test from the same singular values.
    """
    n = ops.shape[-1]
    svals, polars = _svd_polar(ops)
    svals.flags.writeable = False  # BoundReport hands out views of it
    nuc = svals.sum(axis=-1)
    # per channel, operator 0 and the one of largest nuclear norm
    w = polars[np.arange(len(ops))[:, None], np.argmax(nuc, axis=1)[:, None] * [0, 1]]
    lb = (np.abs(np.einsum("bkij,bwij->bwk", ops.conj(), w)) ** 2).sum(axis=-1) / n**2
    return _DuStack(
        singular_values=svals,
        lb1=lb[:, 0],
        lb1_simplified=nuc[:, 0] ** 2 / n**2,
        lb2=lb[:, 1],
        ub=(nuc**2).sum(axis=1) / n**2,
        witnesses=w,
    )


def du_bounds(ck: CanonicalKraus) -> BoundReport:
    """Lower and upper DU bounds for a canonical (orthogonal) Kraus set,
    whose ``ops`` may be any (K, n, n) array or sequence of n x n operators."""
    return _bound_report(_bound_stack(np.asarray(ck.ops, dtype=np.complex128)[None]))


# Every qubit unitary is a phase times sum_p x_p _QUBIT_BASIS[p] with x a
# real unit 4-vector.
_QUBIT_BASIS = np.array([1, 1j, 1j, 1j])[:, None, None] * _PAULIS


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


def _ascend(
    ops: np.ndarray,
    warm: np.ndarray,
    rngs,
    restarts: int,
    want_trace: bool,
):
    """Fixed-point ascent of each channel of an (A, K, n, n) canonical stack.

    Each channel starts from its warm starts ``warm`` (A, W, n, n) plus
    ``restarts`` Haar unitaries that its generator draws as one stack, and
    only the starts still ascending are polar-decomposed. A start retires
    once its objective f improves by less than CONVERGENCE_TOL * max(1, f)
    in a sweep, after MAX_ITERATIONS sweeps, or once it has joined a better
    start: after each sweep, a start whose unitary matches, up to a global
    phase, one of its channel's starts that has not joined another
    (|<U_a, U_b>| > n (1 - DUPLICATE_TOL)) and is ahead of it (f_b > f_a,
    or f_b == f_a and b < a) retires as joined. The winner is the best start
    that never joined, so its sweep count, convergence flag and trace are
    its own ascent's; the start ahead of all others that have not joined
    never joins, so every channel keeps one.

    Returns, for each channel's winner, its DU, its unitary, its own sweep
    count, whether it converged, and with ``want_trace`` its raw objectives
    f(U) = sum_k |<U, F_k>|^2 before and after each sweep; and each
    channel's sweeps over all its starts, which is the number of polar
    factors the ascent computed for it. An ascent step that decreases the
    objective beyond floating-point noise indicates a broken update and
    raises ArithmeticError.
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
    joined = np.zeros((a, p), dtype=bool)
    earlier = np.tri(p, k=-1, dtype=bool)  # [a, b]: b < a
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
        u_live = u[live]
        ov[live] = ov_live = u_live @ flat_h[live]
        f_new = (np.abs(ov_live[act]) ** 2).sum(axis=-1)
        f_old = f[idx]
        delta = f_new - f_old
        if np.any(delta < -1e-10 * np.maximum(1.0, f_old)):
            raise ArithmeticError("ascent step decreased the objective")
        f[idx] = f_new
        iterations += 1
        sweeps[idx] = iterations
        active[idx[np.abs(delta) < CONVERGENCE_TOL * np.maximum(1.0, f_new)]] = False
        f_live = f.reshape(a, p)[live]
        ahead = (f_live[:, None, :] > f_live[:, :, None]) | (
            (f_live[:, None, :] == f_live[:, :, None]) & earlier
        )
        same = np.abs(u_live.conj() @ u_live.transpose(0, 2, 1)) > n * (1 - DUPLICATE_TOL)
        joins = (same & ahead & ~joined[live][:, None, :]).any(axis=2)
        joined[live] |= joins
        by_channel[live] &= ~joins
        if want_trace:
            history.append(f.copy())
    best = np.argmax(np.where(joined, -np.inf, f.reshape(a, p)), axis=1) + p * np.arange(a)
    return (
        f[best] / n**2,
        u.reshape(-1, n, n)[best],
        sweeps[best],
        ~active[best],
        [np.array(history)[: sweeps[i] + 1, i].tolist() for i in best] if want_trace else None,
        sweeps.reshape(a, p).sum(axis=1),
    )


def _stack_of_one(ch: KrausChannel, rng: np.random.Generator | None):
    """The prologue of :func:`du` and :func:`du_optimize`: the trace check, then
    the Kraus stack of one and its generator (seed 0 when ``rng`` is None)."""
    require_trace_preserving(ch)
    return ch.kraus[None], [np.random.default_rng(0) if rng is None else rng]


def du_optimize(
    ch: KrausChannel,
    restarts: int = DEFAULT_RESTARTS,
    rng: np.random.Generator | None = None,
    *,
    trace: bool = False,
) -> DuResult:
    """Numerical DU via monotone fixed-point ascent over the unitary group.

    Runs ``restarts`` Haar-random starts plus the two bound witnesses as
    warm starts; a start is converged when its objective f improves by less
    than CONVERGENCE_TOL * max(1, f) in a sweep before MAX_ITERATIONS
    sweeps, and retires early once it joins a better start (see
    :func:`_ascend`).
    ``converged`` reports the best run's own flag.
    With ``trace=True`` the best run's objective sequence is attached.
    Takes the ascent for every channel, so it is the reference for the
    exact routes.

    ``rng`` defaults to a fixed-seed generator so repeated calls are
    deterministic.
    """
    kraus, rngs = _stack_of_one(ch, rng)
    _require_at_least("restarts", restarts, 0)
    _, ops = _canonical_stack(kraus)
    bounds = _bound_stack(ops)
    value, witness, sweeps, converged, traces, sweeps_total = _ascend(
        ops, bounds.witnesses, rngs, restarts, trace
    )
    s = bounds._replace(du=value, witness=witness, iterations=sweeps, converged=converged,
                        sweeps_total=sweeps_total,
                        route=np.full(1, _ROUTES.index(OPTIMIZER_METHOD)))
    return _du_result(s, tuple(traces[0]) if trace else None)


def _du_stack(kraus: np.ndarray, rngs, restarts: int) -> _DuStack:
    """DU with its bounds for a (B, K, n, n) stack of trace-preserving
    Kraus sets, one generator per channel.

    Every stage runs on the whole stack: canonical form, bounds, the exact
    mixed-unitary test, the exact qubit kernel for the other qubit
    channels, and for the other channels of dimension 3 and up the ascent,
    whose Haar restarts each channel's generator draws after its channel.
    Each channel's route is decided here, once. Raises ArithmeticError when
    a value escapes its bounds by more than BOUND_SLACK, and ValueError
    when ``restarts`` is not an integer of at least 0.
    """
    _require_at_least("restarts", restarts, 0)
    n = kraus.shape[-1]
    weights, ops = _canonical_stack(kraus)
    bounds = _bound_stack(ops)
    exact = _unitary_multiples(bounds.singular_values)[0].all(axis=1)
    route = np.where(exact, 0, 1 if n == 2 else 2)  # indices into _ROUTES

    # the exact route's value and witness, which the other routes overwrite:
    # the leading operator has the largest weight, |alpha_0|^2 = weight / n,
    # and its polar factor, the lb1 witness, is phase * U_0
    value = weights[:, 0] / n
    witness = bounds.witnesses[:, 0].copy()
    iterations = np.zeros(len(ops), dtype=int)
    converged = np.ones(len(ops), dtype=bool)
    sweeps_total = np.zeros(len(ops), dtype=int)

    todo = np.flatnonzero(route)
    if todo.size and n == 2:
        value[todo], witness[todo] = _qubit_du_stack(ops[todo])
    elif todo.size:
        (value[todo], witness[todo], iterations[todo], converged[todo], _,
         sweeps_total[todo]) = _ascend(
            ops[todo], bounds.witnesses[todo], [rngs[b] for b in todo], restarts, False
        )

    lb = np.maximum(bounds.lb1, bounds.lb2)
    escaped = np.flatnonzero((value < lb - BOUND_SLACK) | (value > bounds.ub + BOUND_SLACK))
    if escaped.size:
        i = escaped[0]
        raise ArithmeticError(
            f"DU value {value[i]!r} escapes bounds [{lb[i]!r}, {bounds.ub[i]!r}]"
        )
    return bounds._replace(du=value, witness=witness, iterations=iterations,
                           converged=converged, sweeps_total=sweeps_total, route=route)


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
    s = _du_stack(*_stack_of_one(ch, rng), restarts)
    return _du_result(s), _bound_report(s)
