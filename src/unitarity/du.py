"""Degree of unitarity (DU) of a quantum channel.

DU is the maximal process fidelity between the channel and any unitary:
max_U sum_k |tr(U† E_k)|^2 / n^2. It ranges from 1/n^2 (maximal
depolarizing) to 1 (unitary channel).

There is one pipeline, :func:`_du_stack`. It takes a (B, K, n, n) stack of
Kraus sets with one generator per channel and runs each stage once over
the whole stack:

1. the canonical orthogonal Kraus form (one batched ``eigh``);
2. certified lower/upper bounds from the singular values of the canonical
   operators and the polar-decomposition nearest unitaries of two of them,
   from the kernel :func:`~unitarity.linalg._svd_polar` (closed form for
   qubits, one batched SVD otherwise) over every operator;
3. the exact value for channels whose leading canonical operator F_0 is
   proportional to a unitary (all its singular values equal, read from
   stage 2). The canonical operators are orthogonal with weights
   w_0 >= w_1 >= ..., so sum_k |<U, F_k>|^2 <= w_0 ||U||_F^2 = n w_0 for
   every unitary U, and F_0 = alpha U gives |<U, F_0>|^2 = n w_0. So
   DU = w_0 / n with the lb1 witness polar(F_0), whatever the other
   operators are;
4. the exact value for every other qubit channel. A qubit unitary is a
   phase times x0 I + i x.sigma with x a real unit 4-vector, so the
   objective is x^T A x for a real symmetric PSD 4x4 matrix A, and
   DU = lambda_max(A) / 4 with the top eigenvector as witness;
5. a fixed-point ascent over the unitary group for every other channel.
   The objective f(U) = sum_k |<U, E_k>|^2 is a PSD quadratic form in U,
   so linearizing at U and projecting the gradient back to the unitary
   manifold (U <- polar(sum_k tr(E_k† U) E_k)) is monotonically
   non-decreasing. That sweep converges linearly, so at n <= 8 a start
   whose sweep gains less than NEWTON_SWITCH_TOL * max(1, f) (1e-5 *
   max(1, f)) switches to Riemannian Newton steps on U(n) (Absil, Mahony &
   Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008), retracted
   by U <- polar(U (I + iH)) and kept only where they raise f, which
   converge quadratically to the start's fixed point. The ascent runs from
   Haar-random restarts plus the two bound witnesses as warm starts, which
   also guarantees the result never falls below the lower bounds. Most
   starts of a channel climb into the same basin, so after each sweep a
   start that has come within about 45% (sqrt(2 * 1e-1)) of a better start,
   up to a global phase and in Frobenius norm relative to ||U||_F =
   sqrt(n), retires: it is taken to be in that start's basin and need not
   climb to its fixed point (the multistart rule MLSL, Rinnooy Kan & Timmer
   1987). The better start is one that has not retired this way,
   and the winner is chosen among those too, so it is never a retired start
   and its sweep count and convergence flag are its own. A retired start
   was behind a start whose objective only rises, so the value never falls
   below the objective any start had when it retired. Once a channel's
   leader, its best start that has not retired this way, has converged, a
   start still climbing retires as a straggler when it trails the leader by
   more than STRAGGLER_RATIO (10) times its last sweep's gain: it is
   behind the leader, so it is never the winner, and only one that would
   have overtaken the leader could have changed the result.

The stages fill one record, :class:`_DuStack`: stage 2 its bound fields,
then :func:`_du_stack` each channel's route, decided once, and its DU
fields, checked against its bounds. Every consumer reads that record. The
public functions are batches of one: :func:`du` is the whole pipeline,
:func:`du_bounds` stage 2 and :func:`du_optimize` the pipeline with stage 5
for every channel (the reference the exact routes are tested against). The
drivers of :mod:`unitarity.harness` feed the pipeline whole stacks: the
bulk samplers a chunk at a time, the closed-form table one stack (zero
padding is exact on its orthogonal operators), the witness one per shape.

The package re-exports the function :func:`du`, which shadows this module,
so ``import unitarity.du as m`` binds the function and ``m.STRAGGLER_RATIO
= 2`` changes nothing. Reach the module by ``importlib.import_module(
"unitarity.du")``, or its names by ``from unitarity.du import NAME``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
# A start retires once it is in a better start's basin: its unitary is
# within sqrt(2 DUPLICATE_TOL) ||U||_F (about 45%) of that start's, up to a
# global phase, min_phi ||U_a - e^{i phi} U_b||_F < sqrt(2 DUPLICATE_TOL n),
# which is |<U_a, U_b>| > n (1 - DUPLICATE_TOL). Over 1456 random channels at
# n = 3..8, against a 14% radius (1e-2), no value fell by more than 1e-9 at
# this radius; at 2e-1 three did.
DUPLICATE_TOL = 1e-1
# Once a channel's leader (its best start that never joined, ties to the
# lowest index) has converged, a start still ascending retires as a
# straggler when it trails the leader by more than STRAGGLER_RATIO times its
# last sweep's gain delta: a sweep contracting at rate rho gains at most
# delta rho / (1 - rho) more, so 10 assumes rho <= 0.91. At 10 no value
# moved over the 3248 channels that sized DEFAULT_RESTARTS nor over the
# 880 of perfbench's n = 4 and 8 pools. On two pool channels a start still
# climbing when its leader converged later overtook it; it then trailed by
# 2.7 and 3.6 times its gain, so a ratio of 3 loses one of those values.
STRAGGLER_RATIO = 10.0
MAX_ITERATIONS = 10_000
# Haar starts after the two warm starts (the lb1 and lb2 witnesses). Over
# the 3248 random channels random_channel(n, env, default_rng([s, n, env,
# i])) at n = 3..8 (env in {2, 3, n, 2n, n^2/2}, i < 116) with s = 7,
# against 32 starts, no value fell by more than 1e-9 at 16 or at 12 starts.
# On the fresh set with s = 11, 12 starts lose two values against 16, by
# 1.27e-3 and 8.7e-5, and 8 starts lose ten; 16 starts miss one 32-start
# value, by 2.5e-4.
DEFAULT_RESTARTS = 16
# At n <= NEWTON_MAX_DIM a start takes Riemannian Newton steps once one of
# its polar sweeps gains less than NEWTON_SWITCH_TOL * max(1, f), late
# enough that Newton steps converge from there and early enough to cut most
# of the linearly converging polar tail. Above NEWTON_MAX_DIM the
# O(n^4)-entry Hessian costs more than the polar tail it replaces.
NEWTON_SWITCH_TOL = 1e-5
NEWTON_MAX_DIM = 8

# Bound-consistency guard: computed value must sit in [lb - BOUND_SLACK,
# ub + BOUND_SLACK].
BOUND_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class DuResult:
    """Best available DU value with the (near-)maximizing unitary witness.

    ``iterations`` is the winning start's own sweep count, a Newton step
    counting as one sweep (0 on the exact routes), and ``objective_trace``,
    when requested, that start's objective before and after each sweep.
    ``sweeps_total`` is the polar factors of all starts together, each up to
    the sweep in which it converged or retired, one per sweep or Newton step
    and two for a Newton step replaced by a polar sweep: the ascent's real
    cost (0 on the exact routes). ``witness`` is a read-only (n, n)
    complex128 array.
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
    The two witnesses are read-only (n, n) complex128 arrays.
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
    objective_traces: tuple | None = None  # on request; an entry is None off the ascent


# The route labels, in the order the DU core tries them.
_ROUTES = (EXACT_METHOD, QUBIT_METHOD, OPTIMIZER_METHOD)


def _bound_report(s: _DuStack) -> BoundReport:
    """The bounds of the only channel of a record of one, without the
    singular values of zero operators, such as those that fill its
    canonical width."""
    svals = s.singular_values[0]
    svals = svals[svals[:, 0] > 0]
    svals.flags.writeable = False
    return BoundReport(
        lb1=float(s.lb1[0]),
        lb1_simplified=float(s.lb1_simplified[0]),
        lb2=float(s.lb2[0]),
        ub=float(s.ub[0]),
        singular_values=svals,
        witness_lb1=s.witnesses[0, 0],
        witness_lb2=s.witnesses[0, 1],
    )


def _du_result(s: _DuStack) -> DuResult:
    """The DU result of the only channel of a record of one."""
    witness = s.witness[0]
    witness.flags.writeable = False
    return DuResult(
        value=float(s.du[0]),
        method=_ROUTES[s.route[0]],
        witness=witness,
        iterations=int(s.iterations[0]),
        converged=bool(s.converged[0]),
        objective_trace=None if s.objective_traces is None else s.objective_traces[0],
        sweeps_total=int(s.sweeps_total[0]),
    )


def _bound_stack(ops: np.ndarray) -> _DuStack:
    """Bounds of a (B, K, n, n) stack of canonical operators.

    Every operator's singular values and polar factor, from one
    :func:`~unitarity.linalg._svd_polar` call (for qubits a closed form):
    :func:`_du_stack` also reads its exact mixed-unitary test from the
    leading row of singular values, and the polar factors of each channel's
    operator 0 and of its operator of largest nuclear norm are the lb1 and
    lb2 witnesses.
    """
    n = ops.shape[-1]
    svals, polars = _svd_polar(ops)
    nuc = svals.sum(axis=-1)
    # per channel, operator 0 and the one of largest nuclear norm
    pick = np.arange(len(ops))[:, None], np.argmax(nuc, axis=1)[:, None] * [0, 1]
    w = polars[pick]
    svals.flags.writeable = w.flags.writeable = False  # BoundReport hands out views
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


@lru_cache(maxsize=None)
def _tangent_basis(n: int):
    """An orthonormal basis B_j of the n^2 - 1 traceless Hermitian n x n
    matrices, tr(B_j B_l) = delta_jl: the generalized Gell-Mann matrices,
    built on first use at each n (only n <= NEWTON_MAX_DIM takes them).

    Returns, each a read-only array: the conjugate of the basis flattened
    row-major (N, n^2), the float64 view of the flattened basis (N, 2 n^2)
    and that view's contiguous transpose, the float64 view of i times the
    flattened basis, and the basis stacked as one (N n, n) matrix.
    """
    count = n * n - 1
    rows, cols = np.triu_indices(n, 1)
    pairs = np.arange(len(rows))
    b = np.zeros((count, n, n), dtype=np.complex128)
    b[pairs, rows, cols] = b[pairs, cols, rows] = 1 / np.sqrt(2.0)
    b[len(rows) + pairs, rows, cols] = -1j / np.sqrt(2.0)
    b[len(rows) + pairs, cols, rows] = 1j / np.sqrt(2.0)
    # diag(1, ..., 1, -l, 0, ..., 0) / sqrt(l (l + 1)) with l ones, l = 1 .. n-1
    level = np.arange(1, n)
    diag = np.tri(n - 1, n) - level[:, None] * np.eye(n - 1, n, 1)
    b[2 * len(rows):, np.arange(n), np.arange(n)] = diag / np.sqrt(level * (level + 1))[:, None]
    flat = b.reshape(count, n * n)
    real = flat.view(np.float64)
    arrays = (flat.conj(), real, np.ascontiguousarray(real.T), (1j * flat).view(np.float64),
              b.reshape(count * n, n))
    for x in arrays:
        x.flags.writeable = False
    return arrays


def _newton_candidates(u: np.ndarray, g: np.ndarray, fh: np.ndarray):
    """Riemannian Newton candidates U (I + i H) for a stack of m starts.

    ``u`` (m, n, n) are the starts, ``g`` (m, n, n) their G = sum_k
    tr(F_k† U) F_k, and ``fh`` (m, K n, n) their channels' F_k† stacked.
    Along U exp(i sum_j x_j B_j) (:func:`_tangent_basis`), with S = U† G,
    f has gradient 2 Re tr(S† i B_j) and Hessian 2 Re(conj(T) T^T) -
    Re(P + P^T), where T[j, k] = tr(F_k† U B_j) and P[j, l] =
    tr(S† B_j B_l); Re(P + P^T) = 2 Re tr(Sh B_j B_l) with Sh the Hermitian
    part of S. The Newton step H = sum_j x_j B_j solves Hessian x =
    -gradient. Every product is a matmul or solve per start, so a start's
    candidate does not depend on which other starts share the stack.
    Returns the candidates (m, n, n) and whether each start's system could
    be solved (its candidate is meaningless where it could not).
    """
    m, n = u.shape[:2]
    flat_c, real, real_t, grad_basis, stacked = _tangent_basis(n)
    uh = u.conj().transpose(0, 2, 1)
    s = uh @ g
    half_grad = grad_basis @ s.reshape(m, n * n).view(np.float64)[..., None]
    t = flat_c @ (fh @ u).reshape(m, -1, n * n).transpose(0, 2, 1)  # (m, N, K)
    tv = t.view(np.float64)
    z = (stacked @ ((s + s.conj().transpose(0, 2, 1)) / 2)).reshape(m, -1, n * n)
    # Re tr(Sh B_j B_l) is symmetric in j and l; [l, j] is the faster product
    half_hess = tv @ tv.transpose(0, 2, 1) - z.view(np.float64) @ real_t
    try:
        x = np.linalg.solve(half_hess, -half_grad)
    except np.linalg.LinAlgError:
        x = np.full_like(half_grad, np.nan)
        for i in range(m):
            try:
                x[i] = np.linalg.solve(half_hess[i], -half_grad[i])
            except np.linalg.LinAlgError:
                pass
    solved = np.isfinite(x).all(axis=(1, 2))
    step = 1j * (x.transpose(0, 2, 1) @ real).view(np.complex128).reshape(m, n, n)
    step[:, np.arange(n), np.arange(n)] += 1.0
    return u @ np.where(solved[:, None, None], step, 0.0), solved


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
    only the starts still ascending take a sweep, all of them in one
    :func:`~unitarity.linalg._svd_polar` call. A start sweeps U <-
    polar(G) until one such sweep gains less than NEWTON_SWITCH_TOL *
    max(1, f) (1e-5 * max(1, f)); from then on, at n <= NEWTON_MAX_DIM, its
    sweep is a Riemannian Newton step U <- polar(U (I + iH))
    (:func:`_newton_candidates`).
    A Newton step that does not raise f, or whose system cannot be solved,
    is replaced in the same sweep by the polar sweep, and the start tries a
    Newton step again in its next sweep; such a step counts as one sweep and
    two polar factors, and its gain is the polar sweep's. A start stops in one
    of three ways. It converges once its objective f improves by less than
    CONVERGENCE_TOL * max(1, f) in a sweep (or the loop ends after
    MAX_ITERATIONS sweeps). It joins a better start: after each sweep, a
    start whose unitary is near, up to a global
    phase, one of its channel's starts that has not joined another
    (|<U_a, U_b>| > n (1 - DUPLICATE_TOL), a Frobenius distance below
    sqrt(2 DUPLICATE_TOL) ||U||_F, about 45% of ||U||_F) and is ahead of it
    (f_b > f_a, or f_b == f_a and b < a) retires as joined, in that
    start's basin but not yet at its fixed point. The winner is the best
    start that never joined, so its sweep count, convergence flag and trace
    are its own ascent's; the start ahead of all others that have not
    joined never joins, so every channel keeps one. Each joined start was
    behind one that had not joined, whose f only rises, so the winner's f
    is at least every joined start's f when it joined. Or it retires as a
    straggler: after the join test, in a channel whose leader (its best
    start that never joined, ties to the lowest index, as for the winner)
    has converged, a start still ascending whose f trails the leader's by
    more than STRAGGLER_RATIO times its last sweep's gain stops. A
    straggler is neither joined nor converged. It is strictly behind the
    leader, and the best f among the starts that never joined never falls,
    so a straggler is never the winner; only a straggler that would
    have climbed past the leader could have changed the result. Every rule
    reads only its own channel's starts, so a channel's result does not
    depend on the other channels of the stack.

    Returns, for each channel's winner, its DU, its unitary, its own sweep
    count, whether it converged, and with ``want_trace`` a tuple of its
    raw objectives f(U) = sum_k |<U, F_k>|^2 before and after each sweep;
    and the number of polar factors the ascent computed for each channel.
    A polar sweep that decreases the objective beyond floating-point noise
    indicates a broken update and raises ArithmeticError.
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
    fallbacks = np.zeros(a * p, dtype=int)  # polar sweeps that replaced a Newton step
    gain = np.zeros(a * p)  # each start's gain in its last sweep
    active = np.ones(a * p, dtype=bool)
    joined = np.zeros((a, p), dtype=bool)
    earlier = np.tri(p, k=-1, dtype=bool)  # [a, b]: b < a
    newton_phase = np.zeros(a * p, dtype=bool)  # set only at n <= NEWTON_MAX_DIM
    newton_dims = n <= NEWTON_MAX_DIM
    if newton_dims:
        fh = np.ascontiguousarray(ops.conj().transpose(0, 1, 3, 2)).reshape(a, -1, n)
    # f of every start after each sweep; a retired start's f stays fixed
    history = [f.copy()] if want_trace else None
    iterations = 0
    while active.any() and iterations < MAX_ITERATIONS:
        idx = np.flatnonzero(active)
        by_channel = active.reshape(a, p)
        ascending = by_channel.any(axis=1)
        live = slice(None) if ascending.all() else np.flatnonzero(ascending)
        act = by_channel[live]
        g = (ov[live] @ flat[live])[act].reshape(-1, n, n)
        newton = newton_phase[idx]
        stepped = newton.any()
        factor_input = g
        if stepped:
            at = idx[newton]
            cand, solved = _newton_candidates(u.reshape(-1, n, n)[at], g[newton], fh[at // p])
            newton[newton] = solved
            factor_input = g.copy()
            factor_input[newton] = cand[solved]
        u.reshape(-1, n * n)[idx] = _svd_polar(factor_input)[1].reshape(-1, n * n)
        u_live = u[live]
        ov[live] = ov_live = u_live @ flat_h[live]
        f_new = (np.abs(ov_live[act]) ** 2).sum(axis=-1)
        f_old = f[idx]
        if stepped:
            # a Newton step that does not raise f is replaced by a polar sweep
            failed = newton & ~(f_new > f_old)
            if failed.any():
                at = idx[failed]
                u.reshape(-1, n * n)[at] = _svd_polar(g[failed])[1].reshape(-1, n * n)
                fallbacks[at] += 1
                u_live = u[live]
                ov[live] = ov_live = u_live @ flat_h[live]
                f_new = (np.abs(ov_live[act]) ** 2).sum(axis=-1)
        delta = f_new - f_old
        if np.any(delta < -1e-10 * np.maximum(1.0, f_old)):
            raise ArithmeticError("ascent step decreased the objective")
        f[idx] = f_new
        iterations += 1
        sweeps[idx] = iterations
        scale = np.maximum(1.0, f_new)
        active[idx[np.abs(delta) < CONVERGENCE_TOL * scale]] = False
        if newton_dims:
            newton_phase[idx[delta < NEWTON_SWITCH_TOL * scale]] = True
        f_live = f.reshape(a, p)[live]
        ahead = (f_live[:, None, :] > f_live[:, :, None]) | (
            (f_live[:, None, :] == f_live[:, :, None]) & earlier
        )
        same = np.abs(u_live.conj() @ u_live.transpose(0, 2, 1)) > n * (1 - DUPLICATE_TOL)
        joins = (same & ahead & ~joined[live][:, None, :]).any(axis=2)
        joined[live] |= joins
        by_channel[live] &= ~joins
        # stragglers: starts still ascending behind a leader that has converged;
        # the lag is divided by the ratio, so that an infinite ratio retires no
        # start whose last sweep gained
        gain[idx] = delta
        rows = np.arange(len(f_live))
        lead = np.argmax(np.where(joined[live], -np.inf, f_live), axis=1)
        settled = ~by_channel[live][rows, lead]
        if settled.any():
            lag = f_live[rows, lead][:, None] - f_live
            by_channel[live] &= ~(settled[:, None]
                                  & (lag / STRAGGLER_RATIO > gain.reshape(a, p)[live]))
        if want_trace:
            history.append(f.copy())
    best = np.argmax(np.where(joined, -np.inf, f.reshape(a, p)), axis=1) + p * np.arange(a)
    return (
        f[best] / n**2,
        u.reshape(-1, n, n)[best],
        sweeps[best],
        ~active[best],
        [tuple(t[: s + 1].tolist()) for t, s in zip(np.array(history).T[best], sweeps[best])]
        if want_trace else None,
        (sweeps + fallbacks).reshape(a, p).sum(axis=1),
    )


def _stack_of_one(ch: KrausChannel, rng: np.random.Generator | None):
    """The prologue of :func:`du` and :func:`du_optimize`: the trace check, then
    the Kraus stack of one and its generator, None as given."""
    require_trace_preserving(ch)
    return ch.kraus[None], [rng]


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
    than CONVERGENCE_TOL * max(1, f) in a sweep (a polar sweep or, at
    n <= NEWTON_MAX_DIM, a Newton step) before MAX_ITERATIONS sweeps, and
    retires early once it joins a better start, or once its channel's
    leading start has converged and it trails that start by more than
    STRAGGLER_RATIO times its last gain (see :func:`_ascend`).
    ``converged`` reports the best run's own flag.
    With ``trace=True`` the best run's objective sequence is attached.
    The DU core on a stack of one with the channel routed to the ascent,
    so it is the reference for the exact routes; as in :func:`du`, a value
    that escapes the bounds by more than BOUND_SLACK raises ArithmeticError.

    ``rng`` defaults to a fixed-seed generator so repeated calls are
    deterministic.
    """
    return _du_result(_du_stack(*_stack_of_one(ch, rng), restarts, ascend_all=True, trace=trace))


def _du_stack(kraus: np.ndarray, rngs, restarts: int, *, ascend_all: bool = False,
              trace: bool = False) -> _DuStack:
    """DU with its bounds for a (B, K, n, n) stack of trace-preserving
    Kraus sets, one generator or None per channel; a channel that takes the
    ascent with None draws from ``np.random.default_rng(0)``, built only
    then.

    Every stage runs on the whole stack: canonical form, bounds, the exact
    mixed-unitary test on the leading canonical operator, the exact qubit
    kernel for the other qubit channels, and for the other channels of
    dimension 3 and up the ascent, whose Haar restarts each channel's
    generator draws after its channel. Each channel's route is decided
    here, once, or with ``ascend_all`` the ascent for all; ``trace`` keeps
    each ascent winner's objective trace. Raises ArithmeticError when a
    value escapes its bounds by more than BOUND_SLACK, and ValueError when
    ``restarts`` is not an integer of at least 0.
    """
    _require_at_least("restarts", restarts, 0)
    n = kraus.shape[-1]
    weights, ops = _canonical_stack(kraus)
    bounds = _bound_stack(ops)
    if ascend_all:
        route = np.full(len(ops), 2)  # indices into _ROUTES
    else:
        exact = _unitary_multiples(bounds.singular_values[:, 0])[0]
        route = np.where(exact, 0, 1 if n == 2 else 2)

    # the exact route's value and witness, which the other routes overwrite:
    # the leading operator has the largest weight, |alpha_0|^2 = weight / n,
    # and its polar factor, the lb1 witness, is phase * U_0
    value = weights[:, 0] / n
    witness = bounds.witnesses[:, 0].copy()
    iterations = np.zeros(len(ops), dtype=int)
    converged = np.ones(len(ops), dtype=bool)
    sweeps_total = np.zeros(len(ops), dtype=int)

    traces = [None] * len(ops)
    qubit, ascent = np.flatnonzero(route == 1), np.flatnonzero(route == 2)
    if qubit.size:
        value[qubit], witness[qubit] = _qubit_du_stack(ops[qubit])
    if ascent.size:
        (value[ascent], witness[ascent], iterations[ascent], converged[ascent], traced,
         sweeps_total[ascent]) = _ascend(
            ops[ascent], bounds.witnesses[ascent],
            [np.random.default_rng(0) if rngs[b] is None else rngs[b] for b in ascent],
            restarts, trace,
        )
        for b, t in zip(ascent, traced or ()):
            traces[b] = t

    lb = np.maximum(bounds.lb1, bounds.lb2)
    escaped = np.flatnonzero((value < lb - BOUND_SLACK) | (value > bounds.ub + BOUND_SLACK))
    if escaped.size:
        i = escaped[0]
        raise ArithmeticError(
            f"DU value {value[i]!r} escapes bounds [{lb[i]!r}, {bounds.ub[i]!r}]"
        )
    return bounds._replace(du=value, witness=witness, iterations=iterations,
                           converged=converged, sweeps_total=sweeps_total, route=route,
                           objective_traces=tuple(traces) if trace else None)


def du(
    ch: KrausChannel,
    restarts: int = DEFAULT_RESTARTS,
    rng: np.random.Generator | None = None,
) -> tuple[DuResult, BoundReport]:
    """Best certified DU of a channel, with its bound report.

    The DU core on a stack of one: the exact mixed-unitary route when the
    leading canonical operator is a unitary multiple, else the
    exact qubit kernel for a qubit channel, else the ascent from the bound
    witnesses and ``restarts`` Haar starts drawn from ``rng``. The value is
    checked against the bounds (lb - 1e-9 <= value <= ub + 1e-9).
    """
    s = _du_stack(*_stack_of_one(ch, rng), restarts)
    return _du_result(s), _bound_report(s)
