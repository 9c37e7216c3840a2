"""Experiment drivers: closed-form benchmark table, bound-tightness study,
random-channel DU distributions, and the DU-increase non-Markovianity
witness.

All randomized drivers derive one integer seed per attempt from the master
seed (SeedSequence spawn keys), so results are bit-reproducible for a given
master seed regardless of chunking, and any single sampled channel can be
regenerated from the seed stored in its record.

The samplers evaluate channels through a vectorized bulk pipeline that
follows the per-channel dispatcher :func:`unitarity.du.du`: the same
canonicalization, bounds and exact mixed-unitary path, and for systems of
dimension 3 and up a lockstep ascent from the same warm starts. Every other
qubit channel takes the exact qubit kernel of :mod:`unitarity.du` instead
of the dispatcher's ascent, which stops within about 1e-12 of the same
optimum. The test suite pins the agreement to 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    PROPORTIONALITY_TOL,
    KrausChannel,
    random_channel,
    standard_channel,
)
from .du import (
    BOUND_SLACK,
    CONVERGENCE_TOL,
    MAX_ITERATIONS,
    _polar_unitary_stack,
    _qubit_du_stack,
    du,
)
from .linalg import RANK_CUTOFF, haar_unitary

CHANNEL_FAMILIES = ("depolarizing", "bit_flip", "phase_flip", "amplitude_damping")


def closed_form_du(kind: str, param: float) -> float:
    """Reference DU for the standard single-qubit channel families."""
    if not 0.0 <= param <= 1.0:
        raise ValueError(f"parameter must be in [0, 1], got {param}")
    if kind == "depolarizing":
        return max(0.25 * param, 1.0 - 0.75 * param)
    if kind in ("bit_flip", "phase_flip"):
        return max(param, 1.0 - param)
    if kind == "amplitude_damping":
        return (1.0 + math.sqrt(1.0 - param)) ** 2 / 4.0
    raise ValueError(f"unknown channel kind {kind!r}")


@dataclass(frozen=True)
class Table1Row:
    family: str
    param: float
    du_value: float
    closed_form: float
    error: float
    method: str


@dataclass(frozen=True)
class Table1Report:
    rows: tuple[Table1Row, ...]
    max_abs_error: float

    def family_max_error(self, family: str) -> float:
        return max(r.error for r in self.rows if r.family == family)


def run_table1(grid: int = 51, params=None, restarts: int = 8) -> Table1Report:
    """Dispatcher DU vs closed form for every standard family over a grid."""
    if params is None:
        params = np.linspace(0.0, 1.0, grid)
    rows = []
    for family in CHANNEL_FAMILIES:
        for p in np.asarray(params, dtype=float):
            res, _ = du(standard_channel(family, float(p)), restarts=restarts)
            ref = closed_form_du(family, float(p))
            rows.append(
                Table1Row(
                    family=family,
                    param=float(p),
                    du_value=res.value,
                    closed_form=ref,
                    error=abs(res.value - ref),
                    method=res.method,
                )
            )
    return Table1Report(rows=tuple(rows), max_abs_error=max(r.error for r in rows))


# ---------------------------------------------------------------------------
# Bulk evaluation of Haar-dilation channels
# ---------------------------------------------------------------------------


def attempt_seed(master: int, key: tuple[int, ...]) -> int:
    """Derived integer seed for one sampling attempt; reproducible alone."""
    ss = np.random.SeedSequence(master, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class _BulkResult:
    du: np.ndarray
    lb1: np.ndarray
    lb2: np.ndarray
    lb1_simplified: np.ndarray
    ub: np.ndarray
    converged: np.ndarray
    exact: np.ndarray


def _ascend_bulk(ops: np.ndarray, starts: np.ndarray, tol: float, max_iter: int):
    """Lockstep fixed-point ascent over a batch of channels.

    ops has shape (B, K, n, n) and starts (B, S, n, n). A channel leaves the
    active set once all of its starts improve by less than ``tol`` in one
    sweep. Returns per-channel best objective, iteration count and a flag
    for whether the best start converged.
    """
    n_batch = ops.shape[0]
    out_f = np.empty(n_batch)
    out_iters = np.zeros(n_batch, dtype=int)
    out_conv = np.zeros(n_batch, dtype=bool)

    idx = np.arange(n_batch)
    ops_a = ops
    u_a = starts
    ov_a = np.einsum("bkij,bsij->bsk", ops_a.conj(), u_a)
    f_a = (np.abs(ov_a) ** 2).sum(axis=-1)
    it = 0
    while idx.size and it < max_iter:
        g = np.einsum("bsk,bkij->bsij", ov_a, ops_a)
        shape = g.shape
        u_a = _polar_unitary_stack(g.reshape(-1, shape[-2], shape[-1])).reshape(shape)
        ov_a = np.einsum("bkij,bsij->bsk", ops_a.conj(), u_a)
        f_new = (np.abs(ov_a) ** 2).sum(axis=-1)
        delta = f_new - f_a
        if np.any(delta < -1e-10 * np.maximum(1.0, f_a)):
            raise ArithmeticError("ascent step decreased the objective")
        f_a = f_new
        it += 1
        done = (np.abs(delta) < tol).all(axis=1)
        if done.any():
            fin = idx[done]
            out_f[fin] = f_a[done].max(axis=1)
            out_iters[fin] = it
            out_conv[fin] = True
            keep = ~done
            idx = idx[keep]
            ops_a = ops_a[keep]
            u_a = u_a[keep]
            ov_a = ov_a[keep]
            f_a = f_a[keep]
    if idx.size:
        # iteration cap reached; report best objectives, flag non-convergence
        out_f[idx] = f_a.max(axis=1)
        out_iters[idx] = it
        out_conv[idx] = False
    return out_f, out_iters, out_conv


def _evaluate_dilation_batch(
    sys_dim: int,
    env_dim: int,
    seeds,
    restarts: int,
    env_state=None,
    tol: float = CONVERGENCE_TOL,
    max_iter: int = MAX_ITERATIONS,
) -> _BulkResult:
    """Sample one Haar-dilation channel per seed and evaluate DU + bounds.

    Follows the dispatcher: canonical form, bound report, exact path when
    every canonical operator is proportional to a unitary, the exact qubit
    kernel for the other qubit channels, and otherwise a fixed-point
    ascent from the bound witnesses plus ``restarts`` Haar starts.
    """
    n, d = sys_dim, env_dim
    n_batch = len(seeds)
    rngs = [np.random.default_rng(s) for s in seeds]
    ops = np.empty((n_batch, d, n, n), dtype=np.complex128)
    for b, rng in enumerate(rngs):
        ops[b] = np.stack(random_channel(n, d, rng, env_state).kraus)

    # canonical form, batched over channels
    vecs_flat = ops.reshape(n_batch, d, n * n)
    corr = np.einsum("bjx,bkx->bjk", vecs_flat.conj(), vecs_flat)
    weights, mix = np.linalg.eigh(corr)
    weights = weights[:, ::-1]
    mix = mix[:, :, ::-1]
    f_ops = np.einsum("bji,bjxy->bixy", mix, ops)

    svals = np.linalg.svd(f_ops, compute_uv=False)
    nuc = svals.sum(axis=-1)
    i_nuc = np.argmax(nuc, axis=1)
    rows = np.arange(n_batch)
    w1 = _polar_unitary_stack(f_ops[:, 0])
    w0 = _polar_unitary_stack(f_ops[rows, i_nuc])
    lb1 = (np.abs(np.einsum("bkij,bij->bk", f_ops.conj(), w1)) ** 2).sum(axis=1) / n**2
    lb2 = (np.abs(np.einsum("bkij,bij->bk", f_ops.conj(), w0)) ** 2).sum(axis=1) / n**2
    lb1_simplified = nuc[:, 0] ** 2 / n**2
    ub = (nuc**2).sum(axis=1) / n**2

    # exact path detection: F† F proportional to I for every retained operator
    gram = np.einsum("bkli,bklj->bkij", f_ops.conj(), f_ops)
    c = np.einsum("bkii->bk", gram).real / n
    dev = np.linalg.norm(gram - c[..., None, None] * np.eye(n), axis=(-2, -1))
    op_ok = (weights <= RANK_CUTOFF) | (dev <= PROPORTIONALITY_TOL * np.maximum(1.0, c * n))
    exact = op_ok.all(axis=1)

    values = np.empty(n_batch)
    converged = np.ones(n_batch, dtype=bool)
    values[exact] = weights[exact, 0] / n

    todo = np.flatnonzero(~exact)
    if todo.size and n == 2:
        values[todo] = _qubit_du_stack(f_ops[todo])[0]
    elif todo.size:
        n_starts = restarts + 2
        starts = np.empty((todo.size, n_starts, n, n), dtype=np.complex128)
        starts[:, 0] = w1[todo]
        starts[:, 1] = w0[todo]
        for j, b in enumerate(todo):
            for r in range(restarts):
                starts[j, 2 + r] = haar_unitary(n, rngs[b])
        f_best, _, conv = _ascend_bulk(f_ops[todo], starts, tol, max_iter)
        values[todo] = f_best / n**2
        converged[todo] = conv

    lb = np.maximum(lb1, lb2)
    if np.any(values < lb - BOUND_SLACK) or np.any(values > ub + BOUND_SLACK):
        raise ArithmeticError("bulk DU value escaped its certified bounds")
    return _BulkResult(
        du=values,
        lb1=lb1,
        lb2=lb2,
        lb1_simplified=lb1_simplified,
        ub=ub,
        converged=converged,
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Bound-tightness study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TightnessRecord:
    du_value: float
    lb1: float
    lb2: float
    lb1_err: float
    lb2_err: float
    ub: float
    seed: int


@dataclass(frozen=True, eq=False)
class TightnessResult:
    records: tuple[TightnessRecord, ...]
    attempts: int
    master_seed: int
    bin_edges: np.ndarray | None = None
    target_per_bin: int | None = None
    underfilled: dict[int, int] | None = None


def sorted_by_du(records):
    return tuple(sorted(records, key=lambda r: r.du_value))


def sorted_by_ub(records):
    return tuple(sorted(records, key=lambda r: r.ub))


def run_tightness(
    samples: int,
    sys_dim: int = 2,
    env_dim: int = 2,
    seed: int = 0,
    stratified: bool = False,
    bin_width: float = 0.05,
    attempt_cap: int = 1_000_000,
    restarts: int = 4,
    chunk: int = 512,
) -> TightnessResult:
    """Sample Haar-dilation channels and record DU with its bounds.

    Without stratification, exactly ``samples`` channels are recorded. With
    stratification, rejection sampling fills DU bins of ``bin_width`` over
    [1/n^2, 1] up to ceil(samples / bins) records each, stopping early when
    the total attempt budget ``attempt_cap`` runs out; bins still below
    target are reported in ``underfilled``, never fabricated.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    lo = 1.0 / sys_dim**2
    records: list[TightnessRecord] = []

    if not stratified:
        for start in range(0, samples, chunk):
            count = min(chunk, samples - start)
            seeds = [attempt_seed(seed, (start + i,)) for i in range(count)]
            bulk = _evaluate_dilation_batch(sys_dim, env_dim, seeds, restarts)
            for i in range(count):
                records.append(_record(bulk, i, seeds[i]))
        return TightnessResult(
            records=tuple(records), attempts=samples, master_seed=seed
        )

    n_bins = int(round((1.0 - lo) / bin_width))
    edges = lo + bin_width * np.arange(n_bins + 1)
    edges[-1] = 1.0
    target = math.ceil(samples / n_bins)
    counts = np.zeros(n_bins, dtype=int)
    attempts = 0
    while counts.min() < target and attempts < attempt_cap:
        count = min(chunk, attempt_cap - attempts)
        seeds = [attempt_seed(seed, (attempts + i,)) for i in range(count)]
        bulk = _evaluate_dilation_batch(sys_dim, env_dim, seeds, restarts)
        for i in range(count):
            attempts += 1
            value = float(np.clip(bulk.du[i], lo, 1.0))
            b = min(int((value - lo) / bin_width), n_bins - 1)
            if counts[b] < target:
                counts[b] += 1
                records.append(_record(bulk, i, seeds[i]))
            if counts.min() >= target:
                break
    underfilled = {b: int(counts[b]) for b in range(n_bins) if counts[b] < target}
    return TightnessResult(
        records=tuple(records),
        attempts=attempts,
        master_seed=seed,
        bin_edges=edges,
        target_per_bin=target,
        underfilled=underfilled,
    )


def _record(bulk: _BulkResult, i: int, seed_i: int) -> TightnessRecord:
    value = float(bulk.du[i])
    lb1 = float(bulk.lb1[i])
    lb2 = float(bulk.lb2[i])
    return TightnessRecord(
        du_value=value,
        lb1=lb1,
        lb2=lb2,
        lb1_err=value - lb1,
        lb2_err=value - lb2,
        ub=float(bulk.ub[i]),
        seed=seed_i,
    )


# ---------------------------------------------------------------------------
# DU distribution over random channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DuHistogram:
    env_dim: int
    bin_edges: np.ndarray
    counts: np.ndarray
    sample_count: int
    mean: float
    seed: int
    du_column: str = "dispatcher"
    mean_lb1: float = float("nan")

    @property
    def std_error(self) -> float:
        """Standard error of the recorded mean (from the binned values)."""
        mids = 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])
        var = float(np.sum(self.counts * (mids - self.mean) ** 2)) / max(
            1, self.sample_count - 1
        )
        return math.sqrt(var / self.sample_count)


def run_distribution(
    samples: int,
    env_dims,
    seed: int,
    sys_dim: int = 2,
    num_bins: int = 30,
    restarts: int = 4,
    chunk: int = 512,
    du_column: str = "dispatcher",
) -> list[DuHistogram]:
    """DU histogram of Haar-dilation random channels for each environment dim.

    ``du_column`` selects what the histogram bins: the dispatcher value
    (default) or the first lower bound; the other column's mean is recorded
    alongside either way.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if du_column not in ("dispatcher", "lb1"):
        raise ValueError(f"du_column must be 'dispatcher' or 'lb1', got {du_column!r}")
    lo = 1.0 / sys_dim**2
    out = []
    for j, env_dim in enumerate(env_dims):
        values = np.empty(samples)
        lb1s = np.empty(samples)
        for start in range(0, samples, chunk):
            count = min(chunk, samples - start)
            seeds = [attempt_seed(seed, (j, start + i)) for i in range(count)]
            bulk = _evaluate_dilation_batch(sys_dim, env_dim, seeds, restarts)
            values[start : start + count] = bulk.du
            lb1s[start : start + count] = bulk.lb1
        binned = values if du_column == "dispatcher" else lb1s
        if binned.min() < lo - 1e-9 or binned.max() > 1.0 + 1e-9:
            raise ArithmeticError("sampled DU escaped the [1/n^2, 1] range")
        counts, edges = np.histogram(np.clip(binned, lo, 1.0), bins=num_bins, range=(lo, 1.0))
        out.append(
            DuHistogram(
                env_dim=int(env_dim),
                bin_edges=edges,
                counts=counts,
                sample_count=samples,
                mean=float(binned.mean()),
                seed=seed,
                du_column=du_column,
                mean_lb1=float(lb1s.mean()),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Non-Markovianity witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Channel snapshots along an evolution, at ascending times."""

    times: tuple[float, ...]
    channels: tuple[KrausChannel, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if not times:
            raise ValueError("trajectory needs at least one time point")
        if len(times) != len(self.channels):
            raise ValueError(
                f"{len(times)} times but {len(self.channels)} channels"
            )
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be strictly ascending")
        dims = {ch.dim for ch in self.channels}
        if len(dims) > 1:
            raise ValueError(f"channels have mixed dims {sorted(dims)}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "channels", tuple(self.channels))


@dataclass(frozen=True)
class WitnessIncrease:
    index: int
    t_from: float
    t_to: float
    delta: float


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """DU sequence along a trajectory with flagged increases.

    A DU increase beyond the threshold certifies non-Markovian dynamics;
    the absence of an increase is inconclusive, never a Markovianity
    certificate.
    """

    times: tuple[float, ...]
    du_values: np.ndarray
    increases: tuple[WitnessIncrease, ...]
    threshold: float

    @property
    def non_markovian(self) -> bool:
        return bool(self.increases)

    @property
    def verdict(self) -> str:
        if self.non_markovian:
            intervals = ", ".join(
                f"[{inc.t_from:g}, {inc.t_to:g}] (+{inc.delta:.3e})"
                for inc in self.increases
            )
            return f"non-Markovian: DU increased on {intervals}"
        return (
            "inconclusive: no DU increase detected "
            "(a non-increasing DU does not certify Markovianity)"
        )


def run_witness(traj: Trajectory, threshold: float = 1e-6, restarts: int = 8) -> WitnessReport:
    """Compute DU along the trajectory and flag increases above threshold."""
    values = np.array([du(ch, restarts=restarts)[0].value for ch in traj.channels])
    increases = []
    for i in range(len(values) - 1):
        delta = values[i + 1] - values[i]
        if delta > threshold:
            increases.append(
                WitnessIncrease(
                    index=i,
                    t_from=traj.times[i],
                    t_to=traj.times[i + 1],
                    delta=float(delta),
                )
            )
    return WitnessReport(
        times=traj.times,
        du_values=values,
        increases=tuple(increases),
        threshold=threshold,
    )
