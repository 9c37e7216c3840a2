"""Experiment drivers: closed-form benchmark table, bound-tightness study,
random-channel DU distributions, and the DU-increase non-Markovianity
witness.

The drivers sample channels and aggregate results; every DU and bound comes
from the one pipeline in :mod:`unitarity.du`, which every driver feeds a
stack at a time through ``_du_stack``, never one ``du()`` call per channel.

The closed-form table and the witness take given Kraus sets, as arrays. The
table builds each standard family's sets over its whole grid, padded to four
operators with zeros, with one call of the family builder of
:func:`~unitarity.standard_channel`, and its closed forms with the array
code of :func:`~unitarity.closed_form_du`. It runs as one stack, exactly:
its operators are orthogonal, so each Gram matrix is diagonal and a zero
operator adds an exact 0 to every sum. The witness runs one stack per
Kraus-array shape: padding a general set can move its DU by a few ulps. Only
handed-in sets, the witness's, are checked for trace preservation, all first
and in trajectory order; sets the library builds (the table's, the
samplers') go straight to the DU core. Each channel is given no generator,
as in ``du(ch)``, so the DU core builds ``np.random.default_rng(0)`` for a
channel only when it ascends, and both run at ``du``'s default restarts, so
each value and ``method`` label is ``du(ch)``'s bit for bit.

Both randomized studies sample through one generator, ``_sample``, which
gives attempt k under a study's spawn key the integer seed
``attempt_seed(master, key + (k,))``, ``CHUNK`` attempts at a time. Results
are bit-reproducible for a given master seed, whatever ``CHUNK`` is, and any
single sampled channel can be regenerated from the seed in its record.

Each chunk is sampled as a batch. A numpy port of ``SeedSequence``'s hash
runs over the whole chunk at once: it gives every attempt seed, then the
PCG64 seed state that ``np.random.default_rng`` would build from each seed,
and each seed's generator starts from that state. ``attempt_seed`` stays the
one-record reference, and the test suite pins the port to numpy. Every
generator draws its Ginibre entries in one call, and one QR factors the
whole chunk's dilation unitaries. The chunk's Kraus stack then goes through
the DU pipeline in one call, in which a channel that takes the ascent draws
its restart unitaries from its own generator, after its channel. This is
what :func:`unitarity.random_channel` followed by :func:`unitarity.du`
does for a batch of one, so a record's seed regenerates its channel bit
for bit, and ``du(channel, restarts, rng)`` with that generator its value.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import (
    STANDARD_KINDS,
    Trajectory,
    _check_trace_residuals,
    _closed_forms,
    _dilation_kraus_stack,
    _standard_kraus,
    _trace_residuals,
)
from .du import _ROUTES, DEFAULT_RESTARTS, _du_stack, _DuStack
from .linalg import _require_at_least, _require_real

CHANNEL_FAMILIES = STANDARD_KINDS

# Attempts per sampled batch. A constant, not an option: no record or count
# depends on it, and it bounds the memory one batch's stacks take.
CHUNK = 512

# A constant, not an option, as no caller sets another value: the width of
# the stratified tightness study's DU bins.
BIN_WIDTH = 0.05


class Table1Row(NamedTuple):
    """One Table 1 point; its fields, in order, are the Table 1 CSV's columns."""

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
        """Largest |du - closed form| over ``family``'s rows; ValueError
        unless ``family`` is one of CHANNEL_FAMILIES."""
        if family not in CHANNEL_FAMILIES:
            raise ValueError(f"unknown channel family {family!r}; expected one of {CHANNEL_FAMILIES}")
        return max(r.error for r in self.rows if r.family == family)


def run_table1(grid: int = 51, restarts: int = DEFAULT_RESTARTS) -> Table1Report:
    """DU vs closed form for every standard family over a grid of
    ``grid`` >= 1 points, each row's value and method those of
    ``du(standard_channel(family, p))``.

    Each family's Kraus sets and closed forms are built over the whole grid
    at once, by the family builder that :func:`standard_channel` runs on a
    grid of one and by the array code of :func:`closed_form_du`; every set,
    zero-padded to four operators (exact, as the families' operators are
    orthogonal), goes straight to the DU core in one stack: the builder's
    weights sum to 1, so none is re-checked for trace preservation. Every
    family is a qubit channel, which takes an exact route and never ascends,
    so ``restarts`` changes no value or method; it is still validated (an
    integer >= 0), and kept because perfbench reads its default, du's, from
    the signature."""
    _require_at_least("grid", grid, 1)
    params = np.linspace(0.0, 1.0, grid)
    kraus = np.concatenate([_standard_kraus(family, params) for family in CHANNEL_FAMILIES])
    stack = _du_stack(kraus, [None] * len(kraus), restarts)
    refs = np.concatenate([_closed_forms(family, params) for family in CHANNEL_FAMILIES])
    errors = np.abs(stack.du - refs)
    columns = (  # field order
        [family for family in CHANNEL_FAMILIES for _ in range(grid)],
        params.tolist() * len(CHANNEL_FAMILIES),
        stack.du.tolist(),
        refs.tolist(),
        errors.tolist(),
        [_ROUTES[route] for route in stack.route.tolist()],
    )
    return Table1Report(rows=tuple(map(Table1Row._make, zip(*columns))),
                        max_abs_error=float(errors.max()))


def _du_channels(kraus_sets: list, restarts: int) -> np.ndarray:
    """DU of the channel of each handed-in (K, n, n) Kraus array, bit for bit
    ``du(KrausChannel(n, kraus), restarts=restarts)``'s. Every set is checked
    for trace preservation first (the first failure in list order raises
    ChannelValidationError), then each stack of one shape runs through the
    DU core once, every channel with no generator, as in ``du(ch)``."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, kraus in enumerate(kraus_sets):
        groups.setdefault(kraus.shape, []).append(i)
    stacks = [(idx, np.array([kraus_sets[i] for i in idx])) for idx in groups.values()]
    residuals = np.empty(len(kraus_sets))
    for idx, kraus in stacks:
        residuals[idx] = _trace_residuals(kraus)
    _check_trace_residuals(residuals)
    values = np.empty(len(kraus_sets))
    for idx, kraus in stacks:
        values[idx] = _du_stack(kraus, [None] * len(idx), restarts).du
    return values


# ---------------------------------------------------------------------------
# Bulk evaluation of Haar-dilation channels
# ---------------------------------------------------------------------------


def attempt_seed(master: int, key: tuple[int, ...]) -> int:
    """Derived integer seed for one sampling attempt; reproducible alone."""
    ss = np.random.SeedSequence(master, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) on 32-bit words
# held in Python ints (words a chunk shares) or uint64 arrays (one per attempt).
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _words(x) -> list[int]:
    """A non-negative integer as little-endian 32-bit words, as SeedSequence reads it."""
    x = operator.index(x)
    if x < 0:
        raise ValueError("expected non-negative integer")
    words = [x & _M32]
    while x := x >> 32:
        words.append(x & _M32)
    return words


def _hash_consts(h: int, mult: int):
    """The hash constant before and after each successive ``hashmix`` step."""
    while True:
        before, h = h, h * mult & _M32
        yield before, h


def _hashmix(value, consts):
    before, after = next(consts)
    value = (value ^ before) * after & _M32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y & _M32
    return r ^ r >> _XSHIFT


def _mix_in(pool: list, word, consts) -> list:
    """Mix one entropy word into every pool word."""
    return [_mix(x, _hashmix(word, consts)) for x in pool]


def _entropy_pool(words: list, consts) -> list:
    """``SeedSequence.mix_entropy``: the first pool-size words, mixed all-to-all,
    then each further word mixed into the whole pool."""
    pool = [_hashmix(words[i] if i < len(words) else 0, consts) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in words[_POOL_SIZE:]:
        pool = _mix_in(pool, word, consts)
    return pool


def _state_u64(pool: list, n: int) -> np.ndarray:
    """``SeedSequence.generate_state(n, np.uint64)`` of every row: shape (rows, n)."""
    consts = _hash_consts(_INIT_B, _MULT_B)
    w = [_hashmix(pool[i % _POOL_SIZE], consts) for i in range(2 * n)]
    return np.stack([w[i] | w[i + 1] << 32 for i in range(0, 2 * n, 2)], axis=1)


def _attempt_seeds(master: int, key: tuple[int, ...], start: int, count: int) -> np.ndarray:
    """``attempt_seed(master, key + (k,))`` for k = start .. start+count-1, as uint64."""
    words = _words(master)
    words += [0] * (_POOL_SIZE - len(words))  # a spawn key pads the entropy to the pool
    for k in key:
        words += _words(k)
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = _entropy_pool(words, consts)  # shared by the chunk: hashed once, as scalars
    k = np.arange(start, start + count, dtype=np.uint64)
    pool = _mix_in(pool, k & _M32, consts)
    high = k >> 32
    if high.any():  # an attempt index >= 2**32 is a second word, mixed in after the first
        pool = [np.where(high > 0, b, a) for a, b in zip(pool, _mix_in(pool, high, consts))]
    return _state_u64(pool, 1)[:, 0]


@functools.cache
def _fixed_state_type() -> type:
    """A seed-sequence type whose PCG64 state is already hashed. Built on first
    use: numpy 2 loads numpy.random lazily, and importing this package should
    not load it."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return FixedState


def _generators(seeds) -> list[np.random.Generator]:
    """``[np.random.default_rng(s) for s in seeds]``, with every seed hashed in
    one pass. A seed below 2**32 is one entropy word, but needs no case of its
    own: the hash pads a short entropy to the pool size with zero words."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = _entropy_pool([seeds & _M32, seeds >> 32], _hash_consts(_INIT_A, _MULT_A))
    fixed_state = _fixed_state_type()
    return [np.random.Generator(np.random.PCG64(fixed_state(s))) for s in _state_u64(pool, 4)]


def _evaluate_dilation_batch(sys_dim: int, env_dim: int, seeds, restarts: int) -> _DuStack:
    """Sample one Haar-dilation channel per seed and evaluate DU + bounds.

    Each seed gets the generator ``np.random.default_rng(seed)`` would give;
    the channels are drawn as one Kraus stack and evaluated by the DU core of
    :mod:`unitarity.du`, where a channel that takes the ascent draws its
    ``restarts`` Haar starts from the same generator.
    """
    rngs = _generators(seeds)
    return _du_stack(_dilation_kraus_stack(sys_dim, env_dim, rngs), rngs, restarts)


def _sample(sys_dim: int, env_dim: int, seed: int, key: tuple[int, ...], total: int,
            restarts: int):
    """Attempts 0 .. total-1 under spawn key ``key`` of master ``seed``, ``CHUNK``
    at a time: yields each chunk's seeds and its evaluated batch."""
    for start in range(0, total, CHUNK):
        seeds = _attempt_seeds(seed, key, start, min(CHUNK, total - start))
        yield seeds, _evaluate_dilation_batch(sys_dim, env_dim, seeds, restarts)


def _tally(bulk: _DuStack, kept=slice(None)) -> np.ndarray:
    """[non-converged, exact-path] counts over the entries ``kept`` of a batch."""
    return np.array([np.sum(~bulk.converged[kept]), np.sum(bulk.route[kept] == 0)])


# ---------------------------------------------------------------------------
# Bound-tightness study
# ---------------------------------------------------------------------------


class TightnessRecord(NamedTuple):
    """One sampled channel; its fields, in order, are the tightness CSV's columns."""

    du_value: float
    lb1: float
    lb2: float
    lb1_err: float
    lb2_err: float
    ub: float
    seed: int


@dataclass(frozen=True, eq=False)
class TightnessResult:
    """Recorded samples of a tightness run.

    ``nonconverged`` counts the records whose ascent hit its iteration cap,
    and ``exact`` the records that took the exact mixed-unitary path.
    """

    records: tuple[TightnessRecord, ...]
    attempts: int
    master_seed: int
    bin_edges: np.ndarray | None = None
    target_per_bin: int | None = None
    underfilled: dict[int, int] | None = None
    nonconverged: int = 0
    exact: int = 0


def run_tightness(
    samples: int,
    sys_dim: int = 2,
    env_dim: int = 2,
    seed: int = 0,
    stratified: bool = False,
    attempt_cap: int = 1_000_000,
    restarts: int = 4,
) -> TightnessResult:
    """Sample Haar-dilation channels and record DU with its bounds.

    Without stratification, every attempt is recorded: exactly ``samples``
    channels from ``samples`` attempts, whatever ``attempt_cap`` is. With
    stratification, rejection sampling fills DU bins of width ``BIN_WIDTH``
    over [1/n^2, 1] up to ceil(samples / bins) records each. It stops at the
    attempt that fills the last bin, or when the total attempt budget
    ``attempt_cap`` runs out; bins still below target are reported in
    ``underfilled``, never fabricated. At ``env_dim`` 1 every DU is 1, so
    the budget is the top bin's target.
    """
    _require_at_least("samples", samples, 1)
    _require_at_least("sys_dim", sys_dim, 2)
    _require_at_least("attempt_cap", attempt_cap, 1)
    _require_at_least("seed", seed, 0)
    lo = 1.0 / sys_dim**2
    if stratified:
        n_bins = int(round((1.0 - lo) / BIN_WIDTH))
        edges = lo + BIN_WIDTH * np.arange(n_bins + 1)
        edges[-1] = 1.0
        edges.flags.writeable = False
        target = math.ceil(samples / n_bins)
        # at env_dim 1 every channel is unitary (DU 1): only the top bin can fill
        total = min(attempt_cap, target) if env_dim == 1 else attempt_cap
    else:  # one bin over [1/n^2, 1] that keeps every attempt
        n_bins, edges, target, total = 1, None, samples, samples
    counts = [0] * n_bins
    records: list[TightnessRecord] = []
    tally = np.zeros(2, dtype=int)
    attempts = 0
    for seeds, bulk in _sample(sys_dim, env_dim, seed, (), total, restarts):
        bins = np.minimum(((np.clip(bulk.du, lo, 1.0) - lo) / BIN_WIDTH).astype(int), n_bins - 1)
        kept = []
        for i, b in enumerate(bins.tolist()):
            attempts += 1
            if counts[b] < target:
                counts[b] += 1
                kept.append(i)
                if min(counts) == target:  # the last bin is full
                    break
        records += _records(bulk, kept, seeds)
        tally += _tally(bulk, kept)
        if min(counts) == target:
            break
    return TightnessResult(
        records=tuple(records),
        attempts=attempts,
        master_seed=seed,
        bin_edges=edges,
        target_per_bin=target if stratified else None,
        underfilled={b: c for b, c in enumerate(counts) if c < target} if stratified else None,
        nonconverged=int(tally[0]),
        exact=int(tally[1]),
    )


def _records(bulk: _DuStack, kept: list[int], seeds: np.ndarray):
    """The records of entries ``kept`` of a batch, built from plain-float columns."""
    value, lb1, lb2, ub = (getattr(bulk, name)[kept] for name in ("du", "lb1", "lb2", "ub"))
    columns = (value, lb1, lb2, value - lb1, value - lb2, ub, seeds[kept])  # field order
    return map(TightnessRecord._make, zip(*(c.tolist() for c in columns)))


# ---------------------------------------------------------------------------
# DU distribution over random channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DuHistogram:
    """Binned DU samples for one environment dimension.

    ``mean`` and ``std_error`` are the sample mean of the binned column
    ``du_column`` (``"dispatcher"``: the DU value) and its standard error.
    ``nonconverged`` counts the samples whose ascent hit its iteration cap,
    and ``exact`` the samples that took the exact mixed-unitary path.
    """

    env_dim: int
    bin_edges: np.ndarray
    counts: np.ndarray
    sample_count: int
    mean: float
    std_error: float
    seed: int
    du_column: str = "dispatcher"
    mean_lb1: float = float("nan")
    nonconverged: int = 0
    exact: int = 0


def run_distribution(
    samples: int,
    env_dims,
    seed: int,
    sys_dim: int = 2,
    num_bins: int = 30,
    restarts: int = 4,
    du_column: str = "dispatcher",
) -> list[DuHistogram]:
    """DU histogram of Haar-dilation random channels for each environment dim.

    ``du_column`` selects what the histogram bins: ``"dispatcher"`` (the
    default) for the DU value, ``"lb1"`` for the first lower bound; the
    first lower bound's mean is recorded alongside either way.
    """
    _require_at_least("samples", samples, 1)
    _require_at_least("sys_dim", sys_dim, 2)
    _require_at_least("seed", seed, 0)
    _require_at_least("num_bins", num_bins, 1)
    env_dims = tuple(env_dims)
    if not env_dims:
        raise ValueError("env_dims must be nonempty")
    for env_dim in env_dims:
        _require_at_least("env_dims", env_dim, 1)
    if du_column not in ("dispatcher", "lb1"):
        raise ValueError(f"du_column must be 'dispatcher' or 'lb1', got {du_column!r}")
    lo = 1.0 / sys_dim**2
    out = []
    for j, env_dim in enumerate(env_dims):
        parts = []
        tally = np.zeros(2, dtype=int)
        for _, bulk in _sample(sys_dim, env_dim, seed, (j,), samples, restarts):
            parts.append((bulk.du, bulk.lb1))
            tally += _tally(bulk)
        values, lb1s = map(np.concatenate, zip(*parts))
        binned = values if du_column == "dispatcher" else lb1s
        if binned.min() < lo - 1e-9 or binned.max() > 1.0 + 1e-9:
            raise ArithmeticError("sampled DU escaped the [1/n^2, 1] range")
        counts, edges = np.histogram(np.clip(binned, lo, 1.0), bins=num_bins, range=(lo, 1.0))
        counts.flags.writeable = edges.flags.writeable = False
        out.append(
            DuHistogram(
                env_dim=int(env_dim),
                bin_edges=edges,
                counts=counts,
                sample_count=samples,
                mean=float(binned.mean()),
                std_error=float(binned.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0,
                seed=seed,
                du_column=du_column,
                mean_lb1=float(lb1s.mean()),
                nonconverged=int(tally[0]),
                exact=int(tally[1]),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Non-Markovianity witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessIncrease:
    index: int
    t_from: float
    t_to: float
    delta: float


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """DU sequence along a trajectory with flagged increases.

    For qubits a DU increase beyond the threshold is a certificate: no CPTP
    map L takes Phi(t) to Phi(t'), so the trajectory is not CP-divisible,
    which is non-Markovian in the sense of Rivas, Huelga & Plenio (PRL 105,
    050403, 2010). For qubit CPTP maps DU(L o P) <= DU(P) and
    DU(P o L) <= DU(P):

    - On the Bloch ball a qubit channel is r -> T r + t with T real 3x3,
      and its process fidelity with a unitary of rotation R is
      (1 + tr(R^T T)) / 4, so DU = (1 + max over SO(3) of tr(R^T T)) / 4.
    - T blocks compose: L o P has T_L T_P, and P o L has T_P T_L.
    - theta(rho) = sigma_y rho^T sigma_y maps r to -r, and theta o L o theta
      is CP (Kraus operators sigma_y conj(K) sigma_y) with T block T_L and
      shift -t_L. So the mean of L and theta o L o theta is a unital qubit
      channel with T block T_L, and unital qubit channels are mixtures of
      unitaries (Landau & Streater, Linear Algebra Appl. 193, 1993; Ruskai,
      Szarek & Werner, Linear Algebra Appl. 347, 159, 2002):
      T_L = sum_i p_i R_i with R_i in SO(3).
    - So max_R tr(R^T T_L T_P) <= sum_i p_i max_R tr(R^T R_i T_P)
      = max_R tr(R^T T_P), and the other order is the same.

    At n >= 3 an increase certifies nothing: one more step of the n = 3
    Werner-Holevo channel raises DU from 2/9 to 1/3. No increase is
    inconclusive, never a Markovianity certificate. ``dim`` is the
    channels' dimension, and ``verdict`` states what a flagged increase
    shows at it.
    """

    times: tuple[float, ...]
    du_values: np.ndarray
    increases: tuple[WitnessIncrease, ...]
    threshold: float
    dim: int

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
            if self.dim > 2:
                return (f"DU increased on {intervals}; at n = {self.dim} an increase "
                        "is no certificate of non-Markovianity")
            return f"non-Markovian: DU increased on {intervals}"
        return (
            "inconclusive: no DU increase detected "
            "(a non-increasing DU does not certify Markovianity)"
        )


def run_witness(traj: Trajectory, threshold: float = 1e-6) -> WitnessReport:
    """Compute DU along the trajectory and flag increases above threshold,
    which must be a finite number of at least 0; each value is ``du(ch)``'s."""
    threshold = _require_real("threshold", threshold, 0.0, False)
    values = _du_channels([ch.kraus for ch in traj.channels], DEFAULT_RESTARTS)
    values.flags.writeable = False
    increases = tuple(
        WitnessIncrease(index=i, t_from=traj.times[i], t_to=traj.times[i + 1], delta=delta)
        for i, delta in enumerate(np.diff(values).tolist()) if delta > threshold
    )
    return WitnessReport(
        times=traj.times,
        du_values=values,
        increases=increases,
        threshold=threshold,
        dim=traj.channels[0].dim,
    )
