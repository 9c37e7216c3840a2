"""Fidelity measures between a quantum channel and a target unitary.

Two equivalent routes are provided: the direct Kraus-trace formula
F_pro = sum_k |tr(U† E_k)|^2 / n^2 (used everywhere), and a cross-check via
the matrix-square-root state fidelity of normalized process matrices. The
average (state-averaged) fidelity relates to the process fidelity through
F_ave = (n F_pro + 1) / (n + 1), and a Monte Carlo estimator over
Haar-random pure states serves as an independent oracle for that relation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, kraus_to_chi
from .linalg import _require_at_least, as_matrix, assert_unitary, hermitian_eig


@dataclass(frozen=True)
class FidelityPair:
    """Process and average fidelity of one (channel, unitary) pair.

    The two values must satisfy f_ave = (dim * f_pro + 1) / (dim + 1).
    """

    f_pro: float
    f_ave: float
    dim: int

    def __post_init__(self):
        expected = average_from_process(self.f_pro, self.dim)
        if abs(self.f_ave - expected) > 1e-12:
            raise ValueError(
                f"inconsistent pair: f_ave {self.f_ave!r} vs expected {expected!r}"
            )


@dataclass(frozen=True)
class MonteCarloFidelity:
    """Monte Carlo fidelity estimate with its standard error."""

    value: float
    std_error: float
    samples: int


def _overlaps(ch: KrausChannel, u: np.ndarray) -> np.ndarray:
    """tr(U† E_k) for every Kraus operator."""
    return np.array([np.vdot(u, op) for op in ch.kraus])


def _check_pair(ch: KrausChannel, u) -> np.ndarray:
    u = as_matrix(u)
    if u.shape != (ch.dim, ch.dim):
        raise ValueError(f"unitary shape {u.shape} does not match channel dim {ch.dim}")
    return assert_unitary(u)


def process_fidelity(ch: KrausChannel, u) -> float:
    """sum_k |tr(U† E_k)|^2 / n^2, clipped into [0, 1].

    Independent of the Kraus representation of the channel.
    """
    u = _check_pair(ch, u)
    raw = float(np.sum(np.abs(_overlaps(ch, u)) ** 2)) / ch.dim**2
    return min(max(raw, 0.0), 1.0)


def average_fidelity(ch: KrausChannel, u) -> float:
    """(n + sum_k |tr(U† E_k)|^2) / (n (n + 1))."""
    u = _check_pair(ch, u)
    n = ch.dim
    total = float(np.sum(np.abs(_overlaps(ch, u)) ** 2))
    return (n + total) / (n * (n + 1))


def average_from_process(f_pro: float, dim: int) -> float:
    """Convert process fidelity to average fidelity."""
    return (dim * f_pro + 1.0) / (dim + 1.0)


def process_from_average(f_ave: float, dim: int) -> float:
    """Convert average fidelity to process fidelity."""
    return (f_ave * (dim + 1.0) - 1.0) / dim


def fidelity_pair(ch: KrausChannel, u) -> FidelityPair:
    """Both fidelities of a (channel, unitary) pair as a consistent record."""
    f_pro = process_fidelity(ch, u)
    return FidelityPair(f_pro=f_pro, f_ave=average_from_process(f_pro, ch.dim), dim=ch.dim)


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    vals, vecs = hermitian_eig(mat)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def process_fidelity_chi(ch: KrausChannel, u) -> float:
    """Process fidelity via the state fidelity of normalized chi matrices.

    Computes (tr sqrt(sqrt(a) b sqrt(a)))^2 for a = chi_channel / n and
    b = chi_unitary / n. Algebraically equal to :func:`process_fidelity`;
    kept as an independent cross-check route on small instances.
    """
    u = _check_pair(ch, u)
    n = ch.dim
    a = kraus_to_chi(ch).mat / n
    vu = u.ravel()
    b = np.outer(vu, vu.conj()) / n
    root = _sqrt_psd(a)
    inner = root @ b @ root
    vals = np.linalg.eigvalsh(inner)
    # b is rank 1, so inner has one true eigenvalue; discard the numerical
    # zeros whose square roots would otherwise inject ~sqrt(eps) noise.
    vals = vals[vals > 1e-12 * max(float(vals.max()), 0.0)]
    return float(np.sum(np.sqrt(vals)) ** 2)


def average_fidelity_mc(
    ch: KrausChannel,
    u,
    samples: int,
    rng: np.random.Generator,
) -> MonteCarloFidelity:
    """Monte Carlo estimate of the state-averaged fidelity.

    Averages <psi| U† E(|psi><psi|) U |psi> over Haar-random pure states
    |psi>; per state this is sum_k |<psi| U† E_k |psi>|^2.
    """
    _require_at_least("samples", samples, 1)
    u = _check_pair(ch, u)
    n = ch.dim
    raw = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    psi = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    per_state = np.zeros(samples)
    for op in ch.kraus:
        m = u.conj().T @ op
        amp = np.einsum("si,ij,sj->s", psi.conj(), m, psi)
        per_state += np.abs(amp) ** 2
    value = float(per_state.mean())
    std_error = float(per_state.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return MonteCarloFidelity(value=value, std_error=std_error, samples=samples)
