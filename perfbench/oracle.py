"""Reference computations the benchmark checks the program against.

Nothing here calls the library: the channel sampler, the qubit DU oracle
and the closed forms are written out again so that a defect in the
program cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np

_PAULIS = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)
# U = phase * (x0 I + i x.sigma): the coefficient of I is tr(E), those of
# the Paulis are -i tr(sigma_j E).
_PAULI_PHASE = np.array([1.0, -1j, -1j, -1j])


def dilation_kraus(sys_dim: int, env_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Kraus stack (env_dim, n, n) of a Haar-dilation channel.

    Draws exactly what the library's ``random_channel(sys_dim, env_dim, rng)``
    draws: a Ginibre matrix, its QR with the R-diagonal phases pushed into
    Q, then the system blocks of U (I (x) |0>) for each environment level.
    """
    dim = sys_dim * env_dim
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    u = q * (d / np.abs(d))
    t = u.reshape(sys_dim, env_dim, sys_dim, env_dim)[:, :, :, 0]
    return np.ascontiguousarray(np.moveaxis(t, 1, 0))


def qubit_du(kraus: np.ndarray) -> np.ndarray:
    """Exact DU of a stack of qubit channels, shape (B, K, 2, 2) -> (B,).

    Every qubit unitary is a phase times x0 I + i x.sigma with x a real
    unit vector, so sum_k |tr(U† E_k)|^2 = x^T A x for a real symmetric
    4x4 matrix A, and DU = lambda_max(A) / 4.
    """
    c = np.einsum("pij,bkji->bkp", _PAULIS, kraus) * _PAULI_PHASE
    a = np.einsum("bkp,bkq->bpq", c.real, c.real) + np.einsum("bkp,bkq->bpq", c.imag, c.imag)
    return np.linalg.eigvalsh(a)[:, -1] / 4.0


def closed_form_du(family: str, param: float) -> float:
    """DU of the standard qubit channel families (the paper's Table 1)."""
    if family == "depolarizing":
        return max(0.25 * param, 1.0 - 0.75 * param)
    if family in ("bit_flip", "phase_flip"):
        return max(param, 1.0 - param)
    if family == "amplitude_damping":
        return (1.0 + math.sqrt(1.0 - param)) ** 2 / 4.0
    raise ValueError(f"unknown channel family {family!r}")
