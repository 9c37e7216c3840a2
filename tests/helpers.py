"""Shared test utilities: independent oracles and random object factories.

The DU oracle here deliberately avoids the package's polar fixed-point
route: it reduces the qubit problem to a real symmetric 4x4 eigenproblem.
"""

from __future__ import annotations

import importlib

import numpy as np

from unitarity import KrausChannel, convex_unitary_mixture

# The module, for patching its constants: the attribute ``unitarity.du`` is
# the function du(), which shadows the submodule.
DU_MODULE = importlib.import_module("unitarity.du")

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


def qubit_du_oracle(kraus_ops):
    """Closed-form DU of a qubit channel, with a maximizing unitary.

    Every qubit unitary is a global phase times x0*I + i(x1*X + x2*Y + x3*Z)
    for a real unit 4-vector x, so sum_k |tr(U† E_k)|^2 becomes x^T A x for
    a real symmetric PSD 4x4 matrix A built from the Pauli overlaps of the
    Kraus operators. The DU is the top eigenvalue of A divided by 4.
    """
    a = np.zeros((4, 4))
    for op in kraus_ops:
        c = np.array(
            [np.trace(op)]
            + [-1j * np.trace(p @ op) for p in (PAULI_X, PAULI_Y, PAULI_Z)]
        )
        a += np.outer(c.real, c.real) + np.outer(c.imag, c.imag)
    vals, vecs = np.linalg.eigh(a)
    x = vecs[:, -1]
    witness = x[0] * PAULI_I + 1j * (x[1] * PAULI_X + x[2] * PAULI_Y + x[3] * PAULI_Z)
    return float(vals[-1]) / 4.0, witness


def bloch_du(kraus_ops) -> float:
    """DU of a qubit channel from its Bloch-ball form r -> T r + t.

    T[i, j] = tr(sigma_i Phi(sigma_j)) / 2 is real 3x3. A unitary acts as a
    rotation R, and the process fidelity with it is (1 + tr(R^T T)) / 4, in
    which t does not enter. The maximum of tr(R^T T) over SO(3) is
    s1 + s2 + sign(det T) s3, with s1 >= s2 >= s3 the singular values of T,
    so DU = (1 + s1 + s2 + sign(det T) s3) / 4. Shares nothing with the
    4x4 eigenproblem of :func:`qubit_du_oracle` or of the library.
    """
    sigmas = PAULIS[1:]
    t = np.array([[sum(np.trace(si @ k @ sj @ k.conj().T) for k in kraus_ops).real / 2
                   for sj in sigmas] for si in sigmas])
    s = np.linalg.svd(t, compute_uv=False)
    return float(1.0 + s[0] + s[1] + np.sign(np.linalg.det(t)) * s[2]) / 4.0


def reference_mixed_unitary_du(kraus) -> float:
    """Exact DU of a channel whose canonical operators are multiples of
    orthogonal unitaries, F_k = alpha_k U_k: max_k |alpha_k|^2.

    The eigenvalues of the Kraus Gram matrix <E_j, E_k> are the canonical
    weights ||F_k||^2 = n |alpha_k|^2, so the DU is its top eigenvalue
    divided by n. Computed here without the package's canonical form.
    """
    ops = np.stack(kraus)
    flat = ops.reshape(len(ops), -1)
    return float(np.linalg.eigvalsh(flat.conj() @ flat.T)[-1]) / ops.shape[-1]


def v_type_amplitude_damping(g) -> KrausChannel:
    """Amplitude damping of levels 1..n-1 into level 0, n = len(g) + 1:
    E_0 = diag(1, g_1, ..., g_{n-1}) and E_j = sqrt(1 - g_j^2) |0><j|, with
    each g_j in [0, 1]. Its DU is (1 + sum_j g_j)^2 / n^2, at U = I."""
    g = np.asarray(g, dtype=float)
    n = g.size + 1
    ops = [np.diag(np.concatenate([[1.0], g])).astype(np.complex128)]
    for j, gj in enumerate(g, start=1):
        op = np.zeros((n, n), dtype=np.complex128)
        op[0, j] = np.sqrt(1.0 - gj * gj)
        ops.append(op)
    return KrausChannel(n, tuple(ops))


def werner_holevo(n: int) -> KrausChannel:
    """The antisymmetric Werner-Holevo channel, Kraus operators
    (|i><j| - |j><i|) / sqrt(n - 1) for i < j. Its DU is 2/n^2 for odd n and
    2/(n(n - 1)) for even n: f(U) = ||U - U^T||_F^2 / (2(n - 1)), and
    Re tr(U conj(U)) is at least -n for even n (U the symplectic form) and
    2 - n for odd n (the eigenvalue -1 of U conj(U) has even multiplicity)."""
    ops = []
    for i in range(n):
        for j in range(i + 1, n):
            op = np.zeros((n, n), dtype=np.complex128)
            op[i, j], op[j, i] = 1.0, -1.0
            ops.append(op / np.sqrt(n - 1))
    return KrausChannel(n, tuple(ops))


def werner_holevo_du(n: int) -> float:
    return 2.0 / n**2 if n % 2 else 2.0 / (n * (n - 1))


def qutrit_weyl_depolarizing(p: float) -> KrausChannel:
    """p rho + (1 - p) I/3 as the mixture of the 9 Weyl operators X^a Z^c, weight
    p + (1 - p)/9 on the identity and (1 - p)/9 on each other; its DU is the
    identity's weight."""
    x = np.roll(np.eye(3), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    weyl = [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, c)
            for a in range(3) for c in range(3)]
    probs = np.full(9, (1.0 - p) / 9)
    probs[0] += p
    return convex_unitary_mixture(weyl, probs)


def reference_standard_kraus(kind: str, p: float) -> np.ndarray:
    """The Kraus set of ``standard_channel(kind, p)`` built for one point,
    each operator written out from the formula: sqrt(weight) times its Pauli,
    or amplitude damping's two matrices, an operator whose coefficient is
    exactly zero omitted. Pins the family builder's output bit for bit."""
    if kind == "amplitude_damping":
        e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=np.complex128)
        e1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=np.complex128)
        return np.array([e0] if p == 0.0 else [e0, e1])
    q = 0.25 * p
    weights = {
        "depolarizing": (1.0 - 0.75 * p, q, q, q),
        "bit_flip": (p, 1.0 - p, 0.0, 0.0),
        "phase_flip": (p, 0.0, 0.0, 1.0 - p),
    }[kind]
    return np.array([np.sqrt(np.float64(w)) * op for w, op in zip(weights, PAULIS) if w != 0.0])


def reference_table1_rows(grid: int) -> tuple:
    """``run_table1(grid).rows`` by one ``du()`` per grid point, the
    per-channel loop the grouped driver must reproduce bit for bit."""
    from unitarity import closed_form_du, du, standard_channel
    from unitarity.harness import CHANNEL_FAMILIES, Table1Row

    rows = []
    for family in CHANNEL_FAMILIES:
        for p in np.linspace(0.0, 1.0, grid):
            res, _ = du(standard_channel(family, float(p)))
            ref = closed_form_du(family, float(p))
            error = abs(res.value - ref)
            rows.append(Table1Row(family, float(p), res.value, ref, error, res.method))
    return tuple(rows)


def reference_witness_values(traj) -> np.ndarray:
    """``run_witness(traj).du_values`` by one ``du()`` per channel, at its defaults."""
    from unitarity import du

    return np.array([du(ch)[0].value for ch in traj.channels])


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (normalized Wishart)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) element (unit determinant)."""
    from unitarity import haar_unitary

    u = haar_unitary(2, rng)
    det = np.linalg.det(u)
    return u * np.exp(-0.5j * np.angle(det))


def random_mixed_unitary_channel(
    rng: np.random.Generator, n_ops: int | None = None
) -> KrausChannel:
    """Random qubit channel sum_k p_k U_k rho U_k† with SU(2) unitaries."""
    if n_ops is None:
        n_ops = int(rng.integers(2, 5))
    probs = rng.dirichlet(np.ones(n_ops))
    ops = tuple(np.sqrt(p) * random_su2(rng) for p in probs)
    return KrausChannel(2, ops)


def remix_kraus(ch: KrausChannel, rng: np.random.Generator, extra: int = 0) -> KrausChannel:
    """Equivalent channel under an isometric remixing of the Kraus set.

    New operators A_m = sum_k v[m, k] E_k where v is the first k columns of
    a Haar unitary of size k + extra; the channel action is unchanged.
    """
    from unitarity import haar_unitary

    k = ch.n_ops
    v = haar_unitary(k + extra, rng)[:, :k]
    ops = np.stack(ch.kraus)
    mixed = np.einsum("mk,kab->mab", v, ops)
    return KrausChannel(ch.dim, tuple(mixed))


def reference_haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar unitary by the unbatched construction.

    The real then the imaginary Gaussian block from the generator, QR of the
    single matrix, and the R-diagonal phases pushed into Q. The library's
    batched sampler must reproduce it bit for bit.
    """
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    ph = np.where(np.abs(d) > 0.0, d / np.where(np.abs(d) > 0.0, np.abs(d), 1.0), 1.0)
    return q * ph


def reference_dilation_kraus(
    sys_dim: int, env_dim: int, rng: np.random.Generator, env_state=None
) -> np.ndarray:
    """Kraus stack (env_dim, sys_dim, sys_dim) of one Haar-dilation channel,
    built from :func:`reference_haar_unitary` one seed at a time, with the
    environment in ``env_state`` (|0>, the library's only choice, when None)."""
    u = reference_haar_unitary(sys_dim * env_dim, rng)
    t = u.reshape(sys_dim, env_dim, sys_dim, env_dim)
    if env_state is None:
        ops = t[:, :, :, 0]
    else:
        ops = np.einsum("akbt,t->akb", t, np.asarray(env_state, dtype=np.complex128))
    return np.ascontiguousarray(ops.transpose(1, 0, 2))


def reference_bounds(ops: np.ndarray) -> dict:
    """Bound fields of one canonical Kraus set (K, n, n), one LAPACK SVD per
    operator: the unbatched route the library's bound stage must agree with."""
    n = ops.shape[-1]
    svals = np.array([np.linalg.svd(op, compute_uv=False) for op in ops])
    nuc = svals.sum(axis=1)

    def lower_bound(op):
        u, _, vh = np.linalg.svd(op)
        w = u @ vh
        return sum(abs(np.vdot(w, f)) ** 2 for f in ops) / n**2

    return {
        "singular_values": svals,
        "lb1": lower_bound(ops[0]),
        "lb1_simplified": nuc[0] ** 2 / n**2,
        "lb2": lower_bound(ops[int(np.argmax(nuc))]),
        "ub": float((nuc**2).sum()) / n**2,
    }


def reference_unitary_multiples(ops: np.ndarray):
    """Which operators of a (..., n, n) stack satisfy F† F = c I, by the Gram
    matrix: ||F† F - c I||_F <= PROPORTIONALITY_TOL * max(1, tr F† F) with
    c = tr(F† F) / n. The library decides the same test from singular values.
    Returns the flags and c."""
    from unitarity.channels import PROPORTIONALITY_TOL

    n = ops.shape[-1]
    gram = np.einsum("...li,...lj->...ij", ops.conj(), ops)
    c = np.einsum("...ii->...", gram).real / n
    dev = np.linalg.norm(gram - c[..., None, None] * np.eye(n), axis=(-2, -1))
    return dev <= PROPORTIONALITY_TOL * np.maximum(1.0, c * n), c
