import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitarity import (
    as_mixed_unitary,
    canonicalize,
    compose,
    du,
    du_bounds,
    du_optimize,
    haar_unitary,
    identity_channel,
    process_fidelity,
    random_channel,
    standard_channel,
    unitary_channel,
)
from unitarity.channels import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    STANDARD_KINDS,
    CanonicalKraus,
    KrausChannel,
    _canonical_stack,
    _unitary_multiples,
)
from unitarity.du import (
    _ascend,
    _bound_stack,
    _du_stack,
    _DuStack,
    _newton_candidates,
    _qubit_du_stack,
)
from unitarity.linalg import _svd_polar

from helpers import (
    DU_MODULE,
    bloch_du,
    qubit_du_oracle,
    random_mixed_unitary_channel,
    reference_bounds,
    reference_mixed_unitary_du,
    reference_unitary_multiples,
    remix_kraus,
    qutrit_weyl_depolarizing,
    v_type_amplitude_damping,
    werner_holevo,
    werner_holevo_du,
)


class TestExactPath:
    def test_depolarizing(self):
        res, _ = du(standard_channel("depolarizing", 0.2))
        assert res.value == pytest.approx(0.85, abs=1e-12)
        assert res.method == "exact_mixed_unitary"

    def test_bit_flip_half(self):
        res, _ = du(standard_channel("bit_flip", 0.5))
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.method == "exact_mixed_unitary"

    def test_single_unitary(self):
        u = haar_unitary(2, np.random.default_rng(0))
        res, _ = du(unitary_channel(u))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.method == "exact_mixed_unitary"

    def test_witness_reproduces_value(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ch = random_mixed_unitary_channel(rng)
            res, _ = du(ch)
            assert res.method == "exact_mixed_unitary"
            assert abs(res.value - reference_mixed_unitary_du(ch.kraus)) <= 1e-12
            assert abs(process_fidelity(ch, res.witness) - res.value) <= 1e-9

    def test_leading_unitary_multiple_alone_is_exact(self):
        # p S rho S† + (1 - p) D(rho) on a qutrit, with S the cyclic shift and
        # D's operators of rank 1 on entries S leaves zero: the leading
        # canonical operator sqrt(p) S is a unitary multiple, no other one is.
        # The channel is no mixture of orthogonal unitaries, yet its DU is the
        # leading weight over n, p, with witness S
        p, q = 0.5, 0.3
        unit = [[np.outer(a, b) for b in np.eye(3)] for a in np.eye(3)]
        shift = unit[0][1] + unit[1][2] + unit[2][0]
        rest = [np.sqrt(q) * unit[0][0], unit[1][1], unit[2][2], np.sqrt(1 - q) * unit[1][0]]
        ch = KrausChannel(3, (np.sqrt(p) * shift, *(np.sqrt(1 - p) * m for m in rest)))
        ck = canonicalize(ch)
        ops = np.stack(ck.ops)
        flags = _unitary_multiples(_svd_polar(ops)[0])[0]
        assert flags.tolist() == reference_unitary_multiples(ops)[0].tolist()
        assert flags.tolist() == [True, False, False, False, False]
        assert as_mixed_unitary(ck) is None
        res, _ = du(ch, restarts=2)
        assert (res.method, res.sweeps_total) == ("exact_mixed_unitary", 0)
        assert abs(res.value - p) <= 1e-12
        assert abs(res.value - du_optimize(ch, restarts=64).value) <= 1e-12
        assert abs(process_fidelity(ch, res.witness) - p) <= 1e-12


class TestBounds:
    def test_amplitude_damping(self):
        rep = du_bounds(canonicalize(standard_channel("amplitude_damping", 0.36)))
        assert rep.lb1 == pytest.approx(0.81, abs=1e-12)
        assert rep.lb2 == pytest.approx(0.81, abs=1e-12)
        assert rep.lb1_simplified == pytest.approx(0.81, abs=1e-12)
        assert rep.ub == pytest.approx(0.90, abs=1e-12)
        # singular values {1, 0.8} and {0.6, 0}, hand-computed from A†A
        assert np.allclose(rep.singular_values[0], [1.0, 0.8])
        assert np.allclose(rep.singular_values[1], [0.6, 0.0])

    def test_zero_operator_has_no_row(self):
        # wherever a zero operator sits, the report has no row for it
        ck = canonicalize(standard_channel("amplitude_damping", 0.36))
        ops = np.stack([ck.ops[0], np.zeros((2, 2)), ck.ops[1]])
        rep = du_bounds(CanonicalKraus(2, ops, np.append(ck.weights, 0.0)))
        assert np.array_equal(rep.singular_values, du_bounds(ck).singular_values)
        assert not rep.singular_values.flags.writeable

    def test_unitary_channel_all_one(self):
        u = haar_unitary(2, np.random.default_rng(2))
        rep = du_bounds(canonicalize(unitary_channel(u)))
        for value in (rep.lb1, rep.lb1_simplified, rep.lb2, rep.ub):
            assert value == pytest.approx(1.0, abs=1e-9)

    def test_fully_depolarizing(self):
        # canonical operators are the four Paulis / 2; each has
        # (P/2)†(P/2) = I/4 so singular values are (1/2, 1/2) and nuclear
        # norm 1, oracle-checked below; ub = 4 * 1 / 4 = 1, lb1 = 1/4
        ck = canonicalize(standard_channel("depolarizing", 1.0))
        for f in ck.ops:
            gram_eigs = np.linalg.eigvalsh(f.conj().T @ f)
            assert np.allclose(np.sqrt(gram_eigs), [0.5, 0.5])
        rep = du_bounds(ck)
        assert rep.ub == pytest.approx(1.0, abs=1e-12)
        assert rep.lb1 == pytest.approx(0.25, abs=1e-12)
        assert rep.lb2 == pytest.approx(0.25, abs=1e-12)

    def test_bound_ordering_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ck = canonicalize(random_channel(2, int(rng.integers(1, 5)), rng))
            rep = du_bounds(ck)
            assert rep.lb1_simplified <= rep.lb1 + 1e-12
            assert max(rep.lb1, rep.lb2) <= rep.ub + 1e-9
            assert rep.ub <= 1.0 + 1e-12

    def test_witnesses_are_unitary(self):
        rep = du_bounds(canonicalize(standard_channel("amplitude_damping", 0.7)))
        for w in (rep.witness_lb1, rep.witness_lb2):
            assert np.linalg.norm(w.conj().T @ w - np.eye(2)) <= 1e-9


def _padded_kraus(channels) -> np.ndarray:
    """One (B, K, n, n) stack of the channels' Kraus sets, padded with zero
    operators to the largest Kraus count."""
    k = max(ch.n_ops for ch in channels)
    stack = np.zeros((len(channels), k, channels[0].dim, channels[0].dim), dtype=np.complex128)
    for row, ch in zip(stack, channels):
        row[: ch.n_ops] = ch.kraus
    return stack


class TestQubitBoundStage:
    """The bound stage, closed form for qubits and one batched SVD with
    vectors above, at every operator count, against one LAPACK SVD per
    operator."""

    @staticmethod
    def check(kraus):
        _, ops = _canonical_stack(kraus)
        stack = _bound_stack(ops)
        for i, channel_ops in enumerate(ops):
            ref = reference_bounds(channel_ops)
            for field, want in ref.items():
                got = getattr(stack, field)[i]
                assert np.all(np.abs(got - want) <= 1e-14), field
            for w in stack.witnesses[i]:
                assert np.linalg.norm(w.conj().T @ w - np.eye(len(w))) <= 1e-14

    @pytest.mark.parametrize("env_dim", [1, 2, 3, 4])
    def test_random_batches(self, env_dim):
        rng = np.random.default_rng(200 + env_dim)
        self.check(_padded_kraus([random_channel(2, env_dim, rng) for _ in range(64)]))

    @pytest.mark.parametrize(
        "sys_dim, first_env, count, seed",
        [(3, 1, 32, 303), (4, 1, 32, 304), (3, 5, 16, 403), (8, 5, 16, 408)],
        ids=["3", "4", "3-wide", "8-wide"],
    )
    def test_random_batches_beyond_qubits(self, sys_dim, first_env, count, seed):
        # environment sizes first_env .. first_env + 3 in one stack, so zero
        # padding operators go through too, and the wide batches have more
        # than four canonical operators per channel
        rng = np.random.default_rng(seed)
        self.check(_padded_kraus([random_channel(sys_dim, first_env + i % 4, rng)
                                  for i in range(count)]))

    def test_standard_families(self):
        # one stack over the four families, so the zero padding operators and
        # the rank-deficient amplitude-damping jump operator go through it too
        grid = np.linspace(0.0, 1.0, 21)
        self.check(_padded_kraus([standard_channel(k, float(p)) for k in STANDARD_KINDS for p in grid]))


class TestOptimizer:
    def test_amplitude_damping(self):
        ch = standard_channel("amplitude_damping", 0.36)
        res = du_optimize(ch, restarts=8, rng=np.random.default_rng(4))
        assert res.method == "numerical_optimizer"
        assert res.value == pytest.approx(0.81, abs=1e-9)
        # nearest unitary is the identity up to a global phase
        assert abs(np.trace(res.witness)) == pytest.approx(2.0, abs=1e-6)
        assert res.converged

    def test_depolarizing(self):
        res = du_optimize(standard_channel("depolarizing", 0.2), restarts=8,
                          rng=np.random.default_rng(5))
        assert res.value == pytest.approx(0.85, abs=1e-9)

    def test_matches_exact_on_mixed_unitary(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            ch = random_mixed_unitary_channel(rng)
            assert du(ch)[0].method == "exact_mixed_unitary"
            opt = du_optimize(ch, restarts=4, rng=rng)
            assert abs(reference_mixed_unitary_du(ch.kraus) - opt.value) < 1e-6

    def test_matches_closed_form_oracle(self):
        # independent check: qubit DU reduces to a 4x4 real symmetric
        # eigenproblem; the ascent must reach that optimum
        rng = np.random.default_rng(7)
        for _ in range(50):
            ch = random_channel(2, int(rng.integers(2, 5)), rng)
            oracle, _ = qubit_du_oracle(ch.kraus)
            opt = du_optimize(ch, restarts=8, rng=rng)
            assert opt.value == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_objective_trace_monotone(self, n):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ch = random_channel(n, 4, rng)
            res = du_optimize(ch, restarts=4, rng=rng, trace=True)
            seq = np.array(res.objective_trace)
            assert np.all(np.diff(seq) >= -1e-12 * np.maximum(1.0, seq[:-1]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_iterations_count_the_winning_starts_sweeps(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(4):
            ch = random_channel(n, 3, rng)
            res = du_optimize(ch, restarts=6, rng=rng, trace=True)
            assert res.iterations == len(res.objective_trace) - 1
            assert res.iterations >= 1

    def test_identical_warm_starts_keep_one(self):
        # the leading canonical operator also has the largest nuclear norm,
        # so the lb1 and lb2 warm starts coincide: the tie-break retires the
        # second after one sweep and keeps the first ascending
        ch = random_channel(3, 2, np.random.default_rng(0))
        bounds = du_bounds(canonicalize(ch))
        assert np.array_equal(bounds.witness_lb1, bounds.witness_lb2)
        res = du_optimize(ch, restarts=0)
        assert res.converged and res.iterations > 1
        assert res.sweeps_total == res.iterations + 1
        assert res.value >= bounds.lb1 - 1e-12

    @staticmethod
    def _near_identity(n, dist, rng):
        """A unitary exp(iH), H traceless Hermitian with ||H||_F = dist."""
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = h + h.conj().T
        lam, v = np.linalg.eigh(h - np.trace(h).real / n * np.eye(n))
        lam *= dist / np.linalg.norm(lam)
        return (v * np.exp(1j * lam)) @ v.conj().T

    @pytest.mark.parametrize("start, after_one_sweep, retires", [
        (0.05, (2e-3, 0.1), True),
        (1.2, (0.6, 1.0), False),
    ], ids=["inside", "outside"])
    def test_start_retires_once_within_the_join_radius(self, start, after_one_sweep, retires,
                                                       monkeypatch):
        # polar(E_0) = I maximizes a V-type channel, so the warm start I is
        # ahead of every other start. A second warm start, at Frobenius
        # distance start * ||U||_F from I up to a phase, retires after one
        # sweep exactly when that sweep leaves it within the join radius
        # sqrt(2 DUPLICATE_TOL) ||U||_F (0.45; 0.0014 at DUPLICATE_TOL = 1e-6).
        n = 3
        _, ops = _canonical_stack(v_type_amplitude_damping([0.2, 0.2]).kraus[None])
        w = self._near_identity(n, start * np.sqrt(n), np.random.default_rng(0))
        w1 = _svd_polar(np.einsum("k,kij->ij", np.einsum("kij,ij->k", ops[0].conj(), w),
                                  ops[0])[None])[1][0]
        lo, hi = after_one_sweep
        assert lo < np.sqrt(2 - 2 * abs(np.trace(w1)) / n) < hi
        warm = np.stack([np.eye(n, dtype=np.complex128), w])[None]

        def ascend():
            _, _, sweeps, _, _, sweeps_total = _ascend(ops, warm, [np.random.default_rng(0)],
                                                       0, False)
            return int(sweeps[0]), int(sweeps_total[0])

        iterations, sweeps_total = ascend()
        assert iterations == 1
        assert (sweeps_total == iterations + 1) == retires
        # both stay outside the radius at DUPLICATE_TOL = 1e-6, so both climb on
        monkeypatch.setattr(DU_MODULE, "DUPLICATE_TOL", 1e-6)
        assert ascend()[1] > 2

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_join_radius_loses_no_value(self, n, monkeypatch):
        # a start retires in another's basin, not at its fixed point; with
        # DUPLICATE_TOL = 0 no two distinct starts join, and every start
        # climbs to its own fixed point. No start retires as a straggler on
        # either side: without joins a fast duplicate start can converge first
        # and retire a slow start that joins would have kept climbing
        monkeypatch.setattr(DU_MODULE, "STRAGGLER_RATIO", math.inf)
        envs = {2, 3, n, 2 * n} if n <= 5 else {2, 3, n}
        channels = [random_channel(n, env, np.random.default_rng([18, n, env, i]))
                    for env in sorted(envs) for i in range(8)]
        joined = [du(ch)[0] for ch in channels]
        monkeypatch.setattr(DU_MODULE, "DUPLICATE_TOL", 0.0)
        alone = [du(ch)[0] for ch in channels]
        for a, b in zip(joined, alone):
            assert a.converged and b.converged
            assert abs(a.value - b.value) <= 1e-9
            assert a.sweeps_total <= b.sweeps_total

    @pytest.mark.parametrize("n, env, i", [(3, 3, 1), (4, 4, 3), (8, 8, 2)])
    def test_stragglers_retire_once_the_leader_converged(self, n, env, i, monkeypatch):
        # on these channels starts still climb after the winner converged;
        # they retire as stragglers, which cuts the sweeps but leaves the
        # winner and its own ascent as they are. STRAGGLER_RATIO = inf never
        # retires a climbing start
        ch = random_channel(n, env, np.random.default_rng([41, n, env, i]))
        cut, _ = du(ch)
        monkeypatch.setattr(DU_MODULE, "STRAGGLER_RATIO", math.inf)
        full, _ = du(ch)
        assert cut.converged and full.converged
        assert cut.sweeps_total < full.sweeps_total
        assert (cut.value, cut.iterations) == (full.value, full.iterations)
        assert np.array_equal(cut.witness, full.witness)

    # two channels of the perfbench pools on which a start still climbing
    # when its channel's leader converged later overtook it, by 1.2e-4 and
    # 8.2e-6 in DU: it then trailed by 2.7 and 3.6 times its last sweep's
    # gain, so a STRAGGLER_RATIO at or below that loses these values
    OVERTAKEN = {(4, 59): 0.277099890916183, (8, 190): 0.144729057327575}

    @pytest.mark.parametrize("n, i", sorted(OVERTAKEN))
    def test_straggler_that_overtakes_keeps_climbing(self, n, i):
        res, _ = du(random_channel(n, n, np.random.default_rng([n, i])))
        assert res.converged
        assert abs(res.value - self.OVERTAKEN[n, i]) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_sweeps_total_counts_polar_factors(self, n, monkeypatch):
        rng = np.random.default_rng(20 + n)
        calls = []

        def counting(m):
            calls.append(len(m))
            return _svd_polar(m)

        monkeypatch.setattr(DU_MODULE, "_svd_polar", counting)
        for b in range(3):
            _, ops = _canonical_stack(np.stack(random_channel(n, 3, rng).kraus)[None])
            warm = _bound_stack(ops).witnesses
            calls.clear()
            *_, sweeps_total = _ascend(ops, warm, [np.random.default_rng(b)], 6, False)
            assert sweeps_total.tolist() == [sum(calls)]

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_winner_is_a_critical_point(self, n):
        # a polar sweep gaining less than CONVERGENCE_TOL does not put a start
        # at its fixed point; the Newton finish does. The Riemannian gradient
        # of f at the witness is the traceless anti-Hermitian part of U† G,
        # G = sum_k tr(E_k† U) E_k, and must vanish relative to max(1, f).
        for env in (2, 3, n):
            ch = random_channel(n, env, np.random.default_rng([23, n, env]))
            res, _ = du(ch)
            assert (res.method, res.converged) == ("numerical_optimizer", True)
            u = res.witness
            c = np.einsum("kij,ij->k", ch.kraus.conj(), u)
            s = u.conj().T @ np.einsum("k,kij->ij", c, ch.kraus)
            skew = (s - s.conj().T) / 2 - np.trace(s).imag / n * 1j * np.eye(n)
            assert np.linalg.norm(skew) / max(1.0, np.sum(np.abs(c) ** 2)) <= 1e-8

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_newton_finish_shortens_the_tail(self, n, monkeypatch):
        # against the polar sweeps alone, the Newton finish takes the winner
        # to its fixed point in fewer sweeps, and its value is no lower
        channels = [random_channel(n, env, np.random.default_rng([6, n, env]))
                    for env in sorted({2, n})]
        newton = [du(ch)[0] for ch in channels]
        monkeypatch.setattr(DU_MODULE, "NEWTON_MAX_DIM", 0)
        polar = [du(ch)[0] for ch in channels]
        for a, b in zip(newton, polar):
            assert a.converged and b.converged
            assert a.iterations < b.iterations
            assert a.value >= b.value - 1e-15

    def test_newton_step_with_a_singular_hessian(self):
        # a start whose operators are all zero has a zero Hessian: its system
        # is not solved, and the other start of the stack gets its own step,
        # bit for bit as when it is alone
        n = 3
        rng = np.random.default_rng(1)
        _, ops = _canonical_stack(random_channel(n, 3, rng).kraus[None])
        u = haar_unitary(n, rng)
        c = np.einsum("kij,ij->k", ops[0].conj(), u)
        g = np.einsum("k,kij->ij", c, ops[0])
        fh = ops[0].conj().transpose(0, 2, 1).reshape(-1, n)
        alone, solved = _newton_candidates(u[None], g[None], fh[None])
        assert solved.tolist() == [True]
        zero = np.zeros_like(g)
        cand, solved = _newton_candidates(np.stack([u, u]), np.stack([zero, g]),
                                          np.stack([np.zeros_like(fh), fh]))
        assert solved.tolist() == [False, True]
        assert np.array_equal(cand[1], alone[0])

    def test_witness_reproduces_value(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ch = random_channel(2, 2, rng)
            res = du_optimize(ch, restarts=4, rng=rng)
            assert abs(process_fidelity(ch, res.witness) - res.value) <= 1e-9

    def test_deterministic_default_rng(self):
        ch = standard_channel("amplitude_damping", 0.5)
        a = du_optimize(ch)
        b = du_optimize(ch)
        assert a.value == b.value
        assert np.array_equal(a.witness, b.witness)

    def test_rejects_invalid_channel(self):
        from unitarity import ChannelValidationError

        with pytest.raises(ChannelValidationError):
            du_optimize(KrausChannel(2, (0.9 * np.eye(2),)))


class TestDispatcher:
    def test_identity(self):
        res, rep = du(identity_channel(2))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.method == "exact_mixed_unitary"
        assert rep.ub == pytest.approx(1.0, abs=1e-12)

    def test_amplitude_damping(self):
        res, rep = du(standard_channel("amplitude_damping", 0.36), restarts=8)
        assert res.method == "exact_qubit"
        assert res.value == pytest.approx(0.81, abs=1e-9)
        assert rep.lb1 == pytest.approx(0.81, abs=1e-12)
        assert rep.ub == pytest.approx(0.90, abs=1e-12)

    def test_fully_depolarizing(self):
        res, _ = du(standard_channel("depolarizing", 1.0))
        assert res.value == pytest.approx(0.25, abs=1e-9)
        assert res.method == "exact_mixed_unitary"

    def test_sandwich_and_range(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            ch = random_channel(2, int(rng.integers(1, 5)), rng)
            res, rep = du(ch, restarts=4, rng=rng)
            assert max(rep.lb1, rep.lb2) - 1e-9 <= res.value <= rep.ub + 1e-9
            assert 0.25 - 1e-9 <= res.value <= 1.0 + 1e-9

    def test_kraus_representation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            ch = random_channel(2, 2, rng)
            base, _ = du(ch, restarts=8, rng=rng)
            remixed, _ = du(remix_kraus(ch, rng, extra=2), restarts=8, rng=rng)
            assert abs(base.value - remixed.value) <= 1e-8

    def test_unitary_composition_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            ch = random_channel(2, 2, rng)
            u = unitary_channel(haar_unitary(2, rng))
            base, _ = du(ch, restarts=8, rng=rng)
            pre, _ = du(compose(ch, u), restarts=8, rng=rng)
            post, _ = du(compose(u, ch), restarts=8, rng=rng)
            assert abs(base.value - pre.value) <= 1e-8
            assert abs(base.value - post.value) <= 1e-8

    def test_qubit_du_never_rises_under_a_cptp_step(self):
        # DU(L o P) <= DU(P) and DU(P o L) <= DU(P) for qubit channels (proof
        # in harness.WitnessReport), on the exact routes, which take no Haar
        # starts
        rng = np.random.default_rng(13)
        for env_p in range(1, 5):
            for env_l in range(1, 5):
                for _ in range(8):
                    p = random_channel(2, env_p, rng)
                    lam = random_channel(2, env_l, rng)
                    base, _ = du(p)
                    for step in (compose(lam, p), compose(p, lam)):
                        res, _ = du(step)
                        assert res.method != "numerical_optimizer"
                        assert res.value <= base.value + 1e-12

    def test_reports_nonconvergence(self, monkeypatch):
        # with a one-sweep cap no start of a generic qutrit ascent converges,
        # and both the pipeline and the reference say so
        ch = random_channel(3, 2, np.random.default_rng(15))
        monkeypatch.setattr(DU_MODULE, "MAX_ITERATIONS", 1)
        res, rep = du(ch, restarts=2)
        assert res.method == "numerical_optimizer"
        assert (res.iterations, res.converged) == (1, False)
        assert max(rep.lb1, rep.lb2) - 1e-9 <= res.value <= rep.ub + 1e-9
        assert not du_optimize(ch, restarts=2).converged

    # du() values recorded while every start still ascended to its own
    # convergence, before starts retired on joining a better start; both
    # entry points take the ascent on these channels
    PINNED = {
        (3, 2): 0.7158814374521527,
        (3, 3): 0.46801446222653337,
        (4, 2): 0.4523105164941942,
        (4, 4): 0.36633175207390045,
        (8, 2): 0.4502782932778306,
        (8, 8): 0.14510393201756414,
    }

    @pytest.mark.parametrize("n, env", sorted(PINNED))
    def test_pinned_ascent_values(self, n, env):
        res, _ = du(random_channel(n, env, np.random.default_rng([12, n, env])))
        assert (res.method, res.converged) == ("numerical_optimizer", True)
        assert abs(res.value - self.PINNED[n, env]) <= 1e-11

    @pytest.mark.parametrize("n, env", sorted(PINNED))
    def test_pinned_ascent_values_du_optimize(self, n, env):
        res = du_optimize(random_channel(n, env, np.random.default_rng([12, n, env])))
        assert (res.method, res.converged) == ("numerical_optimizer", True)
        assert abs(res.value - self.PINNED[n, env]) <= 1e-11

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_ascent_reaches_v_type_amplitude_damping_closed_form(self, n):
        # E_0 = diag(1, g), E_j = sqrt(1 - g_j^2) |0><j|: no canonical operator
        # is a unitary multiple, so the ascent must find DU = (1 + sum g)^2 / n^2.
        # The lb1 warm start, polar(E_0) = I, is already a maximizer, so the
        # Haar starts must also climb to it on their own.
        rng = np.random.default_rng(3)
        for i in range(10):
            g = rng.uniform(0.0, 1.0, n - 1)
            ch = v_type_amplitude_damping(g)
            want = (1.0 + g.sum()) ** 2 / n**2
            res, _ = du(ch)
            assert res.method == "numerical_optimizer"
            assert abs(res.value - want) <= 1e-9
            _, ops = _canonical_stack(np.stack(ch.kraus)[None])
            no_warm = np.zeros((1, 0, n, n), dtype=np.complex128)
            value = _ascend(ops, no_warm, [np.random.default_rng(i)], 8, False)[0]
            assert abs(value[0] - want) <= 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_werner_holevo_closed_form(self, n):
        # unital, and not a mixture of unitaries at n = 3; the Haar starts
        # alone must also reach DU = 2/n^2 (odd n) or 2/(n(n - 1)) (even n)
        ch = werner_holevo(n)
        want = werner_holevo_du(n)
        res, _ = du(ch)
        assert res.method == "numerical_optimizer"
        assert abs(res.value - want) <= 1e-12
        _, ops = _canonical_stack(ch.kraus[None])
        no_warm = np.zeros((1, 0, n, n), dtype=np.complex128)
        for seed in range(4):
            value = _ascend(ops, no_warm, [np.random.default_rng(seed)], 8, False)[0]
            assert abs(value[0] - want) <= 1e-12

    @pytest.mark.parametrize("p", [0.9, 0.5, 0.0])
    def test_qutrit_weyl_depolarizing_closed_form(self, p):
        # the identity's weight leads for p > 0, so its canonical operator is
        # a unitary multiple and the route is exact; at p = 0 the nine weights
        # are equal, eigh returns a basis whose leading operator is not one,
        # and the ascent runs
        res, _ = du(qutrit_weyl_depolarizing(p))
        assert abs(res.value - (p + (1 - p) / 9)) <= 1e-12
        if p > 0:
            assert (res.method, res.sweeps_total) == ("exact_mixed_unitary", 0)
        else:
            assert res.method == "numerical_optimizer"

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_leading_unitary_multiple_is_exact(self, n, q):
        # {sqrt(q) I, sqrt(1 - q) W_k}: the leading canonical operator is
        # sqrt(q) I, a unitary multiple, while the W_k have rank 2; DU is
        # the leading weight over n, q, whatever the other operators are
        ops = [np.sqrt(q) * np.eye(n)] + [np.sqrt(1 - q) * w for w in werner_holevo(n).kraus]
        ch = KrausChannel(n, ops)
        res, _ = du(ch)
        assert (res.method, res.sweeps_total) == ("exact_mixed_unitary", 0)
        assert abs(res.value - q) <= 1e-12
        assert abs(res.value - du_optimize(ch, restarts=64).value) <= 1e-12

    def test_default_restarts_reach_the_sweep_floor(self):
        # Of the 3248 random_channel(n, env, default_rng([s, n, env, i]))
        # draws (n = 3..8) with seed prefix 11, this is one of the two on which
        # 12 Haar starts fall short of 16; it first reaches the maximum at 14.
        # A default below 16 must re-run that sweep
        ch = random_channel(7, 14, np.random.default_rng([11, 7, 14, 96]))
        best = du_optimize(ch, restarts=64).value
        assert abs(best - 0.11339369853598) <= 1e-9
        assert abs(du(ch)[0].value - best) <= 1e-9
        assert abs(du(ch, restarts=12)[0].value - 0.11212470017083) <= 1e-9

    @pytest.mark.parametrize("seed, parent_value, parent_sweeps", [
        ([8, 370], 0.16118230363774, 598),
        ([8, 197], 0.15809248690542, 395),
    ], ids=["8-370", "8-197"])
    def test_failed_newton_step_keeps_the_newton_phase(self, seed, parent_value, parent_sweeps):
        # perfbench's n = 8 pool channels 370 and 197, on which a start's
        # Newton step fails long before it converges. A start left on polar
        # sweeps after that failure climbs a linear tail, parent_sweeps polar
        # factors in all; one that tries Newton again takes 303 and 207. The
        # 0.75 leaves room for another LAPACK build
        res, _ = du(random_channel(8, 8, np.random.default_rng(seed)))
        assert res.converged
        assert res.value >= parent_value - 1e-9
        assert res.sweeps_total < 0.75 * parent_sweeps

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: until a dual certificate gates the Haar starts, a later "
        "start can retire the eventual winner by the join rule"))
    def test_more_restarts_never_lower_the_value(self):
        # 32 starts end at 0.45189167584915313, 16 at 0.45221721908216705
        ch = random_channel(4, 2, np.random.default_rng([13, 4, 2, 60]))
        assert du(ch, restarts=32)[0].value >= du(ch, restarts=16)[0].value - 1e-12

    def test_ascent_v_type_amplitude_damping_with_a_zero_rate(self):
        res, _ = du(v_type_amplitude_damping([0.0, 0.5]))
        assert res.method == "numerical_optimizer"
        assert abs(res.value - 0.25) <= 1e-9

    def test_table_closed_forms(self):
        from unitarity import closed_form_du

        rng = np.random.default_rng(14)
        for kind in ("depolarizing", "bit_flip", "phase_flip", "amplitude_damping"):
            for p in rng.uniform(0.0, 1.0, 12):
                ch = standard_channel(kind, float(p))
                res, _ = du(ch, restarts=4)
                assert abs(res.value - closed_form_du(kind, float(p))) <= 1e-9
                assert abs(res.value - bloch_du(ch.kraus)) <= 1e-12


class TestArithmeticGuards:
    """The core's consistency checks raise ArithmeticError on a broken stage."""

    @pytest.mark.parametrize("evaluate", [du, du_optimize])
    def test_value_above_upper_bound_raises(self, evaluate, monkeypatch):
        # an upper bound of 0 lies below every DU, 1/n^2 at least
        def lowered(ops):
            s = _bound_stack(ops)
            return s._replace(ub=np.zeros_like(s.ub))

        monkeypatch.setattr(DU_MODULE, "_bound_stack", lowered)
        with pytest.raises(ArithmeticError, match="escapes bounds"):
            evaluate(random_channel(3, 2, np.random.default_rng(5)))

    def test_ascent_step_that_lowers_the_objective_raises(self, monkeypatch):
        # On the qubit identity channel G is a multiple of I, so every polar
        # factor is a phase times I, which the patched kernel turns into a
        # traceless diag(1, -1) of objective 0, below any Haar start's |tr U|^2.
        def worse(a):
            s, w = _svd_polar(a)
            return s, w * [1, -1]

        monkeypatch.setattr(DU_MODULE, "_svd_polar", worse)
        with pytest.raises(ArithmeticError, match="decreased the objective"):
            du_optimize(identity_channel(2))


class TestPauliChannelEdge:
    def test_equal_weight_xy_mixture(self):
        # 0.5 X + 0.5 Y mixture: degenerate canonical weights, still exact
        ch = KrausChannel(2, (np.sqrt(0.5) * PAULI_X, np.sqrt(0.5) * PAULI_Y))
        res, rep = du(ch)
        assert res.value == pytest.approx(0.5, abs=1e-9)
        oracle, _ = qubit_du_oracle(ch.kraus)
        assert oracle == pytest.approx(0.5, abs=1e-12)

    def test_dephasing_projectors(self):
        # {|0><0|, |1><1|}: not mixed-unitary; the optimum aligns with Z
        # diagonals giving exactly 1/2
        ch = KrausChannel(
            2,
            (
                np.array([[1, 0], [0, 0]], dtype=complex),
                np.array([[0, 0], [0, 1]], dtype=complex),
            ),
        )
        res, rep = du(ch, restarts=8)
        assert res.method == "exact_qubit"
        assert res.value == pytest.approx(0.5, abs=1e-9)
        assert rep.ub == pytest.approx(0.5, abs=1e-12)

    def test_paulis_are_fixed_points_not_traps(self):
        # fully depolarizing: every unitary scores exactly 1/4
        ch = standard_channel("depolarizing", 1.0)
        rng = np.random.default_rng(15)
        for _ in range(5):
            u = haar_unitary(2, rng)
            assert process_fidelity(ch, u) == pytest.approx(0.25, abs=1e-12)
        oracle, _ = qubit_du_oracle(ch.kraus)
        assert oracle == pytest.approx(0.25, abs=1e-12)

    def test_optimizer_handles_pauli_z_mixture(self):
        ch = KrausChannel(2, (np.sqrt(0.7) * PAULI_Z, np.sqrt(0.3) * np.eye(2, dtype=complex)))
        res, _ = du(ch)
        assert res.value == pytest.approx(0.7, abs=1e-9)


DEPHASING_PROJECTORS = KrausChannel(
    2,
    (
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.array([[0, 0], [0, 1]], dtype=complex),
    ),
)


class TestQubitExact:
    """The exact qubit kernel against the independent 4x4 oracle and the
    ascent, which stay two separate routes, and du() against the Bloch-ball
    formula, which shares no step with either."""

    @staticmethod
    def check(ch, rng):
        values, witnesses = _qubit_du_stack(np.stack(ch.kraus)[None])
        value, w = float(values[0]), witnesses[0]
        oracle, _ = qubit_du_oracle(ch.kraus)
        opt = du_optimize(ch, restarts=8, rng=rng)
        rep = du_bounds(canonicalize(ch))
        assert abs(value - oracle) <= 1e-9
        assert abs(value - opt.value) <= 1e-9
        assert abs(du(ch)[0].value - bloch_du(ch.kraus)) <= 1e-12
        assert np.linalg.norm(w.conj().T @ w - np.eye(2)) <= 1e-9
        assert abs(process_fidelity(ch, w) - value) <= 1e-9
        assert max(rep.lb1, rep.lb2) - 1e-9 <= value <= rep.ub + 1e-9
        return value

    @pytest.mark.parametrize("env_dim", [1, 2, 3, 4])
    def test_random_channels(self, env_dim):
        rng = np.random.default_rng(100 + env_dim)
        for _ in range(20):
            ch = random_channel(2, env_dim, rng)
            self.check(ch, rng)

    @pytest.mark.parametrize(
        "ch, want",
        [
            (standard_channel("depolarizing", 1.0), 0.25),
            (DEPHASING_PROJECTORS, 0.5),
            (standard_channel("amplitude_damping", 0.36), 0.81),
            (standard_channel("amplitude_damping", 1.0), 0.25),
            (unitary_channel(haar_unitary(2, np.random.default_rng(16))), 1.0),
        ],
        ids=["fully-depolarizing", "dephasing-projectors", "ad-0.36", "ad-1", "unitary"],
    )
    def test_edge_cases(self, ch, want):
        # fully depolarizing has a fourfold degenerate top eigenvalue
        value = self.check(ch, np.random.default_rng(17))
        assert value == pytest.approx(want, abs=1e-9)


def _dilation_stack(n, d, seed, count):
    """Kraus stack (count, d, n, n) of Haar-dilation channels."""
    rng = np.random.default_rng(seed)
    return np.stack([np.stack(random_channel(n, d, rng).kraus) for _ in range(count)])


def _mixed_rank_stack(n, d, seed, count):
    """Kraus stack (count, d, n, n) in which channel i is a Haar-dilation
    channel of rank 1 + i % d, its operators mapped to d by a Haar isometry."""
    rng = np.random.default_rng(seed)
    ranks = [1 + i % d for i in range(count)]
    return np.stack([remix_kraus(random_channel(n, r, rng), rng, extra=d - r).kraus for r in ranks])


def _core(kraus, seed, restarts=8):
    """The DU core on a stack, channel i restarting from generator [seed, i]."""
    rngs = [np.random.default_rng([seed, i]) for i in range(len(kraus))]
    return _du_stack(kraus, rngs, restarts)


CORE_CASES = dict(
    n=st.integers(2, 5),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)


class TestCoreProperties:
    """Properties of the batched DU core over dimensions 2 to 5: the exact
    routes (d = 1 gives unitary channels), the qubit kernel and the ascent."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(count=st.integers(2, 4), mixed_rank=st.booleans(), **CORE_CASES)
    def test_stack_matches_stacks_of_one(self, n, d, seed, count, mixed_rank):
        # with mixed_rank, channels of ranks 1..d share one stack of d operators each
        stack_of = _mixed_rank_stack if mixed_rank else _dilation_stack
        kraus = stack_of(n, d, seed, count)
        rngs = [np.random.default_rng([seed, i]) for i in range(count)]
        stack = _du_stack(kraus, rngs, 2, trace=True)
        for i in range(count):
            alone = _du_stack(kraus[i : i + 1], [np.random.default_rng([seed, i])], 2, trace=True)
            for field in _DuStack._fields:
                assert np.array_equal(getattr(alone, field)[0], getattr(stack, field)[i]), field

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(**CORE_CASES)
    def test_invariant_under_remixing_and_unitary_composition(self, n, d, seed):
        kraus = _dilation_stack(n, d, seed, 1)[0]
        rng = np.random.default_rng([seed, 1])
        v = haar_unitary(d, rng)
        pre, post = haar_unitary(n, rng), haar_unitary(n, rng)
        variants = np.stack([
            kraus,
            np.einsum("mk,kij->mij", v, kraus),
            kraus @ pre,
            post @ kraus,
        ])
        values = _core(variants, seed).du
        assert np.ptp(values) <= 1e-9

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(**CORE_CASES)
    def test_range_sandwich_and_witness(self, n, d, seed):
        kraus = _dilation_stack(n, d, seed, 3)
        s = _core(kraus, seed)
        assert np.all(s.du >= 1 / n**2 - 1e-9)
        assert np.all(s.du <= 1 + 1e-9)
        assert np.all(np.maximum(s.lb1, s.lb2) - 1e-9 <= s.du)
        assert np.all(s.du <= s.ub + 1e-9)
        for ops, value, w in zip(kraus, s.du, s.witness):
            assert abs(process_fidelity(KrausChannel(n, tuple(ops)), w) - value) <= 1e-9
