import re

import numpy as np
import pytest

from unitarity import (
    CanonicalKraus,
    ChannelValidationError,
    ChiMatrix,
    KrausChannel,
    Trajectory,
    apply_channel,
    as_mixed_unitary,
    canonicalize,
    chi_to_kraus,
    compose,
    convex_unitary_mixture,
    du,
    du_bounds,
    du_optimize,
    identity_channel,
    kraus_to_chi,
    random_channel,
    require_trace_preserving,
    run_distribution,
    run_tightness,
    run_witness,
    standard_channel,
    unitary_channel,
    validate,
)
from unitarity.channels import (
    PAULI_X,
    PROPORTIONALITY_TOL,
    STANDARD_KINDS,
    _canonical_stack,
    _dilation_kraus_stack,
    _standard_kraus,
    _trace_residuals,
    _unitary_multiples,
)
from unitarity.linalg import _svd_polar, haar_unitary

from helpers import (
    random_mixed_unitary_channel,
    random_su2,
    reference_dilation_kraus,
    reference_standard_kraus,
    reference_unitary_multiples,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]])


def random_tp_channel(rng, dim=2, env=4):
    return random_channel(dim, env, rng)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="a channel needs at least one Kraus operator"):
            KrausChannel(2, ())

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"Kraus operator shape \(3, 3\) does not match dim 2"):
            KrausChannel(2, (np.eye(3),))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"matrix entries must be finite \(no NaN/Inf\)"):
            KrausChannel(2, (np.full((2, 2), np.nan),))

    @pytest.mark.parametrize(
        "kraus, message",
        [
            ([], "a channel needs at least one Kraus operator"),
            ((op for op in ()), "a channel needs at least one Kraus operator"),
            (np.zeros((0, 2, 2)), "a channel needs at least one Kraus operator"),
            ([np.eye(2), np.eye(3)], r"Kraus operator shape \(3, 3\) does not match dim 2"),
            ([np.eye(2), np.ones((2, 3))], r"Kraus operator shape \(2, 3\) does not match dim 2"),
            (np.eye(3)[None], r"Kraus operator shape \(3, 3\) does not match dim 2"),
            ([np.eye(2), [1.0, 0.0]], "expected a 2-D matrix, got ndim=1"),
            ([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]], r"entries must be finite \(no NaN/Inf\)"),
            (np.full((1, 2, 2), np.inf), r"entries must be finite \(no NaN/Inf\)"),
        ],
        ids=["empty-list", "empty-generator", "empty-array", "ragged-list", "non-square",
             "array-wrong-dim", "one-dimensional", "nan-in-list", "inf-array"],
    )
    def test_input_contract_messages(self, kraus, message):
        # shapes are checked operator by operator before the set is stacked,
        # so a ragged list never reaches numpy
        with pytest.raises(ValueError, match=message):
            KrausChannel(2, kraus)

    @pytest.mark.parametrize(
        "container",
        [
            tuple,
            list,
            iter,
            np.array,
            # non-C-ordered arrays; the operators are symmetric, so the
            # transposed view holds the same set
            lambda ops: np.asfortranarray(np.stack(ops)),
            lambda ops: np.stack(ops).transpose(0, 2, 1),
        ],
        ids=["tuple", "list", "iter", "array", "fortran", "transposed_view"],
    )
    def test_any_iterable_of_operators(self, container):
        ops = [np.sqrt(0.3) * np.eye(2), np.sqrt(0.7) * PAULI_X]
        ch = KrausChannel(2, container(ops))
        assert ch.kraus.shape == (2, 2, 2) and ch.n_ops == 2 and len(ch.kraus) == 2
        assert ch.kraus.dtype == np.complex128 and ch.kraus.flags.c_contiguous
        assert not ch.kraus.flags.writeable
        assert np.array_equal(ch.kraus, np.stack(ops))
        assert all(np.array_equal(a, b) for a, b in zip(ch.kraus, ops))

    def test_holds_a_copy_of_its_input(self):
        # the constructor copies, so mutating the input changes nothing
        ops = np.stack([np.eye(2, dtype=np.complex128)])
        first = np.eye(2, dtype=np.complex128)
        ch, ch_from_list = KrausChannel(2, ops), KrausChannel(2, (first,))
        before = du(ch)[0].value
        ops[0, 0, 0] = 5.0
        first[0, 0] = 5.0
        assert np.array_equal(ch.kraus[0], np.eye(2))
        assert np.array_equal(ch_from_list.kraus[0], np.eye(2))
        assert du(ch)[0].value == before == 1.0

    def test_operator_sets_are_read_only(self):
        ch = standard_channel("bit_flip", 0.3)
        with pytest.raises(ValueError, match="read-only"):
            ch.kraus[0][1, 1] = 3.0
        with pytest.raises(ValueError, match="read-only"):
            ch.kraus[:] = 0.0
        ck = canonicalize(ch)
        with pytest.raises(ValueError, match="read-only"):
            ck.ops[0, 0, 0] = 3.0
        mu = as_mixed_unitary(ck)
        with pytest.raises(ValueError, match="read-only"):
            mu.unitaries[0, 0, 0] = 3.0
        rep = du_bounds(ck)
        with pytest.raises(ValueError, match="read-only"):
            rep.singular_values[0, 0] = 3.0
        assert np.array_equal(ch.kraus, standard_channel("bit_flip", 0.3).kraus)

    def test_record_arrays_are_read_only(self):
        m = np.eye(4, dtype=np.complex128)
        x = ChiMatrix(2, m)
        m[0, 0] = 5.0
        assert x.mat[0, 0] == 1.0
        ch = standard_channel("bit_flip", 0.3)
        res, rep = du(ch)
        ck = canonicalize(ch)
        opt = du_optimize(random_channel(3, 2, np.random.default_rng(0)), restarts=1)
        hist = run_distribution(4, [2], seed=0, num_bins=3)[0]
        fields = [
            x.mat, kraus_to_chi(identity_channel(2)).mat, ck.weights,
            as_mixed_unitary(ck).coefficients, res.witness, opt.witness,
            rep.witness_lb1, rep.witness_lb2,
            run_witness(Trajectory((0.0, 1.0), (ch, ch))).du_values,
            hist.counts, hist.bin_edges,
            run_tightness(4, stratified=True, attempt_cap=4).bin_edges,
        ]
        for a in fields:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7.0


class TestValidate:
    def test_identity_passes(self):
        report = validate(identity_channel(2))
        assert report.passed
        assert report.residual == 0.0

    def test_amplitude_damping_passes(self):
        assert validate(standard_channel("amplitude_damping", 0.36)).passed

    def test_scaled_identity_fails(self):
        report = validate(KrausChannel(2, (0.9 * np.eye(2),)))
        assert not report.passed
        # residual of ||0.81 I - I||_F
        assert report.residual == pytest.approx(0.19 * np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            validate(standard_channel("bit_flip", 0.3), tol=tol)

    def test_stack_residuals(self):
        # validate is a stack of one; each residual is ||sum_k E_k† E_k - I||_F
        rng = np.random.default_rng(3)
        chans = [random_channel(3, 2, rng) for _ in range(4)]
        chans.append(KrausChannel(3, (0.9 * np.eye(3), np.zeros((3, 3)))))
        residuals = _trace_residuals(np.stack([np.stack(ch.kraus) for ch in chans]))
        assert residuals.tolist() == [validate(ch).residual for ch in chans]
        want = [np.linalg.norm(sum(op.conj().T @ op for op in ch.kraus) - np.eye(3))
                for ch in chans]
        assert np.allclose(residuals, want, rtol=0.0, atol=1e-15)
        assert residuals[-1] == pytest.approx(0.19 * np.sqrt(3.0), abs=1e-15)

    def test_require_raises(self):
        with pytest.raises(ChannelValidationError):
            require_trace_preserving(KrausChannel(2, (0.9 * np.eye(2),)))


class TestApply:
    def test_identity_channel(self):
        rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        assert np.allclose(apply_channel(identity_channel(2), rho), rho)

    def test_fully_depolarizing_maps_to_maximally_mixed(self):
        out = apply_channel(standard_channel("depolarizing", 1.0), KET0)
        assert np.allclose(out, np.eye(2) / 2)

    def test_bit_flip_populations(self):
        out = apply_channel(standard_channel("bit_flip", 0.3), KET0)
        assert np.allclose(out, np.diag([0.3, 0.7]))

    def test_output_is_density(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ch = random_tp_channel(rng)
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho)
            out = apply_channel(ch, rho)
            assert abs(np.trace(out) - 1.0) <= 1e-9
            assert np.linalg.norm(out - out.conj().T) <= 1e-9
            assert np.linalg.eigvalsh(out).min() >= -1e-9

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel(identity_channel(2), np.eye(3) / 3)


class TestRejectedInputs:
    """Each input check raises its exception type with its message."""

    @pytest.mark.parametrize(
        "call, kind, message",
        [
            (lambda: ChiMatrix(2, np.eye(3)), ValueError,
             "chi must be 4x4 for dim 2, got (3, 3)"),
            (lambda: convex_unitary_mixture([np.eye(2)], [0.5, 0.5]), ValueError,
             "need one probability per unitary"),
            (lambda: apply_channel(identity_channel(2), [[0.5, 0.5], [0.0, 0.5]]), ValueError,
             "state must be Hermitian"),
            (lambda: apply_channel(identity_channel(2), np.eye(2)), ValueError,
             "state must have unit trace"),
            (lambda: chi_to_kraus(ChiMatrix(2, np.triu(np.ones((4, 4))))), ChannelValidationError,
             "chi matrix is not Hermitian"),
            (lambda: chi_to_kraus(ChiMatrix(2, np.zeros((4, 4)))), ChannelValidationError,
             "chi matrix has no weight above the rank cutoff"),
            (lambda: identity_channel(2.5), ValueError, "dim must be an integer, got 2.5"),
            (lambda: identity_channel("3"), ValueError, "dim must be an integer, got '3'"),
            (lambda: identity_channel(True), ValueError, "dim must be an integer, got True"),
            (lambda: identity_channel(-1), ValueError, "dim must be >= 1, got -1"),
            (lambda: ChiMatrix(2.0, np.eye(4)), ValueError, "dim must be an integer, got 2.0"),
            (lambda: ChiMatrix(True, np.eye(1)), ValueError, "dim must be an integer, got True"),
            (lambda: convex_unitary_mixture([np.eye(2), PAULI_X], ["0.5", "0.5"]), ValueError,
             "probs must be a finite number >= 0, got '0.5'"),
            (lambda: convex_unitary_mixture([np.eye(2), PAULI_X], [True, False]), ValueError,
             "probs must be a finite number >= 0, got True"),
        ],
        ids=["chi-shape", "mixture-count", "state-hermitian", "state-trace", "chi-hermitian",
             "chi-zero", "identity-float-dim", "identity-string-dim", "identity-bool-dim",
             "identity-negative-dim", "chi-float-dim", "chi-bool-dim", "mixture-string-prob",
             "mixture-bool-prob"],
    )
    def test_message(self, call, kind, message):
        with pytest.raises(kind, match=f"^{re.escape(message)}$") as raised:
            call()
        assert type(raised.value) is kind


class TestChi:
    def test_identity_chi_pattern(self):
        chi = kraus_to_chi(identity_channel(2)).mat
        # vec(I) outer vec(I): ones at the (0,0),(0,3),(3,0),(3,3) corners
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 1.0
        assert np.allclose(chi, expected)
        assert np.trace(chi) == pytest.approx(2.0)

    def test_phase_flip_chi_diagonal(self):
        chi = kraus_to_chi(standard_channel("phase_flip", 0.5)).mat
        assert np.allclose(chi, np.diag([1.0, 0.0, 0.0, 1.0]))

    def test_chi_hermitian_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            chi = kraus_to_chi(random_tp_channel(rng)).mat
            assert np.linalg.norm(chi - chi.conj().T) <= 1e-12
            assert np.linalg.eigvalsh(chi).min() >= -1e-12

    def test_chi_to_kraus_identity(self):
        back = chi_to_kraus(kraus_to_chi(identity_channel(2)))
        assert back.n_ops == 1
        op = back.kraus[0]
        # proportional to I with |scale| = 1
        scale = op[0, 0]
        assert abs(abs(scale) - 1.0) <= 1e-12
        assert np.allclose(op, scale * np.eye(2))

    def test_chi_to_kraus_depolarizing_norms(self):
        back = chi_to_kraus(kraus_to_chi(standard_channel("depolarizing", 0.2)))
        norms = sorted(float(np.vdot(op, op).real) for op in back.kraus)
        # tr E†E = 2 * coefficient^2: {1.7, 0.1, 0.1, 0.1}
        assert np.allclose(norms, [0.1, 0.1, 0.1, 1.7])

    def test_round_trip_100_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            ch = random_tp_channel(rng, env=int(rng.integers(1, 5)))
            chi = kraus_to_chi(ch)
            chi2 = kraus_to_chi(chi_to_kraus(chi))
            assert np.linalg.norm(chi.mat - chi2.mat) <= 1e-8

    def test_round_trip_preserves_action(self):
        rng = np.random.default_rng(3)
        basis = [
            np.array([[1, 0], [0, 0]], dtype=complex),
            np.array([[0, 0], [0, 1]], dtype=complex),
            np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
            np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
        ]
        for _ in range(20):
            ch = random_tp_channel(rng)
            back = chi_to_kraus(kraus_to_chi(ch))
            for rho in basis:
                assert np.allclose(
                    apply_channel(ch, rho), apply_channel(back, rho), atol=1e-8
                )

    def test_rejects_non_psd(self):
        chi = kraus_to_chi(identity_channel(2))
        bad = chi.mat.copy()
        bad[1, 1] = -1.0
        with pytest.raises(ChannelValidationError):
            chi_to_kraus(type(chi)(2, bad))

    @pytest.mark.parametrize("n, env", [(2, 2), (3, 4)])
    def test_scaled_chi_keeps_the_rank(self, n, env):
        # c^2 chi has the eigenvectors of chi and c^2 times its eigenvalues;
        # its rounding-level ones stay below the relative cutoff
        chi = kraus_to_chi(random_channel(n, env, np.random.default_rng([29, n, env]))).mat
        assert chi_to_kraus(ChiMatrix(n, chi)).n_ops == env
        for c in (1e3, 1e6):
            assert chi_to_kraus(ChiMatrix(n, c * c * chi)).n_ops == env, c


class TestCanonicalize:
    @pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping"])
    def test_hand_built_tuple_ops(self, kind):
        # du_bounds and as_mixed_unitary take a CanonicalKraus whose ops are
        # a tuple of operators as they take canonicalize's (R, n, n) array
        ck = canonicalize(standard_channel(kind, 0.3))
        by_hand = CanonicalKraus(dim=2, ops=tuple(op.copy() for op in ck.ops), weights=ck.weights)
        want, got = du_bounds(ck), du_bounds(by_hand)
        for field in ("lb1", "lb1_simplified", "lb2", "ub"):
            assert getattr(got, field) == getattr(want, field)
        assert np.array_equal(got.singular_values, want.singular_values)
        assert np.array_equal(got.witness_lb1, want.witness_lb1)
        mu_want, mu_got = as_mixed_unitary(ck), as_mixed_unitary(by_hand)
        assert (mu_got is None) == (mu_want is None) == (kind == "amplitude_damping")
        if mu_want is not None:
            assert np.array_equal(mu_got.unitaries, mu_want.unitaries)
            assert np.array_equal(mu_got.coefficients, mu_want.coefficients)

    def test_depolarizing_weights(self):
        ck = canonicalize(standard_channel("depolarizing", 0.2))
        want = sorted([2 * (1 - 0.15), 0.1, 0.1, 0.1], reverse=True)
        assert np.allclose(ck.weights, want)

    def test_redundant_ops_compressed(self):
        # bit flip p=0.5 written with 4 duplicated operators has a rank-2
        # correlation matrix
        half = np.sqrt(0.25)
        ch = KrausChannel(
            2, (half * np.eye(2), half * np.eye(2), half * PAULI_X, half * PAULI_X)
        )
        assert validate(ch).passed
        ck = canonicalize(ch)
        assert len(ck.ops) == 2
        # du() reports one singular-value row per canonical operator, as
        # du_bounds does, not one per operator of the canonical width
        svals = du(ch)[1].singular_values
        assert svals.shape == (2, 2)
        assert np.array_equal(svals, du_bounds(ck).singular_values)

    def test_at_most_dim_squared(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ch = random_tp_channel(rng, env=8)
            ck = canonicalize(ch)
            assert len(ck.ops) <= 4

    def test_orthogonality_and_weight_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ch = random_tp_channel(rng)
            ck = canonicalize(ch)
            for i, fi in enumerate(ck.ops):
                for k, fk in enumerate(ck.ops):
                    want = ck.weights[k] if i == k else 0.0
                    assert abs(np.vdot(fi, fk) - want) <= 1e-9
            assert np.sum(ck.weights) == pytest.approx(ch.dim, abs=1e-9)

    def test_same_channel_action(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            ch = random_tp_channel(rng)
            ck = canonicalize(ch)
            chi1 = kraus_to_chi(ch).mat
            chi2 = kraus_to_chi(KrausChannel(ch.dim, ck.ops)).mat
            assert np.linalg.norm(chi1 - chi2) <= 1e-9

    @pytest.mark.parametrize("extra", [-1, 2], ids=["below-n2", "above-n2"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_rank_and_weights_scale_with_the_set(self, n, extra):
        # K = n^2 + extra operators mixing r orthogonal directions of weights
        # in [2, 8], at full rank min(K, n^2) and one below it: scaling the set
        # by c scales every weight by c^2 and keeps the rank, from c^2 w = 2e-12
        # just above the cutoff to weights near 1e14, whose rounding-level
        # eigenvalues an absolute cutoff would count
        k = n * n + extra
        rng = np.random.default_rng([29, n, k])
        for r in (min(k, n * n), min(k, n * n) - 1):
            basis = haar_unitary(n * n, rng)[:r]
            mix = haar_unitary(k, rng)[:, :r]
            ops = ((mix * np.sqrt(np.geomspace(8.0, 2.0, r))) @ basis).reshape(k, n, n)
            want = canonicalize(KrausChannel(n, ops)).weights
            assert len(want) == r
            for c in (1e-6, 1.0, 1e3, 1e6):
                got = canonicalize(KrausChannel(n, c * ops)).weights
                assert len(got) == r, (r, c)
                assert np.all(np.abs(got - c * c * want) <= 1e-12 * c * c * want[0]), (r, c)

    def test_pinned_scaled_sets(self):
        # six operators in C^4 scaled by 1e6: their Gram matrix has rank 4,
        # which rounding once pushed to 5 and a "rank exceeds dim^2" error
        rng = np.random.default_rng(0)
        six = 1e6 * (rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2)))
        assert len(canonicalize(KrausChannel(2, six)).weights) == 4
        # four combinations of three operators scaled by 1e6 have rank 3; a
        # fourth weight of 5.35e-3 is rounding, 8e-17 of the largest
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        four = np.einsum("kj,jab->kab", rng.standard_normal((4, 3)), a) * 1e6
        assert len(canonicalize(KrausChannel(2, four)).weights) == 3


class TestMixedUnitary:
    def test_depolarizing_weights(self):
        mu = as_mixed_unitary(canonicalize(standard_channel("depolarizing", 0.2)))
        assert mu is not None
        got = sorted(np.abs(mu.coefficients) ** 2)
        assert np.allclose(got, [0.05, 0.05, 0.05, 0.85])

    def test_amplitude_damping_is_not(self):
        assert as_mixed_unitary(canonicalize(standard_channel("amplitude_damping", 0.36))) is None

    def test_random_su2_mixtures_succeed(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            ch = random_mixed_unitary_channel(rng)
            mu = as_mixed_unitary(canonicalize(ch))
            assert mu is not None
            # unitaries are unitary and pairwise orthogonal
            for i, ui in enumerate(mu.unitaries):
                assert np.linalg.norm(ui.conj().T @ ui - np.eye(2)) <= 1e-7
                for uk in mu.unitaries[i + 1 :]:
                    assert abs(np.vdot(ui, uk)) <= 1e-7
            assert np.sum(np.abs(mu.coefficients) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_phase_convention(self):
        mu = as_mixed_unitary(canonicalize(standard_channel("bit_flip", 0.3)))
        assert mu is not None
        for u in mu.unitaries:
            flat = u.ravel()
            first = flat[np.abs(flat) > 1e-12][0]
            assert first.real > 0
            assert abs(first.imag) <= 1e-12


def _weyl_operators(n: int) -> list[np.ndarray]:
    """The n^2 pairwise-orthogonal unitaries shift^a clock^b."""
    shift = np.roll(np.eye(n), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    return [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(n)
        for b in range(n)
    ]


class TestUnitaryMultiples:
    """The singular-value test for F† F = c I against the Gram-matrix reference."""

    @staticmethod
    def flags(ops):
        got, c = _unitary_multiples(_svd_polar(ops)[0])
        want, c_ref = reference_unitary_multiples(ops)
        assert np.array_equal(got, want)
        assert np.all(np.abs(c - c_ref) <= 1e-14)
        return got

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_mixed_unitary_channels_pass(self, n):
        rng = np.random.default_rng(40 + n)
        weyl = _weyl_operators(n)
        for _ in range(10):
            k = int(rng.integers(2, n * n + 1))
            v = haar_unitary(n, rng)
            unitaries = [v @ weyl[i] @ v.conj().T for i in rng.choice(n * n, k, replace=False)]
            ch = convex_unitary_mixture(unitaries, rng.dirichlet(np.ones(k)))
            _, ops = _canonical_stack(np.stack(ch.kraus)[None])
            assert self.flags(ops).all()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_haar_dilation_channels_fail(self, n):
        rng = np.random.default_rng(50 + n)
        kraus = np.stack([np.stack(random_channel(n, 3, rng).kraus) for _ in range(8)])
        _, ops = _canonical_stack(kraus)
        assert not self.flags(ops).any()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_zero_operators_pass(self, n):
        ch = convex_unitary_mixture(_weyl_operators(n)[:2], [0.3, 0.7])
        ops = np.concatenate([np.stack(ch.kraus), np.zeros((2, n, n), dtype=np.complex128)])
        assert self.flags(ops).all()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("weight", [1.0, 0.3])
    @pytest.mark.parametrize("times_tol, passes", [(0.5, True), (2.0, False)])
    def test_both_sides_of_the_threshold(self, n, weight, times_tol, passes):
        # F = sqrt(weight) U diag(sqrt(1 + delta v)) W with mean(v) = 0 and
        # |v| = 1, so c = weight, ||F† F - c I||_F = weight * delta and the
        # test's threshold is PROPORTIONALITY_TOL * max(1, weight * n)
        rng = np.random.default_rng(60 + n)
        v = np.zeros(n)
        v[:2] = [1.0, -1.0]
        v /= np.sqrt(2.0)
        delta = times_tol * PROPORTIONALITY_TOL * max(1.0, weight * n) / weight
        u, w = haar_unitary(n, rng), haar_unitary(n, rng)
        f = np.sqrt(weight) * (u * np.sqrt(1.0 + delta * v)) @ w
        assert self.flags(f[None]).tolist() == [passes]


class TestStandardChannels:
    def test_depolarizing_zero_is_identity(self):
        ch = standard_channel("depolarizing", 0.0)
        assert ch.n_ops == 1
        assert np.allclose(ch.kraus[0], np.eye(2))

    def test_amplitude_damping_matrices(self):
        ch = standard_channel("amplitude_damping", 0.36)
        assert np.allclose(ch.kraus[0], np.diag([1.0, 0.8]))
        assert np.allclose(ch.kraus[1], [[0.0, 0.6], [0.0, 0.0]])

    def test_bit_flip_matrices(self):
        ch = standard_channel("bit_flip", 0.3)
        assert np.allclose(ch.kraus[0], np.sqrt(0.3) * np.eye(2))
        assert np.allclose(ch.kraus[1], np.sqrt(0.7) * PAULI_X)

    @pytest.mark.parametrize("kind", ["depolarizing", "bit_flip", "phase_flip", "amplitude_damping"])
    def test_trace_preserving_across_grid(self, kind):
        for p in np.linspace(0.0, 1.0, 11):
            assert validate(standard_channel(kind, float(p))).passed

    @pytest.mark.parametrize("kind", STANDARD_KINDS)
    def test_family_builder_matches_each_point(self, kind):
        # the whole-grid stack holds each point's Kraus set bit for bit, its
        # zero-coefficient operators (and amplitude damping's unused slots)
        # zero; at 5e-324 p/4 rounds to 0, so depolarizing keeps only its
        # identity term
        params = np.concatenate([np.linspace(0.0, 1.0, 51), [5e-324, 1e-300, 1.0 - 2**-53]])
        kraus = _standard_kraus(kind, params)
        assert kraus.dtype == np.complex128 and kraus.shape == (len(params), 4, 2, 2)
        for p, ops in zip(params.tolist(), kraus):
            reference = reference_standard_kraus(kind, p)
            nonzero = ops[ops.any(axis=(1, 2))]
            assert nonzero.tobytes() == reference.tobytes()
            assert standard_channel(kind, p).kraus.tobytes() == reference.tobytes()
        if kind == "depolarizing":
            assert standard_channel(kind, 5e-324).n_ops == 1

    @pytest.mark.parametrize("kind", STANDARD_KINDS)
    def test_family_builder_is_trace_preserving(self, kind):
        # run_table1 does not re-check the builder's sets: their weights sum to 1
        params = np.concatenate([np.linspace(0.0, 1.0, 1001), [5e-324, 0.5, 1.0 - 2**-53]])
        assert _trace_residuals(_standard_kraus(kind, params)).max() <= 1e-15

    @pytest.mark.parametrize("kind", STANDARD_KINDS)
    def test_family_builder_operators_are_orthogonal(self, kind):
        # run_table1 runs the zero-padded stacks as one: that is exact only
        # because each set's Gram matrix tr(E_j^dag E_k) is diagonal, so a
        # family whose operators are not orthogonal must fail here
        params = np.concatenate([np.linspace(0.0, 1.0, 1001), [5e-324, 1e-300, 0.5, 1.0 - 2**-53]])
        kraus = _standard_kraus(kind, params)
        gram = np.einsum("bjxy,bkxy->bjk", kraus.conj(), kraus)
        off_diagonal = gram[:, ~np.eye(4, dtype=bool)]
        assert not off_diagonal.any()

    def test_rejects_bad_param(self):
        with pytest.raises(ValueError):
            standard_channel("bit_flip", 1.5)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            standard_channel("leaky_bucket", 0.5)


class TestRandomChannel:
    def test_single_env_dim_is_unitary(self):
        ch = random_channel(2, 1, np.random.default_rng(8))
        assert ch.n_ops == 1
        u = ch.kraus[0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-12

    @pytest.mark.parametrize("env", [1, 2, 4, 8])
    def test_trace_preserving(self, env):
        rng = np.random.default_rng(env)
        for _ in range(10):
            report = validate(random_channel(2, env, rng), tol=1e-10)
            assert report.passed

    def test_deterministic_given_seed(self):
        a = random_channel(2, 2, np.random.default_rng(9))
        b = random_channel(2, 2, np.random.default_rng(9))
        for x, y in zip(a.kraus, b.kraus):
            assert np.array_equal(x, y)

    def test_rejects_bad_dims(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_channel(1, 2, rng)
        with pytest.raises(ValueError):
            random_channel(2, 0, rng)


class TestDilationStack:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_per_seed_channels(self, n, d):
        seeds = list(range(40, 52))
        stack = _dilation_kraus_stack(n, d, [np.random.default_rng(s) for s in seeds])
        assert stack.shape == (len(seeds), d, n, n)
        assert stack.flags.c_contiguous
        for ops, s in zip(stack, seeds):
            ch = random_channel(n, d, np.random.default_rng(s))
            assert np.array_equal(ops, np.stack(ch.kraus))
            ref = reference_dilation_kraus(n, d, np.random.default_rng(s))
            assert np.array_equal(ops, ref)

    @pytest.mark.parametrize("n, d", [(2, 4), (3, 3)])
    def test_factors_only_the_leading_columns(self, monkeypatch, n, d):
        # the channel keeps columns 0, d, ..., (n - 1) d of U, so the QR
        # sees the leading (n - 1) d + 1 of its n d columns
        qr, shapes = np.linalg.qr, []

        def recording_qr(a, *args, **kwargs):
            shapes.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        _dilation_kraus_stack(n, d, [np.random.default_rng(s) for s in range(5)])
        assert shapes == [(5, n * d, (n - 1) * d + 1)]

    def test_generators_advance_like_per_seed_draws(self):
        rngs = [np.random.default_rng(s) for s in (1, 2)]
        _dilation_kraus_stack(3, 2, rngs)
        for rng, s in zip(rngs, (1, 2)):
            ref = np.random.default_rng(s)
            random_channel(3, 2, ref)
            assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(11)
        ch = random_tp_channel(rng)
        composed = compose(identity_channel(2), ch)
        assert np.linalg.norm(
            kraus_to_chi(composed).mat - kraus_to_chi(ch).mat
        ) <= 1e-9

    def test_bit_flip_composition_law(self):
        # products of {I, X} Kraus sets collapse back to a bit flip with
        # parameter pq + (1-p)(1-q)
        p, q = 0.3, 0.8
        composed = compose(standard_channel("bit_flip", p), standard_channel("bit_flip", q))
        target = standard_channel("bit_flip", p * q + (1 - p) * (1 - q))
        assert np.linalg.norm(
            kraus_to_chi(composed).mat - kraus_to_chi(target).mat
        ) <= 1e-9

    def test_random_compositions_valid_and_compact(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = random_tp_channel(rng, env=4)
            b = random_tp_channel(rng, env=4)
            c = compose(a, b)
            assert validate(c).passed
            assert c.n_ops <= 4

    def test_scaled_sets_compose_to_the_scaled_composition(self):
        # 16 products in C^4 of two random sets, and the rank-2 products of
        # two bit flips, each factor scaled by 1e3: the composition keeps the
        # unscaled one's operator count and is its chi times 1e12
        rng = np.random.default_rng(29)
        pairs = [
            (random_tp_channel(rng, env=4), random_tp_channel(rng, env=4)),
            (standard_channel("bit_flip", 0.3), standard_channel("bit_flip", 0.8)),
        ]
        for f, e in pairs:
            want = compose(f, e)
            got = compose(KrausChannel(2, 1e3 * f.kraus), KrausChannel(2, 1e3 * e.kraus))
            assert got.n_ops == want.n_ops
            chi_want, chi_got = kraus_to_chi(want).mat, kraus_to_chi(got).mat
            assert np.linalg.norm(chi_got - 1e12 * chi_want) <= 1e-12 * np.linalg.norm(chi_got)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity_channel(2), identity_channel(3))


class TestConveniences:
    def test_unitary_channel(self):
        u = random_su2(np.random.default_rng(13))
        ch = unitary_channel(u)
        assert ch.n_ops == 1 and validate(ch).passed

    def test_convex_mixture_validates_probs(self):
        with pytest.raises(ValueError):
            convex_unitary_mixture([np.eye(2)], [0.5])

    @pytest.mark.parametrize(
        "probs", [[float("nan"), 1.0], [float("inf"), 1.0], [1.0, float("-inf")]],
        ids=["nan", "inf", "minus-inf"],
    )
    def test_convex_mixture_rejects_non_finite_probs(self, probs):
        # a non-finite probability fails the probability check, not the Kraus
        # operators' finiteness check that sqrt(p) U would reach
        with pytest.raises(ValueError, match="^probs must be a finite number >= 0, got "):
            convex_unitary_mixture([np.eye(2), PAULI_X], probs)
