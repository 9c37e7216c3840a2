import numpy as np
import pytest

from unitarity import linalg
from unitarity.linalg import (
    as_matrix,
    assert_unitary,
    ginibre_stack,
    haar_from_ginibre,
    haar_state,
    haar_unitary,
    hermitian_eig,
    hs_inner,
    polar,
    svd,
    unitarity_defect,
)

from helpers import PAULI_X, PAULI_Z, reference_haar_unitary


class TestHsInner:
    def test_identity(self):
        assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_pauli_orthogonality(self):
        assert hs_inner(PAULI_X, PAULI_Z) == pytest.approx(0.0)

    def test_complex_scaling(self):
        # tr(I . (1+i) I) computed by hand
        assert hs_inner(np.eye(2), (1 + 1j) * np.eye(2)) == pytest.approx(2 + 2j)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hs_inner(np.eye(2), np.eye(3))

    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError):
            as_matrix(bad)


class TestSvd:
    def test_diagonal_sorted(self):
        _, s, _ = svd(np.diag([3.0, 4.0]))
        assert np.allclose(s, [4.0, 3.0])

    def test_zero_matrix(self):
        _, s, _ = svd(np.zeros((3, 3)))
        assert np.allclose(s, 0.0)

    def test_decay_jump_operator(self):
        # A†A of [[0, sqrt(0.36)], [0, 0]] is diag(0, 0.36), so the singular
        # values are (0.6, 0)
        a = np.array([[0.0, 0.6], [0.0, 0.0]])
        _, s, _ = svd(a)
        assert np.allclose(s, [0.6, 0.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            u, s, vh = svd(a)
            err = np.linalg.norm(a - (u * s) @ vh)
            assert err <= 1e-9 * max(1.0, np.linalg.norm(a))
            assert np.all(np.diff(s) <= 0)


class TestPolar:
    def test_identity(self):
        w, p = polar(np.eye(2))
        assert np.allclose(w, np.eye(2))
        assert np.allclose(p, np.eye(2))

    def test_diagonal_psd(self):
        w, p = polar(np.diag([1.0, 0.8]))
        assert np.allclose(w, np.eye(2))
        assert np.allclose(p, np.diag([1.0, 0.8]))

    def test_sign_split(self):
        w, p = polar(np.diag([2.0, -1.0]))
        assert np.allclose(w, np.diag([1.0, -1.0]))
        assert np.allclose(p, np.diag([2.0, 1.0]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            polar(np.zeros((2, 3)))

    def test_reconstruction_1000_random(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            dim = int(rng.integers(1, 9))
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            if rng.random() < 0.2:
                a[:, 0] = 0.0  # exercise rank-deficient inputs
            w, p = polar(a)
            assert unitarity_defect(w) <= 1e-9
            assert np.linalg.norm(a - w @ p) <= 1e-8 * max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(p - p.conj().T) <= 1e-9
            assert np.linalg.eigvalsh(p).min() >= -1e-12

    def test_trace_alignment_is_maximal(self):
        # tr sqrt(A†A) equals the sum of singular values (checked against an
        # eigenvalue computation of A†A) and no unitary beats it.
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            nuclear = np.sqrt(np.clip(np.linalg.eigvalsh(a.conj().T @ a), 0, None)).sum()
            _, s, _ = svd(a)
            assert nuclear == pytest.approx(s.sum(), abs=1e-9)
            w, _ = polar(a)
            assert abs(np.vdot(w, a)) == pytest.approx(nuclear, abs=1e-9)
            for _ in range(100):
                v = haar_unitary(4, rng)
                assert abs(np.vdot(v, a)) <= nuclear + 1e-9


class TestHermitianEig:
    def test_diagonal(self):
        vals, _ = hermitian_eig(np.diag([1.0, 2.0]))
        assert np.allclose(vals, [2.0, 1.0])

    def test_pauli_x(self):
        vals, vecs = hermitian_eig(PAULI_X)
        assert np.allclose(vals, [1.0, -1.0])
        assert unitarity_defect(vecs) <= 1e-9

    def test_degenerate_identity(self):
        vals, vecs = hermitian_eig(np.eye(4))
        assert np.allclose(vals, 1.0)
        assert unitarity_defect(vecs) <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = g + g.conj().T
            vals, vecs = hermitian_eig(h)
            assert np.all(np.diff(vals) <= 1e-12)
            err = np.linalg.norm(h - (vecs * vals) @ vecs.conj().T)
            assert err <= 1e-9 * max(1.0, np.linalg.norm(h))
            assert unitarity_defect(vecs) <= 1e-9


class TestHaarUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 4, 8):
            assert unitarity_defect(haar_unitary(dim, rng)) <= 1e-12

    def test_deterministic_given_seed(self):
        u1 = haar_unitary(2, np.random.default_rng(42))
        u2 = haar_unitary(2, np.random.default_rng(42))
        assert np.array_equal(u1, u2)

    def test_rejects_dim_zero(self):
        with pytest.raises(ValueError):
            haar_unitary(0, np.random.default_rng(0))

    def test_trace_moment(self):
        # E |tr U|^2 = 1 for the Haar measure; Monte Carlo check within 5%
        rng = np.random.default_rng(6)
        vals = [abs(np.trace(haar_unitary(2, rng))) ** 2 for _ in range(10_000)]
        assert abs(np.mean(vals) - 1.0) < 0.05

    def test_assert_unitary_helper(self):
        assert_unitary(np.eye(3))
        with pytest.raises(ValueError):
            assert_unitary(np.diag([1.0, 0.5]))


class TestHaarStack:
    @pytest.mark.parametrize("dim", range(1, 17))
    def test_single_draw_matches_unbatched_construction(self, dim):
        u = haar_unitary(dim, np.random.default_rng(dim))
        ref = reference_haar_unitary(dim, np.random.default_rng(dim))
        assert np.array_equal(u, ref)
        stack = haar_from_ginibre(ginibre_stack(dim, [np.random.default_rng(dim)]))
        assert stack.shape == (1, 1, dim, dim)
        assert np.array_equal(stack[0, 0], ref)

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_k_stack_equals_k_sequential_draws(self, dim):
        k = 5
        seq_rng = np.random.default_rng(100 + dim)
        sequential = [haar_unitary(dim, seq_rng) for _ in range(k)]
        stack_rng = np.random.default_rng(100 + dim)
        stack = haar_from_ginibre(ginibre_stack(dim, [stack_rng], k))[0]
        assert stack.shape == (k, dim, dim)
        for a, b in zip(stack, sequential):
            assert np.array_equal(a, b)
        # both generators stand at the same position afterwards
        assert np.array_equal(stack_rng.standard_normal(4), seq_rng.standard_normal(4))

    def test_one_generator_per_row(self):
        dim, k = 3, 2
        rngs = [np.random.default_rng(s) for s in (7, 8, 9)]
        stack = haar_from_ginibre(ginibre_stack(dim, rngs, k))
        assert stack.shape == (3, k, dim, dim)
        for row, s in zip(stack, (7, 8, 9)):
            rng = np.random.default_rng(s)
            for u in row:
                assert np.array_equal(u, reference_haar_unitary(dim, rng))

    def test_column_selection_matches_full_unitary(self):
        g = ginibre_stack(6, [np.random.default_rng(3)], 4)
        full = haar_from_ginibre(g)
        cols = slice(1, None, 3)
        assert np.array_equal(haar_from_ginibre(g, cols), full[..., cols])

    def test_empty_stack(self):
        rng = np.random.default_rng(4)
        assert haar_from_ginibre(ginibre_stack(3, [rng], 0)).shape == (1, 0, 3, 3)
        # drawing nothing leaves the generator untouched
        assert np.array_equal(rng.standard_normal(2), np.random.default_rng(4).standard_normal(2))

    def test_rejects_bad_sizes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ginibre_stack(0, [rng])
        with pytest.raises(ValueError):
            ginibre_stack(2, [rng], -1)


class TestHaarState:
    def test_normalized(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 5):
            psi = haar_state(dim, rng)
            assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_rejects_dim_zero(self):
        with pytest.raises(ValueError):
            haar_state(0, np.random.default_rng(0))


def test_tolerance_constants_exposed():
    assert linalg.UNITARY_TOL == 1e-9
    assert linalg.RANK_CUTOFF == 1e-12
