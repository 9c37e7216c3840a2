import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitarity import linalg
from unitarity.linalg import (
    _require_real,
    _svd_polar,
    _svd_polar_2x2,
    as_matrix,
    assert_unitary,
    ginibre_stack,
    haar_from_ginibre,
    haar_unitary,
    unitarity_defect,
)

from helpers import reference_haar_unitary


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


class TestSvdPolar:
    """The one SVD/polar kernel of the lower bounds and the ascent: the
    closed form at n = 2, one batched SVD at n = 3 and 8."""

    # matrix, its singular values, and its polar factor where that is unique
    KNOWN = {
        "identity": (np.eye(2), [1.0, 1.0], np.eye(2)),
        "diagonal_psd": (np.diag([1.0, 0.8]), [1.0, 0.8], np.eye(2)),
        "diagonal_sorted": (np.diag([3.0, 4.0]), [4.0, 3.0], np.eye(2)),
        "sign_split": (np.diag([2.0, -1.0]), [2.0, 1.0], np.diag([1.0, -1.0])),
        "sign_split_3x3": (np.diag([2.0, -1.0, 0.5]), [2.0, 1.0, 0.5], np.diag([1.0, -1.0, 1.0])),
        # A†A of the decay jump operator is diag(0, 0.36)
        "decay_jump_operator": (np.array([[0.0, 0.6], [0.0, 0.0]]), [0.6, 0.0], None),
        "zero_3x3": (np.zeros((3, 3)), [0.0, 0.0, 0.0], None),
    }

    @pytest.mark.parametrize("name", KNOWN)
    def test_known_cases(self, name):
        a, s_expected, w_expected = self.KNOWN[name]
        s, w = _svd_polar(a.astype(np.complex128))
        assert np.allclose(s, s_expected, rtol=0.0, atol=1e-14)
        assert unitarity_defect(w) <= 1e-14
        if w_expected is not None:
            assert np.allclose(w, w_expected, rtol=0.0, atol=1e-14)

    @staticmethod
    def _random_stack(n: int, seed: int, count: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
        a[::5, :, 0] = 0.0  # every fifth matrix is rank deficient
        return a * 10.0 ** rng.uniform(-3.0, 3.0, (count, 1, 1))

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_polar_factorization(self, n):
        # A = W P with W unitary and P = W†A Hermitian PSD, whose spectrum is
        # the descending singular values of A
        a = self._random_stack(n, seed=n, count=200)
        s, w = _svd_polar(a)
        scale = np.linalg.norm(a, axis=(-2, -1))
        p = _adjoint(w) @ a
        assert np.all(np.linalg.norm(_adjoint(w) @ w - np.eye(n), axis=(-2, -1)) <= 1e-13)
        assert np.all(np.linalg.norm(a - w @ p, axis=(-2, -1)) <= 1e-13 * scale)
        assert np.all(np.linalg.norm(p - _adjoint(p), axis=(-2, -1)) <= 1e-13 * scale)
        spectrum = np.linalg.eigvalsh(p)[..., ::-1]
        assert np.all(spectrum[..., -1] >= -1e-13 * scale)
        assert np.all(np.abs(spectrum - s) <= 1e-13 * scale[:, None])
        assert np.all(np.diff(s, axis=-1) <= 0.0) and np.all(s >= 0.0)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_trace_alignment_is_maximal(self, n):
        # Re tr(W†A) is the sum of the singular values, the nuclear norm
        # tr sqrt(A†A), and no Haar-random unitary V gives more Re tr(V†A)
        a = self._random_stack(n, seed=10 + n, count=20)
        s, w = _svd_polar(a)
        aligned = np.einsum("kij,kij->k", w.conj(), a)
        nuclear = np.sqrt(np.clip(np.linalg.eigvalsh(_adjoint(a) @ a), 0.0, None)).sum(-1)
        scale = np.linalg.norm(a, axis=(-2, -1))
        assert np.all(np.abs(aligned.real - s.sum(-1)) <= 1e-13 * scale)
        assert np.all(np.abs(aligned.imag) <= 1e-13 * scale)
        # a zero eigenvalue of A†A has a square root of about 1e-8 * scale
        assert np.all(np.abs(nuclear - s.sum(-1)) <= 1e-7 * scale)
        v = haar_from_ginibre(ginibre_stack(n, [np.random.default_rng(n)], 100))[0]
        rivals = np.einsum("vij,kij->kv", v.conj(), a).real
        assert np.all(rivals <= s.sum(-1, keepdims=True) + 1e-13 * scale[:, None])


def _two_by_two(kind: str, seed: int, log_scale: float) -> np.ndarray:
    """A 2x2 matrix of the given structure, scaled by 10**log_scale."""
    rng = np.random.default_rng(seed)
    u, v = haar_unitary(2, rng), haar_unitary(2, rng)
    if kind == "ginibre":
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    elif kind == "rank_one":
        m = np.outer(u[:, 0], v[0].conj())
    elif kind == "scaled_unitary":
        m = u
    else:  # "near_degenerate": s1 - s2 about 1e-10 s1
        m = (u * [1.0, 1.0 - 1e-10]) @ v
    return m * 10.0**log_scale


class TestSvdPolar2x2:
    """The closed-form qubit kernel against LAPACK. Any warning, a division by
    zero included, fails these tests (pytest runs with filterwarnings=error)."""

    EXPLICIT = {
        "zero": np.zeros((2, 2)),
        "rank_one_det_exactly_zero": np.array([[1.0, 2j], [0.5, 1j]]),
        "scaled_unitary": 0.7 * np.exp(0.3j) * np.array([[0.6, -0.8], [0.8, 0.6]]),
        "gap_1e-10_s1": np.array([[0.6, -0.8j], [0.8, 0.6j]]) @ np.diag([2.0, 2.0 - 2e-10]),
        "negative_real_det": np.array([[1.0, 0.0], [0.0, -0.5]]),
        "negative_real_det_offdiagonal": np.array([[0.0, 2.0], [3.0, 0.0]]),
    }

    @staticmethod
    def check(m):
        m = np.asarray(m, dtype=np.complex128)
        s, w = _svd_polar_2x2(m)
        ref = np.linalg.svd(m, compute_uv=False)
        tol = 1e-14 * max(1.0, ref[0])
        assert np.all(np.abs(s - ref) <= tol)
        assert s[0] >= s[1] >= 0.0
        assert np.linalg.norm(w.conj().T @ w - np.eye(2)) <= 1e-14
        assert abs(np.vdot(w, m).real - s.sum()) <= tol

    @pytest.mark.parametrize("name", EXPLICIT)
    def test_explicit_cases(self, name):
        self.check(self.EXPLICIT[name])

    def test_zero_gets_identity_and_zero_singular_values(self):
        s, w = _svd_polar_2x2(np.zeros((2, 2), dtype=np.complex128))
        assert np.array_equal(s, [0.0, 0.0])
        assert np.array_equal(w, np.eye(2))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["ginibre", "rank_one", "scaled_unitary", "near_degenerate"]),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-8.0, 4.0),
    )
    def test_matches_lapack(self, kind, seed, log_scale):
        self.check(_two_by_two(kind, seed, log_scale))

    def test_stack_matches_matrices_alone(self):
        stack = np.array(list(self.EXPLICIT.values()), dtype=np.complex128)[:, None]
        s, w = _svd_polar_2x2(stack)
        assert s.shape == stack.shape[:-1] and w.shape == stack.shape
        for i, m in enumerate(stack[:, 0]):
            alone = _svd_polar_2x2(m)
            assert np.array_equal(s[i, 0], alone[0])
            assert np.array_equal(w[i, 0], alone[1])


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
        # only the leading columns up to the last one kept are factored, and
        # the kept ones are bit for bit those of the full factorization
        for cols in ([4, 0], [-1], slice(0, -1, 2)):
            assert np.array_equal(haar_from_ginibre(g, cols), full[..., cols])
        for n in (2, 3, 4):
            for d in (1, 2, 3, 4):
                g = ginibre_stack(n * d, [np.random.default_rng([n, d])], 20)
                cols = d * np.arange(n)
                assert np.array_equal(haar_from_ginibre(g, cols), haar_from_ginibre(g)[..., cols])

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


def test_tolerance_constants_exposed():
    assert linalg.UNITARY_TOL == 1e-9
    assert linalg.RANK_CUTOFF == 1e-12
    assert not hasattr(linalg, "HERMITIAN_TOL")


def test_as_matrix_rejects_nan():
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_unitarity_defect_rejects_a_non_square_matrix():
    message = "expected a square matrix, got (2, 3)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as raised:
        unitarity_defect(np.ones((2, 3)))
    assert type(raised.value) is ValueError


class TestRequireReal:
    """The one real-number rule: numbers.Real but no boolean, finite, at or
    above its bound, returned as a float."""

    @pytest.mark.parametrize("value", [0.5, 1, np.float32(0.5), np.int64(2), Fraction(1, 4)])
    def test_accepts_real_numbers(self, value):
        got = _require_real("x", value, 0.0, True)
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize(
        "value", [True, np.False_, "0.5", None, 1 + 0j, np.nan, -np.inf, 10**400, -1e-300, 0.0]
    )
    def test_rejects_with_one_message(self, value):
        with pytest.raises(ValueError) as raised:
            _require_real("x", value, 0.0, True)
        assert str(raised.value) == f"x must be a finite number > 0, got {value!r}"

    def test_a_bound_that_is_not_strict_admits_itself(self):
        assert _require_real("x", 0, 0.0, False) == 0.0
        with pytest.raises(ValueError, match=r"^x must be a finite number >= -1, got -2$"):
            _require_real("x", -2, -1.0, False)

    def test_a_bound_of_minus_infinity_asks_for_finiteness_alone(self):
        assert _require_real("x", -1e300, -np.inf, False) == -1e300
        with pytest.raises(ValueError, match=r"^x must be a finite number, got -inf$"):
            _require_real("x", -np.inf, -np.inf, False)
