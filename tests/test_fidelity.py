import re

import numpy as np
import pytest

from unitarity import (
    FidelityPair,
    average_fidelity,
    average_fidelity_mc,
    average_from_process,
    fidelity_pair,
    haar_unitary,
    identity_channel,
    process_fidelity,
    process_fidelity_chi,
    process_from_average,
    random_channel,
    standard_channel,
    unitary_channel,
)
from unitarity.channels import PAULI_X, PAULI_Z, KrausChannel

from helpers import remix_kraus


class TestProcessFidelity:
    def test_unitary_channel_with_itself(self):
        u = haar_unitary(3, np.random.default_rng(0))
        assert process_fidelity(unitary_channel(u), u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_paulis(self):
        assert process_fidelity(unitary_channel(PAULI_X), PAULI_Z) == pytest.approx(0.0)

    def test_amplitude_damping_vs_identity(self):
        ch = standard_channel("amplitude_damping", 0.36)
        assert process_fidelity(ch, np.eye(2)) == pytest.approx(0.81, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            process_fidelity(identity_channel(2), np.eye(3))

    def test_rejects_non_unitary_target(self):
        with pytest.raises(ValueError):
            process_fidelity(identity_channel(2), np.diag([1.0, 0.5]))

    def test_range_and_representation_independence(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            ch = random_channel(2, int(rng.integers(1, 5)), rng)
            u = haar_unitary(2, rng)
            f = process_fidelity(ch, u)
            assert 0.0 <= f <= 1.0
            remixed = remix_kraus(ch, rng, extra=int(rng.integers(0, 3)))
            assert abs(process_fidelity(remixed, u) - f) <= 1e-10


class TestAverageFidelity:
    def test_unitary_channel_with_itself(self):
        u = haar_unitary(2, np.random.default_rng(2))
        assert average_fidelity(unitary_channel(u), u) == pytest.approx(1.0, abs=1e-12)

    def test_fully_depolarizing(self):
        # sum_k |tr(U† E_k)|^2 = 1 for the Pauli Kraus set at p=1, giving
        # (2 + 1)/6 = 1/2 for any target unitary
        ch = standard_channel("depolarizing", 1.0)
        u = haar_unitary(2, np.random.default_rng(3))
        assert average_fidelity(ch, u) == pytest.approx(0.5, abs=1e-12)

    def test_relation_to_process_fidelity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            ch = random_channel(n, 2, rng)
            u = haar_unitary(n, rng)
            f_pro = process_fidelity(ch, u)
            f_ave = average_fidelity(ch, u)
            assert abs(f_ave - average_from_process(f_pro, n)) <= 1e-12
            assert abs(process_from_average(f_ave, n) - f_pro) <= 1e-12

    @pytest.mark.parametrize(
        "convert, dim, message",
        [
            (average_from_process, 2.0, "dim must be an integer, got 2.0"),
            (average_from_process, True, "dim must be an integer, got True"),
            (process_from_average, 0, "dim must be >= 1, got 0"),
            (process_from_average, "2", "dim must be an integer, got '2'"),
        ],
        ids=["float-dim", "bool-dim", "zero-dim", "string-dim"],
    )
    def test_conversions_reject_a_non_dimension(self, convert, dim, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            convert(0.5, dim)


class TestFidelityPair:
    def test_consistent_pair(self):
        pair = fidelity_pair(standard_channel("amplitude_damping", 0.36), np.eye(2))
        assert pair.f_pro == pytest.approx(0.81)
        assert pair.f_ave == pytest.approx((2 * 0.81 + 1) / 3)

    def test_rejects_inconsistent(self):
        with pytest.raises(ValueError):
            FidelityPair(f_pro=0.5, f_ave=0.9, dim=2)


class TestChiCrossCheck:
    def test_agrees_with_trace_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            ch = random_channel(n, int(rng.integers(1, 4)), rng)
            u = haar_unitary(n, rng)
            direct = process_fidelity(ch, u)
            via_chi = process_fidelity_chi(ch, u)
            assert abs(direct - via_chi) <= 1e-8


class TestMonteCarlo:
    def test_identity_is_exact_per_sample(self):
        est = average_fidelity_mc(identity_channel(2), np.eye(2), 500, np.random.default_rng(6))
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.std_error <= 1e-12

    def test_amplitude_damping_vs_closed_form(self):
        ch = standard_channel("amplitude_damping", 0.36)
        est = average_fidelity_mc(ch, np.eye(2), 100_000, np.random.default_rng(7))
        want = average_fidelity(ch, np.eye(2))
        assert abs(est.value - want) <= 3 * est.std_error

    def test_bit_flip_vs_closed_form(self):
        ch = standard_channel("bit_flip", 0.3)
        est = average_fidelity_mc(ch, PAULI_X, 100_000, np.random.default_rng(8))
        want = average_fidelity(ch, PAULI_X)
        assert abs(est.value - want) <= 3 * est.std_error

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            average_fidelity_mc(identity_channel(2), np.eye(2), 0, np.random.default_rng(0))


class TestAncillaDimensionProbe:
    """Average fidelity depends on the system dimension explicitly.

    Tensoring a channel with an ancilla unitary leaves the process-fidelity
    DU unchanged but moves the average-fidelity transform from n to 2n, so
    the average-fidelity variant of the measure is not invariant under
    adding an ancilla. Only arithmetic facts are asserted here.
    """

    def test_transform_gap_is_visible(self):
        du_pro = 0.81  # DU of amplitude damping at 0.36, any witness route
        ave_n2 = average_from_process(du_pro, 2)
        ave_n4 = average_from_process(du_pro, 4)
        assert abs(ave_n2 - ave_n4) > 0.01

    def test_tensor_channel_process_value(self):
        # the tensored channel (amplitude damping (x) ancilla unitary) keeps
        # its best process fidelity at the tensored witness
        ch = standard_channel("amplitude_damping", 0.36)
        rng = np.random.default_rng(9)
        anc = haar_unitary(2, rng)
        ops = tuple(np.kron(op, anc) for op in ch.kraus)
        big = KrausChannel(4, ops)
        witness = np.kron(np.eye(2), anc)
        assert process_fidelity(big, witness) == pytest.approx(0.81, abs=1e-12)
