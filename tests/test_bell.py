import numpy as np
import pytest

from bellkit.bell import (CountTable, EmptySettingError, MeasurementSetting,
                          RELABELINGS, born_behavior, chsh_optimal_settings,
                          correlators_expected, correlators_from_counts,
                          hardware_angles, inverse_hardware_angles,
                          s_alpha_expected, s_alpha_from_counts,
                          sign_optimal_s_alpha)
from bellkit.qstate import BELL_STATE_VECTORS, bell_diagonal, correlation_tensor


class TestMeasurementSetting:
    def test_observable_is_involution(self):
        m = MeasurementSetting.from_degrees(37.0)
        assert np.allclose(m.observable @ m.observable, np.eye(2))

    def test_waveplate_doubling(self):
        m = MeasurementSetting.from_waveplate_degrees(22.5)
        assert m.theta == pytest.approx(np.pi / 4)

    def test_bloch_vector(self):
        m = MeasurementSetting(0.0)
        assert np.allclose(m.bloch, [0, 0, 1])
        m = MeasurementSetting(np.pi / 2)
        assert np.allclose(m.bloch, [1, 0, 0], atol=1e-15)


class TestExpectedValues:
    def test_tsirelson_on_phi_plus(self):
        rho = bell_diagonal([0, 0, 1, 0])
        s = s_alpha_expected(rho, *chsh_optimal_settings())
        assert s == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_alpha_quantum_bound_attained(self):
        # For alpha >= 1 the optimal planar settings on Phi+ are
        # A0 = Z, A1 = X, B measurements at +/- arctan(1/alpha) from Z.
        rho = bell_diagonal([0, 0, 1, 0])
        for alpha in (1.0, 1.2, 1.5, 2.0):
            t = np.arctan(1.0 / alpha)
            s = s_alpha_expected(rho,
                                 MeasurementSetting(0.0),
                                 MeasurementSetting(np.pi / 2),
                                 MeasurementSetting(t),
                                 MeasurementSetting(-t),
                                 alpha=alpha)
            assert s == pytest.approx(2 * np.sqrt(1 + alpha ** 2), abs=1e-12)

    def test_separable_state_classical_value(self):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        s = s_alpha_expected(rho, *chsh_optimal_settings())
        assert abs(s) <= 2.0 + 1e-12

    def test_rejects_alpha_below_one(self):
        rho = bell_diagonal([0, 0, 1, 0])
        with pytest.raises(ValueError):
            s_alpha_expected(rho, *chsh_optimal_settings(), alpha=0.9)



def kron_trace(rho, ops_a, ops_b) -> np.ndarray:
    """Reference M[i, j] = Tr(rho O_i x O_j), one product and trace per pair."""
    return np.array([[np.trace(rho @ np.kron(oa, ob)).real for ob in ops_b]
                     for oa in ops_a])


def random_full_rank_state(rng) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return (rho + rho.conj().T) / (2 * np.trace(rho).real)


class TestKernelAgainstKronTrace:
    """The einsum moment kernel against explicit Kronecker products and
    traces, on generic states: full rank and not Bell-diagonal."""

    PAULIS = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0])]

    @pytest.fixture(params=range(5))
    def cases(self, request):
        rng = np.random.default_rng(request.param)
        out = []
        for _ in range(40):
            rho = random_full_rank_state(rng)
            in_bell_basis = BELL_STATE_VECTORS.conj() @ rho @ BELL_STATE_VECTORS.T
            assert np.linalg.eigvalsh(rho).min() > 1e-6
            assert np.abs(in_bell_basis - np.diag(np.diag(in_bell_basis))).max() > 1e-3
            settings = [MeasurementSetting(t) for t in rng.uniform(-np.pi, np.pi, 4)]
            out.append((rho, settings))
        return out

    def test_correlation_tensor(self, cases):
        for rho, _ in cases:
            ref = kron_trace(rho, self.PAULIS[1:], self.PAULIS[1:])
            assert np.abs(correlation_tensor(rho) - ref).max() <= 1e-14

    def test_correlators_expected(self, cases):
        for rho, settings in cases:
            obs = [s.observable for s in settings]
            ref = kron_trace(rho, obs[:2], obs[2:])
            assert np.abs(correlators_expected(rho, *settings) - ref).max() <= 1e-14

    def test_born_behavior(self, cases):
        for rho, settings in cases:
            # p(ab|xy) = Tr(rho P_a(A_x) x P_b(B_y)), P_a(O) = (I + a O)/2
            proj = [[(np.eye(2) + a * s.observable) / 2 for a in (-1, 1)]
                    for s in settings]
            ref = np.empty((2, 2, 2, 2))
            for x in (0, 1):
                for y in (0, 1):
                    ref[:, :, x, y] = kron_trace(rho, proj[x], proj[2 + y])
            assert np.abs(born_behavior(rho, *settings) - ref).max() <= 1e-14

class TestSignOptimal:
    def test_relabelings_have_even_parity(self):
        assert len(RELABELINGS) == 8
        for pat in RELABELINGS:
            assert np.prod(pat) == 1

    def test_recovers_sign_flipped_maximum(self):
        e = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        base, _ = sign_optimal_s_alpha(e)
        flipped, pat = sign_optimal_s_alpha(-e)
        assert flipped == pytest.approx(base)
        assert pat != (1, 1, 1, 1)

    def test_psi_minus_reaches_tsirelson(self):
        # Raw S on Psi- at the Phi+ optimal settings is negative; the
        # relabeled value recovers the full violation.
        rho = bell_diagonal([0, 1, 0, 0])
        e = correlators_expected(rho, *chsh_optimal_settings())
        val, _ = sign_optimal_s_alpha(e)
        assert val == pytest.approx(2 * np.sqrt(2), abs=1e-12)


class TestCounts:
    def test_correlator_simple_table(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[0, 0, 0, 0] = 30  # (-1,-1)
        counts[1, 1, 0, 0] = 50  # (+1,+1)
        counts[0, 1, 0, 0] = 10
        counts[1, 0, 0, 0] = 10
        counts[:, :, 0, 1] = counts[:, :, 1, 0] = counts[:, :, 1, 1] = 25
        table = CountTable(counts)
        assert correlators_from_counts(table)[0, 0] == pytest.approx(0.6)
        assert correlators_from_counts(table)[1, 1] == pytest.approx(0.0)

    def test_empty_setting_rejected(self):
        table = CountTable()
        with pytest.raises(EmptySettingError):
            correlators_from_counts(table)
        with pytest.raises(EmptySettingError):
            s_alpha_from_counts(table)

    def test_negative_counts_rejected(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[0, 0, 0, 0] = -1
        with pytest.raises(ValueError):
            CountTable(counts)

    def test_deterministic_counts_give_classical_bound(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[1, 1] = 100  # always (+1, +1)
        table = CountTable(counts)
        assert s_alpha_from_counts(table, alpha=1.3) == pytest.approx(2.6)


class TestHardwareAngles:
    def test_reference_point(self):
        assert hardware_angles(45.0, 0.0) == pytest.approx((22.5, 33.75))

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t0, t1 = rng.uniform(-90, 90, size=2)
            g, w = hardware_angles(t0, t1)
            assert inverse_hardware_angles(g, w) == pytest.approx((t0, t1))

    def test_identity_settings(self):
        # equal angles need no half-wave-plate offset from 22.5
        _, w = hardware_angles(30.0, 30.0)
        assert w == pytest.approx(22.5)
