import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit.qstate import bell_diagonal, fidelity, validate_density_matrix
from bellkit.tomo import (BASIS_LABELS, SETTING_GROUPS, SINGLE_QUBIT_STATES,
                          expected_counts, linear_inversion, log_likelihood,
                          mle_fit, probabilities, projector_set, rho_from_t,
                          simulate_counts, t_from_rho, t_matrix)


class TestProjectorSet:
    def test_shape_and_normalization(self):
        kets = projector_set()
        assert kets.shape == (36, 4)
        assert np.allclose(np.sum(np.abs(kets) ** 2, axis=1), 1.0)

    def test_mutually_unbiased_bases(self):
        for pair in (("H", "+"), ("H", "R"), ("+", "R")):
            overlap = abs(SINGLE_QUBIT_STATES[pair[0]]
                          @ SINGLE_QUBIT_STATES[pair[1]].conj()) ** 2
            assert overlap == pytest.approx(0.5)

    def test_settings_partition_the_projectors(self):
        flat = sorted(i for group in SETTING_GROUPS for i in group)
        assert flat == list(range(36))

    def test_setting_probabilities_sum_to_one(self):
        rho = bell_diagonal([0.6, 0.2, 0.1, 0.1])
        p = probabilities(rho)
        for group in SETTING_GROUPS:
            assert p[group].sum() == pytest.approx(1.0)

    def test_basis_order(self):
        assert BASIS_LABELS == ("H", "V", "+", "-", "R", "L")


class TestParameterization:
    def test_single_diagonal_entry(self):
        t = np.zeros(16)
        t[0] = 1.0
        assert np.allclose(rho_from_t(t), np.diag([1, 0, 0, 0]))

    def test_identity_quarter(self):
        t = np.zeros(16)
        t[:4] = 1.0
        assert np.allclose(rho_from_t(t), np.eye(4) / 4)

    def test_lower_triangular(self):
        rng = np.random.default_rng(0)
        tm = t_matrix(rng.normal(size=16))
        assert np.allclose(np.triu(tm, k=1), 0.0)

    def test_random_t_always_physical(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            rho = rho_from_t(rng.normal(size=16))
            validate_density_matrix(rho)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            rho_from_t(np.zeros(16))

    def test_t_from_rho_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rho = rho_from_t(rng.normal(size=16))
            assert np.allclose(rho_from_t(t_from_rho(rho)), rho, atol=1e-5)

    def test_round_trip_rank_deficient(self):
        rho = bell_diagonal([1, 0, 0, 0])
        assert np.allclose(rho_from_t(t_from_rho(rho)), rho, atol=1e-5)


class TestLikelihood:
    def test_exact_counts_give_zero(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=16)
        counts = 10000 * np.array(
            [p for p in _probs(t)])
        assert log_likelihood(t, counts) == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_perturbation(self):
        rng = np.random.default_rng(4)
        t = rng.normal(size=16)
        counts = 10000 * np.array(_probs(t))
        delta = 5.0
        bumped = counts.copy()
        bumped[0] += delta
        expected_increase = delta ** 2 / (2 * counts[0])
        # fix the trial scale explicitly so only the observed count moves
        got = log_likelihood(t, bumped, n_scale=10000.0) \
            - log_likelihood(t, counts, n_scale=10000.0)
        assert got == pytest.approx(expected_increase, rel=1e-9)

    def test_two_cell_toy_value(self):
        # expected (50, 50), observed (60, 40): (10^2/100) * 2 = 2
        exp = np.array([50.0, 50.0])
        obs = np.array([60.0, 40.0])
        assert np.sum((exp - obs) ** 2 / (2 * exp)) == pytest.approx(2.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 1000, size=36).astype(float)
        for _ in range(20):
            t = rng.normal(size=16)
            assert log_likelihood(t, counts) == pytest.approx(
                log_likelihood(2.0 * t, counts), abs=1e-9)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood(np.ones(16), -np.ones(36))


def _probs(t):
    from bellkit.tomo import _probabilities_from_t
    return _probabilities_from_t(t)


class TestProbabilityKernel:
    """The fit's cost kernel, one product with a precomputed real matrix,
    against the density-matrix route and values pinned from the complex
    T-matrix kernel it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16).filter(
        lambda v: np.dot(v, v) > 1e-6))
    def test_equals_density_matrix_route(self, t):
        assert np.max(np.abs(_probs(t) - probabilities(rho_from_t(t)))) <= 1e-14

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="all zero"):
            _probs(np.zeros(16))

    def test_log_likelihood_pinned(self):
        rng = np.random.default_rng(29)
        counts = rng.integers(1, 1000, size=36).astype(float)
        pinned = [7609.159194230155, 9163.862222514363, 6897.143468640628]
        for t, value in zip(rng.normal(size=(3, 16)), pinned):
            assert log_likelihood(t, counts) == pytest.approx(value, rel=1e-12)

    def test_fit_cost_pinned(self):
        counts = simulate_counts(bell_diagonal([0.7, 0.2, 0.05, 0.05]), 10 ** 3, seed=29)
        _, final_l = mle_fit(counts)
        assert final_l == pytest.approx(7.121088700926668, rel=1e-9)


class TestLinearInversion:
    def test_exact_counts_recover_state(self):
        rho = bell_diagonal([0.7, 0.2, 0.05, 0.05])
        counts = expected_counts(rho, 10 ** 5)
        assert np.allclose(linear_inversion(counts), rho, atol=1e-10)

    def test_zero_setting_rejected(self):
        with pytest.raises(ValueError):
            linear_inversion(np.zeros(36))


class TestMleFit:
    def test_noiseless_bell_state(self):
        psi_plus = bell_diagonal([1, 0, 0, 0])
        counts = expected_counts(psi_plus, 10 ** 4)
        rho_hat, final_l = mle_fit(counts, restarts=0)
        assert fidelity(rho_hat, psi_plus) >= 0.9999
        assert final_l < 1e-6

    def test_flat_counts_give_maximally_mixed(self):
        rho_hat, _ = mle_fit(np.full(36, 1000.0), restarts=0)
        assert fidelity(rho_hat, np.eye(4) / 4) >= 0.999

    def test_multinomial_recovery_state3(self):
        rho = bell_diagonal([0.847, 0.079, 0.068, 0.006])
        counts = simulate_counts(rho, 10 ** 4, seed=12)
        rho_hat, _ = mle_fit(counts, restarts=0)
        assert fidelity(rho_hat, rho) >= 0.995

    def test_fidelity_improves_with_counts(self):
        rho = bell_diagonal([0.7, 0.2, 0.05, 0.05])
        meds = []
        for n in (10 ** 2, 10 ** 3, 10 ** 4):
            fids = []
            for seed in range(5):
                counts = simulate_counts(rho, n, seed=seed)
                rho_hat, _ = mle_fit(counts, restarts=0)
                fids.append(fidelity(rho_hat, rho))
            meds.append(np.median(fids))
        assert meds[0] <= meds[1] + 0.01 and meds[1] <= meds[2] + 0.005
        assert meds[-1] > meds[0]
