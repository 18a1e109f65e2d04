import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit.qstate import (BELL_STATE_VECTORS, InvalidStateError,
                            bell_diagonal, bell_diagonal_correlation,
                            binary_entropy, concurrence, correlation_tensor,
                            eof, fidelity, negativity, one_way_distillable,
                            partial_transpose, validate_density_matrix,
                            validate_weights)


def random_weights(rng):
    w = rng.dirichlet(np.ones(4))
    return w


weights_strategy = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4
).map(lambda v: np.array(v) / np.sum(v))


class TestBasis:
    def test_bell_vectors_orthonormal(self):
        gram = BELL_STATE_VECTORS @ BELL_STATE_VECTORS.conj().T
        assert np.allclose(gram, np.eye(4))

    def test_bell_diagonal_pure_states(self):
        # index order Psi+, Psi-, Phi+, Phi-
        for i in range(4):
            w = np.zeros(4)
            w[i] = 1.0
            rho = bell_diagonal(w)
            vec = BELL_STATE_VECTORS[i]
            assert np.allclose(rho, np.outer(vec, vec.conj()))

    def test_correlation_tensor_signs(self):
        # Psi+: diag(1, 1, -1); Psi-: diag(-1, -1, -1);
        # Phi+: diag(1, -1, 1); Phi-: diag(-1, 1, 1)
        expected = [
            np.diag([1.0, 1.0, -1.0]),
            np.diag([-1.0, -1.0, -1.0]),
            np.diag([1.0, -1.0, 1.0]),
            np.diag([-1.0, 1.0, 1.0]),
        ]
        for i, t_expect in enumerate(expected):
            w = np.zeros(4)
            w[i] = 1.0
            assert np.allclose(correlation_tensor(bell_diagonal(w)), t_expect)


class TestValidation:
    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidStateError):
            validate_weights([0.5, 0.5])
        with pytest.raises(InvalidStateError):
            validate_density_matrix(np.eye(2) / 2)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            validate_weights([0.5, 0.5, 0.5, 0.5])
        with pytest.raises(InvalidStateError):
            validate_density_matrix(np.eye(4))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvalidStateError):
            validate_density_matrix(m)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(InvalidStateError):
            validate_density_matrix(m)


class TestMeasures:
    def test_concurrence_bell_diagonal_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = random_weights(rng)
            expected = max(0.0, 2.0 * w.max() - 1.0)
            assert concurrence(bell_diagonal(w)) == pytest.approx(expected, abs=1e-9)

    def test_concurrence_near_pure_bell_diagonal(self):
        # Dirichlet(0.05) puts almost all weight on one Bell state, where the
        # smallest lambdas are round-off sized.
        rng = np.random.default_rng(17)
        for _ in range(2000):
            w = rng.dirichlet(np.full(4, 0.05))
            expected = max(0.0, 2.0 * w.max() - 1.0)
            assert abs(concurrence(bell_diagonal(w)) - expected) <= 1e-14

    def test_concurrence_state_zero(self):
        assert concurrence(bell_diagonal([0.7, 0.3, 0, 0])) == pytest.approx(0.4)

    def test_eof_of_concurrence_04(self):
        # h((1 + sqrt(1 - 0.16))/2) frozen from direct evaluation
        val = eof(bell_diagonal([0.7, 0.3, 0, 0]))
        assert val == pytest.approx(0.25021, abs=1e-4)

    def test_binary_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_negativity_werner(self):
        # Werner mixture v*Phi+ + (1-v)*I/4: negativity max(0, (3v-1)/4)
        for v in (0.2, 0.5, 0.9):
            w = np.full(4, (1 - v) / 4)
            w[2] += v
            assert negativity(bell_diagonal(w)) == pytest.approx(
                max(0.0, (3 * v - 1) / 4), abs=1e-9)

    def test_one_way_distillable_pure(self):
        assert one_way_distillable([1, 0, 0, 0]) == pytest.approx(1.0)

    def test_one_way_distillable_uniform(self):
        assert one_way_distillable([0.25] * 4) == pytest.approx(-1.0)

    def test_partial_transpose_involution(self):
        rng = np.random.default_rng(3)
        rho = bell_diagonal(random_weights(rng))
        assert np.allclose(partial_transpose(partial_transpose(rho)), rho)

    @settings(max_examples=50, deadline=None)
    @given(weights_strategy)
    def test_correlation_closed_form_matches_trace(self, w):
        t_closed = bell_diagonal_correlation(w)
        t_trace = correlation_tensor(bell_diagonal(w))
        assert np.allclose(t_closed, t_trace, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(weights_strategy)
    def test_measures_nonnegative(self, w):
        rho = bell_diagonal(w)
        assert concurrence(rho) >= 0.0
        assert negativity(rho) >= 0.0
        assert eof(rho) >= 0.0


class TestFidelity:
    def test_identical_states(self):
        rho = bell_diagonal([0.7, 0.3, 0, 0])
        assert fidelity(rho, rho) == pytest.approx(1.0)

    def test_against_pure_target(self):
        rho = bell_diagonal([0.9, 0.1, 0, 0])
        target = bell_diagonal([1, 0, 0, 0])
        # <psi|rho|psi> = lambda_1 for the Bell projector
        assert fidelity(rho, target) == pytest.approx(0.9, abs=1e-9)

    def test_symmetry(self):
        a = bell_diagonal([0.6, 0.2, 0.1, 0.1])
        b = bell_diagonal([0.3, 0.3, 0.2, 0.2])
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)
