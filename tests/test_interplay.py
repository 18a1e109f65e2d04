import numpy as np
import pytest

from bellkit.interplay import (InfeasibleConstraintError, fixed_state_curve,
                               max_s_fixed_concurrence, max_s_fixed_ode,
                               trajectory, trajectory_to_csv)
from bellkit.qstate import concurrence, bell_diagonal, one_way_distillable


class TestFixedConcurrence:
    def test_chsh_point(self):
        # C = 0.4 at theta = pi/4: S = sqrt(2) (2 lambda_max) = 1.4 sqrt(2)
        p = max_s_fixed_concurrence(0.4, np.pi / 4)
        assert p.s_alpha == pytest.approx(1.4 * np.sqrt(2), abs=1e-9)

    def test_interior_optimum_alpha_one(self):
        # the per-theta maximum over all theta peaks at arctan(C)
        p = max_s_fixed_concurrence(0.4, np.arctan(0.4))
        assert p.s_alpha == pytest.approx(2 * np.sqrt(1.16), abs=1e-9)

    def test_alpha_15_values(self):
        p = max_s_fixed_concurrence(0.4, np.pi / 4, alpha=1.5)
        assert p.s_alpha == pytest.approx(3.8 / np.sqrt(2), abs=1e-9)
        p = max_s_fixed_concurrence(0.4, np.arctan(0.8 / 3.0), alpha=1.5)
        assert p.s_alpha == pytest.approx(np.sqrt(9.64), abs=1e-9)

    def test_achieving_state_has_requested_concurrence(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = rng.uniform(0.05, 0.95)
            theta = rng.uniform(0.0, np.pi / 4)
            p = max_s_fixed_concurrence(c, theta)
            assert concurrence(bell_diagonal(p.weights)) == pytest.approx(
                c, abs=1e-7)

    def test_maximal_entanglement(self):
        p = max_s_fixed_concurrence(1.0, np.pi / 4)
        assert p.s_alpha == pytest.approx(2 * np.sqrt(2), abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(InfeasibleConstraintError):
            max_s_fixed_concurrence(1.3, 0.1)
        with pytest.raises(ValueError):
            max_s_fixed_concurrence(0.4, 1.0)  # theta beyond pi/4


class TestFixedOde:
    def test_pure_state_limit(self):
        p = max_s_fixed_ode(1.0, np.pi / 4)
        assert p.s_alpha == pytest.approx(2 * np.sqrt(2), abs=1e-9)
        assert np.allclose(p.weights, [1, 0, 0, 0])

    def test_constraint_satisfied(self):
        for ode in (0.1, 0.2, 0.5):
            p = max_s_fixed_ode(ode, np.pi / 5)
            assert one_way_distillable(p.weights) == pytest.approx(ode, abs=1e-6)

    def test_more_entanglement_more_violation(self):
        vals = [max_s_fixed_ode(e, np.pi / 4).s_alpha for e in (0.1, 0.3, 0.6)]
        assert vals[0] < vals[1] < vals[2]

    def test_domain_error(self):
        with pytest.raises(InfeasibleConstraintError):
            max_s_fixed_ode(1.5, 0.3)


class TestTrajectory:
    def test_grid_order_and_incompatibility(self):
        grid = np.linspace(0.0, np.pi / 4, 9)
        points = trajectory("concurrence", 0.5, 1.0, grid)
        assert [p.theta for p in points] == pytest.approx(list(grid))
        for p in points:
            assert p.incompatibility == pytest.approx(np.sin(p.theta) ** 2)

    def test_matches_pointwise_solvers(self):
        grid = np.linspace(0.0, np.pi / 4, 7)
        for measure, solve in (("concurrence", max_s_fixed_concurrence),
                               ("ode", max_s_fixed_ode)):
            points = trajectory(measure, 0.4, 1.2, grid)
            assert [p.s_alpha for p in points] == [
                solve(0.4, t, 1.2).s_alpha for t in grid]

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            trajectory("fidelity", 0.4, 1.0, [0.1])

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            trajectory("concurrence", 0.4, 1.0, [0.3, 0.1])

    def test_csv_format(self):
        points = trajectory("concurrence", 0.4, 1.0, [0.0, np.pi / 4])
        text = trajectory_to_csv(points)
        lines = text.strip().split("\n")
        assert lines[0] == "theta_rad,incompat,s_alpha,l1,l2,l3,l4"
        assert len(lines) == 3
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0 and len(first) == 7


class TestFixedStateCurve:
    def test_matches_closed_form(self):
        w = np.array([0.7, 0.3, 0.0, 0.0])
        grid = np.linspace(0, np.pi / 4, 5)
        curve = fixed_state_curve(w, 1.0, grid)
        tz, tx = abs(-0.7 - 0.3), abs(0.7 - 0.3)
        expected = 2 * np.cos(grid) * tz + 2 * np.sin(grid) * tx
        assert curve == pytest.approx(expected)

