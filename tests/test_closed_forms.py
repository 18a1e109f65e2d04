"""The closed-form interplay maxima and multi-alpha realizations.

Differential tests compare them with the outputs of the generic solvers
they replaced (linear programs, SLSQP and Nelder-Mead), frozen on a grid
in solver_reference.json, and interplay's root solver with scipy's brentq,
run side by side.  Property tests check that each closed form
bounds every state or realization it claims to maximize over.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from bellkit import interplay
from bellkit.bell import MeasurementSetting, s_alpha_expected
from bellkit.di_bounds import _best_realization, multi_alpha_incompatibility_bound
from bellkit.interplay import (fixed_state_curve, max_s_fixed_concurrence,
                               max_s_fixed_ode)
from bellkit.qstate import bell_diagonal, concurrence, one_way_distillable

REFERENCE = json.loads((Path(__file__).parent / "solver_reference.json").read_text())


class TestAgainstReplacedSolvers:
    @pytest.mark.parametrize("c, theta, alpha, old", REFERENCE["concurrence"])
    def test_concurrence_equals_linear_programs(self, c, theta, alpha, old):
        assert abs(max_s_fixed_concurrence(c, theta, alpha).s_alpha - old) <= 1e-12

    @pytest.mark.parametrize("ode, theta, alpha, old", REFERENCE["ode"])
    def test_ode_no_worse_than_slsqp(self, ode, theta, alpha, old):
        p = max_s_fixed_ode(ode, theta, alpha)
        assert p.s_alpha >= old - 1e-9
        assert abs(one_way_distillable(p.weights) - ode) <= 1e-6

    @pytest.mark.parametrize("alpha", [1.0, 1.04, 1.5, 2.0])
    def test_ode_root_equals_brentq(self, monkeypatch, alpha):
        """interplay's own root solver against the scipy brentq it replaced,
        over ode in (-1, 1) and theta from 0 to pi/4 (the tie branch at both
        ends), in at most 15 evaluations per root at the median."""
        own, evaluations = interplay._root, []

        def counted(f, lo, hi):
            calls = []
            root = own(lambda x: calls.append(x) or f(x), lo, hi)
            evaluations.append(len(calls))
            return root

        for theta in np.linspace(0.0, np.pi / 4, 9):
            for ode in np.linspace(-0.99, 0.99, 23):
                monkeypatch.setattr(interplay, "_root", counted)
                p = max_s_fixed_ode(ode, theta, alpha)
                monkeypatch.setattr(interplay, "_root",
                                    lambda f, lo, hi: brentq(f, lo, hi, xtol=1e-15))
                q = max_s_fixed_ode(ode, theta, alpha)
                assert abs(p.s_alpha - q.s_alpha) <= 1e-12
                assert np.max(np.abs(p.weights - q.weights)) <= 1e-12
                assert abs(one_way_distillable(p.weights) - ode) <= 1e-12
        assert np.median(evaluations) <= 15

    @pytest.mark.parametrize("s, alpha, side, old", REFERENCE["multi_alpha"])
    def test_multi_alpha_equals_nelder_mead(self, s, alpha, side, old):
        assert abs(multi_alpha_incompatibility_bound(s, alpha, side) - old) <= 1e-9


bell_weights = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
    lambda v: sum(v) > 1e-3).map(lambda v: np.array(v) / sum(v))
thetas = st.floats(0.0, np.pi / 4)
alphas = st.floats(1.0, 3.0)
angles = st.floats(-np.pi, np.pi)


class TestSoundness:
    @settings(max_examples=300, deadline=None)
    @given(bell_weights, thetas, alphas)
    # A near-pure state on which concurrence once lost 1.6e-10 to round-off.
    @example(np.array([0.0, 0.0, 1.0, 2.0 ** -23]) / (1.0 + 2.0 ** -23), 0.5, 1.0)
    def test_concurrence_maximum_bounds_every_state(self, w, theta, alpha):
        c = min(concurrence(bell_diagonal(w)), 1.0)
        best = max_s_fixed_concurrence(c, theta, alpha).s_alpha
        assert fixed_state_curve(w, alpha, theta) <= best + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(bell_weights, thetas, alphas)
    def test_ode_maximum_bounds_every_state(self, w, theta, alpha):
        ode = one_way_distillable(w)
        assume(ode > -1.0 + 1e-9)
        best = max_s_fixed_ode(ode, theta, alpha).s_alpha
        assert fixed_state_curve(w, alpha, theta) <= best + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(
               lambda v: np.linalg.norm(v) > 1e-3),
           angles, st.floats(0.0, np.pi), angles, angles, alphas,
           st.sampled_from("AB"))
    def test_envelope_bounds_pure_states(self, amps, centre, phi, free0, free1,
                                         alpha, side):
        psi = np.array(amps[:4]) + 1j * np.array(amps[4:])
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        fixed = (MeasurementSetting(centre - phi / 2), MeasurementSetting(centre + phi / 2))
        free = (MeasurementSetting(free0), MeasurementSetting(free1))
        a0, a1, b0, b1 = fixed + free if side == "A" else free + fixed
        envelope, e = _best_realization(phi, alpha, side)
        assert s_alpha_expected(rho, a0, a1, b0, b1, alpha) <= envelope + 1e-12
        # The returned realization attains the envelope.
        assert alpha * (e[0, 0] + e[0, 1]) + e[1, 0] - e[1, 1] == pytest.approx(
            envelope, abs=1e-12)
