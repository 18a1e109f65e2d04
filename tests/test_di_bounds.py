import numpy as np
import pytest

from bellkit.di_bounds import (InfeasibleBellValueError,
                               QuantumBoundExceededError, _best_realization,
                               eof_lower_bound,
                               incompatibility_lower_bound,
                               multi_alpha_incompatibility_bound,
                               negativity_lower_bound, quantify)

SQRT8 = 2 * np.sqrt(2)


class TestClosedForms:
    def test_no_violation_gives_zero(self):
        assert eof_lower_bound(2.0) == 0.0
        assert negativity_lower_bound(2.0) == 0.0
        assert incompatibility_lower_bound(2.0) == 0.0
        assert incompatibility_lower_bound(1.5) == 0.0

    def test_tsirelson_saturates(self):
        assert eof_lower_bound(SQRT8) == pytest.approx(1.0)
        assert negativity_lower_bound(SQRT8) == pytest.approx(0.5)
        assert incompatibility_lower_bound(SQRT8) == pytest.approx(0.5)

    def test_frozen_values_at_2_0132(self):
        # frozen from direct evaluation of the closed forms
        assert eof_lower_bound(2.0132) == pytest.approx(0.015933809511662, abs=1e-12)
        assert negativity_lower_bound(2.0132) == pytest.approx(
            0.007966904755831, abs=1e-12)
        assert incompatibility_lower_bound(2.0132) == pytest.approx(
            4.3849893181513e-05, abs=1e-15)

    def test_eof_is_twice_negativity_at_alpha_one(self):
        for s in np.linspace(2.0, SQRT8, 20):
            assert eof_lower_bound(s) == pytest.approx(
                2 * negativity_lower_bound(s), abs=1e-12)

    def test_bounds_monotone_in_s(self):
        grid = np.linspace(2.0, SQRT8, 50)
        for f in (eof_lower_bound, negativity_lower_bound,
                  incompatibility_lower_bound):
            vals = [f(s) for s in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(QuantumBoundExceededError):
            eof_lower_bound(2.9)
        with pytest.raises(QuantumBoundExceededError):
            incompatibility_lower_bound(2.83)
        with pytest.raises(ValueError):
            eof_lower_bound(2.1, alpha=0.5)

    def test_alpha_weakens_fixed_s_certificate(self):
        # a larger alpha raises the classical bound 2 alpha, so the same
        # observed S certifies less entanglement
        s = 2.4
        assert eof_lower_bound(s, 1.1) < eof_lower_bound(s, 1.0)


class TestMultiAlpha:
    def test_matches_closed_form_at_alpha_one(self):
        for s in (2.05, 2.3, 2.6):
            num = multi_alpha_incompatibility_bound(s, alpha=1.0, tol=1e-9)
            assert num == pytest.approx(incompatibility_lower_bound(s), abs=1e-6)

    def test_no_violation_gives_zero(self):
        assert multi_alpha_incompatibility_bound(1.9, alpha=1.3) == 0.0

    def test_fig2c_value(self):
        val = multi_alpha_incompatibility_bound(2.0098, alpha=1.04)
        assert 1.0e-4 <= val <= 1.25e-4

    def test_alpha_tuned_value_is_violated_by_a_qubit_realization(self):
        # Characterization: above alpha = 1 the value assumes the
        # S_alpha-optimal realization.  The CHSH-optimal qubit realization
        # at the same CHSH value has side-A incompatibility sin^2(phi/2)
        # = incompatibility_lower_bound(s), about 4.6 times below it.
        s = 2.0098
        tuned = multi_alpha_incompatibility_bound(s, alpha=1.04)
        assert tuned == pytest.approx(1.10e-4, rel=0.01)
        t = incompatibility_lower_bound(s)
        assert t == pytest.approx(2.41e-5, rel=0.01)
        phi = 2.0 * np.arcsin(np.sqrt(t))
        _, e = _best_realization(phi, 1.0, "A")
        chsh = e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]
        assert chsh == pytest.approx(s, abs=1e-12)
        side_a_incompatibility = min(np.sin(phi / 2) ** 2, np.cos(phi / 2) ** 2)
        assert side_a_incompatibility == pytest.approx(t, rel=1e-9)
        assert side_a_incompatibility < tuned

    def test_bound_increases_with_alpha(self):
        vals = [multi_alpha_incompatibility_bound(2.0098, alpha=a, tol=1e-8)
                for a in (1.0, 1.02, 1.04)]
        assert vals[0] < vals[1] < vals[2]

    def test_side_b_matches_alpha_one_form(self):
        # the free-side bound does not depend on the asymmetry parameter
        val = multi_alpha_incompatibility_bound(2.0098, alpha=1.04, side="B",
                                                tol=1e-8)
        ref = incompatibility_lower_bound(2.0098)
        assert val == pytest.approx(ref, rel=0.01)

    def test_full_output_metadata(self):
        out = multi_alpha_incompatibility_bound(2.1, alpha=1.1, tol=1e-6,
                                                full_output=True)
        assert out["achieved_precision"] <= 1e-6
        assert out["side"] == "A"

    def test_invalid_inputs(self):
        with pytest.raises(QuantumBoundExceededError):
            multi_alpha_incompatibility_bound(2.9, alpha=1.0)
        with pytest.raises(ValueError):
            multi_alpha_incompatibility_bound(2.1, side="C")
        with pytest.raises(InfeasibleBellValueError):
            # alpha-optimal realizations at large alpha cannot produce a
            # standard CHSH value this close to Tsirelson
            multi_alpha_incompatibility_bound(2.828, alpha=2.0)


class TestQuantifyReport:
    def test_report_round_trip(self):
        rep = quantify(2.0132)
        d = rep.to_dict()
        assert d["eof_lb"] == pytest.approx(0.0159338, abs=1e-6)
        assert "error" not in d
        assert isinstance(rep.to_json(), str)

    def test_alpha_one_labels_closed_form(self):
        d = quantify(2.0132).to_dict()
        assert d["method"] == "closed-form"
        assert d["achieved_precision"] == 0.0

    def test_multi_alpha_labels_numeric_inversion(self):
        d = quantify(2.0098, 1.04).to_dict()
        full = multi_alpha_incompatibility_bound(2.0098, 1.04, full_output=True)
        assert d["incompatibility_lb"] == full["bound"]
        assert d["method"] == full["method"] == "planar-qubit envelope inversion"
        assert 0.0 < d["achieved_precision"] == full["achieved_precision"] <= 1e-10

    @pytest.mark.parametrize("s,alpha", [(2.0132, 1.0), (2.0098, 1.04)])
    def test_report_names_the_reading_of_s(self, s, alpha):
        d = quantify(s, alpha).to_dict()
        assert d["s_read_as"] == {"eof_lb": "S_alpha", "negativity_lb": "S_alpha",
                                  "incompatibility_lb": "S_CHSH"}
        # eof and negativity take s as S_alpha; the incompatibility takes the
        # same s as a CHSH value, which at alpha = 1 is the closed form.
        assert d["eof_lb"] == eof_lower_bound(s, alpha)
        assert d["negativity_lb"] == negativity_lower_bound(s, alpha)
        assert d["incompatibility_lb"] == pytest.approx(
            multi_alpha_incompatibility_bound(s, alpha), abs=1e-9)
        if alpha == 1.0:
            assert d["incompatibility_lb"] == incompatibility_lower_bound(s)
