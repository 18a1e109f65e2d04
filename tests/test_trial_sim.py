import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit.bell import chsh_optimal_settings, s_alpha_from_counts
from bellkit.qstate import bell_diagonal
from bellkit.trial_sim import (DetectionModel, SpacetimeConfig,
                               behavior_from_counts, largest_remainder,
                               parse_trial_log, pulse_schedule,
                               simulate_trials, spacetime_check,
                               trial_log_to_text)

UNIFORM_XY = np.full((2, 2), 0.25)


class TestPulseSchedule:
    def test_uniform_hand_trace(self):
        ps = pulse_schedule([0.25] * 4, 4)
        assert ps.ch1.tolist() == [True, True, False, False]
        assert ps.ch2.tolist() == [False, True, True, False]
        assert ps.state_counts.tolist() == [1, 1, 1, 1]

    def test_native_state_never_modulates(self):
        ps = pulse_schedule([1, 0, 0, 0], 7)
        assert not ps.ch1.any() and not ps.ch2.any()
        assert ps.state_counts.tolist() == [7, 0, 0, 0]

    def test_two_state_mixture(self):
        ps = pulse_schedule([0.7, 0.3, 0, 0], 10)
        assert ps.ch1.tolist() == [True] * 3 + [False] * 7
        assert not ps.ch2.any()
        assert ps.state_counts.tolist() == [7, 3, 0, 0]

    def test_rounding_warns(self):
        with pytest.warns(UserWarning):
            pulse_schedule([0.7, 0.3, 0, 0], 9)

    def test_rejects_empty_cycle(self):
        with pytest.raises(ValueError):
            pulse_schedule([1, 0, 0, 0], 0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=1.0),
                    min_size=4, max_size=4),
           st.integers(min_value=1, max_value=1000))
    def test_counts_match_largest_remainder(self, raw, n):
        import warnings

        w = np.array(raw) / np.sum(raw)
        target = largest_remainder(w, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ps = pulse_schedule(w, n)
        assert ps.state_counts.tolist() == target.tolist()
        assert target.sum() == n


class TestLargestRemainder:
    def test_exact_weights_untouched(self):
        assert largest_remainder(np.array([0.5, 0.25, 0.125, 0.125]), 8).tolist() \
            == [4, 2, 1, 1]

    def test_sum_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            w = rng.dirichlet(np.ones(4))
            n = int(rng.integers(1, 500))
            c = largest_remainder(w, n)
            assert c.sum() == n
            assert np.all(np.abs(c - w * n) < 1.0)


class TestSimulator:
    def test_tsirelson_within_errors(self):
        rho = bell_diagonal([0, 0, 1, 0])
        res = simulate_trials(rho, chsh_optimal_settings(), DetectionModel(),
                              UNIFORM_XY, 10 ** 6, seed=1)
        s = s_alpha_from_counts(res.table)
        se = 4.0 / np.sqrt(10 ** 6)  # conservative stderr for S
        assert abs(s - 2 * np.sqrt(2)) < 5 * se

    def test_maximally_mixed_no_correlation(self):
        rho = np.eye(4, dtype=complex) / 4
        res = simulate_trials(rho, chsh_optimal_settings(), DetectionModel(),
                              UNIFORM_XY, 10 ** 5, seed=2)
        assert abs(s_alpha_from_counts(res.table)) < 5 * 4.0 / np.sqrt(10 ** 5)

    def test_zero_efficiency_is_classical(self):
        rho = bell_diagonal([0, 0, 1, 0])
        det = DetectionModel(eta_a=0.0, eta_b=0.0)
        res = simulate_trials(rho, chsh_optimal_settings(), det,
                              UNIFORM_XY, 10 ** 4, seed=3)
        # every outcome is (-1, -1): S_alpha = 2 alpha exactly
        assert res.table.counts[1:].sum() == res.table.counts[:, 1:].sum() == 0
        assert s_alpha_from_counts(res.table, alpha=1.7) == pytest.approx(3.4)

    def test_deterministic_for_seed_and_shards(self):
        rho = bell_diagonal([0.6, 0.2, 0.1, 0.1])
        args = (rho, chsh_optimal_settings(), DetectionModel(), UNIFORM_XY)
        a = simulate_trials(*args, 10 ** 4, seed=9, shards=3)
        b = simulate_trials(*args, 10 ** 4, seed=9, shards=3)
        assert np.array_equal(a.table.counts, b.table.counts)

    def test_postselection_discard_fraction(self):
        rho = bell_diagonal([0, 0, 1, 0])
        det = DetectionModel(eta_a=0.8, eta_b=0.9, mode="post-selection")
        res = simulate_trials(rho, chsh_optimal_settings(), det,
                              UNIFORM_XY, 10 ** 5, seed=4)
        expect = 1.0 - 0.8 * 0.9
        frac = res.discarded / res.trials
        se = np.sqrt(expect * (1 - expect) / res.trials)
        assert abs(frac - expect) < 5 * se

    def test_postselection_preserves_violation(self):
        rho = bell_diagonal([0, 0, 1, 0])
        det = DetectionModel(eta_a=0.7, eta_b=0.7, mode="post-selection")
        res = simulate_trials(rho, chsh_optimal_settings(), det,
                              UNIFORM_XY, 10 ** 5, seed=5)
        kept = res.trials - res.discarded
        assert abs(s_alpha_from_counts(res.table) - 2 * np.sqrt(2)) \
            < 5 * 4.0 / np.sqrt(kept)

    def test_invalid_inputs(self):
        rho = bell_diagonal([0, 0, 1, 0])
        with pytest.raises(ValueError):
            simulate_trials(rho, chsh_optimal_settings(), DetectionModel(),
                            np.full((2, 2), 0.3), 100, seed=0)
        with pytest.raises(ValueError):
            simulate_trials(rho, chsh_optimal_settings(), DetectionModel(),
                            UNIFORM_XY, 0, seed=0)
        with pytest.raises(ValueError):
            DetectionModel(eta_a=1.2)
        with pytest.raises(ValueError):
            DetectionModel(mode="heralded")


class TestTrialLog:
    def test_round_trip(self):
        rho = bell_diagonal([0, 0, 1, 0])
        det = DetectionModel(eta_a=0.9, eta_b=0.9, mode="post-selection")
        res = simulate_trials(rho, chsh_optimal_settings(), det,
                              UNIFORM_XY, 2000, seed=6, keep_log=True)
        assert len(res.log) == 2000
        text = trial_log_to_text(res.log)
        assert parse_trial_log(text) == res.log

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError):
            parse_trial_log("1,0,0,1,1\n0,0,0,1,1\n")

    @pytest.mark.parametrize("line", ["3,0,0,0,1", "3,2,0,1,1", "3,0,1,1,-2",
                                      "3,0,0,1", "3,x,0,1,1", "3,0,0,u,+"])
    def test_out_of_alphabet_rejected(self, line):
        text = f"0,1,1,1,-1\n1,0,0,u,1\n2,1,0,1,1\n{line}\n"
        with pytest.raises(ValueError, match="line 4"):
            parse_trial_log(text)

    def test_log_matches_counts(self):
        rho = bell_diagonal([0.5, 0.5, 0, 0])
        res = simulate_trials(rho, chsh_optimal_settings(), DetectionModel(),
                              UNIFORM_XY, 5000, seed=7, keep_log=True)
        rebuilt = np.zeros((2, 2, 2, 2), dtype=np.int64)
        for x, y, a, b in res.log:
            rebuilt[(a + 1) // 2, (b + 1) // 2, x, y] += 1
        assert np.array_equal(rebuilt, res.table.counts)


class TestSpacetime:
    def test_reference_layout_passes(self):
        result = spacetime_check(SpacetimeConfig.reference_layout())
        assert result["pass"]
        assert result["locality_1"] == pytest.approx(27.37, abs=0.01)
        assert result["locality_2"] == pytest.approx(39.05, abs=0.01)
        assert result["mi_a"] > 0 and result["mi_b"] > 0

    def test_short_baseline_fails(self):
        cfg = SpacetimeConfig.reference_layout()
        cfg.ab_m = 100.0
        result = spacetime_check(cfg)
        assert not result["pass"]
        assert result["locality_1"] < 0 or result["locality_2"] < 0

    def test_degenerate_chain(self):
        cfg = SpacetimeConfig(ab_m=163, sa_m=90, sb_m=83, lsa_m=100, lsb_m=100,
                              t_e=0, t_qrng1=0, t_qrng2=0, t_delay1=0,
                              t_delay2=0, t_pc1=0, t_pc2=0, t_m1=0, t_m2=0)
        result = spacetime_check(cfg)
        assert result["locality_1"] == pytest.approx(163 / 0.299792458)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SpacetimeConfig(ab_m=163, sa_m=90, sb_m=83, lsa_m=178, lsb_m=182,
                            t_e=-1, t_qrng1=0, t_qrng2=0, t_delay1=0,
                            t_delay2=0, t_pc1=0, t_pc2=0, t_m1=0, t_m2=0)


class TestBehaviorFromCounts:
    def test_uniform_counts(self):
        from bellkit.bell import CountTable
        table = CountTable(np.full((2, 2, 2, 2), 25, dtype=np.int64))
        beh = behavior_from_counts(table)
        assert np.allclose(beh.p, 0.25)
        assert np.allclose(beh.p_xy, 0.25)

    def test_empty_setting_rejected(self):
        from bellkit.bell import CountTable
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[0, 0, 0, 0] = 10
        with pytest.raises(ValueError):
            behavior_from_counts(CountTable(counts))

    def test_simulated_behavior_near_born(self):
        rho = bell_diagonal([0, 0, 1, 0])
        res = simulate_trials(rho, chsh_optimal_settings(), DetectionModel(),
                              UNIFORM_XY, 10 ** 6, seed=8)
        beh = behavior_from_counts(res.table)
        # Born probabilities at the optimal settings: (2 +/- sqrt(2))/8
        hi, lo = (2 + np.sqrt(2)) / 8, (2 - np.sqrt(2)) / 8
        expect = np.empty((2, 2, 2, 2))
        for x in (0, 1):
            for y in (0, 1):
                sign = -1.0 if (x, y) == (1, 1) else 1.0
                agree = hi if sign > 0 else lo
                disagree = lo if sign > 0 else hi
                expect[:, :, x, y] = [[agree, disagree], [disagree, agree]]
        se = 5 * np.sqrt(0.25 / (10 ** 6 / 4))
        assert np.max(np.abs(beh.p - expect)) < se
