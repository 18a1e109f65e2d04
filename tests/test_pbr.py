import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellkit.bell import (CountTable, EmptySettingError, chsh_optimal_settings,
                          correlators_from_counts, s_alpha_from_counts)
from bellkit.pbr import (_GAP_TOL_BITS, BehaviorDistribution, LhvModel,
                         SupportViolationError, _ns_constraint_matrix,
                         _ratio_table, behavior_from_counts, closest_lhv,
                         kl_divergence, lhv_vertices, pbr_p_value,
                         project_no_signaling)
from bellkit.qstate import bell_diagonal
from bellkit.trial_sim import TRIAL_CELLS, DetectionModel, simulate_trials

UNIFORM_XY = np.full((2, 2), 0.25)
INT64_MAX = 2 ** 63 - 1
#: Divergences reached by the SLSQP projection that the Newton solver replaced.
PROJECTION_REFERENCE = json.loads(
    (Path(__file__).parent / "projection_reference.json").read_text())["cases"]
#: Divergences reached by the multi-start EM that the gap-stopped run replaced.
LHV_REFERENCE = json.loads(
    (Path(__file__).parent / "lhv_reference.json").read_text())["cases"]
#: First-block counts C[a, b, x, y], a and b in (-1, 1, u), on which SLSQP
#: stopped early ("Inequality constraints incompatible") and left zero cells.
SLSQP_FAILURE_COUNTS = [
    [[[935, 837], [966, 235]], [[259, 245], [250, 901]], [[58, 68], [50, 51]]],
    [[[244, 250], [247, 842]], [[820, 914], [876, 233]], [[56, 62], [55, 65]]],
    [[[55, 67], [48, 51]], [[58, 52], [63, 63]], [[6, 5], [5, 8]]],
]


def certified_gap(p_ns, weights):
    """log2 max_k sum pi V_k / P, with pi = p_xy p_ns and P = sum_k w_k V_k:
    a bound on the divergence of the mixture minus the optimal one."""
    k = len(p_ns.outcomes)
    pi = (p_ns.p * p_ns.p_xy).ravel()
    v = (lhv_vertices(k) * p_ns.p_xy).reshape(k ** 4, -1)[:, pi > 0]
    return float(np.log2(np.max(v @ (pi[pi > 0] / (weights @ v)))))


def uniform_behavior(k=2):
    return BehaviorDistribution(p=np.full((k, k, 2, 2), 1.0 / k ** 2),
                                p_xy=UNIFORM_XY)


def pr_box():
    p = np.zeros((2, 2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            for a in (0, 1):
                for b in (0, 1):
                    if (a ^ b) == (x & y):
                        p[a, b, x, y] = 0.5
    return BehaviorDistribution(p=p, p_xy=UNIFORM_XY)


def quantum_log(n_trials, seed, s_target=2.5):
    v = s_target / (2 * np.sqrt(2))
    w = np.full(4, (1 - v) / 4)
    w[2] += v
    rho = bell_diagonal(w)
    res = simulate_trials(rho, chsh_optimal_settings(), DetectionModel(),
                          UNIFORM_XY, n_trials, seed=seed, keep_log=True)
    return res


class TestKlDivergence:
    def test_identical_is_zero(self):
        beh = uniform_behavior()
        assert kl_divergence(beh, beh) == 0.0

    def test_point_mass_vs_halves(self):
        # one bit per setting when a two-way split collapses to a point
        p = np.zeros((2, 2, 2, 2))
        p[0, 0] = 1.0
        f = BehaviorDistribution(p=p, p_xy=UNIFORM_XY)
        q = np.zeros((2, 2, 2, 2))
        q[0, 0] = q[1, 1] = 0.5
        ref = BehaviorDistribution(p=q, p_xy=UNIFORM_XY)
        assert kl_divergence(f, ref) == pytest.approx(1.0)

    def test_frozen_biased_cell(self):
        # (0.75, 0.25) vs (0.5, 0.5): 0.75 log2 1.5 + 0.25 log2 0.5
        p = np.zeros((2, 2, 2, 2))
        p[0, 0] = 0.75
        p[1, 1] = 0.25
        f = BehaviorDistribution(p=p, p_xy=UNIFORM_XY)
        q = np.zeros((2, 2, 2, 2))
        q[0, 0] = q[1, 1] = 0.5
        ref = BehaviorDistribution(p=q, p_xy=UNIFORM_XY)
        assert kl_divergence(f, ref) == pytest.approx(0.18872, abs=1e-5)

    def test_support_violation(self):
        f = uniform_behavior()
        q = np.zeros((2, 2, 2, 2))
        q[0, 0] = 1.0
        ref = BehaviorDistribution(p=q, p_xy=UNIFORM_XY)
        with pytest.raises(SupportViolationError):
            kl_divergence(f, ref)


class TestVertices:
    def test_counts(self):
        assert lhv_vertices(2).shape == (16, 2, 2, 2, 2)
        assert lhv_vertices(3).shape == (81, 3, 3, 2, 2)

    def test_vertices_are_no_signaling(self):
        for v in lhv_vertices(2):
            beh = BehaviorDistribution(p=v, p_xy=UNIFORM_XY)
            assert beh.no_signaling_residual() < 1e-12

    def test_vertex_bell_values_classical(self):
        for v in lhv_vertices(2):
            beh = BehaviorDistribution(p=v, p_xy=UNIFORM_XY)
            assert abs(beh.s_value()) <= 2.0 + 1e-12


class TestProjection:
    def test_fixed_point_on_no_signaling_input(self):
        beh = uniform_behavior()
        q, info = project_no_signaling(beh, full_output=True)
        assert info["objective"] < 1e-9
        assert np.allclose(q.p, beh.p, atol=1e-5)

    def test_residual_small(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            raw = rng.dirichlet(np.ones(4), size=4).T.reshape(2, 2, 2, 2)
            f = BehaviorDistribution(p=raw, p_xy=UNIFORM_XY)
            q = project_no_signaling(f)
            assert q.no_signaling_residual() < 1e-9

    def test_matches_cvxpy_oracle(self):
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(4)
        raw = rng.dirichlet(np.ones(4), size=4).T.reshape(2, 2, 2, 2)
        f = BehaviorDistribution(p=raw, p_xy=UNIFORM_XY)
        q = project_no_signaling(f)

        qv = cp.Variable(16, nonneg=True)

        def idx(a, b, x, y):
            return int(np.ravel_multi_index((a, b, x, y), (2, 2, 2, 2)))

        coef = (f.p * f.p_xy).ravel()
        obj = -cp.sum(cp.multiply(coef, cp.log(qv)))
        cons = []
        for x in (0, 1):
            for y in (0, 1):
                cons.append(cp.sum(qv[[idx(a, b, x, y)
                                       for a in (0, 1) for b in (0, 1)]]) == 1)
        for a in (0, 1):  # A marginal independent of y
            for x in (0, 1):
                cons.append(cp.sum(qv[[idx(a, b, x, 0) for b in (0, 1)]])
                            == cp.sum(qv[[idx(a, b, x, 1) for b in (0, 1)]]))
        for b in (0, 1):  # B marginal independent of x
            for y in (0, 1):
                cons.append(cp.sum(qv[[idx(a, b, 0, y) for a in (0, 1)]])
                            == cp.sum(qv[[idx(a, b, 1, y) for a in (0, 1)]]))
        prob = cp.Problem(cp.Minimize(obj), cons)
        prob.solve(solver=cp.SCS, eps=1e-10)
        oracle = np.asarray(qv.value).reshape(2, 2, 2, 2)
        assert np.max(np.abs(q.p - oracle)) < 1e-5

    @pytest.mark.parametrize("case", PROJECTION_REFERENCE,
                             ids=lambda c: f"k{c['k']}")
    def test_no_worse_than_slsqp(self, case):
        k = case["k"]
        f = BehaviorDistribution(p=np.reshape(case["p"], (k, k, 2, 2)),
                                 p_xy=np.reshape(case["p_xy"], (2, 2)))
        q, info = project_no_signaling(f, full_output=True)
        assert info["converged"] and info["gap"] < 1e-12
        if f.p.min() == 0:
            # The minimizer may lie on q = 0, reached through a log barrier.
            assert info["objective"] <= case["objective"] + 1e-10
            return
        assert info["objective"] <= case["objective"] + 1e-12
        # Stationarity: p_xy f / q lies in the row space of the constraints.
        a_mat = _ns_constraint_matrix(k)
        w = (f.p * f.p_xy).ravel() / q.p.ravel()
        multipliers = np.linalg.lstsq(a_mat.T, w, rcond=None)[0]
        assert np.max(np.abs(a_mat.T @ multipliers - w)) < 1e-9

    def test_slsqp_failure_case_is_interior(self):
        counts = np.array(SLSQP_FAILURE_COUNTS, dtype=float) + 0.5
        n_xy = counts.sum(axis=(0, 1))
        f = BehaviorDistribution(p=counts / n_xy, p_xy=n_xy / n_xy.sum())
        q, info = project_no_signaling(f, full_output=True)
        assert info["converged"] and q.p.min() > 0
        assert -np.sum(f.p * f.p_xy * np.log(q.p)) == pytest.approx(1.5548, abs=1e-4)

    def test_unbalanced_marginal_equalized(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[:, :, 0, 0] = [[0.3, 0.3], [0.2, 0.2]]
        p[:, :, 0, 1] = [[0.2, 0.2], [0.3, 0.3]]
        f = BehaviorDistribution(p=p, p_xy=UNIFORM_XY)
        q = project_no_signaling(f)
        marg = q.p.sum(axis=1)
        assert np.allclose(marg[:, 0, 0], marg[:, 0, 1], atol=1e-9)


class TestClosestLhv:
    def test_local_behavior_zero_divergence(self):
        beh = uniform_behavior()
        model, kl = closest_lhv(beh)
        assert kl == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(model.behavior().p, beh.p, atol=1e-5)

    def test_pr_box_value(self):
        _, kl = closest_lhv(pr_box())
        assert kl == pytest.approx(np.log2(4.0 / 3.0), abs=1e-4)

    def test_tsirelson_point_positive(self):
        hi, lo = (2 + np.sqrt(2)) / 8, (2 - np.sqrt(2)) / 8
        p = np.empty((2, 2, 2, 2))
        for x in (0, 1):
            for y in (0, 1):
                agree = hi if (x, y) != (1, 1) else lo
                disagree = lo if (x, y) != (1, 1) else hi
                p[:, :, x, y] = [[agree, disagree], [disagree, agree]]
        beh = BehaviorDistribution(p=p, p_xy=UNIFORM_XY)
        _, kl = closest_lhv(beh)
        assert kl > 0.01

    def test_output_is_classical(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            raw = rng.dirichlet(np.ones(4), size=4).T.reshape(2, 2, 2, 2)
            f = BehaviorDistribution(p=raw, p_xy=UNIFORM_XY)
            model, _ = closest_lhv(project_no_signaling(f))
            out = model.behavior()
            assert out.no_signaling_residual() < 1e-9
            assert abs(out.s_value()) <= 2.0 + 1e-8

    @pytest.mark.parametrize("case", LHV_REFERENCE, ids=lambda c: c["source"])
    def test_no_worse_than_multistart_em(self, case):
        k = case["k"]
        p_ns = BehaviorDistribution(p=np.reshape(case["p"], (k, k, 2, 2)),
                                    p_xy=np.reshape(case["p_xy"], (2, 2)))
        model, kl = closest_lhv(p_ns)
        assert kl == pytest.approx(kl_divergence(p_ns, model.behavior()), abs=1e-12)
        gap = certified_gap(p_ns, model.weights)
        assert gap < _GAP_TOL_BITS
        assert kl <= case["kl"] + 1e-9
        assert kl - gap <= case["kl"] + 1e-12

    def test_lhv_model_validation(self):
        with pytest.raises(ValueError):
            LhvModel(weights=np.ones(16))  # unnormalized
        with pytest.raises(ValueError):
            LhvModel(weights=np.ones(5) / 5)


class TestPValue:
    def test_lhv_data_gives_one(self):
        rng = np.random.default_rng(0)
        log = [TRIAL_CELLS.index((int(x), int(y), 1, 1))
               for x, y in rng.integers(0, 2, size=(10000, 2))]
        result = pbr_p_value(log, block=2500)
        assert result.p_value == 1.0

    def test_uninformed_single_block(self):
        log = quantum_log(3000, seed=1).log
        result = pbr_p_value(log, block=5000)
        assert result.blocks == 1
        assert result.p_value == 1.0

    def test_quantum_data_rejects(self):
        result = pbr_p_value(quantum_log(40000, seed=2).log, block=10000)
        assert result.p_value < 1e-20
        assert result.final_kl_lhv > 0.01

    def test_monotone_after_first_block(self):
        log = quantum_log(50000, seed=3).log
        prior = 0.0
        for n in (20000, 30000, 40000, 50000):
            r = pbr_p_value(log[:n], block=10000)
            assert r.log10_p <= prior + 1e-9
            prior = r.log10_p

    def test_ternary_log(self):
        rho = bell_diagonal([0.05, 0.05, 0.85, 0.05])
        det = DetectionModel(eta_a=0.95, eta_b=0.95, mode="post-selection")
        res = simulate_trials(rho, chsh_optimal_settings(), det,
                              UNIFORM_XY, 20000, seed=4, keep_log=True)
        result = pbr_p_value(res.log, block=10000)
        assert 0.0 < result.p_value < 1.0 + 1e-12
        assert result.n_trials == 20000

    def test_ratio_rebuild_after_slsqp_failure_case(self):
        labels = (-1, 1, "u")
        counts = np.array(SLSQP_FAILURE_COUNTS)
        log = [TRIAL_CELLS.index((x, y, labels[a], labels[b]))
               for (a, b, x, y), n in np.ndenumerate(counts) for _ in range(n)]
        assert len(log) == 10000
        result = pbr_p_value(log + [TRIAL_CELLS.index((0, 0, 1, 1))], block=10000)
        assert result.blocks == 2 and result.n_trials == 10001
        assert 0.0 < result.p_value <= 1.0

    @pytest.mark.parametrize("mode, block, blocks", [
        pytest.param("di-binary", 10000, 3, id="di-binary"),
        pytest.param("post-selection", 10000, 3, id="post-selection"),
        pytest.param("di-binary", 7000, 4, id="di-binary-block-7000"),
        # A binary first block, with u cells only after it.
        pytest.param("late-u", 10000, 3, id="late-u"),
    ])
    def test_block_sums_match_per_trial_loop(self, mode, block, blocks):
        def log_of(mode):
            det = DetectionModel(eta_a=0.99, eta_b=0.99, mode=mode)
            return simulate_trials(bell_diagonal([0.02, 0.02, 0.94, 0.02]),
                                   chsh_optimal_settings(), det, UNIFORM_XY, 25000,
                                   seed=8, keep_log=True).log
        if mode == "late-u":
            log = np.concatenate([log_of("di-binary")[:10000],
                                  log_of("post-selection")[10000:]])
        else:
            log = log_of(mode)
        records = [TRIAL_CELLS[c] for c in log]
        k = 3 if any("u" in r for r in records) else 2
        index = {-1: 0, 1: 1, "u": 2}
        counts, ratio, log10_sum = np.zeros((k, k, 2, 2)), np.ones((k, k, 2, 2)), 0.0
        for pos in range(0, len(log), block):
            if pos:
                freq = behavior_from_counts(counts + 0.5)
                ratio = _ratio_table(freq)[0]
            for x, y, a, b in records[pos:pos + block]:
                counts[index[a], index[b], x, y] += 1
                log10_sum += np.log10(max(ratio[index[a], index[b], x, y], 1e-300))
        result = pbr_p_value(log, block=block)
        assert result.blocks == blocks and log10_sum > 1.0
        assert result.log10_p == pytest.approx(-log10_sum, rel=1e-12)
        p_ns = project_no_signaling(freq)
        gap = certified_gap(p_ns, closest_lhv(p_ns)[0].weights)
        assert result.final_gap_bits == pytest.approx(gap, abs=1e-12)
        assert 0.0 < result.final_gap_bits < _GAP_TOL_BITS

    @pytest.mark.parametrize("bad", [[15, 3, -1], [15, 3, 36],
                                     np.array([15.0, 3.0]),
                                     [(0, 0, 1, 1), (1, 1, -1, 1), (0, 0, 0, 1)]])
    def test_out_of_alphabet_record_rejected(self, bad):
        with pytest.raises(ValueError):
            pbr_p_value(bad)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            pbr_p_value([])

    def test_result_json_fields(self):
        import json
        result = pbr_p_value(quantum_log(5000, seed=5).log, block=2500)
        payload = json.loads(result.to_json())
        assert set(payload) == {"n_trials", "log10_p", "blocks", "final_kl_ns",
                                "final_kl_lhv", "final_gap_bits"}


class TestBehaviorType:
    def test_s_alpha_from_counts_and_behavior_agree(self):
        counts = np.random.default_rng(9).integers(1, 100, size=(2, 2, 2, 2))
        e = (counts[0, 0] - counts[0, 1] - counts[1, 0] + counts[1, 1]) \
            / counts.sum(axis=(0, 1))
        want = 1.3 * e[0, 0] + 1.3 * e[0, 1] + e[1, 0] - e[1, 1]
        table = CountTable(counts)
        assert s_alpha_from_counts(table, 1.3) == pytest.approx(want, abs=1e-12)
        assert behavior_from_counts(table).s_value(1.3) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, INT64_MAX // 16), min_size=16, max_size=16),
           st.floats(1.0, 3.0))
    @example([INT64_MAX // 16] * 16, 1.3)
    @example([INT64_MAX - 15] + [1] * 15, 1.0)
    @example([5, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0], 1.0)
    def test_count_kernel_matches_per_pair_integer_formula(self, cells, alpha):
        # Totals reach the int64 maximum that read_count_csv accepts; the
        # second @example puts 2^63 - 16 of them in one cell.
        table = CountTable(np.array(cells, dtype=np.int64).reshape(2, 2, 2, 2))
        empty = [(x, y) for x in (0, 1) for y in (0, 1)
                 if table.counts[:, :, x, y].sum() == 0]
        if empty:
            for kernel in (correlators_from_counts, s_alpha_from_counts,
                           behavior_from_counts):
                with pytest.raises(EmptySettingError, match=r"\(x=%d, y=%d\)" % empty[0]):
                    kernel(table)
            return
        e = np.empty((2, 2))
        for x in (0, 1):
            for y in (0, 1):
                n = table.counts[:, :, x, y]
                e[x, y] = (n[0, 0] - n[0, 1] - n[1, 0] + n[1, 1]) / n.sum()
        assert correlators_from_counts(table).tolist() == e.tolist()
        assert correlators_from_counts(table.counts).tolist() == e.tolist()
        want = alpha * e[0, 0] + alpha * e[0, 1] + e[1, 0] - e[1, 1]
        assert s_alpha_from_counts(table, alpha) == want
        beh = behavior_from_counts(table)
        assert beh.s_value(alpha) == pytest.approx(want, abs=1e-12)
        same = behavior_from_counts(table.counts)
        assert np.array_equal(beh.p, same.p) and np.array_equal(beh.p_xy, same.p_xy)

    def test_outcomes_read_from_the_shape(self):
        counts = np.arange(1, 37).reshape(3, 3, 2, 2)
        assert behavior_from_counts(counts).outcomes == (-1, 1, "u")
        assert behavior_from_counts(counts[:2, :2]).outcomes == (-1, 1)
        assert LhvModel(weights=np.full(81, 1 / 81)).outcomes == (-1, 1, "u")
        assert LhvModel(weights=np.full(16, 1 / 16)).outcomes == (-1, 1)
        model, _ = closest_lhv(behavior_from_counts(counts))
        assert model.behavior().outcomes == (-1, 1, "u")
        with pytest.raises(ValueError):
            behavior_from_counts(counts).s_value()

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            BehaviorDistribution(p=np.full((2, 2, 2, 2), 0.3), p_xy=UNIFORM_XY)

    def test_rejects_bad_setting_weights(self):
        with pytest.raises(ValueError):
            BehaviorDistribution(p=np.full((2, 2, 2, 2), 0.25),
                                 p_xy=np.full((2, 2), 0.3))

    def test_s_value_of_simulated_phi_plus(self):
        rho = bell_diagonal([0, 0, 1, 0])
        res = simulate_trials(rho, chsh_optimal_settings(), DetectionModel(),
                              UNIFORM_XY, 10 ** 5, seed=6)
        beh = behavior_from_counts(res.table)
        assert beh.s_value() == pytest.approx(2 * np.sqrt(2), abs=0.05)
