"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line directly to the terminal (bypassing capture) so the run log shows
the verdict for every criterion.
"""

import warnings

import numpy as np
import pytest

from bellkit.bell import (MeasurementSetting, chsh_optimal_settings,
                          s_alpha_from_counts)
from bellkit.di_bounds import (eof_lower_bound, incompatibility_lower_bound,
                               multi_alpha_incompatibility_bound,
                               negativity_lower_bound)
from bellkit.interplay import max_s_fixed_concurrence
from bellkit.pbr import (behavior_from_counts, closest_lhv, pbr_p_value,
                         project_no_signaling)
from bellkit.qstate import (bell_diagonal, concurrence, eof, negativity,
                            one_way_distillable, validate_density_matrix)
from bellkit.tomo import mle_fit, rho_from_t, simulate_counts
from bellkit.trial_sim import (TRIAL_CELLS, DetectionModel, SpacetimeConfig,
                               largest_remainder,
                               pulse_schedule, simulate_trials,
                               spacetime_check)
from bellkit.qstate import fidelity

UNIFORM_XY = np.full((2, 2), 0.25)

# Observed S values and certified-resource rows, eight settings.
#
# The S column is read as a 4-decimal truncation of the Bell values the
# other columns were computed from, so each printed S stands for the
# interval [S, S + 1e-4]. The paper's own table and its rounding rule
# are not in this repository (PAPER.md holds only the abstract); the
# reading is inferred from the numbers. Inverting each TABLE_INCOMPAT
# entry through 1 - (1/2 + (S/8) sqrt(8 - S^2)), to +/-5e-10, gives
#
#     2.000544, 2.001777, 2.003382, 2.004929,
#     2.006504, 2.008979, 2.009823, 2.013205.
#
# Every one lies in [S, S + 1e-4) of its printed S. Three of them
# (rows 2.0017, 2.0033 and 2.0089) lie outside the round-half interval
# [S - 5e-5, S + 5e-5], so rounding to nearest cannot have produced the
# column. Near S = 2 the incompatibility bound grows like (S - 2)^2 / 4,
# so a shift of 1e-4 in S moves it by up to 6.6e-7, far beyond its 1e-8
# tolerance: the printed S alone cannot reproduce that column.
S_TRUNCATION = 1e-4
TABLE_S = [2.0005, 2.0017, 2.0033, 2.0049, 2.0065, 2.0089, 2.0098, 2.0132]
TABLE_EOF = [0.0006, 0.0021, 0.0041, 0.0059, 0.0078, 0.0108, 0.0118, 0.0159]
TABLE_NEG = [0.0003, 0.0011, 0.0020, 0.0030, 0.0039, 0.0054, 0.0059, 0.0080]
TABLE_INCOMPAT = [0.0074e-5, 0.0790e-5, 0.2864e-5, 0.6089e-5,
                  1.0610e-5, 2.0247e-5, 2.4242e-5, 4.3883e-5]

# Bell-diagonal weights of the seven prepared states (printed to three
# decimals; normalized before use).
PREPARED_STATES = [
    [0.700, 0.300, 0.000, 0.000],
    [0.788, 0.203, 0.006, 0.002],
    [0.832, 0.132, 0.031, 0.005],
    [0.847, 0.079, 0.068, 0.006],
    [0.797, 0.163, 0.033, 0.007],
    [0.765, 0.215, 0.016, 0.004],
    [0.712, 0.284, 0.003, 0.001],
]


def normalized(w):
    w = np.asarray(w, dtype=float)
    return w / w.sum()


def verdict(capsys, number, label, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f" [{'; '.join(failures)}]"
    with capsys.disabled():
        print(f"[ACCEPTANCE {number:02d}] {status}: {label}{detail}")
    if failures:
        pytest.fail(f"criterion {number}: " + "; ".join(failures))


def table_cell_failures(columns):
    """Compare reference columns with bounds over each S interval.

    `columns` holds (name, bound, references, tolerance). A cell passes
    when its reference lies within the tolerance of the bound's range
    over [S, S + S_TRUNCATION]; the bound must be nondecreasing there,
    which is asserted, not assumed.
    """
    failures = []
    for row, s in enumerate(TABLE_S):
        s_hi = s + S_TRUNCATION
        for name, bound, refs, tol in columns:
            lo, hi, ref = bound(s), bound(s_hi), refs[row]
            where = (f"{name}(S in [{s}, {s_hi:.4f}]): "
                     f"range [{lo:.4e}, {hi:.4e}]")
            if lo > hi:
                failures.append(f"{where} decreases over the interval")
            elif not lo - tol <= ref <= hi + tol:
                failures.append(f"{where}, ref {ref:.4e} outside by more "
                                f"than tol {tol:.0e}")
    return failures


def test_criterion_01_certified_resource_table(capsys):
    failures = table_cell_failures([
        ("eof", eof_lower_bound, TABLE_EOF, 1e-4),
        ("neg", negativity_lower_bound, TABLE_NEG, 1e-4),
        ("incompat", incompatibility_lower_bound, TABLE_INCOMPAT, 1e-8),
    ])
    verdict(capsys, 1, "certified-resource table at stated tolerances",
            failures)


@pytest.mark.parametrize("scale", [0.99, 1.01])
def test_criterion_01_rejects_scaled_incompatibility(scale):
    """Negative control: the interval reading still catches a 1% scale
    error in the incompatibility bound."""
    def scaled(s):
        return scale * incompatibility_lower_bound(s)

    failures = table_cell_failures(
        [("incompat", scaled, TABLE_INCOMPAT, 1e-8)])
    assert failures, f"no row rejects incompat scaled by {scale}"


def test_criterion_02_asymmetric_incompatibility_bound(capsys):
    failures = []
    val = multi_alpha_incompatibility_bound(2.0098, alpha=1.04)
    if not 1.0e-4 <= val <= 1.25e-4:
        failures.append(f"bound(2.0098, 1.04) = {val:.4e} outside "
                        f"[1.0e-4, 1.25e-4]")
    for s in np.linspace(2.001, 2.4, 8):
        num = multi_alpha_incompatibility_bound(float(s), alpha=1.0)
        ref = incompatibility_lower_bound(float(s))
        if abs(num - ref) > 1e-4:
            failures.append(f"alpha=1 at S={s:.3f}: |{num:.3e} - {ref:.3e}| "
                            f"> 1e-4")
    verdict(capsys, 2, "asymmetric-weight incompatibility bound", failures)


def test_criterion_03_prepared_state_entanglement(capsys):
    failures = []
    c0 = concurrence(bell_diagonal(normalized(PREPARED_STATES[0])))
    if abs(c0 - 0.4) > 1e-9:
        failures.append(f"concurrence(state 0) = {c0} != 0.4")
    for idx, target in [(1, 0.2), (2, 0.2), (3, 0.2),
                        (4, 0.1), (5, 0.1), (6, 0.1)]:
        ode = one_way_distillable(normalized(PREPARED_STATES[idx]))
        if abs(ode - target) > 1e-3:
            failures.append(f"ODE(state {idx}) = {ode:.5f} vs {target} "
                            f"+/- 1e-3")
    verdict(capsys, 3, "prepared-state entanglement levels", failures)


def test_criterion_04_interplay_non_monotonicity(capsys):
    failures = []
    grid = np.linspace(0.0, np.pi / 4, 315)  # step ~0.0025 rad

    s15 = np.array([max_s_fixed_concurrence(0.4, t, 1.5).s_alpha
                    for t in grid])
    peak = int(np.argmax(s15))
    if not 0 < peak < len(grid) - 1:
        failures.append("alpha=1.5 argmax is at a grid endpoint")
    if not s15[peak] - s15[-1] >= 0.01:
        failures.append(f"alpha=1.5 peak advantage {s15[peak] - s15[-1]:.4f} "
                        f"< 0.01 over theta=pi/4")

    s10 = np.array([max_s_fixed_concurrence(0.4, t, 1.0).s_alpha
                    for t in grid])
    peak1 = int(np.argmax(s10))
    theta_star = grid[peak1]
    if abs(theta_star - np.arctan(0.4)) > 0.02:
        failures.append(f"alpha=1 theta* = {theta_star:.4f} vs "
                        f"arctan(0.4) = {np.arctan(0.4):.4f} +/- 0.02")
    if abs(s10[peak1] - 2 * np.sqrt(1.16)) > 1e-3:
        failures.append(f"alpha=1 S(theta*) = {s10[peak1]:.5f} vs "
                        f"{2 * np.sqrt(1.16):.5f} +/- 1e-3")
    verdict(capsys, 4, "interplay trajectory non-monotonicity", failures)


def test_criterion_05_simulator_born_fidelity(capsys):
    failures = []
    rho = bell_diagonal([0, 0, 1, 0])
    n = 10 ** 7

    res = simulate_trials(rho, chsh_optimal_settings(), DetectionModel(),
                          UNIFORM_XY, n, seed=101, shards=8)
    s = s_alpha_from_counts(res.table)
    # stderr of S from per-setting correlator variances
    var = sum((1 - (res.table.counts[1, 1, x, y]
                    + res.table.counts[0, 0, x, y]
                    - res.table.counts[0, 1, x, y]
                    - res.table.counts[1, 0, x, y])
               ** 2 / res.table.setting_total(x, y) ** 2)
              / res.table.setting_total(x, y)
              for x in (0, 1) for y in (0, 1))
    se = np.sqrt(var)
    if abs(s - 2 * np.sqrt(2)) > 5 * se:
        failures.append(f"eta=1: S = {s:.5f} deviates from 2 sqrt(2) by "
                        f"more than 5 stderr ({se:.2e})")

    det = DetectionModel(eta_a=0.6, eta_b=0.6)
    res = simulate_trials(rho, chsh_optimal_settings(), det,
                          UNIFORM_XY, n, seed=102, shards=8)
    s_low = s_alpha_from_counts(res.table)
    se_low = 4.0 / np.sqrt(n)
    if s_low > 2.0 + 5 * se_low:
        failures.append(f"eta=0.6: S = {s_low:.5f} exceeds the classical "
                        f"bound")
    verdict(capsys, 5, "Born-rule simulator and detection threshold",
            failures)


def test_criterion_06_pulse_scheduler_exactness(capsys):
    failures = []
    ps = pulse_schedule([0.25] * 4, 4)
    if ps.ch1.tolist() != [True, True, False, False] \
            or ps.ch2.tolist() != [False, True, True, False]:
        failures.append("uniform n=4 hand trace mismatch")
    rng = np.random.default_rng(42)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in range(1000):
            w = rng.dirichlet(np.ones(4))
            n = int(rng.integers(1, 1001))
            target = largest_remainder(w, n)
            got = pulse_schedule(w, n).state_counts
            if got.tolist() != target.tolist():
                failures.append(f"case {k}: counts {got.tolist()} != "
                                f"targets {target.tolist()}")
                break
    verdict(capsys, 6, "pulse scheduler state counts", failures)


def test_criterion_07_pbr_hypothesis_test(capsys):
    failures = []
    rng = np.random.default_rng(7)
    lhv_log = [TRIAL_CELLS.index((int(x), int(y), 1, -1))
               for x, y in rng.integers(0, 2, size=(30000, 2))]
    if pbr_p_value(lhv_log, block=10000).p_value != 1.0:
        failures.append("deterministic local data did not give p = 1")

    v = 2.5 / (2 * np.sqrt(2))
    w = np.full(4, (1 - v) / 4)
    w[2] += v
    rho = bell_diagonal(w)
    n = 10 ** 5
    res = simulate_trials(rho, chsh_optimal_settings(), DetectionModel(),
                          UNIFORM_XY, n, seed=77, keep_log=True)
    # the internal rebuild verifies the vertex normalization inequality
    # within 1e-9 and raises on violation, so completing is the check
    result = pbr_p_value(res.log, block=10 ** 4)
    rate = -result.log10_p / n

    beh = behavior_from_counts(res.table)
    p_ns = project_no_signaling(beh)
    _, kl = closest_lhv(p_ns)
    oracle_rate = kl * np.log10(2.0)
    if not 0.8 * oracle_rate <= rate <= 1.2 * oracle_rate:
        failures.append(f"-log10(p)/N = {rate:.5f} outside 20% of the "
                        f"divergence rate {oracle_rate:.5f}")
    verdict(capsys, 7, "prediction-based-ratio test", failures)


def test_criterion_08_tomography_recovery(capsys):
    failures = []
    rng = np.random.default_rng(88)
    for _ in range(10 ** 4):
        validate_density_matrix(rho_from_t(rng.normal(size=16)))

    for idx, weights in enumerate(PREPARED_STATES):
        rho = bell_diagonal(normalized(weights))
        fids = []
        for seed in range(20):
            counts = simulate_counts(rho, 10 ** 4, seed=1000 * idx + seed)
            rho_hat, _ = mle_fit(counts, restarts=0)
            fids.append(fidelity(rho_hat, rho))
        med = float(np.median(fids))
        if med < 0.995:
            failures.append(f"state {idx}: median fidelity {med:.4f} < 0.995")
    verdict(capsys, 8, "tomographic state recovery", failures)


def test_criterion_09_spacetime_audit(capsys):
    failures = []
    result = spacetime_check(SpacetimeConfig.reference_layout())
    if not result["pass"]:
        failures.append("experimental layout did not pass all inequalities")
    if abs(result["locality_1"] - 27.4) > 0.5:
        failures.append(f"locality margin 1 = {result['locality_1']:.2f} "
                        f"vs 27.4 +/- 0.5")
    if abs(result["locality_2"] - 39.1) > 0.5:
        failures.append(f"locality margin 2 = {result['locality_2']:.2f} "
                        f"vs 39.1 +/- 0.5")
    short = SpacetimeConfig.reference_layout()
    short.ab_m = 100.0
    if spacetime_check(short)["pass"]:
        failures.append("100 m station separation passed the audit")
    verdict(capsys, 9, "spacetime separation audit", failures)


def test_criterion_10_certificate_soundness(capsys):
    failures = []
    rng = np.random.default_rng(10)
    slack = 1e-9
    for k in range(1000):
        if k % 2 == 0:
            # generic Bell-diagonal state and planar settings
            weights = rng.dirichlet(np.ones(4))
            rho = bell_diagonal(weights)
            angles = rng.uniform(-np.pi, np.pi, size=4)
        else:
            # near-optimal realizations so S > 2 occurs often
            v = rng.uniform(0.75, 1.0)
            w = np.full(4, (1 - v) / 4)
            w[2] += v
            rho = bell_diagonal(w)
            angles = (np.array([0.0, np.pi / 2, np.pi / 4, -np.pi / 4])
                      + rng.normal(scale=0.1, size=4))
        settings = [MeasurementSetting(t) for t in angles]
        from bellkit.bell import correlators_expected
        e = correlators_expected(rho, *settings)
        s = float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])
        if abs(s) > 2 * np.sqrt(2):
            continue
        s = abs(s)

        true_eof = eof(rho)
        true_neg = negativity(rho)
        if eof_lower_bound(s) > true_eof + slack:
            failures.append(f"case {k}: EOF bound {eof_lower_bound(s):.4f} "
                            f"> true {true_eof:.4f}")
        if negativity_lower_bound(s) > true_neg + slack:
            failures.append(f"case {k}: negativity bound exceeds true value")
        bound_i = incompatibility_lower_bound(s)
        for (t0, t1) in ((angles[0], angles[1]), (angles[2], angles[3])):
            overlap = np.cos((t1 - t0) / 2.0) ** 2
            true_inc = min(overlap, 1 - overlap)
            if bound_i > true_inc + slack:
                failures.append(f"case {k}: incompatibility bound "
                                f"{bound_i:.4f} > true {true_inc:.4f}")
        if failures:
            break
    verdict(capsys, 10, "device-independent certificate soundness", failures)
