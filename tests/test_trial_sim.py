import hashlib
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from bellkit.bell import MeasurementSetting, chsh_optimal_settings, s_alpha_from_counts
from bellkit import trial_log
from bellkit.pbr import behavior_from_counts
from bellkit.qstate import bell_diagonal
from bellkit.trial_sim import (TRIAL_CELLS, DetectionModel, SpacetimeConfig,
                               joint_law,
                               largest_remainder, parse_trial_log,
                               pulse_schedule, simulate_trials,
                               spacetime_check, trial_log_to_text)

UNIFORM_XY = np.full((2, 2), 0.25)
SKEWED_XY = np.array([[0.4, 0.1], [0.3, 0.2]])
SIGNS = np.array([-1.0, 1.0])
RECORDS = st.integers(0, 35)


def logs(**size):
    """Trial logs: int8 columns of TRIAL_CELLS indices."""
    return st.lists(RECORDS, **size).map(lambda v: np.array(v, dtype=np.int8))


#: Log text of each cell, and the per-line reference codec that the numpy
#: codec of bellkit.trial_log replaced; its order error also names the line.
CELL_TEXT = [",".join(map(str, cell)) for cell in TRIAL_CELLS]
TEXT_CELL = {text: cell for cell, text in enumerate(CELL_TEXT)}


def reference_text(log) -> str:
    return "".join([f"{i},{CELL_TEXT[c]}\n" for i, c in enumerate(np.asarray(log).tolist())])


def reference_parse(text: str) -> np.ndarray:
    cells = []
    last = -1
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("trial_index"):
            continue
        idx_s, _, record = line.partition(",")
        cell = TEXT_CELL.get(record)
        if cell is None or not (idx_s.isascii() and idx_s.isdigit()):
            raise ValueError(f"trial log line {lineno} is not 'index,x,y,a,b': {line!r}")
        idx = int(idx_s)
        if idx <= last:
            raise ValueError(f"trial log line {lineno} out of temporal order at index {idx}")
        last = idx
        cells.append(cell)
    return np.array(cells, dtype=np.int8)


def parse_outcome(parse, text):
    """(cells, None) if parse accepts text, else (None, the line its error names)."""
    try:
        return parse(text).tolist(), None
    except ValueError as exc:
        return None, int(re.search(r"line (\d+)", str(exc)).group(1))


#: Characters of a corrupted token: printable ASCII, and other characters that
#: neither str.strip nor str.splitlines treats as white space.
TOKEN_CHARS = st.one_of(st.characters(min_codepoint=0x20, max_codepoint=0x7e),
                        st.characters(min_codepoint=0x80).filter(lambda c: not c.isspace()))


@st.composite
def log_texts(draw):
    """Log text with blank, header and padded lines, '\\n' or '\\r\\n' line
    ends, and at most one corrupted token."""
    lines = reference_text(draw(logs(max_size=30))).splitlines()
    if lines and draw(st.booleans()):
        row = draw(st.integers(0, len(lines) - 1))
        fields = lines[row].split(",")
        fields[draw(st.integers(0, 4))] = draw(st.one_of(
            st.text(TOKEN_CHARS, max_size=4), st.integers(0, 40).map(str)))
        lines[row] = ",".join(fields)
    pad = st.text(" \t", max_size=2)
    extra = st.sampled_from(["", " ", "\t ", "trial_index,x,y,a,b", " trial_index"])
    out = []
    for line in lines:
        out += draw(st.lists(extra, max_size=2))
        out.append(draw(pad) + line + draw(pad))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(out) + draw(st.sampled_from(["", newline]))


def partly_entangled(angle=0.4, visibility=0.9):
    """cos|00> + sin|11> with white noise: its local marginals are not zero."""
    psi = np.array([np.cos(angle), 0, 0, np.sin(angle)])
    return visibility * np.outer(psi, psi) + (1 - visibility) * np.eye(4) / 4


#: (state, settings in degrees, detection) configurations of the law tests.
LAW_CASES = [
    (partly_entangled(), (0, 90, 45, -45),
     DetectionModel(eta_a=0.9, eta_b=0.8, mode="di-binary", dark_prob=0.01)),
    (partly_entangled(0.3, 0.95), (10, 80, 30, -60),
     DetectionModel(eta_a=0.75, eta_b=0.95, mode="post-selection", dark_prob=0.05)),
    (bell_diagonal([0.25, 0.25, 0.25, 0.25]), (0, 45, 20, 70),
     DetectionModel(eta_a=0.6, eta_b=0.6, mode="post-selection")),
    (bell_diagonal([0.05, 0.05, 0.85, 0.05]), (5, 95, 40, -50), DetectionModel()),
]


def case_args(case):
    rho, degrees, det = case
    return rho, tuple(MeasurementSetting.from_degrees(d) for d in degrees), det


def law_of(case):
    return joint_law(*case_args(case), SKEWED_XY)


def recorded_moments(case):
    """<a>, <b> and <ab> per setting of the recorded outcomes, by trace.

    A side records E[r | a] = eta a - (1 - eta)(1 - d) under binning (dark
    clicks average to zero), and E[r | a, click] = eta a / (eta + (1 - eta) d)
    after post-selection, independently of the other side.
    """
    rho, degrees, det = case
    pauli_z, pauli_x, eye = np.diag([1.0, -1.0]), np.array([[0, 1], [1, 0]]), np.eye(2)
    obs = [np.cos(np.deg2rad(d)) * pauli_z + np.sin(np.deg2rad(d)) * pauli_x
           for d in degrees]
    ma = np.array([np.trace(rho @ np.kron(o, eye)).real for o in obs[:2]])[:, None]
    mb = np.array([np.trace(rho @ np.kron(eye, o)).real for o in obs[2:]])[None, :]
    e = np.array([[np.trace(rho @ np.kron(a, b)).real for b in obs[2:]]
                  for a in obs[:2]])
    if det.mode == "di-binary":
        ga, gb = det.eta_a, det.eta_b
        fa, fb = ((1 - eta) * (1 - det.dark_prob) for eta in (ga, gb))
    else:
        ga, gb = (eta / (eta + (1 - eta) * det.dark_prob)
                  for eta in (det.eta_a, det.eta_b))
        fa = fb = 0.0
    e_rec = ga * gb * e - ga * fb * ma - fa * gb * mb + fa * fb
    return (np.broadcast_to(ga * ma - fa, (2, 2)), np.broadcast_to(gb * mb - fb, (2, 2)),
            e_rec)


def chsh(e) -> float:
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


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


class TestJointLaw:
    @pytest.mark.parametrize("case", LAW_CASES)
    def test_normalized_per_setting(self, case):
        law = law_of(case)
        assert law.shape == (3, 3, 2, 2) and law.min() >= 0.0
        assert abs(law.sum() - 1.0) < 1e-12
        assert np.allclose(law.sum(axis=(0, 1)) / SKEWED_XY, 1.0, atol=1e-12)

    @pytest.mark.parametrize("case", LAW_CASES[1:3])
    def test_postselection_discard_mass(self, case):
        law, det = law_of(case), case[2]
        discard = law.sum() - law[:2, :2].sum()
        click_a = det.eta_a + (1 - det.eta_a) * det.dark_prob
        click_b = det.eta_b + (1 - det.eta_b) * det.dark_prob
        assert discard == pytest.approx(1.0 - click_a * click_b, abs=1e-14)

    @pytest.mark.parametrize("case", LAW_CASES)
    def test_moments_and_chsh_match_closed_form(self, case):
        law = law_of(case)[:2, :2]
        cond = law / law.sum(axis=(0, 1))
        ref_a, ref_b, ref_e = recorded_moments(case)
        e = np.einsum("a,b,abxy->xy", SIGNS, SIGNS, cond)
        assert np.allclose(np.einsum("a,abxy->xy", SIGNS, cond), ref_a, atol=1e-12)
        assert np.allclose(np.einsum("b,abxy->xy", SIGNS, cond), ref_b, atol=1e-12)
        assert np.allclose(e, ref_e, atol=1e-12)
        assert chsh(e) == pytest.approx(chsh(ref_e), abs=1e-12)

    def test_binning_without_u(self):
        law = law_of(LAW_CASES[0])
        assert law[2].sum() == law[:, 2].sum() == 0.0

    def test_zero_efficiency_binary_is_minus_one(self):
        case = (partly_entangled(), (0, 90, 45, -45),
                DetectionModel(eta_a=0.0, eta_b=0.0))
        law = law_of(case)
        assert np.allclose(law[0, 0], SKEWED_XY, atol=1e-15)
        assert law[0, 0].sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("case", LAW_CASES[:2])
    def test_samples_fit_the_law(self, case):
        n = 10 ** 6
        res = simulate_trials(*case_args(case), SKEWED_XY, n, seed=11, shards=3)
        law = law_of(case)
        observed = np.append(res.table.counts.ravel(), res.discarded)
        expected = n * np.append(law[:2, :2].ravel(), law.sum() - law[:2, :2].sum())
        keep = expected > 0
        stat = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
        assert chi2.sf(stat, keep.sum() - 1) > 1e-3
        assert np.all(observed[~keep] == 0)


class TestSampling:
    @pytest.mark.parametrize("case", LAW_CASES[:2])
    def test_counts_do_not_depend_on_log(self, case):
        args = (*case_args(case), SKEWED_XY, 30011)
        plain = simulate_trials(*args, seed=12, shards=4)
        logged = simulate_trials(*args, seed=12, shards=4, keep_log=True)
        assert plain.log is None and len(logged.log) == 30011
        assert np.array_equal(plain.table.counts, logged.table.counts)
        assert plain.discarded == logged.discarded
        rebuilt = np.zeros((2, 2, 2, 2), dtype=np.int64)
        no_clicks = 0
        for x, y, a, b in (TRIAL_CELLS[c] for c in logged.log):
            if "u" in (a, b):
                no_clicks += 1
            else:
                rebuilt[(a + 1) // 2, (b + 1) // 2, x, y] += 1
        assert np.array_equal(rebuilt, logged.table.counts)
        assert no_clicks == logged.discarded

    def test_log_order_is_shuffled(self):
        log = simulate_trials(*case_args(LAW_CASES[1]), SKEWED_XY, 40000, seed=14,
                              keep_log=True).log
        halves = np.array([np.bincount(part, minlength=36)
                           for part in (log[:20000], log[20000:])])
        cells = np.flatnonzero(halves.sum(axis=0))
        halves = halves[:, cells]
        expected = np.outer(halves.sum(axis=1), halves.sum(axis=0)) / halves.sum()
        stat = np.sum((halves - expected) ** 2 / expected)
        assert chi2.sf(stat, len(cells) - 1) > 1e-3

    def test_count_only_memory_does_not_grow(self):
        rho = bell_diagonal([0.05, 0.05, 0.85, 0.05])
        det = DetectionModel(eta_a=0.8, eta_b=0.8, mode="post-selection",
                             dark_prob=0.01)
        args = (rho, chsh_optimal_settings(), det, UNIFORM_XY)
        simulate_trials(*args, 10, seed=13, shards=8)  # lazy imports of a first call
        tracemalloc.start()
        try:
            res = simulate_trials(*args, 10 ** 7, seed=13, shards=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.table.total + res.discarded == 10 ** 7
        assert peak < 2 ** 20


class TestTrialLog:
    def test_round_trip(self):
        rho = bell_diagonal([0, 0, 1, 0])
        det = DetectionModel(eta_a=0.9, eta_b=0.9, mode="post-selection")
        res = simulate_trials(rho, chsh_optimal_settings(), det,
                              UNIFORM_XY, 2000, seed=6, keep_log=True)
        assert len(res.log) == 2000 and res.log.dtype == np.int8
        text = trial_log_to_text(res.log)
        parsed = parse_trial_log(text)
        assert parsed.dtype == np.int8 and np.array_equal(parsed, res.log)

    def test_text_of_a_fixed_run_is_frozen(self):
        # SHA-256 of the log text of this run when records were tuples: the
        # file format and the random stream are unchanged.
        res = simulate_trials(*case_args(LAW_CASES[1]), SKEWED_XY, 5000, seed=21,
                              shards=3, keep_log=True)
        digest = hashlib.sha256(trial_log_to_text(res.log).encode()).hexdigest()
        assert digest == "ce2fb0a9cc7f8fe67159c8536bfc334d103a729668e3fd68698a4866c1bde81b"

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError):
            parse_trial_log("1,0,0,1,1\n0,0,0,1,1\n")

    @pytest.mark.parametrize("line", ["3,0,0,0,1", "3,2,0,1,1", "3,0,1,1,-2",
                                      "3,0,0,1", "3,x,0,1,1", "3,0,0,u,+"])
    def test_out_of_alphabet_rejected(self, line):
        text = f"0,1,1,1,-1\n1,0,0,u,1\n2,1,0,1,1\n{line}\n"
        with pytest.raises(ValueError, match="line 4"):
            parse_trial_log(text)

    @settings(max_examples=200, deadline=None)
    @given(logs(max_size=40))
    def test_text_round_trip_property(self, log):
        assert np.array_equal(parse_trial_log(trial_log_to_text(log)), log)

    @settings(max_examples=200, deadline=None)
    @given(logs(min_size=1, max_size=20), st.data())
    def test_random_bad_token_names_its_line(self, log, data):
        lines = trial_log_to_text(log).splitlines()
        row = data.draw(st.integers(0, len(lines) - 1))
        column = data.draw(st.integers(0, 4))
        if column == 0:  # any index that is not ASCII digits
            token = data.draw(st.one_of(
                st.sampled_from(["", "+1", "-1", "1_0", "\u0663", "1.0", "0x1"]),
                st.text(alphabet="-+0129u.x_\u0663", max_size=3))
                .filter(lambda t: not (t.isascii() and t.isdigit())))
        else:
            allowed = {"0", "1"} if column <= 2 else {"-1", "1", "u"}
            token = data.draw(st.one_of(
                st.sampled_from(["", "+1", "-0", "01", "2", "U"]),
                st.text(alphabet="-+0129u.x", max_size=3))
                .filter(lambda t: t not in allowed))
        fields = lines[row].split(",")
        fields[column] = token
        lines[row] = ",".join(fields)
        with pytest.raises(ValueError, match=f"line {row + 1} is not"):
            parse_trial_log("\n".join(lines) + "\n")

    @settings(max_examples=300, deadline=None)
    @given(log_texts(), st.sampled_from([None, 8, 40]))
    def test_parser_matches_reference(self, text, chunk_bytes):
        # chunk_bytes: parse in chunks of that many bytes (None: the default)
        expected = parse_outcome(reference_parse, text)
        with mock.patch.object(trial_log, "_CHUNK_BYTES",
                               chunk_bytes or trial_log._CHUNK_BYTES):
            assert parse_outcome(parse_trial_log, text) == expected
            assert parse_outcome(parse_trial_log,
                                 text.encode("utf-8", "surrogatepass")) == expected

    @settings(max_examples=200, deadline=None)
    @given(logs(max_size=130), st.sampled_from([None, 1, 7, 100]))
    def test_writer_matches_reference(self, log, chunk):
        with mock.patch.object(trial_log, "_CHUNK", chunk or trial_log._CHUNK):
            assert trial_log_to_text(log) == reference_text(log)

    def test_round_trip_across_chunks(self):
        log = np.random.default_rng(15).integers(0, 36, 2 ** 20 + 3).astype(np.int8)
        text = trial_log_to_text(log)
        assert text == reference_text(log)
        data = text.encode()
        assert len(data) > 3 * trial_log._CHUNK_BYTES and len(log) > 3 * trial_log._CHUNK
        assert np.array_equal(parse_trial_log(data), log)
        # A bad line and an out-of-order line past the first chunks name their lines.
        at = data.index(b"\n1000000,") + 1
        with pytest.raises(ValueError, match="line 1000001 is not"):
            parse_trial_log(data[:at] + b"x" + data[at:])
        with pytest.raises(ValueError, match="line 1000002 is out of temporal order"):
            parse_trial_log(data[:at] + b"99999999,0,0,1,1\n" + data[at:])

    @pytest.mark.parametrize("index", ["9223372036854775807",
                                       "0000000000000000000000000000000000001"])
    def test_index_in_int64_accepted(self, index):
        assert parse_trial_log(f"0,0,0,1,1\n{index},1,1,u,-1\n").tolist() == [
            TRIAL_CELLS.index((0, 0, 1, 1)), TRIAL_CELLS.index((1, 1, "u", -1))]

    @pytest.mark.parametrize("index", ["9223372036854775808", "18446744073709551616",
                                       "00000000000000000000009223372036854775808",
                                       "99999999999999999999999999999999999999"])
    def test_index_above_int64_names_its_line(self, index):
        with pytest.raises(ValueError, match="line 3 has an index above the int64 max"):
            parse_trial_log(f"0,0,0,1,1\n\n{index},1,1,u,-1\n")

    @pytest.mark.parametrize("text", [b"0,0,0,1,1\n1,0,0,1,\xff\n",
                                      "0,0,0,1,1\n1,0,0,1,1\u00a0\n",
                                      "0,0,0,1,1\n\u0661,0,0,1,1\n",
                                      b"0,0,0,1,1\n1,0,0\r,1,1\n",
                                      "0,0,0,1,1\n1x000000000000000000001,0,0,1,1\n"])
    def test_bad_byte_names_its_line(self, text):
        with pytest.raises(ValueError, match="line 2 is not"):
            parse_trial_log(text)

    @pytest.mark.parametrize("index", [3, 5])
    def test_order_is_checked_across_chunks(self, index):
        text = f"0,0,0,1,1\n5,0,0,1,1\n{index},0,0,1,1\n"
        with mock.patch.object(trial_log, "_CHUNK_BYTES", 1):
            with pytest.raises(ValueError, match="line 3 is out of temporal order"):
                parse_trial_log(text)

    def test_padding_blank_header_and_crlf_skipped(self):
        text = "trial_index,x,y,a,b\r\n \t\r\n\t3,1,0,-1,u \r\n\r\n 7,0,1,1,1"
        assert parse_trial_log(text).tolist() == [TRIAL_CELLS.index((1, 0, -1, "u")),
                                                  TRIAL_CELLS.index((0, 1, 1, 1))]

    def test_writer_rejects_out_of_alphabet_record(self):
        for log in ([0, 36], [-1], np.zeros((2, 4), dtype=np.int8)):
            with pytest.raises(ValueError, match="1-D integer array of TRIAL_CELLS"):
                trial_log_to_text(log)

    def test_log_matches_counts(self):
        rho = bell_diagonal([0.5, 0.5, 0, 0])
        res = simulate_trials(rho, chsh_optimal_settings(), DetectionModel(),
                              UNIFORM_XY, 5000, seed=7, keep_log=True)
        rebuilt = np.zeros((2, 2, 2, 2), dtype=np.int64)
        for x, y, a, b in (TRIAL_CELLS[c] for c in res.log):
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
