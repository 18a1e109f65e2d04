import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit.bell import CountTable
from bellkit.cli import (ConfigError, main, read_count_csv, read_tomo_csv,
                         write_count_csv)
from bellkit.qstate import bell_diagonal
from bellkit.tomo import BASIS_LABELS, simulate_counts


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SPACETIME_BLOCK = {
    "ab_m": 163, "sa_m": 90, "sb_m": 83, "lsa_m": 178, "lsb_m": 182,
    "t_e": 10, "t_qrng1": 96, "t_qrng2": 96, "t_delay1": 208,
    "t_delay2": 287, "t_pc1": 112, "t_pc2": 100, "t_m1": 25, "t_m2": 77,
}


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"weights": [1, 0, 0, 0],
                                                "bogus": 1})
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config")
        assert "bogus" in err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["quantify", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["quantify", "--config", str(path)])
        assert rc == 1

    def test_nested_unknown_key(self, tmp_path, capsys):
        block = dict(SPACETIME_BLOCK)
        block["warp_factor"] = 9
        cfg = write_config(tmp_path, "c.json", {"spacetime": block})
        rc = main(["spacetime", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1


class TestQuantify:
    def test_table_row(self, tmp_path):
        cfg = write_config(tmp_path, "q.json",
                           {"pairs": [[2.0132, 1.0], [2.0, 1.0]]})
        out = tmp_path / "out"
        assert main(["quantify", "--config", cfg, "--out", str(out)]) == 0
        reports = json.loads((out / "quantify.json").read_text())
        assert reports[0]["eof_lb"] == pytest.approx(0.0159338, abs=1e-6)
        assert reports[1]["eof_lb"] == 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["version"].startswith("bellkit-")

    def test_domain_error_keeps_running(self, tmp_path):
        cfg = write_config(tmp_path, "q.json",
                           {"pairs": [[3.5, 1.0], [2.1, 1.0]]})
        out = tmp_path / "out"
        assert main(["quantify", "--config", cfg, "--out", str(out)]) == 0
        reports = json.loads((out / "quantify.json").read_text())
        assert "error" in reports[0]
        assert reports[1]["eof_lb"] > 0

    def test_from_count_table(self, tmp_path):
        from bellkit.bell import chsh_optimal_settings, s_alpha_from_counts
        from bellkit.trial_sim import DetectionModel, simulate_trials
        res = simulate_trials(bell_diagonal([0, 0, 1, 0]),
                              chsh_optimal_settings(), DetectionModel(),
                              np.full((2, 2), 0.25), 10 ** 5, seed=1)
        csv_path = tmp_path / "counts.csv"
        write_count_csv(res.table, str(csv_path))
        cfg = write_config(tmp_path, "q.json", {"counts_csv": str(csv_path)})
        out = tmp_path / "out"
        assert main(["quantify", "--config", cfg, "--out", str(out)]) == 0
        reports = json.loads((out / "quantify.json").read_text())
        assert reports[0]["s"] == pytest.approx(
            s_alpha_from_counts(res.table), abs=1e-12)


#: Near-miss tokens for the out-of-alphabet properties.
TRICKY_TOKENS = ["", "+1", "-0", "01", "2", "-5", "1.0", "1e3", "u", "U", "0x1"]


def set_row(index, text):
    def edit(rows):
        rows[index] = text
    return edit


def swap_rows(i, j):
    def edit(rows):
        rows[i], rows[j] = rows[j], rows[i]
    return edit


class TestInputBoundaries:
    COUNT_ROWS = ["-1,-1,0,0,10", "1,1,0,1,7", "1,1,1,0,9", "-1,1,1,1,8"]

    def quantify_counts(self, tmp_path, rows):
        csv_path = tmp_path / "counts.csv"
        csv_path.write_text("a,b,x,y,count\n" + "\n".join(rows) + "\n")
        cfg = write_config(tmp_path, "q.json", {"counts_csv": str(csv_path)})
        return main(["quantify", "--config", cfg, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("bad", ["0,1,0,0,5", "1,-1,2,0,5", "1,1,0,-1,5",
                                     "1,1,0,0", "1,1,0,0,many", "1,1,0,0,-5",
                                     "1,1,0,0,2.0"])
    def test_count_csv_out_of_alphabet(self, tmp_path, capsys, bad):
        rc = self.quantify_counts(tmp_path, self.COUNT_ROWS + [bad])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config")
        assert "line 6" in err and bad in err

    def test_count_csv_valid_rows_accepted(self, tmp_path):
        assert self.quantify_counts(tmp_path, self.COUNT_ROWS) == 0

    @pytest.mark.parametrize("bad", ["2,0,0,0,1", "2,2,0,1,1", "2,0,1,-1,x"])
    def test_trial_log_out_of_alphabet(self, tmp_path, capsys, bad):
        log = tmp_path / "trials.log"
        log.write_text("0,0,0,1,1\n1,1,0,-1,u\n" + bad + "\n")
        cfg = write_config(tmp_path, "p.json", {"trial_log": str(log)})
        out = tmp_path / "o"
        rc = main(["pbr", "--config", cfg, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config")
        assert "line 3" in err and bad in err
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"

    def run_pbr(self, tmp_path, data: bytes):
        log = tmp_path / "trials.log"
        log.write_bytes(data)
        cfg = write_config(tmp_path, "p.json", {"trial_log": str(log)})
        return main(["pbr", "--config", cfg, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("data", [b"", b"\n \n", b"trial_index,x,y,a,b\r\n\t\r\n"],
                             ids=["empty", "blank", "header-only"])
    def test_trial_log_without_records_is_config_error(self, tmp_path, capsys, data):
        assert self.run_pbr(tmp_path, data) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config")
        assert "trials.log" in err and "no records" in err

    def test_trial_log_non_ascii_byte_names_its_line(self, tmp_path, capsys):
        assert self.run_pbr(tmp_path, b"0,0,0,1,1\r\n1,0,0,1,\xe9\r\n") == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config") and "line 2 is not" in err

    @pytest.mark.parametrize("subcommand,key", [
        ("pbr", "trial_log"), ("quantify", "counts_csv"), ("tomo", "counts_csv")])
    @pytest.mark.parametrize("kind", ["directory", "number"])
    def test_input_path_must_be_a_regular_file(self, tmp_path, capsys, subcommand, key,
                                               kind):
        path = str(tmp_path) if kind == "directory" else 5
        cfg = write_config(tmp_path, "c.json", {key: path})
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config")
        assert key in err and json.dumps(str(path))[1:-1] in err

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 40), min_size=16, max_size=16))
    def test_count_csv_round_trip_property(self, tmp_path_factory, counts):
        path = tmp_path_factory.mktemp("csv") / "counts.csv"
        table = CountTable(np.reshape(counts, (2, 2, 2, 2)))
        write_count_csv(table, str(path))
        assert np.array_equal(read_count_csv(str(path)).counts, table.counts)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 15), st.integers(0, 4), st.data())
    def test_count_csv_random_bad_token_names_its_line(self, tmp_path_factory,
                                                       row, column, data):
        path = tmp_path_factory.mktemp("csv") / "counts.csv"
        write_count_csv(CountTable(np.arange(16).reshape(2, 2, 2, 2)), str(path))
        lines = path.read_text().splitlines()
        allowed = ({"-1", "1"}, {"-1", "1"}, {"0", "1"}, {"0", "1"})
        token = data.draw(st.one_of(st.sampled_from(TRICKY_TOKENS),
                                    st.text(alphabet="-+0129u.x", max_size=3))
                          .filter(lambda t: not (t.isdigit() if column == 4
                                                 else t in allowed[column])))
        fields = lines[row + 1].split(",")
        fields[column] = token
        lines[row + 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f"line {row + 2} is not"):
            read_count_csv(str(path))

    def write_tomo_csv(self, tmp_path, edit=None):
        counts = simulate_counts(bell_diagonal([0.9, 0.1, 0, 0]), 10 ** 3, seed=2)
        rows = [f"{la},{lb},{int(n)}" for (la, lb), n in zip(
            ((la, lb) for la in BASIS_LABELS for lb in BASIS_LABELS), counts)]
        if edit is not None:
            edit(rows)
        csv_path = tmp_path / "tomo.csv"
        csv_path.write_text("basis_a,basis_b,count\n" + "\n".join(rows) + "\n")
        return csv_path

    def write_trial_log(self, tmp_path):
        path = tmp_path / "trials.log"
        path.write_text("0,0,0,1,1\n1,1,0,-1,-1\n")
        return path

    @pytest.mark.parametrize("edit, line", [
        (set_row(5, "X,Y,40"), 7),              # label outside H, V, +, -, R, L
        (swap_rows(3, 4), 5),                   # H,R before H,-
        (set_row(0, "H,H,-50"), 2),             # negative count
        (set_row(9, "V,-,12.5"), 11),           # non-integer count
        (set_row(35, "L,L,7,1"), 37),           # extra field
    ], ids=["label", "order", "negative", "non-integer", "extra-field"])
    def test_tomo_csv_bad_row(self, tmp_path, capsys, edit, line):
        csv_path = self.write_tomo_csv(tmp_path, edit)
        cfg = write_config(tmp_path, "t.json", {"counts_csv": str(csv_path)})
        out = tmp_path / "o"
        assert main(["tomo", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config")
        assert f"line {line} " in err
        assert not (out / "rho.json").exists()

    def test_tomo_csv_extra_row(self, tmp_path):
        csv_path = self.write_tomo_csv(tmp_path, lambda rows: rows.append("H,H,1"))
        with pytest.raises(ConfigError, match="line 38: more than 36 rows"):
            read_tomo_csv(str(csv_path))

    def test_manifest_records_default_seed(self, tmp_path):
        sim_cfg = write_config(tmp_path, "s.json", {
            "weights": [0, 0, 1, 0], "settings_deg": [0, 90, 45, -45],
            "trials": 1000,
        })
        assert main(["simulate", "--config", sim_cfg, "--out",
                     str(tmp_path / "sim")]) == 0
        seeded = tmp_path / "seeded"
        assert main(["simulate", "--config", sim_cfg, "--seed", "0", "--out",
                     str(seeded)]) == 0
        manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert (tmp_path / "sim" / "counts.csv").read_bytes() == \
            (seeded / "counts.csv").read_bytes()

    def test_tomo_manifest_records_default_seed(self, tmp_path):
        counts = simulate_counts(bell_diagonal([0.9, 0.1, 0, 0]), 10 ** 3, seed=2)
        csv_path = tmp_path / "tomo.csv"
        rows = [f"{la},{lb},{int(n)}" for (la, lb), n in zip(
            ((la, lb) for la in BASIS_LABELS for lb in BASIS_LABELS), counts)]
        csv_path.write_text("basis_a,basis_b,count\n" + "\n".join(rows) + "\n")
        cfg = write_config(tmp_path, "t.json", {"counts_csv": str(csv_path)})
        out = tmp_path / "o"
        assert main(["tomo", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 0

    @pytest.mark.parametrize("seed", ["x", 1.7, True])
    def test_non_integer_seed_rejected(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, "s.json", {
            "weights": [0, 0, 1, 0], "settings_deg": [0, 90, 45, -45],
            "trials": 1000, "seed": seed,
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("bellkit-error kind=config")

    def config_with(self, tmp_path, subcommand, key, value):
        if subcommand == "simulate":
            payload = {"weights": [0, 0, 1, 0], "settings_deg": [0, 90, 45, -45],
                       "trials": 1000, key: value}
        elif subcommand == "pbr":
            log = tmp_path / "trials.log"
            log.write_text("0,0,0,1,1\n1,1,0,-1,-1\n")
            payload = {"trial_log": str(log), key: value}
        else:
            payload = {"measure": "concurrence", "level": 0.4,
                       "theta_grid": {"num": value}}
        return write_config(tmp_path, "c.json", payload)

    @pytest.mark.parametrize("value", [1000.9, "10", True, 1.0])
    @pytest.mark.parametrize("subcommand,key", [
        ("simulate", "trials"), ("simulate", "shards"), ("pbr", "block"),
        ("interplay", "theta_grid.num")])
    def test_non_integer_config_number_rejected(self, tmp_path, capsys, subcommand,
                                                key, value):
        cfg = self.config_with(tmp_path, subcommand, key, value)
        out = tmp_path / "o"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config") and key in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["outputs"] == []

    @pytest.mark.parametrize("value", [1, 0, "true", 1.0])
    def test_non_boolean_trial_log_flag_rejected(self, tmp_path, capsys, value):
        cfg = self.config_with(tmp_path, "simulate", "trial_log", value)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config") and "trial_log" in err
        assert not (out / "counts.csv").exists()

    @pytest.mark.parametrize("rows,line", [
        (["-1,-1,0,0,100000000000000000000000"], 2),
        (["-1,-1,0,0,9223372036854775807", "-1,-1,0,0,9223372036854775807"], 3),
        (["-1,-1,0,0,9223372036854775807", "1,1,1,1,1"], 3)])
    def test_count_csv_overflow_names_its_line(self, tmp_path, capsys, rows, line):
        assert self.quantify_counts(tmp_path, rows) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config") and f"line {line}" in err

    def test_count_csv_int64_max_accepted(self, tmp_path):
        csv_path = tmp_path / "counts.csv"
        csv_path.write_text("a,b,x,y,count\n-1,-1,0,0,9223372036854775807\n")
        assert read_count_csv(str(csv_path)).total == 2 ** 63 - 1

    def test_count_csv_empty_setting_pair_is_config_error(self, tmp_path, capsys):
        assert self.quantify_counts(tmp_path, ["-1,-1,0,0,5", "1,1,0,1,3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config")
        assert "counts.csv" in err and "(x=1, y=0)" in err

    def real_config(self, tmp_path, subcommand, key=None, value=None):
        """A valid config of subcommand; with a key, its first number is value."""
        counts_csv = tmp_path / "counts.csv"
        counts_csv.write_text("a,b,x,y,count\n" + "\n".join(self.COUNT_ROWS) + "\n")
        payload = {
            "quantify": {"pairs": [[2.1, 1.0]], "alpha": 1.0,
                         "counts_csv": str(counts_csv)},
            "simulate": {"weights": [0, 0, 1, 0], "settings_deg": [0, 90, 45, -45],
                         "trials": 1000, "detection": {"eta_a": 0.9},
                         "setting_dist": [[0.25, 0.25], [0.25, 0.25]]},
            "interplay": {"measure": "concurrence", "level": 0.4, "alphas": [1.0],
                          "theta_grid": {"start": 0.0, "stop": 0.5, "num": 3}},
            "tomo": {"counts_csv": str(self.write_tomo_csv(tmp_path)),
                     "target_weights": [0.9, 0.1, 0, 0]},
            "pbr": {"trial_log": str(self.write_trial_log(tmp_path)), "block": 100},
        }[subcommand]
        if key is None:
            return write_config(tmp_path, "r.json", payload)
        def first_replaced(node):
            return [first_replaced(node[0]), *node[1:]] if isinstance(node, list) else value

        *path, last = key.split(".")
        node = payload
        for part in path:
            node = node[part]
        node[last] = first_replaced(node[last])
        return write_config(tmp_path, "r.json", payload)

    @pytest.mark.parametrize("value", [True, "2.5", float("nan"), float("inf")],
                             ids=["true", "string", "NaN", "Infinity"])
    @pytest.mark.parametrize("subcommand,key", [
        ("quantify", "pairs"), ("quantify", "alpha"), ("simulate", "weights"),
        ("simulate", "settings_deg"), ("simulate", "setting_dist"),
        ("simulate", "detection.eta_a"), ("interplay", "level"),
        ("interplay", "alphas"), ("interplay", "theta_grid.stop"),
        ("tomo", "target_weights")])
    def test_non_finite_config_number_rejected(self, tmp_path, capsys, subcommand,
                                               key, value):
        cfg = self.real_config(tmp_path, subcommand, key, value)
        out = tmp_path / "o"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config") and key in err
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"

    @pytest.mark.parametrize("subcommand", ["quantify", "simulate", "interplay"])
    def test_real_config_numbers_accepted(self, tmp_path, subcommand):
        cfg = self.real_config(tmp_path, subcommand)
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("subcommand,key,value", [
        ("simulate", "weights", [0.5, 0.5, 0.5, 0]),
        ("simulate", "weights", [1.5, -0.5, 0, 0]),
        ("simulate", "detection.eta_a", 1.5),
        ("simulate", "detection.eta_b", -0.1),
        ("simulate", "detection.dark_prob", 2.0),
        ("simulate", "detection.mode", "bogus"),
        ("simulate", "trials", 0),
        ("simulate", "shards", 0),
        ("simulate", "setting_dist", [[0.5, 0.5], [0.5, 0.5]]),
        ("simulate", "setting_dist", [[1.5, -0.5], [0.0, 0.0]]),
        ("interplay", "measure", "bogus"),
        ("interplay", "measure", ["ode"]),
        ("interplay", "theta_grid.start", 0.6),  # above the stop, 0.5
        ("interplay", "theta_grid.start", -0.1),
        ("interplay", "theta_grid.stop", 1.0),
        ("interplay", "level", 1.5),
        ("interplay", "theta_grid.num", -1),
        ("quantify", "alpha", 0.5),  # applied to counts_csv; each pair has its own
        ("tomo", "target_weights", [0.5, 0.5, 0.5, 0]),
        ("pbr", "block", 0)])
    def test_domain_fault_in_config_is_config_error(self, tmp_path, capsys, subcommand,
                                                    key, value):
        self.real_config(tmp_path, subcommand)
        payload = json.loads((tmp_path / "r.json").read_text())
        *path, last = key.split(".")
        node = payload
        for part in path:
            node = node.setdefault(part, {})
        node[last] = value
        cfg = write_config(tmp_path, "r.json", payload)
        out = tmp_path / "o"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config")
        assert all(part in err for part in key.split("."))
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"

    def test_pbr_block_checked_before_the_log_is_read(self, tmp_path, capsys):
        log = tmp_path / "trials.log"
        log.write_text("not a trial log\n")
        cfg = write_config(tmp_path, "p.json", {"trial_log": str(log), "block": 0})
        assert main(["pbr", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config")
        assert "block must be >= 1, got 0" in err

    @pytest.mark.parametrize("level", [-1.0, 1.5])
    def test_ode_level_outside_range_is_config_error(self, tmp_path, capsys, level):
        cfg = write_config(tmp_path, "i.json", {
            "measure": "ode", "level": level, "theta_grid": {"num": 3}})
        out = tmp_path / "o"
        assert main(["interplay", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config") and "level" in err
        assert json.loads((out / "manifest.json").read_text())["status"] == "failed"

    def test_internal_fault_stays_module_error(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise ValueError("an internal fault")
        monkeypatch.setattr("bellkit.cli.trajectory", broken)
        cfg = self.real_config(tmp_path, "interplay")
        assert main(["interplay", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("bellkit-error kind=module")

    @pytest.mark.parametrize("value", [[2.1], [[2.1]], {"s": 2.1}, "2.1"])
    def test_malformed_pairs_rejected(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, "q.json", {"pairs": value})
        assert main(["quantify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config") and "pairs" in err

    def test_unseeded_subcommands_record_null(self, tmp_path):
        cfg = write_config(tmp_path, "q.json", {"pairs": [[2.1, 1.0]]})
        out = tmp_path / "o"
        assert main(["quantify", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] is None


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "weights": [0, 0, 1, 0], "settings_deg": [0, 90, 45, -45],
            "trials": 20000, "seed": 5, "shards": 2,
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "counts.csv").read_bytes() == \
            (out2 / "counts.csv").read_bytes()

    def test_counts_same_with_and_without_trial_log(self, tmp_path):
        payload = {"weights": [0.05, 0.05, 0.85, 0.05], "settings_deg": [0, 90, 45, -45],
                   "detection": {"eta_a": 0.8, "eta_b": 0.9, "mode": "post-selection",
                                 "dark_prob": 0.01},
                   "trials": 20000, "seed": 5, "shards": 3}
        plain = write_config(tmp_path, "plain.json", payload)
        logged = write_config(tmp_path, "logged.json", {**payload, "trial_log": True})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", plain, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", logged, "--out", str(out2)]) == 0
        for name in ("counts.csv", "simulate.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert not (out1 / "trials.log").exists()
        assert len((out2 / "trials.log").read_text().splitlines()) == 20000

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "weights": [0, 0, 1, 0], "settings_deg": [0, 90, 45, -45],
            "trials": 20000, "seed": 5,
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--seed", "6", "--out", str(out2)])
        assert (out1 / "counts.csv").read_bytes() != \
            (out2 / "counts.csv").read_bytes()

    def test_count_csv_round_trip(self, tmp_path):
        counts = np.arange(16, dtype=np.int64).reshape(2, 2, 2, 2)
        table = CountTable(counts)
        path = tmp_path / "c.csv"
        write_count_csv(table, str(path))
        assert np.array_equal(read_count_csv(str(path)).counts, counts)

    def test_trial_log_output(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "weights": [0, 0, 1, 0], "settings_deg": [0, 90, 45, -45],
            "trials": 500, "seed": 2, "trial_log": True,
        })
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trials.log").read_text().strip().split("\n")
        assert len(lines) == 500
        assert lines[0].split(",")[0] == "0"


class TestInterplay:
    def test_two_alpha_run(self, tmp_path):
        cfg = write_config(tmp_path, "i.json", {
            "measure": "concurrence", "level": 0.4, "alphas": [1.0, 1.5],
            "theta_grid": {"start": 0.0, "stop": np.pi / 4, "num": 20},
        })
        out = tmp_path / "o"
        assert main(["interplay", "--config", cfg, "--out", str(out)]) == 0
        for alpha in (1.0, 1.5):
            text = (out / f"interplay_alpha{alpha}.csv").read_text()
            rows = [r.split(",") for r in text.strip().split("\n")[1:]]
            s_vals = [float(r[2]) for r in rows]
            # interior maximum: the peak is not at either grid endpoint
            peak = int(np.argmax(s_vals))
            assert 0 < peak < len(s_vals) - 1

    def test_empty_grid_writes_header_only(self, tmp_path):
        cfg = write_config(tmp_path, "i.json", {
            "measure": "ode", "level": 0.3, "theta_grid": {"num": 0}})
        out = tmp_path / "o"
        assert main(["interplay", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "interplay_alpha1.0.csv").read_text() == \
            "theta_rad,incompat,s_alpha,l1,l2,l3,l4\n"


class TestPbrAndTomo:
    def test_pbr_pipeline(self, tmp_path):
        sim_cfg = write_config(tmp_path, "s.json", {
            "weights": [0.05, 0.05, 0.85, 0.05],
            "settings_deg": [0, 90, 45, -45],
            "trials": 30000, "seed": 3, "trial_log": True,
        })
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", sim_cfg, "--out", str(sim_out)]) == 0
        pbr_cfg = write_config(tmp_path, "p.json", {
            "trial_log": str(sim_out / "trials.log"), "block": 10000,
        })
        pbr_out = tmp_path / "pbr"
        assert main(["pbr", "--config", pbr_cfg, "--out", str(pbr_out)]) == 0
        result = json.loads((pbr_out / "pbr.json").read_text())
        assert result["n_trials"] == 30000
        assert result["log10_p"] < 0

    def test_tomo_pipeline(self, tmp_path):
        weights = [0.847, 0.079, 0.068, 0.006]
        counts = simulate_counts(bell_diagonal(weights), 10 ** 4, seed=8)
        csv_path = tmp_path / "tomo.csv"
        with open(csv_path, "w") as fh:
            fh.write("basis_a,basis_b,count\n")
            i = 0
            for la in BASIS_LABELS:
                for lb in BASIS_LABELS:
                    fh.write(f"{la},{lb},{int(counts[i])}\n")
                    i += 1
        assert np.array_equal(read_tomo_csv(str(csv_path)), counts)
        cfg = write_config(tmp_path, "t.json", {
            "counts_csv": str(csv_path), "target_weights": weights,
        })
        out = tmp_path / "o"
        assert main(["tomo", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "rho.json").read_text())
        assert payload["fidelity_to_target"] > 0.99
        rho = np.array([[complex(re, im) for re, im in row]
                        for row in payload["rho"]])
        assert abs(np.trace(rho) - 1) < 1e-9


class TestSpacetime:
    def test_margins_printed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "st.json", {"spacetime": SPACETIME_BLOCK})
        out = tmp_path / "o"
        assert main(["spacetime", "--config", cfg, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "locality_1 margin_ns=27.37" in stdout
        assert "locality_2 margin_ns=39.05" in stdout
        assert "pass" in stdout
        result = json.loads((out / "spacetime.json").read_text())
        assert result["pass"] is True

    @pytest.mark.parametrize("key,value", [("ab_m", float("nan")), ("ab_m", "x"),
                                           ("t_m2", True), ("lsb_m", float("inf"))])
    def test_non_finite_number_rejected(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, "st.json", {"spacetime": {**SPACETIME_BLOCK, key: value}})
        out = tmp_path / "o"
        assert main(["spacetime", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config") and f"spacetime.{key}" in err
        assert not (out / "spacetime.json").exists()

    def test_missing_keys_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "st.json", {"spacetime": {"ab_m": 163}})
        assert main(["spacetime", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellkit-error kind=config")
        assert all(key in err for key in SPACETIME_BLOCK if key != "ab_m")

    def test_failure_manifest_written(self, tmp_path, capsys):
        block = dict(SPACETIME_BLOCK)
        block["ab_m"] = -5
        cfg = write_config(tmp_path, "st.json", {"spacetime": block})
        out = tmp_path / "o"
        rc = main(["spacetime", "--config", cfg, "--out", str(out)])
        assert rc == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "error" in manifest
