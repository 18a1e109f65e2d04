import json
import os

import numpy as np
import pytest

from bellkit.bell import CountTable
from bellkit.cli import main, read_count_csv, read_tomo_csv, write_count_csv
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


class TestInputBoundaries:
    COUNT_ROWS = ["-1,-1,0,0,10", "1,1,0,1,7", "1,1,1,0,9", "-1,1,1,1,8"]

    def quantify_counts(self, tmp_path, rows):
        csv_path = tmp_path / "counts.csv"
        csv_path.write_text("a,b,x,y,count\n" + "\n".join(rows) + "\n")
        cfg = write_config(tmp_path, "q.json", {"counts_csv": str(csv_path)})
        return main(["quantify", "--config", cfg, "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("bad", ["0,1,0,0,5", "1,-1,2,0,5", "1,1,0,-1,5",
                                     "1,1,0,0", "1,1,0,0,many"])
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
