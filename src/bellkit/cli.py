"""Batch command-line front end.

Each subcommand reads one JSON config file, runs the corresponding
analysis module, writes its outputs plus a manifest into the output
directory, and reports errors as single-line machine-parsable stderr
diagnostics with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .bell import CountTable, MeasurementSetting, s_alpha_from_counts
from .di_bounds import quantify as di_quantify
from .interplay import trajectory, trajectory_to_csv
from .pbr import pbr_p_value
from .qstate import bell_diagonal, fidelity
from .tomo import mle_fit
from .trial_sim import (DetectionModel, SpacetimeConfig, parse_trial_log,
                        simulate_trials, spacetime_check, trial_log_to_text)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MODULE = 2


class ConfigError(ValueError):
    pass


_ALLOWED_KEYS = {
    "quantify": {"pairs", "counts_csv", "alpha"},
    "simulate": {"weights", "settings_deg", "detection", "setting_dist",
                 "trials", "shards", "seed", "trial_log"},
    "interplay": {"measure", "level", "alphas", "theta_grid"},
    "pbr": {"trial_log", "block"},
    "tomo": {"counts_csv", "target_weights"},
    "spacetime": {"spacetime"},
}

#: Subcommands that draw random numbers, and so run under a seed.
_SEEDED = {"simulate", "tomo"}

_SPACETIME_KEYS = {"ab_m", "sa_m", "sb_m", "lsa_m", "lsb_m", "t_e", "t_qrng1",
                   "t_qrng2", "t_delay1", "t_delay2", "t_pc1", "t_pc2",
                   "t_m1", "t_m2"}
_DETECTION_KEYS = {"eta_a", "eta_b", "mode", "dark_prob"}
_GRID_KEYS = {"start", "stop", "num"}


def _fail(code: int, kind: str, message: str) -> int:
    print(f"bellkit-error kind={kind} message={json.dumps(message)}",
          file=sys.stderr)
    return code


def _load_config(path: str, subcommand: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _ALLOWED_KEYS[subcommand]
    if unknown:
        raise ConfigError(
            f"unknown config keys for {subcommand}: {sorted(unknown)}")
    nested = {"detection": _DETECTION_KEYS, "theta_grid": _GRID_KEYS,
              "spacetime": _SPACETIME_KEYS}
    for key, allowed in nested.items():
        if key in cfg:
            if not isinstance(cfg[key], dict):
                raise ConfigError(f"{key} must be a JSON object")
            bad = set(cfg[key]) - allowed
            if bad:
                raise ConfigError(f"unknown keys in {key}: {sorted(bad)}")
    for key in ("counts_csv", "trial_log"):
        if key in cfg and isinstance(cfg[key], str) and not os.path.exists(cfg[key]):
            raise ConfigError(f"input path does not exist: {cfg[key]}")
    return cfg


def _write_manifest(out_dir: str, subcommand: str, config: dict, seed,
                    outputs: list[str], status: str = "ok",
                    error: str | None = None) -> str:
    manifest = {
        "subcommand": subcommand,
        "version": f"bellkit-{__version__}",
        "seed": seed,
        "config": config,
        "outputs": outputs,
        "status": status,
    }
    if error is not None:
        manifest["error"] = error
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def write_count_csv(table: CountTable, path: str):
    with open(path, "w") as fh:
        fh.write("a,b,x,y,count\n")
        for ia, a in enumerate((-1, 1)):
            for ib, b in enumerate((-1, 1)):
                for x in (0, 1):
                    for y in (0, 1):
                        fh.write(f"{a},{b},{x},{y},{table.counts[ia, ib, x, y]}\n")


_OUTCOME_INDEX = {"-1": 0, "1": 1}
_SETTING_INDEX = {"0": 0, "1": 1}


def read_count_csv(path: str) -> CountTable:
    counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "a,b,x,y,count":
            raise ConfigError(f"bad count CSV header: {header!r}")
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            try:
                a, b, x, y, n = (v.strip() for v in line.split(","))
                counts[_OUTCOME_INDEX[a], _OUTCOME_INDEX[b],
                       _SETTING_INDEX[x], _SETTING_INDEX[y]] += int(n)
            except (ValueError, KeyError):
                raise ConfigError(
                    f"count CSV line {lineno} is not 'a,b,x,y,count' with a, b in "
                    f"{{-1, 1}} and x, y in {{0, 1}}: {line!r}") from None
    return CountTable(counts)


def read_tomo_csv(path: str) -> np.ndarray:
    """36 counts in canonical (basis_a, basis_b) order."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "basis_a,basis_b,count":
            raise ConfigError(f"bad tomography CSV header: {header!r}")
        for line in fh:
            line = line.strip()
            if line:
                rows.append(float(line.split(",")[2]))
    if len(rows) != 36:
        raise ConfigError(f"expected 36 tomography rows, got {len(rows)}")
    return np.array(rows)


def _rho_to_json(rho: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in rho]


def _cmd_quantify(cfg: dict, out_dir: str, seed) -> list[str]:
    alpha = float(cfg.get("alpha", 1.0))
    pairs = []
    if "pairs" in cfg:
        pairs = [(float(s), float(a)) for s, a in cfg["pairs"]]
    if "counts_csv" in cfg:
        table = read_count_csv(cfg["counts_csv"])
        pairs.append((s_alpha_from_counts(table, alpha), alpha))
    if not pairs:
        raise ConfigError("quantify needs 'pairs' or 'counts_csv'")
    reports = []
    for s, a in pairs:
        try:
            reports.append(di_quantify(s, a).to_dict())
        except ValueError as exc:
            reports.append({"s": s, "alpha": a, "error": str(exc)})
    path = os.path.join(out_dir, "quantify.json")
    with open(path, "w") as fh:
        json.dump(reports, fh, indent=2)
        fh.write("\n")
    return [path]


def _cmd_simulate(cfg: dict, out_dir: str, seed) -> list[str]:
    for key in ("weights", "settings_deg", "trials"):
        if key not in cfg:
            raise ConfigError(f"simulate config missing {key!r}")
    rho = bell_diagonal(cfg["weights"])
    settings = tuple(MeasurementSetting.from_degrees(d) for d in cfg["settings_deg"])
    if len(settings) != 4:
        raise ConfigError("settings_deg must list 4 angles (A0, A1, B0, B1)")
    det = DetectionModel(**cfg.get("detection", {}))
    dist = np.asarray(cfg.get("setting_dist", [[0.25, 0.25], [0.25, 0.25]]))
    keep_log = bool(cfg.get("trial_log", False))
    result = simulate_trials(rho, settings, det, dist, int(cfg["trials"]),
                             seed=seed,
                             shards=int(cfg.get("shards", 1)),
                             keep_log=keep_log)
    outputs = []
    counts_path = os.path.join(out_dir, "counts.csv")
    write_count_csv(result.table, counts_path)
    outputs.append(counts_path)
    if keep_log:
        log_path = os.path.join(out_dir, "trials.log")
        with open(log_path, "w") as fh:
            fh.write(trial_log_to_text(result.log))
        outputs.append(log_path)
    summary_path = os.path.join(out_dir, "simulate.json")
    with open(summary_path, "w") as fh:
        json.dump({"trials": result.trials, "discarded": result.discarded,
                   "s_alpha": s_alpha_from_counts(result.table)}, fh, indent=2)
        fh.write("\n")
    outputs.append(summary_path)
    return outputs


def _cmd_interplay(cfg: dict, out_dir: str, seed) -> list[str]:
    for key in ("measure", "level", "theta_grid"):
        if key not in cfg:
            raise ConfigError(f"interplay config missing {key!r}")
    grid_cfg = cfg["theta_grid"]
    grid = np.linspace(float(grid_cfg.get("start", 0.0)),
                       float(grid_cfg.get("stop", np.pi / 4)),
                       int(grid_cfg["num"]))
    outputs = []
    for alpha in cfg.get("alphas", [1.0]):
        points = trajectory(cfg["measure"], float(cfg["level"]), float(alpha), grid)
        path = os.path.join(out_dir, f"interplay_alpha{alpha}.csv")
        with open(path, "w") as fh:
            fh.write(trajectory_to_csv(points))
        outputs.append(path)
    return outputs


def _cmd_pbr(cfg: dict, out_dir: str, seed) -> list[str]:
    if "trial_log" not in cfg:
        raise ConfigError("pbr config missing 'trial_log'")
    with open(cfg["trial_log"]) as fh:
        try:
            records = parse_trial_log(fh.read())
        except ValueError as exc:
            raise ConfigError(f"{cfg['trial_log']}: {exc}") from None
    result = pbr_p_value(records, block=int(cfg.get("block", 10000)))
    path = os.path.join(out_dir, "pbr.json")
    with open(path, "w") as fh:
        fh.write(result.to_json())
        fh.write("\n")
    return [path]


def _cmd_tomo(cfg: dict, out_dir: str, seed) -> list[str]:
    if "counts_csv" not in cfg:
        raise ConfigError("tomo config missing 'counts_csv'")
    counts = read_tomo_csv(cfg["counts_csv"])
    rho_hat, final_l = mle_fit(counts, seed=seed)
    payload = {"rho": _rho_to_json(rho_hat), "final_likelihood": final_l}
    if "target_weights" in cfg:
        payload["fidelity_to_target"] = fidelity(
            rho_hat, bell_diagonal(cfg["target_weights"]))
    path = os.path.join(out_dir, "rho.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return [path]


def _cmd_spacetime(cfg: dict, out_dir: str, seed) -> list[str]:
    if "spacetime" not in cfg:
        raise ConfigError("spacetime config missing 'spacetime' block")
    result = spacetime_check(SpacetimeConfig(**cfg["spacetime"]))
    for name in ("locality_1", "locality_2", "mi_a", "mi_b"):
        print(f"{name} margin_ns={result[name]:.2f}")
    print("pass" if result["pass"] else "fail")
    path = os.path.join(out_dir, "spacetime.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return [path]


_COMMANDS = {
    "quantify": _cmd_quantify,
    "simulate": _cmd_simulate,
    "interplay": _cmd_interplay,
    "pbr": _cmd_pbr,
    "tomo": _cmd_tomo,
    "spacetime": _cmd_spacetime,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellkit",
        description="Simulation and analysis toolkit for generalized-CHSH "
                    "Bell experiments")
    parser.add_argument("--version", action="version",
                        version=f"bellkit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.subcommand)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None and args.subcommand in _SEEDED:
        seed = 0  # the default stream, recorded so the run can be repeated
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        return _fail(EXIT_CONFIG, "config", f"seed must be an integer, got {seed!r}")
    os.makedirs(args.out, exist_ok=True)
    try:
        outputs = _COMMANDS[args.subcommand](cfg, args.out, seed)
    except ConfigError as exc:
        _write_manifest(args.out, args.subcommand, cfg, seed, [],
                        status="failed", error=str(exc))
        return _fail(EXIT_CONFIG, "config", str(exc))
    except Exception as exc:
        _write_manifest(args.out, args.subcommand, cfg, seed, [],
                        status="failed", error=str(exc))
        return _fail(EXIT_MODULE, "module", str(exc))
    manifest = _write_manifest(args.out, args.subcommand, cfg, seed, outputs)
    print(f"wrote {len(outputs)} output file(s); manifest: {manifest}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
