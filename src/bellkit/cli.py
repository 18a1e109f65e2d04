"""Batch command-line front end.

Each subcommand reads one JSON config file, runs the corresponding
analysis module, writes its outputs plus a manifest into the output
directory, and reports errors as single-line machine-parsable stderr
diagnostics with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  (argparse's gettext loads it in main otherwise)
import os
import sys

import numpy as np

from . import __version__
from .bell import (CountTable, EmptySettingError, MeasurementSetting,
                   s_alpha_from_counts)
from .di_bounds import quantify as di_quantify
from .interplay import MEASURES as INTERPLAY_MEASURES
from .interplay import (InfeasibleConstraintError, _check_theta, trajectory,
                        trajectory_to_csv)
from .pbr import pbr_p_value
from .qstate import bell_diagonal, fidelity
from .tomo import BASIS_LABELS, mle_fit
from .trial_sim import (OUTCOMES, DetectionModel, SpacetimeConfig, parse_trial_log,
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


def _integer(value, key: str) -> int:
    """value if it is a JSON integer; a float, string or boolean is a ConfigError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _checked(key: str, fn, /, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError raised as a ConfigError naming key."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _count(value, key: str) -> int:
    """value if it is a JSON integer >= 1, else a ConfigError."""
    if _integer(value, key) < 1:
        raise ConfigError(f"{key} must be >= 1, got {value}")
    return value


def _number(value, key: str, shape: tuple = ()):
    """value as floats if it is a JSON array of that shape (None: any length)
    of finite numbers; a string, boolean, NaN or infinity is a ConfigError."""
    if shape:
        if not isinstance(value, list) or shape[0] not in (None, len(value)):
            dims = " x ".join("n" if d is None else str(d) for d in shape)
            raise ConfigError(f"{key} must be an array of shape ({dims}) of numbers, "
                              f"got {value!r}")
        return [_number(v, key, shape[1:]) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _bell_diagonal(value, key: str):
    """The Bell-diagonal state of config weights; invalid weights are a ConfigError."""
    return _checked(key, bell_diagonal, _number(value, key, (4,)))


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
    # simulate's trial_log is a flag; only pbr reads a trial log.
    for key in ("trial_log",) if subcommand == "pbr" else ("counts_csv",):
        if key not in cfg:
            continue
        if not isinstance(cfg[key], str):
            raise ConfigError(f"{key} must be a path string, got {cfg[key]!r}")
        if not os.path.exists(cfg[key]):
            raise ConfigError(f"input path does not exist: {cfg[key]}")
        if not os.path.isfile(cfg[key]):
            raise ConfigError(f"{key} is not a regular file: {cfg[key]}")
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
        for (ia, ib, x, y), n in np.ndenumerate(table.counts):
            fh.write(f"{OUTCOMES[ia]},{OUTCOMES[ib]},{x},{y},{n}\n")


_INT64_MAX = int(np.iinfo(np.int64).max)
_OUTCOME_INDEX = {"-1": 0, "1": 1}
_SETTING_INDEX = {"0": 0, "1": 1}
_TOMO_PAIRS = [[la, lb] for la in BASIS_LABELS for lb in BASIS_LABELS]


def _csv_rows(path: str, header: str, kind: str):
    """(line number, line, stripped fields) of each non-blank row after the header."""
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ConfigError(f"bad {kind} CSV header: {first!r}")
        for lineno, line in enumerate(fh, 2):
            if line.strip():
                yield lineno, line.strip(), [v.strip() for v in line.split(",")]


def read_count_csv(path: str) -> CountTable:
    counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
    total = 0
    for lineno, line, fields in _csv_rows(path, "a,b,x,y,count", "count"):
        try:
            a, b, x, y, n = fields
            if not (n.isascii() and n.isdigit()):
                raise ValueError(n)
            cell = (_OUTCOME_INDEX[a], _OUTCOME_INDEX[b],
                    _SETTING_INDEX[x], _SETTING_INDEX[y])
        except (ValueError, KeyError):
            raise ConfigError(
                f"count CSV line {lineno} is not 'a,b,x,y,count' with a, b in "
                f"{{-1, 1}}, x, y in {{0, 1}} and a non-negative integer "
                f"count: {line!r}") from None
        # The table total bounds every cell and every sum taken over cells.
        total += int(n)
        if total > _INT64_MAX:
            raise ConfigError(f"count CSV line {lineno}: the counts so far sum to "
                              f"{total}, above the int64 maximum {_INT64_MAX}")
        counts[cell] += int(n)
    return CountTable(counts)


def read_tomo_csv(path: str) -> np.ndarray:
    """36 counts in canonical (basis_a, basis_b) order, checked row by row."""
    rows = []
    for lineno, line, (*labels, n) in _csv_rows(path, "basis_a,basis_b,count",
                                                "tomography"):
        if len(rows) == 36:
            raise ConfigError(f"tomography CSV line {lineno}: more than 36 rows")
        want = _TOMO_PAIRS[len(rows)]
        if labels != want or not (n.isascii() and n.isdigit()):
            raise ConfigError(
                f"tomography CSV line {lineno} is not '{want[0]},{want[1]},count' "
                f"(canonical basis order) with a non-negative integer count: "
                f"{line!r}")
        rows.append(float(n))
    if len(rows) != 36:
        raise ConfigError(f"expected 36 tomography rows, got {len(rows)}")
    return np.array(rows)


def _rho_to_json(rho: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in rho]


def _cmd_quantify(cfg: dict, out_dir: str, seed) -> list[str]:
    alpha = _number(cfg.get("alpha", 1.0), "alpha")
    pairs = _number(cfg.get("pairs", []), "pairs", (None, 2))
    if "counts_csv" in cfg:
        table = read_count_csv(cfg["counts_csv"])
        try:
            pairs.append([s_alpha_from_counts(table, alpha), alpha])
        except EmptySettingError as exc:
            raise ConfigError(f"{cfg['counts_csv']}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"alpha: {exc}") from None
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
    rho = _bell_diagonal(cfg["weights"], "weights")
    settings = tuple(MeasurementSetting.from_degrees(d)  # (A0, A1, B0, B1)
                     for d in _number(cfg["settings_deg"], "settings_deg", (4,)))
    det_cfg = {key: value if key == "mode" else _number(value, f"detection.{key}")
               for key, value in cfg.get("detection", {}).items()}
    det = _checked("detection", DetectionModel, **det_cfg)
    dist = np.asarray(_number(cfg.get("setting_dist", [[0.25, 0.25], [0.25, 0.25]]),
                              "setting_dist", (2, 2)))
    if np.any(dist < 0) or abs(dist.sum() - 1.0) > 1e-10:
        raise ConfigError(f"setting_dist must be a 2x2 probability array, "
                          f"got {dist.tolist()}")
    trials = _count(cfg["trials"], "trials")
    shards = _count(cfg.get("shards", 1), "shards")
    keep_log = cfg.get("trial_log", False)
    if not isinstance(keep_log, bool):
        raise ConfigError(f"trial_log must be true or false, got {keep_log!r}")
    result = simulate_trials(rho, settings, det, dist, trials, seed=seed, shards=shards,
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
    start = _number(grid_cfg.get("start", 0.0), "theta_grid.start")
    stop = _number(grid_cfg.get("stop", np.pi / 4), "theta_grid.stop")
    if start > stop:
        raise ConfigError(f"theta_grid.start {start} exceeds theta_grid.stop {stop}")
    for key, theta in (("theta_grid.start", start), ("theta_grid.stop", stop)):
        _checked(key, _check_theta, theta)
    # num = 0 is allowed: an empty grid writes a header-only CSV.
    grid = _checked("theta_grid.num", np.linspace, start, stop,
                    _integer(grid_cfg["num"], "theta_grid.num"))
    level = _number(cfg["level"], "level")
    if not isinstance(cfg["measure"], str) or cfg["measure"] not in INTERPLAY_MEASURES:
        raise ConfigError(f"measure must be one of {list(INTERPLAY_MEASURES)}, "
                          f"got {cfg['measure']!r}")
    alphas = cfg.get("alphas", [1.0])
    outputs = []
    # Each output file is named after the alpha as the config writes it.
    for alpha, value in zip(alphas, _number(alphas, "alphas", (None,))):
        try:
            points = trajectory(cfg["measure"], level, value, grid)
        except InfeasibleConstraintError as exc:
            raise ConfigError(f"level: {exc}") from None
        path = os.path.join(out_dir, f"interplay_alpha{alpha}.csv")
        with open(path, "w") as fh:
            fh.write(trajectory_to_csv(points))
        outputs.append(path)
    return outputs


def _cmd_pbr(cfg: dict, out_dir: str, seed) -> list[str]:
    if "trial_log" not in cfg:
        raise ConfigError("pbr config missing 'trial_log'")
    block = _count(cfg.get("block", 10000), "block")
    with open(cfg["trial_log"], "rb") as fh:
        cells = _checked(cfg["trial_log"], parse_trial_log, fh.read())
    if cells.size == 0:
        raise ConfigError(f"{cfg['trial_log']}: the trial log has no records")
    result = pbr_p_value(cells, block=block)
    path = os.path.join(out_dir, "pbr.json")
    with open(path, "w") as fh:
        fh.write(result.to_json())
        fh.write("\n")
    return [path]


def _cmd_tomo(cfg: dict, out_dir: str, seed) -> list[str]:
    if "counts_csv" not in cfg:
        raise ConfigError("tomo config missing 'counts_csv'")
    counts = read_tomo_csv(cfg["counts_csv"])
    if "target_weights" in cfg:
        target = _bell_diagonal(cfg["target_weights"], "target_weights")
    rho_hat, final_l = mle_fit(counts, seed=seed)
    payload = {"rho": _rho_to_json(rho_hat), "final_likelihood": final_l}
    if "target_weights" in cfg:
        payload["fidelity_to_target"] = fidelity(rho_hat, target)
    path = os.path.join(out_dir, "rho.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return [path]


def _cmd_spacetime(cfg: dict, out_dir: str, seed) -> list[str]:
    if "spacetime" not in cfg:
        raise ConfigError("spacetime config missing 'spacetime' block")
    missing = _SPACETIME_KEYS - set(cfg["spacetime"])
    if missing:
        raise ConfigError(f"spacetime block missing keys: {sorted(missing)}")
    result = spacetime_check(SpacetimeConfig(**{
        key: _number(value, f"spacetime.{key}") for key, value in cfg["spacetime"].items()}))
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
        seed = args.seed if args.seed is not None else cfg.get("seed")
        if seed is None and args.subcommand in _SEEDED:
            seed = 0  # the default stream, recorded so the run can be repeated
        if seed is not None:
            _integer(seed, "seed")
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
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
