"""Seeded inputs, invocation plans and output checks for each workload.

Every config, count CSV and tomography CSV is generated here with numpy
from the benchmark seed; no bellkit code is used to make inputs or to
compute the reference values the checks compare against, so a change to
bellkit cannot move its own targets.  Checks raise ``CheckError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0

BELL_TEST_TRIALS = {"binary": 100_000, "ternary": 30_000}
PBR_BLOCK = 10_000
SAMPLER_TRIALS = 10_000_000
SAMPLER_SHARDS = 8
TOMO_COUNTS_PER_SETTING = 10_000
#: Dirichlet concentration of tomography states around the README target,
#: like prepared states that came out slightly off target.
TOMO_CONCENTRATION = 300.0
ODE_POINTS = 6

CHSH_DEG = np.array([0.0, 90.0, 45.0, -45.0])  # A0, A1, B0, B1
README_PAIRS = [[2.0132, 1.0], [2.0098, 1.04]]
README_TOMO_TARGET = [0.847, 0.079, 0.068, 0.006]
INTERPLAY_CONFIGS = {
    "concurrence": {"measure": "concurrence", "level": 0.4, "alphas": [1.0, 1.5],
                    "theta_grid": {"start": 0.0, "stop": math.pi / 4, "num": 50}},
    "ode": {"measure": "ode", "level": 0.2, "alphas": [1.0],
            "theta_grid": {"start": 0.0, "stop": math.pi / 4, "num": ODE_POINTS}},
}


class CheckError(AssertionError):
    """An output of the program is wrong or inconsistent."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


@dataclass
class Invocation:
    """One ``bellkit`` CLI call; ``check`` reads its output directory."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[[Path], object]


@dataclass
class Workload:
    invocations: list[Invocation]
    #: Check over the whole pass: maps each invocation name to what its
    #: check returned, and returns the names of invocations that fail.
    pass_check: Callable[[dict], list[str]] = field(default=lambda values: [])


# ---------------------------------------------------------------------------
# Reference physics, independent of bellkit
# ---------------------------------------------------------------------------

_S2 = math.sqrt(2.0)
# Bell basis (Psi+, Psi-, Phi+, Phi-) over |00>, |01>, |10>, |11>.
_BELL = np.array([[0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, 1], [1, 0, 0, -1]],
                 dtype=complex) / _S2
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
# Tomography analyzer kets H, V, +, -, R, L.
_KETS_1Q = np.array([[1, 0], [0, 1], [1 / _S2, 1 / _S2], [1 / _S2, -1 / _S2],
                     [1 / _S2, 1j / _S2], [1 / _S2, -1j / _S2]], dtype=complex)
_TOMO_LABELS = ("H", "V", "+", "-", "R", "L")


def bell_mixture(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    return np.einsum("i,ij,ik->jk", w, _BELL, _BELL.conj())


def _planar(deg: float) -> np.ndarray:
    t = math.radians(deg)
    return math.cos(t) * _Z + math.sin(t) * _X


def ideal_moments(weights, settings_deg):
    """Marginals <A_x>, <B_y> and correlators E[x, y] by trace."""
    rho = bell_mixture(weights)
    obs_a = [_planar(d) for d in settings_deg[:2]]
    obs_b = [_planar(d) for d in settings_deg[2:]]
    ma = np.array([np.trace(rho @ np.kron(a, _I2)).real for a in obs_a])
    mb = np.array([np.trace(rho @ np.kron(_I2, b)).real for b in obs_b])
    e = np.array([[np.trace(rho @ np.kron(a, b)).real for b in obs_b] for a in obs_a])
    return ma, mb, e


def detected_chsh(weights, settings_deg, det: dict) -> tuple[float, float]:
    """Exact CHSH value of the recorded outcomes and the discarded fraction.

    Per side a photon is detected with probability eta; otherwise a dark
    count gives a uniformly random outcome with probability dark_prob.
    In di-binary mode the remaining no-clicks read -1; in post-selection
    mode a trial is kept only when both sides clicked.
    """
    ma, mb, e = ideal_moments(weights, settings_deg)
    eta_a, eta_b, dark = det["eta_a"], det["eta_b"], det.get("dark_prob", 0.0)
    if det["mode"] == "di-binary":
        # P(forced -1) on each side; random dark outcomes average to zero.
        fa, fb = (1 - eta_a) * (1 - dark), (1 - eta_b) * (1 - dark)
        e_rec = (eta_a * eta_b * e - eta_a * fb * ma[:, None]
                 - fa * eta_b * mb[None, :] + fa * fb)
        discard = 0.0
    else:
        click_a, click_b = eta_a + (1 - eta_a) * dark, eta_b + (1 - eta_b) * dark
        e_rec = (eta_a / click_a) * (eta_b / click_b) * e
        discard = 1.0 - click_a * click_b
    return float(e_rec[0, 0] + e_rec[0, 1] + e_rec[1, 0] - e_rec[1, 1]), discard


def read_counts(path: Path) -> np.ndarray:
    """(a, b, x, y) counts from a bellkit count CSV, index 0 <-> outcome -1."""
    counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
    lines = path.read_text().splitlines()
    require(lines[0] == "a,b,x,y,count", f"{path.name}: bad header {lines[0]!r}")
    for line in lines[1:]:
        a, b, x, y, n = (int(v) for v in line.split(","))
        require(a in (-1, 1) and b in (-1, 1) and x in (0, 1) and y in (0, 1)
                and n >= 0, f"{path.name}: bad row {line!r}")
        counts[(a + 1) // 2, (b + 1) // 2, x, y] += n
    return counts


def chsh_from_counts(counts: np.ndarray) -> tuple[float, float]:
    """CHSH value and its standard error from per-setting correlators."""
    n_xy = counts.sum(axis=(0, 1))
    require(bool(np.all(n_xy > 0)), "a setting pair has no trials")
    e = (counts[0, 0] - counts[0, 1] - counts[1, 0] + counts[1, 1]) / n_xy
    s = e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]
    return float(s), float(np.sqrt(np.sum((1.0 - e ** 2) / n_xy)))


def closed_form_bounds(s: float, alpha: float) -> dict:
    """EoF and negativity bounds at any alpha, incompatibility at alpha = 1."""
    root = math.sqrt(1.0 + alpha * alpha)
    bounds = {"eof_lb": max(0.0, (s - 2 * alpha) / (2 * root - 2 * alpha)),
              "negativity_lb": max(0.0, (s - 2 * alpha) / (4 * (root - alpha)))}
    s1 = min(s, 2 * _S2)
    bounds["incompat_alpha1"] = 0.0 if s1 <= 2.0 else max(
        0.0, 1.0 - (0.5 + (s1 / 8.0) * math.sqrt(max(8.0 - s1 * s1, 0.0))))
    return bounds


def lhv_kl_rate(counts: np.ndarray) -> float:
    """log10-rate of the divergence from the frequencies to the closest
    local model: min over mixtures of the 16 deterministic strategies,
    by expectation-maximization (the problem is convex)."""
    n_xy = counts.sum(axis=(0, 1))
    p_xy = n_xy / n_xy.sum()
    pi = (counts / n_xy * p_xy).ravel()
    verts = np.zeros((16, 2, 2, 2, 2))
    for k in range(16):
        a_of, b_of = (k >> 3 & 1, k >> 2 & 1), (k >> 1 & 1, k & 1)
        for x in (0, 1):
            for y in (0, 1):
                verts[k, a_of[x], b_of[y], x, y] = p_xy[x, y]
    v = verts.reshape(16, -1)
    keep = pi > 0
    v, pi = v[:, keep], pi[keep]
    w = np.full(16, 1.0 / 16)
    prev = np.inf
    for _ in range(50_000):
        mix = w @ v
        kl = float(np.sum(pi * np.log2(pi / mix)))
        if prev - kl < 1e-13:
            break
        prev = kl
        w = w * (v @ (pi / mix))
        w /= w.sum()
    return max(kl, 0.0) * math.log10(2.0)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    ev, vec = np.linalg.eigh(rho)
    root = (vec * np.sqrt(np.clip(ev, 0.0, None))) @ vec.conj().T
    inner = np.linalg.eigvalsh(root @ sigma @ root)
    return float(np.sum(np.sqrt(np.clip(inner, 0.0, None))) ** 2)


def tomo_counts(rng: np.random.Generator, weights, n_per_setting: int) -> np.ndarray:
    """36 multinomial counts, lexicographic over (A ket, B ket)."""
    rho = bell_mixture(weights)
    kets = np.array([np.kron(a, b) for a in _KETS_1Q for b in _KETS_1Q])
    p = np.einsum("mi,ij,mj->m", kets.conj(), rho, kets).real.reshape(3, 2, 3, 2)
    counts = np.zeros((3, 2, 3, 2), dtype=np.int64)
    for sa in range(3):
        for sb in range(3):
            probs = np.clip(p[sa, :, sb, :].ravel(), 0.0, None)
            counts[sa, :, sb, :] = rng.multinomial(
                n_per_setting, probs / probs.sum()).reshape(2, 2)
    return counts.ravel()


def _weights_near_phi_plus(rng, lo: float, hi: float) -> list[float]:
    v = rng.uniform(lo, hi)
    w = np.full(4, (1.0 - v) / 4.0)
    w[2] += v
    return (w / w.sum()).tolist()


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _load_json(path: Path):
    require(path.exists(), f"missing output {path.name}")
    with open(path) as fh:
        return json.load(fh)


def check_simulate(out: Path, cfg: dict) -> np.ndarray:
    summary = _load_json(out / "simulate.json")
    counts = read_counts(out / "counts.csv")
    n = cfg["trials"]
    require(summary["trials"] == n, f"simulate reports {summary['trials']} trials, "
                                    f"config asked for {n}")
    discarded = summary["discarded"]
    require(int(counts.sum()) + discarded == n,
            f"counts {int(counts.sum())} + discarded {discarded} != trials {n}")
    s_exact, discard_frac = detected_chsh(cfg["weights"], cfg["settings_deg"],
                                          cfg["detection"])
    if cfg["detection"]["mode"] == "di-binary":
        require(discarded == 0, f"di-binary run discarded {discarded} trials")
    else:
        se = math.sqrt(n * discard_frac * (1 - discard_frac))
        require(abs(discarded - n * discard_frac) <= 5 * se,
                f"discarded {discarded}, expected {n * discard_frac:.1f} +/- {se:.1f}")
    s, se = chsh_from_counts(counts)
    require(abs(summary["s_alpha"] - s) <= 1e-12,
            f"simulate.json S {summary['s_alpha']} != S of counts.csv {s}")
    require(abs(s - s_exact) <= 5 * se,
            f"S = {s:.5f} is {abs(s - s_exact) / se:.1f} stderr from exact {s_exact:.5f}")
    if cfg.get("trial_log"):
        lines = (out / "trials.log").read_text().splitlines()
        require(len(lines) == n, f"trial log has {len(lines)} records, not {n}")
        require(lines[-1].startswith(f"{n - 1},"), "trial log indices are not 0..N-1")
        undetected = sum(1 for line in lines if "u" in line)
        require(undetected == discarded,
                f"trial log has {undetected} no-click records, discarded {discarded}")
    return counts


def check_pbr(out: Path, sim_out: Path, n: int, binary: bool) -> dict:
    result = _load_json(out / "pbr.json")
    require(result["n_trials"] == n, f"pbr read {result['n_trials']} of {n} trials")
    require(result["blocks"] == -(-n // PBR_BLOCK), f"pbr used {result['blocks']} blocks")
    log10_p = result["log10_p"]
    require(math.isfinite(log10_p) and log10_p <= 0.0, f"p-value 10^{log10_p} "
                                                        "outside (0, 1]")
    if binary:
        rate = -log10_p / n
        oracle = lhv_kl_rate(read_counts(sim_out / "counts.csv"))
        require(0.8 * oracle <= rate <= 1.2 * oracle,
                f"-log10(p)/N = {rate:.5f} outside 20% of the divergence rate "
                f"{oracle:.5f}")
    return result


def _check_report(rep: dict, s: float, alpha: float) -> dict:
    require("error" not in rep, f"quantify failed on ({s}, {alpha}): {rep.get('error')}")
    require(rep["s"] == s and rep["alpha"] == alpha,
            f"report for ({rep['s']}, {rep['alpha']}) where ({s}, {alpha}) was asked")
    ref = closed_form_bounds(s, alpha)
    for key in ("eof_lb", "negativity_lb"):
        require(abs(rep[key] - ref[key]) <= 1e-12,
                f"{key} {rep[key]} != closed form {ref[key]} at ({s}, {alpha})")
    inc = rep["incompatibility_lb"]
    if alpha == 1.0:
        require(abs(inc - ref["incompat_alpha1"]) <= 1e-12,
                f"incompatibility {inc} != closed form {ref['incompat_alpha1']} at S={s}")
    else:
        # The alpha-optimal realization has CHSH value at most the alpha = 1
        # maximum at every incompatibility level, so its bound is no weaker.
        require(ref["incompat_alpha1"] - 1e-8 <= inc <= 0.5,
                f"incompatibility {inc} at ({s}, {alpha}) below the alpha = 1 bound "
                f"{ref['incompat_alpha1']} or above 1/2")
    return rep


def check_quantify_counts(out: Path, sim_out: Path) -> dict:
    reports = _load_json(out / "quantify.json")
    require(len(reports) == 1, f"expected 1 report, got {len(reports)}")
    s, _ = chsh_from_counts(read_counts(sim_out / "counts.csv"))
    require(abs(reports[0]["s"] - s) <= 1e-12, f"quantify S {reports[0]['s']} != "
                                               f"S of counts.csv {s}")
    return _check_report(reports[0], reports[0]["s"], 1.0)


def check_quantify_pairs(out: Path, pairs: list, frozen: list | None) -> list:
    reports = _load_json(out / "quantify.json")
    require(len(reports) == len(pairs), f"{len(reports)} reports for {len(pairs)} pairs")
    for i, ((s, alpha), rep) in enumerate(zip(pairs, reports)):
        _check_report(rep, s, alpha)
        if frozen is not None:
            for key, ref in zip(("eof_lb", "negativity_lb", "incompatibility_lb"),
                                frozen[i]):
                require(abs(rep[key] - ref) <= 1e-8,
                        f"{key} {rep[key]} differs from frozen {ref} at ({s}, {alpha})")
    return reports


def check_interplay(out: Path, cfg: dict, frozen: dict | None) -> dict:
    grid = np.linspace(cfg["theta_grid"]["start"], cfg["theta_grid"]["stop"],
                       cfg["theta_grid"]["num"])
    level = cfg["level"]
    s_values = {}
    for alpha in cfg["alphas"]:
        path = out / f"interplay_alpha{alpha}.csv"
        require(path.exists(), f"missing output {path.name}")
        lines = path.read_text().splitlines()
        require(lines[0] == "theta_rad,incompat,s_alpha,l1,l2,l3,l4",
                f"{path.name}: bad header")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        require(rows.shape == (len(grid), 7), f"{path.name}: shape {rows.shape}")
        theta, s, w = rows[:, 0], rows[:, 2], rows[:, 3:]
        require(np.allclose(theta, grid, rtol=0, atol=1e-11), f"{path.name}: theta grid")
        require(bool(np.all(w >= -1e-12)) and np.allclose(w.sum(axis=1), 1.0, atol=1e-9),
                f"{path.name}: weights are not a distribution")
        if cfg["measure"] == "concurrence":
            achieved = 2.0 * w.max(axis=1) - 1.0
        else:
            wl = np.where(w > 0, w, 1.0)
            achieved = 1.0 + np.sum(np.where(w > 0, w * np.log2(wl), 0.0), axis=1)
        require(bool(np.all(np.abs(achieved - level) <= 1e-6)),
                f"{path.name}: constraint missed by {np.abs(achieved - level).max():.2e}")
        tzz = w @ np.array([-1.0, -1.0, 1.0, 1.0])
        txx = w @ np.array([1.0, -1.0, 1.0, -1.0])
        s_ref = 2 * alpha * np.cos(theta) * np.abs(tzz) + 2 * np.sin(theta) * np.abs(txx)
        require(bool(np.all(np.abs(s - s_ref) <= 1e-9)),
                f"{path.name}: s_alpha does not match its weights")
        if frozen is not None:
            ref = np.array(frozen[str(alpha)])
            require(bool(np.all(s >= ref - 1e-9)),
                    f"{path.name}: s_alpha below the frozen maximum by "
                    f"{np.max(ref - s):.2e}")
        s_values[str(alpha)] = s.tolist()
    return s_values


def check_tomo(out: Path, weights, frozen_likelihood: float | None) -> dict:
    payload = _load_json(out / "rho.json")
    rho = np.array([[complex(re, im) for re, im in row] for row in payload["rho"]])
    require(rho.shape == (4, 4), f"rho has shape {rho.shape}")
    require(np.abs(rho - rho.conj().T).max() <= 1e-9, "rho is not Hermitian")
    require(abs(np.trace(rho).real - 1.0) <= 1e-9, "rho does not have unit trace")
    require(np.linalg.eigvalsh(rho).min() >= -1e-9, "rho is not positive")
    target = bell_mixture(weights)
    fid = fidelity(rho, target)
    require(abs(payload["fidelity_to_target"] - fid) <= 1e-6,
            f"reported fidelity {payload['fidelity_to_target']} != {fid}")
    final_l = payload["final_likelihood"]
    if frozen_likelihood is not None:
        require(final_l <= frozen_likelihood * (1 + 1e-6),
                f"final likelihood {final_l} worse than frozen {frozen_likelihood}")
    return {"fidelity": fid, "final_likelihood": final_l}


def _tomo_pass_check(values: dict) -> list[str]:
    fids = {name: v["fidelity"] for name, v in values.items() if v is not None}
    if not fids or float(np.median(list(fids.values()))) >= 0.995:
        return []
    return [name for name, f in fids.items() if f < 0.995]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _invocation(name, subcommand, cfg, inputs: Path, passdir: Path, check,
                extra=()) -> Invocation:
    cfg_path = inputs / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    out = passdir / name
    argv = [subcommand, "--config", str(cfg_path), "--out", str(out), *extra]
    return Invocation(name=name, argv=argv, out=out, check=check)


def _simulate_chain(name, cfg, inputs, passdir, pbr: bool, binary: bool):
    sim = _invocation(f"{name}-simulate", "simulate", cfg, inputs, passdir,
                      lambda out: check_simulate(out, cfg))
    chain = [sim]
    if pbr:
        chain.append(_invocation(
            f"{name}-pbr", "pbr",
            {"trial_log": str(sim.out / "trials.log"), "block": PBR_BLOCK},
            inputs, passdir,
            lambda out: check_pbr(out, sim.out, cfg["trials"], binary)))
    chain.append(_invocation(
        f"{name}-quantify", "quantify",
        {"counts_csv": str(sim.out / "counts.csv"), "alpha": 1.0}, inputs, passdir,
        lambda out: check_quantify_counts(out, sim.out)))
    return chain


def _sim_config(rng, weights, det, trials, shards, log) -> dict:
    settings = (CHSH_DEG + rng.normal(0.0, 1.0, size=4)).tolist()
    return {"weights": weights, "settings_deg": settings, "detection": det,
            "trials": trials, "shards": shards,
            "seed": int(rng.integers(2 ** 31)), "trial_log": log}


def build_bell_test(rng, inputs, passdir, frozen, pass_index) -> Workload:
    invs = []
    # The binary chain violates the bound.  The post-selected chain runs
    # below the detection-efficiency threshold, as post-selection is used
    # in practice, so its ternary data (no-click kept as "u") is local.
    for name, mode, eta_range in (("binary", "di-binary", (0.94, 0.96)),
                                  ("ternary", "post-selection", (0.77, 0.79))):
        det = {"eta_a": float(rng.uniform(*eta_range)),
               "eta_b": float(rng.uniform(*eta_range)),
               "mode": mode, "dark_prob": float(rng.uniform(1e-4, 1e-3))}
        cfg = _sim_config(rng, _weights_near_phi_plus(rng, 0.95, 0.98), det,
                          BELL_TEST_TRIALS[name], int(rng.integers(1, 5)), True)
        invs += _simulate_chain(name, cfg, inputs, passdir, pbr=True,
                                binary=mode == "di-binary")
    return Workload(invs)


def build_sampler(rng, inputs, passdir, frozen, pass_index) -> Workload:
    invs = []
    for name, det in (
            ("dibinary", {"eta_a": float(rng.uniform(0.85, 0.97)),
                          "eta_b": float(rng.uniform(0.85, 0.97)),
                          "mode": "di-binary",
                          "dark_prob": float(rng.uniform(0.0, 1e-3))}),
            ("postsel", {"eta_a": float(rng.uniform(0.5, 0.9)),
                         "eta_b": float(rng.uniform(0.5, 0.9)),
                         "mode": "post-selection",
                         "dark_prob": float(rng.uniform(1e-3, 1e-2))})):
        cfg = _sim_config(rng, _weights_near_phi_plus(rng, 0.9, 0.98), det,
                          SAMPLER_TRIALS, SAMPLER_SHARDS, False)
        invs += _simulate_chain(name, cfg, inputs, passdir, pbr=False, binary=False)
    return Workload(invs)


def build_certify(rng, inputs, passdir, frozen, pass_index) -> Workload:
    pairs = [list(p) for p in README_PAIRS]
    pairs += [[float(rng.uniform(2.0, 2.8)), 1.0] for _ in range(2)]
    pairs += [[float(rng.uniform(2.005, 2.2)), float(rng.uniform(1.02, 1.2))]]
    frozen_pairs = frozen.get("quantify") if frozen else None
    invs = [_invocation("quantify", "quantify", {"pairs": pairs}, inputs, passdir,
                        lambda out: check_quantify_pairs(out, pairs, frozen_pairs))]
    for name, cfg in INTERPLAY_CONFIGS.items():
        ref = frozen.get(f"interplay-{name}") if frozen else None
        invs.append(_invocation(
            f"interplay-{name}", "interplay", cfg, inputs, passdir,
            lambda out, cfg=cfg, ref=ref: check_interplay(out, cfg, ref)))
    return Workload(invs)


def build_tomography(rng, inputs, passdir, frozen, pass_index) -> Workload:
    # One fit per pass, on the README target in pass 0 and on a state drawn
    # near it in later passes, so a run's median is taken over fits of
    # different data: the Nelder-Mead work of one fit varies with its data
    # by tens of percent, with a long tail.
    target = np.asarray(README_TOMO_TARGET) / np.sum(README_TOMO_TARGET)
    w = target if pass_index == 0 else rng.dirichlet(TOMO_CONCENTRATION * target + 0.5)
    w = (w / np.sum(w)).tolist()
    csv = inputs / "tomo.csv"
    counts = tomo_counts(rng, w, TOMO_COUNTS_PER_SETTING)
    rows = [f"{a},{b},{n}" for (a, b), n in zip(
        ((a, b) for a in _TOMO_LABELS for b in _TOMO_LABELS), counts)]
    csv.write_text("basis_a,basis_b,count\n" + "\n".join(rows) + "\n")
    ref = frozen["tomo"] if frozen and "tomo" in frozen else None
    inv = _invocation("tomo", "tomo", {"counts_csv": str(csv), "target_weights": w},
                      inputs, passdir, lambda out: check_tomo(out, w, ref),
                      extra=("--seed", str(int(rng.integers(2 ** 31)))))
    return Workload([inv], pass_check=_tomo_pass_check)


#: name -> (function making the workload, index of its random stream).
WORKLOADS = {
    "bell_test": (build_bell_test, 1),
    "sampler": (build_sampler, 2),
    "certify": (build_certify, 3),
    "tomography": (build_tomography, 4),
}


def build(name: str, seed: int, work: Path, frozen: dict | None,
          pass_index: int = 0) -> Workload:
    """Write the inputs of one pass under work/inputs<pass_index>; outputs
    go to work/pass.

    Each pass of a run gets its own inputs, drawn from (seed, pass_index),
    so a run averages over several draws of the inputs and its figures
    depend less on how much work one draw happens to need.  frozen holds
    reference values measured on the seed code; values that depend on the
    inputs are only compared on pass 0 of seed DEFAULT_SEED.
    """
    make, stream = WORKLOADS[name]
    inputs, passdir = work / f"inputs{pass_index}", work / "pass"
    inputs.mkdir(parents=True, exist_ok=True)
    # Pass 0 keeps the key of a single-pass run, whose outputs frozen.json holds.
    key = [seed, stream] + ([pass_index] if pass_index else [])
    rng = np.random.default_rng(key)
    refs = None
    if frozen is not None:
        refs = dict(frozen.get(name, {}).get("any_seed", {}))
        if seed == DEFAULT_SEED and pass_index == 0:
            refs.update(frozen.get(name, {}).get("default_seed", {}))
    return make(rng, inputs, passdir, refs, pass_index)
