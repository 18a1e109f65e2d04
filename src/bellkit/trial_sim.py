"""Monte Carlo trial generation and the spacetime-separation audit.

State preparation follows the pulse-cycle scheme of the photon source:
the source emits Psi+ natively and two modulation channels convert
selected pulses to the other Bell states, so a cycle of n pulses
realizes a Bell-diagonal mixture with exact per-state counts.  Detection
is modeled as independent Bernoulli thinning per side, with either
device-independent binning (no click counts as outcome -1) or
post-selection (no-click trials are discarded).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bell import CountTable, MeasurementSetting
from .qstate import PAULI, validate_density_matrix, validate_weights

__all__ = [
    "PulseSchedule",
    "DetectionModel",
    "SpacetimeConfig",
    "SimulationResult",
    "largest_remainder",
    "pulse_schedule",
    "simulate_trials",
    "spacetime_check",
    "behavior_from_counts",
    "trial_log_to_text",
    "parse_trial_log",
    "SPEED_OF_LIGHT_M_PER_NS",
]

SPEED_OF_LIGHT_M_PER_NS = 0.299792458


@dataclass
class PulseSchedule:
    """ON/OFF sequences for the two modulation channels over one cycle.

    Joint per-pulse pattern (ch1, ch2) selects the emitted Bell state:
    (ON, OFF) -> Psi-, (ON, ON) -> Phi-, (OFF, ON) -> Phi+,
    (OFF, OFF) -> Psi+.
    """

    n: int
    ch1: np.ndarray  # bool, True = ON
    ch2: np.ndarray

    @property
    def state_counts(self) -> np.ndarray:
        """Emitted counts in Bell order (Psi+, Psi-, Phi+, Phi-)."""
        on1, on2 = self.ch1, self.ch2
        return np.array([
            int(np.sum(~on1 & ~on2)),
            int(np.sum(on1 & ~on2)),
            int(np.sum(~on1 & on2)),
            int(np.sum(on1 & on2)),
        ])


def largest_remainder(weights: np.ndarray, n: int) -> np.ndarray:
    """Integer counts c_i summing to n with c_i = round(w_i n) by largest remainder."""
    target = np.asarray(weights, dtype=float) * n
    base = np.floor(target).astype(int)
    short = n - base.sum()
    # Distribute the shortfall to the largest fractional parts; ties go to
    # the lower index so the result is deterministic.
    order = np.lexsort((np.arange(len(target)), -(target - base)))
    base[order[:short]] += 1
    return base


def pulse_schedule(weights, n: int) -> PulseSchedule:
    """Channel sequences realizing the Bell mixture over an n-pulse cycle.

    Counts c_i = lambda_i * n are rounded by largest remainder (with a
    warning when they are not integers).  Channel 1 is ON for the first
    c2 + c4 pulses; channel 2 is OFF for c2 pulses, ON for the next
    c3 + c4, and OFF for the rest.
    """
    w = validate_weights(weights)
    if n < 1:
        raise ValueError(f"cycle length must be >= 1, got {n}")
    target = w * n
    counts = largest_remainder(w, n)
    if np.max(np.abs(target - counts)) > 1e-9:
        warnings.warn(
            f"weights times n = {n} are not integers; rounded counts {counts.tolist()}",
            stacklevel=2,
        )
    c1, c2, c3, c4 = counts
    ch1 = np.zeros(n, dtype=bool)
    ch1[: c2 + c4] = True
    ch2 = np.zeros(n, dtype=bool)
    ch2[c2: c2 + c3 + c4] = True
    return PulseSchedule(n=n, ch1=ch1, ch2=ch2)


@dataclass
class DetectionModel:
    """Per-side detection efficiencies and the no-click handling mode.

    mode 'di-binary' maps a no-click to outcome -1 (device-independent
    binning); mode 'post-selection' discards trials with a no-click on
    either side.  A dark count turns a no-click into a uniformly random
    click with probability dark_prob.
    """

    eta_a: float = 1.0
    eta_b: float = 1.0
    mode: str = "di-binary"
    dark_prob: float = 0.0

    def __post_init__(self):
        for name in ("eta_a", "eta_b", "dark_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")
        if self.mode not in ("di-binary", "post-selection"):
            raise ValueError(f"unknown detection mode {self.mode!r}")


@dataclass
class SimulationResult:
    table: CountTable
    trials: int
    discarded: int = 0
    #: Per-trial records (x, y, a, b) with a, b in {-1, 1} or 'u' for a
    #: discarded no-click; None unless a log was requested.
    log: list | None = None


def _outcome_probabilities(rho, settings):
    """Marginals <A_x>, <B_y> and correlators E[x, y] for the four settings."""
    rho = validate_density_matrix(rho)
    a0, a1, b0, b1 = settings
    eye = PAULI["I"]
    ma = np.array([
        np.trace(rho @ np.kron(a.observable, eye)).real for a in (a0, a1)
    ])
    mb = np.array([
        np.trace(rho @ np.kron(eye, b.observable)).real for b in (b0, b1)
    ])
    e = np.empty((2, 2))
    for x, a in enumerate((a0, a1)):
        for y, b in enumerate((b0, b1)):
            e[x, y] = np.trace(rho @ np.kron(a.observable, b.observable)).real
    return ma, mb, e


def _apply_detection(rng, ideal, eta, dark_prob):
    """Thin ideal outcomes: returns (outcome array, detected mask).

    Undetected entries get a uniformly random click with probability
    dark_prob (then count as detected); outcome values for genuinely
    undetected trials are left at the ideal value and must be masked by
    the caller according to the no-click mode.
    """
    n = ideal.shape[0]
    detected = rng.random(n) < eta
    if dark_prob > 0.0:
        dark = (~detected) & (rng.random(n) < dark_prob)
        ideal = np.where(dark, rng.choice([-1, 1], size=n), ideal)
        detected = detected | dark
    return ideal, detected


def simulate_trials(rho, settings, det: DetectionModel, setting_dist,
                    trials: int, seed: int, shards: int = 1,
                    keep_log: bool = False) -> SimulationResult:
    """Seeded Born-rule sampling of a Bell test.

    settings is the tuple (A0, A1, B0, B1); setting_dist is p(x, y) as a
    2x2 array.  Trials are split across shards, each with its own
    deterministically derived substream, and shard results merge in
    fixed shard order, so the output depends only on (seed, shards).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    p_xy = np.asarray(setting_dist, dtype=float)
    if p_xy.shape != (2, 2) or np.any(p_xy < 0) or abs(p_xy.sum() - 1.0) > 1e-10:
        raise ValueError("setting distribution must be a 2x2 probability array")
    ma, mb, e = _outcome_probabilities(rho, settings)

    counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
    discarded = 0
    log_parts = [] if keep_log else None
    shard_sizes = [trials // shards + (1 if i < trials % shards else 0)
                   for i in range(shards)]
    streams = np.random.SeedSequence(seed).spawn(shards)

    for size, ss in zip(shard_sizes, streams):
        if size == 0:
            continue
        rng = np.random.default_rng(ss)
        flat = rng.choice(4, size=size, p=p_xy.ravel())
        x, y = flat // 2, flat % 2

        # Ideal outcomes from p(ab|xy) = (1 + a<A> + b<B> + ab E)/4,
        # sampled as a from its marginal then b from the conditional.
        ax, by, exy = ma[x], mb[y], e[x, y]
        a = np.where(rng.random(size) < (1.0 + ax) / 2.0, 1, -1)
        denom = 2.0 * (1.0 + a * ax)
        pb_plus = (1.0 + a * ax + by + a * exy) / np.where(denom > 0, denom, 1.0)
        b = np.where(rng.random(size) < pb_plus, 1, -1)

        a, det_a = _apply_detection(rng, a, det.eta_a, det.dark_prob)
        b, det_b = _apply_detection(rng, b, det.eta_b, det.dark_prob)

        if det.mode == "di-binary":
            a = np.where(det_a, a, -1)
            b = np.where(det_b, b, -1)
            keep = np.ones(size, dtype=bool)
        else:
            keep = det_a & det_b
            discarded += int(np.sum(~keep))

        ia, ib = (a[keep] + 1) // 2, (b[keep] + 1) // 2
        np.add.at(counts, (ia, ib, x[keep], y[keep]), 1)

        if keep_log:
            for i in range(size):
                if keep[i]:
                    log_parts.append((int(x[i]), int(y[i]), int(a[i]), int(b[i])))
                else:
                    log_parts.append((int(x[i]), int(y[i]),
                                      int(a[i]) if det_a[i] else "u",
                                      int(b[i]) if det_b[i] else "u"))

    return SimulationResult(table=CountTable(counts), trials=trials,
                            discarded=discarded, log=log_parts)


def trial_log_to_text(log) -> str:
    """Newline-delimited 'trial_index,x,y,a,b' records."""
    lines = [f"{i},{x},{y},{a},{b}" for i, (x, y, a, b) in enumerate(log)]
    return "\n".join(lines) + ("\n" if lines else "")


_SETTING_TOKENS = {"0": 0, "1": 1}
_OUTCOME_TOKENS = {"-1": -1, "1": 1, "u": "u"}


def parse_trial_log(text: str) -> list:
    """Inverse of trial_log_to_text; validates the alphabet and temporal order."""
    records = []
    last = -1
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("trial_index"):
            continue
        try:
            idx_s, x_s, y_s, a_s, b_s = line.split(",")
            idx = int(idx_s)
            record = (_SETTING_TOKENS[x_s], _SETTING_TOKENS[y_s],
                      _OUTCOME_TOKENS[a_s], _OUTCOME_TOKENS[b_s])
        except (ValueError, KeyError):
            raise ValueError(f"trial log line {lineno} is not 'index,x,y,a,b' with "
                             f"x, y in {{0, 1}} and a, b in {{-1, 1, u}}: {line!r}"
                             ) from None
        if idx <= last:
            raise ValueError(f"trial log out of temporal order at index {idx}")
        last = idx
        records.append(record)
    return records


@dataclass
class SpacetimeConfig:
    """Geometry and latency budget of one source / two-station layout.

    Distances in meters (ab/sa/sb are free-space separations, lsa/lsb
    the effective optical path lengths from source to station);
    durations in nanoseconds.
    """

    ab_m: float
    sa_m: float
    sb_m: float
    lsa_m: float
    lsb_m: float
    t_e: float
    t_qrng1: float
    t_qrng2: float
    t_delay1: float
    t_delay2: float
    t_pc1: float
    t_pc2: float
    t_m1: float
    t_m2: float

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")

    @classmethod
    def reference_layout(cls) -> "SpacetimeConfig":
        """The experimental layout used throughout the examples."""
        return cls(ab_m=163.0, sa_m=90.0, sb_m=83.0, lsa_m=178.0, lsb_m=182.0,
                   t_e=10.0, t_qrng1=96.0, t_qrng2=96.0, t_delay1=208.0,
                   t_delay2=287.0, t_pc1=112.0, t_pc2=100.0, t_m1=25.0, t_m2=77.0)


def spacetime_check(cfg: SpacetimeConfig) -> dict:
    """Margins (ns) of the four spacelike-separation inequalities.

    locality_1 / locality_2 require each station's measurement to finish
    outside the light cone of the other station's setting choice;
    mi_a / mi_b require each setting choice to be spacelike separated
    from the pair-creation event.  All four margins must be positive.
    """
    c = SPEED_OF_LIGHT_M_PER_NS
    path_skew = (cfg.lsa_m - cfg.lsb_m) / c
    loc1 = cfg.ab_m / c - (cfg.t_e - path_skew + cfg.t_qrng1
                           + cfg.t_delay1 + cfg.t_pc1 + cfg.t_m2)
    loc2 = cfg.ab_m / c - (cfg.t_e + path_skew + cfg.t_qrng2
                           + cfg.t_delay2 + cfg.t_pc2 + cfg.t_m1)
    mi_a = cfg.sa_m / c - (cfg.lsa_m / c - cfg.t_delay1 - cfg.t_pc1)
    mi_b = cfg.sb_m / c - (cfg.lsb_m / c - cfg.t_delay2 - cfg.t_pc2)
    margins = {"locality_1": loc1, "locality_2": loc2, "mi_a": mi_a, "mi_b": mi_b}
    return {**margins, "pass": all(m > 0 for m in margins.values())}


def behavior_from_counts(table, outcome_alphabet: str = "binary"):
    """Relative frequencies f(ab|xy) plus setting weights, as a behavior.

    For the binary alphabet, table is a CountTable.  For the ternary
    alphabet {0, 1, u} (no-click preserved as u), table is a
    (3, 3, 2, 2) count array with outcome order (0, 1, u).
    """
    from .pbr import BehaviorDistribution

    if outcome_alphabet == "binary":
        counts = np.asarray(table.counts if isinstance(table, CountTable) else table,
                            dtype=float)
        labels = (-1, 1)
    elif outcome_alphabet == "ternary":
        counts = np.asarray(table, dtype=float)
        labels = (0, 1, "u")
    else:
        raise ValueError(f"unknown outcome alphabet {outcome_alphabet!r}")
    k = len(labels)
    if counts.shape != (k, k, 2, 2):
        raise ValueError(f"count array must be {(k, k, 2, 2)}, got {counts.shape}")
    n_xy = counts.sum(axis=(0, 1))
    if np.any(n_xy == 0):
        raise ValueError("every setting pair must have at least one trial")
    p = counts / n_xy
    p_xy = n_xy / n_xy.sum()
    return BehaviorDistribution(p=p, p_xy=p_xy, outcomes=labels)
