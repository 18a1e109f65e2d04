"""Monte Carlo trial generation and the spacetime-separation audit.

State preparation follows the pulse-cycle scheme of the photon source:
the source emits Psi+ natively and two modulation channels convert
selected pulses to the other Bell states, so a cycle of n pulses
realizes a Bell-diagonal mixture with exact per-state counts.

A trial is drawn from one exact outcome law (`joint_law`): settings
from p(x, y), ideal outcomes from the Born rule, and per side the
detection channel of `_detection_channel`, with a no-click binned to -1
or kept as u and post-selected away.  A shard draws the counts of the
law's 36 cells as one multinomial, so a count-only run takes the same
time and memory for any number of trials.  A trial log is a uniform
shuffle of the same counts, which is exact: an i.i.d. sequence, given
its counts, is uniformly ordered; in memory it is an int8 column of
`TRIAL_CELLS` indices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 loads it at first use; here, with the module)

from .bell import CountTable, born_behavior
from .qstate import validate_weights

__all__ = [
    "PulseSchedule",
    "DetectionModel",
    "SpacetimeConfig",
    "SimulationResult",
    "OUTCOMES",
    "TRIAL_CELLS",
    "largest_remainder",
    "pulse_schedule",
    "joint_law",
    "simulate_trials",
    "spacetime_check",
    "check_trial_log",
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
    #: int8 index into TRIAL_CELLS of each trial, in temporal order; None
    #: unless a log was requested.
    log: np.ndarray | None = None


#: Recorded outcome of index 0, 1, 2 on either side; u is a no-click.
OUTCOMES = (-1, 1, "u")
#: (x, y, a, b) record of cell ((ia*3 + ib)*2 + x)*2 + y of a flattened `joint_law`.
TRIAL_CELLS = tuple((x, y, a, b) for a in OUTCOMES for b in OUTCOMES
                    for x in (0, 1) for y in (0, 1))


def _detection_channel(eta: float, dark_prob: float, binned: bool) -> np.ndarray:
    """K[r, a]: recorded outcome r in (-1, +1, u) given ideal outcome a in (-1, +1).

    r = a with probability eta + (1 - eta) d / 2, r = -a with (1 - eta) d / 2
    (a dark count is a uniformly random click), u with (1 - eta)(1 - d).
    """
    flip = (1.0 - eta) * dark_prob / 2.0
    miss = (1.0 - eta) * (1.0 - dark_prob)
    if binned:  # device-independent binning records a no-click as -1
        return np.array([[eta + flip + miss, flip + miss], [flip, eta + flip],
                         [0.0, 0.0]])
    return np.array([[eta + flip, flip], [flip, eta + flip], [miss, miss]])


def joint_law(rho, settings, det: DetectionModel, p_xy) -> np.ndarray:
    """Exact probability P[a, b, x, y] of one recorded trial.

    Outcome index 0, 1, 2 <-> -1, +1, u on each side; settings is the
    tuple (A0, A1, B0, B1) and p_xy the 2x2 setting distribution.  In
    di-binary mode the u cells hold zero; in post-selection mode every
    cell with a u is a discarded trial.
    """
    p_xy = np.asarray(p_xy, dtype=float)
    if p_xy.shape != (2, 2) or np.any(p_xy < 0) or abs(p_xy.sum() - 1.0) > 1e-10:
        raise ValueError("setting distribution must be a 2x2 probability array")
    binned = det.mode == "di-binary"
    law = np.einsum("ra,sb,abxy,xy->rsxy",
                    _detection_channel(det.eta_a, det.dark_prob, binned),
                    _detection_channel(det.eta_b, det.dark_prob, binned),
                    born_behavior(rho, *settings), p_xy / p_xy.sum())
    if law.min() < -1e-12 or abs(law.sum() - 1.0) > 1e-12:
        raise ValueError(f"invalid outcome law: {law.min()=}, {law.sum()=}")
    law = np.clip(law, 0.0, None)  # round-off only
    return law / law.sum()


def simulate_trials(rho, settings, det: DetectionModel, setting_dist,
                    trials: int, seed: int, shards: int = 1,
                    keep_log: bool = False) -> SimulationResult:
    """Seeded sampling of a Bell test from its exact outcome law.

    settings is the tuple (A0, A1, B0, B1); setting_dist is p(x, y) as a
    2x2 array.  Each shard, on its own substream of the seed, draws its
    cell counts of `joint_law` as one multinomial and then, with
    keep_log, its records as a uniform shuffle of those counts.  Shards
    merge in shard order, so the output depends only on (seed, shards),
    and the counts do not depend on keep_log.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    law = joint_law(rho, settings, det, setting_dist).ravel()

    cells = np.zeros(law.size, dtype=np.int64)
    orders = []
    shard_sizes = [trials // shards + (1 if i < trials % shards else 0)
                   for i in range(shards)]
    for size, ss in zip(shard_sizes, np.random.SeedSequence(seed).spawn(shards)):
        rng = np.random.default_rng(ss)
        counts = rng.multinomial(size, law)
        cells += counts
        if keep_log:
            order = np.repeat(np.arange(law.size, dtype=np.int8), counts)
            rng.shuffle(order)
            orders.append(order)

    table = CountTable(cells.reshape(3, 3, 2, 2)[:2, :2])
    return SimulationResult(table=table, trials=trials,
                            discarded=trials - table.total,
                            log=np.concatenate(orders) if keep_log else None)


def check_trial_log(log) -> np.ndarray:
    """log as a 1-D integer array of TRIAL_CELLS indices, else ValueError
    (a list of (x, y, a, b) tuples would be a 2-D array)."""
    cells = np.asarray(log)
    if cells.ndim != 1 or cells.dtype.kind not in "iu" or np.any(
            (cells < 0) | (cells >= len(TRIAL_CELLS))):
        raise ValueError(f"a trial log must be a 1-D integer array of TRIAL_CELLS "
                         f"indices 0..35, got {cells.dtype} of shape {cells.shape}")
    return cells


def trial_log_to_text(log) -> str:
    """Newline-delimited 'trial_index,x,y,a,b' records, indexed from 0."""
    from .trial_log import to_text  # compiled on first use: a count-only run skips it

    return to_text(check_trial_log(log))


def parse_trial_log(text: str | bytes) -> np.ndarray:
    """Inverse of trial_log_to_text: the int8 TRIAL_CELLS column of a log.

    The log is ASCII (str input is encoded to UTF-8 first, so any other
    character makes a bad line), with lines ending in '\\n' or '\\r\\n'.
    ASCII whitespace around a line is ignored, and blank lines and lines
    that start with 'trial_index' (a header) are skipped.  Every other
    line is 'index,x,y,a,b' with x, y in {0, 1}, a, b in {-1, 1, u} and an
    index of ASCII digits that fits in int64 and is larger than the index
    of the line before.  Anything else is a ValueError that names and
    quotes the first bad line.  The lines are parsed about 256 KiB at a
    time, so the temporaries do not grow with the log.
    """
    from .trial_log import parse

    return parse(text)


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
