"""Generalized (alpha-weighted) CHSH functional.

S_alpha = alpha<A0 B0> + alpha<A0 B1> + <A1 B0> - <A1 B1>, evaluated
either from recorded counts, or exactly from a state and planar qubit
measurement settings (the analytic oracle used by the simulator and the
interplay solver).  Also provides the waveplate/Pockels-cell angle
mapping used by the hardware front end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .qstate import PAULI, pauli_moments, validate_density_matrix

__all__ = [
    "MeasurementSetting",
    "CountTable",
    "EmptySettingError",
    "correlators_from_counts",
    "s_alpha_from_counts",
    "s_alpha_expected",
    "sign_optimal_s_alpha",
    "correlators_expected",
    "born_behavior",
    "hardware_angles",
    "inverse_hardware_angles",
    "chsh_optimal_settings",
]

#: Deterministic local outcome relabelings (sA0, sA1, sB0, sB1) with even
#: parity; flipping all of one party's outcomes twice is the identity, so
#: these 8 patterns exhaust the distinct sign actions on the correlators.
RELABELINGS = tuple(
    p for p in itertools.product((1, -1), repeat=4) if p[0] * p[1] * p[2] * p[3] == 1
)


class EmptySettingError(ValueError):
    """A correlator was requested for a setting pair with zero trials."""


@dataclass(frozen=True)
class MeasurementSetting:
    """Planar qubit observable cos(theta) sigma_z + sin(theta) sigma_x."""

    theta: float  # radians

    @classmethod
    def from_waveplate_degrees(cls, theta_w: float) -> "MeasurementSetting":
        """Setting from a waveplate angle: observable cos(2 t_w) Z + sin(2 t_w) X."""
        return cls(theta=2.0 * np.deg2rad(theta_w))

    @classmethod
    def from_degrees(cls, theta_deg: float) -> "MeasurementSetting":
        return cls(theta=np.deg2rad(theta_deg))

    @property
    def bloch(self) -> np.ndarray:
        """Unit Bloch vector (x, y, z) of the observable."""
        return np.array([np.sin(self.theta), 0.0, np.cos(self.theta)])

    @property
    def observable(self) -> np.ndarray:
        return np.cos(self.theta) * PAULI["z"] + np.sin(self.theta) * PAULI["x"]


def chsh_optimal_settings() -> tuple[MeasurementSetting, ...]:
    """(A0, A1, B0, B1) saturating Tsirelson's bound on |Phi+>."""
    return (
        MeasurementSetting(0.0),
        MeasurementSetting(np.pi / 2),
        MeasurementSetting(np.pi / 4),
        MeasurementSetting(-np.pi / 4),
    )


@dataclass
class CountTable:
    """Coincidence counts N[a][b][x][y], index 0 <-> outcome -1, 1 <-> +1."""

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((2, 2, 2, 2), dtype=np.int64)
    )

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (2, 2, 2, 2):
            raise ValueError(f"count table must be (2,2,2,2), got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValueError("negative counts")

    def setting_total(self, x: int, y: int) -> int:
        return int(self.counts[:, :, x, y].sum())

    @property
    def total(self) -> int:
        return int(self.counts.sum())


OUTCOME_VALUES = np.array([-1, 1])


def _setting_totals(counts, shapes=((2, 2, 2, 2),)) -> tuple[np.ndarray, np.ndarray]:
    """A CountTable's or (a, b, x, y) array's counts and setting totals N_xy;
    the first setting pair, x then y, with no trials is an EmptySettingError."""
    n = np.asarray(counts.counts if isinstance(counts, CountTable) else counts)
    if n.shape not in shapes:
        raise ValueError(f"count array must have a shape in {shapes}, got {n.shape}")
    n_xy = n.sum(axis=(0, 1))
    if not n_xy.all():
        x, y = np.argwhere(n_xy == 0)[0]
        raise EmptySettingError(f"no trials recorded for setting pair (x={x}, y={y})")
    return n, n_xy


def correlators_from_counts(counts) -> np.ndarray:
    """E[x, y] = (N[-1,-1] - N[-1,1] - N[1,-1] + N[1,1]) / N_xy of a CountTable or a
    (2, 2, 2, 2) array of counts (an integer numerator stays exact) or frequencies."""
    n, n_xy = _setting_totals(counts)
    return (n[0, 0] - n[0, 1] - n[1, 0] + n[1, 1]) / n_xy


def s_alpha_from_counts(table: CountTable, alpha: float = 1.0) -> float:
    """Empirical S_alpha from a count table; every setting pair must be populated."""
    _check_alpha(alpha)
    return _s_alpha(correlators_from_counts(table), alpha)


def _check_alpha(alpha: float):
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")


def _moments_expected(rho, a0, a1, b0, b1) -> np.ndarray:
    """Exact moments M[i, j] = Tr(rho O_i x O_j), O = (I, A0, A1) and (I, B0, B1)."""
    def rows(s0, s1):  # each observable in the Pauli basis (I, x, y, z)
        return np.array([[1.0, 0.0, 0.0, 0.0], [0.0, *s0.bloch], [0.0, *s1.bloch]])
    return rows(a0, a1) @ pauli_moments(validate_density_matrix(rho)) @ rows(b0, b1).T


def correlators_expected(rho, a0: MeasurementSetting, a1: MeasurementSetting,
                         b0: MeasurementSetting, b1: MeasurementSetting) -> np.ndarray:
    """Exact correlator matrix E[x, y] = Tr(rho A_x x B_y)."""
    return _moments_expected(rho, a0, a1, b0, b1)[1:, 1:]


def born_behavior(rho, a0: MeasurementSetting, a1: MeasurementSetting,
                  b0: MeasurementSetting, b1: MeasurementSetting) -> np.ndarray:
    """Born-rule p(ab|xy) = (1 + a<A_x> + b<B_y> + ab E[x, y]) / 4.

    An (a, b, x, y) array indexed like a count table (0 <-> -1, 1 <-> +1).
    """
    m = _moments_expected(rho, a0, a1, b0, b1)  # <A_x> = m[1+x, 0], <B_y> = m[0, 1+y]
    sa = OUTCOME_VALUES[:, None, None, None]
    sb = OUTCOME_VALUES[None, :, None, None]
    return (1.0 + sa * m[1:, :1] + sb * m[:1, 1:] + sa * sb * m[1:, 1:]) / 4.0


def _s_alpha(e: np.ndarray, alpha: float) -> float:
    return float(alpha * e[0, 0] + alpha * e[0, 1] + e[1, 0] - e[1, 1])


def s_alpha_expected(rho, a0, a1, b0, b1, alpha: float = 1.0,
                     sign_optimal: bool = False) -> float:
    """Exact S_alpha = alpha<A0B0> + alpha<A0B1> + <A1B0> - <A1B1> by trace.

    With sign_optimal=True, returns the maximum of S over the 8
    deterministic local outcome relabelings (a free local operation);
    useful when the Bell-basis sign conventions make the raw value
    negative.
    """
    _check_alpha(alpha)
    e = correlators_expected(rho, a0, a1, b0, b1)
    if not sign_optimal:
        return _s_alpha(e, alpha)
    return sign_optimal_s_alpha(e, alpha)[0]


def sign_optimal_s_alpha(correlators: np.ndarray, alpha: float = 1.0
                         ) -> tuple[float, tuple[int, int, int, int]]:
    """Maximum S_alpha over outcome relabelings, and the pattern achieving it.

    The pattern (sA0, sA1, sB0, sB1) multiplies outcome a by sA_x under
    input x and b by sB_y under input y; ties break on the lowest
    pattern index.
    """
    _check_alpha(alpha)
    e = np.asarray(correlators, dtype=float)
    best_val, best_pat = -np.inf, None
    for pat in RELABELINGS:
        val = _s_alpha(e * np.outer(pat[:2], pat[2:]), alpha)
        if val > best_val + 1e-15:
            best_val, best_pat = val, pat
    return best_val, best_pat


def hardware_angles(theta0_deg: float, theta1_deg: float) -> tuple[float, float]:
    """Map measurement angles (degrees) to (PC rotation gamma, HWP angle omega).

    gamma = 45 - (theta0 + theta1)/2 and omega = 22.5 + (theta0 - theta1)/4:
    the polarization controller only shifts the sum of the two settings,
    the half-wave plate only their difference.
    """
    gamma = 45.0 - (theta0_deg + theta1_deg) / 2.0
    omega = 22.5 + (theta0_deg - theta1_deg) / 4.0
    return gamma, omega


def inverse_hardware_angles(gamma_deg: float, omega_deg: float) -> tuple[float, float]:
    """Inverse of hardware_angles; round-trips exactly."""
    s = 2.0 * (45.0 - gamma_deg)          # theta0 + theta1
    d = 4.0 * (omega_deg - 22.5)          # theta0 - theta1
    return (s + d) / 2.0, (s - d) / 2.0
