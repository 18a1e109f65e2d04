"""Device-independent lower bounds from an observed Bell value.

Closed-form certificates on entanglement of formation, negativity and
measurement incompatibility, plus the multi-alpha incompatibility bound
for two-qubit states and planar projective measurements (the regime
realized in the experiment; the restriction is recorded in the report
metadata).  That bound inverts, by bisection, the standard CHSH value of
the alpha-weighted CHSH maximizer (Acin, Massar and Pironio, PRL 108,
100402 (2012)) at each incompatibility level, which is itself closed
form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuantumBoundExceededError",
    "InfeasibleBellValueError",
    "DiBoundReport",
    "eof_lower_bound",
    "negativity_lower_bound",
    "incompatibility_lower_bound",
    "multi_alpha_incompatibility_bound",
    "quantify",
]

_SQRT8 = 2.0 * np.sqrt(2.0)
_DOMAIN_SLACK = 1e-9


class QuantumBoundExceededError(ValueError):
    """Observed Bell value exceeds the quantum maximum for this alpha."""


class InfeasibleBellValueError(ValueError):
    """No realization in the optimization model attains the requested value."""


def _check_alpha(alpha: float):
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")


def _check_quantum_bound(s: float, alpha: float):
    q_max = 2.0 * np.sqrt(1.0 + alpha * alpha)
    if s > q_max + _DOMAIN_SLACK:
        raise QuantumBoundExceededError(
            f"S = {s} exceeds the quantum maximum 2*sqrt(1+alpha^2) = {q_max}"
        )


def eof_lower_bound(s: float, alpha: float = 1.0) -> float:
    """max(0, (S - 2a) / (2 sqrt(1+a^2) - 2a)): certified entanglement of formation."""
    _check_alpha(alpha)
    _check_quantum_bound(s, alpha)
    denom = 2.0 * np.sqrt(1.0 + alpha * alpha) - 2.0 * alpha
    return max(0.0, (s - 2.0 * alpha) / denom)


def negativity_lower_bound(s: float, alpha: float = 1.0) -> float:
    """max(0, (S - 2a) / (4 (sqrt(1+a^2) - a))): certified negativity."""
    _check_alpha(alpha)
    _check_quantum_bound(s, alpha)
    denom = 4.0 * (np.sqrt(1.0 + alpha * alpha) - alpha)
    return max(0.0, (s - 2.0 * alpha) / denom)


def incompatibility_lower_bound(s: float) -> float:
    """Certified min{c*, 1-c*} from a standard CHSH value (alpha = 1).

    The effective overlap of either side's measurement pair is upper
    bounded by 1/2 + (S/8) sqrt(8 - S^2); the incompatibility bound is
    its complement, clamped at 0.
    """
    if s > _SQRT8 + _DOMAIN_SLACK:
        raise QuantumBoundExceededError(f"S = {s} exceeds 2*sqrt(2)")
    s = min(s, _SQRT8)
    if s <= 2.0:
        return 0.0
    return max(0.0, 1.0 - (0.5 + (s / 8.0) * np.sqrt(max(8.0 - s * s, 0.0))))


# ---------------------------------------------------------------------------
# Multi-alpha numeric bound
# ---------------------------------------------------------------------------

def _best_realization(phi: float, alpha: float, side: str):
    """Maximize S_alpha over two-qubit states and planar settings with
    the named side's Bloch-angle separation fixed to phi.

    Returns (s_alpha_max, correlator matrix E[x, y] of the maximizer).
    Every two-qubit correlation tensor has operator norm <= 1, so
    S_alpha <= |alpha a0 + a1| + |alpha a0 - a1| (side A) or
    alpha |b0 + b1| + |b0 - b1| (side B) for the Bloch vectors of the
    settings.  The maximally entangled state, with the free side's
    settings along those sums, attains the bound whatever the centre
    angle of the fixed pair; then E = cos(a_x - b_y).
    """
    pair = np.array([-phi / 2.0, phi / 2.0])
    u = np.exp(1j * pair)
    if side == "A":
        a = pair
        v = np.array([alpha * u[0] + u[1], alpha * u[0] - u[1]])
        b = np.angle(v)
        value = np.abs(v).sum()
    else:
        b = pair
        v = np.array([u[0] + u[1], u[0] - u[1]])
        a = np.angle(v)
        value = alpha * abs(v[0]) + abs(v[1])
    return float(value), np.cos(a[:, None] - b[None, :])


def _chsh_of_alpha_optimal(t: float, alpha: float, side: str) -> float:
    """Standard CHSH value of the S_alpha-maximizing realization at
    incompatibility level t = min{c, 1-c} of the named side."""
    phi = 2.0 * np.arcsin(np.sqrt(np.clip(t, 0.0, 0.5)))
    _, e = _best_realization(phi, alpha, side)
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


def multi_alpha_incompatibility_bound(s: float, alpha: float = 1.0, side: str = "A",
                                      tol: float = 1e-10, full_output: bool = False):
    """Numeric lower bound on min{c*, 1-c*} of one side from a CHSH value.

    For each incompatibility level t of the named side the maximal
    S_alpha realization (two-qubit state, planar projective
    measurements) is computed; inverting the monotone map from t to the
    standard CHSH value of that realization against the observed value
    s gives the certified level.  At alpha = 1 this reproduces the
    closed form of incompatibility_lower_bound.

    Overlap convention for projective qubit pairs: c = cos^2(phi/2)
    with phi the Bloch angle between the observables.
    """
    _check_alpha(alpha)
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if s > _SQRT8 + _DOMAIN_SLACK:
        raise QuantumBoundExceededError(f"S = {s} exceeds 2*sqrt(2)")
    s = min(s, _SQRT8)

    result = None
    if s <= 2.0:
        result = (0.0, 0.0)
    else:
        hi_val = _chsh_of_alpha_optimal(0.5, alpha, side)
        if s > hi_val + 1e-7:
            raise InfeasibleBellValueError(
                f"no realization at alpha = {alpha} (side {side}) reaches CHSH {s}; "
                f"maximum is {hi_val}"
            )
        lo, hi = 0.0, 0.5
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _chsh_of_alpha_optimal(mid, alpha, side) < s:
                lo = mid
            else:
                hi = mid
        result = (0.5 * (lo + hi), hi - lo)

    bound, precision = result
    if full_output:
        return {
            "bound": bound,
            "achieved_precision": precision,
            "method": "planar-qubit envelope inversion",
            "side": side,
            "alpha": alpha,
        }
    return bound


@dataclass
class DiBoundReport:
    """Certified lower bounds from one observed Bell value."""

    s: float
    alpha: float
    eof_lb: float
    negativity_lb: float
    incompatibility_lb: float
    method: str = "closed-form"
    achieved_precision: float = 0.0
    error: str | None = field(default=None)

    def to_dict(self) -> dict:
        d = {
            "s": self.s,
            "alpha": self.alpha,
            "eof_lb": self.eof_lb,
            "negativity_lb": self.negativity_lb,
            "incompatibility_lb": self.incompatibility_lb,
            "method": self.method,
            "achieved_precision": self.achieved_precision,
        }
        if self.error is not None:
            d["error"] = self.error
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def quantify(s: float, alpha: float = 1.0) -> DiBoundReport:
    """All three certificates for one (S, alpha) observation.

    At alpha = 1 all three are closed form; otherwise the report's method
    and achieved precision are those of multi_alpha_incompatibility_bound.
    """
    if alpha == 1.0:
        inc = {"bound": incompatibility_lower_bound(s), "method": "closed-form",
               "achieved_precision": 0.0}
    else:
        inc = multi_alpha_incompatibility_bound(s, alpha, full_output=True)
    return DiBoundReport(
        s=s,
        alpha=alpha,
        eof_lb=eof_lower_bound(s, alpha),
        negativity_lb=negativity_lower_bound(s, alpha),
        incompatibility_lb=inc["bound"],
        method=inc["method"],
        achieved_precision=inc["achieved_precision"],
    )
