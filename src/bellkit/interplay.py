"""Fixed-entanglement interplay between nonlocality and incompatibility.

Maximizes S_alpha over Bell-diagonal states of fixed entanglement with
Alice's settings pinned to sigma_z, sigma_x and Bob's pair
cos(theta) sigma_z +/- sin(theta) sigma_x; the angle theta in [0, pi/4]
tunes Bob's incompatibility sin^2(theta).  Sign-optimal outcome
relabeling is applied throughout, so the reported value is
2 alpha cos(theta) |T_zz| + 2 sin(theta) |T_xx| at the optimal weights.

Both maxima are exact.  S_alpha is linear in the weights, and the four
outcome relabelings only permute its coefficients c over the Bell
components, so one coefficient vector suffices.  At fixed concurrence
the two largest coefficients take all the weight, which gives
2 alpha cos(theta) + 2 C sin(theta) for alpha >= 1; its maximum over
theta, 2 sqrt(alpha^2 + C^2), is the Horodecki maximal CHSH value of
that state at alpha = 1 (Horodecki et al., PLA 200, 340 (1995)).  At
fixed entropy the weights take the Gibbs form w ~ exp(beta c)
(Jaynes 1957), with beta a 1-D root.  Both roots are monotone and
bracketed, and `_root` solves them without scipy.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .qstate import BELL_STATE_CORRELATIONS, validate_weights

__all__ = [
    "InterplayPoint",
    "InfeasibleConstraintError",
    "MEASURES",
    "max_s_fixed_concurrence",
    "max_s_fixed_ode",
    "trajectory",
    "trajectory_to_csv",
    "fixed_state_curve",
]


class InfeasibleConstraintError(ValueError):
    """The entanglement constraint cannot be met by any Bell-diagonal state."""


@dataclass
class InterplayPoint:
    theta: float            # Bob's half-angle, radians in [0, pi/4]
    incompatibility: float  # sin^2(theta)
    s_alpha: float
    weights: np.ndarray     # Bell-diagonal weights achieving s_alpha

    def __post_init__(self):
        self.weights = validate_weights(self.weights, atol=1e-9)


def _check_theta(theta: float):
    if not -1e-12 <= theta <= np.pi / 4 + 1e-12:
        raise ValueError(f"theta = {theta} outside [0, pi/4]")


def _objective_coeffs(theta: float, alpha: float) -> np.ndarray:
    """Linear coefficients of S = 2a cos(t) T_zz + 2 sin(t) T_xx in weights.

    The components take all four values +/-2a cos(t) +/-2 sin(t), so any
    relabeling (T_zz, T_xx) -> (+/-T_zz, +/-T_xx) permutes them.
    """
    t_xx, _, t_zz = BELL_STATE_CORRELATIONS.T
    return 2.0 * alpha * np.cos(theta) * t_zz + 2.0 * np.sin(theta) * t_xx


def _point(theta, alpha, weights) -> InterplayPoint:
    w = np.asarray(weights)
    return InterplayPoint(theta=float(theta), incompatibility=float(np.sin(theta) ** 2),
                          s_alpha=float(fixed_state_curve(w, alpha, theta)), weights=w)


def max_s_fixed_concurrence(concurrence: float, theta: float,
                            alpha: float = 1.0) -> InterplayPoint:
    """Maximal S_alpha over Bell-diagonal states with the given concurrence.

    The constraint fixes lambda_max = (1 + C)/2 >= 1/2, so the remaining
    mass 1 - lambda_max never exceeds lambda_max: the maximum puts
    lambda_max on the largest coefficient and the rest on the second
    largest.  Ties break on the lowest Bell index.
    """
    if not 0.0 <= concurrence <= 1.0:
        raise InfeasibleConstraintError(f"concurrence {concurrence} outside [0, 1]")
    _check_theta(theta)
    lam_max = (1.0 + concurrence) / 2.0
    first, second = np.argsort(-_objective_coeffs(theta, alpha), kind="stable")[:2]
    w = np.zeros(4)
    w[first], w[second] = lam_max, 1.0 - lam_max
    return _point(theta, alpha, w)


def _entropy_bits(w: np.ndarray) -> float:
    nz = w[w > 0]
    return float(-np.sum(nz * np.log2(nz)))


def _gibbs(c: np.ndarray, beta: float) -> np.ndarray:
    w = np.exp(beta * (c - c.max()))
    return w / w.sum()


def _root(f, lo: float, hi: float) -> float:
    """Zero of f in [lo, hi], where f(lo) and f(hi) differ in sign, by Illinois
    regula falsi (secant steps; an end kept twice in a row has its value
    halved).  Stops when the next step is not strictly inside the bracket (the
    ulp guard), at a 1e-15 bracket or after 100 steps; returns the end of
    smaller |f|."""
    (a, fa), (b, fb) = (lo, f(lo)), (hi, f(hi))
    ga, gb, side = fa, fb, 0
    for _ in range(100):
        x = b - gb * (b - a) / (gb - ga)
        if b - a <= 1e-15 or not a < x < b:
            break
        fx = f(x)
        if (fx < 0) == (fa < 0):
            a, fa, ga, gb, side = x, fx, fx, gb / 2 if side < 0 else gb, -1
        else:
            b, fb, gb, ga, side = x, fx, fx, ga / 2 if side > 0 else ga, 1
    return a if abs(fa) <= abs(fb) else b


def max_s_fixed_ode(ode: float, theta: float, alpha: float = 1.0) -> InterplayPoint:
    """Maximal S_alpha over Bell-diagonal states with one-way distillable
    entanglement 1 - H(lambda) equal to ode.

    {H >= h} is convex, so a linear objective at entropy h is maximized
    by w ~ exp(beta c) with beta >= 0 solving H(w) = h.  When the largest
    coefficient is shared by k components and log2(k) >= h, the maximum
    is that coefficient itself, reached by a mixture of the tied
    components with entropy exactly h.
    """
    if not -1.0 < ode <= 1.0:
        raise InfeasibleConstraintError(f"ODE value {ode} outside (-1, 1]")
    _check_theta(theta)

    if ode > 1.0 - 1e-9:
        # Pure Bell state is the only feasible point; Psi+ by convention.
        return _point(theta, alpha, [1.0, 0.0, 0.0, 0.0])

    h = 1.0 - ode
    c = _objective_coeffs(theta, alpha)
    tied = c >= c.max() - 1e-12
    if np.log2(tied.sum()) >= h:
        # Slide from the uniform mixture of the ties to its first member.
        uniform = tied / tied.sum()
        vertex = np.eye(4)[np.argmax(tied)]
        t = _root(lambda t: _entropy_bits((1 - t) * uniform + t * vertex) - h, 0.0, 1.0)
        return _point(theta, alpha, (1 - t) * uniform + t * vertex)
    # H(beta) falls from 2 bits at beta = 0 towards log2(k) < h.
    beta_hi = 1.0
    while _entropy_bits(_gibbs(c, beta_hi)) > h:
        beta_hi *= 2.0
    beta = _root(lambda b: _entropy_bits(_gibbs(c, b)) - h, 0.0, beta_hi)
    return _point(theta, alpha, _gibbs(c, beta))


#: Solver of each fixed-entanglement measure of `trajectory`.
MEASURES = {"concurrence": max_s_fixed_concurrence, "ode": max_s_fixed_ode}


def trajectory(measure: str, level: float, alpha: float,
               theta_grid) -> list[InterplayPoint]:
    """Per-theta maxima along a sorted grid in [0, pi/4].

    measure is 'concurrence' or 'ode'; level is the fixed entanglement
    value.
    """
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {list(MEASURES)}, got {measure!r}")
    grid = np.asarray(theta_grid, dtype=float)
    if np.any(np.diff(grid) < 0):
        raise ValueError("theta grid must be sorted")
    solve = MEASURES[measure]
    return [solve(level, t, alpha) for t in grid]


def fixed_state_curve(weights, alpha: float, theta_grid) -> np.ndarray:
    """Sign-optimal S_alpha of one fixed Bell-diagonal state along a grid."""
    t_xx, _, t_zz = np.abs(validate_weights(weights) @ BELL_STATE_CORRELATIONS)
    grid = np.asarray(theta_grid, dtype=float)
    return 2.0 * alpha * np.cos(grid) * t_zz + 2.0 * np.sin(grid) * t_xx


def trajectory_to_csv(points: list[InterplayPoint]) -> str:
    buf = io.StringIO()
    buf.write("theta_rad,incompat,s_alpha,l1,l2,l3,l4\n")
    for p in points:
        w = p.weights
        buf.write(f"{p.theta:.12g},{p.incompatibility:.12g},{p.s_alpha:.12g},"
                  f"{w[0]:.12g},{w[1]:.12g},{w[2]:.12g},{w[3]:.12g}\n")
    return buf.getvalue()
