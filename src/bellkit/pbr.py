"""Prediction-based-ratio hypothesis test against local realism.

Pipeline: observed frequencies are projected (in Kullback-Leibler
divergence) onto the no-signaling set, the closest local-hidden-variable
mixture to that projection is found by one expectation-maximization run
over deterministic strategies, stopped when its duality gap certifies
the optimum, and the likelihood ratio of the two induced behaviors
drives a p-value bound that is valid without i.i.d. assumptions.  No
step draws random numbers.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .bell import _s_alpha, _setting_totals, correlators_from_counts
from .trial_sim import OUTCOMES, TRIAL_CELLS, check_trial_log

__all__ = [
    "BehaviorDistribution",
    "LhvModel",
    "behavior_from_counts",
    "PbrResult",
    "SupportViolationError",
    "kl_divergence",
    "lhv_vertices",
    "project_no_signaling",
    "closest_lhv",
    "pbr_p_value",
]

_NORM_ATOL = 1e-10
#: closest_lhv stops once its certified distance to the optimal divergence,
#: in bits, is below this.
_GAP_TOL_BITS = 1e-10
#: Cap on closest_lhv's iterations (up to 11000 on tests/lhv_reference.json);
#: a run that hits it still yields a valid ratio after the rescale.
_MAX_EM_ITER = 100_000


class SupportViolationError(ValueError):
    """Reference distribution vanishes where the argument has mass."""


@dataclass
class BehaviorDistribution:
    """Conditional outcome distributions p(ab|xy) with setting weights p_xy.

    p has shape (k, k, 2, 2) indexed (a, b, x, y), with k = 2 outcomes
    (-1, 1) or k = 3 outcomes (-1, 1, u) per side.
    """

    p: np.ndarray
    p_xy: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.p_xy = np.asarray(self.p_xy, dtype=float)
        if self.p.shape not in ((2, 2, 2, 2), (3, 3, 2, 2)):
            raise ValueError(f"behavior must be (k, k, 2, 2), got {self.p.shape}")
        if np.any(self.p < -_NORM_ATOL):
            raise ValueError("negative conditional probability")
        sums = self.p.sum(axis=(0, 1))
        if np.max(np.abs(sums - 1.0)) > _NORM_ATOL:
            raise ValueError(f"conditionals not normalized: sums {sums.ravel()}")
        if self.p_xy.shape != (2, 2) or np.any(self.p_xy < 0) \
                or abs(self.p_xy.sum() - 1.0) > _NORM_ATOL:
            raise ValueError("setting weights must be a 2x2 probability array")

    @property
    def outcomes(self) -> tuple:
        return OUTCOMES[:self.p.shape[0]]

    def no_signaling_residual(self) -> float:
        """Largest violation of the no-signaling marginal equalities."""
        marg_a = self.p.sum(axis=1)  # (k, x, y)
        marg_b = self.p.sum(axis=0)
        ra = np.max(np.abs(marg_a[:, :, 0] - marg_a[:, :, 1]))
        rb = np.max(np.abs(marg_b[:, 0, :] - marg_b[:, 1, :]))
        return float(max(ra, rb))

    def s_value(self, alpha: float = 1.0) -> float:
        """S_alpha of a binary-alphabet behavior (outcome order -1, +1)."""
        return _s_alpha(correlators_from_counts(self.p), alpha)


def behavior_from_counts(counts) -> BehaviorDistribution:
    """Relative frequencies f(ab|xy) = N(ab|xy) / N_xy with setting weights
    N_xy / N, from a CountTable or a (k, k, 2, 2) count array."""
    n, n_xy = _setting_totals(counts, ((2, 2, 2, 2), (3, 3, 2, 2)))
    return BehaviorDistribution(p=n / n_xy, p_xy=n_xy / n_xy.sum())


def kl_divergence(f: BehaviorDistribution, p: BehaviorDistribution) -> float:
    """Setting-weighted divergence sum p_xy f log2(f/p), in bits.

    Conventions: 0 log(0/q) = 0; mass of f on a zero of p raises
    SupportViolationError (divergence is infinite).
    """
    if f.p.shape != p.p.shape:
        raise ValueError("behaviors have mismatched alphabets")
    mask = f.p > 0
    if np.any(mask & (p.p <= 0)):
        raise SupportViolationError("reference behavior vanishes on the support")
    ratio = np.where(mask, f.p, 1.0) / np.where(mask, p.p, 1.0)
    terms = np.where(mask, f.p * np.log2(ratio), 0.0)
    return float(np.einsum("xy,abxy->", f.p_xy, terms))


def lhv_vertices(n_outcomes: int = 2) -> np.ndarray:
    """Deterministic local strategies as one-hot behaviors.

    Each side picks an outcome per input, so there are k^2 strategies
    per side and k^4 vertices; returned as an array of shape
    (k^4, k, k, 2, 2) in lexicographic strategy order.
    """
    k = n_outcomes
    verts = np.zeros((k ** 4, k, k, 2, 2))
    # Outcomes (a0, a1, b0, b1) of each side per input.
    for i, (a0, a1, b0, b1) in enumerate(itertools.product(range(k), repeat=4)):
        verts[i, [a0, a0, a1, a1], [b0, b1, b0, b1], [0, 0, 1, 1], [0, 1, 0, 1]] = 1.0
    return verts


def _ns_constraint_matrix(k: int) -> np.ndarray:
    """Affine constraints (normalization + no-signaling) on the flattened behavior.

    Rows: sum_ab q(a, b, x, y) = 1 for each (x, y), then the equalities of
    Alice's marginal across y for each (a, x) and of Bob's across x for
    each (b, y), leaving out the last outcome, whose equality is implied.
    """
    one, part = np.ones((1, k)), np.eye(k)[:-1]
    eye, diff = np.eye(2), np.array([[1.0, -1.0]])
    blocks = ((one, one, eye, eye), (part, one, eye, diff), (one, part, diff, eye))
    return np.vstack([np.kron(np.kron(np.kron(a, b), x), y) for a, b, x, y in blocks])


def project_no_signaling(f: BehaviorDistribution, obj_tol: float = 1e-14,
                         full_output: bool = False):
    """Kullback-Leibler projection of frequencies onto the no-signaling set.

    Minimizes D(f||q), i.e. -sum p_xy f log q, over behaviors q with the
    no-signaling marginal equalities: damped Newton over the null space
    of the equalities from the uniform behavior, so every iterate meets
    them exactly, with a backtracking line search that keeps q > 0.  It
    stops when half the squared Newton decrement, which estimates the
    objective gap, is below obj_tol.  With a zero frequency the minimizer
    may lie on q = 0; a log barrier of weight 1e-4, 1e-8 and then 1e-12
    per cell follows it there (objective gap at most 1e-12 per cell).
    """
    k = len(f.outcomes)
    a_mat = _ns_constraint_matrix(k)
    null = np.linalg.svd(a_mat)[2][a_mat.shape[0]:].T  # a_mat has full row rank
    coef = (f.p * f.p_xy).ravel()
    qv = np.full(coef.shape, 1.0 / (k * k))
    iterations = 0
    for barrier in (0.0,) if coef.min() > 0 else (1e-4, 1e-8, 1e-12):
        weight = coef + barrier
        for _ in range(100):  # 4 to 18 on smoothed and random behaviors
            iterations += 1
            grad = -null.T @ (weight / qv)
            hess = (null.T * (weight / qv ** 2)) @ null
            dz = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            decrement = float(-grad @ dz)
            converged = decrement / 2.0 < obj_tol
            step, t, obj = null @ dz, 1.0, -np.sum(weight * np.log(qv))
            for _ in range(60):
                trial = qv + t * step
                if np.all(trial > 0) and (converged or -np.sum(weight * np.log(trial))
                                          <= obj - 0.25 * t * decrement):
                    break
                t /= 2.0
            else:
                break  # no descent step left above round-off
            qv = trial
            if converged:
                break

    q = BehaviorDistribution(p=qv.reshape(k, k, 2, 2), p_xy=f.p_xy)
    if full_output:
        b_vec = np.concatenate([np.ones(4), np.zeros(a_mat.shape[0] - 4)])
        return q, {"converged": converged, "iterations": iterations,
                   "objective": kl_divergence(f, q),
                   "gap": float(np.max(np.abs(a_mat @ qv - b_vec)))}
    return q


def closest_lhv(p_ns: BehaviorDistribution) -> tuple["LhvModel", float]:
    """Closest local-hidden-variable behavior in Kullback-Leibler divergence.

    Expectation-maximization over mixtures of deterministic strategies,
    from the uniform mixture: with target pi(abxy) = p_xy p_ns(ab|xy) and
    mixture P = sum_k w_k V_k, each step computes g_k = sum_cells pi V_k / P
    and updates w_k <- w_k g_k / sum_j w_j g_j.  The problem is convex
    (Csiszar and Tusnady 1984), and by Jensen's inequality log2 max_k g_k
    bounds the divergence's distance to the optimum, so the run stops once
    that certified gap is below _GAP_TOL_BITS.  Returns the model and its
    divergence in bits.
    """
    k = len(p_ns.outcomes)
    # Joint distributions over (a, b, x, y): both the target and the
    # vertices carry the setting weights, so the divergence is the
    # setting-weighted conditional KL.
    pi = (p_ns.p * p_ns.p_xy).ravel()
    support = pi > 0
    pi = pi[support]
    v = (lhv_vertices(k) * p_ns.p_xy).reshape(k ** 4, -1)[:, support]
    w = np.full(k ** 4, 1.0 / k ** 4)
    for _ in range(_MAX_EM_ITER):
        g = v @ (pi / (w @ v))
        if np.log2(g.max()) < _GAP_TOL_BITS:
            break
        w = w * g
        w /= w.sum()
    kl = float(np.sum(pi * np.log2(pi / (w @ v))))
    return LhvModel(weights=w, p_xy=p_ns.p_xy), max(kl, 0.0)


@dataclass
class LhvModel:
    """Mixture over the k^4 deterministic local strategies, k = 2 or 3."""

    weights: np.ndarray
    p_xy: np.ndarray = field(default_factory=lambda: np.full((2, 2), 0.25))

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape not in ((16,), (81,)):
            raise ValueError(f"expected 16 or 81 vertex weights, got {self.weights.shape}")
        if np.any(self.weights < -1e-12) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("vertex weights must form a probability vector")

    @property
    def outcomes(self) -> tuple:
        return OUTCOMES[:round(self.weights.size ** 0.25)]

    def behavior(self) -> BehaviorDistribution:
        p = np.einsum("k,kabxy->abxy", self.weights, lhv_vertices(len(self.outcomes)))
        p = p / p.sum(axis=(0, 1))
        return BehaviorDistribution(p=p, p_xy=self.p_xy)


@dataclass
class PbrResult:
    n_trials: int
    log10_p: float
    blocks: int
    final_kl_ns: float
    final_kl_lhv: float
    final_gap_bits: float

    @property
    def p_value(self) -> float:
        return min(10.0 ** self.log10_p, 1.0)

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _ratio_table(freq: BehaviorDistribution):
    """Valid prediction ratios R(abxy) from the current frequency estimate.

    R = p_NS / p_LR is rescaled so that E_vertex[R] <= 1 holds exactly
    for every deterministic strategy, which is the validity condition
    for the resulting p-value bound.  Degenerate fits (the projection is
    already local) fall back to the uninformative R = 1.  Also returns the
    divergences to both fits and log2 of the largest vertex expectation
    before the rescale, which is closest_lhv's certified gap (0 for R = 1).
    """
    p_ns = project_no_signaling(freq)
    lhv, kl_lhv = closest_lhv(p_ns)
    if kl_lhv < 1e-12:
        return np.ones_like(freq.p), kl_divergence(freq, p_ns), kl_lhv, 0.0
    p_lr = lhv.behavior()
    r = np.where(p_lr.p > 0, p_ns.p / np.where(p_lr.p > 0, p_lr.p, 1.0), 0.0)
    # Validity requires sum_xy p_xy sum_ab R(abxy) V(ab|xy) <= 1 for every
    # deterministic vertex V.  The raw ratio satisfies this at the exact
    # divergence minimizer; dividing by the worst vertex expectation
    # restores it when the fit stops a hair short of optimality.
    verts = lhv_vertices(len(freq.outcomes))
    worst = float(np.einsum("abxy,kabxy->k", r * freq.p_xy, verts).max())
    r = r / max(worst, 1.0)
    check = np.einsum("abxy,kabxy->k", r * freq.p_xy, verts)
    if check.max() > 1.0 + 1e-9:
        raise RuntimeError(
            f"prediction ratio violates the validity inequality: max vertex "
            f"expectation {check.max()}"
        )
    return r, kl_divergence(freq, p_ns), kl_lhv, float(np.log2(worst))


def pbr_p_value(cells, block: int = 10000) -> PbrResult:
    """Prediction-based-ratio p-value bound from an ordered trial log.

    cells is the log as a 1-D integer array of `trial_sim.TRIAL_CELLS`
    indices; a log with a no-click u is tested on the ternary alphabet
    (-1, 1, u) per side, any other on the binary one.  Before each block the
    ratio table is rebuilt from the counts of all prior trials plus 0.5
    per cell (the first block uses the uninformative R = 1), so every
    ratio is a genuine prediction and the product bound p <= (prod R_i)^-1
    needs no i.i.d. assumption.
    """
    if block < 1:
        raise ValueError(f"block size must be >= 1, got {block}")
    cells = check_trial_log(cells)
    if not cells.size:
        raise ValueError("empty trial log")
    n = len(TRIAL_CELLS)
    total = np.bincount(cells, minlength=n).reshape(3, 3, 2, 2)
    k = 2 if total[:2, :2].sum() == cells.size else 3

    counts = np.zeros((3, 3, 2, 2))
    log_ratio = np.zeros((3, 3, 2, 2))  # log10 R, uninformative for the first block
    log10_sum = kl_ns = kl_lhv = gap = 0.0
    for pos in range(0, cells.size, block):
        if pos > 0:
            freq = behavior_from_counts(counts[:k, :k] + 0.5)
            ratio, kl_ns, kl_lhv, gap = _ratio_table(freq)
            log_ratio[:k, :k] = np.log10(np.maximum(ratio, 1e-300))
        c = np.bincount(cells[pos:pos + block], minlength=n)
        log10_sum += float(c @ log_ratio.ravel())
        counts += c.reshape(3, 3, 2, 2)

    return PbrResult(n_trials=cells.size, log10_p=min(-log10_sum, 0.0),
                     blocks=-(-cells.size // block), final_kl_ns=kl_ns,
                     final_kl_lhv=kl_lhv, final_gap_bits=gap)
