"""Maximum-likelihood two-qubit state tomography.

The reconstructed state is parameterized as rho = T(t)+ T(t) / Tr(...)
with T a lower-triangular complex matrix built from 16 real parameters,
so physicality (Hermiticity, positivity, unit trace) holds by
construction.  Measurements are the 36 product projectors over the
per-photon states H, V, +, -, R, L (three mutually unbiased bases per
arm), and the fit minimizes a Gaussian-approximation likelihood of the
observed counts.  `mle_fit` imports scipy when it runs, not this module.
"""

from __future__ import annotations

import numpy as np

from .qstate import PAULI, validate_density_matrix

__all__ = [
    "BASIS_LABELS",
    "SINGLE_QUBIT_STATES",
    "projector_set",
    "t_matrix",
    "rho_from_t",
    "t_from_rho",
    "log_likelihood",
    "probabilities",
    "expected_counts",
    "linear_inversion",
    "simulate_counts",
    "mle_fit",
]

_SQ2 = np.sqrt(2.0)

BASIS_LABELS = ("H", "V", "+", "-", "R", "L")

#: Per-photon analyzer states in the canonical order; consecutive pairs
#: are the eigenbases of sigma_z, sigma_x, sigma_y.
SINGLE_QUBIT_STATES = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / _SQ2,
    "-": np.array([1.0, -1.0], dtype=complex) / _SQ2,
    "R": np.array([1.0, 1j], dtype=complex) / _SQ2,
    "L": np.array([1.0, -1j], dtype=complex) / _SQ2,
}


def projector_set() -> np.ndarray:
    """The 36 product kets, lexicographic over (A-state, B-state).

    Returned as a (36, 4) array of state vectors; the projector is the
    outer product of each row with itself.
    """
    kets = np.empty((36, 4), dtype=complex)
    i = 0
    for la in BASIS_LABELS:
        for lb in BASIS_LABELS:
            kets[i] = np.kron(SINGLE_QUBIT_STATES[la], SINGLE_QUBIT_STATES[lb])
            i += 1
    return kets


_KETS = projector_set()

#: Flat projector indices grouped by basis-pair setting, 9 settings of 4
#: outcomes each, settings ordered lexicographically over (Z, X, Y) pairs.
SETTING_GROUPS = [
    [6 * (2 * sa + da) + (2 * sb + db) for da in (0, 1) for db in (0, 1)]
    for sa in range(3) for sb in range(3)
]


def t_matrix(t) -> np.ndarray:
    """Lower-triangular T from 16 real parameters.

    Diagonal entries are t1..t4 (real); the sub-diagonal entries pair the
    remaining parameters as real + i imaginary, filled column by column
    below the diagonal.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (16,):
        raise ValueError(f"expected 16 real parameters, got shape {t.shape}")
    t1, t2, t3, t4 = t[0], t[1], t[2], t[3]
    return np.array([
        [t1, 0, 0, 0],
        [t[4] + 1j * t[5], t2, 0, 0],
        [t[10] + 1j * t[11], t[6] + 1j * t[7], t3, 0],
        [t[14] + 1j * t[15], t[12] + 1j * t[13], t[8] + 1j * t[9], t4],
    ], dtype=complex)


def rho_from_t(t) -> np.ndarray:
    """Physical density matrix T+T / Tr(T+T); rejects the all-zero point."""
    tm = t_matrix(t)
    gram = tm.conj().T @ tm
    norm = np.trace(gram).real
    if norm <= 0.0:
        raise ValueError("T parameters are all zero; state undefined")
    return gram / norm


_FLIP = np.fliplr(np.eye(4))


def t_from_rho(rho, jitter: float = 1e-12) -> np.ndarray:
    """Parameters t with rho_from_t(t) = rho, via a reversed Cholesky factor.

    rho = U U+ with U upper triangular is obtained by Cholesky-factoring
    the index-reversed matrix; T = U+ is then lower triangular.  A small
    multiple of the identity regularizes rank-deficient inputs.
    """
    rho = validate_density_matrix(rho)
    work = _FLIP @ rho @ _FLIP + jitter * np.eye(4)
    lower = np.linalg.cholesky(work)
    tm = (_FLIP @ lower @ _FLIP).conj().T
    t = np.empty(16)
    t[0], t[1], t[2], t[3] = tm[0, 0].real, tm[1, 1].real, tm[2, 2].real, tm[3, 3].real
    t[4], t[5] = tm[1, 0].real, tm[1, 0].imag
    t[6], t[7] = tm[2, 1].real, tm[2, 1].imag
    t[8], t[9] = tm[3, 2].real, tm[3, 2].imag
    t[10], t[11] = tm[2, 0].real, tm[2, 0].imag
    t[12], t[13] = tm[3, 1].real, tm[3, 1].imag
    t[14], t[15] = tm[3, 0].real, tm[3, 0].imag
    return t


#: T|phi_m> is real-linear in t: column k holds the real then imaginary
#: parts of the 36 x 4 amplitudes at t = e_k, rows grouped 8 per projector.
#: Each parameter is one part of one entry of T, so Tr(T+T) = t.t.
_AMPLITUDES = np.stack([_KETS @ t_matrix(e).T for e in np.eye(16)], axis=-1)
_AMPLITUDES = np.concatenate([_AMPLITUDES.real, _AMPLITUDES.imag], axis=1).reshape(288, 16)


def _probabilities_from_t(t) -> np.ndarray:
    """Projection probabilities <phi_mu| rho(t) |phi_mu> for all 36 projectors."""
    t = np.asarray(t, dtype=float)
    norm = t @ t
    if norm <= 0.0:
        raise ValueError("T parameters are all zero; state undefined")
    amps = _AMPLITUDES @ t
    return (amps * amps).reshape(36, 8).sum(axis=1) / norm


def probabilities(rho) -> np.ndarray:
    """Projection probabilities of a density matrix on the canonical set."""
    rho = np.asarray(rho, dtype=complex)
    return np.einsum("mi,ij,mj->m", _KETS.conj(), rho, _KETS).real


def _setting_scales(counts: np.ndarray) -> np.ndarray:
    """Per-projector trial scale N_mu = total counts of that projector's setting."""
    scales = np.empty(36)
    for group in SETTING_GROUPS:
        scales[group] = counts[group].sum()
    return scales


def log_likelihood(t, counts, n_scale=None, eps: float = 1e-12) -> float:
    """Gaussian-approximation cost sum (N p - n)^2 / (2 N p).

    n_scale is the per-projector trial scale; by default it is inferred
    as the total count within each projector's basis-pair setting.  An
    expected-count floor eps guards the division.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (36,):
        raise ValueError(f"expected 36 counts, got shape {counts.shape}")
    if np.any(counts < 0):
        raise ValueError("negative counts")
    scales = _setting_scales(counts) if n_scale is None else np.broadcast_to(
        np.asarray(n_scale, dtype=float), (36,))
    expected = np.maximum(scales * _probabilities_from_t(t), eps)
    return float(np.sum((expected - counts) ** 2 / (2.0 * expected)))


def expected_counts(rho, n_per_setting: float) -> np.ndarray:
    """Noise-free counts n_per_setting * p_mu on the canonical projector set."""
    return n_per_setting * probabilities(rho)


def simulate_counts(rho, n_per_setting: int, seed: int) -> np.ndarray:
    """Multinomial counts, n_per_setting trials in each of the 9 settings."""
    rng = np.random.default_rng(seed)
    p = probabilities(rho)
    counts = np.zeros(36)
    for group in SETTING_GROUPS:
        probs = np.clip(p[group], 0.0, None)
        counts[group] = rng.multinomial(n_per_setting, probs / probs.sum())
    return counts


_PAULI_1Q = (PAULI["z"], PAULI["x"], PAULI["y"])


def linear_inversion(counts) -> np.ndarray:
    """Direct (possibly unphysical) estimate from Pauli expectation values.

    Within each basis-pair setting the four outcome frequencies give the
    joint correlator and both marginals; single-qubit expectations are
    averaged over the other arm's three settings.
    """
    counts = np.asarray(counts, dtype=float)
    e_joint = np.zeros((3, 3))
    e_a = np.zeros((3, 3))  # <sigma_sa x I> estimated under B setting sb
    e_b = np.zeros((3, 3))
    for sa in range(3):
        for sb in range(3):
            group = SETTING_GROUPS[3 * sa + sb]
            n = counts[group]
            total = n.sum()
            if total == 0:
                raise ValueError(f"setting ({sa}, {sb}) has zero counts")
            f = n / total  # order (++, +-, -+, --) in eigenvalue signs
            e_joint[sa, sb] = f[0] - f[1] - f[2] + f[3]
            e_a[sa, sb] = f[0] + f[1] - f[2] - f[3]
            e_b[sa, sb] = f[0] - f[1] + f[2] - f[3]
    ea = e_a.mean(axis=1)
    eb = e_b.mean(axis=0)
    rho = np.eye(4, dtype=complex)
    for i, si in enumerate(_PAULI_1Q):
        rho += ea[i] * np.kron(si, PAULI["I"])
        rho += eb[i] * np.kron(PAULI["I"], si)
        for j, sj in enumerate(_PAULI_1Q):
            rho += e_joint[i, j] * np.kron(si, sj)
    return rho / 4.0


def _project_physical(rho) -> np.ndarray:
    """Clip negative eigenvalues and renormalize."""
    rho = 0.5 * (rho + rho.conj().T)
    ev, vec = np.linalg.eigh(rho)
    ev = np.clip(ev, 0.0, None)
    if ev.sum() <= 0:
        return np.eye(4, dtype=complex) / 4.0
    ev = ev / ev.sum()
    return (vec * ev) @ vec.conj().T


def mle_fit(counts, restarts: int = 2, seed: int = 0,
            stall_tol: float = 1e-9) -> tuple[np.ndarray, float]:
    """Maximum-likelihood state estimate and the final cost value.

    Initialization: linear inversion projected to the physical cone and
    Cholesky-factored.  The cost is minimized with Nelder-Mead simplex
    runs restarted from the best point (plus perturbed replicas) until
    the improvement falls below stall_tol.
    """
    from scipy.optimize import minimize

    counts = np.asarray(counts, dtype=float)
    t0 = t_from_rho(_project_physical(linear_inversion(counts)), jitter=1e-10)
    rng = np.random.default_rng(seed)
    scales = _setting_scales(counts)

    def cost(t):
        expected = np.maximum(scales * _probabilities_from_t(t), 1e-12)
        return np.sum((expected - counts) ** 2 / (2.0 * expected))

    def polish(t_start):
        best_t, best_l = t_start, cost(t_start)
        for _ in range(10):
            res = minimize(cost, best_t, method="Nelder-Mead",
                           options={"maxiter": 6000, "xatol": 1e-10,
                                    "fatol": 1e-12, "adaptive": True})
            improved = res.fun < best_l - stall_tol
            if res.fun < best_l:
                best_t, best_l = res.x, res.fun
            if not improved:
                break
        return best_t, best_l

    best_t, best_l = polish(t0)
    for _ in range(restarts):
        t_r = best_t + rng.normal(scale=0.01, size=16)
        t_cand, l_cand = polish(t_r)
        if l_cand < best_l - stall_tol:
            best_t, best_l = t_cand, l_cand
    return rho_from_t(best_t), float(best_l)
