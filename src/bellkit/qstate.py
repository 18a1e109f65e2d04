"""Two-qubit state algebra and entanglement measures.

States are plain 4x4 complex numpy arrays over the computational basis
{|00>, |01>, |10>, |11>}, with |0>, |1> the sigma_z eigenstates (H, V in
the tomography labelling).  The Bell basis is ordered (Psi+, Psi-, Phi+,
Phi-) everywhere in this package; this module is the single source of
truth for that convention.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BELL_STATE_LABELS",
    "BELL_STATE_VECTORS",
    "BELL_STATE_CORRELATIONS",
    "PAULI",
    "InvalidStateError",
    "bell_diagonal",
    "validate_density_matrix",
    "validate_weights",
    "concurrence",
    "binary_entropy",
    "eof",
    "negativity",
    "one_way_distillable",
    "pauli_moments",
    "correlation_tensor",
    "bell_diagonal_correlation",
    "fidelity",
]

_SQ2 = np.sqrt(2.0)

#: Bell basis order: index 0..3 = Psi+, Psi-, Phi+, Phi-.
BELL_STATE_LABELS = ("psi_plus", "psi_minus", "phi_plus", "phi_minus")

BELL_STATE_VECTORS = np.array(
    [
        [0, 1, 1, 0],   # |Psi+> = (|01> + |10>)/sqrt(2)
        [0, 1, -1, 0],  # |Psi-> = (|01> - |10>)/sqrt(2)
        [1, 0, 0, 1],   # |Phi+> = (|00> + |11>)/sqrt(2)
        [1, 0, 0, -1],  # |Phi-> = (|00> - |11>)/sqrt(2)
    ],
    dtype=complex,
) / _SQ2

#: Correlation-tensor diagonal (T_xx, T_yy, T_zz) of each Bell state, in
#: Bell order; a Bell mixture's tensor is diag(weights @ this table).
BELL_STATE_CORRELATIONS = np.array([[1, 1, -1], [-1, -1, -1], [1, -1, 1], [-1, 1, 1]],
                                   dtype=float)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_SIGMA_YY = np.kron(PAULI["y"], PAULI["y"])
_PAULI_STACK = np.array([PAULI[k] for k in ("I", "x", "y", "z")])


class InvalidStateError(ValueError):
    """Raised when an input fails density-matrix or weight validation."""


def validate_weights(weights, atol: float = 1e-12) -> np.ndarray:
    """Check a Bell-diagonal weight vector: 4 entries in [0,1] summing to 1."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (4,):
        raise InvalidStateError(f"expected 4 Bell-diagonal weights, got shape {w.shape}")
    if np.any(w < -atol) or np.any(w > 1 + atol):
        raise InvalidStateError(f"weights outside [0, 1]: {w}")
    if abs(w.sum() - 1.0) > atol:
        raise InvalidStateError(f"weights sum to {w.sum()}, not 1")
    return np.clip(w, 0.0, 1.0)


def validate_density_matrix(rho, herm_atol: float = 1e-10, trace_atol: float = 1e-10,
                            eig_atol: float = 1e-9) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 4x4 density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidStateError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > herm_atol:
        raise InvalidStateError("matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_atol:
        raise InvalidStateError(f"trace is {np.trace(rho).real}, not 1")
    if np.linalg.eigvalsh(rho).min() < -eig_atol:
        raise InvalidStateError("matrix has a negative eigenvalue")
    return rho


def bell_diagonal(weights) -> np.ndarray:
    """Density matrix sum_i lambda_i |B_i><B_i| over the ordered Bell basis."""
    w = validate_weights(weights)
    return np.einsum("i,ij,ik->jk", w, BELL_STATE_VECTORS, BELL_STATE_VECTORS.conj())


def concurrence(rho) -> float:
    """Two-qubit concurrence (Wootters).

    For Bell-diagonal states this equals max(0, 2*lambda_max - 1).
    """
    rho = validate_density_matrix(rho)
    # With rho = W W^dagger, rho @ rho_tilde is similar to M M^dagger for
    # M = W^T (sigma_y x sigma_y) W, so Wootters' lambdas are the singular
    # values of M; no square root of a round-off-sized eigenvalue is taken.
    ev, vec = np.linalg.eigh(rho)
    w = vec * np.sqrt(np.clip(ev, 0.0, None))
    mu = np.linalg.svd(w.T @ _SIGMA_YY @ w, compute_uv=False)  # descending
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary entropy argument {p} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def eof(rho) -> float:
    """Entanglement of formation, h((1 + sqrt(1 - C^2)) / 2)."""
    c = concurrence(rho)
    return binary_entropy((1 + np.sqrt(max(0.0, 1 - c * c))) / 2)


def partial_transpose(rho) -> np.ndarray:
    """Partial transpose on subsystem A in the computational basis."""
    rho = np.asarray(rho, dtype=complex)
    return rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)


def negativity(rho, neg_tol: float = 1e-12) -> float:
    """Sum of |negative eigenvalues| of the partial transpose on A.

    Eigenvalues below -neg_tol count as negative; the default is the
    noise floor of 4x4 eigensolvers.
    """
    rho = validate_density_matrix(rho)
    ev = np.linalg.eigvalsh(partial_transpose(rho))
    neg = ev[ev < -neg_tol]
    return float(-neg.sum())


def one_way_distillable(weights) -> float:
    """One-way distillable entanglement 1 - H(lambda) for a Bell mixture.

    Returned unclamped: negative values mean the rate certificate is
    vacuous, but the raw conditional-entropy quantity is the one of
    interest to callers.
    """
    w = validate_weights(weights)
    nz = w[w > 0]
    return float(1.0 + np.sum(nz * np.log2(nz)))


def pauli_moments(rho) -> np.ndarray:
    """4x4 matrix M_ij = Tr(rho sigma_i x sigma_j), i, j in (I, x, y, z)."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("abcd,ica,jdb->ij", r, _PAULI_STACK, _PAULI_STACK).real


def correlation_tensor(rho) -> np.ndarray:
    """3x3 matrix T_ij = Tr(rho sigma_i x sigma_j), i,j in {x, y, z}."""
    return pauli_moments(rho)[1:, 1:]


def bell_diagonal_correlation(weights) -> np.ndarray:
    """Closed-form diagonal correlation tensor of a Bell-diagonal state."""
    return np.diag(validate_weights(weights) @ BELL_STATE_CORRELATIONS)


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity, squared convention: (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Equals <psi|rho|psi> when sigma = |psi><psi|.
    """
    rho = validate_density_matrix(rho)
    sigma = validate_density_matrix(sigma)
    ev, vec = np.linalg.eigh(rho)
    sqrt_rho = (vec * np.sqrt(np.clip(ev, 0.0, None))) @ vec.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    ev_inner = np.linalg.eigvalsh(inner)
    f = np.sum(np.sqrt(np.clip(ev_inner, 0.0, None))) ** 2
    return float(min(1.0, f.real))
