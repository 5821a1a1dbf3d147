"""Reference computations the tests check the package against.

Each one takes its own, plainer route to a quantity the package computes
faster or in bulk (stacked spectra, batched features, the closed-form
discriminant), so an oracle does not share the code path it checks.
"""

import numpy as np
import scipy.linalg

from entflda import flda


def hermitian_eigenvalues(m: np.ndarray, herm_tol: float = 1e-8) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted ascending."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    herm_err = np.max(np.abs(m - m.conj().T))
    if herm_err > herm_tol:
        raise ValueError(f"matrix is not Hermitian within {herm_tol} (deviation {herm_err:.3e})")
    return np.linalg.eigvalsh(m)


def expectation(rho, obs: np.ndarray, herm_tol: float = 1e-8) -> float:
    """tr(rho O) for a state ``rho`` and a Hermitian observable O."""
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != rho.matrix.shape:
        raise ValueError(f"observable shape {obs.shape} does not match state dimension {rho.dim}")
    herm_err = np.max(np.abs(obs - obs.conj().T))
    if herm_err > herm_tol:
        raise ValueError(f"observable is not Hermitian within {herm_tol} (deviation {herm_err:.3e})")
    return float(np.trace(rho.matrix @ obs).real)


def reconstruct_density(values: np.ndarray, obs) -> np.ndarray:
    """Invert a full feature vector back to the density matrix.

    (1/2^n)(I + sum_k x_k sigma_k); exact when ``obs`` is the complete
    non-identity set and ``values`` are exact expectations.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(obs),):
        raise ValueError(f"expected {len(obs)} feature values, got shape {values.shape}")
    dim = 2**obs.num_qubits
    m = np.eye(dim, dtype=complex)
    m += np.einsum("k,kij->ij", values, obs.operators())
    return m / dim


def discriminant_direction_eig(scatter: flda.ScatterPair, epsilon: float) -> np.ndarray:
    """Top generalized eigenvector of (S_B, S_W + eps I), unit norm: the
    eigensolver route to the direction ``flda.fit`` solves for in closed
    form (S_B has rank 1 for two classes); two-class scatter only.
    """
    if scatter.class_means.shape[0] != 2:
        raise ValueError("generalized eigensolver path supports two classes only")
    regularized = scatter.s_within + epsilon * np.eye(scatter.s_within.shape[0])
    vals, vecs = scipy.linalg.eigh(scatter.s_between, regularized)
    w = vecs[:, -1]
    w = w / np.linalg.norm(w)
    if w @ (scatter.class_means[1] - scatter.class_means[0]) < 0:
        w = -w
    return w


def projections_by_class(model: flda.FldaModel, dataset) -> dict:
    """Projected scalars y = w^T x per class, for histogram-style exports."""
    y = flda.project(model, dataset.features)
    return {cls: y[dataset.labels == cls] for cls in flda.CLASS_ORDER}
