"""Reference computations the tests check the package against.

Each one takes its own, plainer route to a quantity the package computes
faster or in bulk (stacked spectra, batched features, the closed-form
discriminant, the stacked family builders), so an oracle does not share
the code path it checks.
"""

from functools import reduce

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
        raise ValueError(f"observable shape {obs.shape} does not match state dimension {rho.matrix.shape[0]}")
    herm_err = np.max(np.abs(obs - obs.conj().T))
    if herm_err > herm_tol:
        raise ValueError(f"observable is not Hermitian within {herm_tol} (deviation {herm_err:.3e})")
    return float(np.trace(rho.matrix @ obs).real)


def reconstruct_density(values: np.ndarray) -> np.ndarray:
    """Invert a full feature vector back to the density matrix.

    ``values`` holds one exact expectation per non-identity Pauli word on n
    qubits, 4^n - 1 of them in base-4 counting order (``"IX"``, ``"IY"``,
    ..., ``"ZZ"``); the state is (1/2^n)(I + sum_k x_k sigma_k), summed
    one qubit at a time by :func:`_pauli_sum`.
    """
    values = np.asarray(values, dtype=float)
    n = round(np.log(len(values) + 1) / np.log(4)) if values.ndim == 1 else 0
    if values.ndim != 1 or n < 1 or len(values) != 4**n - 1:
        raise ValueError(f"expected 4^n - 1 feature values, got shape {values.shape}")
    return _pauli_sum(np.concatenate([[1.0], values])) / 2**n


def _pauli_sum(coefficients: np.ndarray) -> np.ndarray:
    """sum_w c_w sigma_w over all 4^n Pauli words w in base-4 counting order,
    identity first, as sum_a sigma_a (x) R_a over the first letter a, where
    R_a is the same sum over the rest of the words starting with a."""
    if len(coefficients) == 1:
        return np.array([[coefficients[0]]], dtype=complex)
    blocks = np.reshape(coefficients, (4, -1))
    return sum(np.kron(PAULI[a], _pauli_sum(block)) for a, block in zip("IXYZ", blocks))


def between_scatter(scatter: flda.ScatterPair) -> np.ndarray:
    """S_B = sum_i N_i (mu_i - mu)(mu_i - mu)^T by the textbook sum over the
    classes, mu the count-weighted mean of the class means; it does not use
    the two-class rank-one form ``flda.fisher_criterion`` relies on."""
    means = np.asarray(scatter.class_means, dtype=float)
    counts = np.asarray(scatter.class_counts, dtype=float)
    overall = counts @ means / counts.sum()
    s_b = np.zeros((means.shape[1], means.shape[1]))
    for n_i, mu_i in zip(counts, means):
        s_b += n_i * np.outer(mu_i - overall, mu_i - overall)
    return s_b


def fisher_ratio(scatter: flda.ScatterPair, w: np.ndarray, epsilon: float) -> float:
    """w^T S_B w / w^T (S_W + eps I) w with S_B from :func:`between_scatter`."""
    w = np.asarray(w, dtype=float)
    return float(w @ between_scatter(scatter) @ w) / float(w @ scatter.s_within @ w + epsilon * (w @ w))


def discriminant_direction_eig(scatter: flda.ScatterPair, epsilon: float) -> np.ndarray:
    """Top generalized eigenvector of (S_B, S_W + eps I), unit norm, S_B from
    :func:`between_scatter`: the eigensolver route to the direction
    ``flda.fit`` solves for in closed form (S_B has rank 1 for two classes);
    two-class scatter only.
    """
    if scatter.class_means.shape[0] != 2:
        raise ValueError("generalized eigensolver path supports two classes only")
    regularized = scatter.s_within + epsilon * np.eye(scatter.s_within.shape[0])
    vals, vecs = scipy.linalg.eigh(between_scatter(scatter), regularized)
    w = vecs[:, -1]
    w = w / np.linalg.norm(w)
    if w @ (scatter.class_means[1] - scatter.class_means[0]) < 0:
        w = -w
    return w


def projections_by_class(model: flda.FldaModel, dataset) -> dict:
    """Projected scalars y = w^T x per class, for histogram-style exports."""
    y = flda.project(model, dataset.features)
    return {cls: y[dataset.labels == cls] for cls in flda.CLASS_ORDER}


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def pauli_word(letters: str) -> np.ndarray:
    """The operator of a Pauli word, e.g. ``"XZI"``, by ``np.kron``."""
    return reduce(np.kron, (PAULI[c] for c in letters))


def _bloch(b) -> np.ndarray:
    """(I + b . sigma) / 2."""
    return (PAULI["I"] + b[0] * PAULI["X"] + b[1] * PAULI["Y"] + b[2] * PAULI["Z"]) / 2


def _werner2(p: float) -> np.ndarray:
    """p |psi-><psi-| + (1-p) I/4, with the singlet (|01> - |10>)/sqrt(2)."""
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    return p * np.outer(singlet, singlet) + (1 - p) * np.eye(4) / 4


def family_state(name: str, row) -> np.ndarray:
    """Density matrix of one parameter row of family ``name`` (the layout of
    its ``stack``), from the family's textbook definition."""
    r = [float(v) for v in row]
    if name == "werner2":
        return _werner2(r[0])
    if name in ("werner3", "werner4"):
        n = int(name[-1])
        ghz = np.zeros(2**n)
        ghz[0] = ghz[-1] = 1 / np.sqrt(2)
        return r[0] * np.outer(ghz, ghz) + (1 - r[0]) * np.eye(2**n) / 2**n
    if name == "concurrence":
        # RX(theta0) on qubit 0, then RY(theta1) on qubit 1 controlled by qubit 0, applied to |00>.
        rx = np.cos(r[0] / 2) * PAULI["I"] - 1j * np.sin(r[0] / 2) * PAULI["X"]
        ry = np.cos(r[1] / 2) * PAULI["I"] - 1j * np.sin(r[1] / 2) * PAULI["Y"]
        cry = np.kron(np.diag([1, 0]), PAULI["I"]) + np.kron(np.diag([0, 1]), ry)
        psi = cry @ np.kron(rx, PAULI["I"]) @ np.eye(4)[0]
        return np.outer(psi, psi.conj())
    if name == "pptes-acin":
        a, b, c = r
        m = np.diag([1, a, b, c, 1 / c, 1 / b, 1 / a, 1]).astype(complex)
        m[0, 7] = m[7, 0] = 1
        return m / np.trace(m)
    if name == "ppt-alt":
        return (np.diag(np.eye(8)[0]) + np.diag(np.eye(8)[7])) / 2
    if name == "biseparable":
        w, blochs, bc_p = r[:3], np.reshape(r[3:12], (3, 3)), r[12:]
        return sum(w[j] * np.kron(_bloch(blochs[j]), _werner2(bc_p[j])) for j in range(3))
    if name == "product-sep":
        return reduce(np.kron, (_bloch(b) for b in np.reshape(r, (-1, 3))))
    raise ValueError(f"no reference for family {name!r}")
