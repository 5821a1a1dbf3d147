"""Dense multi-qubit operator algebra: Pauli strings, tensor products,
partial transposition and Hermitian spectra.

Everything here works on plain complex ``numpy`` arrays; the only wrapper
type is :class:`DensityOperator`, which validates the physical invariants
(Hermitian, unit trace, positive semi-definite) once at construction time.
Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of a
computational-basis index.
"""

from __future__ import annotations

import numpy as np

# Largest supported register. Dimensions stay tiny (<= 64) so every
# operator is stored dense.
MAX_QUBITS = 6

# Validation tolerances for density operators.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-9

PAULI_LETTERS = "IXYZ"

_PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(letter: str) -> np.ndarray:
    """Return the 2x2 Pauli matrix for ``letter`` in {I, X, Y, Z}."""
    try:
        return _PAULI[letter].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli letter {letter!r}; expected one of I, X, Y, Z") from None


def kron(*factors: np.ndarray) -> np.ndarray:
    """Tensor product ``F1 x F2 x ...`` of one or more matrices, left to right.

    Refuses a product larger than the ``MAX_QUBITS`` register dimension
    before computing it, so a runaway composition fails loudly instead of
    allocating huge arrays.
    """
    if not factors:
        raise ValueError("empty tensor product: kron needs at least one factor")
    factors = [np.asarray(f) for f in factors]
    if any(f.ndim != 2 for f in factors):
        raise ValueError("kron expects 2-D matrices")
    out = factors[0]
    for f in factors[1:]:
        rows, cols = out.shape[0] * f.shape[0], out.shape[1] * f.shape[1]
        if (dim := max(rows, cols)) > 2**MAX_QUBITS:
            raise ValueError(f"tensor product dimension {dim} exceeds the supported maximum 2**{MAX_QUBITS}")
        # The broadcast product np.kron computes, without its generic-shape overhead.
        out = (out[:, None, :, None] * f[None, :, None, :]).reshape(rows, cols)
    return out


def pauli_string_operator(letters: str) -> np.ndarray:
    """Build the tensor-product operator for a Pauli word, e.g. ``"XZI"``.

    The first letter acts on qubit 0 (most significant). The result is a
    Hermitian unitary of dimension ``2**len(letters)``.
    """
    return kron(*(pauli_matrix(letter) for letter in letters))


class DensityOperator:
    """A validated density matrix together with its qubit count.

    The stored matrix is an immutable complex array. Construction checks
    Hermiticity, unit trace and positive semi-definiteness up to fixed
    tolerances; anything failing those is a caller bug, not noise, because
    all generators in this package produce exact convex mixtures.
    """

    __slots__ = ("matrix", "num_qubits")

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        dim = m.shape[0]
        n = int(round(np.log2(dim)))
        if 2**n != dim:
            raise ValueError(f"dimension {dim} is not a power of two")
        if n < 1 or n > MAX_QUBITS:
            raise ValueError(f"qubit count {n} outside supported range [1, {MAX_QUBITS}]")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix contains non-finite entries")
        herm_err = np.max(np.abs(m - m.conj().T))
        if herm_err > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {herm_err:.3e})")
        tr_err = abs(m.trace() - 1.0)
        if tr_err > TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {tr_err:.3e}")
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < PSD_TOL:
            raise ValueError(f"matrix is not positive semi-definite (min eigenvalue {min_eig:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "num_qubits", n)

    def __setattr__(self, name, value):
        raise AttributeError("DensityOperator is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityOperator(num_qubits={self.num_qubits})"


def partial_transpose(matrix: np.ndarray, subsystems) -> np.ndarray:
    """Transpose the selected qubits' indices of a 2^N x 2^N matrix, leaving
    the rest untouched.

    Takes and returns a plain array (the result is generally not a valid
    state, and the input is not checked to be one). Implemented as an axis
    permutation on the rank-2N tensor reshape, so it is exact (entry
    rearrangement only). Applying it twice over the same subsystems returns
    the input.
    """
    m = np.asarray(matrix)
    dim = m.shape[0] if m.ndim == 2 else 0
    n = dim.bit_length() - 1
    if m.shape != (dim, dim) or dim != 2**n:
        raise ValueError(f"expected a 2^N x 2^N matrix, got shape {m.shape}")
    subs = sorted(set(int(q) for q in subsystems))
    if not subs:
        raise ValueError("subsystem set is empty; transposing nothing is a caller bug")
    if subs[0] < 0 or subs[-1] >= n:
        raise ValueError(f"qubit indices {subs} out of range for {n} qubits")
    tensor = m.reshape([2] * (2 * n))
    axes = list(range(2 * n))
    for q in subs:
        axes[q], axes[n + q] = axes[n + q], axes[q]
    return tensor.transpose(axes).reshape(dim, dim)


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


def expectation(rho: DensityOperator, obs: np.ndarray, herm_tol: float = 1e-8) -> float:
    """tr(rho O) for a Hermitian observable O."""
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != rho.matrix.shape:
        raise ValueError(f"observable shape {obs.shape} does not match state dimension {rho.dim}")
    herm_err = np.max(np.abs(obs - obs.conj().T))
    if herm_err > herm_tol:
        raise ValueError(f"observable is not Hermitian within {herm_tol} (deviation {herm_err:.3e})")
    return float(np.trace(rho.matrix @ obs).real)
