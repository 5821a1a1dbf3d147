"""Dense multi-qubit operator algebra: tensor products, partial
transposition and density-matrix validation.

Everything here works on plain complex ``numpy`` arrays or stacks of them;
the only wrapper type is :class:`DensityOperator`, which validates the
physical invariants (Hermitian, unit trace, positive semi-definite) once
at construction time, as :func:`validate_states` does for a stack
(positivity by a Cholesky factor, with ``eigvalsh`` deciding if none).
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
# m + (|PSD_TOL| - _PSD_MARGIN) I factors only if m's smallest eigenvalue is
# above PSD_TOL + _PSD_MARGIN less Cholesky's backward error, at most about
# (d + 1) d 2**-53 ||m|| = 5e-13 at d = 64, ||m|| ~ 1 (Higham, Thm 10.5);
# eigvalsh errs by less. The margin exceeds both: a factor proves acceptance.
_PSD_MARGIN = 1e-11


def kron(*factors: np.ndarray) -> np.ndarray:
    """Tensor product ``F1 x F2 x ...`` of one or more matrices, left to right.

    Stacks of matrices give one product per entry (leading axes broadcast).
    Refuses a product larger than the ``MAX_QUBITS`` register dimension
    before computing it, so a runaway composition fails loudly.
    """
    if not factors:
        raise ValueError("empty tensor product: kron needs at least one factor")
    factors = [np.asarray(f) for f in factors]
    if any(f.ndim < 2 for f in factors):
        raise ValueError("kron expects matrices or stacks of matrices")
    out = factors[0]
    for f in factors[1:]:
        rows, cols = out.shape[-2] * f.shape[-2], out.shape[-1] * f.shape[-1]
        if (dim := max(rows, cols)) > 2**MAX_QUBITS:
            raise ValueError(f"tensor product dimension {dim} exceeds the supported maximum 2**{MAX_QUBITS}")
        # The broadcast product np.kron computes, without its generic-shape overhead.
        out = out[..., :, None, :, None] * f[..., None, :, None, :]
        out = out.reshape(*out.shape[:-4], rows, cols)
    return out


def validate_states(matrices: np.ndarray) -> None:
    """Check a density matrix, or each of an (n, d, d) stack: finite,
    Hermitian, unit trace and positive semi-definite (smallest ``eigvalsh``
    eigenvalue at least ``PSD_TOL``). One stacked Cholesky of the shifted
    matrices proves the last; if it fails, one stacked ``eigvalsh`` decides."""
    m = np.asarray(matrices)
    if not np.all(np.isfinite(m)):
        raise ValueError("density matrix contains non-finite entries")
    dev = m - m.conj().swapaxes(-1, -2)  # a real m's conj() is m itself, not a copy
    herm_err = np.max(np.abs(dev, out=dev if np.isrealobj(dev) else None))  # a real dev's abs in place
    if herm_err > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {herm_err:.3e})")
    tr_err = np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0))
    if tr_err > TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {tr_err:.3e}")
    try:
        np.linalg.cholesky(m + (abs(PSD_TOL) - _PSD_MARGIN) * np.eye(m.shape[-1]))
        return
    except np.linalg.LinAlgError:
        pass
    min_eig = float(np.min(np.linalg.eigvalsh(m)[..., 0]))
    if min_eig < PSD_TOL:
        raise ValueError(f"matrix is not positive semi-definite (min eigenvalue {min_eig:.3e})")


class DensityOperator:
    """A complex density matrix, read-only once :func:`validate_states` passes
    it, and its qubit count. A refusal is a caller bug, not noise: every
    generator in this package builds exact convex mixtures."""

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=complex)
        self.num_qubits = qubit_count(m, stacks=False)
        if self.num_qubits > MAX_QUBITS:
            raise ValueError(f"qubit count {self.num_qubits} outside supported range [1, {MAX_QUBITS}]")
        validate_states(m)
        m.setflags(write=False)
        self.matrix = m


def qubit_count(m: np.ndarray, stacks: bool = True) -> int:
    """N of a 2^N x 2^N array, N >= 1, or (if ``stacks``) of a stack of them;
    refuses any other shape."""
    dim = m.shape[-1] if m.ndim >= 2 else 0
    n = dim.bit_length() - 1
    if m.ndim < 2 or (m.ndim > 2 and not stacks) or m.shape[-2] != dim or n < 1 or dim != 2**n:
        raise ValueError(f"expected a 2^N x 2^N matrix{' or a stack of them' if stacks else ''}, got shape {m.shape}")
    return n


def partial_transpose(matrix: np.ndarray, subsystems) -> np.ndarray:
    """Transpose the selected qubits' indices of a 2^N x 2^N matrix, or of
    each matrix of a stack, leaving the rest untouched.

    Takes and returns plain arrays (the result is generally not a valid
    state, and the input is not checked to be one). Implemented as an axis
    permutation on the rank-2N tensor reshape, so it is exact (entry
    rearrangement only). Applying it twice over the same subsystems returns
    the input.
    """
    m = np.asarray(matrix)
    n = qubit_count(m)
    subs = sorted(set(int(q) for q in subsystems))
    if not subs:
        raise ValueError("subsystem set is empty; transposing nothing is a caller bug")
    if subs[0] < 0 or subs[-1] >= n:
        raise ValueError(f"qubit indices {subs} out of range for {n} qubits")
    lead = m.ndim - 2
    tensor = m.reshape(m.shape[:lead] + (2,) * (2 * n))
    axes = list(range(lead + 2 * n))
    for q in subs:
        axes[lead + q], axes[lead + n + q] = axes[lead + n + q], axes[lead + q]
    return tensor.transpose(axes).reshape(m.shape)
