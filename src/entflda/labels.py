"""Ground-truth class labels and independent separability oracles.

Class -1 means entangled, +1 means separable. Two labeling conventions
coexist: ``paper`` uses the published family thresholds, ``ppt-oracle``
labels by the sign of the minimum partial-transpose eigenvalue (with the
bound-entangled family forced to -1, since it is PPT by construction).
The conventions disagree for the diagonal ``ppt-alt`` state and for the
four-qubit Werner boundary; experiments record which one produced the
labels. Labelling reads the state, or stack of states, its caller built
and builds none.
"""

from __future__ import annotations

import numpy as np

from . import states
from .qops import partial_transpose, pauli_string_operator, qubit_count
from .states import ENTANGLED, SEPARABLE

LABEL_CONVENTIONS = ("paper", "ppt-oracle")

# Eigenvalues above this are treated as nonnegative; absorbs eigensolver noise.
PPT_TOL = -1e-9


def _bipartitions(n: int):
    """All distinct cuts of n qubits, as (descriptor, transposed-subset)."""
    cuts = []
    for mask in range(1, 2**n - 1):
        subset = frozenset(q for q in range(n) if mask & (1 << q))
        if 0 not in subset:
            continue  # complement will cover it
        left = sorted(subset)
        right = sorted(set(range(n)) - subset)
        descriptor = "".join(map(str, left)) + "|" + "".join(map(str, right))
        cuts.append((descriptor, right))
    return cuts


def _pt_minima(matrices: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of each cut's partial transpose of a state or an
    (n, d, d) stack, shape (..., n_cuts), from one ``eigvalsh`` (transposes
    permute the entries of validated states, so need no check)."""
    cuts = _bipartitions(matrices.shape[-1].bit_length() - 1)
    if not cuts:
        return np.zeros(matrices.shape[:-2] + (0,))
    transposes = np.stack([partial_transpose(matrices, subset) for _, subset in cuts], axis=-3)
    return np.linalg.eigvalsh(transposes)[..., 0]


def ppt_report(rho) -> dict:
    """``{"min_eigenvalues": {cut: minimum eigenvalue of its partial
    transpose}, "is_ppt_all": all of them >= PPT_TOL}`` of a 2^N x 2^N matrix,
    with no cut for one qubit. A cut reads like ``"0|12"``: the block holding
    qubit 0, a bar, then the complement; complementary cuts share a spectrum.
    """
    m = np.asarray(rho)
    cuts = _bipartitions(qubit_count(m, stacks=False))
    minima = {descriptor: float(v) for (descriptor, _), v in zip(cuts, _pt_minima(m))}
    return {"min_eigenvalues": minima, "is_ppt_all": all(v >= PPT_TOL for v in minima.values())}


def concurrence_analytic(theta0, theta1):
    """Closed-form concurrence of the two-rotation circuit state, for scalar
    angles or elementwise over arrays of them; theta0 = pi, where
    ``np.sin`` gives 1.2e-16, is a product state and gets C = 0."""
    theta0, theta1 = states.checked_angles(theta0, theta1)
    c = np.where(theta0 < np.pi, np.sin(theta0), 0.0) * np.sin(theta1 / 2)
    return float(c) if c.ndim == 0 else c


def concurrence_wootters(rho) -> float:
    """Concurrence of a two-qubit state, a 4 x 4 matrix, via the spin-flip spectrum.

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the decreasing square
    roots of the eigenvalues of rho (Y(x)Y) rho* (Y(x)Y).
    """
    m = np.asarray(rho)
    if m.shape != (4, 4):
        raise ValueError(f"concurrence is a two-qubit measure, got shape {m.shape}")
    yy = pauli_string_operator("YY")
    flipped = yy @ m.conj() @ yy
    vals = np.linalg.eigvals(m @ flipped).real
    # Exactly-zero eigenvalues come back as O(eps) noise; clamp before sqrt
    # so they do not leak ~1e-8 into the root.
    floor = 16 * np.finfo(float).eps * max(np.max(np.abs(vals)), 1.0)
    vals = np.where(vals < floor, 0.0, vals)
    roots = np.sort(np.sqrt(vals))[::-1]
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def assign_label(family: str, row, rho, convention: str = "paper"):
    """Ground-truth class of ``rho``, the state built from (family, parameters).

    ``row`` is the family's parameter row, the layout its ``stack`` takes,
    and ``rho`` the (d, d) matrix built from it, giving an int; an (n, k)
    array of rows with the (n, d, d) stack built from them gives one label
    per row.
    ``paper``: Werner families entangled above their published mixing
    threshold, the circuit family entangled for C > 0, both PPT families
    and the biseparable family always entangled, products always separable.
    ``ppt-oracle``: the sign of the worst partial-transpose eigenvalue,
    except ``pptes-acin`` which stays entangled (bound entanglement is
    invisible to the transpose test).
    """
    if convention not in LABEL_CONVENTIONS:
        raise ValueError(f"unknown label convention {convention!r}; expected one of {LABEL_CONVENTIONS}")
    spec = states.family(family)
    matrices = np.asarray(rho)
    rows, q = matrices.shape[:-2], np.asarray(row, dtype=float)
    if spec.fixed_label is not None:
        y = np.full(rows, spec.fixed_label)
    elif spec.boundary is not None:
        y = np.where(q[..., 0] > spec.boundary[convention], ENTANGLED, SEPARABLE)
    elif convention == "paper" and spec.concurrence_floor is not None:
        y = np.where(np.asarray(concurrence_analytic(q[..., 0], q[..., 1])) > 0, ENTANGLED, SEPARABLE)
    elif convention == "paper":
        y = np.full(rows, ENTANGLED)  # ppt-alt, biseparable
    else:
        y = np.where(np.all(_pt_minima(matrices) >= PPT_TOL, axis=-1), SEPARABLE, ENTANGLED)
    return int(y) if y.ndim == 0 else y
