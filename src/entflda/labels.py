"""Ground-truth class labels and independent separability oracles.

Class -1 means entangled, +1 means separable. Two labeling conventions
coexist: ``paper`` uses the published family thresholds, ``ppt-oracle``
labels by the sign of the minimum partial-transpose eigenvalue (with the
bound-entangled family forced to -1, since it is PPT by construction).
The conventions disagree for the diagonal ``ppt-alt`` state and for the
four-qubit Werner boundary; experiments record which one produced the
labels. Labelling reads the state its caller built and builds none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import states
from .qops import DensityOperator, hermitian_eigenvalues, partial_transpose, pauli_string_operator
from .states import ENTANGLED, SEPARABLE

LABEL_CONVENTIONS = ("paper", "ppt-oracle")

# Eigenvalues above this are treated as nonnegative; absorbs eigensolver noise.
PPT_TOL = -1e-9


@dataclass(frozen=True)
class PptReport:
    """Minimum partial-transpose eigenvalue per bipartition.

    Keys are cut descriptors like ``"0|12"``: the block containing qubit 0,
    a bar, then the complement. Complementary cuts share a spectrum and are
    reported once.
    """

    min_eigenvalues: dict
    is_ppt_all: bool


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


def ppt_report(rho: DensityOperator) -> PptReport:
    """Diagonalize every partial transpose and collect the minima."""
    minima = {}
    for descriptor, subset in _bipartitions(rho.num_qubits):
        pt = partial_transpose(rho, subset)
        minima[descriptor] = float(hermitian_eigenvalues(pt)[0])
    return PptReport(min_eigenvalues=minima, is_ppt_all=all(v >= PPT_TOL for v in minima.values()))


def concurrence_analytic(theta0: float, theta1: float) -> float:
    """Closed-form concurrence of the two-rotation circuit state."""
    if not (0 <= theta0 <= np.pi) or not (0 <= theta1 <= np.pi):
        raise ValueError(f"angles ({theta0}, {theta1}) outside [0, pi]")
    return float(np.sin(theta0) * np.sin(theta1 / 2))


def concurrence_wootters(rho: DensityOperator) -> float:
    """Concurrence of an arbitrary two-qubit state via the spin-flip spectrum.

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the decreasing square
    roots of the eigenvalues of rho (Y(x)Y) rho* (Y(x)Y).
    """
    if rho.num_qubits != 2:
        raise ValueError(f"concurrence is a two-qubit measure, got {rho.num_qubits} qubits")
    yy = pauli_string_operator("YY")
    flipped = yy @ rho.matrix.conj() @ yy
    vals = np.linalg.eigvals(rho.matrix @ flipped).real
    # Exactly-zero eigenvalues come back as O(eps) noise; clamp before sqrt
    # so they do not leak ~1e-8 into the root.
    floor = 16 * np.finfo(float).eps * max(np.max(np.abs(vals)), 1.0)
    vals = np.where(vals < floor, 0.0, vals)
    roots = np.sort(np.sqrt(vals))[::-1]
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def assign_label(family: str, params: dict, rho: DensityOperator, convention: str = "paper") -> int:
    """Ground-truth class of ``rho``, the state built from (family, parameters).

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
    if spec.fixed_label is not None:
        return spec.fixed_label
    if spec.boundary is not None:
        return ENTANGLED if params["p"] > spec.boundary[convention] else SEPARABLE
    if convention == "paper":
        if family == "concurrence":
            return ENTANGLED if concurrence_analytic(params["theta0"], params["theta1"]) > 0 else SEPARABLE
        return ENTANGLED  # ppt-alt, biseparable
    return SEPARABLE if ppt_report(rho).is_ppt_all else ENTANGLED

