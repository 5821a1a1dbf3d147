"""From states to classical feature vectors.

A feature vector collects Pauli-string expectation values, either exact
traces, read off each word's X/Z bit masks (Aaronson & Gottesman, PRA 70,
052328, 2004) with no operator matrix, or finite-shot estimates. Every
Pauli string has a +-1 spectrum, so a shot outcome is a Bernoulli draw
with P(+1) = (1 + <O>)/2; sampling the binomial directly gives the same
distribution as simulating projective outcomes at a fraction of the cost.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

from .qops import PAULI_LETTERS, qubit_count

STANDARDIZER_MODES = ("zscore", "minmax", "none")

# Features lie in [-1, 1]; a column whose spread is below this is round-off
# around a constant, and dividing by that spread would blow the round-off up.
MIN_SCALE = 1e-12


@functools.cache
def pauli_words(num_qubits: int) -> tuple:
    """All 4^N - 1 non-identity Pauli words on N qubits in base-4 counting
    order, most-significant qubit first (``"IX"``, ``"IY"``, ..., ``"ZZ"``):
    the feature names, one per column."""
    return tuple("".join(w) for w in product(PAULI_LETTERS, repeat=num_qubits))[1:]


def check_pauli_words(words) -> None:
    """Refuse a nonempty list of words that are not distinct non-identity
    Pauli words of one length, that of the first."""
    num_qubits, seen = len(words[0]), set()
    for s in words:
        if len(s) != num_qubits or any(ch not in PAULI_LETTERS for ch in s):
            raise ValueError(f"bad Pauli word {s!r} for {num_qubits} qubits")
        if s == "I" * num_qubits:
            raise ValueError("identity string carries no information and is excluded")
        if s in seen:
            raise ValueError(f"duplicate Pauli word {s!r}")
        seen.add(s)


@functools.cache
def _symplectic_form(num_qubits: int) -> tuple:
    """``(hadamard, pick, phase)``: word k is i^y X^x Z^z for its flip mask x
    (X and Y letters), sign mask z (Y and Z letters) and y letters Y, so
    tr(O_k rho) = Re(i^y sum_i (-1)^{|z & i|} rho[i, i ^ x]), the flat (z, x)
    entry ``pick[k]`` of ``hadamard @ rho[i, i ^ x]`` times ``phase[k]``."""
    words = pauli_words(num_qubits)
    hadamard = functools.reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * num_qubits)
    x, z = (np.array([int(w.translate(str.maketrans("IXYZ", bits)), 2) for w in words]) for bits in ("0110", "0011"))
    phase = np.array([1, 1j, -1, -1j])[[w.count("Y") % 4 for w in words]]
    return hadamard, z * 2**num_qubits + x, phase


def exact_features(rho) -> np.ndarray:
    """Exact expectation value of each of ``pauli_words(N)``, in [-1, 1], for
    a 2^N x 2^N density matrix or each state of an (n, 2^N, 2^N) stack (one
    row each) by :func:`_symplectic_form`: one Hadamard product per state,
    so its bits do not depend on the stack."""
    m = np.asarray(rho)
    hadamard, pick, phase = _symplectic_form(qubit_count(m))
    i = np.arange(m.shape[-1])[:, None]
    f = (hadamard @ m[..., i, i ^ i.T]).reshape(*m.shape[:-2], -1)[..., pick]
    return (f * phase).real + 0.0  # + 0.0 turns the phase's -0.0 into +0.0


def sampled_features(rho, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Mean of ``shots`` simulated +-1 outcomes per Pauli word, for one state
    or a stack; one ``binomial`` call draws every count, in row order."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    exact = exact_features(rho)
    p_plus = (1.0 + exact) / 2.0
    if np.any(p_plus < -1e-9) or np.any(p_plus > 1 + 1e-9):
        raise ValueError("outcome probability outside [0, 1]; upstream state is corrupted")
    p_plus = np.clip(p_plus, 0.0, 1.0)
    counts = rng.binomial(shots, p_plus)
    return 2.0 * counts / shots - 1.0


@dataclass(frozen=True)
class Standardizer:
    """Per-feature affine rescaling fit on training data only."""

    shift: np.ndarray
    scale: np.ndarray
    mode: str


def fit_standardizer(train_values: np.ndarray, mode: str = "zscore") -> Standardizer:
    """Fit shift/scale statistics; a feature whose spread is below
    ``MIN_SCALE`` (constant up to round-off) gets scale 1."""
    if mode not in STANDARDIZER_MODES:
        raise ValueError(f"unknown standardizer mode {mode!r}; expected one of {STANDARDIZER_MODES}")
    x = np.asarray(train_values, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("training matrix must be 2-D and nonempty")
    if mode == "none":
        return Standardizer(shift=np.zeros(x.shape[1]), scale=np.ones(x.shape[1]), mode="none")
    if mode == "zscore":
        if x.shape[0] < 2:
            raise ValueError("zscore needs at least 2 training rows")
        shift = x.mean(axis=0)
        scale = x.std(axis=0)
    else:  # minmax
        shift = x.min(axis=0)
        scale = x.max(axis=0) - shift
    scale = np.where(scale < MIN_SCALE, 1.0, scale)
    return Standardizer(shift=shift, scale=scale, mode=mode)


def apply_standardizer(standardizer: Standardizer, values: np.ndarray) -> np.ndarray:
    """(x - shift) / scale, for a single vector or a matrix of rows."""
    x = np.asarray(values, dtype=float)
    if x.shape[-1] != standardizer.shift.shape[0]:
        raise ValueError(
            f"feature dimension {x.shape[-1]} does not match standardizer ({standardizer.shift.shape[0]})"
        )
    out = x - standardizer.shift
    return np.divide(out, standardizer.scale, out=out)
