"""From states to classical feature vectors.

A feature vector collects Pauli-string expectation values, either exact
traces, read off each word's X/Z bit masks (Aaronson & Gottesman, PRA 70,
052328, 2004) with no operator matrix, or finite-shot estimates. Every
Pauli string has a +-1 spectrum, so a shot outcome is a Bernoulli draw
with P(+1) = (1 + <O>)/2; sampling the binomial directly gives the same
distribution as simulating projective outcomes at a fraction of the cost.
A zero expectation's count comes from an alias table (Walker, ACM TOMS 3(3), 1977; Vose, IEEE TSE 17(9), 1991).
"""

from __future__ import annotations

import functools
from itertools import accumulate, product

import numpy as np

from .qops import qubit_count

PAULI_LETTERS = "IXYZ"
TABLE_MAX_SHOTS = 4096  # the most shots drawn from an alias table; numpy's binomial takes up to 2^63 - 1


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
    or a stack: :func:`shot_estimates` of its :func:`exact_features`, ``rng`` its two generators."""
    return shot_estimates(exact_features(rho), shots, rng, rng)


@functools.cache
def _half_table(shots: int) -> tuple:
    """Vose's alias table of Binomial(shots, 1/2) from its correctly rounded pmf, ``(threshold, pick)``: bin k gives
    the estimate ``pick[2 k]`` = 2 k / shots - 1 for a fraction below ``threshold[k]``, else ``pick[2 k + 1]``."""
    n, whole = shots + 1, 1 << shots
    counts = accumulate(range(shots), lambda c, k: c * (shots - k) // (k + 1), initial=1)  # C(shots, k)
    q, threshold, alias = [c / whole * n for c in counts], [1.0] * n, list(range(n))  # lists: the loop is Python
    small, large = [k for k in range(n) if q[k] < 1], [k for k in range(n) if q[k] >= 1]
    while small and large:  # a bin left in either list holds mass 1 up to round-off
        k, j = small.pop(), large.pop()
        threshold[k], alias[k], q[j] = q[k], j, (q[j] + q[k]) - 1.0
        (small if q[j] < 1 else large).append(j)
    est = 2.0 * np.arange(n) / shots - 1.0
    return np.array(threshold), np.stack([est, est[alias]], axis=1).ravel()


def shot_estimates(exact: np.ndarray, shots: int, rng: np.random.Generator, half_rng: np.random.Generator):
    """Mean of ``shots`` simulated +-1 outcomes per exact expectation value: up to ``TABLE_MAX_SHOTS`` shots, a zero
    one's count from :func:`_half_table`, bin floor(u (shots + 1)) of one ``half_rng`` uniform u, and every other
    one binomial on ``rng``, both in row order, so row blocks drawn in turn give the bits of a single call."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    est = (1.0 + np.asarray(exact, dtype=float)) / 2.0  # float64 whatever the input: the counts go into it
    if np.any(est < -1e-9) or np.any(est > 1 + 1e-9):
        raise ValueError("outcome probability outside [0, 1]; upstream state is corrupted")
    np.clip(est, 0.0, 1.0, out=est)
    half = (exact == 0) & (shots <= TABLE_MAX_SHOTS)
    est[~half] = 2.0 * rng.binomial(shots, est[~half]) / shots - 1.0
    if half.any():  # in place on the uniforms' buffers; "clip" lets take write to them unbuffered
        threshold, pick = _half_table(int(shots))
        u = half_rng.random(np.count_nonzero(half)) * len(threshold)
        f = np.floor(u)
        u -= f  # the fraction
        k = f.astype(np.intp)
        threshold.take(k, out=f, mode="clip")
        k += k
        k += u >= f  # the index into pick
        est[half] = pick.take(k, out=u, mode="clip")
    return est
