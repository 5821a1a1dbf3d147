"""Every state family used in the experiments.

Each canonical family (``werner2``, ``werner3``, ``werner4``,
``concurrence``, ``pptes-acin``, ``ppt-alt``, ``biseparable``,
``product-sep``) has one :class:`Family` record in :data:`FAMILIES`,
which owns every fact about it but the overlap presets' margins and shot
counts. Its ``features`` maps an (n, k) parameter array, the one parameter
layout, to the rows' exact features in closed form, and its ``stack`` builds
their states as one (n, d, d) array; :func:`from_family` builds one validated
state from one row. The array cores check the parameter ranges, so all refuse
a bad row with one message. Everything here is pure.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .measure import exact_features
from .qops import TRACE_TOL, DensityOperator, kron, validate_states

# Class labels: -1 entangled, +1 separable.
ENTANGLED = -1
SEPARABLE = 1


def _column(values) -> np.ndarray:
    """Parameters broadcasting against a stack (the cores take scalars or arrays)."""
    return np.asarray(values, dtype=float)[..., None, None]


def _require(ok, message: str, **values) -> None:
    """Raise ``ValueError(message)``, formatted with the ``values`` at the
    first entry where the (broadcast) condition ``ok`` fails, if any does."""
    ok = np.asarray(ok)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(message.format(**{k: np.broadcast_to(v, ok.shape).flat[i] for k, v in values.items()}))


def _mixing(n_qubits: int, p) -> np.ndarray:
    """Werner mixing parameters as a float array, refused outside [-1/3, 1] (1e-12 slack) or [0, 1] (GHZ)."""
    text, lo, hi = ("-1/3", -1 / 3 - 1e-12, 1 + 1e-12) if n_qubits == 2 else ("0", 0, 1)
    p = np.asarray(p, dtype=float)
    _require((lo <= p) & (p <= hi), f"werner{n_qubits} mixing parameter p={{p}} outside [{text}, 1]", p=p)
    return p


def _werner2_matrix(p) -> np.ndarray:
    """Two-qubit Werner state p |psi-><psi-| + (1-p) I/4, a valid state for
    p in [-1/3, 1], with |psi-> = (|01> - |10>)/sqrt(2): diagonal (1-p,
    1+p, 1+p, 1-p)/4 and -p/2 between |01> and |10>."""
    p = _mixing(2, p)
    m = np.zeros(p.shape + (4, 4), dtype=complex)
    m[..., range(4), range(4)] = np.stack([1 - p, 1 + p, 1 + p, 1 - p], axis=-1) / 4
    m[..., 1, 2] = m[..., 2, 1] = (0.0 - 2 * p) / 4  # the XX and YY terms, -p/4 each; +0.0 at p = 0
    return m


def _werner_ghz_matrix(n_qubits: int, p) -> np.ndarray:
    """n-qubit GHZ-based Werner state p |GHZ><GHZ| + (1-p) I/2^n, with
    |GHZ> = (|0...0> + |1...1>)/sqrt(2)."""
    p = _mixing(n_qubits, p)
    ghz = np.zeros(2**n_qubits)  # real: real stacks build and validate faster
    ghz[0] = ghz[-1] = 1 / np.sqrt(2)
    return _column(p) * np.outer(ghz, ghz) + (1 - _column(p)) * (np.eye(2**n_qubits) / 2**n_qubits)


def checked_angles(theta0, theta1) -> tuple:
    """The concurrence family's two angles as float arrays, refused (naming
    the first bad pair) outside [0, pi]."""
    theta0, theta1 = np.asarray(theta0, dtype=float), np.asarray(theta1, dtype=float)
    ok = (0 <= theta0) & (theta0 <= np.pi) & (0 <= theta1) & (theta1 <= np.pi)
    _require(ok, "angles ({theta0}, {theta1}) outside [0, pi]", theta0=theta0, theta1=theta1)
    return theta0, theta1


def _concurrence_amplitudes(q: np.ndarray) -> tuple:
    """Per row (theta0, theta1), the amplitudes a, -i b and -i c on |00>, |10> and |11> of the two-rotation
    preparation circuit's pure state: a = cos(theta0/2), b = sin(theta0/2) cos(theta1/2) and c = sin(theta0/2)
    sin(theta1/2). Its concurrence is C = sin(theta0) sin(theta1/2)."""
    theta0, theta1 = checked_angles(q[:, 0], q[:, 1])
    return np.cos(theta0 / 2), np.sin(theta0 / 2) * np.cos(theta1 / 2), np.sin(theta0 / 2) * np.sin(theta1 / 2)


def _concurrence_matrix(q: np.ndarray) -> np.ndarray:
    """The pure states psi psi^dagger of :func:`_concurrence_amplitudes`."""
    a, b, c = _concurrence_amplitudes(q)
    psi = np.stack([a, np.zeros_like(a), -1j * b, -1j * c], axis=-1) + 0.0  # + 0.0: a zero amplitude is +0.0
    return psi[..., :, None] * psi.conj()[..., None, :]


def _concurrence_features(q: np.ndarray) -> np.ndarray:
    """Exact features of concurrence rows, bilinears of their amplitudes in ``pauli_words`` order; they round as
    the stack's Pauli traces do."""
    a, b, c = _concurrence_amplitudes(q)
    z, aa, bb, cc, ab, ac, bc = np.zeros_like(a), a * a, b * b, c * c, -2 * a * b, -2 * a * c, 2 * b * c
    return np.stack([bc, z, aa + bb - cc, z, z, ac, z, ab, ac, z, ab, aa - bb - cc, -bc, z, aa - bb + cc]).T + 0.0


@np.errstate(over="ignore")
def _pptes_entries(q: np.ndarray) -> tuple:
    """Three-qubit bound-entangled X-states, PPT under every cut for all positive rows (a, b, c): the diagonal (1,
    a, b, c, 1/c, 1/b, 1/a, 1) and the unit corner couplings, each over 2 + a + 1/a + b + 1/b + c + 1/c."""
    a, b, c = np.asarray(q, dtype=float).T
    _require((a > 0) & (b > 0) & (c > 0), "parameters must be positive, got a={a}, b={b}, c={c}", a=a, b=b, c=c)
    norm = 2 + a + 1 / a + b + 1 / b + c + 1 / c  # finite only if every term is
    _require(np.isfinite(norm), "parameters a={a}, b={b}, c={c} overflow the normalizer", a=a, b=b, c=c)
    return np.stack(np.broadcast_arrays(1.0, a, b, c, 1 / c, 1 / b, 1 / a, 1.0)) / norm, 1 / norm


def _pptes_matrix(q: np.ndarray) -> np.ndarray:
    """The X-states of :func:`_pptes_entries`."""
    diagonal, corner = _pptes_entries(q)
    m = diagonal.T[..., None] * np.eye(8)
    m[:, 0, 7] = m[:, 7, 0] = corner
    return m


def _pptes_features(q: np.ndarray) -> np.ndarray:
    """Exact features of bound-entangled rows, on an axis of letters (I, X, Y, Z) per qubit: the I/Z words are the
    Walsh-Hadamard transform of the diagonal (summed term by term, so a row's bits do not depend on its block), the
    words with X or Y on every qubit read the corner coupling c as c (1 + (-1)^y) Re(i^y) for y letters Y, and
    every other word is 0."""
    (diagonal, corner), h = _pptes_entries(q), functools.reduce(np.kron, [[[1.0, 1.0], [1.0, -1.0]]] * 3)
    f = np.zeros((4, 4, 4, len(q)))
    wh = sum((h[k, :, None] * diagonal[k] for k in range(1, 8)), h[0, :, None] * diagonal[0])
    f[::3, ::3, ::3] = wh.reshape(2, 2, 2, -1)
    f[1:3, 1:3, 1:3] = np.array([2.0, 0, 0, -2, 0, -2, -2, 0]).reshape(2, 2, 2, 1) * corner
    return f.reshape(64, -1)[1:].T + 0.0


def bloch_vectors(u: np.ndarray) -> np.ndarray:
    """Bloch-ball-uniform vectors from (..., 3) uniforms read as (cos theta,
    phi, r), with radius u**(1/3) so the volume density is flat."""
    cos_t, phi, r = 2 * u[..., 0] - 1, 2 * np.pi * u[..., 1], u[..., 2] ** (1 / 3)
    sin_t = np.sqrt(1 - cos_t**2)
    return r[..., None] * np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=-1)


def _checked_bloch(bloch) -> np.ndarray:
    """Bloch vectors (last axis) as a float array, refused if one is longer than 1."""
    b = np.asarray(bloch, dtype=float)
    r = float(np.max(np.linalg.norm(b, axis=-1)))
    if r > 1 + 1e-12:
        raise ValueError(f"Bloch vector length {r} exceeds 1")
    return b


def _bloch_matrix(bloch) -> np.ndarray:
    """Single-qubit state (1/2)(I + b . sigma) per Bloch vector b (last axis)."""
    b = _checked_bloch(bloch)
    x, y, z = np.moveaxis(b, -1, 0)
    m = np.zeros(b.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 1, 1] = (1 + z) / 2, (1 - z) / 2
    m[..., 0, 1] = m[..., 1, 0] = (0.0 + x) / 2  # 0.0 +, 0.0 -: a zero is +0.0
    m.imag[..., 0, 1], m.imag[..., 1, 0] = (0.0 - y) / 2, (0.0 + y) / 2
    return m


def _kron_features(factors) -> np.ndarray:
    """Exact features of product states from their factors' (on the first axis, so numpy's inner loops run over
    the rows): the Kronecker product of each factor's (1, features), in ``pauli_words`` order, less the identity's;
    + 0.0 turns -0.0 into +0.0."""
    f = np.ones((1,) + factors[0].shape[1:])
    for g in factors:
        f = (f[:, None] * np.insert(g, 0, 1.0, axis=0)[None]).reshape(-1, *f.shape[1:])
    return np.add(f[1:], 0.0, out=f[1:])


# A biseparable row holds BISEPARABLE_COMPONENTS component weights (unused
# ones 0), then their qubit-0 Bloch vectors, then their Werner-pair p.
BISEPARABLE_COMPONENTS = 3


def _biseparable_matrix(q: np.ndarray) -> np.ndarray:
    """Mixtures of A|BC products, a Bloch state on qubit 0 times a Werner
    pair, one per biseparable row of ``q``. The weights must be nonnegative;
    that they sum to one is left to the trace check of the state built."""
    k = BISEPARABLE_COMPONENTS
    if np.any(q[:, :k] < 0):
        raise ValueError("mixture weights must be nonnegative")
    a = _bloch_matrix(q[:, k : 4 * k].reshape(len(q), k, 3))
    terms = _column(q[:, :k]) * kron(a, _werner2_matrix(q[:, 4 * k :]))
    return sum((terms[:, j] for j in range(1, k)), terms[:, 0])  # in order: .sum() can flip the sign of a zero


def _biseparable_features(q: np.ndarray) -> np.ndarray:
    """Exact features of biseparable rows, sum_j w_j kron((1, b_j), (1, p_j g)) less the identity's column, g the
    ``werner2`` record's; refused as the stack and :func:`validate_states` refuse them, with their messages."""
    n, k = len(q), BISEPARABLE_COMPONENTS
    if np.any(q[:, :k] < 0):
        raise ValueError("mixture weights must be nonnegative")
    a = _checked_bloch(q[:, k : 4 * k].reshape(n, k, 3)).T
    bc = _WERNER2.features(q[:, 4 * k :].reshape(-1, 1)).reshape(n, k, -1).T
    if not np.isfinite(q[:, : 4 * k]).all():
        raise ValueError("density matrix contains non-finite entries")
    if (tr_err := np.max(np.abs(q[:, :k].sum(axis=1) - 1.0), initial=0.0)) > TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {tr_err:.3e}")
    terms = _kron_features([a, bc])  # (word, component, row)
    terms *= q[:, :k].T
    return sum((terms[:, j] for j in range(1, k)), terms[:, 0]).T + 0.0


def _biseparable_sample(u: np.ndarray) -> np.ndarray:
    n, k = len(u), BISEPARABLE_COMPONENTS
    used = np.arange(k) < 1 + (k * u[:, :1]).astype(int)  # 1..k components
    raw = np.where(used, u[:, 1 : k + 1], 0.0)
    a_bloch = bloch_vectors(u[:, k + 1 : 4 * k + 1].reshape(n, k, 3)).reshape(n, -1)
    bc_p = 0.5 + 0.5 * u[:, 4 * k + 1 : 5 * k + 1]
    return np.hstack([raw / raw.sum(axis=1, keepdims=True), a_bloch, bc_p])


def _biseparable_describe(row: np.ndarray) -> dict:
    r, k = row.tolist(), BISEPARABLE_COMPONENTS
    return {"components": [{"weight": r[j], "a_bloch": r[k + 3 * j : k + 3 * j + 3], "bc_p": r[4 * k + j]}
                           for j in range(k) if r[j] > 0]}


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one state family.

    ``stack`` maps an (n, k) parameter array to an (n, d, d) stack of
    unvalidated matrices; its ``width`` k columns are the scalar parameters
    ``params`` names, in order, or the biseparable layout above (None: a
    Bloch vector per qubit, any register). Werner families carry ``p_min``,
    the lower end of the mixing range, and ``boundary``, the mixing
    parameter per label convention above which the state is entangled.
    ``concurrence_floor`` maps an overlap preset to the concurrence an
    entangled row must reach; a row keeps the first of its ``uniforms`` / 2
    angle pairs, drawn from the box that bounds C >= floor, that does. Under
    ``paper``, C > 0 is entangled.
    ``fixed_label`` is a class that holds under every convention. A dataset
    row takes ``uniforms`` draws, whole Philox outputs of four, for either
    class; ``sample`` maps them to the entangled class where the overlap
    preset plays no part. ``describe`` maps a row to the ``params:`` object
    of ``inspect``; None prints the named parameters. ``width`` and
    ``uniforms`` default to a Werner row's. ``features`` maps an (n, k)
    parameter array to its (n, 4^N - 1) exact features in closed form,
    refusing what ``stack`` and validation refuse; datasets use it, and build
    a stack only for a ``ppt-oracle`` label that reads it.
    """

    n_qubits: int
    stack: Callable[[np.ndarray], np.ndarray]
    features: Callable[[np.ndarray], np.ndarray]
    params: tuple = ()
    p_min: float | None = None
    boundary: dict | None = None
    fixed_label: int | None = None
    width: int | None = 1
    uniforms: int = 4
    sample: Callable[[np.ndarray], np.ndarray] | None = None
    describe: Callable[[np.ndarray], dict] | None = None
    concurrence_floor: dict | None = None


def _werner(n_qubits: int, matrix: Callable, p_min: float, paper: float, oracle: float) -> Family:
    """A Werner family's record, with states ``matrix(p)``: ``features`` maps a row to p g, g the exact features
    of its state at p = 1 (white noise has none), validated once here; + 0.0 as in :func:`_kron_features`."""
    g = matrix(np.ones(1))
    validate_states(g)
    g = exact_features(g)
    return Family(n_qubits, lambda q: matrix(q[:, 0]), lambda q: _mixing(n_qubits, q[:, 0])[:, None] * g + 0.0,
                  ("p",), p_min, {"paper": paper, "ppt-oracle": oracle})


_WERNER2 = _werner(2, _werner2_matrix, -1 / 3, 1 / 3, 1 / 3)
# The three-qubit diagonal state (1/8)(III + IZZ + ZIZ + ZZI), the equal mixture of |000> and |111>, PPT under
# every cut; validated once, as each Werner record validates its state at p = 1.
_PPT_ALTERNATIVE = np.diag([0.5, 0, 0, 0, 0, 0, 0, 0.5]).astype(complex)[None]
validate_states(_PPT_ALTERNATIVE)

FAMILIES = {
    "werner2": _WERNER2,
    "werner3": _werner(3, lambda p: _werner_ghz_matrix(3, p), 0.0, 1 / 5, 1 / 5),
    "werner4": _werner(4, lambda p: _werner_ghz_matrix(4, p), 0.0, 1 / 7, 1 / 9),
    "concurrence": Family(2, _concurrence_matrix, _concurrence_features, ("theta0", "theta1"), width=2, uniforms=48,
                          concurrence_floor={"high": 0.1, "medium": 0.4, "low": 0.8}),
    # Bound entangled: PPT under every cut, so the transpose oracle cannot see it. a, b, c log-uniform on [1/2, 2].
    "pptes-acin": Family(3, _pptes_matrix, _pptes_features, ("a", "b", "c"), fixed_label=ENTANGLED, width=3,
                         uniforms=12, sample=lambda u: np.exp(np.log(0.5) + u[:, :3] * (np.log(2.0) - np.log(0.5)))),
    "ppt-alt": Family(3, lambda q: np.repeat(_PPT_ALTERNATIVE, len(q), 0),
                      lambda q: np.repeat(exact_features(_PPT_ALTERNATIVE), len(q), 0),
                      width=0, uniforms=12, sample=lambda u: np.empty((len(u), 0))),
    "biseparable": Family(3, _biseparable_matrix, _biseparable_features, width=5 * BISEPARABLE_COMPONENTS,
                          uniforms=16, sample=_biseparable_sample, describe=_biseparable_describe),
    "product-sep": Family(2, lambda q: kron(*_bloch_matrix(q.reshape(len(q), -1, 3)).swapaxes(0, 1)),
                          lambda q: _kron_features(_checked_bloch(q.reshape(len(q), -1, 3)).transpose(1, 2, 0)).T,
                          fixed_label=SEPARABLE, width=None,
                          describe=lambda q: {"components": [{"weight": 1.0, "blochs": q.reshape(-1, 3).tolist()}]}),
}


def family(name: str) -> Family:
    """The registry record of a canonical family name."""
    if isinstance(name, str) and name in FAMILIES:
        return FAMILIES[name]
    raise ValueError(f"unknown family {name!r}; expected one of {tuple(FAMILIES)}")


def from_family(name: str, row) -> DensityOperator:
    """One validated state of a canonical family from one row of the
    parameter array its ``stack`` takes (see :class:`Family`); a row of
    another width is refused."""
    spec, row = family(name), np.asarray(row, dtype=float)
    width = spec.width
    if width is None:
        width = row.size if row.size and row.size % 3 == 0 else "a nonzero multiple of 3"
    if row.shape != (width,):
        raise ValueError(f"{name} row width {row.size}, expected {width}")
    return DensityOperator(spec.stack(row[None])[0])
