"""Every state family used in the experiments.

Each canonical family (``werner2``, ``werner3``, ``werner4``,
``concurrence``, ``pptes-acin``, ``ppt-alt``, ``biseparable``,
``product-sep``) has one :class:`Family` record in :data:`FAMILIES`,
which owns every fact about it but the overlap presets' margins and shot
counts. Its ``stack`` builds a dataset chunk as one (n, d, d) array from an
(n, k) parameter array, the one parameter layout; :func:`from_family` builds
one validated state from one row of it. The array cores check the parameter
ranges, so both refuse a bad row with one message. Everything here is pure.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .qops import DensityOperator, kron, pauli_matrix, pauli_string_operator

# Class labels: -1 entangled, +1 separable.
ENTANGLED = -1
SEPARABLE = 1

# Signs of <XX>, <YY>, <ZZ> in the singlet |psi-> = (|01> - |10>)/sqrt(2).
_SINGLET_SIGNS = (-1, -1, -1)

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


def _werner2_matrix(p) -> np.ndarray:
    """Two-qubit Werner state p |psi-><psi-| + (1-p) I/4, a valid state for
    p in [-1/3, 1], built from its diagonal Pauli expansion (1/4)(II - p XX
    - p YY - p ZZ)."""
    p = np.asarray(p, dtype=float)
    _require((-1 / 3 - 1e-12 <= p) & (p <= 1 + 1e-12), "werner2 mixing parameter p={p} outside [-1/3, 1]", p=p)
    m = pauli_string_operator("II").astype(complex)
    for letter, s in zip("XYZ", _SINGLET_SIGNS):
        m = m + _column(p) * s * pauli_string_operator(letter * 2)
    return m / 4.0


def _werner_ghz_matrix(n_qubits: int, p) -> np.ndarray:
    """n-qubit GHZ-based Werner state p |GHZ><GHZ| + (1-p) I/2^n, with
    |GHZ> = (|0...0> + |1...1>)/sqrt(2)."""
    p = np.asarray(p, dtype=float)
    _require((0 <= p) & (p <= 1), f"werner{n_qubits} mixing parameter p={{p}} outside [0, 1]", p=p)
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


def _concurrence_matrix(theta0, theta1) -> np.ndarray:
    """Pure two-qubit state of the two-rotation preparation circuit:
    cos(theta0/2) on |00>, -i sin(theta0/2) cos(theta1/2) on |10> and
    -i sin(theta0/2) sin(theta1/2) on |11>. Its concurrence is
    C = sin(theta0) sin(theta1/2)."""
    theta0, theta1 = checked_angles(theta0, theta1)
    psi = np.zeros(theta0.shape + (4,), dtype=complex)
    psi[..., 0] = np.cos(theta0 / 2)
    psi[..., 2] = -1j * np.sin(theta0 / 2) * np.cos(theta1 / 2)
    psi[..., 3] = -1j * np.sin(theta0 / 2) * np.sin(theta1 / 2)
    return psi[..., :, None] * psi.conj()[..., None, :]


def _pptes_matrix(a, b, c) -> np.ndarray:
    """Three-qubit bound-entangled state: diagonal (1, a, b, c, 1/c, 1/b,
    1/a, 1) plus unit corner couplings, normalized by 2 + a + 1/a + b + 1/b
    + c + 1/c. PPT under every cut for all positive parameters."""
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    _require((a > 0) & (b > 0) & (c > 0), "parameters must be positive, got a={a}, b={b}, c={c}", a=a, b=b, c=c)
    diagonal = np.stack(np.broadcast_arrays(1.0, a, b, c, 1 / c, 1 / b, 1 / a, 1.0), axis=-1)
    m = diagonal[..., None] * np.eye(8)
    m[..., 0, 7] = m[..., 7, 0] = 1.0
    return m / _column(2 + a + 1 / a + b + 1 / b + c + 1 / c)


def _ppt_alternative_matrix() -> np.ndarray:
    """Three-qubit diagonal state (1/8)(III + IZZ + ZIZ + ZZI), the equal
    mixture of |000> and |111>; PPT under every cut."""
    return sum(pauli_string_operator(s) for s in ("III", "IZZ", "ZIZ", "ZZI")) / 8.0


def bloch_vectors(u: np.ndarray) -> np.ndarray:
    """Bloch-ball-uniform vectors from (..., 3) uniforms read as (cos theta,
    phi, r), with radius u**(1/3) so the volume density is flat."""
    cos_t, phi, r = 2 * u[..., 0] - 1, 2 * np.pi * u[..., 1], u[..., 2] ** (1 / 3)
    sin_t = np.sqrt(1 - cos_t**2)
    return r[..., None] * np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=-1)


def _bloch_matrix(bloch) -> np.ndarray:
    """Single-qubit state (1/2)(I + b . sigma) per Bloch vector b (last axis)."""
    b = np.asarray(bloch, dtype=float)
    r = float(np.max(np.linalg.norm(b, axis=-1)))
    if r > 1 + 1e-12:
        raise ValueError(f"Bloch vector length {r} exceeds 1")
    m = np.eye(2, dtype=complex)
    for k, letter in enumerate("XYZ"):
        m = m + _column(b[..., k]) * pauli_matrix(letter)
    return m / 2.0


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
    angle pairs that does. Under ``paper``, C > 0 is entangled.
    ``fixed_label`` is a class that holds under every convention. A dataset
    row takes ``uniforms`` draws, whole Philox outputs of four, for either
    class; ``sample`` maps them to the entangled class where the overlap
    preset plays no part. ``describe`` maps a row to the ``params:`` object
    of ``inspect``; None prints the named parameters. ``width`` and
    ``uniforms`` default to a Werner row's.
    """

    n_qubits: int
    stack: Callable[[np.ndarray], np.ndarray]
    params: tuple = ()
    p_min: float | None = None
    boundary: dict | None = None
    fixed_label: int | None = None
    width: int | None = 1
    uniforms: int = 4
    sample: Callable[[np.ndarray], np.ndarray] | None = None
    describe: Callable[[np.ndarray], dict] | None = None
    concurrence_floor: dict | None = None


FAMILIES = {
    "werner2": Family(2, lambda q: _werner2_matrix(q[:, 0]), ("p",), -1 / 3, {"paper": 1 / 3, "ppt-oracle": 1 / 3}),
    "werner3": Family(3, lambda q: _werner_ghz_matrix(3, q[:, 0]), ("p",), 0.0, {"paper": 1 / 5, "ppt-oracle": 1 / 5}),
    "werner4": Family(4, lambda q: _werner_ghz_matrix(4, q[:, 0]), ("p",), 0.0, {"paper": 1 / 7, "ppt-oracle": 1 / 9}),
    "concurrence": Family(2, lambda q: _concurrence_matrix(q[:, 0], q[:, 1]), ("theta0", "theta1"),
                          width=2, uniforms=512, concurrence_floor={"high": 0.1, "medium": 0.4, "low": 0.8}),
    # Bound entangled: PPT under every cut, so the transpose oracle cannot see it. a, b, c log-uniform on [1/2, 2].
    "pptes-acin": Family(3, lambda q: _pptes_matrix(*q.T), ("a", "b", "c"), fixed_label=ENTANGLED, width=3,
                         uniforms=12, sample=lambda u: np.exp(np.log(0.5) + u[:, :3] * (np.log(2.0) - np.log(0.5)))),
    "ppt-alt": Family(3, lambda q: np.repeat(_ppt_alternative_matrix()[None], len(q), 0),
                      width=0, uniforms=12, sample=lambda u: np.empty((len(u), 0))),
    "biseparable": Family(3, _biseparable_matrix, width=5 * BISEPARABLE_COMPONENTS, uniforms=16,
                          sample=_biseparable_sample, describe=_biseparable_describe),
    "product-sep": Family(2, lambda q: kron(*_bloch_matrix(q.reshape(len(q), -1, 3)).swapaxes(0, 1)),
                          fixed_label=SEPARABLE, width=None,
                          describe=lambda q: {"components": [{"weight": 1.0, "blochs": q.reshape(-1, 3).tolist()}]}),
}


def family(name: str) -> Family:
    """The registry record of a canonical family name."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; expected one of {tuple(FAMILIES)}") from None


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
