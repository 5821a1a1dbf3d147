"""Constructors for every state family used in the experiments.

Each canonical family (``werner2``, ``werner3``, ``werner4``,
``concurrence``, ``pptes-acin``, ``ppt-alt``, ``biseparable``,
``product-sep``) has one :class:`Family` record in :data:`FAMILIES`;
:func:`from_family` builds a state from a plain parameter dict. Builders
compose plain arrays and wrap the result in one :class:`DensityOperator`,
so each state is validated once. Random sampling lives in the experiment
harness; the constructors here are pure, except
:func:`random_product_state` which takes an explicit generator stream.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .qops import DensityOperator, kron, pauli_string_operator

# Class labels: -1 entangled, +1 separable.
ENTANGLED = -1
SEPARABLE = 1

# Correlation signs (s1, s2, s3) of <XX>, <YY>, <ZZ> for the four Bell
# states. Their product is always -1; no other pattern is realizable.
_BELL_SIGN_TABLE = {
    "phi+": (1, -1, 1),
    "phi-": (-1, 1, 1),
    "psi+": (1, 1, -1),
    "psi-": (-1, -1, -1),
}


@dataclass(frozen=True)
class BellSigns:
    """Diagonal correlation signs of a Bell state."""

    s1: int
    s2: int
    s3: int

    def __post_init__(self):
        if (self.s1, self.s2, self.s3) not in _BELL_SIGN_TABLE.values():
            raise ValueError(
                f"sign pattern {(self.s1, self.s2, self.s3)} does not match any Bell state; "
                f"allowed: {sorted(_BELL_SIGN_TABLE.values())}"
            )

    @classmethod
    def from_name(cls, name: str) -> "BellSigns":
        try:
            return cls(*_BELL_SIGN_TABLE[name])
        except KeyError:
            raise ValueError(f"unknown Bell state {name!r}; expected one of {sorted(_BELL_SIGN_TABLE)}") from None

    @classmethod
    def singlet(cls) -> "BellSigns":
        return cls(-1, -1, -1)


def _werner2_matrix(p: float, signs: BellSigns | None = None) -> np.ndarray:
    if signs is None:
        signs = BellSigns.singlet()
    if not (-1 / 3 - 1e-12 <= p <= 1 + 1e-12):
        raise ValueError(f"werner2 mixing parameter p={p} outside [-1/3, 1]")
    m = pauli_string_operator("II").astype(complex)
    for letter, s in zip("XYZ", (signs.s1, signs.s2, signs.s3)):
        m += p * s * pauli_string_operator(letter * 2)
    return m / 4.0


def werner2(p: float, signs: BellSigns | None = None) -> DensityOperator:
    """Two-qubit Werner state: Bell projector mixed with white noise.

    Built from its diagonal Pauli expansion, (1/4) (II + p s1 XX +
    p s2 YY + p s3 ZZ), which equals p |Bell><Bell| + (1-p) I/4 for the
    Bell state matching ``signs``. Valid mixing range is p in [-1/3, 1].
    """
    return DensityOperator(_werner2_matrix(p, signs))


def _ghz_matrix(n_qubits: int) -> np.ndarray:
    psi = np.zeros(2**n_qubits, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def _depolarized(m: np.ndarray, p: float) -> np.ndarray:
    eye = np.eye(len(m), dtype=complex) / len(m)
    return p * m + (1 - p) * eye


def ghz_state(n_qubits: int) -> DensityOperator:
    """Projector onto (|0...0> + |1...1>)/sqrt(2)."""
    return DensityOperator(_ghz_matrix(n_qubits))


def werner_ghz(n_qubits: int, p: float) -> DensityOperator:
    """n-qubit GHZ-based Werner state p |GHZ><GHZ| + (1-p) I / 2^n."""
    if n_qubits not in (3, 4):
        raise ValueError(f"werner_ghz supports 3 or 4 qubits, got {n_qubits}")
    if not (0 <= p <= 1):
        raise ValueError(f"werner_ghz mixing parameter p={p} outside [0, 1]")
    return DensityOperator(_depolarized(_ghz_matrix(n_qubits), p))


def concurrence_state(theta0: float, theta1: float) -> DensityOperator:
    """Pure two-qubit state from the two-rotation preparation circuit.

    Amplitudes: cos(theta0/2) on |00>, -i sin(theta0/2) cos(theta1/2) on
    |10>, -i sin(theta0/2) sin(theta1/2) on |11>. Its concurrence is
    sin(theta0) sin(theta1/2).
    """
    if not (0 <= theta0 <= np.pi) or not (0 <= theta1 <= np.pi):
        raise ValueError(f"angles ({theta0}, {theta1}) outside [0, pi]")
    psi = np.array(
        [
            np.cos(theta0 / 2),
            0.0,
            -1j * np.sin(theta0 / 2) * np.cos(theta1 / 2),
            -1j * np.sin(theta0 / 2) * np.sin(theta1 / 2),
        ],
        dtype=complex,
    )
    return DensityOperator(np.outer(psi, psi.conj()))


def depolarize(rho: DensityOperator, p: float) -> DensityOperator:
    """Depolarizing channel with survival weight p: p rho + (1-p) I / 2^n."""
    if not (0 <= p <= 1):
        raise ValueError(f"depolarizing weight p={p} outside [0, 1]")
    return DensityOperator(_depolarized(rho.matrix, p))


def pptes_acin(a: float, b: float, c: float) -> DensityOperator:
    """Three-qubit bound-entangled family: diagonal (1, a, b, c, 1/c, 1/b,
    1/a, 1) plus unit corner couplings, normalized by
    2 + a + 1/a + b + 1/b + c + 1/c. PPT across every bipartition for all
    positive parameters."""
    if a <= 0 or b <= 0 or c <= 0:
        raise ValueError(f"parameters must be positive, got a={a}, b={b}, c={c}")
    norm = 2 + a + 1 / a + b + 1 / b + c + 1 / c
    m = np.diag(np.array([1, a, b, c, 1 / c, 1 / b, 1 / a, 1], dtype=complex))
    m[0, 7] = m[7, 0] = 1.0
    return DensityOperator(m / norm)


def ppt_alternative() -> DensityOperator:
    """Three-qubit diagonal state (1/8)(III + IZZ + ZIZ + ZZI).

    Equals an equal mixture of |000> and |111|; PPT under every cut.
    """
    m = sum(pauli_string_operator(s) for s in ("III", "IZZ", "ZIZ", "ZZI"))
    return DensityOperator(m / 8.0)


def _bloch_matrix(bloch) -> np.ndarray:
    b = np.asarray(bloch, dtype=float)
    if b.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got shape {b.shape}")
    r = float(np.linalg.norm(b))
    if r > 1 + 1e-12:
        raise ValueError(f"Bloch vector length {r} exceeds 1")
    m = np.eye(2, dtype=complex)
    for component, letter in zip(b, "XYZ"):
        m += component * pauli_string_operator(letter)
    return m / 2.0


def _kron_all(factors) -> np.ndarray:
    if not factors:
        raise ValueError("need at least one Bloch vector")
    m = factors[0]
    for factor in factors[1:]:
        m = kron(m, factor)
    return m


def _weighted_kron_sum(components) -> np.ndarray:
    """sum_k w_k (F_k1 x F_k2 x ...) over ``(weight, factor matrices)`` pairs.

    The weights must be nonnegative; that they sum to one is left to the
    trace check of the state built from the result.
    """
    total = None
    for weight, factors in components:
        if weight < 0:
            raise ValueError("mixture weights must be nonnegative")
        term = weight * _kron_all(factors)
        total = term if total is None else total + term
    if total is None:
        raise ValueError("a mixture needs at least one component")
    return total


def bloch_state(bloch: np.ndarray) -> DensityOperator:
    """Single-qubit state (1/2)(I + b . sigma) for a Bloch vector b."""
    return DensityOperator(_bloch_matrix(bloch))


def product_state(blochs) -> DensityOperator:
    """Tensor product of single-qubit Bloch states."""
    return DensityOperator(_kron_all([_bloch_matrix(b) for b in blochs]))


def random_bloch_vector(rng: np.random.Generator, max_radius: float = 1.0) -> np.ndarray:
    """Vector distributed uniformly in the Bloch ball of radius ``max_radius``.

    Direction uniform on the sphere, radius u**(1/3) so the volume density
    is flat.
    """
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    radius = max_radius * rng.random() ** (1 / 3)
    return radius * direction


def random_product_state(n_qubits: int, rng: np.random.Generator, max_radius: float = 1.0) -> DensityOperator:
    """Product of ``n_qubits`` independent Bloch-ball-uniform qubit states."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    return product_state([random_bloch_vector(rng, max_radius) for _ in range(n_qubits)])


def _biseparable(params: dict) -> DensityOperator:
    """Mixture of A|BC products: a Bloch state on qubit 0 times a Werner pair."""
    return DensityOperator(
        _weighted_kron_sum(
            (comp["weight"], (_bloch_matrix(comp["a_bloch"]), _werner2_matrix(comp["bc_p"])))
            for comp in params["components"]
        )
    )


def _product_mixture(params: dict) -> DensityOperator:
    """Mixture of fully separable products of single-qubit Bloch states."""
    return DensityOperator(
        _weighted_kron_sum(
            (comp["weight"], [_bloch_matrix(b) for b in comp["blochs"]]) for comp in params["components"]
        )
    )


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one state family.

    ``build`` maps a sampler's parameter dict to the state; ``params`` names
    its scalar parameters. Werner families carry ``p_min``, the lower end of
    the mixing range, and ``boundary``, the mixing parameter per label
    convention above which the state is entangled. ``fixed_label`` is a
    class that holds under every convention.
    """

    n_qubits: int
    build: Callable[[dict], DensityOperator]
    params: tuple = ()
    p_min: float | None = None
    boundary: dict | None = None
    fixed_label: int | None = None


FAMILIES = {
    "werner2": Family(2, lambda q: werner2(q["p"]), ("p",), -1 / 3, {"paper": 1 / 3, "ppt-oracle": 1 / 3}),
    "werner3": Family(3, lambda q: werner_ghz(3, q["p"]), ("p",), 0.0, {"paper": 1 / 5, "ppt-oracle": 1 / 5}),
    "werner4": Family(4, lambda q: werner_ghz(4, q["p"]), ("p",), 0.0, {"paper": 1 / 7, "ppt-oracle": 1 / 9}),
    "concurrence": Family(2, lambda q: concurrence_state(q["theta0"], q["theta1"]), ("theta0", "theta1")),
    # Bound entangled: PPT under every cut, so the transpose oracle cannot see it.
    "pptes-acin": Family(3, lambda q: pptes_acin(q["a"], q["b"], q["c"]), ("a", "b", "c"), fixed_label=ENTANGLED),
    "ppt-alt": Family(3, lambda q: ppt_alternative()),
    "biseparable": Family(3, _biseparable),
    "product-sep": Family(2, _product_mixture, fixed_label=SEPARABLE),
}


def family(name: str) -> Family:
    """The registry record of a canonical family name."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; expected one of {tuple(FAMILIES)}") from None


def from_family(name: str, params: dict) -> DensityOperator:
    """Build a state from its canonical family name and parameter dict.

    The dict layout matches what the experiment samplers record: scalar
    parameters for the parametric families, explicit Bloch vectors and
    component weights for the random ones, so the build is exact and
    rng-free.
    """
    return family(name).build(params)
