"""Tests for the dense operator algebra layer."""

import functools
import itertools
import sys

import numpy as np
import pytest

from entflda import labels, qops, states
from entflda.experiments import OVERLAP_LEVELS, ExperimentConfig, generate_dataset
from entflda.qops import (
    HERMITICITY_TOL,
    PSD_TOL,
    DensityOperator,
    kron,
    partial_transpose,
    validate_states,
)
from oracles import expectation, hermitian_eigenvalues, pauli_word

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def random_density(rng, n_qubits):
    """Wishart-style random mixed state, valid by construction."""
    dim = 2**n_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / m.trace())


def states_with_spectra(rng, spectra, real=False):
    """A stack of Hermitian matrices U diag(spectrum) U^H, one per row of
    ``spectra`` (each summing to 1), with Haar-like random unitary U
    (orthogonal if ``real``)."""
    n, dim = spectra.shape
    g = rng.normal(size=(n, dim, dim))
    if not real:
        g = g + 1j * rng.normal(size=(n, dim, dim))
    u = np.linalg.qr(g)[0]
    m = (u * spectra[:, None, :]) @ u.conj().swapaxes(-1, -2)
    return (m + m.conj().swapaxes(-1, -2)) / 2


def spectra_with_minimum(rng, min_eigs, dim, zeros=0):
    """One unit-trace spectrum per entry of ``min_eigs``: that smallest
    eigenvalue, ``zeros`` exact zeros and random positive values."""
    rest = rng.random((len(min_eigs), dim - 1 - zeros)) + 1e-3
    rest *= (1 - np.asarray(min_eigs))[:, None] / rest.sum(axis=1, keepdims=True)
    return np.column_stack([min_eigs, np.zeros((len(min_eigs), zeros)), rest])


@functools.lru_cache(maxsize=None)
def valid_stack(dim, real):
    """A read-only 256-row stack of valid states of rank dim / 2 - 1 (pure
    at d = 4), rank-deficient as the pure and low-rank family states are."""
    rng = np.random.default_rng(dim)
    stack = states_with_spectra(rng, spectra_with_minimum(rng, np.zeros(256), dim, zeros=dim // 2), real)
    stack.setflags(write=False)
    return stack


def eigvalsh_rule(m):
    """The refusal message of the positivity rule taken directly from
    ``eigvalsh`` (None when it accepts)."""
    min_eig = float(np.min(np.linalg.eigvalsh(m)[..., 0]))
    return None if min_eig >= PSD_TOL else f"matrix is not positive semi-definite (min eigenvalue {min_eig:.3e})"


def refusal(m):
    """``validate_states``' message for ``m``, or None when it accepts."""
    try:
        validate_states(m)
    except ValueError as exc:
        return str(exc)
    return None


class TestKron:
    def test_identity_case(self):
        np.testing.assert_array_equal(kron(I2, I2), np.eye(4))

    def test_zz_diagonal(self):
        np.testing.assert_array_equal(kron(Z, Z), np.diag([1, -1, -1, 1]).astype(complex))

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_size_overflow(self):
        big = np.eye(16)
        with pytest.raises(ValueError, match="exceeds"):
            kron(big, big)
        with pytest.raises(ValueError, match="dimension 128 exceeds"):
            kron(*[I2] * 7)

    def test_n_ary_is_left_fold(self):
        rng = np.random.default_rng(43)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        np.testing.assert_array_equal(kron(a, b, c), np.kron(np.kron(a, b), c))
        np.testing.assert_array_equal(kron(a), a)

    def test_empty_product(self):
        with pytest.raises(ValueError, match="empty tensor product"):
            kron()

    def test_non_matrix_factor_refused(self):
        with pytest.raises(ValueError, match="^kron expects matrices or stacks of matrices$"):
            kron(I2, np.ones(2))

    def test_stacks_give_one_product_per_entry(self):
        rng = np.random.default_rng(44)
        a = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        b = rng.normal(size=(5, 4, 4))
        np.testing.assert_array_equal(kron(a, b), [np.kron(x, y) for x, y in zip(a, b)])
        np.testing.assert_array_equal(kron(a, Z), [np.kron(x, Z) for x in a])


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize(
        "bad,message",
        [
            (np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex), "not Hermitian"),
            (np.eye(2, dtype=complex), "trace deviates"),
            (np.diag([1.5, -0.5]).astype(complex), "not positive semi-definite"),
            (np.array([[np.inf, 0], [0, 0]], dtype=complex), "non-finite"),
        ],
    )
    def test_stack_check_matches_single_state_check(self, bad, message):
        """validate_states raises for one bad matrix anywhere in a stack, with
        the message DensityOperator gives that matrix."""
        with pytest.raises(ValueError, match=message) as single:
            DensityOperator(bad)
        good = np.stack([random_density(np.random.default_rng(k), 1).matrix for k in range(5)])
        validate_states(good)
        for position in (0, 2, 4):
            stack = good.copy()
            stack[position] = bad
            with pytest.raises(ValueError) as stacked:
                validate_states(stack)
            assert str(stacked.value) == str(single.value)

    def test_register_beyond_max_qubits_refused(self):
        with pytest.raises(ValueError, match=r"^qubit count 7 outside supported range \[1, 6\]$"):
            DensityOperator(np.eye(128) / 128)

    def test_matrix_is_immutable(self):
        rho = DensityOperator(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.3


class TestPositivityCertificate:
    """``validate_states`` proves positivity with a Cholesky factor and runs
    ``eigvalsh`` only when that fails; every decision and message must be
    the ``eigvalsh`` rule's."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("dim", [4, 8, 16, 64])
    @pytest.mark.parametrize("offset", [-qops._PSD_MARGIN, -1e-12, 1e-12, qops._PSD_MARGIN])
    def test_boundary_matches_eigvalsh_rule(self, offset, dim, real):
        """A state whose smallest eigenvalue is PSD_TOL -/+ 1e-12 or the
        margin is refused/accepted as ``eigvalsh`` decides, alone and as row
        200 of a 256-row stack of rank-deficient valid states. A Hermiticity
        defect within tolerance in the upper triangle changes nothing: both
        factorisations read the lower one."""
        rng = np.random.default_rng(dim)
        bad = states_with_spectra(rng, spectra_with_minimum(rng, [PSD_TOL + offset], dim), real)[0]
        bad += np.triu(rng.choice([-0.5, 0.5], size=(dim, dim)) * HERMITICITY_TOL, 1)
        expected = eigvalsh_rule(bad)
        assert (expected is None) == (offset > 0)
        assert refusal(bad) == expected
        stack = valid_stack(dim, real).copy()
        assert refusal(stack) is None
        stack[200] = bad
        assert refusal(stack) == eigvalsh_rule(stack) == expected

    def test_decision_matches_eigvalsh_rule_property(self):
        """Property: for random unitaries and spectra whose smallest
        eigenvalues lie near the tolerance, at d in {2, 4, 8, 16, 64}, real or
        complex, one state or a stack, ``validate_states`` accepts exactly
        when ``eigvalsh(m).min() >= PSD_TOL`` and refuses with its message."""
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        margin = qops._PSD_MARGIN
        offset = st.one_of(
            st.sampled_from([-margin, -1e-12, 0.0, 1e-12, margin, -PSD_TOL]),
            st.floats(-3 * margin, 3 * margin),
        )

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            dim=st.sampled_from([2, 4, 8, 16, 64]),
            real=st.booleans(),
            offsets=st.lists(offset, min_size=1, max_size=4),
            zeros=st.integers(0, 63),
            seed=st.integers(0, 2**32 - 1),
        )
        def same_decision(dim, real, offsets, zeros, seed):
            rng = np.random.default_rng(seed)
            spectra = spectra_with_minimum(rng, PSD_TOL + np.array(offsets), dim, zeros=min(zeros, dim - 2))
            stack = states_with_spectra(rng, spectra, real)
            for m in (stack[0], stack):
                assert refusal(m) == eigvalsh_rule(m)

        same_decision()

    @pytest.mark.parametrize("convention", labels.LABEL_CONVENTIONS)
    def test_generation_proves_every_chunk_without_eigvalsh(self, convention, monkeypatch):
        """Every generated chunk is valid, so the Cholesky proof accepts it
        and ``validate_states`` never reaches ``eigvalsh`` (the ``ppt-oracle``
        labels still call it, from ``labels``)."""
        eigvalsh = np.linalg.eigvalsh

        def outside_qops(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == qops.__name__:
                raise AssertionError("validate_states ran eigvalsh on a valid chunk")
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", outside_qops)
        for family, spec in states.FAMILIES.items():
            if spec.fixed_label == labels.SEPARABLE:
                continue
            for overlap in OVERLAP_LEVELS:
                generate_dataset(ExperimentConfig(family=family, overlap=overlap, n_samples=300, shots=0,
                                                  label_convention=convention))


class TestPartialTranspose:
    def test_maximally_mixed_invariant(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        np.testing.assert_allclose(partial_transpose(rho.matrix, {0}), rho.matrix, atol=1e-15)

    def test_singlet_min_eigenvalue(self):
        # pure singlet: transposing one qubit exposes eigenvalue -1/2
        psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        rho = DensityOperator(np.outer(psi, psi.conj()))
        eigs = hermitian_eigenvalues(partial_transpose(rho.matrix, {1}))
        np.testing.assert_allclose(eigs[0], -0.5, atol=1e-12)

    def test_ghz3_min_eigenvalue(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = psi[7] = 1 / np.sqrt(2)
        rho = DensityOperator(np.outer(psi, psi.conj()))
        eigs = hermitian_eigenvalues(partial_transpose(rho.matrix, {2}))
        np.testing.assert_allclose(eigs[0], -0.5, atol=1e-12)

    def test_involution_trace_hermiticity(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            rho = random_density(rng, n)
            subset = {int(q) for q in rng.choice(n, size=rng.integers(1, n + 1), replace=False)}
            pt = partial_transpose(rho.matrix, subset)
            assert abs(pt.trace() - 1.0) < 1e-12
            np.testing.assert_allclose(pt, pt.conj().T, atol=1e-12)
            pt2 = partial_transpose(pt, subset)
            np.testing.assert_array_equal(pt2, rho.matrix)

    def test_full_set_is_global_transpose(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(partial_transpose(rho.matrix, {0, 1}), rho.matrix.T, atol=1e-15)

    def test_empty_subset_rejected(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        with pytest.raises(ValueError, match="empty"):
            partial_transpose(rho.matrix, set())

    def test_out_of_range_rejected(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        with pytest.raises(ValueError, match="out of range"):
            partial_transpose(rho.matrix, {2})

    def test_stack_transposes_each_matrix(self):
        rng = np.random.default_rng(45)
        stack = np.stack([random_density(rng, 3).matrix for _ in range(4)])
        for subset in ({0}, {1, 2}, {2}):
            expected = [partial_transpose(m, subset) for m in stack]
            np.testing.assert_array_equal(partial_transpose(stack, subset), expected)

    def test_involution_property(self):
        """Property: on a complex stack of 2 to 4 qubits, transposing any
        nonempty subsystem set twice gives back the input bit for bit
        (-0.0, infinities and NaN payloads included)."""
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st
        from hypothesis.extra.numpy import arrays

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(data=st.data(), n_qubits=st.integers(2, 4), depth=st.integers(1, 3))
        def involution(data, n_qubits, depth):
            dim = 2**n_qubits
            stack = data.draw(arrays(np.complex128, (depth, dim, dim), elements=st.complex_numbers()))
            for size in range(1, n_qubits + 1):
                for subset in itertools.combinations(range(n_qubits), size):
                    twice = partial_transpose(partial_transpose(stack, subset), subset)
                    assert twice.shape == stack.shape and twice.tobytes() == stack.tobytes()

        involution()

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (3, 3)])
    def test_non_qubit_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"2\^N x 2\^N"):
            partial_transpose(np.zeros(shape), {0})


class TestHermitianEigenvalues:
    def test_diagonal_sorted(self):
        np.testing.assert_allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_sigma_x(self):
        np.testing.assert_allclose(hermitian_eigenvalues(X), [-1, 1], atol=1e-15)

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = g + g.conj().T
        eigs = hermitian_eigenvalues(h)
        assert abs(eigs.sum() - h.trace().real) < 1e-8 * 6

    def test_projector_spectrum(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = psi[7] = 1 / np.sqrt(2)
        eigs = hermitian_eigenvalues(np.outer(psi, psi.conj()))
        assert np.all((np.abs(eigs) < 1e-9) | (np.abs(eigs - 1) < 1e-9))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestExpectation:
    def test_identity_normalization(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 2)
        assert abs(expectation(rho, np.eye(4)) - 1.0) < 1e-12

    def test_werner_zz(self):
        # direct 4x4 trace oracle: <ZZ> of the singlet Werner state is -p
        zz = np.kron(Z, Z)
        for p in (0.0, 0.5, 1.0):
            psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
            rho = DensityOperator(p * np.outer(psi, psi.conj()) + (1 - p) * np.eye(4) / 4)
            oracle = np.trace(rho.matrix @ zz).real
            np.testing.assert_allclose(expectation(rho, zz), oracle, atol=1e-14)
            np.testing.assert_allclose(oracle, -p, atol=1e-12)

    def test_maximally_mixed_traceless_observable(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        assert abs(expectation(rho, np.kron(X, Y))) < 1e-15

    def test_bounded_for_pauli_strings(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            rho = random_density(rng, 2)
            word = "".join(rng.choice(list("IXYZ"), size=2))
            assert abs(expectation(rho, pauli_word(word))) <= 1 + 1e-10

    def test_dimension_mismatch(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        with pytest.raises(ValueError, match="does not match"):
            expectation(rho, np.eye(8))
