"""Tests for labeling conventions and separability oracles."""

from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import brentq

from entflda import labels
from entflda.qops import partial_transpose
from entflda.states import FAMILIES, bloch_vectors, from_family
from oracles import hermitian_eigenvalues, pauli_word


def state(name, *params):
    """The density matrix ``from_family`` builds from the parameters."""
    return from_family(name, params).matrix


def two_qubit_werner(p):
    return state("werner2", p)


def random_product_state(n_qubits, rng):
    return state("product-sep", *bloch_vectors(rng.random((n_qubits, 3))).ravel())


class TestPptReport:
    def test_werner2_boundary(self):
        report = labels.ppt_report(two_qubit_werner(1 / 3))
        assert set(report["min_eigenvalues"]) == {"0|1"}
        assert abs(report["min_eigenvalues"]["0|1"]) < 1e-10
        assert report["is_ppt_all"]

    def test_matches_per_cut_eigenvalues(self):
        # one stacked eigvalsh gives the same bits as a call per cut
        rng = np.random.default_rng(9)
        for n in (2, 3, 4):
            g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            rho = g @ g.conj().T / np.trace(g @ g.conj().T)
            expected = {
                descriptor: float(hermitian_eigenvalues(partial_transpose(rho, subset))[0])
                for descriptor, subset in labels._bipartitions(n)
            }
            assert labels.ppt_report(rho)["min_eigenvalues"] == expected

    def test_single_qubit_has_no_cut(self):
        report = labels.ppt_report(np.eye(2, dtype=complex) / 2)
        assert report == {"min_eigenvalues": {}, "is_ppt_all": True}

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (1, 1), (2, 4, 4)])
    def test_non_qubit_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"expected a 2\^N x 2\^N matrix, got shape"):
            labels.ppt_report(np.full(shape, 1 / 3))

    def test_product_states_always_ppt(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4):
            assert labels.ppt_report(random_product_state(n, rng))["is_ppt_all"]

    def test_cut_enumeration(self):
        rng = np.random.default_rng(6)
        assert len(labels.ppt_report(random_product_state(2, rng))["min_eigenvalues"]) == 1
        assert len(labels.ppt_report(random_product_state(3, rng))["min_eigenvalues"]) == 3
        assert len(labels.ppt_report(random_product_state(4, rng))["min_eigenvalues"]) == 7

    def test_three_qubit_cuts(self):
        assert labels._bipartitions(3) == [("0|12", [1, 2]), ("01|2", [2]), ("02|1", [1])]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cuts_are_the_blocks_holding_qubit_zero(self, n):
        """One cut per proper subset holding qubit 0, in order of its bit mask."""
        expected = []
        for size in range(1, n):
            for rest in combinations(range(1, n), size - 1):
                left = [0, *rest]
                right = [q for q in range(n) if q not in left]
                descriptor = "".join(map(str, left)) + "|" + "".join(map(str, right))
                expected.append((sum(1 << q for q in left), descriptor, right))
        assert labels._bipartitions(n) == [(descriptor, right) for _, descriptor, right in sorted(expected)]

    def test_complement_symmetry(self):
        # a cut and its complement expose identical minimum eigenvalues
        rng = np.random.default_rng(8)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = g @ g.conj().T
        rho = m / m.trace()
        for subset, complement in (({0}, {1, 2}), ({1}, {0, 2}), ({2}, {0, 1})):
            a = hermitian_eigenvalues(partial_transpose(rho, subset))[0]
            b = hermitian_eigenvalues(partial_transpose(rho, complement))[0]
            assert abs(a - b) < 1e-10

    def test_ghz_werner_crossing_at_one_fifth(self):
        def worst_cut(p):
            return min(labels.ppt_report(state("werner3", p))["min_eigenvalues"].values())

        root = brentq(worst_cut, 0.05, 0.95, xtol=1e-9)
        assert abs(root - 0.2) < 1e-6


class TestConcurrenceAnalytic:
    def test_maximal_endpoint(self):
        assert labels.concurrence_analytic(np.pi / 2, np.pi) == 1.0

    def test_zero_for_theta0_zero(self):
        for t1 in (0.0, 1.0, np.pi):
            assert labels.concurrence_analytic(0.0, t1) == 0.0

    def test_zero_for_theta0_pi(self):
        """theta0 = pi prepares |1> (x) (cos |0> + sin |1>), a product state,
        though np.sin(np.pi) is 1.2e-16."""
        for t1 in (0.0, 1.0, 2.0, np.pi):
            assert labels.concurrence_analytic(np.pi, t1) == 0.0
        assert np.all(labels.concurrence_analytic(np.full(3, np.pi), np.array([0.5, 2.0, np.pi])) == 0.0)
        below = np.nextafter(np.pi, 0.0)
        assert labels.concurrence_analytic(below, 2.0) == np.sin(below) * np.sin(1.0) > 0

    def test_intermediate(self):
        np.testing.assert_allclose(labels.concurrence_analytic(np.pi / 2, np.pi / 2), np.sqrt(2) / 2, atol=1e-15)

    def test_range_check(self):
        with pytest.raises(ValueError, match="outside"):
            labels.concurrence_analytic(4.0, 1.0)

    def test_array_refusal_names_one_pair_as_the_stack_does(self):
        """The closed form and the concurrence stack share one angle check:
        an out-of-range array is refused naming its first bad pair."""
        theta0, theta1 = np.linspace(0, 3.3, 40), np.linspace(0.1, 3.3, 40)
        first = int(np.argmax(theta0 > np.pi))
        expected = f"angles ({theta0[first]}, {theta1[first]}) outside [0, pi]"
        with pytest.raises(ValueError) as analytic:
            labels.concurrence_analytic(theta0, theta1)
        with pytest.raises(ValueError) as stack:
            FAMILIES["concurrence"].stack(np.column_stack([theta0, theta1]))
        assert str(analytic.value) == str(stack.value) == expected


class TestConcurrenceWootters:
    def test_maximally_mixed(self):
        rho = np.eye(4, dtype=complex) / 4
        assert labels.concurrence_wootters(rho) == 0.0

    def test_singlet(self):
        assert abs(labels.concurrence_wootters(two_qubit_werner(1.0)) - 1.0) < 1e-9

    def test_werner_closed_form(self):
        # Werner concurrence max(0, (3p-1)/2)
        assert abs(labels.concurrence_wootters(two_qubit_werner(0.5)) - 0.25) < 1e-9
        assert labels.concurrence_wootters(two_qubit_werner(0.2)) == 0.0

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError, match="two-qubit"):
            labels.concurrence_wootters(state("werner3", 0.5))

    @pytest.mark.parametrize("shape", [(8, 8), (2, 2), (4, 3), (2, 4, 4)])
    def test_non_two_qubit_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"two-qubit measure, got shape \(" + ", ".join(map(str, shape))):
            labels.concurrence_wootters(np.full(shape, 1 / 4))

    def test_agrees_with_analytic_on_circuit_states(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(500):
            t0, t1 = rng.uniform(0, np.pi, size=2)
            analytic = labels.concurrence_analytic(t0, t1)
            wootters = labels.concurrence_wootters(state("concurrence", t0, t1))
            worst = max(worst, abs(analytic - wootters))
        assert worst < 1e-9, worst

    def test_spin_flip_is_the_pauli_word(self, monkeypatch):
        """The literal Y (x) Y has the Pauli word's values, and the
        concurrences it gives have the bytes of those the word gives."""
        np.testing.assert_array_equal(labels._SPIN_FLIP, pauli_word("YY"))
        rng = np.random.default_rng(14)
        g = rng.normal(size=(100, 4, 4)) + 1j * rng.normal(size=(100, 4, 4))
        rhos = [*(m / np.trace(m) for m in g @ g.conj().swapaxes(-1, -2)),
                *(two_qubit_werner(p) for p in (-1 / 3, -0.0, 0.0, 1 / 3, 0.5, 1.0)),
                *(state("concurrence", *rng.uniform(0, np.pi, size=2)) for _ in range(100)),
                *(random_product_state(2, rng) for _ in range(100))]
        literal = np.array([labels.concurrence_wootters(rho) for rho in rhos])
        monkeypatch.setattr(labels, "_SPIN_FLIP", pauli_word("YY"))
        assert literal.tobytes() == np.array([labels.concurrence_wootters(rho) for rho in rhos]).tobytes()


def label(family, row, convention):
    """The label of the state that ``family`` builds from the parameter ``row``."""
    return labels.assign_label(family, row, from_family(family, row).matrix, convention)


class TestAssignLabel:
    def test_werner2_paper_boundary(self):
        assert label("werner2", [0.5], "paper") == -1
        assert label("werner2", [0.2], "paper") == 1
        assert label("werner2", [1 / 3], "paper") == 1  # boundary is separable

    def test_werner3_boundary_one_fifth(self):
        assert label("werner3", [0.21], "paper") == -1
        assert label("werner3", [0.19], "paper") == 1

    def test_werner4_conventions_differ(self):
        # p = 0.125 sits between the 1/9 transpose threshold and the
        # published 1/7 boundary
        assert label("werner4", [0.125], "paper") == 1
        assert label("werner4", [0.125], "ppt-oracle") == -1

    def test_ppt_alt_divergence(self):
        assert label("ppt-alt", [], "paper") == -1
        assert label("ppt-alt", [], "ppt-oracle") == 1

    def test_bound_entangled_forced(self):
        row = [1.2, 0.7, 1.5]  # a, b, c
        assert label("pptes-acin", row, "paper") == -1
        assert label("pptes-acin", row, "ppt-oracle") == -1

    def test_product_always_separable(self):
        row = [0, 0, 0.5, 0.5, 0, 0]  # a Bloch vector per qubit
        assert label("product-sep", row, "paper") == 1
        assert label("product-sep", row, "ppt-oracle") == 1

    def test_biseparable_entangled_both_conventions(self):
        row = [1, 0, 0, 0, 0, 0.2, 0, 0, 0, 0, 0, 0, 0.9, 0, 0]  # one component: weights, Bloch vectors, Werner p
        assert label("biseparable", row, "paper") == -1
        assert label("biseparable", row, "ppt-oracle") == -1

    def test_concurrence_label(self):
        assert label("concurrence", [np.pi / 2, np.pi], "paper") == -1
        assert label("concurrence", [0.0, np.pi], "paper") == 1
        assert label("concurrence", [np.pi, 2.0], "paper") == 1  # a product state

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            labels.assign_label("ghz-mixed", [], two_qubit_werner(0.5), "paper")

    def test_unknown_convention(self):
        with pytest.raises(ValueError, match="convention"):
            labels.assign_label("werner2", [0.5], two_qubit_werner(0.5), "majority-vote")


def test_werner2_pt_sign_matches_boundary():
    """sign(1/3 - p) agrees with the sign of the worst PT eigenvalue."""
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 200:
        p = rng.uniform(-1 / 3, 1.0)
        if abs(p - 1 / 3) < 1e-8:
            continue
        min_eig = labels.ppt_report(two_qubit_werner(p))["min_eigenvalues"]["0|1"]
        assert np.sign(1 / 3 - p) == np.sign(min_eig), p
        checked += 1
