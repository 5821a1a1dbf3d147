"""Tests for labeling conventions and separability oracles."""

import numpy as np
import pytest
from scipy.optimize import brentq

from entflda import labels
from entflda.qops import DensityOperator, hermitian_eigenvalues, partial_transpose
from entflda.states import from_family, pptes_acin, random_product_state, werner2, werner_ghz


class TestPptReport:
    def test_werner2_boundary(self):
        report = labels.ppt_report(werner2(1 / 3))
        assert set(report.min_eigenvalues) == {"0|1"}
        assert abs(report.min_eigenvalues["0|1"]) < 1e-10
        assert report.is_ppt_all

    def test_product_states_always_ppt(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4):
            assert labels.ppt_report(random_product_state(n, rng)).is_ppt_all

    def test_cut_enumeration(self):
        rng = np.random.default_rng(6)
        assert len(labels.ppt_report(random_product_state(2, rng)).min_eigenvalues) == 1
        assert len(labels.ppt_report(random_product_state(3, rng)).min_eigenvalues) == 3
        assert len(labels.ppt_report(random_product_state(4, rng)).min_eigenvalues) == 7

    def test_complement_symmetry(self):
        # a cut and its complement expose identical minimum eigenvalues
        rng = np.random.default_rng(8)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = g @ g.conj().T
        rho = DensityOperator(m / m.trace())
        for subset, complement in (({0}, {1, 2}), ({1}, {0, 2}), ({2}, {0, 1})):
            a = hermitian_eigenvalues(partial_transpose(rho, subset))[0]
            b = hermitian_eigenvalues(partial_transpose(rho, complement))[0]
            assert abs(a - b) < 1e-10

    def test_ghz_werner_crossing_at_one_fifth(self):
        def worst_cut(p):
            return min(labels.ppt_report(werner_ghz(3, p)).min_eigenvalues.values())

        root = brentq(worst_cut, 0.05, 0.95, xtol=1e-9)
        assert abs(root - 0.2) < 1e-6


class TestConcurrenceAnalytic:
    def test_maximal_endpoint(self):
        assert labels.concurrence_analytic(np.pi / 2, np.pi) == 1.0

    def test_zero_for_theta0_zero(self):
        for t1 in (0.0, 1.0, np.pi):
            assert labels.concurrence_analytic(0.0, t1) == 0.0

    def test_intermediate(self):
        np.testing.assert_allclose(labels.concurrence_analytic(np.pi / 2, np.pi / 2), np.sqrt(2) / 2, atol=1e-15)

    def test_range_check(self):
        with pytest.raises(ValueError, match="outside"):
            labels.concurrence_analytic(4.0, 1.0)


class TestConcurrenceWootters:
    def test_maximally_mixed(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4)
        assert labels.concurrence_wootters(rho) == 0.0

    def test_singlet(self):
        assert abs(labels.concurrence_wootters(werner2(1.0)) - 1.0) < 1e-9

    def test_werner_closed_form(self):
        # Werner concurrence max(0, (3p-1)/2)
        assert abs(labels.concurrence_wootters(werner2(0.5)) - 0.25) < 1e-9
        assert labels.concurrence_wootters(werner2(0.2)) == 0.0

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError, match="two-qubit"):
            labels.concurrence_wootters(werner_ghz(3, 0.5))

    def test_agrees_with_analytic_on_circuit_states(self):
        from entflda.states import concurrence_state

        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(500):
            t0, t1 = rng.uniform(0, np.pi, size=2)
            analytic = labels.concurrence_analytic(t0, t1)
            wootters = labels.concurrence_wootters(concurrence_state(t0, t1))
            worst = max(worst, abs(analytic - wootters))
        assert worst < 1e-9, worst


def label(family, params, convention):
    """The label of the state that ``family`` builds from ``params``."""
    return labels.assign_label(family, params, from_family(family, params), convention)


class TestAssignLabel:
    def test_werner2_paper_boundary(self):
        assert label("werner2", {"p": 0.5}, "paper") == -1
        assert label("werner2", {"p": 0.2}, "paper") == 1
        assert label("werner2", {"p": 1 / 3}, "paper") == 1  # boundary is separable

    def test_werner3_boundary_one_fifth(self):
        assert label("werner3", {"p": 0.21}, "paper") == -1
        assert label("werner3", {"p": 0.19}, "paper") == 1

    def test_werner4_conventions_differ(self):
        # p = 0.125 sits between the 1/9 transpose threshold and the
        # published 1/7 boundary
        assert label("werner4", {"p": 0.125}, "paper") == 1
        assert label("werner4", {"p": 0.125}, "ppt-oracle") == -1

    def test_ppt_alt_divergence(self):
        assert label("ppt-alt", {}, "paper") == -1
        assert label("ppt-alt", {}, "ppt-oracle") == 1

    def test_bound_entangled_forced(self):
        params = {"a": 1.2, "b": 0.7, "c": 1.5}
        assert label("pptes-acin", params, "paper") == -1
        assert label("pptes-acin", params, "ppt-oracle") == -1

    def test_product_always_separable(self):
        params = {"components": [{"weight": 1.0, "blochs": [[0, 0, 0.5], [0.5, 0, 0]]}]}
        assert label("product-sep", params, "paper") == 1
        assert label("product-sep", params, "ppt-oracle") == 1

    def test_biseparable_entangled_both_conventions(self):
        params = {"components": [{"weight": 1.0, "a_bloch": [0, 0, 0.2], "bc_p": 0.9}]}
        assert label("biseparable", params, "paper") == -1
        assert label("biseparable", params, "ppt-oracle") == -1

    def test_concurrence_label(self):
        assert label("concurrence", {"theta0": np.pi / 2, "theta1": np.pi}, "paper") == -1
        assert label("concurrence", {"theta0": 0.0, "theta1": np.pi}, "paper") == 1

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            labels.assign_label("ghz-mixed", {}, werner2(0.5), "paper")

    def test_unknown_convention(self):
        with pytest.raises(ValueError, match="convention"):
            labels.assign_label("werner2", {"p": 0.5}, werner2(0.5), "majority-vote")


def test_werner2_pt_sign_matches_boundary():
    """sign(1/3 - p) agrees with the sign of the worst PT eigenvalue."""
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 200:
        p = rng.uniform(-1 / 3, 1.0)
        if abs(p - 1 / 3) < 1e-8:
            continue
        min_eig = labels.ppt_report(werner2(p)).min_eigenvalues["0|1"]
        assert np.sign(1 / 3 - p) == np.sign(min_eig), p
        checked += 1
