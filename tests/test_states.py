"""Tests for the state-family constructors."""

import numpy as np
import pytest

from entflda import labels
from entflda.experiments import product_params, sample_family_params
from entflda.qops import DensityOperator, expectation, hermitian_eigenvalues, kron, partial_transpose, pauli_string_operator
from entflda.states import (
    ENTANGLED,
    FAMILIES,
    SEPARABLE,
    BellSigns,
    bloch_state,
    concurrence_state,
    depolarize,
    from_family,
    ghz_state,
    ppt_alternative,
    pptes_acin,
    product_state,
    random_bloch_vector,
    random_product_state,
    werner2,
    werner_ghz,
)

BELL_VECTORS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


class TestBellSigns:
    def test_four_patterns_accepted(self):
        for name in BELL_VECTORS:
            BellSigns.from_name(name)

    def test_sign_product_is_minus_one(self):
        for name in BELL_VECTORS:
            s = BellSigns.from_name(name)
            assert s.s1 * s.s2 * s.s3 == -1

    def test_invalid_pattern_rejected(self):
        with pytest.raises(ValueError, match="does not match any Bell state"):
            BellSigns(1, 1, 1)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown Bell state"):
            BellSigns.from_name("sigma")


class TestWerner2:
    def test_p_zero_is_maximally_mixed(self):
        np.testing.assert_allclose(werner2(0.0).matrix, np.eye(4) / 4, atol=1e-15)

    def test_p_one_is_singlet(self):
        rho = werner2(1.0)
        psi = BELL_VECTORS["psi-"]
        np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-12)
        assert abs(expectation(rho, pauli_string_operator("ZZ")) + 1.0) < 1e-12

    def test_critical_pt_eigenvalue_at_half(self):
        eigs = hermitian_eigenvalues(partial_transpose(werner2(0.5), {1}))
        np.testing.assert_allclose(eigs[0], (1 - 3 * 0.5) / 4, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            werner2(-0.5)
        with pytest.raises(ValueError, match="outside"):
            werner2(1.01)

    def test_matches_depolarized_bell_projector(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = rng.uniform(0, 1)
            name = rng.choice(list(BELL_VECTORS))
            psi = BELL_VECTORS[name]
            bell = DensityOperator(np.outer(psi, psi.conj()))
            lhs = werner2(p, BellSigns.from_name(name)).matrix
            np.testing.assert_allclose(lhs, depolarize(bell, p).matrix, atol=1e-12)


class TestWernerGhz:
    def test_p_zero_maximally_mixed(self):
        np.testing.assert_allclose(werner_ghz(3, 0.0).matrix, np.eye(8) / 8, atol=1e-15)

    def test_p_one_ghz_correlations(self):
        # direct 8x8 trace oracle on the GHZ projector
        rho = werner_ghz(3, 1.0)
        xxx = pauli_string_operator("XXX")
        zzz = pauli_string_operator("ZZZ")
        oracle_x = np.trace(ghz_state(3).matrix @ xxx).real
        assert abs(oracle_x - 1.0) < 1e-12
        assert abs(expectation(rho, xxx) - 1.0) < 1e-12
        assert abs(expectation(rho, zzz)) < 1e-12

    def test_four_qubit_mixture_valid(self):
        rho = werner_ghz(4, 0.2)  # constructor validates trace/Hermiticity/PSD
        assert rho.num_qubits == 4

    def test_unsupported_size(self):
        with pytest.raises(ValueError, match="supports 3 or 4"):
            werner_ghz(2, 0.5)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            werner_ghz(3, -0.1)


class TestConcurrenceState:
    def test_maximally_entangled_endpoint(self):
        rho = concurrence_state(np.pi / 2, np.pi)
        assert abs(labels.concurrence_wootters(rho) - 1.0) < 1e-9

    def test_separable_endpoint(self):
        rho = concurrence_state(0.0, np.pi)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_intermediate_value_against_wootters(self):
        rho = concurrence_state(np.pi / 2, np.pi / 2)
        np.testing.assert_allclose(labels.concurrence_wootters(rho), np.sqrt(2) / 2, atol=1e-9)

    def test_purity(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            rho = concurrence_state(rng.uniform(0, np.pi), rng.uniform(0, np.pi))
            purity = np.trace(rho.matrix @ rho.matrix).real
            assert abs(purity - 1.0) < 1e-12

    def test_angle_range(self):
        with pytest.raises(ValueError, match="outside"):
            concurrence_state(-0.1, 1.0)


class TestDepolarize:
    def test_identity_channel(self):
        rho = concurrence_state(1.0, 2.0)
        np.testing.assert_array_equal(depolarize(rho, 1.0).matrix, rho.matrix)

    def test_full_depolarization(self):
        rho = concurrence_state(1.0, 2.0)
        np.testing.assert_allclose(depolarize(rho, 0.0).matrix, np.eye(4) / 4, atol=1e-15)

    def test_range(self):
        with pytest.raises(ValueError, match="outside"):
            depolarize(ghz_state(2), 1.5)


class TestPptesAcin:
    def test_symmetric_point(self):
        rho = pptes_acin(1.0, 1.0, 1.0)
        np.testing.assert_allclose(np.diag(rho.matrix).real, np.full(8, 1 / 8), atol=1e-15)
        assert abs(rho.matrix[0, 7] - 1 / 8) < 1e-15
        assert abs(rho.matrix[7, 0] - 1 / 8) < 1e-15

    def test_normalization_closed_form(self):
        # n = 2 + a + 1/a + b + 1/b + c + 1/c = 31/3 for (2, 3, 1/2)
        rho = pptes_acin(2.0, 3.0, 0.5)
        assert abs(rho.matrix.trace().real - 1.0) < 1e-12
        np.testing.assert_allclose(rho.matrix[0, 0].real, 1 / (31 / 3), atol=1e-14)

    def test_ppt_over_parameter_grid(self):
        grid = np.logspace(np.log10(0.25), np.log10(4.0), 4)
        for a in grid:
            for b in grid:
                for c in grid:
                    report = labels.ppt_report(pptes_acin(a, b, c))
                    assert report.is_ppt_all, (a, b, c, report.min_eigenvalues)

    def test_nonpositive_parameter(self):
        with pytest.raises(ValueError, match="positive"):
            pptes_acin(0.0, 1.0, 1.0)


class TestPptAlternative:
    def test_trace(self):
        assert abs(ppt_alternative().matrix.trace().real - 1.0) < 1e-14

    def test_spectrum(self):
        eigs = hermitian_eigenvalues(ppt_alternative().matrix)
        np.testing.assert_allclose(eigs, [0] * 6 + [0.5, 0.5], atol=1e-12)

    def test_zzi_expectation(self):
        rho = ppt_alternative()
        oracle = np.trace(rho.matrix @ pauli_string_operator("ZZI")).real
        assert abs(oracle - 1.0) < 1e-12
        assert abs(expectation(rho, pauli_string_operator("ZZI")) - 1.0) < 1e-12


def product_mixture(components):
    return {"components": [{"weight": w, "blochs": blochs} for w, blochs in components]}


class TestSeparableMixture:
    def test_single_component_identity_factors(self):
        rho = from_family("product-sep", product_mixture([(1.0, [[0.0, 0.0, 0.0]] * 3)]))
        np.testing.assert_allclose(rho.matrix, np.eye(8) / 8, atol=1e-15)

    def test_biseparable_cut_structure(self):
        # A|BC product with an entangled BC factor: the A cut stays PPT,
        # the other cuts (and the BC marginal itself) go negative.
        bc_pt = hermitian_eigenvalues(partial_transpose(werner2(1.0), {0}))
        assert bc_pt[0] < -0.4  # the singlet marginal is NPT

        params = {"components": [{"weight": 1.0, "a_bloch": [0.0, 0.0, 0.3], "bc_p": 1.0}]}
        report = labels.ppt_report(from_family("biseparable", params))
        assert report.min_eigenvalues["0|12"] >= -1e-9
        assert report.min_eigenvalues["01|2"] < -1e-9
        assert not report.is_ppt_all

    def test_two_equal_weight_products(self):
        rng = np.random.default_rng(23)
        blochs = [[random_bloch_vector(rng).tolist() for _ in range(2)] for _ in range(2)]
        rho = from_family("product-sep", product_mixture([(0.5, blochs[0]), (0.5, blochs[1])]))
        assert abs(rho.matrix.trace().real - 1.0) < 1e-12

    def test_weight_violation(self):
        params = product_mixture([(0.6, [[0.0, 0.0, 0.0]]), (0.6, [[0.0, 0.0, 0.0]])])
        with pytest.raises(ValueError, match="trace"):
            from_family("product-sep", params)

    def test_negative_weight(self):
        params = product_mixture([(1.5, [[0.0, 0.0, 0.1]]), (-0.5, [[0.0, 0.0, 0.0]])])
        with pytest.raises(ValueError, match="nonnegative"):
            from_family("product-sep", params)


class TestRandomProductState:
    def test_deterministic_given_stream(self):
        a = random_product_state(3, np.random.default_rng(99))
        b = random_product_state(3, np.random.default_rng(99))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_always_ppt(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            report = labels.ppt_report(random_product_state(n, rng))
            assert report.is_ppt_all

    def test_bloch_vector_too_long(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            bloch_state(np.array([1.0, 1.0, 0.0]))


class TestFromFamily:
    def test_parametric_families(self):
        np.testing.assert_array_equal(from_family("werner2", {"p": 0.4}).matrix, werner2(0.4).matrix)
        np.testing.assert_array_equal(from_family("werner3", {"p": 0.4}).matrix, werner_ghz(3, 0.4).matrix)
        np.testing.assert_array_equal(from_family("ppt-alt", {}).matrix, ppt_alternative().matrix)
        np.testing.assert_array_equal(
            from_family("pptes-acin", {"a": 1.0, "b": 2.0, "c": 3.0}).matrix, pptes_acin(1, 2, 3).matrix
        )

    def test_biseparable_reconstruction(self):
        params = {
            "components": [
                {"weight": 0.5, "a_bloch": [0.1, 0.0, 0.2], "bc_p": 0.8},
                {"weight": 0.5, "a_bloch": [0.0, 0.3, 0.0], "bc_p": 0.6},
            ]
        }
        rho = from_family("biseparable", params)
        assert rho.num_qubits == 3

    def test_product_reconstruction(self):
        params = {"components": [{"weight": 1.0, "blochs": [[0.1, 0.2, 0.3], [0.0, 0.0, -0.4]]}]}
        rho = from_family("product-sep", params)
        np.testing.assert_allclose(
            rho.matrix, product_state([np.array([0.1, 0.2, 0.3]), np.array([0.0, 0.0, -0.4])]).matrix, atol=1e-15
        )

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            from_family("w-state", {})


def composed(name, params):
    """The state matrix of (name, params) composed from the public
    constructors: depolarized GHZ projectors, and weighted sums of Kronecker
    products of Bloch and Werner-pair states."""
    if name in ("werner3", "werner4"):
        return depolarize(ghz_state(FAMILIES[name].n_qubits), params["p"]).matrix
    if name == "werner2":
        return werner2(params["p"]).matrix
    if name == "concurrence":
        return concurrence_state(params["theta0"], params["theta1"]).matrix
    if name == "pptes-acin":
        return pptes_acin(params["a"], params["b"], params["c"]).matrix
    if name == "ppt-alt":
        return ppt_alternative().matrix
    if name == "biseparable":
        terms = [(c["weight"], [bloch_state(c["a_bloch"]).matrix, werner2(c["bc_p"]).matrix])
                 for c in params["components"]]
    else:
        terms = [(c["weight"], [bloch_state(b).matrix for b in c["blochs"]]) for c in params["components"]]
    total = None
    for weight, factors in terms:
        term = factors[0]
        for factor in factors[1:]:
            term = kron(term, factor)
        term = weight * term
        total = term if total is None else total + term
    return total


def sampled_params(name, rng, draw):
    if name == "product-sep":
        return "product-sep", product_params(2 + draw % 2, rng, 1 + draw // 2 % 4)
    label = SEPARABLE if name.startswith("werner") and draw % 2 else ENTANGLED
    return sample_family_params(name, label, ("high", "low")[draw % 2], rng)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_from_family_matches_composition_bit_for_bit(name):
    """Each family builds its state in one step, with the same arithmetic
    as composing the public constructors, so its bytes are unchanged."""
    rng = np.random.default_rng(sorted(FAMILIES).index(name))
    for draw in range(200):
        build_family, params = sampled_params(name, rng, draw)
        assert build_family == name
        assert from_family(name, params).matrix.tobytes() == composed(name, params).tobytes(), params


def test_constructor_grid_validity():
    """Every constructor yields a valid state across its parameter range.

    DensityOperator validates Hermiticity, trace and PSD at construction,
    so instantiating across the grid is itself the assertion.
    """
    for p in np.linspace(-1 / 3, 1.0, 9):
        werner2(float(p))
    for p in np.linspace(0.0, 1.0, 7):
        werner_ghz(3, float(p))
        werner_ghz(4, float(p))
    for t0 in np.linspace(0, np.pi, 5):
        for t1 in np.linspace(0, np.pi, 5):
            concurrence_state(float(t0), float(t1))
    for a in (0.25, 1.0, 4.0):
        pptes_acin(a, 1 / a, 2.0)
