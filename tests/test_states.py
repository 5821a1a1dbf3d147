"""Tests for the state families, built one state at a time through
``from_family`` and as stacks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from entflda import labels, states
from entflda.experiments import sample_family_params
from entflda.measure import exact_features, pauli_words
from entflda.qops import kron, partial_transpose, qubit_count, validate_states
from entflda.states import ENTANGLED, FAMILIES, SEPARABLE, bloch_vectors, from_family
from oracles import PAULI, expectation, family_state, hermitian_eigenvalues, pauli_word

SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
GHZ3 = np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2)


class TestWerner2:
    def test_p_zero_is_maximally_mixed(self):
        np.testing.assert_allclose(from_family("werner2", [0.0]).matrix, np.eye(4) / 4, atol=1e-15)

    def test_p_one_is_singlet(self):
        rho = from_family("werner2", [1.0])
        np.testing.assert_allclose(rho.matrix, np.outer(SINGLET, SINGLET.conj()), atol=1e-12)
        assert abs(expectation(rho, pauli_word("ZZ")) + 1.0) < 1e-12

    def test_critical_pt_eigenvalue_at_half(self):
        eigs = hermitian_eigenvalues(partial_transpose(from_family("werner2", [0.5]).matrix, {1}))
        np.testing.assert_allclose(eigs[0], (1 - 3 * 0.5) / 4, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            from_family("werner2", [-0.5])
        with pytest.raises(ValueError, match="outside"):
            from_family("werner2", [1.01])

    def test_matches_depolarized_bell_projector(self):
        # The closed-form build equals p |psi-><psi-| + (1-p) I/4.
        rng = np.random.default_rng(13)
        singlet = np.outer(SINGLET, SINGLET.conj())
        for _ in range(50):
            p = rng.uniform(0, 1)
            np.testing.assert_allclose(from_family("werner2", [p]).matrix, p * singlet + (1 - p) * np.eye(4) / 4,
                                       atol=1e-12)


class TestWernerGhz:
    def test_p_zero_maximally_mixed(self):
        np.testing.assert_allclose(from_family("werner3", [0.0]).matrix, np.eye(8) / 8, atol=1e-15)

    def test_p_one_ghz_correlations(self):
        # direct 8x8 trace oracle on the GHZ projector
        rho = from_family("werner3", [1.0])
        xxx = pauli_word("XXX")
        zzz = pauli_word("ZZZ")
        oracle_x = (GHZ3 @ xxx @ GHZ3).real
        assert abs(oracle_x - 1.0) < 1e-12
        assert abs(expectation(rho, xxx) - 1.0) < 1e-12
        assert abs(expectation(rho, zzz)) < 1e-12

    def test_four_qubit_mixture_valid(self):
        rho = from_family("werner4", [0.2])  # validated: trace, Hermiticity, PSD
        assert rho.num_qubits == 4

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            from_family("werner3", [-0.1])


class TestConcurrenceState:
    def test_maximally_entangled_endpoint(self):
        rho = from_family("concurrence", [np.pi / 2, np.pi])
        assert abs(labels.concurrence_wootters(rho.matrix) - 1.0) < 1e-9

    def test_separable_endpoint(self):
        rho = from_family("concurrence", [0.0, np.pi])
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_intermediate_value_against_wootters(self):
        rho = from_family("concurrence", [np.pi / 2, np.pi / 2])
        np.testing.assert_allclose(labels.concurrence_wootters(rho.matrix), np.sqrt(2) / 2, atol=1e-9)

    def test_purity(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            rho = from_family("concurrence", rng.uniform(0, np.pi, size=2))
            purity = np.trace(rho.matrix @ rho.matrix).real
            assert abs(purity - 1.0) < 1e-12

    def test_angle_range(self):
        with pytest.raises(ValueError, match="outside"):
            from_family("concurrence", [-0.1, 1.0])


class TestPptesAcin:
    def test_symmetric_point(self):
        rho = from_family("pptes-acin", [1.0, 1.0, 1.0])
        np.testing.assert_allclose(np.diag(rho.matrix).real, np.full(8, 1 / 8), atol=1e-15)
        assert abs(rho.matrix[0, 7] - 1 / 8) < 1e-15
        assert abs(rho.matrix[7, 0] - 1 / 8) < 1e-15

    def test_normalization_closed_form(self):
        # n = 2 + a + 1/a + b + 1/b + c + 1/c = 31/3 for (2, 3, 1/2)
        rho = from_family("pptes-acin", [2.0, 3.0, 0.5])
        assert abs(rho.matrix.trace().real - 1.0) < 1e-12
        np.testing.assert_allclose(rho.matrix[0, 0].real, 1 / (31 / 3), atol=1e-14)

    def test_ppt_over_parameter_grid(self):
        grid = np.logspace(np.log10(0.25), np.log10(4.0), 4)
        for a in grid:
            for b in grid:
                for c in grid:
                    report = labels.ppt_report(from_family("pptes-acin", [a, b, c]).matrix)
                    assert report["is_ppt_all"], (a, b, c, report["min_eigenvalues"])

    def test_nonpositive_parameter(self):
        with pytest.raises(ValueError, match="positive"):
            from_family("pptes-acin", [0.0, 1.0, 1.0])


class TestPptAlternative:
    def test_trace(self):
        assert abs(from_family("ppt-alt", []).matrix.trace().real - 1.0) < 1e-14

    def test_spectrum(self):
        eigs = hermitian_eigenvalues(from_family("ppt-alt", []).matrix)
        np.testing.assert_allclose(eigs, [0] * 6 + [0.5, 0.5], atol=1e-12)

    def test_zzi_expectation(self):
        rho = from_family("ppt-alt", [])
        oracle = np.trace(rho.matrix @ pauli_word("ZZI")).real
        assert abs(oracle - 1.0) < 1e-12
        assert abs(expectation(rho, pauli_word("ZZI")) - 1.0) < 1e-12


def pauli_sum_werner2(p):
    """(1/4)(II - p XX - p YY - p ZZ) per p, summed term by term."""
    m = pauli_word("II")
    for letter in "XYZ":
        m = m + np.asarray(p, dtype=float)[..., None, None] * -1 * pauli_word(letter * 2)
    return m / 4.0


def pauli_sum_bloch(b):
    """(1/2)(I + x X + y Y + z Z) per Bloch vector (last axis), summed term by term."""
    m = PAULI["I"]
    for k, letter in enumerate("XYZ"):
        m = m + np.asarray(b, dtype=float)[..., k, None, None] * PAULI[letter]
    return m / 2.0


def signed_zero_blochs(rng, n):
    """``n`` Bloch-ball-uniform vectors, the first nine replaced by axis
    points whose components include -0.0, +0.0 and +-1."""
    b = bloch_vectors(rng.random((n, 3)))
    b[:9] = [[-0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [0.0, 0.0, -0.0], [-0.0, -0.0, -0.0], [1.0, -0.0, 0.0],
             [-0.0, -1.0, 0.0], [0.0, -0.0, 1.0], [-1.0, 0.0, -0.0], [0.0, 0.0, -1.0]]
    return b


class TestClosedFormsMatchPauliSums:
    """Each closed-form builder has the bytes of the Pauli sum it replaced,
    signed zeros included, so the datasets built from them do not move."""

    def test_werner2(self):
        p = np.concatenate([[-1 / 3, -0.0, 0.0, 1 / 3, 1.0], np.random.default_rng(3).uniform(-1 / 3, 1, 500)])
        assert states._werner2_matrix(p).tobytes() == pauli_sum_werner2(p).tobytes()
        for value in p[:5]:
            assert states._werner2_matrix(value).tobytes() == pauli_sum_werner2(value).tobytes(), value

    @pytest.mark.parametrize("n_qubits", range(1, 7))
    def test_product_sep(self, n_qubits):
        rng = np.random.default_rng(n_qubits)
        blochs = signed_zero_blochs(rng, 40 * n_qubits).reshape(40, n_qubits, 3)
        expected = kron(*pauli_sum_bloch(blochs).swapaxes(0, 1))
        assert FAMILIES["product-sep"].stack(blochs.reshape(40, -1)).tobytes() == expected.tobytes()

    def test_biseparable(self, monkeypatch):
        rng = np.random.default_rng(5)
        rows = FAMILIES["biseparable"].sample(rng.random((300, FAMILIES["biseparable"].uniforms)))
        rows[:3, 3:12] = signed_zero_blochs(rng, 9).reshape(3, 9)
        rows[:3, 12:] = [[0.0, -0.0, 1.0]] * 3
        closed = FAMILIES["biseparable"].stack(rows)
        monkeypatch.setattr(states, "_werner2_matrix", pauli_sum_werner2)
        monkeypatch.setattr(states, "_bloch_matrix", pauli_sum_bloch)
        assert closed.tobytes() == FAMILIES["biseparable"].stack(rows).tobytes()

    def test_ppt_alternative(self):
        expected = sum(pauli_word(s) for s in ("III", "IZZ", "ZIZ", "ZZI")) / 8.0
        assert states._PPT_ALTERNATIVE[0].tobytes() == expected.tobytes()


def biseparable_row(components):
    """The biseparable parameter row of up to three (weight, qubit-0 Bloch
    vector, Werner-pair p) components; the rest get weight 0."""
    padded = list(components) + [(0.0, [0.0, 0.0, 0.0], 0.0)] * (3 - len(components))
    weights, blochs, bc_p = zip(*padded)
    return np.concatenate([weights, np.ravel(blochs), bc_p])


def random_product_state(n_qubits, rng):
    """A product of Bloch-ball-uniform qubits, as the dataset sampler draws them."""
    return from_family("product-sep", bloch_vectors(rng.random((n_qubits, 3))).ravel())


class TestSeparableMixture:
    def test_single_component_identity_factors(self):
        rho = from_family("product-sep", np.zeros(9))
        np.testing.assert_allclose(rho.matrix, np.eye(8) / 8, atol=1e-15)

    def test_biseparable_cut_structure(self):
        # A|BC product with an entangled BC factor: the A cut stays PPT,
        # the other cuts (and the BC marginal itself) go negative.
        bc_pt = hermitian_eigenvalues(partial_transpose(from_family("werner2", [1.0]).matrix, {0}))
        assert bc_pt[0] < -0.4  # the singlet marginal is NPT

        report = labels.ppt_report(from_family("biseparable", biseparable_row([(1.0, [0.0, 0.0, 0.3], 1.0)])).matrix)
        assert report["min_eigenvalues"]["0|12"] >= -1e-9
        assert report["min_eigenvalues"]["01|2"] < -1e-9
        assert not report["is_ppt_all"]

    def test_two_equal_weight_products(self):
        # A Werner pair at p = 0 is I/4, so each component is a full product.
        blochs = bloch_vectors(np.random.default_rng(23).random((2, 3)))
        rho = from_family("biseparable", biseparable_row([(0.5, blochs[0], 0.0), (0.5, blochs[1], 0.0)]))
        assert abs(rho.matrix.trace().real - 1.0) < 1e-12
        assert labels.ppt_report(rho.matrix)["is_ppt_all"]

    def test_weight_violation(self):
        row = biseparable_row([(0.6, [0.0, 0.0, 0.0], 0.0), (0.6, [0.0, 0.0, 0.0], 0.0)])
        with pytest.raises(ValueError, match="trace"):
            from_family("biseparable", row)

    def test_negative_weight(self):
        row = biseparable_row([(1.5, [0.0, 0.0, 0.1], 0.0), (-0.5, [0.0, 0.0, 0.0], 0.0)])
        with pytest.raises(ValueError, match="nonnegative"):
            from_family("biseparable", row)


class TestRandomProductState:
    def test_deterministic_given_stream(self):
        a = random_product_state(3, np.random.default_rng(99))
        b = random_product_state(3, np.random.default_rng(99))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_always_ppt(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            report = labels.ppt_report(random_product_state(n, rng).matrix)
            assert report["is_ppt_all"]

    def test_bloch_vector_too_long(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            from_family("product-sep", [1.0, 1.0, 0.0])


class TestFromFamily:
    def test_parametric_families(self):
        for name, row in (("werner2", [0.4]), ("werner3", [0.4]), ("werner4", [0.4]), ("concurrence", [1.1, 2.3]),
                          ("pptes-acin", [1.0, 2.0, 3.0]), ("ppt-alt", [])):
            np.testing.assert_allclose(from_family(name, row).matrix, family_state(name, row), rtol=0, atol=1e-15)

    def test_biseparable_reconstruction(self):
        components = [(0.5, [0.1, 0.0, 0.2], 0.8), (0.5, [0.0, 0.3, 0.0], 0.6)]
        rho = from_family("biseparable", biseparable_row(components))
        assert rho.num_qubits == 3
        expected = sum(w * kron(from_family("product-sep", b).matrix, from_family("werner2", [p]).matrix)
                       for w, b, p in components)
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_product_reconstruction(self):
        rho = from_family("product-sep", [0.1, 0.2, 0.3, 0.0, 0.0, -0.4])
        qubits = (from_family("product-sep", b).matrix for b in ([0.1, 0.2, 0.3], [0.0, 0.0, -0.4]))
        np.testing.assert_allclose(rho.matrix, kron(*qubits), atol=1e-15)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            from_family("w-state", [])


@pytest.mark.parametrize(
    "name,rows,message",
    [
        ("werner2", [[0.2], [2.0]], r"werner2 mixing parameter p=2.0 outside \[-1/3, 1\]"),
        ("werner3", [[0.2], [-0.5]], r"werner3 mixing parameter p=-0.5 outside \[0, 1\]"),
        ("werner4", [[1.5]], r"werner4 mixing parameter p=1.5 outside \[0, 1\]"),
        ("concurrence", [[1.0, 1.0], [4.0, 1.0]], r"angles \(4.0, 1.0\) outside \[0, pi\]"),
        ("pptes-acin", [[1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], "parameters must be positive, got a=0.0, b=1.0, c=1.0"),
        ("product-sep", [[0.1, 0.2, 0.3, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0, -1.5]],
         "Bloch vector length 1.5 exceeds 1"),
        ("pptes-acin", [[1.0, 1.0, 1.0], [1e-320, 1.0, 1.0]], "parameters a=1e-320, b=1.0, c=1.0 overflow"),
        ("pptes-acin", [[1.0, 1.0, 1.0], [1e308, 1e308, 1e-308]], "parameters a=1e[+]308, b=1e[+]308, c=1e-308 overflow"),
    ],
)
def test_stack_refuses_out_of_range_rows(name, rows, message):
    """The range check lives in the array core, so a stack and, where the
    family has one, its closed-form features refuse an out-of-range row with
    the message ``from_family`` gives for that row, naming the first bad
    row's values."""
    with pytest.raises(ValueError, match=message):
        FAMILIES[name].stack(np.array(rows))
    with pytest.raises(ValueError, match=message):
        from_family(name, rows[-1])
    with pytest.raises(ValueError, match=message):
        FAMILIES[name].features(np.array(rows))


# Every family has a closed form; the Werner and product families keep the row seeds they had when they were the
# only ones (``closed_form_rows`` seeds by position).
FIRST_CLOSED_FORMS = ["product-sep", "werner2", "werner3", "werner4"]
CLOSED_FORM_FAMILIES = FIRST_CLOSED_FORMS + sorted(set(FAMILIES) - set(FIRST_CLOSED_FORMS))


def werner_edges(name):
    """Mixing parameters at and just past the ends of a Werner family's range."""
    lo, slack = FAMILIES[name].p_min, 1e-12 if name == "werner2" else 0.0
    return [lo - 2 * slack - 1e-15, lo - slack / 2, lo, 1.0, 1.0 + slack / 2, 1.0 + 2 * slack + 1e-15]


@pytest.mark.parametrize("name", [n for n in CLOSED_FORM_FAMILIES if n.startswith("werner")])
def test_closed_form_refuses_what_the_stack_refuses(name):
    """At and just past each end of the mixing range, a Werner family's
    closed form accepts exactly the rows its stack accepts, and refuses the
    others with the stack's message."""
    features = FAMILIES[name].features
    for p in werner_edges(name):
        outcomes = []
        for build in (FAMILIES[name].stack, features):
            try:
                build(np.array([[0.5], [p]]))
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], p
    assert sum(outcome is None for outcome in outcomes) in (0, 2)


def closed_form_rows(name):
    """Parameter rows spanning a closed-form family: each Werner family's
    ``p_min``, boundaries and 1 and interior points; product rows of 2 and 3
    qubits whose Bloch vectors have length 0, interior and 1; concurrence
    angles at the corners and edges of [0, pi]^2 and inside; bound-entangled
    parameters at the symmetric point, far from it and in the sampled range;
    ``ppt-alt``'s empty rows; biseparable rows as sampled, with signed-zero
    and unit Bloch vectors and p at -1/3, 0 and 1."""
    rng = np.random.default_rng(CLOSED_FORM_FAMILIES.index(name))
    if name.startswith("werner"):
        spec = FAMILIES[name]
        ends = [spec.p_min, *spec.boundary.values(), 1.0]
        return [np.array(ends + list(rng.uniform(spec.p_min, 1.0, 40)))[:, None]]
    if name == "concurrence":
        edges = np.array([[0.0, 0.0], [0.0, np.pi], [np.pi, 0.0], [np.pi, np.pi], [np.pi / 2, np.pi], [np.pi / 2, 0.0]])
        return [np.r_[edges, rng.uniform(0, np.pi, (60, 2))]]
    if name == "pptes-acin":
        sampled = np.exp(rng.uniform(-np.log(2), np.log(2), (60, 3)))
        return [np.r_[[[1.0, 1.0, 1.0], [2.0, 3.0, 0.5], [1e-3, 1e3, 7.0]], sampled]]
    if name == "ppt-alt":
        return [np.empty((1, 0)), np.empty((7, 0))]
    if name == "biseparable":
        rows = FAMILIES[name].sample(rng.random((60, FAMILIES[name].uniforms)))
        rows[:3, 3:12] = signed_zero_blochs(rng, 9).reshape(3, 9)
        rows[:3, 12:] = [[-1 / 3, -0.0, 1.0], [0.0, 1.0, -1 / 3], [1.0, -1 / 3, 0.0]]
        return [rows]
    directions = rng.normal(size=(60, 3))
    unit = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    lengths = np.r_[0.0, 1.0, rng.random(58)]
    blochs = np.r_[unit * lengths[:, None], [[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]]
    return [rng.permutation(blochs)[: 60 // qubits * qubits].reshape(-1, 3 * qubits) for qubits in (2, 3)]


def product_traces(row, words):
    """The exact Pauli traces of a product row, the rational products of its
    Bloch components (identity letters contribute 1)."""
    blochs = [[Fraction(v) for v in b] for b in row.reshape(-1, 3)]
    return [math.prod(b["XYZ".index(c)] for b, c in zip(blochs, w) if c != "I") for w in words]


def biseparable_traces(row, words):
    """The exact Pauli traces of a biseparable row, sum_j w_j tr(P a_j)
    tr(Q W(p_j)) for the word P Q: a Werner pair's traces are 1 on II, -p on
    XX, YY and ZZ and 0 on every other word."""
    f = [Fraction(v) for v in row.tolist()]
    pair = {"II": lambda j: 1, "XX": lambda j: -f[12 + j], "YY": lambda j: -f[12 + j], "ZZ": lambda j: -f[12 + j]}
    return [sum(f[j] * (1 if w[0] == "I" else f[3 + 3 * j + "XYZ".index(w[0])]) * pair.get(w[1:], lambda j: 0)(j)
                for j in range(3)) for w in words]


@pytest.mark.parametrize("name", CLOSED_FORM_FAMILIES)
def test_closed_form_matches_the_pauli_traces_of_the_stack(name):
    """A family's closed-form features equal ``exact_features`` of its
    built, validated stack column for column, in ``pauli_words`` order,
    within 2.2e-16, and are never -0.0. At 3 qubits the stack's own sums
    err by up to 3.3e-16 on product rows, so there the bound is 4.4e-16 and
    the closed form is held to the exact traces, within two roundings of
    products of numbers at most 1 in size (2.2e-16). Biseparable rows are
    held to their exact traces within four roundings of terms whose weights
    sum to one (4.4e-16), and to the stack within 8.9e-16."""
    features = FAMILIES[name].features
    bound = {"biseparable": 8.9e-16, "product-sep": 4.4e-16}
    for rows in closed_form_rows(name):
        stack = FAMILIES[name].stack(rows)
        validate_states(stack)
        exact, closed, qubits = exact_features(stack), features(rows), qubit_count(stack)
        assert closed.shape == exact.shape == (len(rows), 4**qubits - 1)
        assert np.max(np.abs(closed - exact)) <= (bound.get(name, 2.2e-16) if qubits == 3 else 2.2e-16)
        assert not np.any((closed == 0) & np.signbit(closed))
        exact_traces = {"product-sep": (product_traces, 2.2e-16), "biseparable": (biseparable_traces, 4.4e-16)}
        traces, tolerance = exact_traces.get(name, (None, None))
        for row, values in zip(rows, closed if traces else []):
            expected = traces(row, pauli_words(qubits))
            assert max(abs(Fraction(v) - t) for v, t in zip(values.tolist(), expected)) <= tolerance


def stack_refusal(name, rows):
    """The message of what ``stack`` plus ``validate_states`` refuses in ``rows``, or None (an infinite weight
    times a zero entry warns on the way)."""
    try:
        with np.errstate(invalid="ignore"):
            validate_states(FAMILIES[name].stack(np.array(rows, dtype=float)))
    except ValueError as exc:
        return str(exc)


def refusal_parity(name, rows):
    """The closed form refuses ``rows`` exactly when the stack and its validation do, with the same message."""
    expected = stack_refusal(name, rows)
    assert expected is not None, rows
    with pytest.raises(ValueError) as refused:
        FAMILIES[name].features(np.array(rows, dtype=float))
    assert str(refused.value) == expected


def mixture(weights, blochs=((0.0, 0.0, 0.3),) * 3, bc_p=(0.5, 0.5, 0.5)):
    return [*weights, *np.ravel(blochs), *bc_p]


@pytest.mark.parametrize(
    "rows",
    [
        [mixture([0.6, 0.6, 0.0])],
        [mixture([0.5, 0.5, 0.0]), mixture([0.3, 0.3, 0.3])],
        [mixture([1.0, 0.0, 1e-9])],
        [mixture([np.nan, 0.5, 0.5])],
        [mixture([0.5, 0.5, 0.0], [(0.0, np.nan, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)])],
        [mixture([np.inf, 0.0, 0.0])],
        [mixture([0.5, 0.5, 0.0], [(0.0, 0.8, 0.8), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)])],
        [mixture([0.5, 0.5, 0.0], bc_p=(0.5, -0.5, 0.5))],
        [mixture([0.5, 0.5, 0.0], bc_p=(0.5, 1.5, 0.5))],
        [mixture([0.5, 0.5, 0.0], bc_p=(np.nan, 0.5, 0.5))],
        [mixture([1.5, -0.5, 0.0])],
    ],
    ids=["weights-1.2", "second-row", "weights-1+1e-9", "nan-weight", "nan-bloch", "inf-weight", "long-bloch",
         "p-below", "p-above", "nan-p", "negative-weight"],
)
def test_biseparable_closed_form_refuses_what_the_stack_refuses(rows):
    """Weights that do not sum to one (``TRACE_TOL``), a non-finite weight or
    Bloch component, a Bloch vector longer than 1, a p outside [-1/3, 1] and
    a negative weight: each refused with the message the stack and
    ``validate_states`` give."""
    refusal_parity("biseparable", rows)


@pytest.mark.parametrize(
    "rows",
    [[[1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], [[1.0, -2.0, 1.0]], [[1.0, 1.0, np.nan]], [[1e-320, 1.0, 1.0]],
     [[1e308, 1e308, 1e-308]], [[1.0, np.inf, 1.0]]],
    ids=["zero", "negative", "nan", "tiny", "overflow", "inf"],
)
def test_pptes_closed_form_refuses_what_the_stack_refuses(rows):
    """A parameter that is not positive, and a normalizer that overflows."""
    refusal_parity("pptes-acin", rows)


@pytest.mark.parametrize(
    "rows",
    [[[1.0, 1.0], [4.0, 1.0]], [[-0.1, 1.0]], [[1.0, np.pi + 1e-12]], [[np.nan, 1.0]], [[1.0, -np.inf]]],
    ids=["theta0-above", "theta0-below", "theta1-above", "nan", "inf"],
)
def test_concurrence_closed_form_refuses_what_the_stack_refuses(rows):
    """Angles outside [0, pi], or not numbers."""
    refusal_parity("concurrence", rows)


@pytest.mark.parametrize(
    "name,row,message",
    [
        ("werner2", [0.2, 0.9], "werner2 row width 2, expected 1"),
        ("ppt-alt", [5.0], "ppt-alt row width 1, expected 0"),
        ("biseparable", [], "biseparable row width 0, expected 15"),
        ("product-sep", [0.1, 0.1], "product-sep row width 2, expected a nonzero multiple of 3"),
        ("concurrence", [1.0], "concurrence row width 1, expected 2"),
    ],
)
def test_from_family_refuses_a_row_of_another_width(name, row, message):
    """Too wide a row is not cut to size and too short a one does not reach
    the builders' reshapes: both are refused naming the two widths."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        from_family(name, row)


def composed(name, row):
    """The state matrix of (name, row) composed from the single states
    ``from_family`` builds, for the families that are compositions: Werner-GHZ
    states as the p-weighted mixture of the GHZ projector (p = 1) and white
    noise (p = 0), products as Kronecker products of one-qubit states, and
    biseparable rows as weighted sums of Bloch (x) Werner-pair products.
    None for the other families."""
    def state(family, params):
        return from_family(family, params).matrix

    if name in ("werner3", "werner4"):
        return row[0] * state(name, [1.0]) + (1 - row[0]) * state(name, [0.0])
    if name == "product-sep":
        return kron(*(state("product-sep", b) for b in row.reshape(-1, 3)))
    if name != "biseparable":
        return None
    total = None
    for j in range(3):  # every component, unused ones of weight 0
        term = row[j] * kron(state("product-sep", row[3 + 3 * j : 6 + 3 * j]), state("werner2", [row[12 + j]]))
        total = term if total is None else total + term
    return total


def sampled_row(name, rng, draw):
    if name == "product-sep":
        return "product-sep", bloch_vectors(rng.random((1 + draw % 4, 3))).ravel()  # 1 to 4 qubits
    label = SEPARABLE if name.startswith("werner") and draw % 2 else ENTANGLED
    u = rng.random((1, FAMILIES[name].uniforms))
    build_family, rows = sample_family_params(name, label, ("high", "low")[draw % 2], u)
    return build_family, rows[0]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_from_family_matches_composition_bit_for_bit(name):
    """A row's single state has the bytes of the same row in a stack of 200
    rows, and of its composition from simpler single states where the family
    is one, so a state does not depend on the chunk it is built in and
    ``inspect`` shows the bytes a dataset row used."""
    rng = np.random.default_rng(sorted(FAMILIES).index(name))
    rows = []
    for draw in range(200):
        build_family, row = sampled_row(name, rng, draw)
        assert build_family == name
        rows.append(row)
    # Product rows differ in qubit count, so only the other families stack.
    stack = None if name == "product-sep" else FAMILIES[name].stack(np.array(rows)).astype(complex)
    for i, row in enumerate(rows):
        single, parts = from_family(name, row).matrix.tobytes(), composed(name, row)
        assert stack is None or single == stack[i].tobytes(), row
        assert parts is None or single == parts.tobytes(), row


def test_constructor_grid_validity():
    """Every family yields a valid state across its parameter range.

    ``from_family`` validates Hermiticity, trace and PSD, so building
    across the grid is itself the assertion.
    """
    for p in np.linspace(-1 / 3, 1.0, 9):
        from_family("werner2", [p])
    for p in np.linspace(0.0, 1.0, 7):
        from_family("werner3", [p])
        from_family("werner4", [p])
    for t0 in np.linspace(0, np.pi, 5):
        for t1 in np.linspace(0, np.pi, 5):
            from_family("concurrence", [t0, t1])
    for a in (0.25, 1.0, 4.0):
        from_family("pptes-acin", [a, 1 / a, 2.0])
