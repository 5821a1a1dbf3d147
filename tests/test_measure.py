"""Tests for feature extraction, shot sampling and standardization."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entflda.experiments import OVERLAP_LEVELS, ExperimentConfig, generate_dataset, sample_family_params
from entflda.flda import fit, load_model, save_model
from entflda.measure import (
    apply_standardizer,
    check_pauli_words,
    exact_features,
    fit_standardizer,
    pauli_words,
    sampled_features,
)
from entflda.states import FAMILIES, bloch_vectors, from_family
from oracles import reconstruct_density

SRC = Path(__file__).resolve().parent.parent / "src"
HEADS = [name for name in FAMILIES if name != "product-sep"]


def state(name, *params):
    """The density matrix ``from_family`` builds from the parameters."""
    return from_family(name, params).matrix


def random_product_state(n_qubits, rng):
    return state("product-sep", *bloch_vectors(rng.random((n_qubits, 3))).ravel())


def random_full_rank_state(n_qubits, rng):
    """A Ginibre-random complex density matrix, full rank almost surely."""
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


ZZ = pauli_words(2).index("ZZ")


class TestPauliWords:
    def test_two_qubit_count_and_order(self):
        words = pauli_words(2)
        assert len(words) == 15
        assert words[:4] == ("IX", "IY", "IZ", "XI")
        assert words[-1] == "ZZ"
        assert "II" not in words

    def test_counts_scale(self):
        assert len(pauli_words(1)) == 3
        assert len(pauli_words(3)) == 63
        assert len(pauli_words(4)) == 255

    def test_base4_order(self):
        words = pauli_words(3)
        assert list(words) == sorted(words, key=lambda w: ["IXYZ".index(c) for c in w])
        assert len(set(words)) == len(words)
        check_pauli_words(words)


class TestCheckPauliWords:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate Pauli word 'XX'"):
            check_pauli_words(("XX", "XX"))

    def test_rejects_identity(self):
        with pytest.raises(ValueError, match="identity"):
            check_pauli_words(("II",))

    def test_rejects_bad_word(self):
        with pytest.raises(ValueError, match="bad Pauli word 'XQ' for 2 qubits"):
            check_pauli_words(("XQ",))

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError, match="bad Pauli word 'XXX' for 2 qubits"):
            check_pauli_words(("XX", "XXX"))


class TestExactFeatures:
    def test_maximally_mixed_is_zero(self):
        rho = np.eye(4, dtype=complex) / 4
        np.testing.assert_allclose(exact_features(rho), np.zeros(15), atol=1e-14)

    def test_werner2_structure(self):
        for p in (0.3, 0.7):
            values = exact_features(state("werner2", p))
            for name, v in zip(pauli_words(2), values, strict=True):
                expected = -p if name in ("XX", "YY", "ZZ") else 0.0
                assert abs(v - expected) < 1e-12, name

    def test_entries_bounded(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            values = exact_features(random_product_state(3, rng))
            assert values.shape == (63,)
            assert np.all(np.abs(values) <= 1 + 1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"2\^N x 2\^N"):
            exact_features(np.eye(3) / 3)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (5, 3, 3), (4,), (1, 1)])
    def test_non_qubit_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"2\^N x 2\^N matrix or a stack of them, got shape"):
            exact_features(np.full(shape, 1 / 3))

    def test_stack_rows_match_single_states(self):
        stack = np.stack([state("werner3", 0.2), state("werner3", 0.6)])
        np.testing.assert_array_equal(exact_features(stack), [exact_features(m) for m in stack])


class TestNoNegativeZero:
    """A zero feature is +0.0: the CSV writer keeps the sign of -0.0."""

    @pytest.mark.parametrize("family", HEADS)
    def test_exact_dataset(self, family):
        x = generate_dataset(ExperimentConfig(family=family, overlap="low", n_samples=400, master_seed=3)).features
        assert np.any(x == 0.0)
        assert not np.any(np.signbit(x[x == 0.0]))

    @pytest.mark.parametrize("rho", [state("werner3", 0.4), state("concurrence", 1.1, 2.3)], ids=["real", "complex"])
    def test_single_state(self, rho):
        values = exact_features(rho)
        assert np.any(values == 0.0)
        assert not np.any(np.signbit(values[values == 0.0]))


def test_six_qubit_call_stays_small():
    """One 6-qubit call in a fresh interpreter grows peak RSS by < 100 MB
    (a cached (d^2, 4^N - 1) weight table alone would be 134 MB)."""
    code = (
        "import resource, numpy as np\n"
        "from entflda.measure import exact_features\n"
        "rho = np.eye(64) / 64\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "exact_features(rho)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env, capture_output=True, text=True)
    assert int(out.stdout) < 100 * 1024  # ru_maxrss is in KiB on Linux


class TestSampledFeatures:
    def test_deterministic_outcome_state(self):
        # |00><00| measured in ZZ gives +1 on every shot
        rho = state("concurrence", 0.0, np.pi)
        values = sampled_features(rho, 17, np.random.default_rng(0))
        assert values[ZZ] == 1.0

    def test_same_stream_same_vector(self):
        a = sampled_features(state("werner2", 0.6), 100, np.random.default_rng(5))
        b = sampled_features(state("werner2", 0.6), 100, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_large_shot_convergence(self):
        shots = 10**6
        values = sampled_features(state("werner2", 0.5), shots, np.random.default_rng(123))
        se = np.sqrt((1 - 0.25) / shots)
        assert abs(values[ZZ] - (-0.5)) < 3 * se

    def test_estimates_in_range(self):
        rng = np.random.default_rng(2)
        values = sampled_features(state("werner2", 0.9), 8, rng)
        assert np.all(values >= -1) and np.all(values <= 1)

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError, match="shots"):
            sampled_features(state("werner2", 0.5), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3)])
    def test_non_qubit_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"2\^N x 2\^N"):
            sampled_features(np.full(shape, 1 / 3), 10, np.random.default_rng(0))

    def test_probability_outside_unit_interval_refused(self):
        not_a_state = np.diag([2.0, 0.0, 0.0, 0.0])  # <ZZ> = 2
        with pytest.raises(ValueError, match=r"^outcome probability outside \[0, 1\]"):
            sampled_features(not_a_state, 10, np.random.default_rng(0))


def test_sampling_is_unbiased():
    """Grand mean over 200 independent streams stays within 4 standard
    errors of the exact expectation, feature by feature."""
    rho = state("werner2", 0.3)
    exact = exact_features(rho)
    shots, n_streams = 256, 200
    total = np.zeros(len(exact))
    for i in range(n_streams):
        total += sampled_features(rho, shots, np.random.default_rng([77, i]))
    grand_mean = total / n_streams
    se = np.sqrt(np.maximum(1 - exact**2, 0.0) / (shots * n_streams))
    assert np.all(np.abs(grand_mean - exact) < 4 * np.maximum(se, 1e-15))


class TestReconstruction:
    def test_full_set_reconstructs_state(self):
        cases = [
            state("werner2", 0.42),
            state("concurrence", 1.1, 2.3),
            state("werner3", 0.37),
            state("pptes-acin", 1.4, 0.6, 2.1),
            random_product_state(3, np.random.default_rng(8)),
            random_full_rank_state(5, np.random.default_rng(9)),
            random_full_rank_state(6, np.random.default_rng(10)),
        ]
        for rho in cases:
            rebuilt = reconstruct_density(exact_features(rho))
            np.testing.assert_allclose(rebuilt, rho, atol=1e-10)

    def test_sampled_rows_reconstruct_their_state(self):
        """Property: the exact features of a sampled row of every family (and
        of a product state of 1 to 6 qubits) rebuild its state within 1e-12."""
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            family=st.sampled_from(HEADS),
            label=st.sampled_from([-1, 1]),
            overlap=st.sampled_from(OVERLAP_LEVELS),
            n_qubits=st.integers(1, 6),
            seed=st.integers(0, 2**32 - 1),
        )
        def rebuilds(family, label, overlap, n_qubits, seed):
            rng = np.random.default_rng(seed)
            name, params = sample_family_params(family, label, overlap, rng.random((1, FAMILIES[family].uniforms)))
            built = [state(name, *params[0]), random_product_state(n_qubits, rng)]
            for rho in built:
                np.testing.assert_allclose(reconstruct_density(exact_features(rho)), rho, rtol=0, atol=1e-12)

        rebuilds()

    def test_shape_check(self):
        with pytest.raises(ValueError, match="feature values"):
            reconstruct_density(np.zeros(7))


class TestStandardizer:
    def test_constant_column_zscore(self):
        train = np.array([[2.0, 1.0], [2.0, 3.0], [2.0, 5.0]])
        std = fit_standardizer(train, "zscore")
        assert std.shift[0] == 2.0 and std.scale[0] == 1.0
        out = apply_standardizer(std, train)
        np.testing.assert_allclose(out[:, 0], 0.0)

    @pytest.mark.parametrize("mode", ["zscore", "minmax"])
    def test_round_off_column_gets_unit_scale(self, mode):
        """A column that is constant up to round-off (spread ~1e-17) is
        treated as constant, so its round-off is not blown up to O(1)."""
        rng = np.random.default_rng(46)
        train = np.column_stack([rng.normal(size=50), 1e-17 * rng.normal(size=50), np.full(50, 0.3)])
        std = fit_standardizer(train, mode)
        assert std.scale[1] == 1.0 and std.scale[2] == 1.0
        assert np.all(np.abs(apply_standardizer(std, train)[:, 1]) < 1e-15)
        assert std.scale[0] > 0.1

    def test_minmax_midpoint(self):
        std = fit_standardizer(np.array([[0.0], [1.0]]), "minmax")
        assert apply_standardizer(std, np.array([0.5]))[0] == 0.5

    def test_round_trip_inversion(self):
        rng = np.random.default_rng(44)
        train = rng.normal(size=(40, 6)) * 3 + 1
        for mode in ("zscore", "minmax", "none"):
            std = fit_standardizer(train, mode)
            out = apply_standardizer(std, train)
            back = out * std.scale + std.shift
            np.testing.assert_allclose(back, train, atol=1e-12)

    def test_zscore_normalizes_train(self):
        rng = np.random.default_rng(45)
        train = rng.normal(size=(300, 4)) * np.array([1.0, 5.0, 0.2, 9.0])
        out = apply_standardizer(fit_standardizer(train, "zscore"), train)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-8)

    def test_dict_round_trip(self, tmp_path):
        """The standardizer's mode, shift and scale survive the model file."""
        x = np.random.default_rng(1).normal(size=(10, 3))
        y = np.array([1] * 5 + [-1] * 5)
        for mode in ("zscore", "minmax", "none"):
            std = fit_standardizer(x, mode)
            path = tmp_path / f"{mode}.json"
            save_model(fit(x, y, standardizer=mode), str(path))
            again = load_model(str(path)).standardizer
            np.testing.assert_array_equal(again.shift, std.shift)
            np.testing.assert_array_equal(again.scale, std.scale)
            assert again.mode == std.mode

    def test_zscore_needs_two_rows(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_standardizer(np.ones((1, 3)), "zscore")

    def test_empty_input(self):
        with pytest.raises(ValueError, match="nonempty"):
            fit_standardizer(np.empty((0, 3)), "minmax")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            fit_standardizer(np.ones((3, 2)), "robust")

    def test_dimension_mismatch_refused(self):
        std = fit_standardizer(np.ones((3, 2)), "none")
        with pytest.raises(ValueError, match=r"^feature dimension 3 does not match standardizer \(2\)$"):
            apply_standardizer(std, np.ones((4, 3)))
