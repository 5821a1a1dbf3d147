"""Tests for Pauli feature extraction and shot sampling."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entflda import experiments
from entflda.experiments import OVERLAP_LEVELS, ExperimentConfig, generate_dataset, sample_family_params
from entflda.measure import (
    TABLE_MAX_SHOTS,
    _half_table,
    check_pauli_words,
    exact_features,
    pauli_words,
    sampled_features,
    shot_estimates,
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


class TestShotEstimates:
    """Every shot estimate comes from ``shot_estimates`` of exact features."""

    @pytest.mark.parametrize("shots", [1, 7, 512])
    def test_sampled_features_is_shots_of_exact(self, shots):
        one = state("concurrence", 1.1, 2.3)
        stack = np.stack([state("werner3", p) for p in (0.1, 0.5, 0.9)])
        for rho in (one, stack):
            a = sampled_features(rho, shots, np.random.default_rng(9))
            rng = np.random.default_rng(9)
            b = shot_estimates(exact_features(rho), shots, rng, rng)
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("rows", [1, 7, experiments._BLOCK_CELLS // 256])  # 256: a werner4 written block
    def test_blocks_from_one_generator_give_one_call(self, rows):
        """Row blocks drawn in turn from one pair of generators (binomial and
        alias table) have the bits of one call on the whole (n, d) matrix,
        whatever the block size."""
        exact = generate_dataset(ExperimentConfig(family="werner3", overlap="low", n_samples=600, master_seed=4)).features
        whole = shot_estimates(exact, 512, np.random.default_rng(11), np.random.default_rng(12))
        rng, half_rng = np.random.default_rng(11), np.random.default_rng(12)
        blocks = [shot_estimates(exact[i : i + rows], 512, rng, half_rng) for i in range(0, len(exact), rows)]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("family", ["werner2", "pptes-acin"])
    def test_dataset_shots_are_drawn_from_its_exact_rows(self, family):
        """A shot dataset is its exact dataset's rows measured by one call on
        the shot streams ``[master_seed, 3]`` (binomial) and ``[master_seed,
        5]`` (alias table): the two stages a table's cells may share."""
        config = ExperimentConfig(family=family, overlap="medium", n_samples=300, master_seed=8)
        exact = generate_dataset(ExperimentConfig(family=family, overlap="medium", n_samples=300, master_seed=8, shots=0))
        streams = np.random.default_rng([8, 3]), np.random.default_rng([8, 5])
        drawn = shot_estimates(exact.features, config.effective_shots, *streams)
        dataset = generate_dataset(config)
        assert dataset.features.tobytes() == drawn.tobytes()
        assert dataset.labels.tobytes() == exact.labels.tobytes()

    @pytest.mark.parametrize("convert", [list, tuple])
    def test_sequence_input_gives_the_array_bits(self, convert):
        """A list or a tuple of exact values, zeros among them, draws the bits
        the same values give as an array."""
        exact = np.array([0.0, 0.5, -1.0, 0.0, 1.0, -0.25])
        want = shot_estimates(exact, 16, np.random.default_rng(3), np.random.default_rng(4))
        got = shot_estimates(convert(exact.tolist()), 16, np.random.default_rng(3), np.random.default_rng(4))
        assert got.tobytes() == want.tobytes()

    def test_refusals(self):
        with pytest.raises(ValueError, match=r"^shots must be >= 1, got 0$"):
            shot_estimates(np.zeros(3), 0, np.random.default_rng(0), np.random.default_rng(1))
        with pytest.raises(ValueError, match=r"^outcome probability outside \[0, 1\]"):
            shot_estimates(np.array([0.5, -1.5]), 4, np.random.default_rng(0), np.random.default_rng(1))


class TestHalfTable:
    """Zero expectations draw their counts, Binomial(shots, 1/2), from an
    alias table on the second generator; every other count is binomial."""

    @pytest.mark.parametrize("shots", [1, 16, 512, 2048])
    def test_table_gives_the_exact_pmf(self, shots):
        """The mass each bin's threshold and alias give count k is
        C(shots, k) / 2^shots within 1e-15."""
        threshold, pick = _half_table(shots)
        n = shots + 1
        assert threshold.shape == (n,) and np.all((0 <= threshold) & (threshold <= 1))
        assert pick[0::2].tobytes() == (2.0 * np.arange(n) / shots - 1.0).tobytes()
        alias = np.rint((pick[1::2] + 1.0) * shots / 2).astype(int)
        assert pick[1::2].tobytes() == pick[2 * alias].tobytes()
        implied = threshold.copy()
        np.add.at(implied, alias, 1.0 - threshold)
        exact = np.array([math.comb(shots, k) / 2**shots for k in range(n)])
        np.testing.assert_allclose(implied / n, exact, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("shots", [16, 512])
    def test_counts_pass_a_chi_square(self, shots):
        """10^6 counts drawn at a fixed seed fit Binomial(shots, 1/2): a
        chi-square over the counts, tails pooled to an expected 5 or more."""
        stats = pytest.importorskip("scipy.stats")
        est = shot_estimates(np.zeros(10**6), shots, np.random.default_rng(0), np.random.default_rng(40))
        counts = np.rint((est + 1.0) * shots / 2).astype(int)
        observed = np.bincount(counts, minlength=shots + 1)
        expected = stats.binom.pmf(np.arange(shots + 1), shots, 0.5) * len(counts)
        lo, hi = np.flatnonzero(expected >= 5)[[0, -1]]
        pooled_obs = [observed[: lo + 1].sum(), *observed[lo + 1 : hi], observed[hi:].sum()]
        pooled_exp = [expected[: lo + 1].sum(), *expected[lo + 1 : hi], expected[hi:].sum()]
        pooled_exp = np.array(pooled_exp) * len(counts) / sum(pooled_exp)
        assert stats.chisquare(pooled_obs, pooled_exp).pvalue > 1e-3

    @pytest.mark.parametrize("shots", [TABLE_MAX_SHOTS, TABLE_MAX_SHOTS + 1])
    def test_table_up_to_its_cap(self, shots):
        """At the cap, zero expectations take one uniform each from the
        second generator and the rest are binomial on the first; above it,
        every count is one binomial call, with the second generator unread."""
        exact = np.array([[0.0, 0.5, 0.0], [-0.25, 0.0, 1.0]])
        rng, half_rng = np.random.default_rng(1), np.random.default_rng(2)
        got = shot_estimates(exact, shots, rng, half_rng)
        binomial, half = np.random.default_rng(1), np.random.default_rng(2)
        if shots <= TABLE_MAX_SHOTS:
            zero = exact == 0
            want = np.empty_like(exact)
            want[~zero] = 2.0 * binomial.binomial(shots, (1.0 + exact[~zero]) / 2.0) / shots - 1.0
            half.random(zero.sum())
            assert np.all(np.abs(got[zero]) < 0.2)
            got[zero] = want[zero] = 0.0
        else:
            want = 2.0 * binomial.binomial(shots, (1.0 + exact) / 2.0) / shots - 1.0
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == binomial.bit_generator.state
        assert half_rng.bit_generator.state == half.bit_generator.state


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
def test_estimates_are_float64(dtype):
    """Counts are written into the estimates' own buffer, which is float64
    whatever the exact values' dtype."""
    est = shot_estimates(np.array([0, 1, 0, -1], dtype=dtype), 512, np.random.default_rng(0), np.random.default_rng(1))
    assert est.dtype == np.float64 and est.tolist()[1::2] == [1.0, -1.0]


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

