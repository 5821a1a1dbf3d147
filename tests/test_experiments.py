"""Tests for dataset generation, presets and the benchmark harness."""

import csv
import dataclasses
import io
import os
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from entflda import cli, experiments, labels, qops, states
from entflda.experiments import (
    Dataset,
    ExperimentConfig,
    generate_dataset,
    load_dataset,
    profile_samples,
    render_report,
    reproduce_tables,
    run_experiment,
    sample_family_params,
    save_dataset,
    stratified_split,
)
from entflda.flda import MIN_SCALE, evaluate, fit, save_model
from entflda.measure import pauli_words
from oracles import family_state, pauli_word, projections_by_class

HEAD_FAMILIES = [name for name, spec in states.FAMILIES.items() if spec.fixed_label != labels.SEPARABLE]


def chunk_sizes(n):
    """Chunk sizes that split a dataset of ``n`` rows in different ways."""
    return (1, 7, n)


def row_parameters(config, i):
    """``(build_family, params row)`` of row ``i`` of ``config``'s dataset,
    rebuilt from (master_seed, i) alone by advancing the parameter stream."""
    label = labels.ENTANGLED if i < config.n_entangled else labels.SEPARABLE
    block = states.FAMILIES[config.family].uniforms
    u = experiments._sample_rng(config.master_seed, config.family, i).random((1, block))
    build_family, params = sample_family_params(config.family, label, config.overlap, u, config.label_convention)
    return build_family, params[0]


def sample(family, label, overlap, n, seed, convention="paper"):
    """``sample_family_params`` over ``n`` rows of fresh uniforms."""
    u = np.random.default_rng(seed).random((n, states.FAMILIES[family].uniforms))
    return sample_family_params(family, label, overlap, u, convention)


def count_computed_rows(monkeypatch):
    """``(computed, generators)``, filled as datasets are generated: per
    block, ``("stack", n)`` for the n rows of a validated stack and
    ``("closed", n)`` for the n rows a family's closed form computes, in call
    order; and the row count of each generating state validated (none: each
    record validates its own when it is built)."""
    computed, generators = [], []
    validate = qops.validate_states

    def counted(record):
        def check(matrices):
            record(len(matrices))
            validate(matrices)
        return check

    def counted_features(closed_form):
        return lambda q: (computed.append(("closed", len(q))), closed_form(q))[1]

    monkeypatch.setattr(qops, "validate_states", counted(lambda n: computed.append(("stack", n))))
    monkeypatch.setattr(states, "validate_states", counted(generators.append))
    for name, spec in states.FAMILIES.items():
        monkeypatch.setitem(states.FAMILIES, name, dataclasses.replace(spec, features=counted_features(spec.features)))
    return computed, generators


def set_block_rows(monkeypatch, states_rows, chunk_rows):
    """Generate in ``states_rows``-row states blocks and draw shots (and write) in ``chunk_rows``-row chunks."""
    monkeypatch.setattr(experiments, "_STATES_ROWS", states_rows)
    monkeypatch.setattr(experiments, "_CHUNK_ROWS", chunk_rows)


def csv_writer_bytes(dataset):
    """The reference bytes of a dataset file: ``csv.writer`` over the header
    and the per-cell ``repr`` of every feature, then the label."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(dataset.feature_names) + ["label"])
    for row, label in zip(dataset.features, dataset.labels):
        writer.writerow([repr(float(v)) for v in row] + [str(int(label))])
    return buf.getvalue().encode()


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig(family="werner2")
        assert cfg.effective_shots == 512

    def test_shot_preset_by_overlap(self):
        assert ExperimentConfig(family="werner2", overlap="medium").effective_shots == 2048
        assert ExperimentConfig(family="werner2", overlap="low").effective_shots == 0
        assert ExperimentConfig(family="werner2", shots=9).effective_shots == 9

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"family": "product-sep"}, "cannot head a dataset"),
            ({"family": "werner2", "overlap": "tiny"}, "overlap"),
            ({"family": "werner2", "n_samples": 5}, "minimum"),
            ({"family": "werner5"}, "unknown family"),
            ({"family": "werner2", "n_samples": 30, "balance": 0.1}, "fewer than 10"),
            ({"family": "werner2", "shots": -1}, "shots"),
            ({"family": "werner2", "balance": float("nan")}, "balance"),
            ({"family": "werner2", "label_convention": "vote"}, "convention"),
            ({"family": "werner2", "master_seed": -3}, "master_seed"),
            ({"family": "werner2", "balance": 1.0}, "balance"),
            ({"family": "werner2", "shots": 2**63}, "shots"),
            ({"family": "werner2", "balance": "0.5"}, "^balance must be a number, got '0.5'$"),
            ({"family": "werner2", "balance": None}, "^balance must be a number, got None$"),
            ({"family": "werner2", "balance": np.array([0.5])}, r"^balance must be a number, got array\(\[0\.5\]\)$"),
            ({"family": ["werner2"]}, r"^unknown family \['werner2'\]"),
            ({"family": "werner2", "balance": True}, "^balance must be a number, got True$"),
        ],
    )
    def test_rejections(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("field", ["n_samples", "shots", "master_seed"])
    @pytest.mark.parametrize("value", [2.5, 100.0, True, False, np.float64(64.0), "64"])
    def test_non_integer_counts_refused(self, field, value):
        """A count is an int or a numpy integer: ``shots=2.5`` gave features
        no mean of +-1 outcomes can take, ``True`` was read as 1 and
        ``n_samples=100.0`` died inside ``range``."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            ExperimentConfig(family="werner2", **{field: value})

    def test_none_is_only_the_shots_preset(self):
        assert ExperimentConfig(family="werner2", shots=None).effective_shots == 512
        for field in ("n_samples", "master_seed"):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got None$"):
                ExperimentConfig(family="werner2", **{field: None})

    def test_numpy_integer_counts_stored_as_int(self):
        cfg = ExperimentConfig(family="werner2", n_samples=np.int64(40), shots=np.uint16(7), master_seed=np.int32(3))
        assert [type(v) for v in (cfg.n_samples, cfg.shots, cfg.master_seed)] == [int, int, int]
        assert (cfg.n_samples, cfg.shots, cfg.master_seed) == (40, 7, 3)
        ref = ExperimentConfig(family="werner2", n_samples=40, shots=7, master_seed=3)
        a, b = generate_dataset(cfg), generate_dataset(ref)
        assert a.features.tobytes() == b.features.tobytes() and a.labels.tobytes() == b.labels.tobytes()


class TestSampleFamilyParams:
    def test_werner2_entangled_low_interval(self):
        lo, hi = 1 / 3 + 0.25, 1 / 3 + 0.65
        fam, params = sample("werner2", -1, "low", 300, 1)
        assert fam == "werner2" and params.shape == (300, 1)
        assert np.all((lo < params[:, 0]) & (params[:, 0] <= hi))

    def test_werner2_separable_high_interval(self):
        lo, hi = -1 / 15, 1 / 3
        _, params = sample("werner2", 1, "high", 300, 2)
        assert np.all((lo <= params[:, 0]) & (params[:, 0] < hi))

    def test_same_stream_same_parameters(self):
        a = sample("biseparable", -1, "high", 50, 5)
        b = sample("biseparable", -1, "high", 50, 5)
        assert a[0] == b[0] and a[1].tobytes() == b[1].tobytes()

    def test_concurrence_respects_floor(self):
        for seed, (overlap, floor) in enumerate((("high", 0.1), ("medium", 0.4), ("low", 0.8))):
            _, params = sample("concurrence", -1, overlap, 50, 3 + seed)
            assert np.all(labels.concurrence_analytic(params[:, 0], params[:, 1]) >= floor)

    @pytest.mark.parametrize("overlap", experiments.OVERLAP_LEVELS)
    def test_concurrence_box_holds_the_accepted_region(self, overlap):
        """C = sin(theta0) sin(theta1 / 2) >= c needs both factors >= c, so
        every accepted pair lies in [lo, pi - lo] x [2 lo, pi], lo = asin(c):
        C is c on the box's edges and below c just outside them, and no pair
        of a 1,001 x 1,001 grid over [0, pi]^2 outside the box is accepted.
        The box's largest draw stays inside [0, pi]^2."""
        c = states.FAMILIES["concurrence"].concurrence_floor[overlap]
        lo = np.arcsin(c)
        edges = np.array([[lo, np.pi], [np.pi - lo, np.pi], [np.pi / 2, 2 * lo]])
        np.testing.assert_allclose(labels.concurrence_analytic(edges[:, 0], edges[:, 1]), c, rtol=1e-15)
        outside = np.array([[lo - 1e-9, np.pi], [np.pi - lo + 1e-9, np.pi], [np.pi / 2, 2 * lo - 1e-9]])
        assert np.all(labels.concurrence_analytic(outside[:, 0], outside[:, 1]) < c)
        t0, t1 = np.meshgrid(*[np.linspace(0, np.pi, 1001)] * 2, indexing="ij")
        accepted = labels.concurrence_analytic(t0, t1) >= c
        in_box = (lo <= t0) & (t0 <= np.pi - lo) & (2 * lo <= t1)
        assert accepted.any() and not np.any(accepted & ~in_box)
        largest = np.full((1, states.FAMILIES["concurrence"].uniforms), 1 - 2**-53)  # the largest [0, 1) double
        _, corner = sample_family_params("concurrence", -1, overlap, largest)
        assert np.all(corner <= np.pi)

    @pytest.mark.parametrize("overlap", experiments.OVERLAP_LEVELS)
    def test_concurrence_box_matches_the_square(self, overlap):
        """The first accepted pair from the box has the distribution of the
        first accepted pair from [0, pi]^2, uniform over the accepted region:
        two-sample Kolmogorov-Smirnov tests on theta0, theta1 and C at a
        fixed seed."""
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(31)
        c = states.FAMILIES["concurrence"].concurrence_floor[overlap]
        _, box = sample("concurrence", -1, overlap, 4000, 30)
        square = np.pi * rng.random((4000, 256, 2))
        accepted = labels.concurrence_analytic(square[..., 0], square[..., 1]) >= c
        assert accepted.any(axis=1).all()
        square = square[np.arange(4000), accepted.argmax(axis=1)]
        for a, b in ((box[:, 0], square[:, 0]), (box[:, 1], square[:, 1]),
                     (labels.concurrence_analytic(*box.T), labels.concurrence_analytic(*square.T))):
            assert stats.ks_2samp(a, b).pvalue > 1e-3

    def test_concurrence_without_accepted_pair_fails_loudly(self):
        # Every candidate is the box's corner (asin 0.8, 2 asin 0.8), where C = 0.8^2 < 0.8.
        u = np.zeros((3, states.FAMILIES["concurrence"].uniforms))
        with pytest.raises(RuntimeError, match="concurrence 0.8"):
            sample_family_params("concurrence", -1, "low", u)

    def test_separable_class_is_product(self):
        for seed, family in enumerate(("concurrence", "pptes-acin", "ppt-alt", "biseparable")):
            fam, params = sample(family, 1, "high", 40, 4 + seed)
            assert fam == "product-sep"
            blochs = params.reshape(40, states.FAMILIES[family].n_qubits, 3)
            assert np.all(np.linalg.norm(blochs, axis=-1) <= 1 + 1e-12)

    def test_acin_parameters_log_range(self):
        _, params = sample("pptes-acin", -1, "medium", 200, 6)
        assert params.shape == (200, 3)
        assert np.all((0.5 <= params) & (params <= 2.0))

    def test_biseparable_components(self):
        _, params = sample("biseparable", -1, "high", 100, 7)
        weights, bc_p = params[:, :3], params[:, 12:]
        used = np.count_nonzero(weights, axis=1)
        assert np.all((1 <= used) & (used <= 3)) and set(used) == {1, 2, 3}
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((0.5 <= bc_p) & (bc_p <= 1.0))

    @pytest.mark.parametrize(
        "overlap, label, message",
        [("extreme", -1, "overlap 'extreme' not one of"), ("high", 0, "label must be -1 or +1, got 0")],
        ids=["overlap", "label"],
    )
    def test_bad_request_refused(self, overlap, label, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            sample_family_params("werner2", label, overlap, np.zeros((1, 4)))

    def test_boundary_near_one_leaves_an_empty_interval(self, monkeypatch):
        near_one = dataclasses.replace(states.FAMILIES["werner3"], boundary={"paper": 0.9, "ppt-oracle": 0.9})
        monkeypatch.setitem(states.FAMILIES, "toy", near_one)
        assert sample("toy", -1, "high", 3, 0)[1].shape == (3, 1)
        with pytest.raises(ValueError, match="^overlap preset 'low' yields an empty interval for toy$"):
            sample("toy", -1, "low", 3, 0)

    def test_product_family_has_no_entangled_class(self):
        with pytest.raises(ValueError, match="no entangled class"):
            sample("product-sep", -1, "high", 3, 0)

    def test_labels_match_request(self):
        for seed, family in enumerate(("werner2", "werner3", "werner4", "concurrence", "biseparable")):
            for requested in (-1, 1):
                for overlap in ("high", "low"):
                    fam, params = sample(family, requested, overlap, 20, 8 + seed)
                    y = labels.assign_label(fam, params, states.FAMILIES[fam].stack(params), "paper")
                    assert np.all(y == requested)


class TestGenerateDataset:
    def test_class_balance(self):
        cfg = ExperimentConfig(family="werner2", n_samples=100, master_seed=1, shots=4)
        ds = generate_dataset(cfg)
        assert int(np.sum(ds.labels == -1)) == 50
        assert int(np.sum(ds.labels == 1)) == 50

    def test_balance_within_one_for_odd_n(self):
        cfg = ExperimentConfig(family="werner2", n_samples=101, master_seed=1, shots=4)
        ds = generate_dataset(cfg)
        assert abs(int(np.sum(ds.labels == -1)) - int(np.sum(ds.labels == 1))) <= 1

    def test_deterministic_files(self, tmp_path):
        cfg = ExperimentConfig(family="werner3", n_samples=40, master_seed=77, shots=16)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(generate_dataset(cfg), str(p1))
        save_dataset(generate_dataset(cfg), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_chunk_size_does_not_change_output(self, monkeypatch):
        """Exact features show every bit of the feature computation; shot
        features also check that the shot stream runs on across chunks."""
        for family in HEAD_FAMILIES:
            for convention in labels.LABEL_CONVENTIONS:
                for shots in (0, 32):
                    cfg = ExperimentConfig(family=family, n_samples=30, master_seed=5, shots=shots,
                                           label_convention=convention)
                    reference = generate_dataset(cfg)
                    for rows in chunk_sizes(cfg.n_samples):
                        set_block_rows(monkeypatch, rows, rows)
                        ds = generate_dataset(cfg)
                        assert ds.features.tobytes() == reference.features.tobytes(), (family, convention, shots, rows)
                        assert ds.labels.tobytes() == reference.labels.tobytes(), (family, convention, shots, rows)
                    monkeypatch.undo()

    def test_chunk_size_does_not_change_output_property(self, monkeypatch):
        """Property: for any family, convention, row count, class balance,
        seed and shot count, a dataset built in states blocks and shot chunks
        of any sizes has the bytes of the one built in a single block and
        chunk, so the class boundary may fall at any offset inside a block and
        the last block may be short."""
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        whole = (experiments._STATES_ROWS, experiments._CHUNK_ROWS)

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            family=st.sampled_from(HEAD_FAMILIES),
            convention=st.sampled_from(labels.LABEL_CONVENTIONS),
            n_samples=st.integers(50, 120),
            balance=st.floats(0.2, 0.8),
            seed=st.integers(0, 2**32 - 1),
            shots=st.sampled_from([0, 16]),
            block=st.integers(1, 125),
            rows=st.integers(1, 125),
        )
        def invariant(family, convention, n_samples, balance, seed, shots, block, rows):
            cfg = ExperimentConfig(family=family, n_samples=n_samples, balance=balance, shots=shots,
                                   label_convention=convention, master_seed=seed)
            set_block_rows(monkeypatch, *whole)
            reference = generate_dataset(cfg)
            set_block_rows(monkeypatch, block, rows)
            ds = generate_dataset(cfg)
            assert ds.features.tobytes() == reference.features.tobytes()
            assert ds.labels.tobytes() == reference.labels.tobytes()

        invariant()

    @pytest.mark.parametrize("convention", labels.LABEL_CONVENTIONS)
    @pytest.mark.parametrize("family", HEAD_FAMILIES)
    def test_one_state_per_row(self, family, convention, monkeypatch):
        """Each row's features are computed exactly once, in a block, by its
        family's closed form, with no generating state validated; a block's
        stack is built and validated once, after its features, only where a
        ``ppt-oracle`` label reads the states (the entangled class of a
        family with no Werner boundary and no fixed label). No row goes
        through ``from_family`` or ``DensityOperator``, the single-state path
        ``inspect`` takes."""
        computed, generators = count_computed_rows(monkeypatch)

        def per_state(*args, **kwargs):
            raise AssertionError("per-state construction in the batched path")

        monkeypatch.setattr(qops.DensityOperator, "__init__", per_state)
        monkeypatch.setattr(states, "from_family", per_state)
        set_block_rows(monkeypatch, 10, 3)
        cfg = ExperimentConfig(family=family, n_samples=24, label_convention=convention, shots=4)
        generate_dataset(cfg)
        oracle = convention == "ppt-oracle" and family in ("concurrence", "ppt-alt", "biseparable")
        entangled = [("closed", 10), ("stack", 10), ("closed", 2), ("stack", 2)] if oracle else []
        assert computed == (entangled or [("closed", 10), ("closed", 2)]) + [("closed", 10), ("closed", 2)]
        assert generators == []

    @pytest.mark.parametrize("family", HEAD_FAMILIES)
    def test_paper_generation_builds_no_state(self, family, monkeypatch):
        """Under ``paper`` no label reads a state, so generation calls no
        family's ``stack`` and no ``qops.validate_states``: every feature
        comes from a closed form."""
        def refuse(*args, **kwargs):
            raise AssertionError("a state was built or validated")

        monkeypatch.setattr(qops, "validate_states", refuse)
        for name, spec in states.FAMILIES.items():
            monkeypatch.setitem(states.FAMILIES, name, dataclasses.replace(spec, stack=refuse))
        for overlap in experiments.OVERLAP_LEVELS:
            ds = generate_dataset(ExperimentConfig(family=family, overlap=overlap, n_samples=40, shots=0))
            assert ds.features.shape == (40, 4 ** states.FAMILIES[family].n_qubits - 1)

    def test_biseparable_zero_traces_are_exact_and_drawn_from_the_alias_stream(self):
        """A biseparable state's Pauli traces vanish exactly on every word
        whose last two letters are not II, XX, YY or ZZ (its second factor is
        a Werner pair): those cells are +0.0 in the exact rows, and a shot
        config draws each of them, in row order, from the ``[seed, 5]``
        alias-table stream, as Binomial(s, 1/2)."""
        from entflda.measure import _half_table

        cfg = ExperimentConfig(family="biseparable", n_samples=300, shots=0, master_seed=8)
        exact = generate_dataset(cfg).features
        zero = np.array([w[1:] not in ("II", "XX", "YY", "ZZ") for w in pauli_words(3)])
        assert zero.sum() == 48
        cells = exact[: cfg.n_entangled, zero]
        assert np.all(cells == 0) and not np.any(np.signbit(cells))
        shots = 64
        drawn = generate_dataset(dataclasses.replace(cfg, shots=shots)).features
        threshold, pick = _half_table(shots)
        at_zero = exact == 0  # every zero cell in row order, the separable rows' too
        u = np.random.default_rng([cfg.master_seed, 5]).random(np.count_nonzero(at_zero)) * len(threshold)
        k = np.floor(u).astype(int)
        np.testing.assert_array_equal(drawn[at_zero], pick[2 * k + (u - k >= threshold[k])])

    def test_each_chunk_holds_one_class(self, monkeypatch):
        """Every ``sample_family_params`` call samples one class: all the
        entangled blocks come before the separable ones, none exceeds
        ``_STATES_ROWS`` rows, and the blocks of a class add up to its count.
        Each block's features are computed in one call on the rows it sampled."""
        calls, (computed, generators) = [], count_computed_rows(monkeypatch)
        sample_rows = experiments.sample_family_params

        def recording(family, label, overlap, uniforms, convention="paper"):
            calls.append((label, len(uniforms)))
            return sample_rows(family, label, overlap, uniforms, convention)

        monkeypatch.setattr(experiments, "sample_family_params", recording)
        monkeypatch.setattr(experiments, "_STATES_ROWS", 100)
        cfg = ExperimentConfig(family="werner2", n_samples=601, balance=0.37, shots=4)
        assert (cfg.n_entangled, cfg.n_samples - cfg.n_entangled) == (222, 379)
        ds = generate_dataset(cfg)
        classes = [label for label, _ in calls]
        assert classes == sorted(classes) and set(classes) == {labels.ENTANGLED, labels.SEPARABLE}
        assert all(0 < rows <= experiments._STATES_ROWS for _, rows in calls) and len(calls) == 3 + 4
        for label, count in ((labels.ENTANGLED, 222), (labels.SEPARABLE, 379)):
            assert sum(rows for cls, rows in calls if cls == label) == count
        assert computed == [("closed", rows) for _, rows in calls]
        assert generators == []
        assert ds.labels.dtype == int and int(np.sum(ds.labels == labels.ENTANGLED)) == 222

    @pytest.mark.parametrize("convention", labels.LABEL_CONVENTIONS)
    @pytest.mark.parametrize("family", HEAD_FAMILIES)
    def test_rows_match_the_per_state_reference(self, family, convention):
        """Row i's state, exact features and label agree with the state the
        family's textbook definition gives for row i's parameters: the
        features with tr(rho O) per Pauli word, the label with the one
        ``from_family`` gives."""
        cfg = ExperimentConfig(family=family, n_samples=24, shots=0, label_convention=convention, master_seed=3)
        ds = generate_dataset(cfg)
        assert ds.feature_names == pauli_words(states.FAMILIES[family].n_qubits)
        words = [pauli_word(word) for word in ds.feature_names]
        for i in range(cfg.n_samples):
            build_family, row = row_parameters(cfg, i)
            reference = family_state(build_family, row)
            rho = states.from_family(build_family, row)
            np.testing.assert_allclose(rho.matrix, reference, rtol=0, atol=1e-12)
            per_word = [np.trace(reference @ op).real for op in words]
            np.testing.assert_allclose(ds.features[i], per_word, rtol=0, atol=1e-12)
            assert ds.labels[i] == labels.assign_label(build_family, row, rho.matrix, convention)

    def test_rows_are_addressable(self, monkeypatch):
        """Row i's parameters are rebuilt from (master_seed, i) alone: the
        parameters the dataset used for a row equal ``row_parameters``."""
        seen = []
        sample_rows = experiments.sample_family_params

        def recording(family, label, overlap, uniforms, convention="paper"):
            result = sample_rows(family, label, overlap, uniforms, convention)
            seen.extend((result[0], row) for row in result[1])
            return result

        monkeypatch.setattr(experiments, "sample_family_params", recording)
        set_block_rows(monkeypatch, 16, 16)
        for family in ("werner3", "concurrence", "biseparable"):
            seen.clear()
            cfg = ExperimentConfig(family=family, n_samples=40, master_seed=12, shots=8)
            generate_dataset(cfg)
            for i in (0, 5, 19, 20, 33, 39):
                build_family, row = row_parameters(cfg, i)
                assert build_family == seen[i][0] and row.tobytes() == seen[i][1].tobytes(), (family, i)

    CORRUPTIONS = pytest.mark.parametrize(
        "corrupt,message",
        [
            (lambda m: m + np.triu(np.full(m.shape, 1e-3j), 1), "not Hermitian"),
            (lambda m: 1.01 * m, "trace deviates"),
            (lambda m: np.diag(np.r_[1.2, -0.2, np.zeros(len(m) - 2)]).astype(complex), "not positive semi-definite"),
            (lambda m: np.full(m.shape, np.nan), "non-finite"),
        ],
        ids=["non-hermitian", "wrong-trace", "non-psd", "non-finite"],
    )

    @CORRUPTIONS
    @pytest.mark.parametrize("position", [0, 6, 11])
    def test_invalid_row_anywhere_in_a_chunk_raises(self, corrupt, message, position, monkeypatch):
        """A bad state at any position of a block of stacked rows (the
        entangled ``concurrence`` class under ``ppt-oracle``, whose labels
        read the states) raises the error a DensityOperator of that state
        raises."""
        with pytest.raises(ValueError, match=message):
            qops.DensityOperator(corrupt(np.eye(4, dtype=complex) / 4))
        spec = states.FAMILIES["concurrence"]
        build = spec.stack

        def corrupted(params):
            stack = build(params).copy()
            if position < len(stack):
                stack[position] = corrupt(stack[position])
            return stack

        monkeypatch.setitem(states.FAMILIES, "concurrence", states.Family(**{**vars(spec), "stack": corrupted}))
        monkeypatch.setattr(experiments, "_STATES_ROWS", 12)
        with pytest.raises(ValueError, match=message):
            generate_dataset(ExperimentConfig(family="concurrence", n_samples=24, shots=4,
                                              label_convention="ppt-oracle"))

    @CORRUPTIONS
    @pytest.mark.parametrize("family", ["werner2", "werner4"])
    def test_corrupted_werner_generating_state_raises(self, corrupt, message, family):
        """A Werner record reads its generating state (p = 1) from its own
        matrix function and validates it when it is built: corrupted, the
        record is refused with the message a DensityOperator of that state
        gives."""
        spec = states.FAMILIES[family]
        build = spec.stack
        with pytest.raises(ValueError, match=message):
            qops.DensityOperator(corrupt(build(np.ones((1, 1)))[0].astype(complex)))

        def corrupted(p):
            return np.stack([corrupt(m) for m in build(p[:, None]).astype(complex)])

        with pytest.raises(ValueError, match=message):
            states._werner(spec.n_qubits, corrupted, spec.p_min, spec.boundary["paper"], spec.boundary["ppt-oracle"])

    @pytest.mark.parametrize("family", ["werner2", "werner3", "werner4"])
    def test_werner_record_validates_its_generating_state_once(self, family, monkeypatch):
        """Building a Werner record validates its one p = 1 state once; its
        stack and closed form, called after, validate nothing."""
        spec, shapes = states.FAMILIES[family], []
        validate = states.validate_states
        monkeypatch.setattr(states, "validate_states", lambda m: (shapes.append(m.shape), validate(m)))
        record = states._werner(spec.n_qubits, lambda p: spec.stack(p[:, None]), spec.p_min,
                                spec.boundary["paper"], spec.boundary["ppt-oracle"])
        d = 2**spec.n_qubits
        assert shapes == [(1, d, d)]
        rows = np.array([[spec.p_min], [0.5], [1.0]])
        record.stack(rows), record.features(rows)
        assert shapes == [(1, d, d)]
        np.testing.assert_array_equal(record.features(rows), spec.features(rows))

    @pytest.mark.parametrize("shots", [0, 16])
    @pytest.mark.parametrize("convention", labels.LABEL_CONVENTIONS)
    @pytest.mark.parametrize("family", HEAD_FAMILIES)
    def test_no_negative_zero_feature(self, family, convention, shots):
        """Every zero feature is +0.0, on the stack path and the closed forms
        alike (a negative p times a zero of g gives -0.0 before its + 0.0)."""
        for overlap in ("high", "low"):
            x = generate_dataset(ExperimentConfig(family=family, overlap=overlap, n_samples=200, shots=shots,
                                                  label_convention=convention, master_seed=5)).features
            assert not np.any((x == 0) & np.signbit(x)), overlap

    def test_low_overlap_exact_zz_signature(self):
        # shots=0 with entangled p > 0.5833 forces the ZZ feature below -0.45
        cfg = ExperimentConfig(family="werner2", overlap="low", n_samples=60, master_seed=9)
        ds = generate_dataset(cfg)
        zz = ds.features[:, ds.feature_names.index("ZZ")]
        assert np.all(zz[ds.labels == -1] <= -0.45)

    def test_feature_count_by_family(self):
        for family, expected in (("werner2", 15), ("werner3", 63)):
            cfg = ExperimentConfig(family=family, n_samples=20, master_seed=0, shots=2)
            assert generate_dataset(cfg).features.shape[1] == expected

    def test_save_load_round_trip(self, tmp_path):
        cfg = ExperimentConfig(family="werner2", n_samples=30, master_seed=3, shots=8)
        ds = generate_dataset(cfg)
        path = tmp_path / "ds.csv"
        save_dataset(ds, str(path))
        back = load_dataset(str(path))
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names

    def test_save_matches_csv_writer(self, tmp_path):
        """The saved bytes are what csv.writer writes for the repr cells."""
        ds = generate_dataset(ExperimentConfig(family="werner3", n_samples=30, master_seed=3, shots=8))
        ds.features[0, :5] = [1e-05, -0.0, 1e16, 5e-324, 0.1]
        path = tmp_path / "ds.csv"
        save_dataset(ds, str(path))
        assert path.read_bytes() == csv_writer_bytes(ds)

    def test_save_keeps_the_sign_of_zero(self, tmp_path):
        """A column alternating 0.0 and -0.0 over three write blocks keeps
        each cell's sign: the repr table is keyed on bit patterns."""
        ds = generate_dataset(ExperimentConfig(family="werner2", n_samples=600, master_seed=3, shots=8))
        ds.features[:, 2] = np.where(np.arange(600) % 2, -0.0, 0.0)
        path = tmp_path / "ds.csv"
        save_dataset(ds, str(path))
        assert path.read_bytes() == csv_writer_bytes(ds)
        assert [line.split(",")[2] for line in path.read_text().splitlines()[1:5]] == ["0.0", "-0.0", "0.0", "-0.0"]

    def test_save_matches_csv_writer_property(self, tmp_path):
        """Property: over 1 to 2 * _CHUNK_ROWS + 1 rows, so that write blocks
        are crossed, with cells from a small pool (0.0, -0.0, subnormals,
        +-1e308 and arbitrary finite doubles) so that values repeat, the
        saved bytes are the csv.writer reference."""
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        edges = [0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308]
        doubles = st.floats(allow_nan=False, allow_infinity=False)
        path = str(tmp_path / "ds.csv")

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            n_rows=st.integers(1, 2 * experiments._CHUNK_ROWS + 1),
            n_qubits=st.integers(1, 2),
            pool=st.lists(doubles, max_size=6).map(lambda drawn: edges + drawn),
            seed=st.integers(0, 2**32 - 1),
        )
        def matches(n_rows, n_qubits, pool, seed):
            names = pauli_words(n_qubits)
            rng = np.random.default_rng(seed)
            features = np.array(pool)[rng.integers(len(pool), size=(n_rows, len(names)))]
            ds = Dataset(features, rng.choice([-1, 1], size=n_rows), names)
            save_dataset(ds, path)
            with open(path, "rb") as fh:
                assert fh.read() == csv_writer_bytes(ds)

        matches()

    @pytest.mark.parametrize(
        "cells, labels_, message",
        [
            ({(2, 3): np.nan}, {}, ", line 4, column 4 (XI): non-finite feature 'nan'"),
            ({(0, 0): -np.inf}, {}, ", line 2, column 1 (IX): non-finite feature '-inf'"),
            ({}, {5: 0}, ", line 7, column 16 (label): '0' is not -1 or +1"),
            ({(4, 14): np.inf}, {4: 2}, ", line 6, column 15 (ZZ): non-finite feature 'inf'"),
            ({(4, 14): np.inf}, {1: 2}, ", line 3, column 16 (label): '2' is not -1 or +1"),
        ],
        ids=["nan-feature", "infinite-feature", "zero-label", "feature-before-label", "earlier-label-first"],
    )
    def test_save_refusals(self, tmp_path, cells, labels_, message):
        """save_dataset refuses what load_dataset would, naming the first
        defect by line and column, before it writes anything."""
        ds = generate_dataset(ExperimentConfig(family="werner2", n_samples=20, master_seed=3, shots=8))
        for (r, c), value in cells.items():
            ds.features[r, c] = value
        for r, value in labels_.items():
            ds.labels[r] = value
        self.assert_refused(tmp_path, ds, message)

    @pytest.mark.parametrize(
        "dataset, message",
        [
            (lambda ds: Dataset(ds.features[:, :-1], ds.labels, ds.feature_names),
             ", line 2: 15 columns, the header has 16"),
            (lambda ds: Dataset(ds.features, ds.labels[:-1], ds.feature_names),
             ", line 21: 20 feature rows, 19 labels"),
            (lambda ds: Dataset(ds.features[:-2], ds.labels, ds.feature_names),
             ", line 20: 18 feature rows, 20 labels"),
            (lambda ds: Dataset(ds.features, ds.labels * 0.5, ds.feature_names),
             ", line 2, column 16 (label): '-0.5' is not -1 or +1"),
            (lambda ds: Dataset(ds.features[0], ds.labels[:1], ds.feature_names),
             ": features of shape (15,), not (rows, 15)"),
            (lambda ds: Dataset(ds.features[:0], ds.labels[:0], ds.feature_names), " has no samples"),
            (lambda ds: Dataset(np.where(np.arange(20)[:, None] == 3, np.nan, ds.features), 1.0 * ds.labels,
                                ds.feature_names),
             ", line 5, column 1 (IX): non-finite feature 'nan'"),
        ],
        ids=["short-rows", "missing-label", "missing-rows", "half-labels", "one-dimensional", "no-rows",
             "float-labels-read-as-written"],
    )
    def test_save_refuses_bad_arrays(self, tmp_path, dataset, message):
        ds = generate_dataset(ExperimentConfig(family="werner2", n_samples=20, master_seed=3, shots=8))
        self.assert_refused(tmp_path, dataset(ds), message)

    @pytest.mark.parametrize(
        "names, message",
        [
            (("XX", "XX"), ", line 1: duplicate Pauli word 'XX'"),
            (("II", "XX"), ", line 1: identity string carries no information and is excluded"),
            (("XX", "XA"), ", line 1: bad Pauli word 'XA' for 2 qubits"),
            (("X", "XX"), ", line 1: bad Pauli word 'XX' for 1 qubits"),
        ],
        ids=["duplicate-word", "identity-word", "non-pauli-letter", "mixed-lengths"],
    )
    def test_save_refuses_bad_header_words(self, tmp_path, names, message):
        """save_dataset refuses a header load_dataset would refuse, with the
        reader's message, before it writes anything."""
        self.assert_refused(tmp_path, Dataset(np.full((3, 2), 0.5), np.array([-1, 1, 1]), names), message)
        path = tmp_path / "ds.csv"
        path.write_text(",".join([*names, "label"]) + "\r\n0.5,0.5,1\r\n")
        with pytest.raises(ValueError) as excinfo:
            load_dataset(str(path))
        assert str(excinfo.value) == f"dataset file {path}{message}"

    @staticmethod
    def assert_refused(tmp_path, dataset, message):
        """Saving over an existing file raises the message and leaves the
        file as it was, with no temp file beside it."""
        path = tmp_path / "ds.csv"
        path.write_bytes(b"earlier contents\r\n")
        with pytest.raises(ValueError) as excinfo:
            save_dataset(dataset, str(path))
        assert str(excinfo.value) == f"dataset file {path}{message}"
        assert path.read_bytes() == b"earlier contents\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ds.csv"]

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda text: text.replace("\r\n", "\n"),
            lambda text: text.replace(",1\r\n", ",+1\r\n"),
            lambda text: text.replace(",-1\r\n", ',"-1"\r\n'),
            lambda text: text.replace("\r\n", "\r"),
            lambda text: text.replace("\r\n", "\r", 1),
            lambda text: text.replace("\r\n", "\r\n\r\n"),
        ],
        ids=["lf-endings", "plus-labels", "quoted-labels", "cr-endings", "cr-after-header", "blank-lines"],
    )
    def test_file_variants_load_the_same_arrays(self, tmp_path, rewrite):
        """Other line ends, quoted or ``+1`` labels and blank lines (here
        after every line, the last included) load to the arrays saved."""
        ds = generate_dataset(ExperimentConfig(family="werner2", n_samples=40, master_seed=4, shots=8))
        path = tmp_path / "ds.csv"
        save_dataset(ds, str(path))
        path.write_bytes(rewrite(path.read_bytes().decode()).encode())
        back = load_dataset(str(path))
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()

    @pytest.mark.parametrize("header", ["X,Y,Z,class", "label"], ids=["last-not-label", "label-only"])
    def test_load_refuses_header_without_label(self, tmp_path, header):
        path = tmp_path / "ds.csv"
        path.write_bytes(f"{header}\r\n0.1,0.2,0.3,1\r\n".encode())
        with pytest.raises(ValueError, match=f"^dataset file {re.escape(str(path))} lacks the feature\\+label header$"):
            load_dataset(str(path))

    def test_load_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("", "{path} has no samples"),
            ("\r\n\r\n", "{path} has no samples"),
            ("0.1,0.2,0.3,1\r\n1_0,0.2,0.3,-1\r\n", "{path}, line 3, column 1 (X): '1_0' is not a number"),
            ("0.1,0.5#x,0.3,1\r\n", "{path}, line 2, column 2 (Y): '0.5#x' is not a number"),
            ("0.1,0.2,0.3,-1#x\r\n", "{path}, line 2, column 4 (label): '-1#x' is not -1 or +1"),
            ("0.1,0.2,0.3,1.0\r\n", "{path}, line 2, column 4 (label): '1.0' is not -1 or +1"),
            ("0.1,0.2,0.3,1\r\n\r\n0.1,0.2,0.3\r\n", "{path}, line 4: 3 columns, the header has 4"),
            ("0.1,0.2,0.3,1,1\r\n", "{path}, line 2: 5 columns, the header has 4"),
            ("0.1,0.2,inf,-1\r\n", "{path}, line 2, column 3 (Z): non-finite feature 'inf'"),
            ("\u0661,0.2,0.3,1\r\n", "{path}: could not convert string '\u0661' to float64"),
        ],
        ids=["header-only", "blank-lines-only", "digit-separator", "comment-mark", "comment-mark-in-label", "float-label",
             "ragged-after-blank", "every-row-too-wide", "infinite-feature", "non-ascii-digit"],
    )
    def test_load_refusals(self, tmp_path, body, message):
        """The reader's grammar: no comments, no ``_`` digit separators,
        integer labels, blank lines skipped but counted in line numbers; what
        the scan cannot place keeps loadtxt's message. No warning escapes."""
        path = tmp_path / "ds.csv"
        path.write_bytes(("X,Y,Z,label\r\n" + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as excinfo:
                load_dataset(str(path))
        assert str(excinfo.value).startswith(f"dataset file {message.format(path=path)}")

    def test_round_trip_keeps_every_double(self, tmp_path):
        """Property: save then load gives back the feature bytes (-0.0,
        subnormals and +-1e308 included) and the labels."""
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st
        from hypothesis.extra.numpy import arrays

        edges = st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e308, -1e308])
        doubles = st.one_of(edges, st.floats(allow_nan=False, allow_infinity=False))
        path = str(tmp_path / "ds.csv")

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hypothesis.given(data=st.data(), n_rows=st.integers(1, 40), n_qubits=st.integers(1, 2))
        def round_trip(data, n_rows, n_qubits):
            names = pauli_words(n_qubits)
            features = data.draw(arrays(np.float64, (n_rows, len(names)), elements=doubles))
            y = data.draw(arrays(np.int64, n_rows, elements=st.sampled_from([-1, 1])))
            save_dataset(Dataset(features, y, names), path)
            back = load_dataset(path)
            assert back.features.tobytes() == features.tobytes()
            assert back.labels.tobytes() == y.tobytes()

        round_trip()


class TestShotDraw:
    """Every shot estimate is drawn at one site: one ``shot_estimates`` call
    per ``_CHUNK_ROWS`` dataset rows, in row order, over the exact rows, for
    ``generate_dataset`` and a shared unit alike."""

    @staticmethod
    def record_draws(monkeypatch):
        """``(shots, exact block)`` of each ``experiments.shot_estimates``
        call, with ``experiments.sampled_features`` refusing to run."""
        calls, draw = [], experiments.shot_estimates

        def refuse(*args, **kwargs):
            raise AssertionError("shots drawn through sampled_features")

        def counted(exact, shots, rng, half_rng):
            calls.append((shots, exact.copy()))
            return draw(exact, shots, rng, half_rng)

        monkeypatch.setattr(experiments, "sampled_features", refuse)
        monkeypatch.setattr(experiments, "shot_estimates", counted)
        return calls

    @staticmethod
    def assert_blocks_in_row_order(blocks, exact):
        assert all(0 < len(block) <= experiments._CHUNK_ROWS for block in blocks)
        assert len(blocks) == -(-len(exact) // experiments._CHUNK_ROWS)
        assert np.concatenate(blocks).tobytes() == exact.tobytes()

    def test_generate_dataset_draws_every_row_in_blocks(self, monkeypatch):
        config = ExperimentConfig(family="werner3", overlap="medium", n_samples=600, master_seed=5)
        exact = generate_dataset(dataclasses.replace(config, shots=0))
        calls = self.record_draws(monkeypatch)
        dataset = generate_dataset(config)
        assert {shots for shots, _ in calls} == {2048}
        self.assert_blocks_in_row_order([block for _, block in calls], exact.features)
        assert dataset.labels.tobytes() == exact.labels.tobytes()

    def test_shared_unit_draws_every_row_in_blocks(self, monkeypatch):
        """Table 4's three presets share one unit: after the exact cell, each
        shot preset draws every exact row once, in dataset row order, though
        the unit holds the rows in split order."""
        seed = experiments._table_seed(0, 4)
        configs = [ExperimentConfig("pptes-acin", o, 600, master_seed=seed) for o in experiments.OVERLAP_LEVELS]
        exact = generate_dataset(dataclasses.replace(configs[0], shots=0)).features
        calls = self.record_draws(monkeypatch)
        experiments._run_unit(configs)
        for shots in (512, 2048):  # high, then medium
            self.assert_blocks_in_row_order([block for s, block in calls if s == shots], exact)
        assert [shots for shots, _ in calls] == sorted(shots for shots, _ in calls)

    def test_draw_is_in_place(self):
        """A 4,000-row ``werner4`` dataset at 512 shots peaks within a quarter
        of its 7.8 MB feature matrix of the exact one: the estimates overwrite
        the exact rows block by block (a draw over the whole matrix in one
        call would add about three matrices)."""
        config = ExperimentConfig(family="werner4", n_samples=4000, shots=512)
        generate_dataset(config)  # warm-up: per-qubit-count caches
        peaks = {}
        for shots in (0, 512):
            tracemalloc.start()
            try:
                generate_dataset(dataclasses.replace(config, shots=shots))
                peaks[shots] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        matrix = config.n_samples * 255 * 8
        assert peaks[512] - peaks[0] <= matrix / 4, f"peaks {peaks[0] / 2**20:.1f} and {peaks[512] / 2**20:.1f} MB"


class TestSplitAndLeakage:
    def test_split_is_stratified(self):
        cfg = ExperimentConfig(family="werner2", n_samples=100, master_seed=11, shots=4)
        ds = generate_dataset(cfg)
        train, test = stratified_split(ds, 0.8, cfg.master_seed)
        assert len(train) == 80 and len(test) == 20
        assert int(np.sum(ds.labels[train] == -1)) == 40
        assert int(np.sum(ds.labels[test] == -1)) == 10
        assert set(train).isdisjoint(test)

    def test_standardizer_fit_on_train_only(self):
        cfg = ExperimentConfig(family="werner2", n_samples=120, master_seed=13, shots=16)
        ds = generate_dataset(cfg)
        train, _ = stratified_split(ds, 0.8, cfg.master_seed)
        std = fit(ds.features[train], ds.labels[train], standardizer="zscore").standardizer
        spread = ds.features[train].std(axis=0)
        np.testing.assert_array_equal(std.shift, ds.features[train].mean(axis=0))
        np.testing.assert_array_equal(std.scale, np.where(spread < MIN_SCALE, 1.0, spread))
        assert not np.array_equal(std.shift, ds.features.mean(axis=0))


class TestRunExperiment:
    def test_low_overlap_werner2(self):
        report = run_experiment(ExperimentConfig(family="werner2", overlap="low", n_samples=400, master_seed=2))
        assert report.test_accuracy >= 0.99

    def test_fisher_grows_as_overlap_shrinks(self):
        high = run_experiment(ExperimentConfig(family="werner2", overlap="high", n_samples=400, master_seed=2))
        low = run_experiment(ExperimentConfig(family="werner2", overlap="low", n_samples=400, master_seed=2))
        assert low.fisher_criterion > high.fisher_criterion

    def test_report_deterministic_modulo_wall_time(self, monkeypatch):
        cfg = ExperimentConfig(family="concurrence", overlap="medium", n_samples=80, master_seed=21)
        a = run_experiment(cfg)
        for rows in chunk_sizes(cfg.n_samples):
            set_block_rows(monkeypatch, rows, rows)
            b = run_experiment(cfg)
            assert a == b
        # == is the determinism contract: the wall time is kept on the report but not compared.
        assert dataclasses.replace(a, wall_time_seconds=a.wall_time_seconds + 1.0) == a
        assert run_experiment(dataclasses.replace(cfg, master_seed=22)) != a

    @pytest.mark.parametrize("family, overlap", [("pptes-acin", "high"), ("pptes-acin", "low"), ("werner3", "medium")])
    def test_report_is_the_plain_pipeline(self, family, overlap):
        """``run_experiment`` reports what ``generate_dataset``, the split,
        ``fit`` and ``evaluate`` give when called one after another, to the
        bit, though it draws the shots from the exact rows in split order."""
        config = ExperimentConfig(family=family, overlap=overlap, n_samples=300, master_seed=13)
        dataset = generate_dataset(config)
        train, test = stratified_split(dataset, config.split, config.master_seed)
        model = fit(dataset.features[train], dataset.labels[train], feature_names=dataset.feature_names)
        metrics = evaluate(model, dataset.features[test], dataset.labels[test])
        report = run_experiment(config)
        assert (report.fld_threshold, report.train_accuracy, report.fisher_criterion) == (
            model.threshold, model.train_accuracy, model.fisher_j)
        assert (report.test_accuracy, report.confusion) == (metrics["accuracy"], metrics["confusion"])

    def test_accuracy_ordering_across_presets(self):
        means = {}
        for overlap in ("high", "low"):
            accs = [
                run_experiment(
                    ExperimentConfig(family="werner2", overlap=overlap, n_samples=600, master_seed=s)
                ).test_accuracy
                for s in (0, 1, 2)
            ]
            means[overlap] = np.mean(accs)
        assert means["low"] >= means["high"]

    def test_biseparable_high_accuracy(self):
        """Mean over ten master seeds: one seed's 80 test rows show shot noise, not the family's separability."""
        accs = [run_experiment(ExperimentConfig(family="biseparable", overlap="high", n_samples=400, master_seed=s))
                .test_accuracy for s in range(10)]
        assert np.mean(accs) >= 0.99, accs

    def test_projection_export(self):
        cfg = ExperimentConfig(family="werner2", overlap="low", n_samples=60, master_seed=6)
        ds = generate_dataset(cfg)
        model = fit(ds.features, ds.labels)
        groups = projections_by_class(model, ds)
        assert set(groups) == {-1, 1}
        assert len(groups[-1]) + len(groups[1]) == 60


class TestReproduceTables:
    def test_single_table_has_three_rows(self, tmp_path):
        rows = reproduce_tables([1], out_path=str(tmp_path / "t1.csv"), seed=0)
        assert [r["overlap"] for r in rows] == ["high", "medium", "low"]
        assert all(r["family"] == "werner2" for r in rows)

    def test_table_six_single_row(self, tmp_path):
        rows = reproduce_tables([6], out_path=str(tmp_path / "t6.csv"), seed=0)
        assert len(rows) == 1
        assert rows[0]["overlap"] == "high"

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError, match="unknown table ids"):
            reproduce_tables([8])

    @pytest.mark.parametrize("ids", [[7.9], [1.5], [True], [2, np.float64(3.0)], ["3"]])
    def test_non_integer_table_ids_refused(self, tmp_path, ids):
        out = tmp_path / "r.csv"
        with pytest.raises(ValueError, match=r"^unknown table ids \[.*\]; valid ids are 1\.\.7$"):
            reproduce_tables(ids, out_path=str(out))
        assert not out.exists()

    def test_unknown_format_refused_before_any_cell(self, tmp_path, monkeypatch):
        def no_cell(configs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "_run_unit", no_cell)
        for out in (None, str(tmp_path / "r.xml")):
            with pytest.raises(ValueError, match=r"^unknown report format 'xml'; expected one of \('csv', 'json'\)$"):
                reproduce_tables([1], out_path=out, fmt="xml")
        assert not (tmp_path / "r.xml").exists()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(2.0), "3", None])
    def test_bad_seed_refused_before_the_output_check(self, monkeypatch, seed):
        """The seed is checked as ``ExperimentConfig`` checks ``master_seed``,
        before the output directory and before any cell."""
        monkeypatch.setattr(experiments, "_run_unit", lambda configs: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match=f"^seed must be a nonnegative integer, got {re.escape(repr(seed))}$"):
            reproduce_tables([6], out_path="/nonexistent-dir/r.csv", seed=seed)

    def test_writers_leave_the_umask_alone(self, tmp_path, monkeypatch):
        """No writer sets the process umask, even for a moment: a file
        another thread created meanwhile would get the wrong mode."""
        monkeypatch.setattr(os, "umask", lambda mask: pytest.fail("os.umask was called"))
        dataset = generate_dataset(ExperimentConfig(family="werner2", n_samples=40, master_seed=1))
        save_dataset(dataset, str(tmp_path / "d.csv"))
        save_model(fit(dataset.features, dataset.labels), str(tmp_path / "m.json"))
        reproduce_tables([6], out_path=str(tmp_path / "t.csv"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "m.json", "t.csv"]

    def test_empty_table_ids_refused(self, tmp_path):
        out = tmp_path / "r.csv"
        with pytest.raises(ValueError, match="no table ids"):
            reproduce_tables([], out_path=str(out))
        assert not out.exists()

    @staticmethod
    def usable_cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    @pytest.mark.parametrize("cpus", [None, 17])
    def test_concurrent_cells_give_the_serial_bytes(self, tmp_path, monkeypatch, cpus):
        """The report is ``run_experiment`` of each cell's config called in
        table order, to the byte, whatever the thread count (the host's
        usable CPUs, or one thread per cell), with threads switching every
        microsecond."""
        monkeypatch.setattr(experiments, "profile_samples", lambda profile, family: 200)
        serial = []
        for table, family in experiments.TABLE_FAMILIES.items():
            seed = experiments._table_seed(5, table)
            for overlap in ("high",) if table in experiments.SINGLE_OVERLAP_TABLES else experiments.OVERLAP_LEVELS:
                r = run_experiment(ExperimentConfig(family=family, overlap=overlap, n_samples=200, master_seed=seed))
                metrics = (r.fld_threshold, r.train_accuracy, r.test_accuracy, r.fisher_criterion)
                serial.append(dict(zip(experiments.REPORT_COLUMNS, (table, family, overlap, *metrics, seed))))
        if cpus:
            self.usable_cpus(monkeypatch, cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for fmt in ("csv", "json"):
                out = tmp_path / f"r.{fmt}"
                reproduce_tables(range(7, 0, -1), out_path=str(out), seed=5, fmt=fmt)
                assert out.read_bytes() == render_report(serial, fmt).encode()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [1, 17])
    def test_failing_cell_stops_the_run(self, tmp_path, monkeypatch, capsys, cpus):
        """After a unit of cells raises, no further unit starts, the helpers
        are joined and the error of the first failing cell in table order is
        raised; ``reproduce`` exits 1 with it. The 17 cells form 13 units
        (tables 4 and 5 one each). On one CPU the units run largest first:
        table 7's, then table 4's, which fails. With one thread per unit, a
        barrier starts every unit before any fails; the units of tables 4 and
        5 both fail, and table 4's first cell is named."""
        monkeypatch.setattr(experiments, "profile_samples", lambda profile, family: 40)
        self.usable_cpus(monkeypatch, cpus)
        units = 13
        started, barrier, real = [], threading.Barrier(min(cpus, units), timeout=60), experiments._run_unit
        table_of = {family: table for table, family in experiments.TABLE_FAMILIES.items()}

        def unit(configs):
            started.append((configs[0].family, tuple(c.overlap for c in configs)))
            barrier.wait()
            if configs[0].family in ("pptes-acin", "ppt-alt"):
                raise ValueError(f"table {table_of[configs[0].family]} {configs[0].overlap} failed")
            return real(configs)

        monkeypatch.setattr(experiments, "_run_unit", unit)
        threads, out = threading.active_count(), tmp_path / "r.csv"
        with pytest.raises(ValueError, match="^table 4 high failed$"):
            reproduce_tables(range(1, 8), out_path=str(out))
        assert threading.active_count() == threads
        assert not out.exists()
        if cpus == 1:
            assert started == [("werner4", ("high",)), ("pptes-acin", experiments.OVERLAP_LEVELS)]
        else:
            assert len(started) == units
            assert ("ppt-alt", experiments.OVERLAP_LEVELS) in started
        assert cli.main(["reproduce", "--tables", "1..7", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: table 4 high failed\n"
        assert not out.exists()

    def test_calling_thread_takes_the_largest_units(self, monkeypatch):
        """With one helper, the calling thread takes units largest first and
        the helper smallest first (cost: rows x features over a unit's
        cells), so the largest units start one after another on the calling
        thread while the helper works up from the smallest."""
        monkeypatch.setattr(experiments, "profile_samples", lambda profile, family: 40)
        self.usable_cpus(monkeypatch, 2)
        started, real, main = {True: [], False: []}, experiments._run_unit, threading.main_thread()

        def unit(configs):
            cost = sum(c.n_samples * len(pauli_words(states.FAMILIES[c.family].n_qubits)) for c in configs)
            started[threading.current_thread() is main].append((cost, configs[0].family, len(configs)))
            return real(configs)

        monkeypatch.setattr(experiments, "_run_unit", unit)
        reproduce_tables(range(1, 8))
        calling, helper = started[True], started[False]
        assert len(calling) + len(helper) == 13
        assert calling[0] == (40 * 255, "werner4", 1) and helper[0] == (40 * 15, "concurrence", 1)
        assert [c for c, *_ in calling] == sorted((c for c, *_ in calling), reverse=True)
        assert [c for c, *_ in helper] == sorted(c for c, *_ in helper)

    def test_a_table_builds_its_states_once(self, monkeypatch):
        """Tables 4 and 5, whose presets change only the shot count, compute
        each row once for their three cells; table 1, whose presets move the
        Werner parameter, once per cell, validating no generating state."""
        n = 60
        monkeypatch.setattr(experiments, "profile_samples", lambda profile, family: n)
        computed, generators = count_computed_rows(monkeypatch)
        for tables, cells in (([4, 5], 2), ([1], 3)):
            computed.clear()
            reproduce_tables(tables)
            assert sum(rows for _, rows in computed) == cells * n, tables
        assert generators == []

    def test_profile_sizes(self):
        assert profile_samples("ci", "werner2") == 4000
        assert profile_samples("ci", "werner4") == 2000
        assert profile_samples("full", "werner4") == 10000
        with pytest.raises(ValueError, match="profile"):
            profile_samples("fast", "werner2")

    def test_within_table_orderings(self, tmp_path):
        # Fisher values must grow strictly as overlap decreases. Accuracies
        # for the PPT families saturate near 1.0 at every preset, so the
        # accuracy ordering is asserted up to a two-test-sample tie. Their
        # presets move only the shot count (tables 4 and 5 are flat by
        # construction), so their ordering is asserted on the mean of seeds
        # 0-2, where one seed's shot noise is as large as the tie.
        for table in (1, 4, 5):
            runs = [reproduce_tables([table], seed=seed) for seed in ((0,) if table == 1 else (0, 1, 2))]
            rows = runs[0]
            js = [r["fisher_j"] for r in rows]
            assert js[0] < js[1] < js[2], (table, js)
            accs = np.mean([[r["test_acc"] for r in run] for run in runs], axis=0)
            n_test = profile_samples("ci", rows[0]["family"]) // 5
            tol = 2.0 / n_test
            assert accs[2] >= accs[1] - tol >= accs[0] - 2 * tol, (table, accs)

    def test_render_formats(self):
        rows = [
            {
                "table": 1,
                "family": "werner2",
                "overlap": "high",
                "fld_threshold": 0.25,
                "train_acc": 0.5,
                "test_acc": 0.5,
                "fisher_j": 1.0,
                "seed": 3,
            }
        ]
        csv_text = render_report(rows, "csv")
        assert csv_text.splitlines()[0] == "table,family,overlap,fld_threshold,train_acc,test_acc,fisher_j,seed"
        json_text = render_report(rows, "json")
        assert '"table": 1' in json_text
        with pytest.raises(ValueError, match="format"):
            render_report(rows, "tsv")

    def test_render_csv_bytes(self):
        """Each metric cell is ``repr(float(value))``, whatever the value's
        type, and the other cells are written as given: the reference below
        spells the row out column by column."""
        metrics = [
            (0.25, 0.5, 0.875, 1.0),
            (np.float64(-0.1), np.float64(1.0), np.float64(0.9), np.float64(123.456)),
            (np.float32(0.1), np.float32(0.75), np.float32(0.3), np.float32(2.5)),
            (0, 1, np.int64(1), 7),
        ]
        rows = [dict(zip(experiments.REPORT_COLUMNS, (i + 1, "werner2", "high", *m, 3 + i)))
                for i, m in enumerate(metrics)]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["table", "family", "overlap", "fld_threshold", "train_acc", "test_acc", "fisher_j", "seed"])
        for row in rows:
            writer.writerow([
                row["table"],
                row["family"],
                row["overlap"],
                repr(float(row["fld_threshold"])),
                repr(float(row["train_acc"])),
                repr(float(row["test_acc"])),
                repr(float(row["fisher_j"])),
                row["seed"],
            ])
        assert render_report(rows, "csv") == buf.getvalue()
        assert "0.10000000149011612" in buf.getvalue()
