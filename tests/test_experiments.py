"""Tests for dataset generation, presets and the benchmark harness."""

import numpy as np
import pytest

from entflda import experiments, labels, qops, states
from entflda.experiments import (
    Dataset,
    ExperimentConfig,
    _row,
    generate_dataset,
    load_dataset,
    profile_samples,
    projections_by_class,
    render_report,
    reproduce_tables,
    run_experiment,
    sample_family_params,
    save_dataset,
    stratified_split,
)
from entflda.flda import fit
from entflda.measure import fit_standardizer


def dataset_in_order(config, order):
    """The dataset of ``config`` with its rows generated in ``order``."""
    obs = config.observable_set()
    rows = {i: _row(config, obs, i) for i in order}
    ordered = [rows[i] for i in range(config.n_samples)]
    return Dataset(np.array([r[0] for r in ordered]), np.array([r[1] for r in ordered], dtype=int), obs.strings)


def reversed_and_shuffled(n):
    return [range(n - 1, -1, -1), np.random.default_rng(n).permutation(n)]


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
            ({"family": "werner2", "split": 1.0}, "split"),
            ({"family": "werner2", "n_samples": 30, "balance": 0.1}, "fewer than 10"),
            ({"family": "werner2", "shots": -1}, "shots"),
            ({"family": "werner2", "epsilon": -2.0}, "epsilon"),
            ({"family": "werner2", "label_convention": "vote"}, "convention"),
            ({"family": "werner2", "master_seed": -3}, "master_seed"),
            ({"family": "werner2", "separable_mixture_components": 9}, "components"),
        ],
    )
    def test_rejections(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kwargs)


class TestSampleFamilyParams:
    def test_werner2_entangled_low_interval(self):
        lo, hi = 1 / 3 + 0.25, 1 / 3 + 0.65
        rng = np.random.default_rng(1)
        for _ in range(300):
            fam, params = sample_family_params("werner2", -1, "low", rng)
            assert fam == "werner2"
            assert lo < params["p"] <= hi

    def test_werner2_separable_high_interval(self):
        lo, hi = -1 / 15, 1 / 3
        rng = np.random.default_rng(2)
        for _ in range(300):
            _, params = sample_family_params("werner2", 1, "high", rng)
            assert lo <= params["p"] < hi

    def test_same_stream_same_parameters(self):
        a = sample_family_params("biseparable", -1, "high", np.random.default_rng(5))
        b = sample_family_params("biseparable", -1, "high", np.random.default_rng(5))
        assert a == b

    def test_concurrence_respects_floor(self):
        rng = np.random.default_rng(3)
        for overlap, floor in (("high", 0.1), ("medium", 0.4), ("low", 0.8)):
            for _ in range(50):
                _, params = sample_family_params("concurrence", -1, overlap, rng)
                assert labels.concurrence_analytic(params["theta0"], params["theta1"]) >= floor

    def test_separable_class_is_product(self):
        rng = np.random.default_rng(4)
        for family in ("concurrence", "pptes-acin", "ppt-alt", "biseparable"):
            fam, params = sample_family_params(family, 1, "high", rng)
            assert fam == "product-sep"
            assert len(params["components"]) == 1

    def test_acin_parameters_log_range(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            _, params = sample_family_params("pptes-acin", -1, "medium", rng)
            for key in ("a", "b", "c"):
                assert 0.5 <= params[key] <= 2.0

    def test_biseparable_components(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            _, params = sample_family_params("biseparable", -1, "high", rng)
            comps = params["components"]
            assert 1 <= len(comps) <= 3
            assert abs(sum(c["weight"] for c in comps) - 1.0) < 1e-12
            assert all(0.5 <= c["bc_p"] <= 1.0 for c in comps)

    def test_product_family_has_no_entangled_class(self):
        with pytest.raises(ValueError, match="no entangled class"):
            sample_family_params("product-sep", -1, "high", np.random.default_rng(0))

    def test_labels_match_request(self):
        rng = np.random.default_rng(8)
        for family in ("werner2", "werner3", "werner4", "concurrence", "biseparable"):
            for requested in (-1, 1):
                for overlap in ("high", "low"):
                    fam, params = sample_family_params(family, requested, overlap, rng)
                    rho = states.from_family(fam, params)
                    assert labels.assign_label(fam, params, rho, "paper") == requested


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

    def test_row_order_does_not_change_output(self):
        cfg = ExperimentConfig(family="concurrence", n_samples=60, master_seed=5, shots=32)
        reference = generate_dataset(cfg)
        for order in reversed_and_shuffled(cfg.n_samples):
            ds = dataset_in_order(cfg, order)
            assert ds.features.tobytes() == reference.features.tobytes()
            assert ds.labels.tobytes() == reference.labels.tobytes()

    @pytest.mark.parametrize("convention", labels.LABEL_CONVENTIONS)
    @pytest.mark.parametrize(
        "family", [name for name, spec in states.FAMILIES.items() if spec.fixed_label != labels.SEPARABLE]
    )
    def test_one_state_per_row(self, family, convention, monkeypatch):
        """Each row builds and validates exactly one state; labelling reuses it."""
        counts = {"DensityOperator": 0, "from_family": 0}
        init, build = qops.DensityOperator.__init__, states.from_family

        def counted_init(self, *args, **kwargs):
            counts["DensityOperator"] += 1
            init(self, *args, **kwargs)

        def counted_build(*args, **kwargs):
            counts["from_family"] += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(qops.DensityOperator, "__init__", counted_init)
        monkeypatch.setattr(states, "from_family", counted_build)
        cfg = ExperimentConfig(family=family, n_samples=24, label_convention=convention, shots=4,
                               separable_mixture_components=2)
        generate_dataset(cfg)
        assert counts == {"DensityOperator": 24, "from_family": 24}

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

    def test_load_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_dataset(str(path))


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
        model = fit(ds.features[train], ds.labels[train], standardizer="zscore")
        recomputed = fit_standardizer(ds.features[train], "zscore")
        np.testing.assert_array_equal(model.standardizer.shift, recomputed.shift)
        np.testing.assert_array_equal(model.standardizer.scale, recomputed.scale)


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
        for order in reversed_and_shuffled(cfg.n_samples):
            monkeypatch.setattr(experiments, "generate_dataset", lambda c, order=order: dataset_in_order(c, order))
            b = run_experiment(cfg)
            assert a.deterministic_fields() == b.deterministic_fields()

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
        report = run_experiment(ExperimentConfig(family="biseparable", overlap="high", n_samples=400, master_seed=4))
        assert report.test_accuracy >= 0.99

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

    def test_profile_sizes(self):
        assert profile_samples("ci", "werner2") == 4000
        assert profile_samples("ci", "werner4") == 2000
        assert profile_samples("full", "werner4") == 10000
        with pytest.raises(ValueError, match="profile"):
            profile_samples("fast", "werner2")

    def test_within_table_orderings(self, tmp_path):
        # Fisher values must grow strictly as overlap decreases. Accuracies
        # for the PPT families saturate near 1.0 at every preset, so the
        # accuracy ordering is asserted up to a two-test-sample tie.
        for table in (1, 4, 5):
            rows = reproduce_tables([table], seed=0)
            js = [r["fisher_j"] for r in rows]
            accs = [r["test_acc"] for r in rows]
            assert js[0] < js[1] < js[2], (table, js)
            n_test = profile_samples("ci", rows[0]["family"]) // 5
            tol = 2.0 / n_test
            assert accs[2] >= accs[1] - tol >= accs[0] - 2 * tol, (table, accs)

    def test_weight_limited_observable_subset(self):
        cfg = ExperimentConfig(family="werner3", n_samples=20, shots=2, observables="weight2")
        ds = generate_dataset(cfg)
        assert ds.features.shape[1] == 36
        assert all(sum(ch != "I" for ch in name) <= 2 for name in ds.feature_names)
        with pytest.raises(ValueError, match="observable subset"):
            ExperimentConfig(family="werner2", observables="top10")

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
