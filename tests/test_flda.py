"""Tests for the Fisher discriminant core."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from entflda import flda
from entflda.flda import (
    MIN_SCALE,
    STANDARDIZER_MODES,
    FldaModel,
    Standardizer,
    apply_standardizer,
    atomic_write,
    classify,
    compute_scatter,
    evaluate,
    fisher_criterion,
    fit,
    load_model,
    project,
    save_model,
)
from oracles import between_scatter, discriminant_direction_eig, fisher_ratio


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
NUMERICALLY_SINGULAR = "^within-class scatter is numerically singular; increase epsilon$"


def with_bad_cell(x, value, row=7, column=2):
    """A copy of ``x`` with ``value`` at (row, column) and, later in the
    matrix, a second non-finite cell the refusal must not name first."""
    bad = x.copy()
    bad[row, column] = value
    bad[row + 3, 0] = float("nan")
    return bad


def two_gaussian_problem(rng, n_features=6, n_per_class=150, separation=3.0):
    """Well-conditioned synthetic two-class data."""
    basis = rng.normal(size=(n_features, n_features))
    cov_root = basis / np.sqrt(n_features) + 0.8 * np.eye(n_features)
    mu = rng.normal(size=n_features)
    delta = rng.normal(size=n_features)
    delta *= separation / np.linalg.norm(delta)
    x_neg = rng.normal(size=(n_per_class, n_features)) @ cov_root.T + mu
    x_pos = rng.normal(size=(n_per_class, n_features)) @ cov_root.T + mu + delta
    features = np.vstack([x_neg, x_pos])
    labels = np.array([-1] * n_per_class + [1] * n_per_class)
    return features, labels


def fitted_standardizer(x, mode):
    """The standardizer ``fit`` fits on the rows ``x``, labelled -1 in the first half and +1 after it."""
    y = np.where(np.arange(len(x)) < len(x) // 2, -1, 1)
    return fit(x, y, epsilon=1.0, standardizer=mode).standardizer


def unbalanced_problem(rng, n_neg, n_pos, n_features=5):
    """Two correlated Gaussian classes of ``n_neg`` and ``n_pos`` rows, off the origin."""
    mix = rng.normal(size=(n_features, n_features)) + 2 * np.eye(n_features)
    offset = rng.normal(size=n_features) * 3
    x_neg = rng.normal(size=(n_neg, n_features)) @ mix + offset
    x_pos = rng.normal(size=(n_pos, n_features)) @ mix + offset + rng.normal(size=n_features)
    return np.vstack([x_neg, x_pos]), np.array([-1] * n_neg + [1] * n_pos)


class TestComputeScatter:
    """S_B is not stored: its checks read it through ``fisher_criterion``
    and compare with the oracle's textbook sum."""

    def test_two_singletons_hand_expansion(self):
        features = np.array([[0.0, 0.0], [1.0, 0.0]])
        labels = np.array([-1, 1])
        scatter = compute_scatter(features, labels)
        np.testing.assert_allclose(scatter.s_within, np.zeros((2, 2)))
        s_b = 0.5 * np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(between_scatter(scatter), s_b)
        for w in ([1.0, 0.0], [0.0, 1.0], [0.6, -0.8]):
            w = np.array(w)
            assert fisher_criterion(scatter, w, 1.0) == pytest.approx(w @ s_b @ w, rel=1e-15, abs=0.0)
        assert scatter.class_counts == (1, 1)

    def test_identical_samples(self):
        features = np.ones((6, 3))
        labels = np.array([-1, -1, -1, 1, 1, 1])
        scatter = compute_scatter(features, labels)
        np.testing.assert_allclose(between_scatter(scatter), 0.0, atol=1e-12)
        for w in np.eye(3):
            assert abs(fisher_criterion(scatter, w, 1.0)) < 1e-12
        np.testing.assert_allclose(scatter.s_within, 0.0, atol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(10)
        x, y = two_gaussian_problem(rng)
        shifted = compute_scatter(x + 17.3, y)
        base = compute_scatter(x, y)
        np.testing.assert_allclose(between_scatter(shifted), between_scatter(base), atol=1e-8)
        for w in rng.normal(size=(5, x.shape[1])):
            j = fisher_criterion(base, w, 1e-3)
            np.testing.assert_allclose(fisher_criterion(shifted, w, 1e-3), j, rtol=1e-9)
            np.testing.assert_allclose(j, fisher_ratio(base, w, 1e-3), rtol=1e-12)
        np.testing.assert_allclose(shifted.s_within, base.s_within, atol=1e-8)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            compute_scatter(np.ones((4, 2)), np.array([1, 1, 1, 1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            compute_scatter(np.empty((0, 2)), np.array([]))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            compute_scatter(np.ones((2, 2)), np.array([0, 1]))

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_feature_rejected(self, value):
        x, y = two_gaussian_problem(np.random.default_rng(12))
        with pytest.raises(ValueError, match=f"^feature row 7, column 2 is {value}, not a finite number$"):
            compute_scatter(with_bad_cell(x, value), y)

    def test_holds_one_class_copy_at_a_time(self):
        """A balanced 6,400 x 255 fit (table 7's shape) peaks below 1.75 times
        the input: the standardized copy plus one class's centred rows, not
        both classes' at once (2.04 times)."""
        rng = np.random.default_rng(13)
        x = rng.normal(size=(6400, 255))
        y = np.repeat([-1, 1], 3200)
        x[y == 1, 0] += 1.0
        tracemalloc.start()
        try:
            fit(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * x.nbytes, f"fit peaked at {peak / x.nbytes:.2f} times the input"


class TestFit:
    @pytest.mark.parametrize("mode", STANDARDIZER_MODES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_train_accuracy_is_evaluate_on_training_rows(self, mode, seed):
        """``fit`` scores the standardized rows it already holds; the figure is
        the one ``evaluate`` gives on the raw training rows, bit for bit."""
        features, labels = two_gaussian_problem(np.random.default_rng(seed), n_features=9, separation=1.0)
        model = fit(features, labels, standardizer=mode)
        assert 0.5 < model.train_accuracy < 1.0
        assert model.train_accuracy == evaluate(model, features, labels)["accuracy"]

    def test_one_dimensional_clusters(self):
        features = np.array([[-1.1], [-0.9], [0.9], [1.1]])
        labels = np.array([-1, -1, 1, 1])
        model = fit(features, labels, standardizer="none")
        assert abs(abs(model.w[0]) - 1.0) < 1e-12
        assert abs(model.threshold) < 1e-12
        assert model.train_accuracy == 1.0
        # brute-force threshold scan oracle
        best = max(
            np.mean(np.where(features[:, 0] > t, 1, -1) == labels) for t in np.linspace(-2, 2, 401)
        )
        assert model.train_accuracy == best

    def test_isotropic_within_scatter_gives_mean_difference(self):
        # cross-shaped clusters have exactly isotropic S_W
        cross = np.array([[0.3, 0.0], [-0.3, 0.0], [0.0, 0.3], [0.0, -0.3]])
        mu_neg, mu_pos = np.array([0.0, 0.0]), np.array([2.0, 1.0])
        features = np.vstack([cross + mu_neg, cross + mu_pos])
        labels = np.array([-1] * 4 + [1] * 4)
        model = fit(features, labels, epsilon=1e-9, standardizer="none")
        direction = (mu_pos - mu_neg) / np.linalg.norm(mu_pos - mu_neg)
        assert abs(model.w @ direction) > 1 - 1e-6

    def test_degenerate_scatter_regularized(self):
        features = np.array([[0.0, 1.0], [2.0, 3.0]])
        labels = np.array([-1, 1])
        model = fit(features, labels, epsilon=1e-6, standardizer="none")
        delta = features[1] - features[0]
        np.testing.assert_allclose(model.w, delta / np.linalg.norm(delta), atol=1e-9)

    def test_singular_scatter_without_epsilon_rejected(self):
        features = np.array([[0.0, 1.0], [2.0, 3.0]])  # one row per class: S_W = 0
        with pytest.raises(ValueError, match="^within-class scatter is singular; regularize by passing a positive"):
            fit(features, np.array([-1, 1]), epsilon=0.0, standardizer="none")

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^label vector shape \(3,\) does not match 4 rows$"):
            fit(np.eye(4), np.array([-1, 1, 1]))

    def test_solve_not_separating_the_means_refused(self, monkeypatch):
        """A solve whose direction points against mu_+ - mu_- is round-off
        from a numerically singular system: refused, not flipped into a model."""
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: -b)
        x, y = two_gaussian_problem(np.random.default_rng(27))
        with pytest.raises(ValueError, match=NUMERICALLY_SINGULAR):
            fit(x, y)

    def test_criterion_not_positive_refused(self, monkeypatch):
        monkeypatch.setattr(flda, "fisher_criterion", lambda *args: -1.0)
        x, y = two_gaussian_problem(np.random.default_rng(28))
        with pytest.raises(ValueError, match=NUMERICALLY_SINGULAR):
            fit(x, y)

    @pytest.mark.parametrize("epsilon", [1e-16, 1e-20, 0.0])
    @pytest.mark.parametrize("mode", ["none", "zscore"])
    @pytest.mark.parametrize("seed", range(5))
    def test_ridge_below_round_off_refused_or_sound(self, seed, mode, epsilon):
        """8 rows x 64 features, so S_W has rank at most 6, at a ridge that
        round-off swamps: each fit is refused, or has J > 0 and w . delta > 0."""
        y = np.array([-1] * 4 + [1] * 4)
        x = np.random.default_rng(seed).normal(size=(8, 64)) + y[:, None]
        try:
            model = fit(x, y, epsilon=epsilon, standardizer=mode)
        except ValueError as exc:
            assert str(exc).startswith("within-class scatter is ")
            return
        xs = apply_standardizer(model.standardizer, x)
        assert model.fisher_j > 0
        assert model.w @ (xs[y == 1].mean(axis=0) - xs[y == -1].mean(axis=0)) > 0

    def test_sign_convention(self):
        rng = np.random.default_rng(20)
        x, y = two_gaussian_problem(rng)
        model = fit(x, y)
        assert model.projected_means[1] > model.projected_means[0]
        assert model.projected_means[0] < model.threshold < model.projected_means[1]

    def test_unit_norm(self):
        rng = np.random.default_rng(21)
        x, y = two_gaussian_problem(rng)
        model = fit(x, y)
        assert abs(np.linalg.norm(model.w) - 1.0) < 1e-12

    @pytest.mark.parametrize("mode", ["none", "zscore"])
    @pytest.mark.parametrize("epsilon", [1e160, 1e200])
    def test_ridge_far_above_the_scatter_gives_the_mean_difference(self, epsilon, mode):
        """At a ridge so large that the solved w has |w|^2 below the smallest
        normal double, w is still a unit vector, and is delta / |delta|, the
        direction the ridge dominates (delta the standardized mean difference)."""
        x, y = two_gaussian_problem(np.random.default_rng(22))
        model = fit(x, y, epsilon=epsilon, standardizer=mode)
        xs = apply_standardizer(model.standardizer, x)
        delta = xs[y == 1].mean(axis=0) - xs[y == -1].mean(axis=0)
        assert abs(np.linalg.norm(model.w) - 1.0) <= 1e-15
        assert np.max(np.abs(model.w - delta / np.linalg.norm(delta))) <= 1e-12
        assert model.fisher_j > 0

    def test_identical_means_rejected(self):
        rows = np.array([[0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(ValueError, match="means coincide"):
            fit(np.vstack([rows, rows]), np.array([-1, -1, 1, 1]), standardizer="none")

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fit(np.array([[0.0], [1.0]]), np.array([-1, 1]), epsilon=-1.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, epsilon):
        x, y = two_gaussian_problem(np.random.default_rng(24))
        with pytest.raises(ValueError, match="epsilon must be finite"):
            fit(x, y, epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [[0.1], "1", True, np.array(0.1)], ids=["list", "text", "bool", "array"])
    def test_epsilon_of_another_type_refused(self, epsilon):
        """A ridge that is not a real number is refused by name, not passed to
        ``float`` (which reads "1" and True as 1.0)."""
        x, y = two_gaussian_problem(np.random.default_rng(24))
        with pytest.raises(ValueError, match=f"^epsilon must be a number, got {re.escape(repr(epsilon))}$"):
            fit(x, y, epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [2, np.float32(0.5), np.int64(3)])
    def test_integer_and_numpy_epsilon_accepted(self, epsilon):
        x, y = two_gaussian_problem(np.random.default_rng(24))
        assert fit(x, y, epsilon=epsilon).epsilon == float(epsilon)

    def test_feature_names_not_iterable_refused(self):
        x, y = two_gaussian_problem(np.random.default_rng(29), n_features=3)
        with pytest.raises(ValueError, match="^feature_names must be an iterable of names, got 5$"):
            fit(x, y, feature_names=5)

    @pytest.mark.parametrize("mode", STANDARDIZER_MODES)
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_feature_rejected_before_standardizing(self, value, mode):
        """A nan or infinite feature is named by row and column, before the
        standardizer or the default ridge sees it (no numpy warnings)."""
        x, y = two_gaussian_problem(np.random.default_rng(25))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^feature row 7, column 2 is {value}, not a finite number$"):
                fit(with_bad_cell(x, value), y, standardizer=mode)

    @pytest.mark.parametrize("epsilon", [None, 1.0])
    @pytest.mark.parametrize("mode", ["none", "zscore"])
    def test_overflowing_features_refused(self, mode, epsilon):
        """Finite features of order 1e200, whose std or scatter overflows
        float64, get one refusal naming the overflow, with no numpy warning,
        whether or not the caller picked the ridge."""
        x, y = two_gaussian_problem(np.random.default_rng(26), n_features=2, n_per_class=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^features overflow float64: "):
                fit(x * 1e200, y, epsilon=epsilon, standardizer=mode)

    def test_overflowing_criterion_refused(self):
        """Scatter entries that fit float64 but a Fisher criterion, N (w . d)^2
        summed over 16 features, that does not: refused, not fit with J = inf."""
        rng = np.random.default_rng(0)
        y = np.array([-1, 1] * 4)
        x = rng.normal(size=(8, 16)) * 1e151 + np.outer(y, np.ones(16)) * 1.5e153
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^features overflow float64: "):
                fit(x, y, standardizer="none")

    @pytest.mark.parametrize("mode", STANDARDIZER_MODES)
    def test_one_dimensional_features_rejected(self, mode):
        with pytest.raises(ValueError, match="2-D"):
            fit(np.array([0.0, 1.0, 2.0, 3.0]), np.array([-1, -1, 1, 1]), standardizer=mode)

    def test_feature_names_of_another_length_refused(self):
        """Refused by ``fit``, not later by ``save_model``."""
        x, y = two_gaussian_problem(np.random.default_rng(29), n_features=3)
        with pytest.raises(ValueError, match="^1 feature names for 3 feature columns$"):
            fit(x, y, feature_names=["XX"])

    def test_unknown_label_convention_refused(self):
        x, y = two_gaussian_problem(np.random.default_rng(29), n_features=3)
        with pytest.raises(ValueError) as refused:
            fit(x, y, label_convention="bogus")
        assert str(refused.value) == "unknown label convention 'bogus'; expected one of ('paper', 'ppt-oracle')"


class TestStandardizer:
    """The standardizer ``fit`` fits on its training rows and stores in the model."""

    def test_constant_column_zscore(self):
        train = np.array([[2.0, 1.0], [2.0, 3.0], [2.0, 5.0]])
        std = fitted_standardizer(train, "zscore")
        assert std.shift[0] == 2.0 and std.scale[0] == 1.0
        out = apply_standardizer(std, train)
        np.testing.assert_allclose(out[:, 0], 0.0)

    @pytest.mark.parametrize("mode", ["zscore", "minmax"])
    def test_round_off_column_gets_unit_scale(self, mode):
        """A column that is constant up to round-off (spread ~1e-17) is
        treated as constant, so its round-off is not blown up to O(1)."""
        rng = np.random.default_rng(46)
        train = np.column_stack([rng.normal(size=50), 1e-17 * rng.normal(size=50), np.full(50, 0.3)])
        std = fitted_standardizer(train, mode)
        assert std.scale[1] == 1.0 and std.scale[2] == 1.0
        assert np.all(np.abs(apply_standardizer(std, train)[:, 1]) < 1e-15)
        assert std.scale[0] > 0.1

    @pytest.mark.parametrize("mode", STANDARDIZER_MODES)
    def test_statistics_are_the_textbook_ones(self, mode):
        """Shift and scale are the column mean and population standard
        deviation, or minimum and range, bit for bit; a spread below
        ``MIN_SCALE`` reads as 1."""
        rng = np.random.default_rng(47)
        x = rng.normal(size=(30, 5)) * [0.2, 1.0, 4.0, 1e-15, 0.0] - [0.0, 0.0, 0.0, 0.0, 0.7]
        if mode == "zscore":
            shift = x.sum(axis=0) / len(x)
            spread = np.sqrt(((x - shift) ** 2).sum(axis=0) / len(x))
        elif mode == "minmax":
            shift = np.array([min(column) for column in x.T])
            spread = np.array([max(column) for column in x.T]) - shift
        else:
            shift, spread = np.zeros(5), np.ones(5)
        std = fitted_standardizer(x, mode)
        assert std.mode == mode
        np.testing.assert_array_equal(std.shift, shift)
        np.testing.assert_array_equal(std.scale, np.where(spread < MIN_SCALE, 1.0, spread))
        assert std.scale[3] == std.scale[4] == 1.0

    @pytest.mark.parametrize("mode", STANDARDIZER_MODES)
    def test_one_row_refused_as_one_class(self, mode):
        """One training row is one class under every mode (``zscore`` had its own refusal)."""
        with pytest.raises(ValueError, match="^need both classes present to fit a discriminant$"):
            fit(np.ones((1, 3)), np.array([1]), standardizer=mode)

    def test_minmax_midpoint(self):
        std = fitted_standardizer(np.array([[0.0], [1.0]]), "minmax")
        assert apply_standardizer(std, np.array([0.5]))[0] == 0.5

    def test_round_trip_inversion(self):
        rng = np.random.default_rng(44)
        train = rng.normal(size=(40, 6)) * 3 + 1
        for mode in ("zscore", "minmax", "none"):
            std = fitted_standardizer(train, mode)
            out = apply_standardizer(std, train)
            back = out * std.scale + std.shift
            np.testing.assert_allclose(back, train, atol=1e-12)

    def test_zscore_normalizes_train(self):
        rng = np.random.default_rng(45)
        train = rng.normal(size=(300, 4)) * np.array([1.0, 5.0, 0.2, 9.0])
        out = apply_standardizer(fitted_standardizer(train, "zscore"), train)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-8)

    def test_dict_round_trip(self, tmp_path):
        """The standardizer's mode, shift and scale survive the model file."""
        x = np.random.default_rng(1).normal(size=(10, 3))
        y = np.array([1] * 5 + [-1] * 5)
        for mode in ("zscore", "minmax", "none"):
            model = fit(x, y, standardizer=mode)
            path = tmp_path / f"{mode}.json"
            save_model(model, str(path))
            std, again = model.standardizer, load_model(str(path)).standardizer
            np.testing.assert_array_equal(again.shift, std.shift)
            np.testing.assert_array_equal(again.scale, std.scale)
            assert again.mode == std.mode

    def test_empty_input(self):
        with pytest.raises(ValueError, match="nonempty"):
            fit(np.empty((0, 3)), np.array([]), standardizer="minmax")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            fit(np.arange(6.0).reshape(3, 2), np.array([-1, 1, 1]), standardizer="robust")

    def test_dimension_mismatch_refused(self):
        std = fitted_standardizer(np.arange(6.0).reshape(3, 2), "none")
        with pytest.raises(ValueError, match=r"^feature dimension 3 does not match standardizer \(2\)$"):
            apply_standardizer(std, np.ones((4, 3)))


class TestProjectClassify:
    def test_project_class_mean_hits_projected_mean(self):
        rng = np.random.default_rng(30)
        x, y = two_gaussian_problem(rng)
        model = fit(x, y, standardizer="zscore")
        mu_pos_std = apply_standardizer(model.standardizer, x[y == 1]).mean(axis=0)
        assert abs(mu_pos_std @ model.w - model.projected_means[1]) < 1e-12

    def test_linearity_without_standardizer(self):
        rng = np.random.default_rng(31)
        x, y = two_gaussian_problem(rng)
        model = fit(x, y, standardizer="none")
        a, b = rng.normal(size=(2, x.shape[1]))
        assert abs(project(model, a + b) - project(model, a) - project(model, b)) < 1e-12

    def test_zero_vector_projects_to_zero(self):
        rng = np.random.default_rng(32)
        x, y = two_gaussian_problem(rng)
        model = fit(x, y, standardizer="none")
        assert project(model, np.zeros(x.shape[1])) == 0.0

    def test_tie_resolves_separable(self):
        model = FldaModel(
            w=np.array([1.0]),
            projected_means=(-1.0, 1.0),
            threshold=0.0,
            epsilon=0.0,
            fisher_j=1.0,
            standardizer=Standardizer(shift=np.zeros(1), scale=np.ones(1), mode="none"),
        )
        assert classify(model, np.array([0.0])) == 1
        assert classify(model, np.array([-1e-12])) == -1
        assert classify(model, np.array([1.0])) == 1
        assert classify(model, np.array([-1.0])) == -1

    def test_matches_nearest_projected_mean(self):
        rng = np.random.default_rng(33)
        x, y = two_gaussian_problem(rng)
        model = fit(x, y)
        yproj = project(model, x)
        nearest = np.where(
            np.abs(yproj - model.projected_means[1]) <= np.abs(yproj - model.projected_means[0]), 1, -1
        )
        np.testing.assert_array_equal(classify(model, x), nearest)

    @pytest.mark.parametrize("refuser", [project, classify])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_vector_refused_by_column(self, refuser, value):
        """A nan used to be labelled -1 (entangled) and an infinity either way."""
        x, y = two_gaussian_problem(np.random.default_rng(34))
        row = x[0].tolist()
        row[2] = value
        row[4] = float("nan")
        with pytest.raises(ValueError, match=f"^feature column 2 is {value}, not a finite number$"):
            refuser(fit(x, y), row)

    @pytest.mark.parametrize("refuser", [project, classify])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_matrix_refused_by_row_and_column(self, refuser, value):
        x, y = two_gaussian_problem(np.random.default_rng(35))
        with pytest.raises(ValueError, match=f"^feature row 7, column 2 is {value}, not a finite number$"):
            refuser(fit(x, y), with_bad_cell(x, value))

    @pytest.mark.parametrize("refuser", [project, classify])
    @pytest.mark.parametrize("row", [[1e308, 1e308, 0.0], [1e308, -1e308, 0.0]], ids=["same-sign", "opposite-signs"])
    def test_overflowing_vector_refused(self, refuser, row):
        """Finite features that standardize past float64 (scale about 0.17) used
        to project to inf, labelled +1, or to nan, labelled -1, with a numpy warning."""
        x, y = two_gaussian_problem(np.random.default_rng(36), n_features=3)
        model = fit(0.17 * x, y)
        assert np.all(model.standardizer.scale < 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^features overflow float64: the projection is not finite$"):
                refuser(model, row)

    @pytest.mark.parametrize("refuser", [project, classify])
    def test_overflowing_matrix_row_refused_by_row(self, refuser):
        x, y = two_gaussian_problem(np.random.default_rng(37), n_features=3)
        x *= 0.17
        model = fit(x, y)
        x[[7, 9]] = [1e308, -1e308, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^features overflow float64: the projection of row 7 is not finite$"):
                refuser(model, x)


class TestFisherCriterion:
    def test_scale_invariance(self):
        rng = np.random.default_rng(40)
        x, y = two_gaussian_problem(rng)
        scatter = compute_scatter(x, y)
        w = rng.normal(size=x.shape[1])
        assert abs(fisher_criterion(scatter, 2 * w, 1e-3) - fisher_criterion(scatter, w, 1e-3)) < 1e-12

    def test_orthogonal_direction_scores_zero(self):
        cross = np.array([[0.3, 0.0], [-0.3, 0.0], [0.0, 0.3], [0.0, -0.3]])
        features = np.vstack([cross, cross + np.array([2.0, 0.0])])
        labels = np.array([-1] * 4 + [1] * 4)
        scatter = compute_scatter(features, labels)
        assert fisher_criterion(scatter, np.array([0.0, 1.0]), 0.0) < 1e-12

    def test_fitted_direction_beats_random(self):
        rng = np.random.default_rng(41)
        x, y = two_gaussian_problem(rng)
        model = fit(x, y, standardizer="none")
        scatter = compute_scatter(x, y)
        j_fit = fisher_criterion(scatter, model.w, model.epsilon)
        for _ in range(100):
            j_rand = fisher_criterion(scatter, rng.normal(size=x.shape[1]), model.epsilon)
            assert j_fit >= j_rand - 1e-10

    def test_zero_vector_rejected(self):
        rng = np.random.default_rng(42)
        x, y = two_gaussian_problem(rng)
        with pytest.raises(ValueError, match="zero"):
            fisher_criterion(compute_scatter(x, y), np.zeros(x.shape[1]), 0.0)

    def test_two_class_rank_one_identity(self):
        # the fit's J == w^T S_B w / w^T (S_W + eps I) w with S_B by the textbook sum
        rng = np.random.default_rng(43)
        x, y = two_gaussian_problem(rng, n_per_class=80)
        scatter = compute_scatter(x, y)
        model = fit(x, y, standardizer="none")
        expected = fisher_ratio(scatter, model.w, model.epsilon)
        assert abs(model.fisher_j - expected) < 1e-8 * max(1.0, expected)


class TestRankOneIdentity:
    """w^T S_B w = (N_- N_+ / N) (w . delta)^2 for two classes, balanced or not."""

    @pytest.mark.parametrize("counts", [(100, 100), (30, 170), (170, 30), (1, 40)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_criterion_matches_textbook_between_scatter(self, counts, seed):
        rng = np.random.default_rng([44, seed])
        x, y = unbalanced_problem(rng, *counts)
        scatter = compute_scatter(x, y)
        for epsilon in (0.0, 1e-3, 10.0):
            for w in rng.normal(size=(10, x.shape[1])):
                expected = fisher_ratio(scatter, w, epsilon)
                np.testing.assert_allclose(fisher_criterion(scatter, w, epsilon), expected, rtol=1e-12)

    @pytest.mark.parametrize("mode", STANDARDIZER_MODES)
    @pytest.mark.parametrize("counts", [(100, 100), (30, 170), (170, 30)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_criterion_is_closed_form(self, mode, counts, seed):
        """``fisher_j`` of the fit is the maximum (N_- N_+ / N) delta^T (S_W + eps I)^-1 delta
        on the standardized training rows."""
        x, y = unbalanced_problem(np.random.default_rng([45, seed]), *counts)
        model = fit(x, y, standardizer=mode)
        xs = apply_standardizer(model.standardizer, x)
        neg, pos = xs[y == -1], xs[y == 1]
        delta = pos.mean(axis=0) - neg.mean(axis=0)
        s_w = sum((c - c.mean(axis=0)).T @ (c - c.mean(axis=0)) for c in (neg, pos))
        solved = np.linalg.solve(s_w + model.epsilon * np.eye(len(delta)), delta)
        expected = len(neg) * len(pos) / len(xs) * delta @ solved
        np.testing.assert_allclose(model.fisher_j, expected, rtol=1e-10)


class TestSolverEquivalence:
    def test_closed_form_matches_generalized_eigenvector(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            x, y = two_gaussian_problem(rng, n_features=int(rng.integers(2, 9)))
            scatter = compute_scatter(x, y)
            eps = 1e-6 * float(np.mean(np.diag(scatter.s_within)))
            model = fit(x, y, epsilon=eps, standardizer="none")
            w_eig = discriminant_direction_eig(scatter, eps)
            assert abs(model.w @ w_eig) >= 1 - 1e-8


class TestAffineInvariance:
    def test_decisions_invariant_under_affine_map(self):
        rng = np.random.default_rng(60)
        x, y = two_gaussian_problem(rng)
        x_eval = rng.normal(size=(50, x.shape[1])) + x.mean(axis=0)
        model = fit(x, y, epsilon=0.0, standardizer="none")
        base = classify(model, x_eval)
        for _ in range(5):
            a = rng.normal(size=(x.shape[1], x.shape[1])) + 2 * np.eye(x.shape[1])
            b = rng.normal(size=x.shape[1])
            mapped_model = fit(x @ a + b, y, epsilon=0.0, standardizer="none")
            np.testing.assert_array_equal(classify(mapped_model, x_eval @ a + b), base)

    def test_zscore_decisions_invariant_under_positive_column_scaling(self):
        """Property: z-scoring makes a fit on x * a + b (a > 0 per column)
        classify x_test * a + b as the raw fit classifies x_test, on every
        row farther than 1e-9 from the raw threshold."""
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st
        from hypothesis.extra.numpy import arrays

        n_features = 6

        @hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            seed=st.integers(0, 2**32 - 1),
            a=arrays(np.float64, n_features, elements=st.floats(0.1, 10.0)),
            b=arrays(np.float64, n_features, elements=st.floats(-10.0, 10.0)),
        )
        def invariant(seed, a, b):
            rng = np.random.default_rng(seed)
            x, y = two_gaussian_problem(rng, n_features=n_features, n_per_class=60, separation=1.0)
            x_test = rng.normal(size=(100, n_features)) + x.mean(axis=0)
            raw = fit(x, y)
            decided = np.abs(project(raw, x_test) - raw.threshold) > 1e-9
            mapped = fit(x * a + b, y)
            np.testing.assert_array_equal(classify(mapped, x_test * a + b)[decided], classify(raw, x_test)[decided])

        invariant()


class TestEvaluate:
    def test_perfect_separation(self):
        features = np.array([[-2.0], [-1.5], [1.5], [2.0]])
        labels = np.array([-1, -1, 1, 1])
        model = fit(features, labels, standardizer="none")
        metrics = evaluate(model, features, labels)
        assert metrics["accuracy"] == 1.0
        assert metrics["confusion"] == {"tp": 2, "tn": 2, "fp": 0, "fn": 0}

    def test_flipped_labels_complement(self):
        rng = np.random.default_rng(70)
        x, y = two_gaussian_problem(rng, separation=1.0)
        model = fit(x, y)
        acc = evaluate(model, x, y)["accuracy"]
        flipped = evaluate(model, x, -y)["accuracy"]
        assert abs(acc + flipped - 1.0) < 1e-12

    def test_empty_rejected(self):
        rng = np.random.default_rng(71)
        x, y = two_gaussian_problem(rng)
        model = fit(x, y)
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, np.empty((0, x.shape[1])), np.array([]))

    @pytest.mark.parametrize("bad, shown", [([0, 2], "[0, 2]"), ([-1, 0.5], "[-1.0, 0.5]")], ids=["zero-two", "half"])
    def test_bad_labels_refused_as_fit_refuses_them(self, bad, shown):
        rng = np.random.default_rng(73)
        x, y = two_gaussian_problem(rng)
        model = fit(x, y)
        labels = np.resize(bad, len(x))
        with pytest.raises(ValueError) as fit_error:
            fit(x, labels)
        with pytest.raises(ValueError) as eval_error:
            evaluate(model, x, labels)
        assert str(eval_error.value) == str(fit_error.value) == f"labels must be -1 or +1, got {shown}"

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_feature_refused_not_scored(self, value):
        rng = np.random.default_rng(72)
        x, y = two_gaussian_problem(rng)
        model = fit(x, y)
        with pytest.raises(ValueError, match=f"^feature row 7, column 2 is {value}, not a finite number$"):
            evaluate(model, with_bad_cell(x, value), y)

    def test_one_dimensional_features_refused_not_scored(self):
        """One row given as a vector is refused, not read as one value per label."""
        x, y = two_gaussian_problem(np.random.default_rng(75))
        model = fit(x, y)
        with pytest.raises(ValueError, match="^feature matrix must be 2-D and nonempty$"):
            evaluate(model, x[0], y[: x.shape[1]])

    def test_one_class_set_is_scored(self):
        rng = np.random.default_rng(74)
        x, y = two_gaussian_problem(rng)
        model = fit(x, y)
        metrics = evaluate(model, x[y == 1], y[y == 1])
        confusion = metrics["confusion"]
        assert confusion["tn"] == confusion["fp"] == 0
        assert confusion["tp"] + confusion["fn"] == np.sum(y == 1)
        assert metrics["accuracy"] == confusion["tp"] / np.sum(y == 1)

    def test_accuracy_beats_random_direction_with_best_threshold(self):
        rng = np.random.default_rng(72)
        wins = 0
        trials = 40
        for _ in range(trials):
            x, y = two_gaussian_problem(rng, n_features=5, n_per_class=60, separation=1.5)
            model = fit(x, y, standardizer="none")
            w_rand = rng.normal(size=5)
            proj = x @ (w_rand / np.linalg.norm(w_rand))
            cuts = np.concatenate([proj - 1e-9, proj + 1e-9])
            best_rand = max(
                max(np.mean(np.where(proj > t, 1, -1) == y), np.mean(np.where(proj > t, -1, 1) == y))
                for t in cuts
            )
            if model.train_accuracy >= best_rand:
                wins += 1
        assert wins >= 0.95 * trials


class TestSerialization:
    def test_document_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(80)
        x, y = two_gaussian_problem(rng)
        model = fit(x, y, feature_names=[f"f{i}" for i in range(x.shape[1])], label_convention="paper")
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(model, str(first))
        loaded = load_model(str(first))
        save_model(loaded, str(second))
        assert second.read_bytes() == first.read_bytes()
        np.testing.assert_array_equal(loaded.standardizer.shift, model.standardizer.shift)
        np.testing.assert_array_equal(loaded.standardizer.scale, model.standardizer.scale)
        assert loaded.standardizer.mode == model.standardizer.mode

    def test_file_round_trip_preserves_decisions(self, tmp_path):
        rng = np.random.default_rng(81)
        x, y = two_gaussian_problem(rng)
        model = fit(x, y)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        np.testing.assert_array_equal(loaded.w, model.w)
        assert loaded.threshold == model.threshold
        np.testing.assert_array_equal(classify(loaded, x), classify(model, x))

    @pytest.mark.parametrize(
        "change,problem",
        [({"fisher_j": float("nan")}, "'fisher_j': expected a finite number"),
         ({"fisher_j": -2.0e14}, "'fisher_j': expected a number above 0, as every fit gives"),
         ({"w": np.zeros(6)}, "'w': is all zeros, so it projects every row to 0")],
        ids=["nan-fisher-j", "negative-fisher-j", "zero-w"],
    )
    def test_save_refuses_what_load_refuses(self, tmp_path, change, problem):
        """A model the loader would refuse is refused before any write, with
        the loader's message; neither the target nor a temp file is left."""
        model = dataclasses.replace(fit(*two_gaussian_problem(np.random.default_rng(82))), **change)
        path = tmp_path / "model.json"
        with pytest.raises(ValueError) as refused:
            save_model(model, str(path))
        assert str(refused.value) == f"model file {path}, key {problem}"
        assert list(tmp_path.iterdir()) == []


class TestAtomicWrite:
    def test_long_target_name_is_written(self, tmp_path):
        """A 242-byte target name is written: with the temp file's 13 added
        characters the name stays within the usual 255-byte limit."""
        path = tmp_path / ("a" * 238 + ".csv")
        atomic_write(str(path), "x\n")
        assert path.read_text() == "x\n" and list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_failed_write_keeps_target_and_leaves_no_temp_file(self, tmp_path, error):
        """An iterable that raises mid-write: the exception propagates, the
        existing target keeps its bytes and the temp file is removed."""
        path = tmp_path / "out.csv"
        path.write_bytes(b"old bytes\n")

        def lines():
            yield "first line\n"
            raise error("stopped mid-write")

        with pytest.raises(error, match="stopped mid-write"):
            atomic_write(str(path), lines())
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestArgumentHelpers:
    """The library's integer and number checks name the argument they refuse; a bool is neither."""

    @pytest.mark.parametrize("value", [3, np.int64(-4), np.uint8(7)])
    def test_integer_helper_accepts_integers(self, value):
        assert flda.check_integer("n", value) == int(value) and type(flda.check_integer("n", value)) is int

    @pytest.mark.parametrize("value", [2.0, True, "3", None, np.float64(1.0), np.bool_(True), [1]])
    def test_integer_helper_refuses_other_types_by_name(self, value):
        with pytest.raises(ValueError, match=f"^count must be an integer, got {re.escape(repr(value))}$"):
            flda.check_integer("count", value)

    def test_integer_helper_refuses_a_negative_when_asked(self):
        assert flda.check_integer("seed", 0, nonnegative=True) == 0
        for value in (-1, 1.5):
            with pytest.raises(ValueError, match=f"^seed must be a nonnegative integer, got {value}$"):
                flda.check_integer("seed", value, nonnegative=True)

    @pytest.mark.parametrize("value", [2, 0.5, np.float32(0.25), np.int16(-3), float("nan")])
    def test_number_helper_accepts_numbers_as_floats(self, value):
        assert repr(flda.check_number("x", value)) == repr(float(value))

    @pytest.mark.parametrize("value", [False, "0.5", None, [0.5], np.array(0.5), 1j])
    def test_number_helper_refuses_other_types_by_name(self, value):
        with pytest.raises(ValueError, match=f"^ratio must be a number, got {re.escape(repr(value))}$"):
            flda.check_number("ratio", value)
