"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Accuracy gates use the ci-scale sample counts; tolerances are fixed here,
not tuned per run. Seeds are fixed for reproducibility.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import brentq

from entflda import labels
from entflda.experiments import (
    Dataset,
    ExperimentConfig,
    _row,
    generate_dataset,
    reproduce_tables,
    run_experiment,
    sample_family_params,
    save_dataset,
)
from entflda.flda import compute_scatter, discriminant_direction_eig, fit
from entflda.measure import ObservableSet, exact_features, reconstruct_density, sampled_features
from entflda.qops import hermitian_eigenvalues, partial_transpose
from entflda.states import FAMILIES, from_family, werner2, werner_ghz

SEEDS = (0, 1, 2, 3, 4)


@contextmanager
def criterion(number, description):
    try:
        yield
    except AssertionError:
        print(f"criterion {number:>2} ({description}): FAIL")
        raise
    print(f"criterion {number:>2} ({description}): PASS")


def test_criterion_01_werner2_low_overlap():
    with criterion(1, "two-qubit Werner low overlap, accuracy >= 0.99 under 60 s"):
        start = time.perf_counter()
        report = run_experiment(ExperimentConfig(family="werner2", overlap="low", n_samples=4000, master_seed=0))
        elapsed = time.perf_counter() - start
        assert report.test_accuracy >= 0.99, report.test_accuracy
        assert elapsed < 60.0, elapsed


def test_criterion_02_werner2_high_overlap_band():
    with criterion(2, "two-qubit Werner high overlap in [0.80, 1.00], below low overlap"):
        highs, lows = [], []
        for seed in SEEDS:
            high = run_experiment(ExperimentConfig(family="werner2", overlap="high", n_samples=4000, master_seed=seed))
            low = run_experiment(ExperimentConfig(family="werner2", overlap="low", n_samples=4000, master_seed=seed))
            assert 0.80 <= high.test_accuracy <= 1.00, high.test_accuracy
            highs.append(high.test_accuracy)
            lows.append(low.test_accuracy)
        assert np.mean(highs) < np.mean(lows), (np.mean(highs), np.mean(lows))


def test_criterion_03_concurrence_monotonicity():
    with criterion(3, "concurrence family accuracy monotone across presets, low >= 0.99"):
        means = {}
        for overlap in ("high", "medium", "low"):
            accs = [
                run_experiment(
                    ExperimentConfig(family="concurrence", overlap=overlap, n_samples=4000, master_seed=seed)
                ).test_accuracy
                for seed in SEEDS
            ]
            means[overlap] = float(np.mean(accs))
        assert means["high"] <= means["medium"] <= means["low"], means
        assert means["low"] >= 0.99, means


def test_criterion_04_werner3_low_accuracy_and_fisher_ordering():
    with criterion(4, "three-qubit Werner low >= 0.99, Fisher value strictly ordered"):
        reports = {
            overlap: run_experiment(
                ExperimentConfig(family="werner3", overlap=overlap, n_samples=4000, master_seed=0)
            )
            for overlap in ("high", "medium", "low")
        }
        assert reports["low"].test_accuracy >= 0.99, reports["low"].test_accuracy
        js = [reports[o].fisher_criterion for o in ("high", "medium", "low")]
        assert js[0] < js[1] < js[2], js


def test_criterion_05_biseparable_and_four_qubit():
    with criterion(5, "biseparable and four-qubit Werner high overlap >= 0.95"):
        bisep = run_experiment(ExperimentConfig(family="biseparable", overlap="high", n_samples=4000, master_seed=0))
        assert bisep.test_accuracy >= 0.95, bisep.test_accuracy
        start = time.perf_counter()
        w4 = run_experiment(ExperimentConfig(family="werner4", overlap="high", n_samples=2000, master_seed=0))
        elapsed = time.perf_counter() - start
        assert len(w4.config["family"]) and w4.config["n_samples"] == 2000
        assert w4.test_accuracy >= 0.95, w4.test_accuracy
        assert elapsed < 180.0, elapsed


def test_criterion_06_ppt_oracle_exactness():
    """The transpose spectrum of the two-qubit Werner family carries the
    critical eigenvalue (1-3p)/4 at every p. That eigenvalue is the minimum
    exactly when p >= 0; for p < 0 the triple eigenvalue (1+p)/4 drops
    below it, so the minimum is asserted on the nonnegative branch.
    """
    with criterion(6, "PPT critical eigenvalue exact, three-qubit crossing at 1/5"):
        rng = np.random.default_rng(606)
        for p in rng.uniform(-1 / 3, 1.0, size=100):
            eigs = hermitian_eigenvalues(partial_transpose(werner2(float(p)), {1}))
            critical = (1 - 3 * p) / 4
            assert np.min(np.abs(eigs - critical)) < 1e-10, p
            if p >= 0:
                assert abs(eigs[0] - critical) < 1e-10, p

        def worst_cut(p):
            return min(labels.ppt_report(werner_ghz(3, p)).min_eigenvalues.values())

        root = brentq(worst_cut, 0.01, 0.99, xtol=1e-9)
        assert abs(root - 0.2) < 1e-6, root


def test_criterion_07_concurrence_oracle_agreement():
    with criterion(7, "analytic concurrence matches spin-flip spectrum within 1e-9"):
        from entflda.states import concurrence_state

        assert labels.concurrence_analytic(np.pi / 2, np.pi) == 1.0
        assert labels.concurrence_analytic(0.0, np.pi) == 0.0
        assert abs(labels.concurrence_wootters(concurrence_state(np.pi / 2, np.pi)) - 1.0) < 1e-9
        assert abs(labels.concurrence_wootters(concurrence_state(0.0, np.pi))) < 1e-9
        rng = np.random.default_rng(707)
        for _ in range(500):
            t0, t1 = rng.uniform(0, np.pi, size=2)
            analytic = labels.concurrence_analytic(t0, t1)
            spectral = labels.concurrence_wootters(concurrence_state(t0, t1))
            assert abs(analytic - spectral) < 1e-9, (t0, t1)


def test_criterion_08_solver_equivalence():
    with criterion(8, "closed form matches top generalized eigenvector, |cos| >= 1 - 1e-8"):
        rng = np.random.default_rng(808)
        for _ in range(50):
            d = int(rng.integers(2, 10))
            basis = rng.normal(size=(d, d)) + 1.5 * np.eye(d)
            delta = rng.normal(size=d)
            x_neg = rng.normal(size=(120, d)) @ basis.T
            x_pos = rng.normal(size=(120, d)) @ basis.T + 3 * delta / np.linalg.norm(delta)
            features = np.vstack([x_neg, x_pos])
            y = np.array([-1] * 120 + [1] * 120)
            scatter = compute_scatter(features, y)
            eps = 1e-6 * float(np.mean(np.diag(scatter.s_within)))
            model = fit(features, y, epsilon=eps, standardizer="none")
            w_eig = discriminant_direction_eig(scatter, eps)
            assert abs(model.w @ w_eig) >= 1 - 1e-8


def test_criterion_09_estimator_soundness():
    with criterion(9, "1e6-shot estimates within 4 standard errors for every family"):
        shots = 10**6
        rng = np.random.default_rng(909)
        for family, spec in FAMILIES.items():
            obs = ObservableSet.full(spec.n_qubits)
            for i in range(20):
                label = 1 if family == "product-sep" else int(rng.choice([-1, 1]))
                overlap = str(rng.choice(["high", "medium", "low"]))
                build_family, params = sample_family_params(family, label, overlap, rng)
                rho = from_family(build_family, params)
                exact = exact_features(rho, obs)
                sampled = sampled_features(rho, obs, shots, np.random.default_rng([909, i]))
                se = np.sqrt(np.maximum(1 - exact**2, 0.0) / shots)
                diff = np.abs(sampled - exact)
                ok = (diff < 4 * se) | ((se == 0) & (diff == 0))
                assert np.all(ok), (family, params)


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical reruns, row generation order has no effect"):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        reproduce_tables(range(1, 8), out_path=str(a), seed=20260810)
        reproduce_tables(range(1, 8), out_path=str(b), seed=20260810)
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 18  # header + 17 rows

        cfg = ExperimentConfig(family="werner3", overlap="high", n_samples=60, master_seed=99)
        obs = cfg.observable_set()
        p1, p2 = tmp_path / "in_order.csv", tmp_path / "permuted.csv"
        save_dataset(generate_dataset(cfg), str(p1))
        shuffled = np.random.default_rng(10).permutation(cfg.n_samples)
        for order in (range(cfg.n_samples - 1, -1, -1), shuffled):
            rows = {i: _row(cfg, obs, i) for i in order}
            features = np.array([rows[i][0] for i in range(cfg.n_samples)])
            y = np.array([rows[i][1] for i in range(cfg.n_samples)], dtype=int)
            save_dataset(Dataset(features, y, obs.strings), str(p2))
            assert p1.read_bytes() == p2.read_bytes()


def test_criterion_11_pauli_completeness():
    with criterion(11, "full feature vector reconstructs the state within 1e-10"):
        rng = np.random.default_rng(111)
        three_qubit_or_less = [f for f, spec in FAMILIES.items() if spec.n_qubits <= 3]
        for family in three_qubit_or_less:
            obs = ObservableSet.full(FAMILIES[family].n_qubits)
            for _ in range(5):
                label = 1 if family == "product-sep" else int(rng.choice([-1, 1]))
                build_family, params = sample_family_params(family, label, "medium", rng)
                rho = from_family(build_family, params)
                rebuilt = reconstruct_density(exact_features(rho, obs), obs)
                np.testing.assert_allclose(rebuilt, rho.matrix, atol=1e-10)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
