"""The three benchmark workloads.

A workload is built from ``(seed, workdir, samples=...)``; ``samples``
defaults to the benchmark size. Each workload builds its inputs from the benchmark seed in ``setup``, then
runs one closed-loop operation per ``run_once`` call. Every operation of a
run uses the same seed, so ``digest`` must return the same value for each
one; ``problems`` lists what a single output got wrong.

The row counts (``generated_rows``, ``saved_rows``, ``loaded_rows``) are
the per-operation denominators of the per-row layer metrics and of
``rows_per_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from entflda import cli, experiments, flda, reference

# One-sided level of the accuracy-floor test of ``tables-ci``: a row fails
# when so few of its test rows are right that a classifier whose true
# accuracy equals the floor would score this low with probability below it.
FLOOR_ALPHA = 1e-3


def _binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), 0 < p < 1."""
    log_pmf = (
        math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * math.log(p) + (n - i) * math.log1p(-p)
        for i in range(k + 1)
    )
    return math.fsum(math.exp(x) for x in log_pmf)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class TablesCi:
    """``reproduce_tables(1..7, profile="ci")``: the paper's seven tables."""

    name = "tables-ci"
    saved_rows = 0
    loaded_rows = 0

    def __init__(self, seed: int, workdir: str, samples: int | None = None):
        self.seed = seed
        # None keeps the ci profile; a number overrides every dataset size
        # (the self-test uses this to run the same code path at a tiny size).
        self.samples_per_dataset = samples
        self.generated_rows = sum(
            self._samples(experiments.TABLE_FAMILIES[t]) * self._cells(t) for t in experiments.TABLE_FAMILIES
        )
        self.notes = []

    @staticmethod
    def _cells(table: int) -> int:
        return 1 if table in experiments.SINGLE_OVERLAP_TABLES else len(experiments.OVERLAP_LEVELS)

    def _samples(self, family: str) -> int:
        if self.samples_per_dataset is None:
            return experiments.profile_samples("ci", family)
        return self.samples_per_dataset

    def setup(self) -> None:
        # Warm every table family's code path once at the smallest legal size.
        for family in experiments.TABLE_FAMILIES.values():
            experiments.run_experiment(experiments.ExperimentConfig(family=family, n_samples=20, master_seed=self.seed))

    def run_once(self):
        if self.samples_per_dataset is None:
            return experiments.reproduce_tables(range(1, 8), seed=self.seed, profile="ci")
        original = experiments.profile_samples
        experiments.profile_samples = lambda profile, family: self.samples_per_dataset
        try:
            return experiments.reproduce_tables(range(1, 8), seed=self.seed, profile="ci")
        finally:
            experiments.profile_samples = original

    def digest(self, rows) -> str:
        return _sha(experiments.render_report(rows, "csv").encode())

    def _test_rows(self, family: str) -> int:
        n = self._samples(family)
        return n - round(experiments.ExperimentConfig.split * n)

    def problems(self, rows) -> list:
        """Row count, and each row's test accuracy against its floor.

        The floors are the acceptance tolerances, which the acceptance suite
        checks at seed 0 only. At another seed a row's test accuracy is a
        binomial draw over its test rows (table 7: 400 rows, a standard
        error of about 0.009 at 0.97), so an exact floor would fail correct
        runs. A row fails when its accuracy is significantly below the
        floor (exact one-sided binomial test at ``FLOOR_ALPHA``); a row
        below the floor but within sampling error is noted, not failed.
        """
        found = []
        if len(rows) != len(reference.REFERENCE_ROWS):
            found.append(f"{len(rows)} report rows, expected {len(reference.REFERENCE_ROWS)}")
        for row in rows:
            verdict = reference.compare_row(row)
            if verdict["passed"]:
                continue
            n_test = self._test_rows(row["family"])
            p_value = _binom_cdf(round(row["test_acc"] * n_test), n_test, verdict["min_test_acc"])
            message = (
                f"table {row['table']} {row['overlap']}: test accuracy {row['test_acc']} below floor "
                f"{verdict['min_test_acc']} over {n_test} test rows (one-sided binomial p = {p_value:.3g})"
            )
            if p_value < FLOOR_ALPHA:
                found.append(message)
            else:
                self.notes.append(message)
        return found

    def test_accuracy(self, rows) -> float:
        return float(np.mean([row["test_acc"] for row in rows]))


class OracleGen:
    """``generate_dataset`` under the ``ppt-oracle`` label convention."""

    name = "oracle-gen"
    families = ("biseparable", "concurrence")
    saved_rows = 0
    loaded_rows = 0

    def __init__(self, seed: int, workdir: str, samples: int = 2000):
        self.configs = [
            experiments.ExperimentConfig(
                family=family,
                overlap="low",
                n_samples=samples,
                label_convention="ppt-oracle",
                master_seed=seed,
            )
            for family in self.families
        ]
        self.generated_rows = samples * len(self.families)

    def setup(self) -> None:
        for config in self.configs:
            warm = experiments.ExperimentConfig(
                family=config.family,
                overlap=config.overlap,
                n_samples=20,
                label_convention=config.label_convention,
                master_seed=config.master_seed,
            )
            experiments.generate_dataset(warm)

    def run_once(self):
        return [experiments.generate_dataset(config) for config in self.configs]

    def digest(self, datasets) -> str:
        return _sha(*(chunk for d in datasets for chunk in (d.features.tobytes(), d.labels.tobytes())))

    def problems(self, datasets) -> list:
        found = []
        for config, d in zip(self.configs, datasets):
            where = f"{config.family}:"
            if d.features.shape[0] != config.n_samples or d.labels.shape != (config.n_samples,):
                found.append(f"{where} {d.features.shape[0]} rows, expected {config.n_samples}")
            if not np.isin(d.labels, (-1, 1)).all():
                found.append(f"{where} labels outside {{-1, +1}}")
            if not np.isfinite(d.features).all():
                found.append(f"{where} non-finite features")
            elif np.abs(d.features).max() > 1.0:
                found.append(f"{where} feature magnitude {np.abs(d.features).max()!r} above 1")
        return found

    def test_accuracy(self, datasets) -> float:
        # Not part of the timed operation: how well the discriminant separates
        # the oracle-labelled data, as run_experiment would fit it.
        accuracies = []
        for config, d in zip(self.configs, datasets):
            train, test = experiments.stratified_split(d, config.split, config.master_seed)
            model = flda.fit(d.features[train], d.labels[train])
            accuracies.append(flda.evaluate(model, d.features[test], d.labels[test])["accuracy"])
        return float(np.mean(accuracies))


class Files:
    """The file-based CLI path: ``save_dataset``, then ``fit`` and ``eval``."""

    name = "files"
    generated_rows = 0

    def __init__(self, seed: int, workdir: str, samples: int = 8000):
        self.seed = seed
        self.samples = samples
        self.saved_rows = samples
        self.loaded_rows = samples
        self.paths = {
            "train": os.path.join(workdir, "train.csv"),
            "test": os.path.join(workdir, "test.csv"),
            "model": os.path.join(workdir, "model.json"),
            "report": os.path.join(workdir, "report.json"),
        }

    def setup(self) -> None:
        # The table-7 dataset (werner4, high overlap, 512 shots); generating
        # it is fixture work, outside the timed operation.
        config = experiments.ExperimentConfig(family="werner4", n_samples=self.samples, master_seed=self.seed)
        dataset = experiments.generate_dataset(config)
        train_idx, test_idx = experiments.stratified_split(dataset, config.split, config.master_seed)
        self.train, self.test = (
            experiments.Dataset(dataset.features[idx], dataset.labels[idx], dataset.feature_names)
            for idx in (train_idx, test_idx)
        )

    def run_once(self):
        p = self.paths
        experiments.save_dataset(self.train, p["train"])
        experiments.save_dataset(self.test, p["test"])
        with contextlib.redirect_stdout(io.StringIO()):
            fit_code = cli.main(["fit", "--train", p["train"], "--model-out", p["model"]])
            eval_code = cli.main(
                ["eval", "--model", p["model"], "--test", p["test"], "--report-out", p["report"], "--format", "json"]
            )
        return fit_code, eval_code

    def _read(self, key: str) -> bytes:
        with open(self.paths[key], "rb") as fh:
            return fh.read()

    def digest(self, codes) -> str:
        return _sha(repr(codes).encode(), *(self._read(k) for k in ("train", "test", "model", "report")))

    def problems(self, codes) -> list:
        fit_code, eval_code = codes
        if (fit_code, eval_code) != (0, 0):
            return [f"cli exit codes fit={fit_code} eval={eval_code}, expected 0 and 0"]
        reported = json.loads(self._read("report"))["test_accuracy"]
        model = flda.load_model(self.paths["model"])
        direct = flda.evaluate(model, self.test.features, self.test.labels)["accuracy"]
        if reported != direct:
            return [f"eval reported accuracy {reported!r}, flda.evaluate on the same arrays gives {direct!r}"]
        return []

    def test_accuracy(self, codes) -> float:
        return float(json.loads(self._read("report"))["test_accuracy"])


WORKLOADS = {w.name: w for w in (TablesCi, OracleGen, Files)}
