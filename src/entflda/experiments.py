"""Dataset pipelines, overlap presets and benchmark-table reproduction.

The published experiments never define their "high/medium/low overlap"
settings, so the presets here are operational: a margin between the class
parameter intervals plus a per-preset shot count (0 = exact expectations).
They are chosen so the qualitative accuracy/Fisher ordering of the
benchmark tables emerges; the exact thresholds and Fisher magnitudes are
explicitly not reproduction targets.

Determinism contract: every sample's random stream is derived from
(master_seed, sample index), so datasets and reports are bit-identical
across reruns and whatever order rows are generated in. Wall time is the
one report field outside that contract.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import flda, labels, states
from .measure import ObservableSet, exact_features, sampled_features

OVERLAP_LEVELS = ("high", "medium", "low")
OVERLAP_MARGIN = {"high": 0.0, "medium": 0.1, "low": 0.25}
OVERLAP_SHOTS = {"high": 512, "medium": 2048, "low": 0}
MAX_SHOTS = 2**63 - 1  # the largest count numpy's Generator.binomial accepts
CONCURRENCE_MIN = {"high": 0.1, "medium": 0.4, "low": 0.8}

# Width of the mixing-parameter interval sampled on each side of the boundary.
WERNER_INTERVAL_WIDTH = 0.4

TABLE_FAMILIES = {
    1: "werner2",
    2: "concurrence",
    3: "werner3",
    4: "pptes-acin",
    5: "ppt-alt",
    6: "biseparable",
    7: "werner4",
}
SINGLE_OVERLAP_TABLES = (6, 7)

REPORT_COLUMNS = ("table", "family", "overlap", "fld_threshold", "train_acc", "test_acc", "fisher_j", "seed")


@dataclass
class ExperimentConfig:
    """Everything that determines a dataset and its train/test report."""

    family: str
    overlap: str = "high"
    n_samples: int = 10000
    balance: float = 0.5
    shots: int | None = None  # None = overlap preset; 0 = exact expectations
    split: float = 0.8
    label_convention: str = "paper"
    master_seed: int = 0

    def __post_init__(self):
        if states.family(self.family).fixed_label == labels.SEPARABLE:
            raise ValueError(f"family {self.family!r} has no entangled class and cannot head a dataset")
        if self.overlap not in OVERLAP_LEVELS:
            raise ValueError(f"overlap {self.overlap!r} not one of {OVERLAP_LEVELS}")
        if self.n_samples < 20:
            raise ValueError(f"n_samples={self.n_samples} is below the minimum of 20")
        if not (0.0 < self.split < 1.0):
            raise ValueError(f"split={self.split} must lie strictly inside (0, 1)")
        if not (0.0 < self.balance < 1.0):
            raise ValueError(f"balance={self.balance} must lie strictly inside (0, 1)")
        if min(self.n_entangled, self.n_samples - self.n_entangled) < 10:
            raise ValueError("balance leaves fewer than 10 samples in one class")
        if self.shots is not None and not 0 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must lie in 0..{MAX_SHOTS}, got {self.shots}")
        if self.label_convention not in labels.LABEL_CONVENTIONS:
            raise ValueError(f"unknown label convention {self.label_convention!r}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")

    @property
    def n_entangled(self) -> int:
        return int(round(self.n_samples * self.balance))

    @property
    def effective_shots(self) -> int:
        return OVERLAP_SHOTS[self.overlap] if self.shots is None else self.shots

    def observable_set(self) -> ObservableSet:
        return ObservableSet.full(states.FAMILIES[self.family].n_qubits)


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple


@dataclass
class ExperimentReport:
    config: dict
    fld_threshold: float
    train_accuracy: float
    test_accuracy: float
    fisher_criterion: float
    confusion: dict
    wall_time_seconds: float

    def deterministic_fields(self) -> dict:
        """Everything the determinism contract covers (wall time excluded)."""
        d = asdict(self)
        d.pop("wall_time_seconds")
        return d


def _sample_rng(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, 1, index])


def _split_rng(master_seed: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, 2])


def product_params(n_qubits: int, rng: np.random.Generator) -> dict:
    """``product-sep`` parameters: one product of Bloch-ball-uniform qubits."""
    blochs = [states.random_bloch_vector(rng).tolist() for _ in range(n_qubits)]
    return {"components": [{"weight": 1.0, "blochs": blochs}]}


def _werner_intervals(spec: states.Family, family: str, overlap: str, convention: str):
    """(entangled_lo, entangled_hi, separable_lo, separable_hi) for a preset.

    Both classes sample an interval of the same width next to the boundary,
    offset by the preset margin. The width is 0.4 clipped to what the
    family's valid parameter range leaves on the tighter side, and the
    separable-side margin is capped at half the distance from the boundary
    to the lower limit; without those clips the 3- and 4-qubit families
    (boundary near 0) would get an empty or badly lopsided separable class.
    """
    boundary, p_min = spec.boundary[convention], spec.p_min
    margin = OVERLAP_MARGIN[overlap]
    sep_margin = min(margin, 0.5 * (boundary - p_min))
    width = min(WERNER_INTERVAL_WIDTH, (boundary - sep_margin) - p_min, 1.0 - (boundary + margin))
    ent_lo = boundary + margin
    ent_hi = ent_lo + width
    sep_hi = boundary - sep_margin
    sep_lo = sep_hi - width
    if width <= 0:
        raise ValueError(f"overlap preset {overlap!r} yields an empty interval for {family}")
    return ent_lo, ent_hi, sep_lo, sep_hi


def sample_family_params(
    family: str,
    label: int,
    overlap: str,
    rng: np.random.Generator,
    convention: str = "paper",
) -> tuple:
    """Draw constructor parameters for one sample of the requested class.

    Returns ``(build_family, params)``; the build family differs from the
    dataset family when the separable class is realized by random product
    states (concurrence, pptes-acin, ppt-alt, biseparable).
    """
    if overlap not in OVERLAP_LEVELS:
        raise ValueError(f"overlap {overlap!r} not one of {OVERLAP_LEVELS}")
    if label not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {label}")

    spec = states.family(family)
    if spec.boundary is not None:
        ent_lo, ent_hi, sep_lo, sep_hi = _werner_intervals(spec, family, overlap, convention)
        if label == labels.ENTANGLED:
            p = ent_hi - rng.random() * (ent_hi - ent_lo)  # (lo, hi]
        else:
            p = rng.uniform(sep_lo, sep_hi)  # [lo, hi)
        return family, {"p": float(p)}

    if label == labels.SEPARABLE:
        return "product-sep", product_params(spec.n_qubits, rng)

    if family == "concurrence":
        c_min = CONCURRENCE_MIN[overlap]
        for _ in range(100000):
            theta0 = rng.uniform(0.0, np.pi)
            theta1 = rng.uniform(0.0, np.pi)
            if labels.concurrence_analytic(theta0, theta1) >= c_min:
                return family, {"theta0": float(theta0), "theta1": float(theta1)}
        raise RuntimeError(f"rejection sampling failed to reach concurrence {c_min}")
    if family == "pptes-acin":
        lo, hi = np.log(0.5), np.log(2.0)
        a, b, c = np.exp(rng.uniform(lo, hi, size=3))
        return family, {"a": float(a), "b": float(b), "c": float(c)}
    if family == "ppt-alt":
        return family, {}
    if family == "biseparable":
        n_components = int(rng.integers(1, 4))
        raw = rng.random(n_components)
        weights = raw / raw.sum()
        comps = []
        for w in weights:
            comps.append(
                {
                    "weight": float(w),
                    "a_bloch": states.random_bloch_vector(rng).tolist(),
                    "bc_p": float(rng.uniform(0.5, 1.0)),
                }
            )
        return family, {"components": comps}
    raise ValueError(f"family {family!r} has no entangled class")


def _row(config: ExperimentConfig, obs: ObservableSet, i: int) -> tuple:
    """Features and label of row ``i``; they depend on (config, i) alone."""
    requested = labels.ENTANGLED if i < config.n_entangled else labels.SEPARABLE
    rng = _sample_rng(config.master_seed, i)
    build_family, params = sample_family_params(
        config.family, requested, config.overlap, rng, convention=config.label_convention
    )
    rho = states.from_family(build_family, params)
    shots = config.effective_shots
    values = exact_features(rho, obs) if shots == 0 else sampled_features(rho, obs, shots, rng)
    return values, labels.assign_label(build_family, params, rho, config.label_convention)


def generate_dataset(config: ExperimentConfig) -> Dataset:
    """Build the labeled feature matrix for a configuration.

    Row i's stream is seeded by (master_seed, i), so the rows come out the
    same whatever order they are generated in.
    """
    obs = config.observable_set()
    rows = [_row(config, obs, i) for i in range(config.n_samples)]
    features = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows], dtype=int)
    return Dataset(features=features, labels=y, feature_names=obs.strings)


def save_dataset(dataset: Dataset, path: str) -> None:
    """Delimited text: feature Pauli words + "label" header, repr-precision rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(dataset.feature_names) + ["label"])
    for row, label in zip(dataset.features, dataset.labels):
        writer.writerow([repr(float(v)) for v in row] + [str(int(label))])
    flda.atomic_write(path, buf.getvalue())


def _label_value(text: str) -> int:
    """The class a label cell names, or 0 when it names none."""
    try:
        value = int(text)
    except ValueError:
        return 0
    return value if value in flda.CLASS_ORDER else 0


def load_dataset(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"dataset file {path} is empty") from None
        if len(header) < 2 or header[-1] != "label":
            raise ValueError(f"dataset file {path} lacks the feature+label header")
        rows = list(reader)
    try:
        ObservableSet(len(header[0]), header[:-1])
    except ValueError as exc:
        raise ValueError(f"dataset file {path}, line 1: {exc}") from None
    if not rows:
        raise ValueError(f"dataset file {path} has no samples")
    # rows[r] is line r + 2 of the file: the header is line 1.
    ragged = [r for r, row in enumerate(rows) if len(row) != len(header)]
    if ragged:
        r = ragged[0]
        raise ValueError(f"dataset file {path}, line {r + 2}: {len(rows[r])} columns, the header has {len(header)}")
    try:
        features = np.array([[float(v) for v in r[:-1]] for r in rows])
    except ValueError:
        for r, row in enumerate(rows):
            for c, v in enumerate(row[:-1]):
                try:
                    float(v)
                except ValueError:
                    raise ValueError(
                        f"dataset file {path}, line {r + 2}, column {c + 1} ({header[c]}): {v!r} is not a number"
                    ) from None
    y = np.array([_label_value(r[-1]) for r in rows], dtype=int)
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        r, c = bad[0]
        raise ValueError(
            f"dataset file {path}, line {r + 2}, column {c + 1} ({header[c]}): non-finite feature {rows[r][c]!r}"
        )
    bad = np.flatnonzero(y == 0)
    if bad.size:
        r = bad[0]
        raise ValueError(
            f"dataset file {path}, line {r + 2}, column {len(header)} (label): {rows[r][-1]!r} is not -1 or +1"
        )
    return Dataset(features=features, labels=y, feature_names=tuple(header[:-1]))


def stratified_split(dataset: Dataset, split: float, master_seed: int):
    """Per-class shuffled train/test index arrays (train fraction ``split``)."""
    rng = _split_rng(master_seed)
    train_idx, test_idx = [], []
    for cls in flda.CLASS_ORDER:
        idx = np.flatnonzero(dataset.labels == cls)
        idx = idx[rng.permutation(len(idx))]
        n_train = int(round(split * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)
        train_idx.append(idx[:n_train])
        test_idx.append(idx[n_train:])
    return np.concatenate(train_idx), np.concatenate(test_idx)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Generate, split, fit and evaluate; emit the four table columns."""
    t0 = time.perf_counter()
    dataset = generate_dataset(config)
    train_idx, test_idx = stratified_split(dataset, config.split, config.master_seed)
    model = flda.fit(
        dataset.features[train_idx],
        dataset.labels[train_idx],
        feature_names=dataset.feature_names,
        label_convention=config.label_convention,
    )
    test_metrics = flda.evaluate(model, dataset.features[test_idx], dataset.labels[test_idx])
    return ExperimentReport(
        config=asdict(config),
        fld_threshold=model.threshold,
        train_accuracy=model.train_accuracy,
        test_accuracy=test_metrics["accuracy"],
        fisher_criterion=model.fisher_j,
        confusion=test_metrics["confusion"],
        wall_time_seconds=time.perf_counter() - t0,
    )


def projections_by_class(model: flda.FldaModel, dataset: Dataset) -> dict:
    """Projected scalars y = w^T x per class, for histogram-style exports."""
    y = flda.project(model, dataset.features)
    return {cls: y[dataset.labels == cls] for cls in flda.CLASS_ORDER}


def _table_seed(seed: int, table: int) -> int:
    # One derived seed per table; its overlap rows share it so within-table
    # comparisons (accuracy, Fisher value) are same-dataset-structure.
    return int(np.random.SeedSequence([seed, table]).generate_state(1)[0])


def profile_samples(profile: str, family: str) -> int:
    if profile == "ci":
        return 2000 if family == "werner4" else 4000
    if profile == "full":
        return 10000
    raise ValueError(f"unknown profile {profile!r}; expected 'ci' or 'full'")


def reproduce_tables(
    table_ids,
    out_path: str | None = None,
    seed: int = 0,
    profile: str = "ci",
    fmt: str = "csv",
) -> list:
    """Run every (table, overlap) cell and optionally write the report file.

    One row per cell with columns ``REPORT_COLUMNS``; tables 6 and 7 have a
    single high-overlap row. Rows carry the derived per-row seed so each is
    independently re-runnable.
    """
    ids = sorted(set(int(t) for t in table_ids))
    bad = [t for t in ids if t not in TABLE_FAMILIES]
    if bad:
        raise ValueError(f"unknown table ids {bad}; valid ids are 1..7")

    rows = []
    for table in ids:
        family = TABLE_FAMILIES[table]
        overlaps = ("high",) if table in SINGLE_OVERLAP_TABLES else OVERLAP_LEVELS
        row_seed = _table_seed(seed, table)
        for overlap in overlaps:
            config = ExperimentConfig(
                family=family,
                overlap=overlap,
                n_samples=profile_samples(profile, family),
                master_seed=row_seed,
            )
            report = run_experiment(config)
            rows.append(
                {
                    "table": table,
                    "family": family,
                    "overlap": overlap,
                    "fld_threshold": report.fld_threshold,
                    "train_acc": report.train_accuracy,
                    "test_acc": report.test_accuracy,
                    "fisher_j": report.fisher_criterion,
                    "seed": row_seed,
                }
            )

    if out_path is not None:
        flda.atomic_write(out_path, render_report(rows, fmt))
    return rows


def render_report(rows, fmt: str = "csv") -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row["table"],
                row["family"],
                row["overlap"],
                repr(float(row["fld_threshold"])),
                repr(float(row["train_acc"])),
                repr(float(row["test_acc"])),
                repr(float(row["fisher_j"])),
                row["seed"],
            ]
        )
    return buf.getvalue()
