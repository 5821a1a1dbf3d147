"""Dataset pipelines, overlap presets and benchmark-table reproduction.

The published experiments never define their "high/medium/low overlap"
settings, so the presets here are operational: a shot count (0 = exact
expectations) and a margin between the Werner parameter intervals or a
concurrence floor. Other families see the shot count only, so tables 4 and
5 stay flat across presets where the published accuracies fall; thresholds,
Fisher magnitudes and that ordering are explicitly not reproduction targets.

Determinism contract: a dataset is built in two stages on streams keyed by
its master seed. The states stage samples, measures (each family's closed
form) and labels exact rows class by class (entangled first) in blocks,
building states only where a ``ppt-oracle`` label reads them; row i's
parameters come from a fixed block of uniforms, its family's
``Family.uniforms`` draws, of a counter-based Philox stream, so they depend on
(master_seed, i) alone and row i can be regenerated by advancing the stream to
its block. A shot config then draws its counts from the exact rows in row
order at one site, :func:`_draw_shots`, on a binomial and an alias-table
stream. ``reproduce_tables`` runs each cell as one :func:`run_experiment` on
concurrent threads. Datasets and reports are bit-identical across reruns,
block sizes and thread counts; wall time is not.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import threading
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from . import flda, labels, qops, states
# exact_features and sampled_features are not called here: the benchmark's tracer looks them up in this module.
from .measure import check_pauli_words, exact_features, pauli_words, sampled_features, shot_estimates

OVERLAP_LEVELS = ("high", "medium", "low")
OVERLAP_MARGIN = {"high": 0.0, "medium": 0.1, "low": 0.25}
OVERLAP_SHOTS = {"high": 512, "medium": 2048, "low": 0}
MAX_SHOTS = 2**63 - 1  # the largest count numpy's Generator.binomial accepts

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

REPORT_METRICS = ("fld_threshold", "train_acc", "test_acc", "fisher_j")  # written at repr precision
REPORT_COLUMNS = ("table", "family", "overlap", *REPORT_METRICS, "seed")
REPORT_FORMATS = ("csv", "json")


@dataclass
class ExperimentConfig:
    """Everything that determines a dataset and its train/test report."""

    family: str
    overlap: str = "high"
    n_samples: int = 10000
    balance: float = 0.5
    shots: int | None = None  # None = overlap preset; 0 = exact expectations
    split: ClassVar[float] = 0.8  # train fraction of every split
    label_convention: str = "paper"
    master_seed: int = 0

    def __post_init__(self):
        if states.family(self.family).fixed_label == labels.SEPARABLE:
            raise ValueError(f"family {self.family!r} has no entangled class and cannot head a dataset")
        for name in ("n_samples", "shots", "master_seed"):
            if name != "shots" or self.shots is not None:  # a numpy integer is stored as an int
                setattr(self, name, flda.check_integer(name, getattr(self, name)))
        if self.overlap not in OVERLAP_LEVELS:
            raise ValueError(f"overlap {self.overlap!r} not one of {OVERLAP_LEVELS}")
        if self.n_samples < 20:
            raise ValueError(f"n_samples={self.n_samples} is below the minimum of 20")
        if not (0.0 < flda.check_number("balance", self.balance) < 1.0):
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


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple


@dataclass
class ExperimentReport:
    """One config's report; == compares every field but the wall time, so it checks the determinism contract."""

    config: dict
    fld_threshold: float
    train_accuracy: float
    test_accuracy: float
    fisher_criterion: float
    confusion: dict
    wall_time_seconds: float = field(compare=False)  # the whole cell: generation, split, fit and evaluation


# Cells per block of every blocked stage: a stage takes max(1, _BLOCK_CELLS // width) rows a block, width being
# the cells of its widest per-row array, so only a single row wider than that exceeds it; no byte depends on it.
_BLOCK_CELLS = 2**16


def _sample_rng(master_seed: int, family: str, row: int = 0) -> np.random.Generator:
    """The parameter stream (Philox keyed by the master seed) at row ``row``'s block."""
    bit_generator = np.random.Philox(np.random.SeedSequence([master_seed, 1]))
    bit_generator.advance(row * states.FAMILIES[family].uniforms // 4)
    return np.random.Generator(bit_generator)


def _draw_shots(x: np.ndarray, shots: int, master_seed: int) -> None:
    """Overwrite each exact row of ``x`` with its ``shots``-shot estimates, a ``shot_estimates`` call per
    ``_BLOCK_CELLS`` // words rows in row order on ``[master_seed, 3]`` (binomial) and ``[master_seed, 5]`` (alias)."""
    rng, half_rng = (np.random.default_rng([master_seed, stream]) for stream in (3, 5))
    rows = max(1, _BLOCK_CELLS // x.shape[1])
    for start in range(0, len(x), rows):
        x[start : start + rows] = shot_estimates(x[start : start + rows], shots, rng, half_rng)


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


def sample_family_params(family: str, label: int, overlap: str, uniforms: np.ndarray, convention: str = "paper"):
    """``(build_family, params)`` of the requested class, one row of the (n, k)
    array ``states.FAMILIES[build_family].stack`` takes per row of ``uniforms``
    (``Family.uniforms`` [0, 1) draws each); the separable class of a family
    without a Werner ``boundary`` is ``product-sep``."""
    if overlap not in OVERLAP_LEVELS:
        raise ValueError(f"overlap {overlap!r} not one of {OVERLAP_LEVELS}")
    if label not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {label}")

    spec = states.family(family)
    u = np.asarray(uniforms, dtype=float)
    n = len(u)
    if spec.boundary is not None:
        ent_lo, ent_hi, sep_lo, sep_hi = _werner_intervals(spec, family, overlap, convention)
        if label == labels.ENTANGLED:
            p = ent_hi - u[:, 0] * (ent_hi - ent_lo)  # (lo, hi]
        else:
            p = sep_lo + u[:, 0] * (sep_hi - sep_lo)  # [lo, hi)
        return family, p[:, None]

    if label == labels.SEPARABLE:
        return "product-sep", states.bloch_vectors(u[:, : 3 * spec.n_qubits].reshape(n, -1, 3)).reshape(n, -1)

    if spec.concurrence_floor is not None:
        # C = sin(theta0) sin(theta1 / 2) >= c_min only in [lo, pi - lo] x [2 lo, pi], lo = asin(c_min); a pair
        # from it passes with probability 0.801 at 0.8, so all uniforms / 2 = 24 fail with probability < 1e-16.
        c_min = spec.concurrence_floor[overlap]
        lo = math.asin(c_min)
        # Pair 0 passes for 79-92% of rows (low to high), so all 24 are scored only for the rows it fails.
        pairs = lo * np.array([1.0, 2.0]) + (np.pi - 2 * lo) * u.reshape(n, -1, 2)
        chosen = pairs[:, 0].copy()
        rejected = np.flatnonzero(labels.concurrence_analytic(chosen[:, 0], chosen[:, 1]) < c_min)
        accepted = labels.concurrence_analytic(pairs[rejected, :, 0], pairs[rejected, :, 1]) >= c_min
        if not accepted.any(axis=1).all():
            raise RuntimeError(f"rejection sampling failed to reach concurrence {c_min}")
        chosen[rejected] = pairs[rejected, accepted.argmax(axis=1)]
        return family, chosen
    if spec.sample is None:
        raise ValueError(f"family {family!r} has no entangled class")
    return family, spec.sample(u)


def generate_dataset(config: ExperimentConfig) -> Dataset:
    """The labeled feature matrix of a configuration. The states stage writes the exact rows, entangled then
    separable, each class in blocks of ``_BLOCK_CELLS`` // max(words, ``Family.uniforms``) rows measured by the
    family's closed form (``Family.features``) and labeled, a block's stack built and validated only for a
    ``ppt-oracle`` label that reads it; a shot config then draws its estimates over the matrix in place
    (:func:`_draw_shots`)."""
    spec = states.FAMILIES[config.family]
    words = pauli_words(spec.n_qubits)
    shots, n, n_entangled = config.effective_shots, config.n_samples, config.n_entangled
    rows = max(1, _BLOCK_CELLS // max(len(words), spec.uniforms))
    rng = _sample_rng(config.master_seed, config.family)
    try:
        x, y = np.empty((n, len(words))), np.empty(n, dtype=int)
    except (MemoryError, ValueError):  # numpy refuses a shape beyond its array limit with a ValueError
        raise ValueError(f"n_samples={n}: a {n} x {len(words)} feature matrix does not fit in memory") from None
    for label, lo, hi in ((labels.ENTANGLED, 0, n_entangled), (labels.SEPARABLE, n_entangled, n)):
        for start in range(lo, hi, rows):
            stop = min(start + rows, hi)
            u = rng.random((stop - start, spec.uniforms))
            name, params = sample_family_params(config.family, label, config.overlap, u, config.label_convention)
            build, stack = states.FAMILIES[name], None
            x[start:stop] = build.features(params)
            if config.label_convention == "ppt-oracle" and build.fixed_label is None and build.boundary is None:
                stack = build.stack(params)  # the transpose oracle reads the states
                qops.validate_states(stack)
            y[start:stop] = labels.assign_label(name, params, stack, config.label_convention)
    if shots:
        _draw_shots(x, shots, config.master_seed)
    return Dataset(features=x, labels=y, feature_names=words)


def _check_writable(path: str, header: list, x: np.ndarray, y: np.ndarray) -> None:
    """Raise what :func:`load_dataset` would refuse in the file of ``x`` and
    ``y`` under ``header``, with its message; the row texts go through the
    reader's check only when a cheap array test finds a defect."""
    where = f"dataset file {path}"
    if x.ndim != 2:
        raise ValueError(f"{where}: features of shape {x.shape}, not (rows, {len(header) - 1})")
    _check_header(path, header)
    if len(y) != len(x):
        raise ValueError(f"{where}, line {min(len(x), len(y)) + 2}: {len(x)} feature rows, {len(y)} labels")
    if not len(x):
        raise ValueError(f"{where} has no samples")
    if x.shape[1] != len(header) - 1 or not np.isfinite(x).all() or not np.isin(y, flda.CLASS_ORDER).all():
        # A valid label is written as an int (1.0 as "1"), any other one as given.
        texts = (str(int(v)) if v in flda.CLASS_ORDER else str(v) for v in y.tolist())
        defect = _first_defect(path, header, enumerate(([*map(repr, r), t] for r, t in zip(x.tolist(), texts)), 2))
        if defect:  # labels given as text, say "1", are read as the reader reads them
            raise defect


def _row_texts(x: np.ndarray, y: list):
    """The CRLF-ended text of each row, ``_BLOCK_CELLS`` // (written columns) rows at a time: each block calls
    ``repr`` once per distinct double (keyed on its bit pattern, so ``-0.0`` keeps its sign) and indexes the
    table with the cells."""
    rows = max(1, _BLOCK_CELLS // (x.shape[1] + 1))  # the features and the label
    for start in range(0, len(x), rows):
        block = x[start : start + rows]
        bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        table = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        # numpy 1.x returns a flat inverse, 2.x one of the block's shape.
        for cells, label in zip(table[inverse.reshape(block.shape)].tolist(), y[start : start + rows]):
            yield f"{','.join(cells)},{label}\r\n"


def save_dataset(dataset: Dataset, path: str) -> None:
    """Delimited text: feature Pauli words + "label" header, repr-precision
    rows, CRLF line ends (the bytes ``csv.writer`` gives), written in
    ``_BLOCK_CELLS``-cell blocks (:func:`_row_texts`) through a per-block
    ``repr`` table. A dataset :func:`load_dataset` would refuse (bad header
    words included) raises its ``ValueError``, with the reader's message, before any write."""
    x, y = np.ascontiguousarray(dataset.features, dtype=np.float64), np.asarray(dataset.labels)
    header = [*dataset.feature_names, "label"]
    _check_writable(path, header, x, y)
    flda.atomic_write(path, itertools.chain([",".join(header) + "\r\n"], _row_texts(x, y.astype(int).tolist())))


def _csv_rows(path: str, fh):
    """``(line, row)`` for the csv rows of ``fh``, ``line`` being where the row
    ends; a malformed row (say, a cell over csv's field size limit) raises a
    ``ValueError`` naming the file and line."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ValueError(f"dataset file {path}, line {reader.line_num}: {exc}") from None


def _check_header(path: str, header: list) -> None:
    """Refuse a header row that is not distinct non-identity Pauli words of
    one length followed by ``label``."""
    if len(header) < 2 or header[-1] != "label":
        raise ValueError(f"dataset file {path} lacks the feature+label header")
    try:
        check_pauli_words(header[:-1])
    except ValueError as exc:
        raise ValueError(f"dataset file {path}, line 1: {exc}") from None


def _first_defect(path: str, header: list, rows) -> ValueError | None:
    """The first defect of the ``(line, row)`` text rows of a dataset file
    under ``header``, or None.

    Cells are read as loadtxt reads them: blank rows are skipped, and a cell
    with ``_`` digit separators (which ``float`` takes) is not a number."""
    for line, row in rows:
        if not row:
            continue
        if len(row) != len(header):
            return ValueError(f"dataset file {path}, line {line}: {len(row)} columns, the header has {len(header)}")
        for c, text in enumerate(row[:-1]):
            try:
                value = float("_" if "_" in text else text)
            except ValueError:
                value = None
            if value is None or not math.isfinite(value):
                problem = f"{text!r} is not a number" if value is None else f"non-finite feature {text!r}"
                return ValueError(f"dataset file {path}, line {line}, column {c + 1} ({header[c]}): {problem}")
        try:
            label = int(row[-1])
        except ValueError:
            label = 0
        if label not in flda.CLASS_ORDER:
            return ValueError(
                f"dataset file {path}, line {line}, column {len(header)} (label): {row[-1]!r} is not -1 or +1"
            )


def _refusal(path: str, header: list, error) -> ValueError:
    """The first defect, in line order, of a dataset file whose body loadtxt
    or the finite/label check refused, or ``error`` when none is found."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = _csv_rows(path, fh)
        next(rows)
        return _first_defect(path, header, rows) or ValueError(f"dataset file {path}: {error}")


def load_dataset(path: str) -> Dataset:
    """The dataset in ``path``; README, "Dataset files", gives the grammar and the refusals."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = _csv_rows(path, fh)
        try:
            _, header = next(rows)
        except StopIteration:
            raise ValueError(f"dataset file {path} is empty") from None
        _check_header(path, header)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                body = np.loadtxt(
                    fh, delimiter=",", quotechar='"', comments=None, ndmin=2, converters={len(header) - 1: int}
                )
        except ValueError as exc:
            raise _refusal(path, header, exc) from None
    if not len(body):
        raise ValueError(f"dataset file {path} has no samples")
    features, y = body[:, :-1], body[:, -1]
    if body.shape[1] != len(header) or not np.isfinite(features).all() or not np.isin(y, flda.CLASS_ORDER).all():
        raise _refusal(path, header, "a feature is not finite or a label is not -1 or +1")
    return Dataset(features=features, labels=y.astype(int), feature_names=tuple(header[:-1]))


def dataset_line(path: str, row: int) -> int:
    """The file line of matrix row ``row`` (from 0) of a dataset file, counting the header as line 1 and skipping
    blank lines as :func:`load_dataset` does."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [line for line, cells in _csv_rows(path, fh) if cells][row + 1]


def stratified_split(dataset: Dataset, split: float, master_seed: int):
    """Per-class shuffled train/test index arrays (train fraction ``split``)."""
    rng = np.random.default_rng([master_seed, 2])
    train_idx, test_idx = [], []
    for cls in flda.CLASS_ORDER:
        idx = np.flatnonzero(dataset.labels == cls)
        idx = idx[rng.permutation(len(idx))]
        n_train = min(max(int(round(split * len(idx))), 1), len(idx) - 1)
        train_idx.append(idx[:n_train])
        test_idx.append(idx[n_train:])
    return np.concatenate(train_idx), np.concatenate(test_idx)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Generate, split, fit and evaluate; emit the four table columns. The
    rows are gathered in split order and the dataset dropped, so each split
    is a view and one matrix is held while fitting (each split gathered on
    its own measured about 6% more ``tables-ci`` peak RSS)."""
    t0 = time.perf_counter()
    dataset = generate_dataset(config)
    train_idx, test_idx = stratified_split(dataset, config.split, config.master_seed)
    order, n_train = np.concatenate([train_idx, test_idx]), len(train_idx)
    x, y, names, dataset = dataset.features[order], dataset.labels[order], dataset.feature_names, None
    model = flda.fit(x[:n_train], y[:n_train], feature_names=names, label_convention=config.label_convention)
    test_metrics = flda.evaluate(model, x[n_train:], y[n_train:])
    return ExperimentReport(
        config=asdict(config),
        fld_threshold=model.threshold,
        train_accuracy=model.train_accuracy,
        test_accuracy=test_metrics["accuracy"],
        fisher_criterion=model.fisher_j,
        confusion=test_metrics["confusion"],
        wall_time_seconds=time.perf_counter() - t0,
    )


def _run_cells(configs: list) -> list:
    """The :func:`run_experiment` report of each config, in order. The
    calling thread takes the configs largest first (rows x features), and
    one helper per further usable CPU takes them smallest first, so the
    largest working sets run one after another on one thread, not side by
    side. Once a cell raises, no other cell starts; the helpers are joined
    and the error of the first failing cell is raised."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    cost = [c.n_samples * (4 ** states.FAMILIES[c.family].n_qubits - 1) for c in configs]  # rows x features
    pending = sorted(range(len(configs)), key=lambda i: -cost[i])
    reports, errors, lock = [None] * len(configs), {}, threading.Lock()

    def work(end=0):
        while True:
            with lock:
                if errors or not pending:
                    return
                i = pending.pop(end)
            try:
                reports[i] = run_experiment(configs[i])
            except BaseException as exc:  # an interrupt too: raised below, once the helpers stop
                errors[i] = exc

    helpers = [threading.Thread(target=work, args=(-1,), daemon=True) for _ in range(min(cpus, len(configs)) - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
    return reports


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

    Each cell is one ``run_experiment``, the cells running on concurrent
    threads (:func:`_run_cells`). One row per cell, in table order, with
    columns ``REPORT_COLUMNS``; tables 6 and 7 have a single high-overlap
    row. Rows carry the derived per-row seed."""
    _check_format(fmt)
    ids, bad = list(table_ids), []
    for t in ids:
        try:
            bad += [] if flda.check_integer("table id", t) in TABLE_FAMILIES else [t]
        except ValueError:
            bad.append(t)
    if bad or not ids:
        raise ValueError(f"unknown table ids {bad}; valid ids are 1..7" if bad else "no table ids given")
    flda.check_integer("seed", seed, nonnegative=True)
    if out_path is not None:
        flda.check_output_dir(out_path)

    tables = sorted(set(map(int, ids)))
    cells = [(t, o) for t in tables for o in (("high",) if t in SINGLE_OVERLAP_TABLES else OVERLAP_LEVELS)]
    configs = [ExperimentConfig(TABLE_FAMILIES[t], o, profile_samples(profile, TABLE_FAMILIES[t]),
                                master_seed=_table_seed(seed, t)) for t, o in cells]
    rows = []
    for (table, overlap), config, r in zip(cells, configs, _run_cells(configs)):
        metrics = (r.fld_threshold, r.train_accuracy, r.test_accuracy, r.fisher_criterion)
        rows.append(dict(zip(REPORT_COLUMNS, (table, config.family, overlap, *metrics, config.master_seed))))

    if out_path is not None:
        flda.atomic_write(out_path, render_report(rows, fmt))
    return rows


def _check_format(fmt: str) -> None:
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}")


def render_report(rows, fmt: str = "csv") -> str:
    _check_format(fmt)
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow(repr(float(row[key])) if key in REPORT_METRICS else row[key] for key in REPORT_COLUMNS)
    return buf.getvalue()
