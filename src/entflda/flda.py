"""Fisher linear discriminant analysis for the two-class problem.

The discriminant direction is the closed form w ~ (S_W + eps I)^-1 (mu_+ -
mu_-); because the between-class scatter has rank 1 for two classes this is
exactly the top generalized eigenvector of (S_B, S_W + eps I), which the
tests compute through an eigensolver as an independent check. Class order
is fixed as (-1, +1) = (entangled, separable) everywhere.
"""

from __future__ import annotations

import errno
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .labels import LABEL_CONVENTIONS

CLASS_ORDER = (-1, 1)
STANDARDIZER_MODES = ("zscore", "minmax", "none")

# Features lie in [-1, 1]; a column whose spread is below this is round-off
# around a constant, and dividing by that spread would blow the round-off up.
MIN_SCALE = 1e-12

# Ties this close to the threshold go to +1 (separable), the conservative call.
TIE_TOL = 1e-15


@dataclass(frozen=True)
class ScatterPair:
    """Within-class scatter matrix with the per-class statistics."""

    s_within: np.ndarray
    class_means: np.ndarray  # shape (2, n), rows in CLASS_ORDER
    class_counts: tuple


@dataclass(frozen=True)
class Standardizer:
    """Per-feature affine rescaling (x - shift) / scale, fit by :func:`fit` on its training rows only."""

    shift: np.ndarray
    scale: np.ndarray
    mode: str


@dataclass(frozen=True)
class FldaModel:
    """A fitted discriminant: unit direction, projected means, threshold.

    ``projected_means`` follows CLASS_ORDER; :func:`fit` refuses a ``w``
    that does not project the separable mean above the entangled one. The
    threshold is their midpoint, and the fit's standardizer is stored so
    projection of raw vectors reproduces training-time coordinates.
    """

    w: np.ndarray
    projected_means: tuple
    threshold: float
    epsilon: float
    fisher_j: float
    standardizer: Standardizer
    feature_names: tuple | None = None
    label_convention: str | None = None
    train_accuracy: float | None = None


class ProjectionOverflow(ValueError):
    """Finite features whose projection overflows float64; ``row`` is a matrix's first such row, None for a vector."""

    def __init__(self, row: int | None):
        at = "" if row is None else f" of row {row}"
        super().__init__(f"features overflow float64: the projection{at} is not finite")
        self.row = row


def _refuse_non_finite(x: np.ndarray) -> None:
    """Refuse a non-finite feature, named by its column in a vector and by its row and column in a matrix."""
    if not np.isfinite(x).all():
        *row, column = np.argwhere(~np.isfinite(x))[0].tolist()
        at = f"row {row[0]}, column {column}" if row else f"column {column}"
        raise ValueError(f"feature {at} is {x[(*row, column)]}, not a finite number")


def _check_rows(x: np.ndarray, y: np.ndarray, empty: str = "feature matrix must be 2-D and nonempty") -> list:
    """The classes present in the labels ``y`` of the feature rows ``x``,
    sorted. Refused: ``x`` not 2-D, or without rows (with the message
    ``empty``); a non-finite feature, named by row and column; a label
    vector of another length; any label other than -1 or +1."""
    if x.ndim != 2:
        raise ValueError("feature matrix must be 2-D and nonempty")
    if not len(x):
        raise ValueError(empty)
    _refuse_non_finite(x)
    if y.shape != (len(x),):
        raise ValueError(f"label vector shape {y.shape} does not match {len(x)} rows")
    present = np.unique(y).tolist()
    if not set(present).issubset(CLASS_ORDER):
        raise ValueError(f"labels must be -1 or +1, got {present}")
    return present


def compute_scatter(features: np.ndarray, labels: np.ndarray) -> ScatterPair:
    """Within-class scatter S_W = sum_i sum_{x in C_i} (x - mu_i)(x - mu_i)^T
    with the class means and counts, accumulated one class copy at a time.
    Singleton classes are legal; they simply contribute nothing to S_W."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    if len(_check_rows(x, y)) < 2:
        raise ValueError("need both classes present to fit a discriminant")

    s_w = np.zeros((x.shape[1], x.shape[1]))
    means, counts = [], []
    for cls in CLASS_ORDER:
        rows = x[y == cls]  # a copy, centred in place below
        mu = rows.mean(axis=0)
        means.append(mu)
        counts.append(rows.shape[0])
        rows -= mu
        s_w += rows.T @ rows
        del rows  # freed before the next class is gathered
    return ScatterPair(
        s_within=s_w,
        class_means=np.array(means),
        class_counts=tuple(counts),
    )


def default_epsilon(scatter: ScatterPair) -> float:
    """Ridge used when the caller does not pick one.

    With ample data (ten samples per feature or more) the inverse of S_W is
    trustworthy and the ridge is a numerical floor, 1e-6 of the mean
    diagonal. Below that ratio the smallest sample eigenvalues of S_W are
    badly underestimated and the inverse rotates the discriminant into
    noise directions, so the ridge jumps to 100x the mean diagonal, which
    lands the solution at its heavy-shrinkage limit (the class-mean
    difference in standardized coordinates).
    """
    mean_diag = float(np.mean(np.diag(scatter.s_within)))
    n_samples = sum(scatter.class_counts)
    n_features = scatter.s_within.shape[0]
    if n_samples >= 10 * n_features:
        return 1e-6 * mean_diag
    return 100.0 * mean_diag


def fisher_criterion(scatter: ScatterPair, w: np.ndarray, epsilon: float = 0.0) -> float:
    """J(w) = (w^T S_B w) / (w^T (S_W + eps I) w); scale invariant. For two
    classes S_B = sum_i N_i (mu_i - mu)(mu_i - mu)^T is the rank-one
    (N_- N_+ / N) delta delta^T, delta = mu_+ - mu_-, so w^T S_B w = (N_- N_+ / N) (w . delta)^2."""
    w = np.asarray(w, dtype=float)
    if np.all(w == 0):
        raise ValueError("direction vector is zero")
    n_neg, n_pos = scatter.class_counts
    numer = n_neg * n_pos / (n_neg + n_pos) * float(w @ (scatter.class_means[1] - scatter.class_means[0])) ** 2
    denom = float(w @ scatter.s_within @ w + epsilon * (w @ w))
    return numer / denom


def _refuse_overflow(*values) -> None:
    """Refuse non-finite statistics of finite features: their arithmetic overflowed."""
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError("features overflow float64: their scale, scatter or Fisher criterion is not finite")


def check_integer(name: str, value, nonnegative: bool = False) -> int:
    """``value`` as an int; a ValueError naming ``name`` if it is no int or numpy integer (a bool is none) or, if
    ``nonnegative``, is negative."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or nonnegative and value < 0:
        raise ValueError(f"{name} must be {'a nonnegative' if nonnegative else 'an'} integer, got {value!r}")
    return int(value)


def check_number(name: str, value) -> float:
    """``value`` as a float; a ValueError naming ``name`` if it is no int, float or numpy number (a bool is none)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


@np.errstate(over="ignore", invalid="ignore")
def fit(
    features: np.ndarray,
    labels: np.ndarray,
    epsilon: float | None = None,
    standardizer: str = "zscore",
    feature_names=None,
    label_convention: str | None = None,
) -> FldaModel:
    """Fit the two-class discriminant.

    ``standardizer`` is one of :data:`STANDARDIZER_MODES`, fit here on the given (training) rows;
    a feature whose spread is below ``MIN_SCALE`` (round-off) gets scale 1. ``epsilon`` defaults to
    :func:`default_epsilon`: 1e-6 times the mean diagonal of S_W with at least ten samples per
    feature (n >= 10 d), 100 times it below that. Pass an explicit finite
    value when the within-class scatter is degenerate (e.g. one sample per
    class). Features so large that their statistics overflow float64 are
    refused, with no numpy warning.
    """
    eps = None if epsilon is None else check_number("epsilon", epsilon)
    if eps is not None and not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"epsilon must be finite and nonnegative, got {eps}")
    if label_convention not in (None, *LABEL_CONVENTIONS):
        raise ValueError(f"unknown label convention {label_convention!r}; expected one of {LABEL_CONVENTIONS}")
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    _check_rows(x, y)
    if not (feature_names is None or np.iterable(feature_names)):
        raise ValueError(f"feature_names must be an iterable of names, got {feature_names!r}")
    names = tuple(feature_names) if feature_names is not None else None
    if names is not None and len(names) != x.shape[1]:
        raise ValueError(f"{len(names)} feature names for {x.shape[1]} feature columns")
    if standardizer == "zscore":
        shift, scale = x.mean(axis=0), x.std(axis=0)
    elif standardizer == "minmax":
        shift = x.min(axis=0)
        scale = x.max(axis=0) - shift
    elif standardizer == "none":
        shift, scale = np.zeros(x.shape[1]), np.ones(x.shape[1])
    else:
        raise ValueError(f"unknown standardizer mode {standardizer!r}; expected one of {STANDARDIZER_MODES}")
    std = Standardizer(shift, np.where(scale < MIN_SCALE, 1.0, scale), standardizer)
    _refuse_overflow(std.shift, std.scale)
    xs = apply_standardizer(std, x)

    scatter = compute_scatter(xs, y)
    eps = default_epsilon(scatter) if eps is None else eps
    _refuse_overflow(scatter.s_within, eps)

    delta = scatter.class_means[1] - scatter.class_means[0]
    if np.linalg.norm(delta) == 0.0:
        raise ValueError("class means coincide; no discriminant direction exists")
    regularized = scatter.s_within + eps * np.eye(xs.shape[1])
    try:
        w = np.linalg.solve(regularized, delta)
    except np.linalg.LinAlgError:
        raise ValueError("within-class scatter is singular; regularize by passing a positive epsilon") from None
    norm = np.linalg.norm(w)
    if norm < math.sqrt(sys.float_info.min):  # w @ w underflowed (a ridge far above S_W): rescale w first
        w = w / np.max(np.abs(w))
        norm = np.linalg.norm(w)
    if not (np.isfinite(norm) and norm > 0.0 and w @ delta > 0):
        raise ValueError("within-class scatter is numerically singular; increase epsilon")
    w = w / norm

    projected = (float(w @ scatter.class_means[0]), float(w @ scatter.class_means[1]))
    threshold = 0.5 * (projected[0] + projected[1])
    fisher_j = fisher_criterion(scatter, w, eps)
    _refuse_overflow(fisher_j)
    if not fisher_j > 0:  # the numerator is > 0 once w . delta > 0: the denominator lost to round-off
        raise ValueError("within-class scatter is numerically singular; increase epsilon")
    return FldaModel(
        w=w,
        projected_means=projected,
        threshold=threshold,
        epsilon=eps,
        fisher_j=fisher_j,
        standardizer=std,
        feature_names=names,
        label_convention=label_convention,
        train_accuracy=float(np.mean(_decide(xs @ w, threshold) == y)),
    )


def apply_standardizer(standardizer: Standardizer, values: np.ndarray) -> np.ndarray:
    """(x - shift) / scale, for a single vector or a matrix of rows."""
    x = np.asarray(values, dtype=float)
    if x.shape[-1] != len(standardizer.shift):
        raise ValueError(f"feature dimension {x.shape[-1]} does not match standardizer ({len(standardizer.shift)})")
    out = x - standardizer.shift
    return np.divide(out, standardizer.scale, out=out)


@np.errstate(over="ignore", invalid="ignore")
def project(model: FldaModel, x: np.ndarray) -> float | np.ndarray:
    """Scalar projection w^T x after the model's standardizer; refuses a non-finite feature, and finite
    features whose projection overflows float64 (naming a matrix's first such row), with no numpy warning."""
    x = np.asarray(x, dtype=float)
    xs = apply_standardizer(model.standardizer, x)
    _refuse_non_finite(x)
    y = xs @ model.w
    if not np.isfinite(y).all():
        raise ProjectionOverflow(int(np.flatnonzero(~np.isfinite(y))[0]) if np.ndim(y) else None)
    return float(y) if np.ndim(y) == 0 else y


def classify(model: FldaModel, x: np.ndarray) -> int | np.ndarray:
    """Label of the nearer projected class mean (midpoint threshold); refuses what :func:`project` refuses."""
    pred = _decide(project(model, x), model.threshold)
    return int(pred) if np.ndim(pred) == 0 else pred


def _decide(projections, threshold: float) -> np.ndarray:
    return np.where(np.asarray(projections) - threshold > -TIE_TOL, 1, -1)


def evaluate(model: FldaModel, features: np.ndarray, labels: np.ndarray) -> dict:
    """Accuracy and confusion counts on a set.

    Confusion keys treat +1 (separable) as the positive class: tp/tn/fp/fn.
    Rows and labels are checked as :func:`fit` checks them, but one class may be absent.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    _check_rows(x, y, empty="evaluation set is empty")
    pred = classify(model, x)
    accuracy = float(np.mean(pred == y))
    confusion = {
        "tp": int(np.sum((y == 1) & (pred == 1))),
        "tn": int(np.sum((y == -1) & (pred == -1))),
        "fp": int(np.sum((y == -1) & (pred == 1))),
        "fn": int(np.sum((y == 1) & (pred == -1))),
    }
    return {"accuracy": accuracy, "confusion": confusion}


def _temp_beside(path: str) -> tuple:
    """``(fd, name)`` of a new, uniquely named temp file beside ``path`` (refused if a directory), created with
    the mode open() gives ``path``; an ``OSError`` names ``path``. The name adds 13 characters to ``path``'s."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = os.fspath(path) + f".{os.urandom(4).hex()}.tmp"
    try:
        return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def check_output_dir(path: str) -> None:
    """Raise the ``OSError`` :func:`atomic_write` would raise for a ``path`` that
    is a directory or lies in a missing or unwritable one, so a command can refuse before its work."""
    fd, tmp = _temp_beside(path)
    os.close(fd)
    os.unlink(tmp)


def atomic_write(path: str, text) -> None:
    """Replace ``path`` with ``text`` (a string, or an iterable of strings
    written in turn) through a uniquely named temp file beside it, so
    concurrent writers never share one. The file gets the mode open() would
    give it; the temp file is removed if any step fails."""
    fd, tmp = _temp_beside(path)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_model(model: FldaModel, path: str) -> None:
    """Write the model as a JSON document through :func:`atomic_write`, after
    refusing what :func:`load_model` would refuse. Floats keep ``repr``
    precision, so saving what :func:`load_model` reads back gives the same bytes."""
    std = model.standardizer
    doc = {
        "w": [float(v) for v in model.w],
        "projected_means": [float(v) for v in model.projected_means],
        "threshold": float(model.threshold),
        "epsilon": float(model.epsilon),
        "fisher_j": float(model.fisher_j),
        "standardizer": {"mode": std.mode, "shift": list(map(float, std.shift)), "scale": list(map(float, std.scale))},
        "feature_names": list(model.feature_names) if model.feature_names is not None else None,
        "label_convention": model.label_convention,
        "train_accuracy": float(model.train_accuracy) if model.train_accuracy is not None else None,
    }
    _check_document(doc, path)
    atomic_write(path, json.dumps(doc, indent=2) + "\n")


def _is_finite_number(value) -> bool:
    return type(value) in (int, float) and abs(value) <= sys.float_info.max  # no OverflowError on a huge int


def _check_document(doc, path: str) -> None:
    """Refuse anything :func:`load_model` cannot turn into a usable model,
    with a ValueError naming the file and the key."""
    if not isinstance(doc, dict):
        raise ValueError(f"model file {path}: expected a JSON object, got {type(doc).__name__}")

    def bad(key, problem):
        return ValueError(f"model file {path}, key {key!r}: {problem}")

    for key in ("w", "projected_means", "threshold", "epsilon", "fisher_j", "standardizer"):
        if key not in doc:
            raise bad(key, "missing")
    std = doc["standardizer"]
    if not isinstance(std, dict):
        raise bad("standardizer", "expected an object")
    for key in ("mode", "shift", "scale"):
        if key not in std:
            raise bad(f"standardizer.{key}", "missing")
    if std["mode"] not in STANDARDIZER_MODES:
        raise bad("standardizer.mode", f"{std['mode']!r} is not one of {STANDARDIZER_MODES}")
    n = len(doc["w"]) if isinstance(doc["w"], list) else 0
    vectors = {"w": doc["w"], "standardizer.shift": std["shift"], "standardizer.scale": std["scale"]}
    for key, value in vectors.items():
        if not (isinstance(value, list) and value and all(_is_finite_number(v) for v in value)):
            raise bad(key, "expected a nonempty list of finite numbers")
        if len(value) != n:
            raise bad(key, f"has {len(value)} entries, 'w' has {n}")
    if not any(doc["w"]):
        raise bad("w", "is all zeros, so it projects every row to 0")
    smallest = min(std["scale"])
    if smallest < MIN_SCALE:
        raise bad("standardizer.scale", f"expected positive numbers of at least {MIN_SCALE!r} "
                  f"(a smaller spread is round-off), got {smallest!r}")
    means = doc["projected_means"]
    if not (isinstance(means, list) and len(means) == 2 and all(_is_finite_number(v) for v in means)):
        raise bad("projected_means", "expected two finite numbers")
    for key in ("threshold", "fisher_j"):
        if not _is_finite_number(doc[key]):
            raise bad(key, "expected a finite number")
    if doc["fisher_j"] <= 0:
        raise bad("fisher_j", "expected a number above 0, as every fit gives")
    if not (_is_finite_number(doc["epsilon"]) and doc["epsilon"] >= 0):
        raise bad("epsilon", "expected a finite number of at least 0")
    accuracy = doc.get("train_accuracy")
    if accuracy is not None and not (_is_finite_number(accuracy) and 0 <= accuracy <= 1):
        raise bad("train_accuracy", "expected null or a finite number in [0, 1]")
    if doc.get("label_convention") not in (None, *LABEL_CONVENTIONS):
        raise bad("label_convention", f"expected null or one of {LABEL_CONVENTIONS}")
    names = doc.get("feature_names")
    if names is not None and not (isinstance(names, list) and len(names) == n):
        raise bad("feature_names", f"expected a list of {n} names, one per entry of 'w'")


def load_model(path: str) -> FldaModel:
    """Read and check a model document written by :func:`save_model`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"model file {path} is not JSON: {exc}") from None
    _check_document(doc, path)
    shift, scale = (np.asarray(doc["standardizer"][key], dtype=float) for key in ("shift", "scale"))
    return FldaModel(
        w=np.asarray(doc["w"], dtype=float),
        projected_means=tuple(doc["projected_means"]),
        threshold=doc["threshold"],
        epsilon=doc["epsilon"],
        fisher_j=doc["fisher_j"],
        standardizer=Standardizer(shift, scale, doc["standardizer"]["mode"]),
        feature_names=tuple(doc["feature_names"]) if doc.get("feature_names") is not None else None,
        label_convention=doc.get("label_convention"),
        train_accuracy=doc.get("train_accuracy"),
    )
