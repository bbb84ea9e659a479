"""Datasets for poisoning experiments.

The labeled dataset container, dense-csv / sparse-text file I/O, per-class
statistics, and the synthetic two-Gaussian generator with its mean-shift
attack points. Dense float vectors are the canonical in-memory form; sparse
integer input is densified at load time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "ClassStats",
    "GaussianSpec",
    "ParseError",
    "StatsError",
    "load_dataset",
    "save_dataset",
    "concat",
    "class_stats",
    "generate_gaussian",
    "gaussian_attack_points",
    "split_train_test",
]

FORMATS = ("dense-csv", "sparse-text")

_INT_ATOL = 1e-9


class ParseError(ValueError):
    """A dataset file could not be parsed. Message names the offending line."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class StatsError(ValueError):
    """Class statistics were requested for a dataset missing a class."""


def _frozen_array(a, dtype=float):
    """Read-only contiguous view of `a`; the caller's own array stays writeable."""
    out = np.ascontiguousarray(a, dtype=dtype).view()
    out.flags.writeable = False
    return out


def _is_nonneg_integral(x):
    return bool(np.all(x >= -_INT_ATOL) and np.all(np.abs(x - np.round(x)) <= _INT_ATOL))


@dataclass(frozen=True)
class Dataset:
    """An ordered set of labeled points stored as a dense (n, d) matrix.

    Immutable after construction: it holds read-only views (of the caller's
    arrays when no dtype or layout conversion is needed, so later writes to
    those show through), and instances can be shared across parallel workers.
    """

    X: np.ndarray
    y: np.ndarray
    integer_features: bool = False

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array of shape (n, d)")
        if X.shape[1] < 1:
            raise ValueError("feature dimension must be positive")
        if y.shape != (X.shape[0],):
            raise ValueError("y must have shape (n,)")
        if y.size and not np.all(np.isin(y, (-1, 1))):
            raise ValueError("labels must all be -1 or +1")
        # min and max are non-finite iff some entry is, with no (n, d) temporary.
        if X.size and not (math.isfinite(X.min()) and math.isfinite(X.max())):
            raise ValueError("features must be finite (no NaN or inf)")
        if self.integer_features and X.size and not _is_nonneg_integral(X):
            raise ValueError("integer-flagged dataset has negative or non-integral values")
        object.__setattr__(self, "X", _frozen_array(X))
        object.__setattr__(self, "y", _frozen_array(y, dtype=np.int64))

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    def subset(self, idx):
        idx = np.asarray(idx)
        return Dataset(self.X[idx], self.y[idx], self.integer_features)


def concat(a: Dataset, b: Dataset) -> Dataset:
    """Concatenate two datasets (e.g. clean data with an attack)."""
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    return Dataset(
        np.concatenate([a.X, b.X]),
        np.concatenate([a.y, b.y]),
        a.integer_features and b.integer_features,
    )


# ---------------------------------------------------------------------------
# File formats.
#
# dense-csv: one point per line, "label,f1,...,fd" with label in {-1, 1}.
# sparse-text: header line "#d=<int>", then "label idx:val ..." with 0-based
# indices; values must be non-negative integers (word counts), and the loaded
# dataset is flagged integer_features=True.
# ---------------------------------------------------------------------------


def _parse_label(tok, path, line_no):
    try:
        val = float(tok)
    except ValueError:
        raise ParseError(path, line_no, f"unreadable label {tok!r}") from None
    if val not in (-1.0, 1.0):
        raise ParseError(path, line_no, f"label must be -1 or 1, got {tok!r}")
    return int(val)


def load_dataset(path, format: str) -> Dataset:
    """Load a dataset file in one of the supported formats.

    Raises ParseError (naming the line) on malformed rows, inconsistent
    dimensions, or labels outside {-1, +1}.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    sparse = format == "sparse-text"
    parse_row = _sparse_row if sparse else _dense_row
    d = None
    rows, labels = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if sparse and d is None and line:
                d = _sparse_header(line, path, line_no)
            elif line and not line.startswith("#"):
                toks = line.split() if sparse else line.split(",")
                labels.append(_parse_label(toks[0], path, line_no))
                rows.append(parse_row(toks[1:], d, path, line_no))
                d = len(rows[-1])  # a dense file's first row sets its width
    if not rows:
        raise ParseError(path, 0, "file contains no data rows")
    return Dataset(np.array(rows), np.array(labels), integer_features=sparse)


def _dense_row(toks, d, path, line_no):
    """The features of a dense-csv row; d is the file's width so far (None
    before the first row)."""
    try:
        feats = np.array(toks, dtype=float)
    except ValueError:
        raise ParseError(path, line_no, "unreadable feature value") from None
    if not feats.size:
        raise ParseError(path, line_no, "row has no features")
    if not np.isfinite(feats).all():
        raise ParseError(path, line_no, "non-finite feature value")
    if d is not None and len(feats) != d:
        raise ParseError(path, line_no, f"expected {d} features, got {len(feats)}")
    return feats


def _sparse_header(line, path, line_no):
    """d from a sparse-text file's first line, which must read '#d=<int>'."""
    if not line.startswith("#"):
        raise ParseError(path, line_no, "data row before '#d=<int>' header")
    if not line.startswith("#d="):
        raise ParseError(path, line_no, "first header must be '#d=<int>'")
    try:
        d = int(line[3:])
    except ValueError:
        raise ParseError(path, line_no, f"bad dimension header {line!r}") from None
    if d < 1:
        raise ParseError(path, line_no, "dimension must be positive")
    return d


def _sparse_row(toks, d, path, line_no):
    """The dense (d,) point of a sparse-text row's "idx:val" entries."""
    x = np.zeros(d)
    seen = set()
    for tok in toks:
        try:
            idx_s, val_s = tok.split(":")
            idx, val = int(idx_s), float(val_s)
        except ValueError:
            raise ParseError(path, line_no, f"bad entry {tok!r}") from None
        if not 0 <= idx < d:
            raise ParseError(path, line_no, f"index {idx} out of range for d={d}")
        if idx in seen:
            raise ParseError(path, line_no, f"duplicate index {idx}")
        if not math.isfinite(val) or val < 0 or abs(val - round(val)) > _INT_ATOL:
            raise ParseError(path, line_no, f"value {val_s!r} is not a non-negative integer")
        seen.add(idx)
        x[idx] = val
    return x


def _atomic_write(path, chunks):
    """Write the strings `chunks` to `path` through a temp file in the same
    directory, moved over `path` (`os.replace`) once all are written. On any
    error the temp file is removed and an existing `path` is left as it was."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_dataset(ds: Dataset, path, format: str) -> None:
    """Write a dataset atomically so that loading it back reproduces points and labels."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    if format == "sparse-text" and ds.X.size and not _is_nonneg_integral(ds.X):
        raise ValueError("sparse-text requires non-negative integer features")

    def lines():
        if format == "sparse-text":
            yield f"#d={ds.d}\n"
        for x, label in zip(ds.X, ds.y):
            if format == "dense-csv":
                yield f"{int(label)}," + ",".join(repr(float(v)) for v in x) + "\n"
            else:
                entries = " ".join(f"{j}:{int(round(x[j]))}" for j in np.flatnonzero(x))
                yield f"{int(label)} {entries}".rstrip() + "\n"

    _atomic_write(path, lines())


# ---------------------------------------------------------------------------
# Class statistics.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassStats:
    """Per-class centroids, empirical class fractions, and the data radius."""

    mu_plus: np.ndarray
    mu_minus: np.ndarray
    p_plus: float
    p_minus: float
    radius_bound: float

    def __post_init__(self):
        object.__setattr__(self, "mu_plus", _frozen_array(self.mu_plus))
        object.__setattr__(self, "mu_minus", _frozen_array(self.mu_minus))
        if abs(self.p_plus + self.p_minus - 1.0) > 1e-12:
            raise ValueError("class fractions must sum to 1")

    def mu(self, label):
        return self.mu_plus if label == 1 else self.mu_minus


def class_stats(ds: Dataset) -> ClassStats:
    """Empirical centroids mu_y, class fractions p_y, and max point norm R."""
    if ds.n == 0:
        raise StatsError("empty dataset")
    pos = ds.y == 1
    neg = ds.y == -1
    if not pos.any() or not neg.any():
        raise StatsError("both classes must be present to compute class statistics")
    return ClassStats(
        mu_plus=ds.X[pos].mean(axis=0),
        mu_minus=ds.X[neg].mean(axis=0),
        p_plus=pos.sum() / ds.n,
        p_minus=neg.sum() / ds.n,
        radius_bound=float(np.linalg.norm(ds.X, axis=1).max()),
    )


# ---------------------------------------------------------------------------
# Synthetic two-Gaussian data. The positive class is drawn from a unit-variance
# Gaussian centered at +lam * e1 and the negative class at -lam * e1, so the
# first axis carries all of the signal and sign(x1) is the ideal classifier.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianSpec:
    """Parameters of the synthetic two-Gaussian dataset."""

    d: int
    lam: float
    n: int
    seed: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.n < 2:
            raise ValueError("n must be >= 2 (both classes are required)")


def generate_gaussian(spec: GaussianSpec) -> Dataset:
    """Draw spec.n points, half per class (odd n gives the extra positive).

    Deterministic for a fixed seed: positives are drawn first from a single
    PCG64 stream.
    """
    rng = np.random.default_rng(spec.seed)
    n_pos = (spec.n + 1) // 2
    n_neg = spec.n - n_pos
    center = np.zeros(spec.d)
    center[0] = spec.lam
    X_pos = rng.standard_normal((n_pos, spec.d)) + center
    X_neg = rng.standard_normal((n_neg, spec.d)) - center
    X = np.concatenate([X_pos, X_neg])
    y = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])
    return Dataset(X, y)


def gaussian_attack_points(spec: GaussianSpec, eps: float) -> Dataset:
    """Mean-shift attack for the two-Gaussian task.

    Places ceil(eps*n/2) positive points at -(sqrt(d)-lam)*e1 and the same
    number of negative points at +(sqrt(d)-lam)*e1. The attack points sit at a
    typical within-class distance from their centroid yet pull the class means
    toward each other, so for large enough eps the learned direction flips.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    m = math.ceil(eps * spec.n / 2)
    offset = math.sqrt(spec.d) - spec.lam
    x = np.zeros(spec.d)
    x[0] = -offset
    X = np.concatenate([np.tile(x, (m, 1)), np.tile(-x, (m, 1))])
    y = np.concatenate([np.ones(m, dtype=int), -np.ones(m, dtype=int)])
    return Dataset(X, y)


def split_train_test(ds: Dataset, test_fraction: float = 0.2) -> tuple[Dataset, Dataset]:
    """Deterministic stratified split: per class, the trailing points go to test."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    train_idx, test_idx = [], []
    for label in (1, -1):
        idx = np.flatnonzero(ds.y == label)
        n_test = math.ceil(test_fraction * idx.size)
        if n_test >= idx.size:
            raise ValueError(f"class {label} too small for the requested split")
        train_idx.append(idx[: idx.size - n_test])
        test_idx.append(idx[idx.size - n_test :])
    return ds.subset(np.concatenate(train_idx)), ds.subset(np.concatenate(test_idx))
