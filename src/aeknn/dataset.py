"""Tabular classification datasets: CSV loading, min-max normalization and
stratified cross-validation fold plans.

Labels are mapped to dense integer indices in order of first appearance, so
loading is order-stable. Normalization statistics are always fitted on a
training subset and applied with clamping, keeping test values inside the
[0, 1] range expected by the bounded autoencoder outputs.
"""

from __future__ import annotations

import csv
import hashlib
from array import array
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "NormalizationStats",
    "FoldPlan",
    "load_csv",
    "fit_normalizer",
    "make_folds",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix plus dense integer class labels.

    Invariants checked at construction: one label per row, labels dense in
    [0, n_classes) with every class present, and no non-finite feature values.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]
    name: str = ""

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"labels length {labels.shape} does not match "
                f"{features.shape[0]} feature rows"
            )
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        n_classes = len(self.class_names)
        if n_classes < 2:
            raise ValueError("dataset must contain at least two classes")
        present = np.unique(labels)
        if present.size != n_classes or present[0] != 0 or present[-1] != n_classes - 1:
            raise ValueError("labels must cover every class index in [0, n_classes)")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, rows) -> "SubsetView":
        """Row slice sharing the class universe (a fold, not a new dataset).
        The feature matrix is shared, not copied."""
        rows = np.asarray(rows, dtype=np.int64)
        return SubsetView(
            source=self.features,
            labels=self.labels[rows],
            class_names=self.class_names,
            indices=rows,
            name=self.name,
        )


@dataclass(frozen=True, eq=False)
class SubsetView:
    """Rows `indices` of a Dataset, whose feature matrix `source` it shares.
    Unlike Dataset, a view may miss some classes (a test fold can contain a
    class absent from its training fold).

    `features` gathers the rows into a new array on every read, so a fold
    holds no copy of its raw rows between reads, and each read is the
    reader's own to write: `pipeline.run_fold` reads each side once and
    normalizes that gather in place, so a fold holds one copy per side.
    The test rows' gather therefore falls inside the fold's
    `encode_seconds`, well under a millisecond for a semeion-sized fold.
    """

    source: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]
    indices: np.ndarray
    name: str = ""

    @property
    def features(self) -> np.ndarray:
        return self.source[self.indices]

    @property
    def n_samples(self) -> int:
        return self.indices.shape[0]

    @property
    def n_features(self) -> int:
        return self.source.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True, eq=False)
class NormalizationStats:
    """Per-feature min/max fitted on a training partition only.

    Constant features are widened to (min, min + 1) so they transform to 0.
    """

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.minimum, dtype=np.float64)
        hi = np.asarray(self.maximum, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("minimum/maximum must be matching 1-D vectors")
        if np.any(hi < lo):
            raise ValueError("maximum must be >= minimum per feature")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "minimum", lo)
        object.__setattr__(self, "maximum", hi)

    @property
    def n_features(self) -> int:
        return self.minimum.shape[0]

    def apply(self, matrix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """`matrix` scaled to [0, 1], written into `out` (which may be
        `matrix` itself) or, by default, into a new array."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape[-1] != self.n_features:
            raise ValueError(
                f"matrix has {matrix.shape[-1]} features, stats were fitted on "
                f"{self.n_features}"
            )
        # one output, scaled and clipped in place: the bits of
        # np.clip((matrix - minimum) / (maximum - minimum), 0, 1)
        scaled = np.subtract(matrix, self.minimum, out=out)
        np.divide(scaled, self.maximum - self.minimum, out=scaled)
        return np.clip(scaled, 0.0, 1.0, out=scaled)


def fit_normalizer(matrix: np.ndarray) -> NormalizationStats:
    """Fit per-feature min/max over the rows of `matrix`; raises on an
    empty one."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape[0] == 0:
        raise ValueError("cannot fit a normalizer on an empty matrix")
    lo = matrix.min(axis=0)
    hi = matrix.max(axis=0)
    constant = hi == lo
    hi = np.where(constant, lo + 1.0, hi)
    return NormalizationStats(minimum=lo, maximum=hi)


def load_csv(path, label_column=None, has_header: bool = False, name: str | None = None) -> Dataset:
    """Load a numeric CSV with one label column into a Dataset.

    Args:
        path: CSV file, comma separated, '.' decimal point, UTF-8; a
            leading byte-order mark is dropped.
        label_column: column index (negative allowed) or, with a header,
            a column name. Defaults to the last column.
        has_header: skip and use the first row as column names.
        name: dataset name recorded on the result (defaults to the file stem).

    Labels are stripped and mapped to dense indices by first appearance.
    Features are parsed by Python's `float`, which accepts surrounding
    whitespace. Parse errors report the offending row as its line in the
    file (blank lines counted) and the column, both 1-based.

    One `csv.reader` pass checks each row as it is read and appends its
    floats to one row-major float64 buffer, which becomes the feature
    matrix without a copy: loading holds about 8 bytes per cell, not a
    Python string per cell until the file ends. Since rows are checked as
    they are read, an earlier bad cell is reported before a `csv.reader`
    error on a later line (say a field longer than
    `csv.field_size_limit()`). Non-finite values are looked for only after
    the last row, in the one scan `Dataset` makes, so a parse error on any
    row is reported before them, and they before a single class.
    """
    path = str(path)
    header: list[str] | None = None
    width = label_idx = None
    values = array("d")  # the feature cells, row after row
    labels = array("q")
    lines = array("q")  # each kept row's line in the file
    class_index: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not "".join(row).strip():
                continue
            if has_header and header is None:
                header = [cell.strip() for cell in row]
                continue
            line = reader.line_num
            if width is None:
                width = len(row)
                label_idx = _label_index(path, label_column, header, width)
            if len(row) != width:
                raise ValueError(f"{path}: row {line} has {len(row)} columns, expected {width}")
            label = row.pop(label_idx).strip()
            if not label:
                raise ValueError(f"{path}: empty label at row {line}")
            labels.append(class_index.setdefault(label, len(class_index)))
            try:
                values.fromlist(list(map(float, row)))
            except ValueError:
                j = _first_non_float(row)
                raise ValueError(
                    f"{path}: non-numeric value {row[j].strip()!r} at row {line}, "
                    f"column {_file_column(j, label_idx)}"
                ) from None
            lines.append(line)
    if width is None:
        raise ValueError(f"{path}: empty file")

    features = np.frombuffer(values, dtype=np.float64).reshape(len(labels), width - 1)
    if name is None:
        stem = path.rsplit("/", 1)[-1]
        name = stem.rsplit(".", 1)[0] if "." in stem else stem
    try:  # `Dataset` makes the one scan for non-finite values a load needs
        return Dataset(
            features=features,
            labels=np.frombuffer(labels, dtype=np.int64),
            class_names=tuple(class_index),
            name=name,
        )
    except ValueError:  # located here, non-finite cells first, as `Dataset` checks
        non_finite = np.argwhere(~np.isfinite(features))
        if non_finite.size:
            i, j = non_finite[0]
            raise ValueError(
                f"{path}: non-finite value at row {lines[i]}, column {_file_column(j, label_idx)}"
            ) from None
        if len(class_index) < 2:
            raise ValueError(
                f"{path}: single-class dataset, classification is degenerate"
            ) from None
        raise


def _label_index(path: str, label_column, header: list[str] | None, width: int) -> int:
    """The 0-based label column of rows `width` cells wide."""
    if isinstance(label_column, str):
        if header is None:
            raise ValueError("label column given by name but the file has no header")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ValueError(f"{path}: no column named {label_column!r}") from None
    else:
        label_idx = width - 1 if label_column is None else int(label_column)
        if label_idx < 0:
            label_idx += width
    if not 0 <= label_idx < width:
        raise ValueError(f"{path}: label column {label_column} out of range for width {width}")
    return label_idx


def _file_column(j: int, label_idx: int) -> int:
    """1-based file column of feature column j."""
    return j + 1 if j < label_idx else j + 2


def _first_non_float(cells: list[str]) -> int:
    """Index of the first cell that `float` rejects (the row must have one)."""
    for j, cell in enumerate(cells):
        try:
            float(cell)
        except ValueError:
            return j
    raise AssertionError("every cell parses")


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Per-repetition fold assignment for every sample.

    `assignments[r, i]` is the fold index of sample i in repetition r. Each
    repetition partitions all samples into `n_folds` disjoint, stratified folds.
    """

    assignments: np.ndarray
    n_folds: int

    def __post_init__(self):
        a = np.ascontiguousarray(self.assignments, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("assignments must be (repetitions, samples)")
        if self.n_folds < 2:
            raise ValueError("need at least two folds")
        if a.size and (a.min() < 0 or a.max() >= self.n_folds):
            raise ValueError("fold indices out of range")
        for rep in range(a.shape[0]):
            counts = np.bincount(a[rep], minlength=self.n_folds)
            if np.any(counts == 0):
                raise ValueError(f"repetition {rep} leaves an empty fold")
        a.setflags(write=False)
        object.__setattr__(self, "assignments", a)

    @property
    def repetitions(self) -> int:
        return self.assignments.shape[0]

    @property
    def n_samples(self) -> int:
        return self.assignments.shape[1]

    def test_indices(self, repetition: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments[repetition] == fold)

    def train_indices(self, repetition: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments[repetition] != fold)

    def iter_splits(self):
        """Yield (repetition, fold, train_indices, test_indices) in fixed order."""
        for rep in range(self.repetitions):
            for fold in range(self.n_folds):
                yield rep, fold, self.train_indices(rep, fold), self.test_indices(rep, fold)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(np.int64(self.n_folds).tobytes())
        h.update(self.assignments.tobytes())
        return h.hexdigest()

    def to_text(self) -> str:
        """Plain-text sidecar for exact experiment replay."""
        lines = [f"folds {self.n_folds} repetitions {self.repetitions} samples {self.n_samples}"]
        lines += [" ".join(map(str, row)) for row in self.assignments.tolist()]
        return "\n".join(lines) + "\n"

    @classmethod
    def load_text(cls, path) -> "FoldPlan":
        with open(path, encoding="utf-8") as handle:
            head = handle.readline().split()
            if len(head) != 6 or head[0] != "folds":
                raise ValueError(f"{path}: not a fold-plan sidecar")
            n_folds, reps, n = int(head[1]), int(head[3]), int(head[5])
            rows = []
            for _ in range(reps):
                row = [int(v) for v in handle.readline().split()]
                if len(row) != n:
                    raise ValueError(f"{path}: truncated fold-plan sidecar")
                rows.append(row)
        return cls(assignments=np.array(rows, dtype=np.int64), n_folds=n_folds)


def make_folds(data: Dataset, repetitions: int, k_folds: int, seed: int) -> FoldPlan:
    """Build a stratified fold plan: `repetitions` independent shuffles, each
    partitioning the samples into `k_folds` folds with per-class counts that
    deviate from the proportional share by at most one.

    Deterministic given `seed`; requires every class to have at least
    `k_folds` members.
    """
    if repetitions < 1 or k_folds < 2:
        raise ValueError("need repetitions >= 1 and k_folds >= 2")
    counts = np.bincount(data.labels, minlength=data.n_classes)
    small = np.flatnonzero(counts < k_folds)
    if small.size:
        name = data.class_names[small[0]]
        raise ValueError(
            f"class {name!r} has {counts[small[0]]} members, fewer than {k_folds} folds"
        )
    assignments = np.empty((repetitions, data.n_samples), dtype=np.int64)
    for rep in range(repetitions):
        rng = np.random.default_rng([seed, rep])
        for c in range(data.n_classes):
            members = np.flatnonzero(data.labels == c)
            rng.shuffle(members)
            offset = int(rng.integers(k_folds))
            assignments[rep, members] = (np.arange(members.size) + offset) % k_folds
    return FoldPlan(assignments=assignments, n_folds=k_folds)
