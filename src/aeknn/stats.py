"""Nonparametric comparison of algorithms over a datasets-by-configurations
score table: the Friedman rank test and the Wilcoxon signed-rank test.

The Friedman statistic uses the classic chi-square form
    chi2 = 12 / (n k (k+1)) * sum_j R_j^2 - 3 n (k+1)
on mid-ranked rows, with the Iman-Davenport F transform available as an
alternative p-value form. The Wilcoxon test is exact (full enumeration of
sign assignments, expressed as a convolution over ranks) up to 20 nonzero
differences and a tie- and continuity-corrected normal approximation above.

Inputs are typically metric tables transcribed from published results at a
few decimals, so `wilcoxon_signed_rank` rounds differences (default: nine
decimals) before ranking; otherwise float representation noise would order
pairs that are equal at the recorded precision.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaincc, ndtr
from scipy.stats import rankdata

__all__ = [
    "ResultMatrix",
    "TestReport",
    "friedman",
    "wilcoxon_signed_rank",
    "chi_square_sf",
]

EXACT_WILCOXON_LIMIT = 20


@dataclass(frozen=True, eq=False)
class ResultMatrix:
    """Scores with datasets as rows (blocks) and algorithms as columns."""

    values: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("values must be a matrix")
        n, k = values.shape
        if n < 2 or k < 2:
            raise ValueError("need at least two rows and two columns")
        if len(self.row_labels) != n or len(self.col_labels) != k:
            raise ValueError("labels must match the matrix shape")
        if not np.all(np.isfinite(values)):
            raise ValueError("missing or non-finite entries")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))

    def _index(self, label: str) -> int:
        try:
            return self.col_labels.index(label)
        except ValueError:
            raise KeyError(f"no column named {label!r}") from None

    def column(self, label: str) -> np.ndarray:
        return self.values[:, self._index(label)]

    def select_columns(self, labels) -> "ResultMatrix":
        idx = [self._index(lbl) for lbl in labels]
        return ResultMatrix(
            values=self.values[:, idx],
            row_labels=self.row_labels,
            col_labels=tuple(labels),
        )

    @classmethod
    def from_csv(cls, path) -> "ResultMatrix":
        with open(path, newline="", encoding="utf-8") as handle:
            rows = [row for row in csv.reader(handle) if row and any(c.strip() for c in row)]
        if len(rows) < 3 or len(rows[0]) < 3:
            raise ValueError(f"{path}: need a header plus a >=2x>=2 labeled matrix")
        col_labels = tuple(cell.strip() for cell in rows[0][1:])
        row_labels = []
        values = []
        for row in rows[1:]:
            if len(row) != len(col_labels) + 1:
                raise ValueError(f"{path}: ragged row {row[0]!r}")
            row_labels.append(row[0].strip())
            try:
                values.append([float(cell) for cell in row[1:]])
            except ValueError as exc:
                raise ValueError(f"{path}: non-numeric cell in row {row[0]!r}") from exc
        return cls(values=np.array(values), row_labels=tuple(row_labels), col_labels=col_labels)


@dataclass(frozen=True)
class TestReport:
    statistic: float
    p_value: float
    avg_ranks: tuple[float, ...] | None = None
    rank_labels: tuple[str, ...] | None = None
    method: str = ""


def chi_square_sf(x: float, dof: int) -> float:
    """Upper-tail chi-square probability via the regularized incomplete gamma."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if x < 0:
        raise ValueError("x must be non-negative")
    return float(gammaincc(dof / 2.0, x / 2.0))


def friedman(results: ResultMatrix, direction: str = "higher", form: str = "chi2") -> TestReport:
    """Rank the columns within each row and test whether their mean ranks differ.

    direction="higher" gives rank 1 to the largest value per row (mid-ranks
    for ties), "lower" to the smallest. form="chi2" takes the p-value from
    the chi-square distribution with k-1 degrees of freedom; form
    "iman_davenport" applies the F-distribution transform instead. A matrix
    of constant rows yields statistic 0 and p-value 1.
    """
    if direction not in ("higher", "lower"):
        raise ValueError("direction must be 'higher' or 'lower'")
    if form not in ("chi2", "iman_davenport"):
        raise ValueError("form must be 'chi2' or 'iman_davenport'")
    values = results.values
    n, k = values.shape
    signed = -values if direction == "higher" else values
    ranks = np.vstack([rankdata(row) for row in signed])
    rank_sums = ranks.sum(axis=0)
    statistic = 12.0 / (n * k * (k + 1)) * float(np.sum(rank_sums**2)) - 3.0 * n * (k + 1)
    statistic = max(statistic, 0.0)
    if form == "chi2":
        p = chi_square_sf(statistic, k - 1)
        method = "friedman chi-square"
    else:
        denom = n * (k - 1) - statistic
        if denom <= 0.0:
            p = 0.0
        else:
            f_stat = (n - 1) * statistic / denom
            p = _f_sf(f_stat, k - 1, (n - 1) * (k - 1))
        method = "friedman iman-davenport"
    return TestReport(
        statistic=statistic,
        p_value=p,
        avg_ranks=tuple(float(s) / n for s in rank_sums),
        rank_labels=results.col_labels,
        method=method,
    )


def _f_sf(f: float, d1: int, d2: int) -> float:
    """F-distribution upper tail via the regularized incomplete beta."""
    if f <= 0.0:
        return 1.0
    x = d2 / (d2 + d1 * f)
    return float(betainc(d2 / 2.0, d1 / 2.0, x))


def _exact_signed_rank_p(ranks: np.ndarray, w: float) -> float:
    """Two-sided p by enumerating all sign assignments of the ranked
    differences: P(W+ <= w) + P(W+ >= S - w), computed with integer counts
    over doubled ranks so mid-ranks stay exact."""
    doubled = [int(round(2.0 * r)) for r in ranks]
    total_doubled = sum(doubled)
    counts = np.zeros(total_doubled + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts = counts + shifted
    w2 = int(round(2.0 * w))
    below = int(counts[: w2 + 1].sum())
    above = int(counts[total_doubled - w2 :].sum())
    return min(1.0, (below + above) / 2.0 ** len(doubled))


def wilcoxon_signed_rank(a, b, decimals: int = 9) -> TestReport:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Differences are rounded to `decimals` places, zeros dropped, absolute
    values mid-ranked; the statistic is W = min(W+, W-). Exact enumeration is
    used up to 20 nonzero pairs, a tie- and continuity-corrected normal
    approximation beyond. All-zero differences leave the test undefined,
    reported as statistic/p-value NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be matching 1-D vectors")
    diffs = np.round(a - b, decimals)
    diffs = diffs[diffs != 0.0]
    m = diffs.size
    if m == 0:
        return TestReport(
            statistic=math.nan,
            p_value=math.nan,
            method="wilcoxon signed-rank: undefined, all differences zero",
        )
    if m < 5:
        raise ValueError(f"only {m} nonzero differences; need at least 5")
    ranks = rankdata(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    w = min(w_plus, w_minus)
    if m <= EXACT_WILCOXON_LIMIT:
        p = _exact_signed_rank_p(ranks, w)
        method = f"wilcoxon signed-rank: exact, m={m}"
    else:
        mean = m * (m + 1) / 4.0
        _, tie_counts = np.unique(ranks, return_counts=True)
        tie_term = float(np.sum(tie_counts**3 - tie_counts)) / 48.0
        sigma = math.sqrt(m * (m + 1) * (2 * m + 1) / 24.0 - tie_term)
        z = (w - mean + 0.5) / sigma
        p = min(1.0, 2.0 * float(ndtr(z)))
        method = f"wilcoxon signed-rank: normal approximation, m={m}"
    return TestReport(statistic=w, p_value=p, method=method)
