import itertools
import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps
from scipy.stats import rankdata

from aeknn.cli import _matrix_csv
from aeknn.stats import (
    ResultMatrix,
    chi_square_sf,
    friedman,
    wilcoxon_signed_rank,
)
from aeknn.tables import available_tables, load_reference


def matrix(values, prefix="col"):
    values = np.asarray(values, dtype=float)
    return ResultMatrix(
        values=values,
        row_labels=tuple(f"row{i}" for i in range(values.shape[0])),
        col_labels=tuple(f"{prefix}{j}" for j in range(values.shape[1])),
    )


class TestResultMatrix:
    def test_csv_round_trip(self, tmp_path):
        # written by the one writer of the matrix format, `aeknn eval`'s
        m = matrix(np.random.default_rng(0).uniform(size=(4, 3)))
        cells = {
            (row, col): {"status": "ok", "metrics": {"accuracy": m.values[i, j]}}
            for i, row in enumerate(m.row_labels)
            for j, col in enumerate(m.col_labels)
        }
        path = tmp_path / "m.csv"
        path.write_text(
            _matrix_csv(m.row_labels, m.col_labels, cells, "accuracy"), encoding="utf-8"
        )
        loaded = ResultMatrix.from_csv(path)
        assert loaded.row_labels == m.row_labels
        assert loaded.col_labels == m.col_labels
        assert np.array_equal(loaded.values, m.values)

    def test_rejects_single_column(self):
        with pytest.raises(ValueError):
            matrix(np.zeros((4, 1)))

    def test_rejects_missing_entries(self):
        values = np.ones((3, 2))
        values[1, 1] = np.nan
        with pytest.raises(ValueError):
            matrix(values)

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dataset,a,b\nrow0,1.0\nrow1,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="ragged"):
            ResultMatrix.from_csv(path)
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("dataset,a,b\nrow0,1.0,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="labeled matrix"):
            ResultMatrix.from_csv(tiny)

    def test_column_selection(self):
        m = matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        sub = m.select_columns(["col2", "col0"])
        assert sub.col_labels == ("col2", "col0")
        assert sub.values.tolist() == [[3.0, 1.0], [6.0, 4.0]]
        with pytest.raises(KeyError, match="no column named 'nope'"):
            m.select_columns(["col0", "nope"])


class TestFriedman:
    def test_dominant_column_gets_rank_one(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(size=(6, 4))
        base[:, 2] += 10.0
        report = friedman(matrix(base), direction="higher")
        assert report.avg_ranks[2] == 1.0

    def test_average_ranks_sum_to_expected_total(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(2, 7))
            values = np.round(rng.uniform(size=(n, k)), 2)
            report = friedman(matrix(values))
            assert abs(sum(report.avg_ranks) - k * (k + 1) / 2) < 1e-10

    def test_invariant_under_monotone_row_transforms(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(size=(5, 4))
        base = friedman(matrix(values))
        warped = np.exp(3.0 * values)  # strictly increasing
        report = friedman(matrix(warped))
        assert report.statistic == base.statistic
        assert report.avg_ranks == base.avg_ranks

    def test_constant_rows_are_degenerate(self):
        values = np.tile([[1.0, 1.0, 1.0]], (4, 1))
        report = friedman(matrix(values))
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_lower_is_better_direction(self):
        values = np.array([[1.0, 2.0], [1.0, 3.0], [2.0, 5.0]])
        report = friedman(matrix(values), direction="lower")
        assert report.avg_ranks[0] == 1.0

    def test_iman_davenport_form_is_smaller_when_significant(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(size=(10, 4))
        values[:, 0] += 0.5
        chi2_p = friedman(matrix(values), form="chi2").p_value
        id_p = friedman(matrix(values), form="iman_davenport").p_value
        assert 0.0 <= id_p <= 1.0 and 0.0 <= chi2_p <= 1.0
        assert id_p != chi2_p


class TestChiSquareSf:
    def test_at_zero(self):
        assert chi_square_sf(0.0, 3) == 1.0

    def test_median_approximation_for_large_dof(self):
        assert abs(chi_square_sf(100.0, 100) - 0.5) < 0.02

    def test_textbook_value(self):
        assert abs(chi_square_sf(3.84, 1) - 0.05) < 1e-3

    def test_against_numeric_integration_oracle(self):
        for dof in (1, 2, 5, 10):
            for x in (0.5, 2.0, 7.3, 15.0):
                def pdf(t, v=dof):
                    return t ** (v / 2 - 1) * math.exp(-t / 2) / (
                        2 ** (v / 2) * math.gamma(v / 2)
                    )

                expected, _ = integrate.quad(pdf, x, np.inf, limit=200)
                assert abs(chi_square_sf(x, dof) - expected) < 1e-10

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chi_square_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)


def brute_force_wilcoxon(diffs):
    """Enumerate every sign assignment over the ranked absolute differences."""
    diffs = np.asarray(diffs, float)
    diffs = diffs[diffs != 0.0]
    ranks = rankdata(np.abs(diffs))
    w_plus = ranks[diffs > 0].sum()
    w_minus = ranks[diffs < 0].sum()
    w = min(w_plus, w_minus)
    total = ranks.sum()
    count = 0
    for signs in itertools.product((0, 1), repeat=len(ranks)):
        assigned = sum(r for r, s in zip(ranks, signs) if s)
        if assigned <= w or (total - assigned) <= w:
            count += 1
    return min(1.0, count / 2.0 ** len(ranks))


class TestWilcoxon:
    def test_exact_matches_brute_force_enumeration_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            m = int(rng.integers(5, 13))
            a = np.round(rng.uniform(size=m), 2)
            b = np.round(rng.uniform(size=m), 2)
            diffs = np.round(a - b, 9)
            if np.count_nonzero(diffs) < 5:
                continue
            report = wilcoxon_signed_rank(a, b)
            assert report.p_value == brute_force_wilcoxon(diffs)

    def test_antisymmetry(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(size=10)
        b = rng.uniform(size=10)
        assert wilcoxon_signed_rank(a, b).p_value == wilcoxon_signed_rank(b, a).p_value

    def test_identical_samples_are_undefined(self):
        a = np.array([0.1, 0.5, 0.9, 0.3, 0.7])
        report = wilcoxon_signed_rank(a, a.copy())
        assert math.isnan(report.p_value)
        assert "undefined" in report.method

    def test_too_few_nonzero_differences(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = np.array([1.0, 2.0, 3.0, 4.0, 5.5])
        with pytest.raises(ValueError, match="nonzero differences"):
            wilcoxon_signed_rank(a, b)

    def test_difference_rounding_restores_decimal_ties(self):
        # 0.897 - 0.898 and 0.891 - 0.890 differ only by float noise; they
        # must tie after rounding, giving mid-ranks 1.5/1.5 rather than 1/2
        a = np.array([0.897, 0.891, 0.95, 0.90, 0.85, 0.80])
        b = np.array([0.898, 0.890, 0.90, 0.84, 0.78, 0.72])
        report = wilcoxon_signed_rank(a, b)
        diffs = np.round(a - b, 9)
        ranks = rankdata(np.abs(diffs))
        assert ranks[0] == 1.5 and ranks[1] == 1.5
        assert report.p_value == brute_force_wilcoxon(diffs)

    def test_normal_approximation_close_to_exact_beyond_cutoff(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(size=24)
        b = a + rng.normal(0.05, 0.1, size=24)
        report = wilcoxon_signed_rank(a, b)
        assert "normal approximation" in report.method
        # exact reference via the internal enumeration on the same ranks
        from aeknn.stats import _exact_signed_rank_p

        diffs = np.round(a - b, 9)
        diffs = diffs[diffs != 0]
        ranks = rankdata(np.abs(diffs))
        w = min(ranks[diffs > 0].sum(), ranks[diffs < 0].sum())
        assert abs(report.p_value - _exact_signed_rank_p(ranks, w)) < 0.01

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank(np.zeros(4), np.zeros(5))

    def test_exact_p_for_known_rank_configuration(self):
        # 14 distinct differences with positive ranks {1, 5}: W = 6, and the
        # exact two-sided p must be 2 * 14 / 2^14 (textbook signed-rank value)
        diffs = -np.arange(1.0, 15.0)
        diffs[0] = 1.0   # rank 1 positive
        diffs[4] = 5.0   # rank 5 positive
        report = wilcoxon_signed_rank(diffs, np.zeros(14))
        assert report.statistic == 6.0
        assert report.p_value == 28.0 / 2.0**14


def scipy_friedman(values, direction):
    """(statistic, p, average ranks) from scipy. aeknn reports the chi-square
    form without the tie correction, which scipy divides by, so scipy's
    statistic is multiplied back by that correction."""
    n, k = values.shape
    signed = -values if direction == "higher" else values
    ranks = np.vstack([rankdata(row) for row in signed])
    ties = sum(float(np.sum(t**3 - t)) for t in
               (np.unique(row, return_counts=True)[1] for row in values))
    correction = 1.0 - ties / (n * k * (k * k - 1))
    statistic = sps.friedmanchisquare(*values.T).statistic * correction
    return statistic, sps.chi2.sf(statistic, k - 1), ranks.mean(axis=0)


class TestFriedmanAgainstScipy:
    def check(self, values, direction):
        report = friedman(matrix(values), direction=direction)
        statistic, p_value, avg_ranks = scipy_friedman(values, direction)
        assert report.statistic == pytest.approx(statistic, rel=1e-12, abs=1e-12)
        assert report.p_value == pytest.approx(p_value, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(report.avg_ranks, avg_ranks, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("direction", ["higher", "lower"])
    def test_random_matrices_with_ties(self, direction):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 40:
            n = int(rng.integers(3, 16))
            k = int(rng.integers(3, 8))
            values = np.round(rng.uniform(size=(n, k)), 1)  # one decimal: many ties
            if np.all(values == values[:, :1]):
                continue  # scipy's statistic is undefined on all-constant rows
            self.check(values, direction)
            checked += 1

    @pytest.mark.parametrize("name", available_tables())
    def test_bundled_tables(self, name):
        values = load_reference(name).values
        direction = "lower" if name.endswith("_time") else "higher"
        if values.shape[1] >= 3:
            self.check(values, direction)


class TestWilcoxonAgainstScipy:
    def test_exact_below_21_pairs(self):
        """Where the definitions coincide: no zero and no tied absolute
        differences, at most 20 pairs, so scipy's exact distribution applies."""
        rng = np.random.default_rng(12)
        for n in range(5, 21):
            for _ in range(4):
                magnitudes = rng.choice(np.arange(1, 2000), size=n, replace=False) / 1000.0
                signs = rng.choice([-1.0, 1.0], size=n)
                b = np.round(rng.uniform(size=n), 3)
                a = b + signs * magnitudes
                report = wilcoxon_signed_rank(a, b)
                diffs = np.round(a - b, 9)
                assert np.all(diffs != 0) and np.unique(np.abs(diffs)).size == n
                want = sps.wilcoxon(diffs, method="exact")
                assert report.statistic == want.statistic
                assert report.p_value == pytest.approx(want.pvalue, rel=1e-9, abs=1e-15)
