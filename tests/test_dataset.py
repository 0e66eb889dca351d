import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeknn.dataset import (
    Dataset,
    FoldPlan,
    NormalizationStats,
    fit_normalizer,
    load_csv,
    make_folds,
)

from memory import traced_peak


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_first_appearance_label_mapping(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,A\n3.0,4.0,B\n5.0,6.0,A\n")
        data = load_csv(path)
        assert data.n_classes == 2
        assert data.class_names == ("A", "B")
        assert data.labels.tolist() == [0, 1, 0]
        assert data.n_samples == 3 and data.n_features == 2

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,A\n3.0,oops,B\n")
        with pytest.raises(ValueError, match=r"row 2.*column 2"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "1.0,A\n2.0,A\n")
        with pytest.raises(ValueError, match="single-class"):
            load_csv(path)

    def test_header_and_named_label_column(self, tmp_path):
        path = write(tmp_path, "x,y,cls\n1,2,A\n3,4,B\n")
        data = load_csv(path, label_column="cls", has_header=True)
        assert data.class_names == ("A", "B")
        assert data.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_label_column_by_index(self, tmp_path):
        path = write(tmp_path, "A,1.0,2.0\nB,3.0,4.0\n")
        data = load_csv(path, label_column=0)
        assert data.class_names == ("A", "B")
        assert data.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_non_finite_value_rejected(self, tmp_path):
        path = write(tmp_path, "1.0,A\ninf,B\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,A\n3.0,B\n")
        with pytest.raises(ValueError, match="columns"):
            load_csv(path)

    def test_dataset_name_defaults_to_stem(self, tmp_path):
        path = write(tmp_path, "1,A\n2,B\n", name="segment.csv")
        assert load_csv(path).name == "segment"

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one
        path = write(tmp_path, "\ufeff1.0,2.0,A\n3.0,4.0,B\n")
        data = load_csv(path)
        assert data.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert data.class_names == ("A", "B")

    def test_leading_byte_order_mark_leaves_the_first_column_name(self, tmp_path):
        path = write(tmp_path, "\ufeffcls,x,y\nA,1,2\nB,3,4\n")
        data = load_csv(path, label_column="cls", has_header=True)
        assert data.class_names == ("A", "B")
        assert data.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def per_cell_reference(path, label_idx, has_header):
    """The loader as it was before vectorizing: strip every cell, then
    `float` each feature cell; returns (features, label cells)."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if row and any(c.strip() for c in row)]
    rows = rows[1:] if has_header else rows
    features = [[float(c.strip()) for j, c in enumerate(row) if j != label_idx] for row in rows]
    return np.array(features, dtype=np.float64), [row[label_idx].strip() for row in rows]


class TestLoadCsvAgainstPerCellFloat:
    @staticmethod
    def cell_texts(rng, n):
        """Feature cells in many spellings float() accepts."""
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        values[:6] = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1]
        spellings = [
            repr,
            lambda v: f"{v:.17g}",
            lambda v: f"{v:.3e}",
            lambda v: f"  {v!r} ",
            lambda v: f"\t{v!r}",
            lambda v: f'"{v!r}"',
            lambda v: f'" {v!r}\t"',
            lambda v: f"\u00a0{v!r}\u2003",
        ]
        cells = [spellings[i % len(spellings)](v) for i, v in enumerate(values.tolist())]
        return cells + ["1_0", "7", "+3.5", ".5", "5.", "1E3", "-0", " 1.0 "]

    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize("label_idx", [0, 2, 5])
    def test_features_bitwise_equal(self, tmp_path, has_header, label_idx):
        rng = np.random.default_rng(label_idx + 10 * has_header)
        cells = self.cell_texts(rng, 5 * 64 - 8)
        rows = [cells[i:i + 5] for i in range(0, len(cells), 5)]
        lines = ["a,b,c,d,e,cls"] if has_header else []
        for i, row in enumerate(rows):
            label = ["A", " B ", '"C"'][i % 3]
            lines.append(",".join(row[:label_idx] + [label] + row[label_idx:]))
            if i % 7 == 0:
                lines.append("")
        path = write(tmp_path, "\n".join(lines) + "\n")
        data = load_csv(path, label_column=label_idx, has_header=has_header)
        features, label_cells = per_cell_reference(path, label_idx, has_header)
        assert data.features.shape == (len(rows), 5)
        assert data.features.tobytes() == features.tobytes()
        assert data.class_names == ("A", "B", "C")
        assert [data.class_names[i] for i in data.labels] == label_cells

    def test_named_label_column(self, tmp_path):
        path = write(tmp_path, "x, cls ,y\n 1.5 ,A,2\n3,B, 4e0\n")
        data = load_csv(path, label_column="cls", has_header=True)
        assert data.features.tolist() == [[1.5, 2.0], [3.0, 4.0]]
        assert data.class_names == ("A", "B")


class TestLoadCsvErrors:
    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("oops,C", "non-numeric value 'oops' at row {line}, column 1"),
            (" oops ,C", "non-numeric value 'oops' at row {line}, column 1"),
            (",C", "non-numeric value '' at row {line}, column 1"),
            ("0x10,C", "non-numeric value '0x10' at row {line}, column 1"),
            ("nan,C", "non-finite value at row {line}, column 1"),
            ("-inf,C", "non-finite value at row {line}, column 1"),
            ("1.0,2.0,C", "row {line} has 3 columns, expected 2"),
            ("1.0, ", "empty label at row {line}"),
        ],
    )
    def test_message_names_the_file_line(self, tmp_path, has_header, bad_row, message):
        # two blank lines sit before the bad row, which is on file line 5 (6 with a header)
        text = ("x,cls\n" if has_header else "") + f"1.0,A\n\n\n2.0,B\n{bad_row}\n3.0,A\n"
        path = write(tmp_path, text)
        with pytest.raises(ValueError) as info:
            load_csv(path, has_header=has_header)
        assert str(info.value) == f"{path}: " + message.format(line=5 + has_header)

    @pytest.mark.parametrize(
        "label_idx, bad_row, column",
        [
            (0, "B,1.0,oops", 3),
            (0, "B,oops,1.0", 2),
            (1, "oops,B,1.0", 1),
            (1, "1.0,B,oops", 3),
            (2, "1.0,oops,B", 2),
        ],
    )
    def test_column_counts_the_label_column(self, tmp_path, label_idx, bad_row, column):
        good = ["A", "1.0", "2.0"]
        good.insert(label_idx, good.pop(0))
        path = write(tmp_path, ",".join(good) + "\n" + bad_row + "\n")
        with pytest.raises(ValueError, match=rf"'oops' at row 2, column {column}$"):
            load_csv(path, label_column=label_idx)
        inf_path = write(tmp_path, ",".join(good) + "\n" + bad_row.replace("oops", "inf") + "\n",
                         name="inf.csv")
        with pytest.raises(ValueError, match=rf"non-finite value at row 2, column {column}$"):
            load_csv(inf_path, label_column=label_idx)

    def test_first_bad_cell_of_the_row_is_named(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,3.0,A\n4.0,x,y,B\n")
        with pytest.raises(ValueError, match=r"'x' at row 2, column 2$"):
            load_csv(path)


    @pytest.mark.parametrize(
        "later_row, message",
        [
            ("1.0,x,B", "non-numeric value 'x' at row 3, column 2"),
            ("1.0,B", "row 3 has 2 columns, expected 3"),
            ("1.0,2.0, ", "empty label at row 3"),
        ],
    )
    def test_a_parse_error_on_a_later_row_beats_an_earlier_non_finite_cell(
        self, tmp_path, later_row, message
    ):
        # non-finite cells are looked for only once every row has parsed
        path = write(tmp_path, f"1.0,2.0,A\nnan,2.0,A\n{later_row}\n")
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_an_earlier_bad_cell_beats_a_reader_error_on_a_later_line(self, tmp_path):
        # rows are checked as csv.reader reads them, so the field over the
        # reader's size limit on line 3 is never reached
        long_field = "1" * (csv.field_size_limit() + 1)
        path = write(tmp_path, f"1.0,A\nx,B\n{long_field},A\n")
        with pytest.raises(ValueError, match=r"non-numeric value 'x' at row 2, column 1$"):
            load_csv(path)


class TestLoadCsvMemory:
    def test_cells_are_parsed_into_one_float64_buffer(self, tmp_path):
        # 2000 x 150 features (2.3 MiB); a Python string per cell, kept
        # until the file ends, once took about ten times the matrix
        rng = np.random.default_rng(22)
        features = rng.random((2000, 150))
        path = write(tmp_path, "".join(
            ",".join(map(repr, row)) + f",c{i % 3}\n" for i, row in enumerate(features.tolist())
        ))
        assert traced_peak(lambda: load_csv(path)) < 2 * features.nbytes + 2**20
        assert load_csv(path).features.tobytes() == features.tobytes()


class TestDatasetInvariants:
    def test_label_mapping_is_bijection(self, tmp_path):
        path = write(tmp_path, "1,z\n2,y\n3,x\n4,y\n")
        data = load_csv(path)
        assert sorted(np.unique(data.labels)) == list(range(data.n_classes))
        assert len(set(data.class_names)) == data.n_classes

    def test_features_are_immutable(self):
        data = Dataset(
            features=np.array([[1.0], [2.0]]),
            labels=np.array([0, 1]),
            class_names=("a", "b"),
        )
        with pytest.raises(ValueError):
            data.features[0, 0] = 9.0

    def test_subset_keeps_indices_and_classes(self):
        data = Dataset(
            features=np.arange(8.0).reshape(4, 2),
            labels=np.array([0, 1, 0, 1]),
            class_names=("a", "b"),
        )
        view = data.subset([2, 0])
        assert view.indices.tolist() == [2, 0]
        assert view.labels.tolist() == [0, 0]
        assert view.class_names == ("a", "b")


class TestNormalizer:
    def test_min_max_of_plain_column(self):
        stats = fit_normalizer(np.array([[2.0], [4.0], [6.0]]))
        assert stats.minimum[0] == 2.0 and stats.maximum[0] == 6.0

    def test_constant_column_maps_to_zero(self):
        stats = fit_normalizer(np.array([[5.0], [5.0], [5.0]]))
        assert stats.minimum[0] == 5.0 and stats.maximum[0] == 6.0
        assert np.all(stats.apply(np.array([[5.0], [5.0]])) == 0.0)

    def test_subset_fit_then_clamp(self):
        matrix = np.array([[0.0], [10.0], [100.0]])
        stats = fit_normalizer(matrix[:2])
        assert stats.minimum[0] == 0.0 and stats.maximum[0] == 10.0
        # row 2 maps to 10 before clamping and is clamped to 1
        raw = (matrix[2] - stats.minimum) / (stats.maximum - stats.minimum)
        assert raw[0] == 10.0
        assert stats.apply(matrix)[2, 0] == 1.0

    def test_endpoint_and_midpoint_values(self):
        stats = fit_normalizer(np.array([[2.0], [6.0]]))
        out = stats.apply(np.array([[2.0], [6.0], [4.0]]))
        assert out.tolist() == [[0.0], [1.0], [0.5]]

    def test_in_place_output_has_the_same_bits(self):
        rng = np.random.default_rng(3)
        train = rng.normal(size=(50, 7)) * 1e3
        stats = fit_normalizer(train)
        matrix = rng.normal(size=(40, 7)) * 2e3  # some rows fall outside and clip
        expected = stats.apply(matrix)
        written = stats.apply(matrix, out=matrix)
        assert written is matrix
        assert written.tobytes() == expected.tobytes()

    def test_feature_count_mismatch(self):
        stats = fit_normalizer(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError, match="feature"):
            stats.apply(np.zeros((3, 3)))

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_normalizer(np.zeros((0, 2)))

    def test_apply_maps_a_dataset_into_unit_range(self):
        data = Dataset(
            features=np.array([[0.0, 10.0], [4.0, 30.0]]),
            labels=np.array([0, 1]),
            class_names=("a", "b"),
        )
        out = fit_normalizer(data.features).apply(data.features)
        assert out.min() >= 0.0 and out.max() <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=12,
            unique=True,
        )
    )
    def test_round_trip_within_fitted_range(self, column):
        values = np.array(column)[:, None]
        stats = fit_normalizer(values)
        # the inverse map, written here: nothing in the package needs it
        recovered = stats.apply(values) * (stats.maximum - stats.minimum) + stats.minimum
        # relative to the feature's own scale: a value tiny against the fitted
        # range cannot survive the subtraction in any floating-point scheme
        scale = np.maximum(np.abs(values), stats.maximum - stats.minimum)
        assert np.all(np.abs(recovered - values) / scale < 1e-12)


def two_class_dataset(n_per_class, n_features=3, seed=0):
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    return Dataset(
        features=rng.normal(size=(n, n_features)),
        labels=np.repeat([0, 1], n_per_class),
        class_names=("a", "b"),
    )


class TestFoldPlan:
    def test_five_folds_of_two_balanced_classes(self):
        data = two_class_dataset(5)
        plan = make_folds(data, repetitions=1, k_folds=5, seed=1)
        for fold in range(5):
            idx = plan.test_indices(0, fold)
            assert idx.size == 2
            assert sorted(data.labels[idx]) == [0, 1]

    def test_same_seed_is_deterministic(self):
        data = two_class_dataset(20)
        a = make_folds(data, 2, 5, seed=9)
        b = make_folds(data, 2, 5, seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert make_folds(data, 2, 5, seed=10).fingerprint() != a.fingerprint()

    def test_2310_samples_give_462_per_test_fold(self):
        rng = np.random.default_rng(3)
        data = Dataset(
            features=rng.normal(size=(2310, 4)),
            labels=np.repeat(np.arange(7), 330),
            class_names=tuple("abcdefg"),
        )
        plan = make_folds(data, 2, 5, seed=0)
        splits = list(plan.iter_splits())
        assert len(splits) == 10
        for _, _, train_idx, test_idx in splits:
            assert test_idx.size == 462
            assert train_idx.size == 2310 - 462

    def test_disjoint_and_covering_per_repetition(self):
        data = two_class_dataset(13)
        plan = make_folds(data, 2, 5, seed=4)
        for rep in range(plan.repetitions):
            seen = np.concatenate([plan.test_indices(rep, f) for f in range(5)])
            assert sorted(seen) == list(range(data.n_samples))

    def test_stratification_bound(self):
        rng = np.random.default_rng(5)
        labels = np.concatenate([np.zeros(23), np.ones(11), np.full(7, 2)]).astype(int)
        data = Dataset(
            features=rng.normal(size=(labels.size, 2)),
            labels=labels,
            class_names=("a", "b", "c"),
        )
        plan = make_folds(data, 3, 5, seed=6)
        counts = np.bincount(labels)
        for rep in range(plan.repetitions):
            for fold in range(5):
                idx = plan.test_indices(rep, fold)
                for c in range(3):
                    got = int(np.sum(labels[idx] == c))
                    assert abs(got - counts[c] / 5) <= 1

    def test_small_class_rejected(self):
        data = two_class_dataset(3)
        with pytest.raises(ValueError, match="fewer than"):
            make_folds(data, 1, 5, seed=0)

    def test_sidecar_round_trip(self, tmp_path):
        data = two_class_dataset(10)
        plan = make_folds(data, 2, 5, seed=11)
        path = tmp_path / "plan.txt"
        path.write_text(plan.to_text(), encoding="utf-8")
        loaded = FoldPlan.load_text(path)
        assert np.array_equal(loaded.assignments, plan.assignments)
        assert loaded.n_folds == plan.n_folds
        assert loaded.fingerprint() == plan.fingerprint()
