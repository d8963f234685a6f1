"""Dataset container, toy generator, label noise, splits, CSV I/O."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajbound.data import (
    Dataset,
    ToyConfig,
    csv_cell,
    generate_toy,
    inject_label_noise,
    load_csv_dataset,
    noise_stream,
    split_train_holdout,
    split_stream,
    teacher_labels,
    write_csv,
)
from trajbound.errors import (
    DataParseError,
    DataSchemaError,
    InvalidArgumentError,
    TrajboundError,
)


def test_dataset_shapes_and_accessors():
    d = Dataset(np.ones((4, 3)), np.zeros(4))
    assert d.n == 4 and d.dim == 3
    assert d.features.dtype == np.float64


def test_dataset_is_immutable():
    d = Dataset(np.ones((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        d.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        d.labels[0] = 1.0


@pytest.mark.parametrize("feats,labs", [
    (np.ones(3), np.zeros(3)),            # 1-D features
    (np.ones((0, 2)), np.zeros(0)),       # empty
    (np.ones((3, 2)), np.zeros(4)),       # label length mismatch
    (np.ones((3, 2)), np.zeros((3, 1))),  # 2-D labels
])
def test_dataset_rejects_bad_shapes(feats, labs):
    with pytest.raises(InvalidArgumentError):
        Dataset(feats, labs)


def test_dataset_rejects_nonfinite_entries():
    feats = np.ones((2, 2))
    feats[0, 0] = np.nan
    with pytest.raises(InvalidArgumentError):
        Dataset(feats, np.zeros(2))
    with pytest.raises(InvalidArgumentError):
        Dataset(np.ones((2, 2)), np.array([0.0, np.inf]))


def test_toy_config_validation():
    with pytest.raises(InvalidArgumentError):
        ToyConfig(n_train=1)
    with pytest.raises(InvalidArgumentError):
        ToyConfig(n_test=0)
    with pytest.raises(InvalidArgumentError):
        ToyConfig(dim=0)


def test_generate_toy_shapes_and_label_rule():
    train, test, teacher = generate_toy(ToyConfig(50, 200, 7, seed=3))
    assert train.features.shape == (50, 7)
    assert test.features.shape == (200, 7)
    assert teacher.shape == (7,)
    # labels are exactly the half-space indicator of the teacher direction
    assert np.array_equal(train.labels, teacher_labels(train.features, teacher))
    assert np.array_equal(test.labels, teacher_labels(test.features, teacher))
    assert set(np.unique(train.labels)) <= {0.0, 1.0}


def test_teacher_labels_sign_convention():
    teacher = np.array([1.0, 0.0])
    X = np.array([[2.0, 5.0], [-3.0, 1.0], [0.0, 9.0]])
    assert np.array_equal(teacher_labels(X, teacher), [1.0, 0.0, 0.0])


def test_generate_toy_is_seed_deterministic():
    a = generate_toy(ToyConfig(10, 10, 4, seed=11))
    b = generate_toy(ToyConfig(10, 10, 4, seed=11))
    c = generate_toy(ToyConfig(10, 10, 4, seed=12))
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[2], b[2])
    assert not np.array_equal(a[0].features, c[0].features)


def test_train_and_test_draws_are_independent():
    train, test, _ = generate_toy(ToyConfig(10, 10, 4, seed=0))
    assert not np.array_equal(train.features, test.features)


def test_inject_label_noise_flips_exact_count():
    train, _, _ = generate_toy(ToyConfig(40, 10, 5, seed=1))
    for frac, expect in [(0.1, 4), (0.25, 10), (0.5, 20)]:
        flipped = inject_label_noise(train, frac, noise_stream(7))
        changed = int(np.sum(flipped.labels != train.labels))
        assert changed == expect
    # features are untouched
    assert np.array_equal(flipped.features, train.features)


def test_inject_label_noise_zero_fraction_is_identity():
    train, _, _ = generate_toy(ToyConfig(10, 10, 3, seed=1))
    same = inject_label_noise(train, 0.0, noise_stream(7))
    assert np.array_equal(same.labels, train.labels)


def test_inject_label_noise_is_deterministic_per_seed():
    train, _, _ = generate_toy(ToyConfig(30, 10, 3, seed=2))
    a = inject_label_noise(train, 0.2, noise_stream(5))
    b = inject_label_noise(train, 0.2, noise_stream(5))
    c = inject_label_noise(train, 0.2, noise_stream(6))
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.labels, c.labels)


def test_inject_label_noise_validation():
    train, _, _ = generate_toy(ToyConfig(10, 10, 3, seed=0))
    with pytest.raises(InvalidArgumentError):
        inject_label_noise(train, 1.5, noise_stream(0))
    nonbinary = Dataset(train.features, train.labels + 0.5)
    with pytest.raises(InvalidArgumentError):
        inject_label_noise(nonbinary, 0.1, noise_stream(0))


def test_split_train_holdout_partitions_rows():
    data = Dataset(np.arange(40.0).reshape(20, 2), np.arange(20.0))
    s, sp = split_train_holdout(data, 0.3, split_stream(4))
    assert s.n == 14 and sp.n == 6
    # every original row appears exactly once across the two sides
    all_labels = np.sort(np.concatenate([s.labels, sp.labels]))
    assert np.array_equal(all_labels, np.arange(20.0))
    # rows keep their feature-label pairing
    for side in (s, sp):
        for i in range(side.n):
            assert side.features[i, 0] == 2 * side.labels[i]


def test_split_train_holdout_determinism_and_validation():
    data = Dataset(np.random.default_rng(0).standard_normal((12, 2)), np.zeros(12))
    a = split_train_holdout(data, 0.5, split_stream(9))
    b = split_train_holdout(data, 0.5, split_stream(9))
    assert np.array_equal(a[0].features, b[0].features)
    with pytest.raises(InvalidArgumentError):
        split_train_holdout(data, 0.0, split_stream(0))
    with pytest.raises(InvalidArgumentError):
        split_train_holdout(data, 1.0, split_stream(0))
    tiny = Dataset(np.ones((2, 1)), np.zeros(2))
    with pytest.raises(InvalidArgumentError):
        split_train_holdout(tiny, 0.1, split_stream(0))


def test_load_csv_dataset_roundtrip(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,y,b\n1,0,2\n3,1,4\n\n5,0,6\n")
    d = load_csv_dataset(str(p), "y")
    assert d.n == 3 and d.dim == 2
    assert np.array_equal(d.features, [[1, 2], [3, 4], [5, 6]])
    assert np.array_equal(d.labels, [0, 1, 0])


def test_load_csv_dataset_schema_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataSchemaError):
        load_csv_dataset(str(empty), "y")

    missing = tmp_path / "missing.csv"
    missing.write_text("a,b\n1,2\n")
    with pytest.raises(DataSchemaError, match="label column"):
        load_csv_dataset(str(missing), "y")

    only_label = tmp_path / "only.csv"
    only_label.write_text("y\n1\n")
    with pytest.raises(DataSchemaError, match="no feature columns"):
        load_csv_dataset(str(only_label), "y")

    header_only = tmp_path / "header.csv"
    header_only.write_text("a,y\n")
    with pytest.raises(DataSchemaError, match="no data rows"):
        load_csv_dataset(str(header_only), "y")

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,y\n1,2,3\n")
    with pytest.raises(DataSchemaError, match="row 1"):
        load_csv_dataset(str(ragged), "y")


def test_load_csv_dataset_skips_a_utf8_byte_order_mark(tmp_path):
    # a spreadsheet's UTF-8 export starts with U+FEFF, which is not part of
    # the first column's name
    p = tmp_path / "bom.csv"
    p.write_bytes("y,a,b\n0,1,2\n1,3,4\n".encode("utf-8-sig"))
    d = load_csv_dataset(str(p), "y")
    assert np.array_equal(d.features, [[1, 2], [3, 4]])
    assert np.array_equal(d.labels, [0, 1])


def test_load_csv_dataset_rejects_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes("caf\u00e9,y\n1,0\n2,1\n".encode("latin-1"))
    with pytest.raises(DataSchemaError, match="not UTF-8"):
        load_csv_dataset(str(p), "y")


def test_load_csv_dataset_names_unparseable_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,y\n1,0\nx7,1\n")
    with pytest.raises(DataParseError) as exc:
        load_csv_dataset(str(p), "y")
    assert exc.value.row == 2
    assert exc.value.column == "a"
    assert exc.value.value == "x7"


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN ", "1e400"])
@pytest.mark.parametrize("column", ["a", "y"])
def test_load_csv_dataset_names_a_cell_that_is_not_finite(tmp_path, cell, column):
    # float() parses these; the loader must still name the row and column
    p = tmp_path / "nonfinite.csv"
    row = f"{cell},1" if column == "a" else f"2,{cell}"
    p.write_text(f"a,y\n1,0\n{row}\n")
    with pytest.raises(DataParseError) as exc:
        load_csv_dataset(str(p), "y")
    assert (exc.value.row, exc.value.column, exc.value.value) == (2, column, cell.strip())
    assert "finite number" in str(exc.value)


@pytest.mark.parametrize("header", ["a,y,y", "y,a,y", "a,a,y", "a,y,b,a"])
def test_load_csv_dataset_rejects_a_header_that_names_a_column_twice(tmp_path, header):
    p = tmp_path / "twice.csv"
    width = header.count(",") + 1
    p.write_text(header + "\n" + ",".join(["1"] * width) + "\n")
    repeated = next(h for h in header.split(",") if header.split(",").count(h) > 1)
    with pytest.raises(DataSchemaError, match=f"names column '{repeated}' more than once"):
        load_csv_dataset(str(p), "y")


def test_load_csv_dataset_maps_a_csv_module_error_to_a_schema_error(tmp_path):
    # the csv module caps a field at 131 072 characters and raises its own
    # csv.Error past that; the loader names the file and the row instead
    p = tmp_path / "wide.csv"
    p.write_text("a,y\n1,0\n" + "7" * 131_073 + ",1\n")
    with pytest.raises(DataSchemaError, match=r"wide\.csv: row 2: field larger"):
        load_csv_dataset(str(p), "y")
    p.write_text("a" * 131_073 + ",y\n1,0\n")
    with pytest.raises(DataSchemaError, match="header row: field larger"):
        load_csv_dataset(str(p), "y")


CSV_ISH = st.text(alphabet='ay,"\n\r 0123456789.e-+x\t\0', max_size=120)


@settings(max_examples=200, deadline=None)
@given(raw=st.binary(max_size=200) | CSV_ISH.map(lambda s: ("a,y\n" + s).encode()))
def test_load_csv_dataset_returns_a_dataset_or_a_package_error(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            d = load_csv_dataset(path, "y")
        except TrajboundError:
            return
    assert isinstance(d, Dataset) and d.n >= 1 and d.dim >= 1


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_csv_cell_round_trips_every_finite_float(x):
    assert float(csv_cell(x)) == x
    assert csv_cell(np.float64(x)) == csv_cell(x)


@given(st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1), st.text())
def test_csv_cell_renders_integers_none_and_text_verbatim(i, j, text):
    assert csv_cell(i) == str(i)
    assert csv_cell(np.int64(j)) == str(j)
    assert csv_cell(None) == ""
    assert csv_cell(text) == text


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("a", "b", "c"), [[1, 0.5, None], ["mean", math.inf, 2]])
    assert path.read_bytes() == b"a,b,c\n1,0.5,\nmean,inf,2\n"
