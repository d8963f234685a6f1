"""Dataset container, toy generator, label noise, CSV output."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajbound.data import (
    Dataset,
    ToyConfig,
    csv_cell,
    generate_toy,
    inject_label_noise,
    noise_stream,
    teacher_labels,
    write_csv,
)
from trajbound.errors import InvalidArgumentError


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
