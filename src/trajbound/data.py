"""Datasets: the synthetic teacher-sign task, label noise, and CSV output.

The toy task draws x ~ N(0, I_d) and a fixed teacher direction w_t ~ N(0, I_d),
then labels y = 1 if w_t'x > 0 else 0. Train and test sets come from disjoint
RNG substreams of the same master seed. The test set doubles as the holdout
S' on which the package estimates population quantities everywhere a true
data distribution would be needed.

write_csv is the one CSV writer of the package: every output table, from
trajectory.csv to bounds.csv and the experiment tables, goes through it and
its cell formatter csv_cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .numerics import (
    STREAM_NOISE,
    STREAM_TEACHER,
    STREAM_TEST_X,
    STREAM_TRAIN_X,
    RngStream,
)


@dataclass(frozen=True)
class Dataset:
    """n x d feature matrix with a length-n label vector."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise InvalidArgumentError(
                f"features must be a nonempty 2-D matrix, got shape {feats.shape}"
            )
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise InvalidArgumentError(
                f"labels length {labs.shape} does not match {feats.shape[0]} rows"
            )
        if not np.all(np.isfinite(feats)) or not np.all(np.isfinite(labs)):
            raise InvalidArgumentError("dataset entries must all be finite")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ToyConfig:
    n_train: int = 100
    n_test: int = 1000
    dim: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.n_train < 2:
            raise InvalidArgumentError(f"n_train must be >= 2, got {self.n_train}")
        if self.n_test < 1:
            raise InvalidArgumentError(f"n_test must be >= 1, got {self.n_test}")
        if self.dim < 1:
            raise InvalidArgumentError(f"dim must be >= 1, got {self.dim}")


def teacher_labels(features: np.ndarray, teacher: np.ndarray) -> np.ndarray:
    """Binary labels from the teacher direction: 1 where w_t'x > 0, else 0.

    Ties at exactly zero map to 0 (measure zero under the Gaussian draw).
    """
    return (features @ teacher > 0.0).astype(np.float64)


def generate_toy(cfg: ToyConfig) -> tuple[Dataset, Dataset, np.ndarray]:
    """Toy train/test pair plus the teacher vector that labeled them."""
    teacher = RngStream(cfg.seed, STREAM_TEACHER).generator().standard_normal(cfg.dim)
    x_train = RngStream(cfg.seed, STREAM_TRAIN_X).generator().standard_normal(
        (cfg.n_train, cfg.dim)
    )
    x_test = RngStream(cfg.seed, STREAM_TEST_X).generator().standard_normal(
        (cfg.n_test, cfg.dim)
    )
    train = Dataset(x_train, teacher_labels(x_train, teacher))
    test = Dataset(x_test, teacher_labels(x_test, teacher))
    return train, test, teacher


def inject_label_noise(data: Dataset, flip_fraction: float, rng: RngStream) -> Dataset:
    """Flip 0<->1 on exactly round(flip_fraction * n) uniformly chosen labels.

    An exact count (rather than i.i.d. coin flips) keeps sweep-to-sweep
    variance out of noise-level comparisons.
    """
    if not 0.0 <= flip_fraction <= 1.0:
        raise InvalidArgumentError(f"flip_fraction must be in [0, 1], got {flip_fraction}")
    labels = data.labels
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise InvalidArgumentError("label noise needs binary {0,1} labels")
    n_flip = int(np.rint(flip_fraction * data.n))
    if n_flip == 0:
        return data
    idx = rng.generator().choice(data.n, size=n_flip, replace=False)
    flipped = labels.copy()
    flipped[idx] = 1.0 - flipped[idx]
    return Dataset(data.features, flipped)


def csv_cell(v) -> str:
    """One CSV cell: blank for None, digits for integers, repr for floats.

    repr is the shortest string that parses back to the same float, so
    every written value round-trips exactly.
    """
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path: str, header, rows) -> None:
    """Write a header line plus one line per row, cells from csv_cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(csv_cell(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def noise_stream(seed: int) -> RngStream:
    return RngStream(seed, STREAM_NOISE)

