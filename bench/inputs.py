"""Seeded synthetic inputs shaped like the paper's datasets.

Every dataset is drawn from one generative family: each class is a Gaussian
cloud around a centre in a low-rank latent space, pushed through a fixed
random linear map and a sigmoid into [0, 1]^d, plus pixel noise. The class
centres sit close enough that the clouds overlap, so plain kNN scores well
between chance and 1 (about 0.8 on the semeion shape) and a quality
regression can show.

The rows of a shape come from a constant seed per shape, so every run poses
the same problem with the same class overlap and the quality metrics move
with the program, not with the draw. `seed` permutes the rows; through the
fold plan and the training seed it also decides the folds and the initial
weights. Three percent of the rows are exact copies of other rows' features
under their own label, so distance ties occur and the documented tie rules
decide neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# share of rows whose features are copies of another row's
DUPLICATE_SHARE = 0.03


@dataclass(frozen=True)
class Shape:
    name: str
    rows: int
    features: int
    classes: int
    rank: int
    separation: float
    noise: float
    class_weights: tuple[float, ...] | None = None
    constant_columns: tuple[int, ...] = ()
    structure_seed: int = 0


# 1593 x 256 x 10, as semeion
SEMEION = Shape("semeion", 1593, 256, 10, rank=16, separation=0.75, noise=0.1,
                structure_seed=1593)
# 2310 x 19 x 7, as image segmentation, whose region-pixel-count column is constant
IMAGE = Shape("image", 2310, 19, 7, rank=6, separation=1.1, noise=0.05,
              constant_columns=(2,), structure_seed=2310)
# coil2000 width (85 features, 2 classes, skewed); rows cut from 9822 to 2000
# so the identity kNN block of 256 queries stays near 0.3 GB
COIL = Shape("coil2000", 2000, 85, 2, rank=8, separation=0.9, noise=0.1,
             class_weights=(0.8, 0.2), structure_seed=9822)


def generate(shape: Shape, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) for one shape; labels are dense class indices with
    every class holding at least one row per fold of a 5-fold plan."""
    base = np.random.default_rng(shape.structure_seed)
    centres = base.normal(size=(shape.classes, shape.rank)) * shape.separation
    mixing = base.normal(size=(shape.features, shape.rank)) / np.sqrt(shape.rank)
    bias = base.normal(size=shape.features) * 0.5
    if shape.class_weights is None:
        labels = np.arange(shape.rows) % shape.classes
    else:
        labels = base.choice(shape.classes, size=shape.rows, p=shape.class_weights)
        labels[: 5 * shape.classes] = np.arange(5 * shape.classes) % shape.classes
    latent = centres[labels] + base.normal(size=(shape.rows, shape.rank))
    features = 1.0 / (1.0 + np.exp(-1.5 * (latent @ mixing.T) - bias))
    features += base.normal(scale=shape.noise, size=features.shape)
    features = np.clip(features, 0.0, 1.0)
    n_dup = int(DUPLICATE_SHARE * shape.rows)
    copies = base.choice(shape.rows, size=n_dup, replace=False)
    features[copies] = features[base.choice(shape.rows, size=n_dup)]
    for col in shape.constant_columns:
        features[:, col] = 9.0

    order = np.random.default_rng([seed, shape.structure_seed]).permutation(shape.rows)
    # the first row stays in class 0, so a binary problem's positive class
    # (the second label to appear) is always the minority class 1
    first = np.flatnonzero(labels[order] == 0)[0]
    order[[0, first]] = order[[first, 0]]
    return features[order], labels[order].astype(np.int64)


def class_names(shape: Shape) -> tuple[str, ...]:
    return tuple(f"{shape.name}_{i}" for i in range(shape.classes))


def write_csv(shape: Shape, features: np.ndarray, labels: np.ndarray, path) -> None:
    """Label-last CSV with round-tripping float text."""
    names = class_names(shape)
    with open(path, "w", encoding="utf-8") as handle:
        for row, label in zip(features.tolist(), labels.tolist()):
            handle.write(",".join(map(repr, row)) + "," + names[label] + "\n")
