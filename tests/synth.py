"""Deterministic synthetic datasets for the tests: well-separated Gaussian
blobs and a noisy low-rank manifold embedded in a wider space."""

from __future__ import annotations

import csv

import numpy as np

from aeknn.dataset import Dataset


def gaussian_blobs(
    n_samples: int = 600,
    n_classes: int = 4,
    n_features: int = 12,
    spread: float = 0.03,
    seed: int = 0,
    name: str = "blobs",
) -> Dataset:
    """Classes as isotropic Gaussians around well-separated centers in [0, 1]^d.

    Centers are drawn uniformly but re-sampled until pairwise distances exceed
    20 * spread, so the classes stay essentially non-overlapping.
    """
    rng = np.random.default_rng(seed)
    min_gap = 20.0 * spread
    for _ in range(1000):
        centers = rng.uniform(0.15, 0.85, size=(n_classes, n_features))
        gaps = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() > min_gap:
            break
    else:
        raise RuntimeError("could not place separated centers; lower spread or classes")
    labels = rng.integers(n_classes, size=n_samples)
    # keep every class populated
    labels[:n_classes] = np.arange(n_classes)
    features = centers[labels] + rng.normal(scale=spread, size=(n_samples, n_features))
    return Dataset(
        features=np.clip(features, 0.0, 1.0),
        labels=labels,
        class_names=tuple(f"c{i}" for i in range(n_classes)),
        name=name,
    )


def low_rank_manifold(
    n_samples: int = 800,
    n_features: int = 20,
    rank: int = 3,
    noise: float = 0.01,
    seed: int = 0,
    name: str = "manifold",
) -> Dataset:
    """Points on a linear rank-`rank` sheet in `n_features` dimensions, scaled
    into [0, 1] with small additive noise. Binary labels split the first
    latent coordinate at its median, so geometry and labels agree."""
    rng = np.random.default_rng(seed)
    latent = rng.uniform(size=(n_samples, rank))
    mixing = rng.normal(size=(rank, n_features))
    features = latent @ mixing
    lo = features.min(axis=0)
    hi = features.max(axis=0)
    features = 0.05 + 0.9 * (features - lo) / np.where(hi > lo, hi - lo, 1.0)
    features = features + rng.normal(scale=noise, size=features.shape)
    labels = (latent[:, 0] > np.median(latent[:, 0])).astype(np.int64)
    if labels.min() == labels.max():  # degenerate median split
        labels[0] = 1 - labels[0]
    return Dataset(
        features=np.clip(features, 0.0, 1.0),
        labels=labels,
        class_names=("low", "high"),
        name=name,
    )


def write_csv(data: Dataset, path) -> None:
    """Write a Dataset as a label-last CSV loadable by `load_csv`."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [data.class_names[label]])
