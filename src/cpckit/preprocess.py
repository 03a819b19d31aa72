"""Per-sample normalization and ZCA whitening.

The whitening transform is fit on training data only and applied unchanged
to validation and test sets. transform_to_json and transform_from_json
give its JSON form, which errors.save_json writes and errors.load_json
reads, for reuse across CLI invocations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import LabeledDataset
from .errors import ConfigError, DimMismatch, NonFinite, NumericalError, TooFewSamples


def normalize_samples(ds: LabeledDataset, eps_norm: float = 1e-8) -> LabeledDataset:
    """Center and scale each row by its own mean and standard deviation.

    The divisor is max(std, eps_norm), so constant rows map to zeros
    instead of NaNs. Population std (ddof=0) over the row's components.
    A row whose mean or std overflows is normalized as the row divided by
    its largest |x|, which gives the same result. Raises ConfigError unless
    eps_norm is finite and positive.
    """
    if not (math.isfinite(eps_norm) and eps_norm > 0):
        raise ConfigError(f"eps_norm must be finite and positive, got {eps_norm!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = ds.features.mean(axis=1, keepdims=True)
        sd = ds.features.std(axis=1, keepdims=True)
        out = (ds.features - mu) / np.maximum(sd, eps_norm)
    huge = ~(np.isfinite(mu) & np.isfinite(sd))[:, 0]
    if huge.any():
        m = np.abs(ds.features[huge]).max(axis=1, keepdims=True)
        x = ds.features[huge] / m
        # eps_norm / m may underflow to 0; any positive floor keeps a constant row at 0
        floor = np.maximum(eps_norm / m, np.finfo(np.float64).smallest_subnormal)
        sd = np.maximum(x.std(axis=1, keepdims=True), floor)
        out[huge] = (x - x.mean(axis=1, keepdims=True)) / sd
    return replace(ds, features=out)


@dataclass(frozen=True)
class WhiteningTransform:
    """Column mean plus a symmetric rotation W = U (L + eps I)^(-1/2) U^T.
    Raises DimMismatch unless the mean is a d-vector and W is d x d, and
    NonFinite unless both are finite."""

    mean: np.ndarray
    rotation: np.ndarray
    epsilon: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        rotation = np.asarray(self.rotation, dtype=np.float64)
        if mean.ndim != 1 or rotation.shape != (len(mean), len(mean)):
            raise DimMismatch(f"mean {mean.shape}, rotation {rotation.shape}: not d, d x d")
        if not (np.isfinite(mean).all() and np.isfinite(rotation).all()):
            raise NonFinite("transform mean or rotation is not finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "rotation", rotation)

    @property
    def d(self) -> int:
        return self.mean.shape[0]


def fit_zca(ds: LabeledDataset, epsilon: float = 1e-6) -> WhiteningTransform:
    """Fit the whitening rotation from the sample covariance (divisor n-1).

    Eigenvalues are clamped at zero before the shift by epsilon, which keeps
    the inverse square root real under round-off. Raises ConfigError unless
    epsilon is finite and positive, and NumericalError when the covariance
    overflows or its eigendecomposition fails.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigError(f"epsilon must be finite and positive, got {epsilon!r}")
    if ds.n < 2:
        raise TooFewSamples(f"covariance needs at least 2 samples, got {ds.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = ds.features.mean(axis=0)
        centered = ds.features - mean
        cov = centered.T @ centered / (ds.n - 1)
    if not np.isfinite(cov).all():
        raise NumericalError("the covariance overflows the float range")
    try:
        eigvals, eigvecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"covariance eigendecomposition failed: {e}") from None
    eigvals = np.maximum(eigvals, 0.0)
    scale = 1.0 / np.sqrt(eigvals + epsilon)
    rotation = (eigvecs * scale) @ eigvecs.T
    rotation = (rotation + rotation.T) / 2.0  # exact symmetry under round-off
    return WhiteningTransform(mean=mean, rotation=rotation, epsilon=float(epsilon))


def apply_whitening(t: WhiteningTransform, ds: LabeledDataset) -> LabeledDataset:
    """Map every row x to W (x - mean)."""
    if ds.d != t.d:
        raise DimMismatch(f"transform expects d={t.d}, dataset has d={ds.d}")
    out = (ds.features - t.mean) @ t.rotation  # W symmetric, so x W^T = x W
    return replace(ds, features=out)


def transform_to_json(t: WhiteningTransform) -> dict:
    return {
        "mean": t.mean.tolist(),
        "rotation": t.rotation.tolist(),
        "epsilon": t.epsilon,
    }


def transform_from_json(obj: dict) -> WhiteningTransform:
    return WhiteningTransform(obj["mean"], obj["rotation"], float(obj["epsilon"]))
