"""Per-sample normalization and ZCA whitening."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpckit.dataset import LabeledDataset
from cpckit.errors import DimMismatch, TooFewSamples, load_json, save_json
from cpckit.preprocess import (
    apply_whitening,
    fit_zca,
    normalize_samples,
    transform_from_json,
    transform_to_json,
)


def wrap(X, C=2):
    X = np.asarray(X, dtype=np.float64)
    labels = np.arange(X.shape[0]) % C
    return LabeledDataset(features=X, labels=labels, class_count=C)


class TestNormalizeSamples:
    def test_two_value_row(self):
        # mean 2, population std 1: (1, 3) maps exactly to (-1, 1)
        out = normalize_samples(wrap([[1.0, 3.0], [1.0, 3.0]]))
        assert np.array_equal(out.features, [[-1.0, 1.0], [-1.0, 1.0]])

    def test_constant_row_maps_to_zeros(self):
        out = normalize_samples(wrap([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]]))
        assert np.all(np.isfinite(out.features))
        assert np.array_equal(out.features[0], [0.0, 0.0, 0.0])

    def test_labels_untouched(self):
        ds = wrap(np.random.default_rng(0).normal(size=(6, 4)), C=3)
        out = normalize_samples(ds)
        assert np.array_equal(out.labels, ds.labels)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_huge_rows_normalize_as_unscaled(self, scale):
        X = np.random.default_rng(0).normal(size=(20, 8))
        X[0] = 3.0  # a constant row
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            huge = normalize_samples(wrap(X * scale)).features
        assert np.max(np.abs(huge - normalize_samples(wrap(X)).features)) <= 1e-12

    def test_constant_row_near_the_float_limit_maps_to_zeros(self):
        X = np.array([[1.5e308] * 8, [-1.5e308, 1.5e308] * 4])
        out = normalize_samples(wrap(X), eps_norm=1e-300).features
        assert np.array_equal(out, [[0.0] * 8, [-1.0, 1.0] * 4])

    @given(
        n=st.integers(1, 20),
        d=st.integers(2, 8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_row_statistics(self, n, d, seed):
        rng = np.random.default_rng(seed)
        out = normalize_samples(wrap(rng.normal(scale=3.0, size=(n, d)))).features
        assert np.all(np.abs(out.mean(axis=1)) <= 1e-12)
        # continuous rows have std bounded away from eps, so scaling is exact
        assert np.all(np.abs(out.std(axis=1) - 1.0) <= 1e-9)


class TestZca:
    def anisotropic(self, n=500, d=8, seed=0):
        rng = np.random.default_rng(seed)
        scales = np.ones(d)
        scales[0] = 2.0  # variance 4 on the first axis
        return wrap(rng.standard_normal((n, d)) * scales)

    def test_whitened_covariance_near_identity(self):
        ds = self.anisotropic()
        t = fit_zca(ds, epsilon=1e-6)
        out = apply_whitening(t, ds).features
        cov = out.T @ out / (ds.n - 1)
        assert np.max(np.abs(cov - np.eye(ds.d))) <= 1e-1

    def test_whitened_means_vanish(self):
        ds = self.anisotropic(seed=1)
        out = apply_whitening(fit_zca(ds), ds).features
        assert np.max(np.abs(out.mean(axis=0))) <= 1e-9

    def test_rotation_symmetric(self):
        t = fit_zca(self.anisotropic(seed=2))
        assert np.max(np.abs(t.rotation - t.rotation.T)) <= 1e-8

    def test_rank_deficient_data_stays_finite(self):
        # a duplicated column gives a zero eigenvalue; epsilon keeps the
        # inverse square root finite
        rng = np.random.default_rng(4)
        base = rng.standard_normal((40, 3))
        X = np.column_stack([base, base[:, 0]])
        t = fit_zca(wrap(X), epsilon=1e-6)
        out = apply_whitening(t, wrap(X)).features
        assert np.all(np.isfinite(out))

    def test_constant_column_stays_finite(self):
        X = np.column_stack([np.full(30, 2.5), np.random.default_rng(5).normal(size=30)])
        out = apply_whitening(fit_zca(wrap(X)), wrap(X)).features
        assert np.all(np.isfinite(out))

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            fit_zca(wrap([[1.0, 2.0]]))

    def test_dim_mismatch(self):
        t = fit_zca(self.anisotropic())
        with pytest.raises(DimMismatch):
            apply_whitening(t, wrap(np.zeros((4, 3))))

    def test_epsilon_dominates_small_eigenvalues(self):
        # with epsilon far above the data scale the map is near-uniform
        # shrinkage, so relative geometry is preserved
        ds = self.anisotropic(seed=6, n=100, d=3)
        t = fit_zca(ds, epsilon=1e6)
        out = apply_whitening(t, ds).features
        centered = ds.features - ds.features.mean(axis=0)
        assert np.allclose(out, centered / np.sqrt(1e6), rtol=1e-4, atol=1e-7)

    def test_json_round_trip(self, tmp_path):
        t = fit_zca(self.anisotropic(seed=7))
        back = transform_from_json(transform_to_json(t))
        assert np.array_equal(back.mean, t.mean)
        assert np.array_equal(back.rotation, t.rotation)
        assert back.epsilon == t.epsilon

        path = tmp_path / "transform.json"
        save_json(transform_to_json(t), path)
        loaded = load_json(path, transform_from_json)
        assert np.array_equal(loaded.rotation, t.rotation)

    def test_train_only_fit_transfers(self):
        # the transform fit on one sample must apply unchanged elsewhere
        train = self.anisotropic(seed=8)
        test = self.anisotropic(seed=9, n=200)
        t = fit_zca(train)
        out = apply_whitening(t, test).features
        expected = (test.features - t.mean) @ t.rotation
        assert np.array_equal(out, expected)
