"""Tests for the functional baseline schemes and published designs."""

import numpy as np
import pytest

from repro.baselines import (
    OaAModel,
    fdconv2d,
    get_baseline,
    published_accelerators,
    sdconv2d,
    sdconv_ops,
    spconv2d,
    spconv_ops,
)
from repro.core import ConvGeometry, abm_conv2d_from_codes, conv_spec
from tests.conftest import sparse_weight_codes


class TestSDConv:
    def test_op_count_is_dense(self, rng):
        weights = sparse_weight_codes(rng, shape=(4, 3, 3, 3), density=0.2)
        features = rng.integers(-8, 8, size=(3, 6, 6))
        result = sdconv2d(features, weights, ConvGeometry(kernel=3))
        pixels = 4 * 4
        assert result.multiply_ops == weights.size * pixels  # zeros still cost
        assert result.accumulate_ops == result.multiply_ops

    def test_spec_ops(self, small_conv_spec):
        assert sdconv_ops(small_conv_spec) == small_conv_spec.dense_ops


class TestSpConv:
    def test_matches_dense_output(self, rng):
        weights = sparse_weight_codes(rng, shape=(4, 3, 3, 3), density=0.3)
        features = rng.integers(-8, 8, size=(3, 6, 6))
        geometry = ConvGeometry(kernel=3, padding=1)
        dense = sdconv2d(features, weights, geometry)
        sparse = spconv2d(features, weights, geometry)
        assert np.array_equal(dense.output, sparse.output)

    def test_ops_scale_with_nnz(self, rng):
        weights = sparse_weight_codes(rng, shape=(4, 3, 3, 3), density=0.3)
        features = rng.integers(-8, 8, size=(3, 6, 6))
        result = spconv2d(features, weights, ConvGeometry(kernel=3))
        pixels = 4 * 4
        assert result.multiply_ops == np.count_nonzero(weights) * pixels

    def test_grouped(self, rng):
        weights = sparse_weight_codes(rng, shape=(4, 3, 3, 3), density=0.4)
        features = rng.integers(-8, 8, size=(6, 6, 6))
        geometry = ConvGeometry(kernel=3, groups=2)
        dense = sdconv2d(features, weights, geometry)
        sparse = spconv2d(features, weights, geometry)
        assert np.array_equal(dense.output, sparse.output)

    def test_with_bias(self, rng):
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3))
        features = rng.integers(-8, 8, size=(2, 5, 5))
        bias = rng.integers(-10, 10, size=3)
        geometry = ConvGeometry(kernel=3)
        dense = sdconv2d(features, weights, geometry, bias_codes=bias)
        sparse = spconv2d(features, weights, geometry, bias_codes=bias)
        assert np.array_equal(dense.output, sparse.output)

    def test_spec_ops(self, small_conv_spec):
        assert spconv_ops(small_conv_spec, 0.5) == small_conv_spec.macs

    def test_more_ops_than_abm(self, rng):
        """SpConv always spends >= ABM ops (the paper's 50% claim)."""
        weights = sparse_weight_codes(rng, shape=(4, 6, 3, 3), density=0.4)
        features = rng.integers(-8, 8, size=(6, 8, 8))
        geometry = ConvGeometry(kernel=3)
        sparse = spconv2d(features, weights, geometry)
        abm = abm_conv2d_from_codes(features, weights, geometry)
        assert abm.total_ops <= sparse.total_ops
        assert abm.accumulate_ops == sparse.accumulate_ops  # same additions


class TestFDConv:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_spatial(self, rng, stride, padding):
        weights = rng.normal(size=(4, 3, 3, 3))
        features = rng.normal(size=(3, 8, 8))
        geometry = ConvGeometry(kernel=3, stride=stride, padding=padding)
        dense = sdconv2d(
            np.round(features * 0).astype(np.int64), np.zeros_like(weights, dtype=np.int64), geometry
        )  # only for the shape
        freq = fdconv2d(features, weights, stride=stride, padding=padding)
        # Spatial reference in float:
        from repro.nn import Conv2D

        conv = Conv2D("ref", 3, 4, kernel=3, stride=stride, padding=padding)
        conv.weights = weights
        expected = conv.forward(features)
        assert freq.shape == dense.output.shape
        assert np.allclose(freq, expected, atol=1e-8)

    def test_rejects_groups(self, rng):
        with pytest.raises(ValueError):
            fdconv2d(rng.normal(size=(4, 6, 6)), rng.normal(size=(2, 2, 3, 3)))

    def test_oaa_calibrated_to_paper(self):
        """K=3, t=4 must give [3]'s published 3.3x reduction."""
        assert OaAModel().reduction(3) == pytest.approx(3.3, rel=0.01)

    def test_oaa_fc_gains_nothing(self, small_fc_spec):
        assert OaAModel().layer_ops(small_fc_spec) == small_fc_spec.dense_ops

    def test_oaa_stride_erodes_gain(self):
        model = OaAModel()
        assert model.reduction(11, stride=4) < model.reduction(11, stride=1)

    def test_oaa_never_below_one(self):
        assert OaAModel().reduction(2, stride=4) == 1.0

    def test_oaa_layer_ops(self):
        spec = conv_spec("c", 8, 8, kernel=3, in_rows=8, in_cols=8, padding=1)
        assert OaAModel().layer_ops(spec) == pytest.approx(spec.dense_ops / 3.3, rel=0.01)


class TestPublished:
    def test_all_columns_present(self):
        assert len(published_accelerators()) == 8

    def test_filter_by_cnn(self):
        vgg = published_accelerators(cnn="vgg16")
        assert all(acc.column.cnn == "vgg16" for acc in vgg)
        assert len(vgg) == 4

    def test_filter_by_scheme(self):
        fd = published_accelerators(scheme="FDConv")
        assert {acc.key for acc in fd} == {"aydonat-alexnet", "zeng-alexnet", "zeng-vgg16"}

    def test_perf_density_matches_paper(self):
        """Table 2's density row: [3] VGG16 2.58, proposed 4.29."""
        assert get_baseline("zeng-vgg16").perf_density == pytest.approx(2.58, rel=0.01)
        assert get_baseline("proposed-vgg16").perf_density == pytest.approx(4.29, rel=0.01)

    def test_published_speedup(self):
        """The paper's headline: 1.55x over [3] on VGG16."""
        proposed = get_baseline("proposed-vgg16")
        zeng = get_baseline("zeng-vgg16")
        assert proposed.speedup_over(zeng) == pytest.approx(1.55, rel=0.01)

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            get_baseline("nope")
