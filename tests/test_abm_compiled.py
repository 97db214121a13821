"""Differential tests of the compiled exact-GEMM plan (repro.core.plan).

The compiled plan must be *bit-exact* against the per-kernel reference
implementation — same outputs, same analytic accumulate/multiply counts —
on each of its datapaths: the float32 and float64 BLAS GEMMs and the
int64 matmul fallback. The datapath rule itself is tested at its edges
(2**24, 2**53 and 2**63) in ``TestExactnessEdges``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    ConvGeometry,
    abm_conv2d,
    abm_conv2d_batch,
    abm_conv2d_reference,
    abm_fc,
    clear_encode_cache,
    clear_plan_cache,
    compile_layer_plan,
    direct_conv2d_codes,
    encode_layer,
    encode_layer_cached,
)
from repro.telemetry import cache_stats
from tests.conftest import BACKENDS, datapath, sparse_weight_codes


def assert_results_identical(fast, ref):
    assert np.array_equal(fast.output, ref.output)
    assert fast.output.dtype == ref.output.dtype
    assert fast.accumulate_ops == ref.accumulate_ops
    assert fast.multiply_ops == ref.multiply_ops


class TestDifferential:
    """Compiled path vs reference across the geometry space."""

    @pytest.mark.parametrize(
        "stride,padding,groups",
        [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 1, 2), (2, 0, 2), (3, 2, 1)],
    )
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_geometry_sweep(self, rng, exec_backend, stride, padding, groups, with_bias):
        weights = sparse_weight_codes(rng, shape=(6, 8 // groups, 3, 3))
        features = rng.integers(-128, 128, size=(8, 9, 9))
        bias = rng.integers(-500, 500, size=6) if with_bias else None
        geometry = ConvGeometry(kernel=3, stride=stride, padding=padding, groups=groups)
        encoded = encode_layer("t", weights)
        fast = abm_conv2d(features, encoded, geometry, bias_codes=bias)
        ref = abm_conv2d_reference(features, encoded, geometry, bias_codes=bias)
        assert_results_identical(fast, ref)

    @given(
        weights=hnp.arrays(
            dtype=np.int64, shape=(4, 3, 2, 2), elements=st.integers(-8, 8)
        ),
        features=hnp.arrays(
            dtype=np.int64, shape=(3, 6, 6), elements=st.integers(-128, 127)
        ),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
    )
    @settings(max_examples=120, deadline=None)
    def test_differential_property(self, weights, features, stride, padding):
        """Arbitrary integer tensors: compiled == reference, both datapaths."""
        geometry = ConvGeometry(kernel=2, stride=stride, padding=padding)
        encoded = encode_layer("h", weights)
        ref = abm_conv2d_reference(features, encoded, geometry)
        for backend in BACKENDS:
            with datapath(backend):
                fast = abm_conv2d(features, encoded, geometry)
            assert_results_identical(fast, ref)

    def test_matches_direct_oracle(self, rng, exec_backend):
        weights = sparse_weight_codes(rng, shape=(5, 4, 3, 3))
        features = rng.integers(-64, 64, size=(4, 8, 8))
        geometry = ConvGeometry(kernel=3, padding=1)
        encoded = encode_layer("t", weights)
        fast = abm_conv2d(features, encoded, geometry)
        assert np.array_equal(
            fast.output, direct_conv2d_codes(features, weights, geometry)
        )
        assert_results_identical(
            fast, abm_conv2d_reference(features, encoded, geometry)
        )


class TestEdgeCases:
    def test_all_zero_kernel(self, rng, exec_backend):
        """A kernel with no nonzeros contributes an all-zero output plane."""
        weights = sparse_weight_codes(rng, shape=(4, 3, 3, 3))
        weights[2] = 0
        features = rng.integers(-64, 64, size=(3, 7, 7))
        geometry = ConvGeometry(kernel=3, padding=1)
        encoded = encode_layer("z", weights)
        fast = abm_conv2d(features, encoded, geometry)
        ref = abm_conv2d_reference(features, encoded, geometry)
        assert_results_identical(fast, ref)
        assert not fast.output[2].any()

    def test_all_zero_layer(self, rng, exec_backend):
        weights = np.zeros((3, 2, 3, 3), dtype=np.int64)
        features = rng.integers(-64, 64, size=(2, 5, 5))
        geometry = ConvGeometry(kernel=3)
        encoded = encode_layer("zz", weights)
        fast = abm_conv2d(features, encoded, geometry)
        ref = abm_conv2d_reference(features, encoded, geometry)
        assert_results_identical(fast, ref)
        assert not fast.output.any()
        assert fast.accumulate_ops == 0 and fast.multiply_ops == 0

    def test_single_distinct_value(self, rng, exec_backend):
        """Q=1: every nonzero weight shares one quantized value."""
        mask = rng.random(size=(4, 3, 3, 3)) < 0.4
        weights = np.where(mask, 5, 0).astype(np.int64)
        features = rng.integers(-64, 64, size=(3, 7, 7))
        geometry = ConvGeometry(kernel=3, padding=1)
        encoded = encode_layer("q1", weights)
        assert all(k.distinct_values <= 1 for k in encoded.kernels)
        fast = abm_conv2d(features, encoded, geometry)
        ref = abm_conv2d_reference(features, encoded, geometry)
        assert_results_identical(fast, ref)

    def test_int64_path_with_large_features(self, rng, exec_backend):
        """Features of 2**30 magnitude stay exact on every datapath."""
        if exec_backend.name == "sparse":
            exec_backend.expected = np.float64  # the bound is past 2**24
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3))
        features = rng.integers(-(2**30), 2**30, size=(2, 6, 6))
        geometry = ConvGeometry(kernel=3)
        encoded = encode_layer("big", weights)
        fast = abm_conv2d(features, encoded, geometry)
        expected = direct_conv2d_codes(features, weights, geometry)
        assert np.array_equal(fast.output, expected)

    def test_fc_path(self, rng, exec_backend):
        weights = sparse_weight_codes(rng, shape=(10, 32, 1, 1), density=0.2)
        features = rng.integers(-128, 128, size=32)
        encoded = encode_layer("fc", weights)
        result = abm_fc(features, encoded)
        expected = weights.reshape(10, 32).astype(np.int64) @ features
        assert np.array_equal(result.output.reshape(-1), expected)


class TestExactnessEdges:
    """The datapath rule, two-sided at 2**24, 2**53 and 2**63.

    Kernel 0 has weights (3, -5, 0, 0) and kernel 1 has (1, 1, 1, 1), so
    ``max_weighted_sum`` is 8 and the bound is ``8 * peak + max|bias|``.
    """

    WEIGHTS = np.array([[3, -5, 0, 0], [1, 1, 1, 1]], dtype=np.int64).reshape(
        2, 4, 1, 1
    )
    GEOMETRY = ConvGeometry(kernel=1)

    def _run(self, features, bias):
        encoded = encode_layer("edge", self.WEIGHTS)
        plan = compile_layer_plan(encoded, self.GEOMETRY)
        assert plan.max_weighted_sum == 8
        peak = int(np.abs(features).max())
        sums, *_ = plan.raw_sums(features[None], bias, peak)
        result = abm_conv2d(features, encoded, self.GEOMETRY, bias_codes=bias)
        expected = direct_conv2d_codes(
            features, self.WEIGHTS, self.GEOMETRY, bias_codes=bias
        )
        assert np.array_equal(result.output, expected)
        assert result.output.dtype == np.int64
        batched = abm_conv2d_batch(
            features[None], encoded, self.GEOMETRY, bias_codes=bias
        )
        assert np.array_equal(batched.output[0], expected)
        return plan, sums.dtype, expected

    def test_float32_just_below_2_24(self):
        peak = 2**21 - 1
        features = np.array([peak, -peak, peak, peak], dtype=np.int64).reshape(4, 1, 1)
        bias = np.array([7, -7], dtype=np.int64)
        plan, dtype, expected = self._run(features, bias)
        assert plan.sum_bound(peak, 7) == 2**24 - 1
        assert dtype == np.float32
        assert expected[0, 0, 0] == 2**24 - 1  # the bound is attained

    def test_float64_at_2_24(self):
        peak = 2**21
        features = np.array([peak, -peak, peak, peak], dtype=np.int64).reshape(4, 1, 1)
        plan, dtype, expected = self._run(features, None)
        assert plan.sum_bound(peak) == 2**24
        assert dtype == np.float64
        assert expected[0, 0, 0] == 2**24

    def test_float64_exact_where_float32_would_round(self):
        """Just past 2**24 an odd sum is not a float32: float64 keeps it."""
        peak = 2**21
        features = np.array([peak, -peak, 0, 0], dtype=np.int64).reshape(4, 1, 1)
        bias = np.array([1, 0], dtype=np.int64)
        plan, dtype, expected = self._run(features, bias)
        assert dtype == np.float64
        assert expected[0, 0, 0] == 2**24 + 1
        assert int(np.float32(expected[0, 0, 0])) != int(expected[0, 0, 0])

    def test_float64_just_below_2_53(self):
        peak = 2**50 - 1
        features = np.array([peak, -peak, peak, peak], dtype=np.int64).reshape(4, 1, 1)
        bias = np.array([7, -7], dtype=np.int64)
        plan, dtype, expected = self._run(features, bias)
        assert plan.sum_bound(peak, 7) == 2**53 - 1
        assert dtype == np.float64
        assert expected[0, 0, 0] == 2**53 - 1  # the bound is attained

    def test_int64_at_2_53(self):
        peak = 2**50
        features = np.array([peak, -peak, peak, peak], dtype=np.int64).reshape(4, 1, 1)
        plan, dtype, expected = self._run(features, None)
        assert plan.sum_bound(peak) == 2**53
        assert dtype == np.int64
        assert expected[0, 0, 0] == 2**53

    def test_int64_exact_where_float64_would_round(self):
        """Far past 2**53 an odd sum is not a float64: int64 keeps it."""
        peak = 2**58
        features = np.array(
            [peak, -peak + 1, 1, 1], dtype=np.int64
        ).reshape(4, 1, 1)
        plan, dtype, expected = self._run(features, None)
        assert dtype == np.int64
        assert expected[0, 0, 0] == 2**61 - 5
        assert int(float(expected[0, 0, 0])) != int(expected[0, 0, 0])

    def test_int64_just_below_2_63(self):
        peak = 2**60 - 1
        features = np.array([peak, -peak, peak, peak], dtype=np.int64).reshape(4, 1, 1)
        bias = np.array([7, -7], dtype=np.int64)
        plan, dtype, expected = self._run(features, bias)
        assert plan.sum_bound(peak, 7) == 2**63 - 1
        assert dtype == np.int64
        assert expected[0, 0, 0] == 2**63 - 1  # the bound is attained

    @pytest.mark.parametrize("peak,bias", [(2**60, 0), (2**60 - 1, 8), (2**61, 0)])
    def test_rejects_at_or_past_2_63(self, peak, bias):
        features = np.array([peak, 0, 0, 0], dtype=np.int64).reshape(4, 1, 1)
        encoded = encode_layer("edge", self.WEIGHTS)
        bias_codes = np.array([bias, 0], dtype=np.int64)
        bound = 8 * peak + bias
        assert bound >= 2**63
        with pytest.raises(ValueError, match=rf"'edge'.*{bound}.*2\*\*63"):
            abm_conv2d(features, encoded, self.GEOMETRY, bias_codes=bias_codes)
        with pytest.raises(ValueError, match="2\\*\\*63"):
            compile_layer_plan(encoded, self.GEOMETRY).sum_dtype(peak, bias)


class TestPlanCache:
    def test_same_layer_reuses_plan(self, rng):
        clear_plan_cache()
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3))
        encoded = encode_layer("c", weights)
        geometry = ConvGeometry(kernel=3, padding=1)
        first = compile_layer_plan(encoded, geometry)
        second = compile_layer_plan(encoded, geometry)
        assert first is second
        assert cache_stats()["core.plan"].size == 1

    def test_distinct_geometry_distinct_plan(self, rng):
        clear_plan_cache()
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3))
        encoded = encode_layer("c", weights)
        a = compile_layer_plan(encoded, ConvGeometry(kernel=3, padding=1))
        b = compile_layer_plan(encoded, ConvGeometry(kernel=3, padding=0))
        assert a is not b
        assert cache_stats()["core.plan"].size == 2

    def test_clear_plan_cache(self, rng):
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3))
        encoded = encode_layer("c", weights)
        compile_layer_plan(encoded, ConvGeometry(kernel=3))
        assert cache_stats()["core.plan"].size >= 1
        clear_plan_cache()
        assert cache_stats()["core.plan"].size == 0

    def test_op_counts_are_analytic(self, rng):
        """Plan op counts come from nnz / Q-Table sizes, not execution."""
        weights = sparse_weight_codes(rng, shape=(4, 3, 3, 3))
        encoded = encode_layer("c", weights)
        geometry = ConvGeometry(kernel=3, padding=1)
        plan = compile_layer_plan(encoded, geometry)
        pixels = 7 * 7
        nnz = sum(k.nonzero_count for k in encoded.kernels)
        qtable = sum(k.qtable_entries for k in encoded.kernels)
        assert plan.accumulates_per_pixel == nnz
        assert plan.multiplies_per_pixel == qtable
        features = rng.integers(-64, 64, size=(3, 7, 7))
        result = abm_conv2d(features, encoded, geometry)
        assert result.accumulate_ops == pixels * nnz
        assert result.multiply_ops == pixels * qtable


class TestEncodeMemoization:
    def test_same_content_hits_cache(self, rng):
        clear_encode_cache()
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3))
        a = encode_layer_cached("m", weights)
        b = encode_layer_cached("m", weights.copy())
        assert a is b

    def test_different_content_misses(self, rng):
        clear_encode_cache()
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3))
        a = encode_layer_cached("m", weights)
        changed = weights.copy()
        changed[0, 0, 0, 0] += 1
        b = encode_layer_cached("m", changed)
        assert a is not b

    def test_name_is_part_of_key(self, rng):
        clear_encode_cache()
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3))
        a = encode_layer_cached("x", weights)
        b = encode_layer_cached("y", weights)
        assert a is not b
        assert a.name == "x" and b.name == "y"
