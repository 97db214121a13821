"""Differential tests of the fused model plan (repro.core.model_plan).

The fused streaming path must be *bit-exact* against the retained
per-layer reference — same outputs, same per-image op counts — across
the architecture space (groups, padding, strided convs, FC stacks,
standalone and fused pooling, LRN/AvgPool host-layer splits), on all three
layer-plan datapaths (float32 GEMM, float64 GEMM and the int64 fallback),
at the compile-time 2**24 and 2**53 edges, on every ping-pong stream
dtype (int8/int16/int32), and under concurrent callers that share layer
plans.  The integer MaxPool is also checked on its own against the float
pool, ceil-mode tails included.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import model_plan as model_plan_module
from repro.core.model_plan import (
    MODEL_PLAN_CACHE_CAPACITY,
    ModelPlan,
    _Arena,
    _FusedStage,
    _HostStage,
    _integer_maxpool,
    _PoolStage,
    _stream_dtype,
    clear_model_plan_cache,
    compile_model_plan,
)
from repro.nn.layers import MaxPool2D
from repro.nn.models import (
    Architecture,
    ConvDef,
    DropoutDef,
    FCDef,
    FlattenDef,
    LRNDef,
    PoolDef,
    ReLUDef,
    SoftmaxDef,
)
from repro.nn.models.registry import get_architecture
from repro.pipeline import QuantizedPipeline
from repro.quant.fixed_point import QFormat
from repro.prune.schedules import deep_compression_schedule
from repro.shard import sharded_run_batch
from repro.telemetry import cache_stats
from repro.telemetry.context import Telemetry, activate
from repro.workloads.images import natural_image
from tests.conftest import BACKENDS, datapath


@pytest.fixture(autouse=True)
def fresh_model_plan_cache():
    clear_model_plan_cache()
    yield
    clear_model_plan_cache()


def build_pipeline(arch: Architecture, rng: np.random.Generator) -> QuantizedPipeline:
    network = arch.build(seed=7)
    pipeline = QuantizedPipeline(network)
    sample = rng.standard_normal(
        (arch.input_channels, arch.input_rows, arch.input_cols)
    )
    pipeline.calibrate(sample)
    pipeline.quantize()
    return pipeline


def assert_batches_identical(fused, reference):
    assert len(fused) == len(reference)
    for f, r in zip(fused, reference):
        assert np.array_equal(f.output, r.output)
        assert [(s.name, s.accumulate_ops, s.multiply_ops) for s in f.layer_stats] == [
            (s.name, s.accumulate_ops, s.multiply_ops) for s in r.layer_stats
        ]


# ---- architecture space ---------------------------------------------------

#: Fixed architectures covering every fusion shape the compiler can emit.
ARCHITECTURES = {
    "conv_relu_pool": Architecture(
        name="crp",
        input_channels=3,
        input_rows=12,
        input_cols=12,
        defs=[
            ConvDef("c1", 6, kernel=3, padding=1),
            ReLUDef("r1"),
            PoolDef("p1", kernel=2, stride=2),
            FlattenDef("fl"),
            FCDef("fc", 5, scale_output=False),
            SoftmaxDef("sm"),
        ],
    ),
    "grouped_strided": Architecture(
        name="grp",
        input_channels=4,
        input_rows=11,
        input_cols=11,
        defs=[
            ConvDef("c1", 8, kernel=3, stride=2, padding=2, groups=2),
            ReLUDef("r1"),
            ConvDef("c2", 6, kernel=1),
            FlattenDef("fl"),
            FCDef("fc", 4, scale_output=False),
        ],
    ),
    # LRN and AvgPool split the integer stream onto the host float path,
    # and the pool after LRN is *not* adjacent to a conv: standalone stage.
    "host_split": Architecture(
        name="host",
        input_channels=3,
        input_rows=13,
        input_cols=13,
        defs=[
            ConvDef("c1", 6, kernel=3, padding=1),
            ReLUDef("r1"),
            LRNDef("lrn", local_size=3),
            PoolDef("p1", kernel=3, stride=2),
            ConvDef("c2", 8, kernel=3, padding=1),
            PoolDef("p2", kernel=2, stride=2, kind="avg"),
            FlattenDef("fl"),
            FCDef("fc", 6, scale_output=False),
            SoftmaxDef("sm"),
        ],
    ),
    # Conv straight into pool (no ReLU between): the two-step peek-ahead.
    "conv_pool_no_relu": Architecture(
        name="cp",
        input_channels=2,
        input_rows=9,
        input_cols=9,
        defs=[
            ConvDef("c1", 5, kernel=3),
            PoolDef("p1", kernel=3, stride=3),
            FlattenDef("fl"),
            FCDef("fc", 3, scale_output=False),
        ],
    ),
    # FC stack with dropout and a trailing standalone ReLU epilogue.
    "fc_stack": Architecture(
        name="fcs",
        input_channels=4,
        input_rows=8,
        input_cols=8,
        defs=[
            FlattenDef("fl"),
            FCDef("fc1", 16),
            ReLUDef("r1"),
            DropoutDef("do"),
            FCDef("fc2", 8),
            ReLUDef("r2"),
            FCDef("fc3", 4, scale_output=False),
            SoftmaxDef("sm"),
        ],
    ),
}


class TestDifferential:
    """Fused plan vs per-layer reference across the architecture space."""

    @pytest.mark.parametrize("arch_name", sorted(ARCHITECTURES))
    @pytest.mark.parametrize("batch", [1, 3])
    def test_architecture_sweep(self, rng, exec_backend, arch_name, batch):
        arch = ARCHITECTURES[arch_name]
        pipeline = build_pipeline(arch, rng)
        images = rng.standard_normal(
            (batch, arch.input_channels, arch.input_rows, arch.input_cols)
        )
        assert_batches_identical(
            pipeline.run_batch(images), pipeline.run_batch_reference(images)
        )

    @pytest.mark.parametrize("arch_name", sorted(ARCHITECTURES))
    def test_matches_per_image_run(self, rng, arch_name):
        arch = ARCHITECTURES[arch_name]
        pipeline = build_pipeline(arch, rng)
        images = rng.standard_normal(
            (2, arch.input_channels, arch.input_rows, arch.input_cols)
        )
        fused = pipeline.run_batch(images)
        for i, result in enumerate(fused):
            single = pipeline.run(images[i])
            assert np.array_equal(result.output, single.output)
            assert [
                (s.name, s.accumulate_ops, s.multiply_ops)
                for s in result.layer_stats
            ] == [
                (s.name, s.accumulate_ops, s.multiply_ops)
                for s in single.layer_stats
            ]

    @given(
        seed=st.integers(0, 2**31 - 1),
        out1=st.integers(3, 8),
        kernel=st.sampled_from([1, 3]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
        groups=st.sampled_from([1, 2]),
        pool_after=st.booleans(),
        pool_kernel=st.integers(1, 3),
        pool_stride=st.integers(1, 3),
        relu_after=st.booleans(),
        host_layer=st.sampled_from([None, "lrn", "avg"]),
        batch=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_networks(
        self,
        seed,
        out1,
        kernel,
        stride,
        padding,
        groups,
        pool_after,
        pool_kernel,
        pool_stride,
        relu_after,
        host_layer,
        batch,
    ):
        """Randomized conv tower + host split + FC head, fused == reference,
        on every layer-plan datapath."""
        defs = [ConvDef("c1", out1 * groups, kernel=kernel, stride=stride,
                        padding=padding, groups=groups)]
        if relu_after:
            defs.append(ReLUDef("r1"))
        if pool_after:
            defs.append(PoolDef("p1", kernel=pool_kernel, stride=pool_stride))
        if host_layer == "lrn":
            defs.append(LRNDef("lrn", local_size=3))
        elif host_layer == "avg":
            defs.append(PoolDef("avg", kernel=2, stride=2, kind="avg"))
        defs += [FlattenDef("fl"), FCDef("fc", 4, scale_output=False)]
        arch = Architecture(
            name="rand", input_channels=2 * groups, input_rows=10,
            input_cols=10, defs=defs,
        )
        rng = np.random.default_rng(seed)
        pipeline = build_pipeline(arch, rng)
        images = rng.standard_normal((batch, 2 * groups, 10, 10))
        for backend in BACKENDS:
            clear_model_plan_cache()  # recompile under this datapath
            with datapath(backend):
                fused = pipeline.run_batch(images)
                reference = pipeline.run_batch_reference(images)
            assert_batches_identical(fused, reference)

    def test_repeated_runs_reuse_plan_and_stay_exact(self, rng):
        """The cached plan's arena is reused; results must not alias it."""
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        a = rng.standard_normal((2, 3, 12, 12))
        b = rng.standard_normal((2, 3, 12, 12))
        out_a = pipeline.run_batch(a)
        out_b = pipeline.run_batch(b)
        assert_batches_identical(out_a, pipeline.run_batch_reference(a))
        assert_batches_identical(out_b, pipeline.run_batch_reference(b))
        stats = cache_stats()["core.model_plan"]
        assert stats.misses == 1 and stats.hits == 1


# ---- integer max pool -----------------------------------------------------


class TestIntegerMaxPool:
    """The elementwise integer pool vs the float reference pool."""

    @pytest.mark.parametrize("stream", [np.int8, np.int16, np.int32, np.int64])
    @given(
        seed=st.integers(0, 2**31 - 1),
        kernel=st.integers(1, 4),
        stride=st.integers(1, 3),
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        images=st.integers(1, 2),
        channels=st.integers(1, 3),
        wide_source=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_float_pool(
        self, stream, seed, kernel, stride, rows, cols, images, channels,
        wide_source,
    ):
        """Signed codes over the stream dtype's full range (negatives are the
        no-ReLU path), every kernel/stride pair including stride > kernel,
        and odd extents, so ceil-mode tails occur.  ``wide_source`` feeds
        an int64 array, as a host stage hands the stream.  int64 codes stay
        within +-2**53, where the float64 reference pool is exact."""
        kernel = min(kernel, rows, cols)
        info = np.iinfo(stream)
        lo, hi = max(info.min, -(2**53)), min(info.max, 2**53)
        rng = np.random.default_rng(seed)
        codes = rng.integers(
            lo, hi, size=(images, channels, rows, cols), dtype=np.int64,
            endpoint=True,
        )
        codes.flat[rng.integers(codes.size)] = lo
        pool = MaxPool2D("p", kernel, stride)
        expected = pool.forward_batch(codes).astype(np.int64)
        arena = _Arena(np.dtype(stream), codes.size, 1, 0, 0)
        source = codes if wide_source else arena.ping[1][: codes.size].reshape(
            codes.shape
        )
        source[...] = codes
        pooled = _integer_maxpool(arena, pool, source)
        assert pooled.dtype == stream
        assert np.shares_memory(pooled, arena.ping[0])
        assert np.array_equal(pooled, expected)


# ---- plan cache -----------------------------------------------------------


class TestModelPlanCache:
    def test_hit_on_same_geometry_miss_on_new(self, rng):
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        p1 = compile_model_plan(pipeline, (2, 3, 12, 12))
        p2 = compile_model_plan(pipeline, (2, 3, 12, 12))
        assert p1 is p2
        p3 = compile_model_plan(pipeline, (4, 3, 12, 12))
        assert p3 is not p1
        stats = cache_stats()["core.model_plan"]
        assert (stats.hits, stats.misses, stats.size) == (1, 2, 2)
        assert stats.name == "core.model_plan"

    def test_requantize_invalidates(self, rng):
        """The quantization token keys the cache: recalibrating or
        re-quantizing must never reuse stale fused stages."""
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        p1 = compile_model_plan(pipeline, (1, 3, 12, 12))
        token = pipeline.quantization_token
        pipeline.quantize()
        assert pipeline.quantization_token != token
        p2 = compile_model_plan(pipeline, (1, 3, 12, 12))
        assert p2 is not p1
        assert cache_stats()["core.model_plan"].hits == 0

    def test_lru_eviction(self, rng):
        arch = ARCHITECTURES["conv_pool_no_relu"]
        pipeline = build_pipeline(arch, rng)
        for b in range(1, MODEL_PLAN_CACHE_CAPACITY + 2):
            compile_model_plan(pipeline, (b, 2, 9, 9))
        stats = cache_stats()["core.model_plan"]
        assert stats.size == MODEL_PLAN_CACHE_CAPACITY
        assert stats.evictions == 1

    def test_registered_in_telemetry_namespace(self, rng):
        from repro.telemetry.caches import cache_snapshot

        arch = ARCHITECTURES["conv_pool_no_relu"]
        pipeline = build_pipeline(arch, rng)
        compile_model_plan(pipeline, (1, 2, 9, 9))
        snapshot = cache_snapshot()
        assert "core.model_plan" in snapshot
        assert snapshot["core.model_plan"]["misses"] == 1

    def test_one_finalizer_per_owner_across_eviction_cycles(self, rng):
        """LRU evictions must not stack finalizers on a re-admitted owner."""
        import weakref

        def finalizers(owner):
            return sum(
                1
                for f in list(weakref.finalize._registry)
                if (state := f.peek()) is not None and state[0] is owner
            )

        arch = ARCHITECTURES["conv_pool_no_relu"]
        a = build_pipeline(arch, rng)
        b = build_pipeline(arch, rng)
        for _ in range(50):
            # A full cache of one pipeline's plans evicts all of the other's.
            for pipeline in (a, b):
                for batch in range(1, MODEL_PLAN_CACHE_CAPACITY + 1):
                    compile_model_plan(pipeline, (batch, 2, 9, 9))
        compile_model_plan(a, (1, 2, 9, 9))
        stats = cache_stats()["core.model_plan"]
        assert stats.evictions == 100 * MODEL_PLAN_CACHE_CAPACITY - 7
        assert finalizers(a) == 1
        assert finalizers(b) == 1

    def test_collected_owner_entries_are_evicted(self, rng):
        import gc

        arch = ARCHITECTURES["conv_pool_no_relu"]
        pipeline = build_pipeline(arch, rng)
        compile_model_plan(pipeline, (1, 2, 9, 9))
        compile_model_plan(pipeline, (2, 2, 9, 9))
        stats = cache_stats()["core.model_plan"]
        assert (stats.size, stats.evictions) == (2, 0)
        del pipeline
        gc.collect()
        stats = cache_stats()["core.model_plan"]
        assert (stats.size, stats.evictions) == (0, 2)

    def test_cache_size_helper(self, rng):
        assert cache_stats()["core.model_plan"].size == 0
        arch = ARCHITECTURES["conv_pool_no_relu"]
        pipeline = build_pipeline(arch, rng)
        compile_model_plan(pipeline, (1, 2, 9, 9))
        assert cache_stats()["core.model_plan"].size == 1


# ---- errors and introspection --------------------------------------------


class TestPlanErrors:
    def test_uncalibrated_pipeline_rejected(self):
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = QuantizedPipeline(arch.build(seed=7))
        with pytest.raises(RuntimeError, match=r"not calibrated.*calibrate\(\)"):
            ModelPlan(pipeline, (1, 3, 12, 12))

    def test_unquantized_pipeline_rejected(self, rng):
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = QuantizedPipeline(arch.build(seed=7))
        pipeline.calibrate(rng.standard_normal((3, 12, 12)))
        with pytest.raises(RuntimeError, match=r"not quantized.*quantize\(\)"):
            ModelPlan(pipeline, (1, 3, 12, 12))

    def test_non_bchw_shape_rejected(self, rng):
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        with pytest.raises(ValueError, match="BCHW"):
            ModelPlan(pipeline, (3, 12, 12))

    def test_run_rejects_mismatched_batch(self, rng):
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        plan = compile_model_plan(pipeline, (2, 3, 12, 12))
        codes = pipeline.input_fmt.quantize(rng.standard_normal((1, 3, 12, 12)))
        with pytest.raises(ValueError, match="compiled for batch"):
            plan.run(codes)

    def test_describe_mentions_fusion(self, rng):
        arch = ARCHITECTURES["host_split"]
        pipeline = build_pipeline(arch, rng)
        plan = compile_model_plan(pipeline, (2, 3, 13, 13))
        text = plan.describe()
        assert "fused" in text and "host" in text and "batch=(2, 3, 13, 13)" in text
        assert "datapaths=float32:3," in text

    def test_non_finite_input_rejected_on_every_path(self, rng):
        """NaN/inf have no code (NaN quantizes to INT64_MIN), so every
        entry point refuses them, naming the first offending index."""
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        for bad in (np.nan, np.inf, -np.inf):
            images = rng.standard_normal((3, 3, 12, 12))
            images[1, 2, 4, 5] = bad
            images[2, 0, 0, 0] = bad
            for run in (
                pipeline.run_batch,
                pipeline.run_batch_reference,
                lambda batch: sharded_run_batch(pipeline, batch, (2,)),
            ):
                with pytest.raises(ValueError, match=r"index \(1, 2, 4, 5\).*finite"):
                    run(images)


# ---- telemetry ------------------------------------------------------------


class TestTelemetrySpans:
    def test_fuse_span_on_compile_miss_and_kernel_spans_on_run(self, rng):
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        images = rng.standard_normal((2, 3, 12, 12))
        telemetry = Telemetry()
        with activate(telemetry):
            pipeline.run_batch(images)
            pipeline.run_batch(images)  # cache hit: no second fuse span
        totals = telemetry.tracer.totals()
        assert totals["fuse"]["count"] == 1
        # One kernel span per fused stage (conv + fc) per run.
        assert totals["kernel"]["count"] == 4
        roots = [root.to_dict() for root in telemetry.tracer.roots]
        kernel_spans = [r for r in roots if r["name"] == "kernel"]
        fused_attrs = {span["attrs"]["fused"] for span in kernel_spans}
        assert "c1,r1,p1" in fused_attrs
        assert {span["attrs"]["datapath"] for span in kernel_spans} == {"float32"}

    def test_one_span_per_fused_pool_and_host_stage(self, rng):
        """Every fused stage runs in a ``kernel`` span and every pool or
        host stage in a ``host`` span carrying ``layer`` and ``kind``."""
        arch = ARCHITECTURES["host_split"]
        pipeline = build_pipeline(arch, rng)
        images = rng.standard_normal((2, 3, 13, 13))
        plan = compile_model_plan(pipeline, images.shape)
        fused = [s.name for s in plan.stages if isinstance(s, _FusedStage)]
        host = [
            (s.name, s.kind)
            for s in plan.stages
            if isinstance(s, (_PoolStage, _HostStage))
        ]
        assert fused == ["c1", "c2", "fc"]
        assert host == [
            ("lrn", "lrn"),
            ("p1", "maxpool"),
            ("p2", "avgpool"),
            ("sm", "softmax"),
        ]
        telemetry = Telemetry()
        with activate(telemetry):
            pipeline.run_batch(images)
            pipeline.run_batch(images)
        roots = [root.to_dict() for root in telemetry.tracer.roots]
        assert [r["attrs"]["layer"] for r in roots if r["name"] == "kernel"] == (
            fused * 2
        )
        assert [
            (r["attrs"]["layer"], r["attrs"]["kind"])
            for r in roots
            if r["name"] == "host"
        ] == host * 2
        assert {r["name"] for r in roots} == {"kernel", "host"}

    def test_silent_without_active_telemetry(self, rng):
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        images = rng.standard_normal((1, 3, 12, 12))
        telemetry = Telemetry()
        pipeline.run_batch(images)  # no active context: must not record
        assert telemetry.tracer.totals() == {}


# ---- exactness edge at compile time -----------------------------------------


class TestCompileTimeExactness:
    """The fused plan applies the layer plans' datapath rule to the tracked
    input-format peak at compile time (two-sided at 2**24 and 2**53)."""

    #: 32-bit features and 16-bit weights: the 4608-input FC layer's bound
    #: ``2**31 * max_weighted_sum`` crosses 2**53, the 16-input one does not.
    ARCH = Architecture(
        name="wide",
        input_channels=32,
        input_rows=12,
        input_cols=12,
        defs=[
            FlattenDef("fl"),
            FCDef("fc1", 16),
            ReLUDef("r1"),
            FCDef("fc2", 4, scale_output=False),
        ],
    )

    def test_stage_past_2_53_takes_int64_and_stays_exact(self, rng):
        network = self.ARCH.build(seed=7)
        pipeline = QuantizedPipeline(network, weight_bits=16, feature_bits=32)
        pipeline.calibrate(rng.standard_normal((32, 12, 12)))
        pipeline.quantize()
        images = rng.standard_normal((3, 32, 12, 12))
        plan = compile_model_plan(pipeline, images.shape)
        stages = {
            stage.name: stage for stage in plan.stages if stage.name in ("fc1", "fc2")
        }
        wide, narrow = stages["fc1"], stages["fc2"]
        assert wide.plan.sum_bound(wide.input_peak) >= 2**53
        assert wide.sum_dtype is np.int64
        bias_peak = int(np.abs(narrow.bias_codes).max())
        assert narrow.plan.sum_bound(narrow.input_peak, bias_peak) < 2**53
        assert narrow.sum_dtype is np.float64
        assert_batches_identical(
            pipeline.run_batch(images), pipeline.run_batch_reference(images)
        )

    def test_stage_past_2_24_takes_float64_beside_float32(self, rng):
        """12-bit features, 8-bit weights: the wide FC's bound crosses
        2**24 and takes float64; the narrow one stays float32."""
        network = self.ARCH.build(seed=7)
        pipeline = QuantizedPipeline(network, weight_bits=8, feature_bits=12)
        pipeline.calibrate(rng.standard_normal((32, 12, 12)))
        pipeline.quantize()
        images = rng.standard_normal((3, 32, 12, 12))
        plan = compile_model_plan(pipeline, images.shape)
        stages = {
            stage.name: stage for stage in plan.stages if stage.name in ("fc1", "fc2")
        }
        wide, narrow = stages["fc1"], stages["fc2"]
        assert wide.plan.sum_bound(wide.input_peak) >= 2**24
        assert wide.sum_dtype is np.float64
        bias_peak = int(np.abs(narrow.bias_codes).max())
        assert narrow.plan.sum_bound(narrow.input_peak, bias_peak) < 2**24
        assert narrow.sum_dtype is np.float32
        assert "datapaths=float32:1,float64:1" in plan.describe()
        assert_batches_identical(
            pipeline.run_batch(images), pipeline.run_batch_reference(images)
        )

    def test_steady_benchmark_model_runs_float32_everywhere(self):
        """VGG16 at channel x0.25, spatial x0.125, pruned and 8-bit (the
        ``infer-steady`` benchmark model): every fused stage proves its sum
        bound below 2**24 and takes the float32 GEMM."""
        network = get_architecture("vgg16").build(
            scale=0.25, seed=1, spatial_scale=0.125
        )
        schedule = deep_compression_schedule("vgg16")
        pipeline = QuantizedPipeline(network)
        pipeline.prune(
            {
                layer.name: schedule.density(layer.name)
                for layer in network.accelerated_layers()
            }
        )
        shape = network.input_shape.as_tuple()
        pipeline.calibrate(natural_image(shape, np.random.default_rng(1)))
        pipeline.quantize()
        plan = compile_model_plan(pipeline, (8,) + shape)
        assert [
            stage.datapath for stage in plan.stages if hasattr(stage, "datapath")
        ] == ["float32"] * 16
        assert "datapaths=float32:16," in plan.describe()


    def test_steady_benchmark_model_streams_int8(self):
        """The same model streams its codes through int8 ping-pong
        buffers: every format it streams is 8-bit."""
        network = get_architecture("vgg16").build(
            scale=0.25, seed=1, spatial_scale=0.125
        )
        schedule = deep_compression_schedule("vgg16")
        pipeline = QuantizedPipeline(network)
        pipeline.prune(
            {
                layer.name: schedule.density(layer.name)
                for layer in network.accelerated_layers()
            }
        )
        shape = network.input_shape.as_tuple()
        pipeline.calibrate(natural_image(shape, np.random.default_rng(1)))
        pipeline.quantize()
        plan = compile_model_plan(pipeline, (8,) + shape)
        assert [buf.dtype for buf in plan.arena.ping] == [np.dtype(np.int8)] * 2
        assert "stream=int8," in plan.describe()


class TestStreamDtype:
    """The ping-pong buffers take the narrowest signed integer dtype that
    holds every streamed format, and stay exact at each width."""

    @pytest.mark.parametrize(
        "weight_bits,feature_bits,stream",
        [(8, 8, np.int8), (8, 12, np.int16), (16, 32, np.int32)],
    )
    def test_width_follows_feature_bits(self, rng, weight_bits, feature_bits, stream):
        network = TestCompileTimeExactness.ARCH.build(seed=7)
        pipeline = QuantizedPipeline(
            network, weight_bits=weight_bits, feature_bits=feature_bits
        )
        pipeline.calibrate(rng.standard_normal((32, 12, 12)))
        pipeline.quantize()
        images = rng.standard_normal((3, 32, 12, 12))
        plan = compile_model_plan(pipeline, images.shape)
        assert [buf.dtype for buf in plan.arena.ping] == [np.dtype(stream)] * 2
        assert plan.arena.twin().ping[0].dtype == stream
        fused = pipeline.run_batch(images)
        assert_batches_identical(fused, pipeline.run_batch_reference(images))
        codes, _ = plan.run(pipeline.input_fmt.quantize(images))
        assert codes.dtype == np.int64

    def test_codes_wider_than_int64_rejected(self):
        assert _stream_dtype([QFormat(8, 4), QFormat(64, 0)]) == np.int64
        with pytest.raises(ValueError, match="does not fit int64"):
            _stream_dtype([QFormat(8, 4), QFormat(65, 0)])

    def test_host_output_format_widens_the_stream(self, rng):
        """A host layer's output format counts like any other: a 16-bit
        LRN output between 8-bit convs needs an int16 stream."""
        arch = ARCHITECTURES["host_split"]
        pipeline = build_pipeline(arch, rng)
        pipeline.output_fmts["lrn"] = QFormat(16, 10)
        images = rng.standard_normal((2, 3, 13, 13))
        plan = compile_model_plan(pipeline, images.shape)
        assert plan.arena.ping[0].dtype == np.int16
        assert_batches_identical(
            pipeline.run_batch(images), pipeline.run_batch_reference(images)
        )


# ---- concurrency ----------------------------------------------------------


#: Big enough that kernels release the GIL long enough for threads to
#: interleave; the final FC leaves the logits in arena scratch.
RACE_ARCH = Architecture(
    name="race",
    input_channels=3,
    input_rows=32,
    input_cols=32,
    defs=[
        ConvDef("c1", 16, kernel=3, padding=1),
        ReLUDef("r1"),
        ConvDef("c2", 16, kernel=3, padding=1),
        ReLUDef("r2"),
        PoolDef("p2", kernel=2, stride=2),
        ConvDef("c3", 24, kernel=3, padding=1),
        ReLUDef("r3"),
        FlattenDef("fl"),
        FCDef("fc", 10, scale_output=False),
    ],
)

#: Rounds per thread; each job runs on RACE_THREADS threads, which with
#: the short switch interval below is more threads than a CI runner has
#: cores and interleaves them often.
RACE_ROUNDS = 75
RACE_THREADS = 2


def _hammer(jobs):
    """Run each ``(fn, expected)`` job on RACE_THREADS threads at once.

    Returns, per job, the number of rounds whose outputs differed from the
    job's single-threaded result.
    """
    barrier = threading.Barrier(len(jobs) * RACE_THREADS)
    mismatches = [0] * len(jobs)
    errors = []
    lock = threading.Lock()

    def worker(index, fn, expected):
        try:
            barrier.wait()
            for _ in range(RACE_ROUNDS):
                results = fn()
                if not all(
                    np.array_equal(r.output, e.output)
                    for r, e in zip(results, expected)
                ):
                    with lock:
                        mismatches[index] += 1
        except Exception as exc:  # surfaced below with its traceback
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i, fn, expected), daemon=True)
        for i, (fn, expected) in enumerate(jobs)
        for _ in range(RACE_THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return mismatches


class TestConcurrency:
    """Callers that share layer plans never share their scratch."""

    @pytest.fixture
    def race(self, rng):
        pipeline = build_pipeline(RACE_ARCH, rng)
        images = rng.standard_normal((8, 3, 32, 32))
        return pipeline, images

    def test_two_geometries_on_one_pipeline(self, race):
        """Two model plans (B=8, B=5) over the same layer plans."""
        pipeline, images = race
        head = images[:5].copy()
        full = pipeline.run_batch(images)
        part = pipeline.run_batch(head)
        assert_batches_identical(full, pipeline.run_batch_reference(images))
        assert_batches_identical(part, full[:5])
        plans = [compile_model_plan(pipeline, batch.shape) for batch in (images, head)]
        assert plans[0] is not plans[1]
        assert [s.plan for s in plans[0].stages if isinstance(s, _FusedStage)] == [
            s.plan for s in plans[1].stages if isinstance(s, _FusedStage)
        ]
        mismatches = _hammer(
            [
                (lambda: pipeline.run_batch(images), full),
                (lambda: pipeline.run_batch(head), part),
            ]
        )
        assert mismatches == [0, 0]

    def test_fused_beside_reference(self, race):
        pipeline, images = race
        fused = pipeline.run_batch(images)
        reference = pipeline.run_batch_reference(images)
        assert_batches_identical(fused, reference)
        mismatches = _hammer(
            [
                (lambda: pipeline.run_batch(images), fused),
                (lambda: pipeline.run_batch_reference(images), reference),
            ]
        )
        assert mismatches == [0, 0]

    def test_one_model_plan_from_two_threads(self, race):
        """Results are detached from the arena before its lock is released."""
        pipeline, images = race
        other = images[::-1].copy()
        first = pipeline.run_batch(images)
        second = pipeline.run_batch(other)
        mismatches = _hammer(
            [
                (lambda: pipeline.run_batch(images), first),
                (lambda: pipeline.run_batch(other), second),
            ]
        )
        assert mismatches == [0, 0]

    def test_four_threads_mixed_batch_sizes(self, race):
        """Four threads on one pipeline, each call running B=1, 3 and 8
        (three model plans over the same layer plans) in one of two
        orders; fused == reference on every call."""
        pipeline, images = race
        sizes = (1, 3, 8)
        batches = {b: images[:b].copy() for b in sizes}
        reference = {b: pipeline.run_batch_reference(batches[b]) for b in sizes}
        for b in sizes:  # compile each plan once, before the threads race
            assert_batches_identical(pipeline.run_batch(batches[b]), reference[b])

        def job(order):
            def run():
                return [r for b in order for r in pipeline.run_batch(batches[b])]

            return run, [r for b in order for r in reference[b]]

        jobs = [job(sizes), job(sizes[::-1])]
        assert len(jobs) * RACE_THREADS == 4
        assert _hammer(jobs) == [0, 0]
        stats = cache_stats()["core.model_plan"]
        assert (stats.misses, stats.size) == (len(sizes), len(sizes))

    def test_sharded_beside_parent_plan(self, race):
        from repro.shard import sharded_run_batch

        pipeline, images = race
        fused = pipeline.run_batch(images)
        sharded = sharded_run_batch(pipeline, images, (2,))
        assert_batches_identical(sharded, fused)
        mismatches = _hammer(
            [
                (lambda: sharded_run_batch(pipeline, images, (2,)), sharded),
                (lambda: pipeline.run_batch(images), fused),
            ]
        )
        assert mismatches == [0, 0]
