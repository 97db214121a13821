"""Differential tests of executable Winograd/spectral scheme dispatch.

Three layers of guarantees:

- kernel level: ``winograd_conv2d`` / ``spectral_conv2d`` are bit-exact
  against direct integer convolution across randomized geometries
  (hypothesis-driven, mirroring the ABM differential suite);
- model level: ``run_batch(images, schemes=...)`` stays bit-exact against
  the per-layer reference path for every scheme assignment, and the ABM
  default is untouched;
- planning level: ``plan_model_schemes`` picks Winograd units for 3x3
  stride-1 layers at bench scale on the float64 GEMM rung (where the
  calibrated cost model puts the measured win region), keeps them on ABM
  on the float32 rung, stays honestly homogeneous at full size and on the
  cycles basis (the Figure 1 claim), and respects the fabric gate and the
  margin.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import winograd as winograd_module
from repro.baselines import spectral as spectral_module
from repro.baselines.spectral import spectral_conv2d, spectral_ops, spectral_supported
from repro.baselines.winograd import (
    winograd_conv2d,
    winograd_ops,
    winograd_reduction,
    winograd_supported,
)
from repro.core import (
    ConvGeometry,
    conv_spec,
    direct_conv2d_codes,
    encode_layer,
    fc_spec,
)
from repro.core.model_plan import clear_model_plan_cache, compile_model_plan
from repro.core.schemes import FLOAT32_GEMM_COST, get_scheme_model
from repro.dse.schemes import (
    BASIS_CYCLES,
    ModelSchemePlan,
    plan_model_schemes,
)
from repro.hw.config import PAPER_CONFIG_VGG16
from repro.hw.device import get_device
from repro.nn.models import (
    Architecture,
    ConvDef,
    FCDef,
    FlattenDef,
    PoolDef,
    ReLUDef,
)
from repro.pipeline import QuantizedPipeline
from repro.telemetry.caches import cache_stats
from repro.workloads.synthetic import synthetic_model_workload


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_model_plan_cache()
    winograd_module.clear_transform_cache()
    spectral_module.clear_fft_cache()
    yield
    clear_model_plan_cache()
    winograd_module.clear_transform_cache()
    spectral_module.clear_fft_cache()


def random_layer(rng, *, kernel, stride, padding, groups, size):
    group_in = int(rng.integers(1, 4))
    group_out = int(rng.integers(1, 4))
    shape = (groups * group_out, group_in, kernel, kernel)
    weights = rng.integers(-8, 9, size=shape)
    weights = (weights * (rng.random(shape) < 0.6)).astype(np.int64)
    features = rng.integers(-128, 128, size=(groups * group_in, size, size))
    geometry = ConvGeometry(
        kernel=kernel, stride=stride, padding=padding, groups=groups
    )
    return features, weights, geometry


# ---- kernel-level differentials -------------------------------------------


class TestWinogradKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        padding=st.integers(0, 2),
        groups=st.sampled_from([1, 1, 2, 3]),
        size=st.integers(4, 13),
        tile=st.sampled_from([2, 4]),
    )
    def test_matches_direct(self, seed, padding, groups, size, tile):
        rng = np.random.default_rng(seed)
        features, weights, geometry = random_layer(
            rng, kernel=3, stride=1, padding=padding, groups=groups, size=size
        )
        expected = direct_conv2d_codes(features, weights, geometry)
        result = winograd_conv2d(features, weights, geometry, tile=tile)
        assert np.array_equal(result.output, expected)

    def test_rejects_non_winograd_geometry(self, rng):
        features, weights, geometry = random_layer(
            rng, kernel=3, stride=2, padding=1, groups=1, size=9
        )
        with pytest.raises(ValueError, match="stride=1"):
            winograd_conv2d(features, weights, geometry)

    def test_reduction_factors(self):
        # 9 multiplies per output become (m+2)^2 per m^2 outputs.
        assert winograd_reduction(2) == pytest.approx(9 * 4 / 16)
        assert winograd_reduction(4) == pytest.approx(9 * 16 / 36)

    def test_ops_fall_below_dense(self):
        spec = conv_spec(
            "c", in_channels=64, out_channels=64, kernel=3, stride=1,
            padding=1, in_rows=56, in_cols=56,
        )
        for tile in (2, 4):
            ops = winograd_ops(spec, tile=tile)
            assert ops.multiplies < spec.macs
            assert ops.total_ops < spec.dense_ops

    def test_supported_predicate(self):
        good = conv_spec("g", in_channels=8, out_channels=8, kernel=3,
                         stride=1, padding=1, in_rows=12, in_cols=12)
        strided = conv_spec("s", in_channels=8, out_channels=8, kernel=3,
                            stride=2, padding=1, in_rows=12, in_cols=12)
        five = conv_spec("f", in_channels=8, out_channels=8, kernel=5,
                         stride=1, padding=2, in_rows=12, in_cols=12)
        assert winograd_supported(good)
        assert not winograd_supported(strided)
        assert not winograd_supported(five)
        assert not winograd_supported(fc_spec("fc", 16, 8))


class TestSpectralKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kernel=st.sampled_from([2, 3, 5]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
        groups=st.sampled_from([1, 1, 2]),
        size=st.integers(6, 13),
    )
    def test_matches_direct(self, seed, kernel, stride, padding, groups, size):
        rng = np.random.default_rng(seed)
        features, weights, geometry = random_layer(
            rng, kernel=kernel, stride=stride, padding=padding,
            groups=groups, size=size,
        )
        expected = direct_conv2d_codes(features, weights, geometry)
        result = spectral_conv2d(features, weights, geometry)
        assert np.array_equal(result.output, expected)

    def test_supported_predicate(self):
        conv = conv_spec("c", in_channels=8, out_channels=8, kernel=5,
                         stride=2, padding=1, in_rows=12, in_cols=12)
        point = conv_spec("p", in_channels=8, out_channels=8, kernel=1,
                          stride=1, padding=0, in_rows=12, in_cols=12)
        assert spectral_supported(conv)
        assert not spectral_supported(point)
        assert not spectral_supported(fc_spec("fc", 16, 8))

    def test_ops_scale_with_fft_bins(self):
        small = conv_spec("s", in_channels=16, out_channels=16, kernel=3,
                          stride=1, padding=1, in_rows=8, in_cols=8)
        large = conv_spec("l", in_channels=16, out_channels=16, kernel=3,
                          stride=1, padding=1, in_rows=32, in_cols=32)
        assert spectral_ops(large).total_ops > spectral_ops(small).total_ops


# ---- model-level differentials --------------------------------------------


def scheme_arch(kernel=3, stride=1):
    return Architecture(
        name="sch",
        input_channels=3,
        input_rows=12,
        input_cols=12,
        defs=[
            ConvDef("c1", 6, kernel=kernel, stride=stride, padding=1),
            ReLUDef("r1"),
            ConvDef("c2", 8, kernel=3, padding=1, groups=2),
            PoolDef("p1", kernel=2, stride=2),
            FlattenDef("fl"),
            FCDef("fc", 5, scale_output=False),
        ],
    )


def build_pipeline(arch, rng, feature_bits=8):
    network = arch.build(seed=7)
    pipeline = QuantizedPipeline(network, feature_bits=feature_bits)
    sample = rng.standard_normal(
        (arch.input_channels, arch.input_rows, arch.input_cols)
    )
    pipeline.calibrate(sample)
    pipeline.quantize()
    return pipeline


def assert_outputs_identical(fused, reference):
    assert len(fused) == len(reference)
    for f, r in zip(fused, reference):
        assert np.array_equal(f.output, r.output)


class TestFusedSchemeDispatch:
    @pytest.mark.parametrize(
        "schemes",
        [
            {"c1": "winograd2"},
            {"c1": "winograd4"},
            {"c1": "spectral"},
            {"c1": "winograd2", "c2": "winograd2"},
            {"c1": "spectral", "c2": "winograd4"},
        ],
    )
    def test_bit_exact_against_reference(self, rng, schemes):
        pipeline = build_pipeline(scheme_arch(), rng)
        images = rng.standard_normal((3, 3, 12, 12))
        fused = pipeline.run_batch(images, schemes=schemes)
        assert_outputs_identical(fused, pipeline.run_batch_reference(images))

    def test_abm_default_unchanged(self, rng):
        pipeline = build_pipeline(scheme_arch(), rng)
        images = rng.standard_normal((2, 3, 12, 12))
        default = pipeline.run_batch(images)
        explicit = pipeline.run_batch(images, schemes={"c1": "abm"})
        assert_outputs_identical(default, explicit)
        assert_outputs_identical(default, pipeline.run_batch_reference(images))

    def test_strided_spectral(self, rng):
        pipeline = build_pipeline(scheme_arch(kernel=5, stride=2), rng)
        images = rng.standard_normal((2, 3, 12, 12))
        fused = pipeline.run_batch(images, schemes={"c1": "spectral"})
        assert_outputs_identical(fused, pipeline.run_batch_reference(images))

    def test_rejects_unknown_layer(self, rng):
        pipeline = build_pipeline(scheme_arch(), rng)
        images = rng.standard_normal((1, 3, 12, 12))
        with pytest.raises(ValueError, match="does not accelerate"):
            pipeline.run_batch(images, schemes={"nope": "winograd2"})

    def test_rejects_fc_assignment(self, rng):
        pipeline = build_pipeline(scheme_arch(), rng)
        images = rng.standard_normal((1, 3, 12, 12))
        with pytest.raises(ValueError):
            pipeline.run_batch(images, schemes={"fc": "winograd2"})

    def test_rejects_unsupported_geometry(self, rng):
        pipeline = build_pipeline(scheme_arch(kernel=3, stride=2), rng)
        images = rng.standard_normal((1, 3, 12, 12))
        with pytest.raises(ValueError, match="does not support"):
            pipeline.run_batch(images, schemes={"c1": "winograd2"})

    def test_rejects_unknown_scheme(self, rng):
        pipeline = build_pipeline(scheme_arch(), rng)
        images = rng.standard_normal((1, 3, 12, 12))
        with pytest.raises(KeyError):
            pipeline.run_batch(images, schemes={"c1": "wavelet"})

    def test_transform_caches_registered_and_hit(self, rng):
        pipeline = build_pipeline(scheme_arch(), rng)
        images = rng.standard_normal((2, 3, 12, 12))
        schemes = {"c1": "winograd2", "c2": "spectral"}
        pipeline.run_batch(images, schemes=schemes)
        pipeline.run_batch(images, schemes=schemes)
        stats = cache_stats()
        assert stats["baselines.winograd"].size >= 1
        assert stats["baselines.winograd"].hits >= 1
        assert stats["baselines.spectral"].size >= 1
        assert stats["baselines.spectral"].hits >= 1


class TestWinogradExactnessEdge:
    """The F(2x2,3x3) proof ``81*C_g*peak_x*peak_w + |bias| < 2**51``, two-sided.

    The winograd2 layer is the first one, so its input peak is the 29-bit
    input format's ``2**28``. With ``C_g = 3`` and a weight peak of 34521
    the product term is ``81 * 3 * 2**28 * 34521 = 2**51 - 1342177280``;
    the bias code fills the rest of the gap (it fits the int32 datapath).
    """

    FEATURE_BITS = 29
    WEIGHT_PEAK = 34521
    PRODUCT = 81 * 3 * 2**28 * WEIGHT_PEAK

    def _pipeline(self, rng, bias_code):
        arch = Architecture(
            name="wino_edge",
            input_channels=3,
            input_rows=8,
            input_cols=8,
            defs=[
                ConvDef("c1", 2, kernel=3, padding=1),
                ReLUDef("r1"),
                FlattenDef("fl"),
                FCDef("fc", 3, scale_output=False),
            ],
        )
        pipeline = build_pipeline(arch, rng, feature_bits=self.FEATURE_BITS)
        compiled = pipeline.compiled["c1"]
        codes = rng.integers(-300, 300, size=(2, 3, 3, 3))
        codes[0, 1, 1, 1] = self.WEIGHT_PEAK
        frac = pipeline.input_fmt.frac_bits + compiled.weight_fmt.frac_bits
        pipeline.compiled["c1"] = dataclasses.replace(
            compiled,
            encoded=encode_layer("c1", codes),
            # Exact in float64; the datapath quantize turns it back into
            # the intended integer code.
            bias_codes=np.array([bias_code, -7], dtype=np.float64) * 2.0**-frac,
        )
        assert pipeline.input_fmt.total_bits == self.FEATURE_BITS
        return pipeline

    def test_compiles_and_matches_reference_just_below(self, rng):
        bias = 2**51 - 1 - self.PRODUCT
        assert bias == 1342177279
        pipeline = self._pipeline(rng, bias)
        images = rng.standard_normal((2, 3, 8, 8))
        plan = compile_model_plan(
            pipeline, images.shape, schemes={"c1": "winograd2"}
        )
        stage = plan.stages[0]
        assert stage.scheme == "winograd2"
        assert stage.plan.group_in == 3
        assert stage.plan.weight_peak == self.WEIGHT_PEAK
        assert stage.input_peak == 2**28
        assert int(np.abs(stage.bias_codes).max()) == bias
        fused = pipeline.run_batch(images, schemes={"c1": "winograd2"})
        assert_outputs_identical(fused, pipeline.run_batch_reference(images))

    def test_rejects_at_2_51(self, rng):
        bias = 2**51 - self.PRODUCT
        pipeline = self._pipeline(rng, bias)
        images = rng.standard_normal((1, 3, 8, 8))
        with pytest.raises(
            ValueError, match=rf"^c1: winograd2 magnitude bound {2**51} >= 2\*\*51"
        ):
            compile_model_plan(pipeline, images.shape, schemes={"c1": "winograd2"})
        with pytest.raises(ValueError, match="c1: winograd2"):
            pipeline.run_batch(images, schemes={"c1": "winograd2"})
        # The ABM datapath has no such limit at this magnitude.
        assert_outputs_identical(
            pipeline.run_batch(images), pipeline.run_batch_reference(images)
        )


# ---- planner --------------------------------------------------------------


class TestSchemePlanner:
    # The executable-cost calibration is host-honest: at full-size VGG16
    # shapes the numpy Winograd transform stacks spill cache and lose to
    # the fused ABM GEMM, so the planner keeps every full-size layer on
    # ABM.  The bench-scale view (quarter channels, half resolution) puts
    # the mid-pyramid in the measured win region — F(4x4,3x3) on the
    # conv3 block at 28x28 maps, F(2x2,3x3) on conv4 at 14x14 — which is
    # exactly the configuration BENCH_schemes.json times.
    @pytest.fixture(scope="class")
    def vgg_plan(self):
        workload = synthetic_model_workload(
            "vgg16", seed=1, scale=0.25, spatial_scale=0.5
        )
        return workload, plan_model_schemes(
            workload, PAPER_CONFIG_VGG16, device=get_device("Stratix-V GXA7")
        )

    def test_winograd_chosen_for_3x3_stride1(self, vgg_plan):
        workload, plan = vgg_plan
        assert isinstance(plan, ModelSchemePlan)
        assert plan.heterogeneous
        assert "winograd2" in plan.enabled
        assert "winograd4" in plan.enabled
        by_name = {layer.spec.name: layer.spec for layer in workload.layers}
        assignment = plan.assignment()
        # Every pick is a Winograd unit on a supported (3x3/s1) layer; the
        # planner deliberately does NOT pick every supported layer — conv1/2
        # and conv5 stay ABM where the transform stacks don't pay.
        assert len(assignment) >= 3
        for layer, scheme in assignment.items():
            assert scheme.startswith("winograd"), (layer, scheme)
            assert winograd_supported(by_name[layer]), layer
        # The mid-pyramid is where the win region sits.
        assert any(layer.startswith("conv3") for layer in assignment)
        assert any(layer.startswith("conv4") for layer in assignment)

    def test_assignment_lists_only_non_abm(self, vgg_plan):
        _, plan = vgg_plan
        assignment = plan.assignment()
        assert assignment
        assert all(scheme != "abm" for scheme in assignment.values())
        assert plan.predicted_speedup > 1.0

    def test_fabric_gate_rejects_spectral_on_paper_device(self, vgg_plan):
        # The paper config already saturates the GXA7 DSPs; the spectral
        # FFT engine asks for more and must be turned away.
        _, plan = vgg_plan
        assert "spectral" in plan.rejected
        assert "spectral" not in plan.enabled

    def test_full_size_execution_plan_stays_abm(self):
        # At full-size shapes the calibrated executable-cost model says the
        # ABM GEMM wins everywhere (the t^2-wide transform stacks blow the
        # cache) — the honest plan is homogeneous.
        workload = synthetic_model_workload("vgg16", seed=1)
        plan = plan_model_schemes(
            workload, PAPER_CONFIG_VGG16, device=get_device("Stratix-V GXA7")
        )
        assert not plan.heterogeneous
        assert plan.predicted_speedup == pytest.approx(1.0)

    def test_cycles_basis_is_homogeneous_abm(self):
        # Figure 1's point: the ABM cycle roof beats the reduced-multiply
        # schemes on the paper configuration, so the hardware-basis plan
        # keeps every layer on ABM.
        workload = synthetic_model_workload("vgg16", seed=1)
        plan = plan_model_schemes(
            workload,
            PAPER_CONFIG_VGG16,
            device=get_device("Stratix-V GXA7"),
            basis=BASIS_CYCLES,
        )
        assert not plan.heterogeneous
        assert plan.predicted_speedup == pytest.approx(1.0)

    def test_huge_margin_keeps_abm(self):
        workload = synthetic_model_workload(
            "vgg16", seed=1, scale=0.25, spatial_scale=0.5
        )
        plan = plan_model_schemes(
            workload,
            PAPER_CONFIG_VGG16,
            device=get_device("Stratix-V GXA7"),
            margin=10.0,
        )
        assert not plan.heterogeneous

    def test_no_device_enables_on_merit_alone(self):
        workload = synthetic_model_workload("vgg16", seed=1)
        plan = plan_model_schemes(workload, PAPER_CONFIG_VGG16)
        assert plan.rejected == ()
        assert plan.heterogeneous

    def test_allowlist_restricts_candidates(self):
        workload = synthetic_model_workload("vgg16", seed=1)
        plan = plan_model_schemes(
            workload, PAPER_CONFIG_VGG16, schemes=("spectral",)
        )
        chosen = {d.scheme for d in plan.decisions}
        assert chosen <= {"abm", "spectral"}

    def test_plan_assignment_executes_bit_exact(self, rng):
        # The planner's output format is directly consumable by run_batch.
        arch = scheme_arch()
        pipeline = build_pipeline(arch, rng)
        images = rng.standard_normal((2, 3, 12, 12))
        fused = pipeline.run_batch(images, schemes={"c1": "winograd2"})
        assert_outputs_identical(fused, pipeline.run_batch_reference(images))

    def test_float32_rung_keeps_bench_scale_on_abm(self, vgg_plan):
        # An 8-bit pipeline proves the float32 GEMM rung on every layer,
        # and that rung out-runs the Winograd picks the bench-scale plan
        # makes against float64 (BENCH_schemes.json, float32_rung rows).
        workload, _ = vgg_plan
        float32 = dataclasses.replace(
            workload,
            layers=tuple(
                dataclasses.replace(layer, host_datapath="float32")
                for layer in workload.layers
            ),
        )
        plan = plan_model_schemes(
            float32, PAPER_CONFIG_VGG16, device=get_device("Stratix-V GXA7")
        )
        assert not plan.heterogeneous
        assert plan.predicted_speedup == pytest.approx(1.0)

    def test_abm_cost_follows_host_datapath(self, vgg_plan):
        workload, _ = vgg_plan
        layer = workload.layers[0]
        abm = get_scheme_model("abm")
        wide = abm.execution_cost(layer)
        assert layer.host_datapath == "float64"
        assert wide == 2.0 * layer.spec.macs
        narrow = dataclasses.replace(layer, host_datapath="float32")
        assert abm.execution_cost(narrow) == pytest.approx(FLOAT32_GEMM_COST * wide)
        assert abm.execution_cost(
            dataclasses.replace(layer, host_datapath="int64")
        ) == wide
        with pytest.raises(ValueError, match="host datapath"):
            dataclasses.replace(layer, host_datapath="float16")

    @pytest.mark.parametrize("feature_bits, rung", [(8, "float32"), (16, "float64")])
    def test_model_plan_reports_each_abm_stage_rung(self, rng, feature_bits, rung):
        # 16-bit features push the sum bound of every stage past 2**24.
        pipeline = build_pipeline(scheme_arch(), rng, feature_bits=feature_bits)
        shape = (2, 3, 12, 12)
        datapaths = compile_model_plan(pipeline, shape).datapaths
        assert datapaths == dict.fromkeys(pipeline.compiled, rung)
        mapped = compile_model_plan(pipeline, shape, schemes={"c1": "winograd2"})
        assert mapped.datapaths == {"c2": rung, "fc": rung}
