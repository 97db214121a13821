"""Tests of the Winograd/spectral baselines and the per-layer scheme planner.

Two layers of guarantees:

- kernel level: ``winograd_conv2d`` / ``spectral_conv2d`` are bit-exact
  against direct integer convolution across randomized geometries
  (hypothesis-driven, mirroring the ABM differential suite), and their
  analytic op counts behave;
- planning level: ``plan_model_schemes`` ranks on accelerator cycles. It
  keeps the paper configuration homogeneous ABM at full size (the Figure 1
  claim), picks Winograd units only for 3x3 stride-1 layers where a
  configuration's multipliers make them win, and respects the fabric
  gate, the margin and the candidate allowlist.

The host runs every layer on the ABM plan; the model-plan test here pins
the exact-GEMM rung each fused stage reports.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    fc_spec,
)
from repro.core.model_plan import _FusedStage, clear_model_plan_cache, compile_model_plan
from repro.core.schemes import get_scheme_model
from repro.dse.schemes import DEFAULT_CANDIDATES, ModelSchemePlan, plan_model_schemes
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
from repro.workloads.synthetic import synthetic_model_workload


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_model_plan_cache()
    yield
    clear_model_plan_cache()


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


# ---- planner --------------------------------------------------------------


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


class TestFusedSchemeDispatch:
    """Fused stages run every conv/FC layer on the ABM plan; scheme names
    are resolved only through the scheme-model registry."""

    def test_rejects_unknown_scheme(self):
        with pytest.raises(KeyError, match=r"unknown scheme 'wavelet'; registered: \["):
            get_scheme_model("wavelet")
        assert get_scheme_model("winograd2").name == "winograd2"


#: The paper's VGG16 configuration with no multiplier sharing (N = 1):
#: four times the multipliers next to the same 840 accumulators, which is
#: where the reduced-multiply units start to win on cycles.
UNSHARED_VGG16 = dataclasses.replace(PAPER_CONFIG_VGG16, n_share=1)

GXA7 = "Stratix-V GXA7"


class TestSchemePlanner:
    # At bench scale (quarter channels, half resolution) VGG16's conv1_1
    # reads 3 input channels, too few to keep ABM's accumulators busy, so
    # F(4x4,3x3)'s multiply reduction wins that one layer on cycles even
    # on the paper configuration; every other layer stays ABM.
    @pytest.fixture(scope="class")
    def vgg_plan(self):
        workload = synthetic_model_workload(
            "vgg16", seed=1, scale=0.25, spatial_scale=0.5
        )
        return workload, plan_model_schemes(
            workload, PAPER_CONFIG_VGG16, device=get_device(GXA7)
        )

    def test_winograd_chosen_for_3x3_stride1(self, vgg_plan):
        workload, plan = vgg_plan
        assert isinstance(plan, ModelSchemePlan)
        assert plan.heterogeneous
        assert plan.enabled == ("winograd4",)
        assert plan.assignment() == {"conv1_1": "winograd4"}
        assert winograd_supported(workload.layer("conv1_1").spec)
        decision = plan.decisions[0]
        assert decision.layer == "conv1_1"
        assert decision.chosen_cycles == decision.cycles["winograd4"]
        assert decision.speedup > 1.0 + plan.margin

    def test_assignment_lists_only_non_abm(self, vgg_plan):
        _, plan = vgg_plan
        assignment = plan.assignment()
        assert assignment
        assert all(scheme != "abm" for scheme in assignment.values())
        assert plan.predicted_speedup > 1.0

    def test_fabric_gate_rejects_spectral_on_paper_device(self):
        # Unshared multipliers make every reduced-multiply unit win on
        # merit, but the paper configuration already saturates the GXA7's
        # DSPs: the gate turns each unit away and the plan stays ABM.
        workload = synthetic_model_workload("vgg16", seed=1)
        plan = plan_model_schemes(
            workload, UNSHARED_VGG16, device=get_device(GXA7)
        )
        assert "spectral" in plan.rejected
        assert "spectral" not in plan.enabled
        assert not plan.heterogeneous
        assert any("does not fit the fabric" in d.reason for d in plan.decisions)

    def test_cycles_basis_is_homogeneous_abm(self):
        # Figure 1's point: the ABM cycle roof beats the reduced-multiply
        # schemes on the paper configuration, so the hardware-basis plan
        # keeps every layer on ABM.
        workload = synthetic_model_workload("vgg16", seed=1)
        plan = plan_model_schemes(
            workload,
            PAPER_CONFIG_VGG16,
            device=get_device("Stratix-V GXA7"),
        )
        assert not plan.heterogeneous
        assert plan.predicted_speedup == pytest.approx(1.0)

    def test_full_size_execution_plan_stays_abm(self):
        # Without a device there is no fabric gate, so every candidate is
        # enabled: the full-size paper configuration still keeps each layer
        # on ABM on merit alone, which is the plan the host executes.
        workload = synthetic_model_workload("vgg16", seed=1)
        plan = plan_model_schemes(workload, PAPER_CONFIG_VGG16)
        assert plan.rejected == ()
        assert plan.assignment() == {}
        assert {d.scheme for d in plan.decisions} == {"abm"}
        assert all(d.speedup == pytest.approx(1.0) for d in plan.decisions)

    def test_huge_margin_keeps_abm(self):
        workload = synthetic_model_workload(
            "vgg16", seed=1, scale=0.25, spatial_scale=0.5
        )
        plan = plan_model_schemes(
            workload,
            PAPER_CONFIG_VGG16,
            device=get_device(GXA7),
            margin=10.0,
        )
        assert not plan.heterogeneous

    def test_no_device_enables_on_merit_alone(self):
        workload = synthetic_model_workload("vgg16", seed=1)
        plan = plan_model_schemes(workload, UNSHARED_VGG16)
        assert plan.rejected == ()
        assert plan.heterogeneous

    def test_allowlist_restricts_candidates(self):
        workload = synthetic_model_workload("vgg16", seed=1)
        plan = plan_model_schemes(workload, UNSHARED_VGG16, schemes=("spectral",))
        assert {d.scheme for d in plan.decisions} == {"abm", "spectral"}
        assert all(set(d.cycles) <= {"abm", "spectral"} for d in plan.decisions)
        with pytest.raises(KeyError, match="wavelet"):
            plan_model_schemes(workload, UNSHARED_VGG16, schemes=("wavelet",))

    def test_default_candidates_leave_prediction_rows_out(self):
        # sdconv/fdconv/spconv are prediction rows unless named explicitly.
        workload = synthetic_model_workload("vgg16", seed=1)
        default = plan_model_schemes(workload, UNSHARED_VGG16)
        candidates = {name for d in default.decisions for name in d.cycles}
        assert candidates == {"abm", *DEFAULT_CANDIDATES}
        named = plan_model_schemes(workload, UNSHARED_VGG16, schemes=("spconv",))
        assert "spconv" in named.enabled

    @pytest.mark.parametrize("feature_bits, rung", [(8, "float32"), (16, "float64")])
    def test_model_plan_reports_each_abm_stage_rung(self, rng, feature_bits, rung):
        # 16-bit features push the sum bound of every stage past 2**24.
        pipeline = build_pipeline(scheme_arch(), rng, feature_bits=feature_bits)
        plan = compile_model_plan(pipeline, (2, 3, 12, 12))
        datapaths = {
            stage.name: stage.datapath
            for stage in plan.stages
            if isinstance(stage, _FusedStage)
        }
        assert datapaths == dict.fromkeys(pipeline.compiled, rung)
        assert f"datapaths={rung}:3," in plan.describe()
