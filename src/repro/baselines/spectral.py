"""Spectral (FFT) convolution: op counts, cycle model and functional baseline.

Where :mod:`repro.baselines.fdconv` keeps [3]'s overlap-and-add reduction
*model*, this module models full-map frequency-domain convolution
(SPEC2-style): rfft2 of the padded input, channel reduction in the
frequency domain, irfft2, valid-crop plus stride decimation. It provides
the analytic op counts (:func:`spectral_ops`), the cycle and fabric model
(:class:`SpectralModel`) the FPGA-side scheme planner ranks, and a
single-call functional baseline (:func:`spectral_conv2d`) that
``abm-spconv verify`` checks against direct integer convolution.

Numerics: the frequency domain is inherently float, so spectral raw sums
carry FFT round-off (~1e-12 relative). On integer codes the true sums are
integers, and at 8-bit magnitudes the absolute error is far below 0.5 —
rounding to the nearest integer recovers the exact spatial result. The
differential suite pins this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from ..core.abm import ConvGeometry
from ..core.schemes import (
    ConvScheme,
    SchemeOps,
    SchemeResources,
    register_scheme_model,
)
from ..core.specs import LayerSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.config import AcceleratorConfig
    from ..hw.workload import LayerWorkload


def spectral_supported(spec: LayerSpec) -> bool:
    """Spectral convolution pays off only when there is a kernel to fold:
    1x1/FC layers are pure channel mixes and stay spatial."""
    return (not spec.is_fc) and spec.kernel > 1


def _fft_component_ops(points: float) -> Tuple[float, float]:
    """(multiplies, accumulates) of one real 2-D FFT over ``points`` samples.

    Radix-2 accounting: ``N log2 N`` complex butterflies at 4 mul + 6 add,
    halved for the real-input/real-output transforms actually used.
    """
    if points <= 1:
        return 0.0, 0.0
    stages = points * math.log2(points)
    return 2.0 * stages, 3.0 * stages


def spectral_ops(spec: LayerSpec) -> SchemeOps:
    """Analytic per-image op counts of the layer under full-map FFT.

    Three stages: forward rfft2 of every input channel, the frequency-domain
    complex multiply-accumulate over channel groups, and inverse rfft2 of
    every output channel. Kernel FFTs amortize across the batch (a deployed
    engine transforms each kernel once, offline) and are excluded,
    symmetrical to Winograd's ``U``.
    """
    if not spectral_supported(spec):
        raise ValueError(f"{spec.name}: spectral needs a conv layer with K > 1")
    rows = spec.in_rows + 2 * spec.padding
    cols = spec.in_cols + 2 * spec.padding
    points = float(rows * cols)
    bins = rows * (cols // 2 + 1)
    fft_mul, fft_acc = _fft_component_ops(points)
    group_in = spec.in_channels // spec.groups
    # Complex mult = 4 mul + 2 add per frequency bin, then the channel
    # reduction adds (C_g - 1) complex adds per output channel and bin.
    elem_mul = 4.0 * bins * spec.out_channels * group_in
    elem_acc = 2.0 * bins * spec.out_channels * group_in + 2.0 * bins * (
        spec.out_channels * max(0, group_in - 1)
    )
    multiplies = fft_mul * (spec.in_channels + spec.out_channels) + elem_mul
    accumulates = fft_acc * (spec.in_channels + spec.out_channels) + elem_acc
    return SchemeOps(multiplies=multiplies, accumulates=accumulates)


def spectral_kernel_fft(
    weights: np.ndarray, fft_shape: Tuple[int, int]
) -> np.ndarray:
    """rfft2 of flipped (M, C, K, K) kernels -> (M, C, rows, cols//2 + 1).

    Flipping turns the FFT's circular convolution into the cross-correlation
    the spatial layers compute, matching :func:`repro.baselines.fdconv2d`.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 4:
        raise ValueError(f"expected (M, C, K, K) weights, got {weights.shape}")
    if weights.shape[2] > fft_shape[0] or weights.shape[3] > fft_shape[1]:
        raise ValueError("kernel larger than the FFT frame")
    return np.fft.rfft2(weights[:, :, ::-1, ::-1], s=fft_shape)


def spectral_raw(
    batch: np.ndarray,
    geometry: ConvGeometry,
    kernel_ffts: Sequence[np.ndarray],
    bias_codes: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int, int, int]:
    """Batched spectral convolution producing raw float64 sums.

    ``batch`` is (B, C, H, W) integer codes; ``kernel_ffts`` holds one
    pre-transformed tensor per channel group, shaped
    (group_out, C_g, H_p, W_p//2 + 1) for the padded map (H_p, W_p).
    Returns ``(raw, images, out_rows, out_cols)`` with ``raw`` shaped
    (M, B * out_rows * out_cols) kernel-major. The circular wraparound of the full-map FFT only touches the
    first ``K - 1`` rows/columns, which the valid crop discards.
    """
    batch = np.asarray(batch)
    if batch.ndim != 4:
        raise ValueError(f"expected a BCHW batch, got shape {batch.shape}")
    images, channels, rows, cols = batch.shape
    k = geometry.kernel
    stride = geometry.stride
    pad = geometry.padding
    groups = geometry.groups
    if len(kernel_ffts) != groups:
        raise ValueError(f"{len(kernel_ffts)} kernel FFTs for {groups} groups")
    group_in = channels // groups
    group_out = kernel_ffts[0].shape[0]
    m_out = group_out * groups
    rows_p = rows + 2 * pad
    cols_p = cols + 2 * pad
    out_rows = (rows_p - k) // stride + 1
    out_cols = (cols_p - k) // stride + 1
    if out_rows < 1 or out_cols < 1:
        raise ValueError("convolution geometry does not fit the input")
    expect = (group_out, group_in, rows_p, cols_p // 2 + 1)
    work = np.asarray(batch, dtype=np.float64)
    if pad:
        work = np.pad(work, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    feature_fft = np.fft.rfft2(work, s=(rows_p, cols_p))
    out = np.empty((m_out, images, out_rows, out_cols), dtype=np.float64)
    for grp in range(groups):
        u = kernel_ffts[grp]
        if u.shape != expect:
            raise ValueError(
                f"group {grp}: kernel FFT shape {u.shape} != {expect}"
            )
        xg = feature_fft[:, grp * group_in : (grp + 1) * group_in]
        product = np.einsum("bnrc,mnrc->bmrc", xg, u)
        full = np.fft.irfft2(product, s=(rows_p, cols_p))
        valid = full[
            :,
            :,
            k - 1 : k - 1 + out_rows * stride : stride,
            k - 1 : k - 1 + out_cols * stride : stride,
        ]
        out[grp * group_out : (grp + 1) * group_out] = valid.transpose(
            1, 0, 2, 3
        )
    raw = out.reshape(m_out, images * out_rows * out_cols)
    if bias_codes is not None:
        raw += np.asarray(bias_codes, dtype=np.float64)[:, None]
    return raw, images, out_rows, out_cols


@dataclass(frozen=True)
class SpectralConvResult:
    """Output and analytic op count of a spectral convolution."""

    output: np.ndarray
    multiply_ops: int
    accumulate_ops: int

    @property
    def total_ops(self) -> int:
        return self.multiply_ops + self.accumulate_ops


def spectral_conv2d(
    feature_codes: np.ndarray,
    weight_codes: np.ndarray,
    geometry: ConvGeometry,
    bias_codes: Optional[np.ndarray] = None,
) -> SpectralConvResult:
    """Spectral convolution of CHW integer codes with (M, C_g, K, K) weights.

    Returns integer codes (FFT round-off removed by rounding to nearest),
    numerically matching :func:`repro.core.abm.direct_conv2d_codes`.
    """
    features = np.asarray(feature_codes)
    weights = np.asarray(weight_codes)
    if features.ndim != 3 or weights.ndim != 4:
        raise ValueError("expected CHW features and (M, C_g, K, K) weights")
    groups = geometry.groups
    m_out = weights.shape[0]
    if m_out % groups:
        raise ValueError("output channels must divide into groups")
    group_out = m_out // groups
    rows_p = features.shape[1] + 2 * geometry.padding
    cols_p = features.shape[2] + 2 * geometry.padding
    ffts = [
        spectral_kernel_fft(
            weights[g * group_out : (g + 1) * group_out], (rows_p, cols_p)
        )
        for g in range(groups)
    ]
    raw, _, out_rows, out_cols = spectral_raw(
        features[None], geometry, ffts, bias_codes=bias_codes
    )
    output = np.rint(raw).astype(np.int64).reshape(m_out, out_rows, out_cols)
    spec = LayerSpec(
        name="spectral",
        kind="conv",
        in_channels=features.shape[0],
        out_channels=m_out,
        kernel=geometry.kernel,
        stride=geometry.stride,
        padding=geometry.padding,
        groups=groups,
        in_rows=features.shape[1],
        in_cols=features.shape[2],
        out_rows=out_rows,
        out_cols=out_cols,
    )
    ops = spectral_ops(spec)
    return SpectralConvResult(
        output=output,
        multiply_ops=int(round(ops.multiplies)),
        accumulate_ops=int(round(ops.accumulates)),
    )


# ---------------------------------------------------------------------------
# Scheme model.
# ---------------------------------------------------------------------------

#: Modeled fabric of one shared FFT engine (butterfly pipeline + twiddle
#: ROMs + line buffers), SPEC2-style: a flat block, not per-CU.
_FFT_ENGINE = SchemeResources(alms=6000, dsps=32, m20ks=24)


class SpectralModel:
    """Full-map FFT convolution as a :class:`SchemeModel`."""

    name = "spectral"
    taxonomy = ConvScheme.FDCONV

    def supports(self, spec: LayerSpec) -> bool:
        return spectral_supported(spec)

    def layer_ops(self, workload: "LayerWorkload") -> SchemeOps:
        return spectral_ops(workload.spec)

    def layer_cycles(
        self, workload: "LayerWorkload", config: "AcceleratorConfig"
    ) -> float:
        """Surviving ops retire two per shared multiplier per cycle (one
        MAC), i.e. effective rate ``R_spec * N_mult`` with the reduction
        implied by the analytic op counts."""
        spec = workload.spec
        if not self.supports(spec):
            return math.inf
        return spectral_ops(spec).total_ops / (2.0 * config.total_multipliers)

    def resource_overhead(self, config: "AcceleratorConfig") -> SchemeResources:
        return _FFT_ENGINE


register_scheme_model(SpectralModel())
