"""Whole-model fused streaming execution plans.

:mod:`repro.core.plan` compiles each conv/FC layer into an exact-GEMM
plan, but the per-layer path still round-trips every layer through fresh
numpy temporaries: it detaches each result with a ``transpose`` copy,
rescans the peak magnitude per layer, and materializes several float
temporaries per requantize.  This module compiles the *network* the way
the paper's accelerator streams it: one :class:`ModelPlan` per (pipeline,
batch geometry) that

- **fuses each conv/FC with its epilogue** — bias add, requantize to the
  layer's 8-bit output format, ReLU (folded into the clip bound) and, when
  adjacent, the integer-exact MaxPool — into a single stage;
- **threads activations through two preallocated ping-pong CHW buffers**
  sized to the network's high-water mark, in the narrowest signed integer
  dtype that holds every streamed format's codes (int8 for an 8-bit
  pipeline, the width of the paper's FT-Buffer words), so no per-layer
  output is ever materialized (stages read their raw sums out of the
  arena and write requantized codes straight into the destination
  buffer; the one widening cast is the padded-input copy or im2col);
- **hoists run-time decisions to compile time**: each layer's exact
  datapath (float32 GEMM below ``2**24``, float64 GEMM below ``2**53``,
  int64 matmul below ``2**63``, or a ``ValueError``) comes from the
  tracked quantized-format code range, with no ``abs().max()`` scan per
  layer per batch; a stage whose datapath differs from the layer plan's
  stored float32 weights casts them once, here; the bias codes and
  requantize scale factors are computed once, and the host/accelerator
  split is resolved when the plan is built;
- **owns all kernel scratch in one arena**: the im2col patches, the padded
  input, the raw sums and the requantize scratch are sized at compile time
  (in bytes of each stage's datapath dtype) and reused by every stage of
  every call, under the plan's lock.  Layer plans hold no mutable state,
  so model plans that share a layer never share its scratch.

Bit-exactness: every fused stage computes the *same* integer sums as
:meth:`repro.pipeline.QuantizedPipeline.run_batch_reference` (both apply
the layer plan's datapath rule, which is exact on every rung) and then the
same float64 requantize (power-of-two scale factors make the fused single
multiply exact, integer max equals float max on integer codes, and the
stream dtype holds every code exactly), so fused
outputs and op counts are identical to the per-layer path — pinned by the
hypothesis differential suite in ``tests/test_model_fused.py``.

MaxPool runs on integer codes as K*K elementwise maxima over strided
slices of the stream (Caffe ceil mode, no fill value). Host layers
(AvgPool, LRN, Softmax) stay on the float path, exactly as the paper's
CPU/FPGA split prescribes: they dequantize out of the stream, run in
float64, and requantize back into the ping-pong flow.  Each pool and host
stage runs inside a ``host`` telemetry span, each fused stage inside a
``kernel`` span.

Plans are LRU-cached per (pipeline identity, quantization token, batch
geometry) and registered with the telemetry cache registry as
``core.model_plan``.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.layers import (
    AvgPool2D,
    Dropout,
    Flatten,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Softmax,
)
from ..nn.tensor import FeatureShape, pool_output_extent
from ..quant.fixed_point import QFormat
from ..telemetry.caches import BoundedCache
from ..telemetry.context import get_active
from .plan import LayerPlan, compile_layer_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle with repro.pipeline
    from ..pipeline import QuantizedPipeline

#: Compiled model plans kept before LRU eviction.  Model plans own the
#: ping-pong buffers (two stream-dtype arrays at the network's high-water
#: mark, int8 for 8-bit pipelines) and the float64 raw-sum scratch, so the
#: bound is deliberately small.
MODEL_PLAN_CACHE_CAPACITY = 8

#: Candidate stream dtypes, narrowest first.
_STREAM_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def _max_abs_code(fmt: QFormat) -> int:
    """The largest |code| the format can emit — the static input peak."""
    return max(-fmt.min_code, fmt.max_code)


def _stream_dtype(fmts: Sequence[QFormat]) -> np.dtype:
    """The narrowest signed integer dtype holding every format's codes."""
    lo = min(fmt.min_code for fmt in fmts)
    hi = max(fmt.max_code for fmt in fmts)
    for dtype in _STREAM_DTYPES:
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return np.dtype(dtype)
    raise ValueError(f"code range [{lo}, {hi}] does not fit int64")


class _FusedStage:
    """conv/FC + bias + requantize [+ ReLU] [+ integer MaxPool], one stage."""

    __slots__ = (
        "name",
        "plan",
        "bias_codes",
        "bias_column",
        "factor",
        "clip_lo",
        "clip_hi",
        "pool",
        "is_fc",
        "input_peak",
        "sum_dtype",
        "weights",
        "datapath",
        "conv_shape",
        "out_shape",
        "fused_names",
    )

    def __init__(
        self,
        name: str,
        plan: LayerPlan,
        bias_codes: np.ndarray,
        in_fmt: QFormat,
        datapath_fmt: QFormat,
        out_fmt: QFormat,
        relu: bool,
        pool: Optional[MaxPool2D],
        is_fc: bool,
        conv_shape: FeatureShape,
        out_shape: FeatureShape,
        fused_names: Tuple[str, ...],
    ) -> None:
        self.name = name
        self.plan = plan
        self.bias_codes = bias_codes
        # One multiply replaces dequantize(datapath) o quantize(out): both
        # scales are powers of two, so (codes * 2**-dp) * 2**out and
        # codes * 2**(out - dp) round identically (each step is exact).
        self.factor = 2.0 ** (out_fmt.frac_bits - datapath_fmt.frac_bits)
        # ReLU folds into the requantize clip: max(clip(x, lo, hi), 0)
        # == clip(x, max(lo, 0), hi), and out_fmt.max_code >= 0 always.
        self.clip_lo = float(max(out_fmt.min_code, 0) if relu else out_fmt.min_code)
        self.clip_hi = float(out_fmt.max_code)
        self.pool = pool
        self.is_fc = is_fc
        self.input_peak = _max_abs_code(in_fmt)
        bias_peak = int(np.abs(bias_codes).max()) if bias_codes.size else 0
        # Compile-time exactness proof: the plan's datapath rule applied to
        # the format's peak code (float32 GEMM below 2**24, float64 below
        # 2**53, int64 matmul below 2**63, ValueError beyond), with the
        # weights cast to that dtype once, here.
        self.sum_dtype = plan.sum_dtype(self.input_peak, bias_peak)
        self.weights = plan.group_weights(self.sum_dtype)
        self.bias_column = bias_codes.astype(self.sum_dtype)[:, None]
        self.datapath = np.dtype(self.sum_dtype).name
        self.conv_shape = conv_shape
        self.out_shape = out_shape
        self.fused_names = fused_names

    def run(self, arena: "_Arena", current: np.ndarray) -> np.ndarray:
        batch = (
            current.reshape(current.shape[0], -1, 1, 1) if self.is_fc else current
        )
        channels = self.plan.out_channels
        # float64 sums land in float_a and scale in place below; float32
        # and int64 sums land in float_b's bytes, which the rounding step
        # only overwrites after the scale has consumed them.
        raw, images, out_rows, out_cols = self.plan.sums_into(
            batch,
            self.sum_dtype,
            self.weights,
            self.bias_column,
            out=arena.float_a if self.sum_dtype is np.float64 else arena.float_b,
            patches=arena.patches,
            padded=arena.padded,
        )
        # Requantize in the shared float64 scratch: one exact power-of-two
        # multiply (float32 and int64 sums upcast exactly first), round
        # half away from zero, clip (ReLU included).
        scaled = arena.float_a[: raw.size].reshape(raw.shape)
        np.multiply(raw, self.factor, out=scaled, dtype=np.float64)
        rounded = arena.float_b[: raw.size].reshape(raw.shape)
        np.abs(scaled, out=rounded)
        rounded += 0.5
        np.floor(rounded, out=rounded)
        np.copysign(rounded, scaled, out=rounded)
        np.clip(rounded, self.clip_lo, self.clip_hi, out=rounded)
        # One strided pass writes the kernel-major sums into the BCHW
        # destination view — the detach copy and the cast to the stream
        # dtype (exact: the clip keeps every code in range) in one.
        dest = arena.claim(current, (images, channels, out_rows, out_cols))
        np.copyto(
            dest.transpose(1, 0, 2, 3),
            rounded.reshape(channels, images, out_rows, out_cols),
            casting="unsafe",
        )
        if self.pool is not None:
            dest = _integer_maxpool(arena, self.pool, dest)
        return dest


def _integer_maxpool(arena: "_Arena", pool: MaxPool2D, current: np.ndarray) -> np.ndarray:
    """Ceil-mode max pooling on integer codes, into the free ping buffer.

    K*K elementwise maxima over strided slices of the stream, written
    straight into the destination.  Window offset ``(i, j)`` reads input
    pixel ``(r*S + i, c*S + j)`` for output ``(r, c)``; the ``(0, 0)``
    offset covers the whole output grid (every ceil-mode window starts
    inside the map) and seeds it, and each later offset maxes into the
    output sub-grid whose pixel lies inside the map.  Ceil-mode tails thus
    take the max over their real pixels with no fill value, and max of
    codes == code of max, so this is bit-identical to the reference's
    float64 pool + ``astype(int64)``.
    """
    images, channels, rows, cols = current.shape
    kernel, stride = pool.kernel, pool.stride
    out_rows = pool_output_extent(rows, kernel, stride)
    out_cols = pool_output_extent(cols, kernel, stride)
    dest = arena.claim(current, (images, channels, out_rows, out_cols))
    np.copyto(
        dest,
        current[:, :, : (out_rows - 1) * stride + 1 : stride,
                : (out_cols - 1) * stride + 1 : stride],
        casting="same_kind",
    )
    for i in range(kernel):
        # Output rows r with r*S + i < rows (at least one: i < K <= rows).
        n_rows = min(out_rows, (rows - i + stride - 1) // stride)
        for j in range(kernel):
            if i == j == 0:
                continue
            n_cols = min(out_cols, (cols - j + stride - 1) // stride)
            window = dest[:, :, :n_rows, :n_cols]
            np.maximum(
                window,
                current[:, :, i : i + (n_rows - 1) * stride + 1 : stride,
                        j : j + (n_cols - 1) * stride + 1 : stride],
                out=window,
            )
    return dest


class _PoolStage:
    """Standalone integer MaxPool (not adjacent to a conv epilogue)."""

    __slots__ = ("name", "pool")

    kind = "maxpool"

    def __init__(self, name: str, pool: MaxPool2D) -> None:
        self.name = name
        self.pool = pool

    def run(self, arena: "_Arena", current: np.ndarray) -> np.ndarray:
        return _integer_maxpool(arena, self.pool, current)


class _ReLUStage:
    """Standalone elementwise ReLU, in place on the stream buffer."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def run(self, arena: "_Arena", current: np.ndarray) -> np.ndarray:
        np.maximum(current, 0, out=current)
        return current


class _ReshapeStage:
    """Flatten / Dropout: pure view changes, no data movement."""

    __slots__ = ("name", "flatten")

    def __init__(self, name: str, flatten: bool) -> None:
        self.name = name
        self.flatten = flatten

    def run(self, arena: "_Arena", current: np.ndarray) -> np.ndarray:
        if self.flatten:
            return current.reshape(current.shape[0], -1, 1, 1)
        return current


class _HostStage:
    """AvgPool / LRN / Softmax: dequantize, run float64, requantize.

    The float round-trip is byte-for-byte the reference path's — host
    layers are where the paper's system leaves the integer stream, so the
    fused plan leaves it the same way.
    """

    __slots__ = ("name", "layer", "kind", "in_fmt", "out_fmt")

    #: ``kind`` span attribute per host layer type.
    KINDS = {AvgPool2D: "avgpool", LocalResponseNorm: "lrn", Softmax: "softmax"}

    def __init__(self, name: str, layer, in_fmt: QFormat, out_fmt: QFormat) -> None:
        self.name = name
        self.layer = layer
        self.kind = next(k for t, k in self.KINDS.items() if isinstance(layer, t))
        self.in_fmt = in_fmt
        self.out_fmt = out_fmt

    def run(self, arena: "_Arena", current: np.ndarray) -> np.ndarray:
        real = self.layer.forward_batch(self.in_fmt.dequantize(current))
        # The fresh int64 codes array rejoins the stream directly;
        # downstream claims fall back to ping buffer 0 when reading from
        # it, and narrow back to the stream dtype as they write.
        return self.out_fmt.quantize(real)


class _Arena:
    """All mutable buffers of one model plan.

    Two ping-pong buffers at the activation high-water mark, in the plan's
    stream dtype (the narrowest signed integer dtype holding every
    streamed format's codes: int8 for an 8-bit pipeline), two float64
    raw-sum/requantize scratches at the largest raw conv output, and the
    largest im2col patch matrix and padded input any stage needs.
    ``claim`` hands out a view of whichever ping buffer the caller is *not*
    reading from, so a stage can always write its output while streaming
    its input.  The patch and padded buffers are 8-byte words that each
    stage's layer plan views in its datapath dtype (float32, float64 or
    int64), and are sized in bytes of that dtype; float32 sums fill half
    of ``float_b``'s bytes.
    """

    __slots__ = ("sizes", "ping", "float_a", "float_b", "patches", "padded")

    def __init__(
        self,
        stream_dtype: np.dtype,
        high_water: int,
        float_elements: int,
        patch_elements: int,
        pad_elements: int,
    ) -> None:
        self.sizes = (
            stream_dtype, high_water, float_elements, patch_elements, pad_elements
        )
        self.ping = (
            np.empty(high_water, dtype=stream_dtype),
            np.empty(high_water, dtype=stream_dtype),
        )
        self.float_a = np.empty(float_elements, dtype=np.float64)
        self.float_b = np.empty(float_elements, dtype=np.float64)
        self.patches = np.empty(patch_elements, dtype=np.float64)
        self.padded = np.empty(pad_elements, dtype=np.float64)

    def _index_of(self, array: np.ndarray) -> Optional[int]:
        base = array
        while base.base is not None:  # walk view chains to the owning array
            base = base.base
        for i, buf in enumerate(self.ping):
            if base is buf:
                return i
        return None

    def claim(self, current: np.ndarray, shape: Sequence[int]) -> np.ndarray:
        """A destination view that does not alias ``current``."""
        src = self._index_of(current)
        dest = 1 - src if src is not None else 0
        n = int(np.prod(shape))
        return self.ping[dest][:n].reshape(shape)

    def twin(self) -> "_Arena":
        """A fresh arena of the same dtype and sizes (a shard's private scratch)."""
        return _Arena(*self.sizes)

    @property
    def nbytes(self) -> int:
        return sum(
            buf.nbytes
            for buf in self.ping + (self.float_a, self.float_b, self.patches, self.padded)
        )


class ModelPlan:
    """A quantized network compiled for fused streaming execution."""

    def __init__(
        self, pipeline: "QuantizedPipeline", batch_shape: Tuple[int, ...]
    ) -> None:
        if len(batch_shape) != 4:
            raise ValueError(f"expected a BCHW batch shape, got {batch_shape}")
        if pipeline.input_fmt is None:
            raise RuntimeError(
                "pipeline is not calibrated: call calibrate() before compiling "
                "a model plan"
            )
        if not pipeline.compiled:
            raise RuntimeError(
                "pipeline is not quantized: call quantize() before compiling "
                "a model plan"
            )
        images = int(batch_shape[0])
        self.batch_shape = tuple(int(s) for s in batch_shape)
        self.network_name = pipeline.network.name
        self.input_fmt = pipeline.input_fmt
        self.stages: List[object] = []
        #: (layer name, accumulates, multiplies) per accelerated layer, in
        #: network order — the batch-total op counts are exact constants.
        self.layer_ops: List[Tuple[str, int, int]] = []
        self._lock = threading.Lock()

        layers = list(pipeline.network)
        shape = FeatureShape(*(int(s) for s in batch_shape[1:]))
        fmt = pipeline.input_fmt
        streamed = [fmt]
        high_water = images * shape.size
        float_elements = 1
        patch_elements = 0
        pad_elements = 0
        index = 0
        while index < len(layers):
            layer = layers[index]
            name = layer.name
            if name in pipeline.compiled:
                compiled = pipeline.compiled[name]
                datapath_fmt = QFormat(
                    32, fmt.frac_bits + compiled.weight_fmt.frac_bits
                )
                bias_codes = datapath_fmt.quantize(compiled.bias_codes)
                plan = compile_layer_plan(compiled.encoded, compiled.geometry)
                conv_shape = layer.output_shape(shape)
                fused = [name]
                relu = False
                pool: Optional[MaxPool2D] = None
                if index + 1 < len(layers) and isinstance(layers[index + 1], ReLU):
                    relu = True
                    fused.append(layers[index + 1].name)
                    index += 1
                if index + 1 < len(layers) and isinstance(
                    layers[index + 1], MaxPool2D
                ):
                    pool = layers[index + 1]
                    fused.append(pool.name)
                    index += 1
                out_shape = pool.output_shape(conv_shape) if pool else conv_shape
                stage = _FusedStage(
                    name=name,
                    plan=plan,
                    bias_codes=bias_codes,
                    in_fmt=fmt,
                    datapath_fmt=datapath_fmt,
                    out_fmt=compiled.output_fmt,
                    relu=relu,
                    pool=pool,
                    is_fc=compiled.is_fc,
                    conv_shape=conv_shape,
                    out_shape=out_shape,
                    fused_names=tuple(fused),
                )
                self.stages.append(stage)
                pixels = images * conv_shape.rows * conv_shape.cols
                self.layer_ops.append(
                    (
                        name,
                        plan.accumulates_per_pixel * pixels,
                        plan.multiplies_per_pixel * pixels,
                    )
                )
                high_water = max(high_water, images * conv_shape.size)
                float_elements = max(float_elements, images * conv_shape.size)
                patches, padded = plan.scratch_elements(
                    (images, shape.size, 1, 1)
                    if compiled.is_fc
                    else (images,) + shape.as_tuple()
                )
                # Arena buffers are 8-byte words; round the stage's datapath
                # bytes up to whole words.
                itemsize = np.dtype(stage.sum_dtype).itemsize
                patch_elements = max(patch_elements, -(-patches * itemsize // 8))
                pad_elements = max(pad_elements, -(-padded * itemsize // 8))
                fmt = compiled.output_fmt
                streamed.append(fmt)
                shape = out_shape
            elif isinstance(layer, ReLU):
                self.stages.append(_ReLUStage(name))
            elif isinstance(layer, MaxPool2D):
                self.stages.append(_PoolStage(name, layer))
                shape = layer.output_shape(shape)
            elif isinstance(layer, (Flatten, Dropout)):
                self.stages.append(
                    _ReshapeStage(name, flatten=isinstance(layer, Flatten))
                )
                shape = layer.output_shape(shape)
            elif isinstance(layer, (AvgPool2D, LocalResponseNorm, Softmax)):
                out_fmt = pipeline.output_fmts.get(name, fmt)
                self.stages.append(_HostStage(name, layer, fmt, out_fmt))
                fmt = out_fmt
                streamed.append(fmt)
                shape = layer.output_shape(shape)
            else:
                raise TypeError(f"pipeline cannot execute layer {layer!r}")
            high_water = max(high_water, images * shape.size)
            index += 1
        self.output_fmt = fmt
        self.output_shape = shape
        self.arena = _Arena(
            _stream_dtype(streamed),
            high_water,
            float_elements,
            patch_elements,
            pad_elements,
        )

    # ---- execution -------------------------------------------------------

    def run(self, codes: np.ndarray) -> Tuple[np.ndarray, QFormat]:
        """Stream quantized input codes through every fused stage.

        Returns the final integer codes as int64, copied out of the arena
        before the lock is released, and their format.  The arena is the
        plan's only mutable state, so concurrent runs serialize on the plan
        lock.
        """
        if codes.shape != self.batch_shape:
            raise ValueError(
                f"model plan compiled for batch {self.batch_shape}, "
                f"got {codes.shape}"
            )
        with self._lock:
            current = _run_stages(self.stages, self.arena, codes, get_active())
            return current.astype(np.int64), self.output_fmt

    # ---- reporting -------------------------------------------------------

    def describe(self) -> str:
        """One-line summary for logs and benchmarks."""
        fused = [s for s in self.stages if isinstance(s, _FusedStage)]
        host = sum(1 for s in self.stages if isinstance(s, _HostStage))
        datapaths = Counter(stage.datapath for stage in fused)
        datapath_part = ",".join(f"{k}:{v}" for k, v in sorted(datapaths.items()))
        return (
            f"model_plan({self.network_name}: {len(self.stages)} stages, "
            f"{len(fused)} fused, {host} host, batch={self.batch_shape}, "
            f"datapaths={datapath_part}, "
            f"stream={self.arena.ping[0].dtype.name}, "
            f"arena={self.arena.nbytes / 1e6:.1f} MB)"
        )


def _run_stages(
    stages: Sequence[object], arena: _Arena, current: np.ndarray, telemetry
) -> np.ndarray:
    """Stream ``current`` through ``stages`` in ``arena``.

    Under active ``telemetry`` each fused stage runs in a ``kernel`` span
    and each pool or host stage in a ``host`` span; reshape and ReLU
    stages are views or one in-place pass and record none.
    """
    images = int(current.shape[0])
    for stage in stages:
        if telemetry is None:
            current = stage.run(arena, current)
        elif isinstance(stage, _FusedStage):
            with telemetry.span(
                "kernel",
                layer=stage.name,
                images=images,
                fused=",".join(stage.fused_names),
                datapath=stage.datapath,
            ):
                current = stage.run(arena, current)
        elif isinstance(stage, (_PoolStage, _HostStage)):
            with telemetry.span("host", layer=stage.name, kind=stage.kind):
                current = stage.run(arena, current)
        else:
            current = stage.run(arena, current)
    return current


_model_plan_cache = BoundedCache("core.model_plan", MODEL_PLAN_CACHE_CAPACITY)


def compile_model_plan(
    pipeline: "QuantizedPipeline", batch_shape: Tuple[int, ...]
) -> ModelPlan:
    """The cached :class:`ModelPlan` for (pipeline, batch geometry).

    Keyed on the pipeline's identity, its quantization token (bumped by
    ``prune``/``calibrate``/``quantize``, so a re-quantized pipeline never
    reuses stale stages) and the batch shape; entries evict when the
    pipeline is garbage collected or the LRU bound trips.  A compile miss
    records a ``fuse`` span under the active telemetry.
    """

    def compile_plan() -> ModelPlan:
        telemetry = get_active()
        if telemetry is None:
            return ModelPlan(pipeline, tuple(batch_shape))
        with telemetry.span(
            "fuse", model=pipeline.network.name, batch=list(batch_shape)
        ):
            return ModelPlan(pipeline, tuple(batch_shape))

    return _model_plan_cache.get_or_create(
        (pipeline.quantization_token, tuple(batch_shape)),
        compile_plan,
        owner=pipeline,
    )


#: Drop all compiled model plans (tests and memory-sensitive callers).
clear_model_plan_cache = _model_plan_cache.clear
