"""Compiled exact-GEMM execution plans for ABM-SpConv layers.

The paper's accumulate-before-multiply loop (Equation 2) pays off on FPGA
logic, where adders are cheap and multipliers are scarce. On a CPU host
the regular compute is BLAS, so a :class:`LayerPlan` runs an encoded
layer as one dense GEMM per channel group over the transposed im2col
patch matrix, and picks its datapath by one exactness rule on the sum
bound ``input_peak * max_weighted_sum + max|bias|``:

- **float32 BLAS GEMM** when the bound is ``< 2**24``;
- **float64 BLAS GEMM** when it is ``< 2**53``;
- **integer** ``np.matmul`` **in int64** when it is ``< 2**63``;
- otherwise a ``ValueError`` naming the layer and the bound.

Below each float limit the weight and feature codes are exact small
integers in that float type, and every product and every partial sum (in
whatever order BLAS adds them, fused multiply-add included) is an integer
below the limit, so the GEMM equals the integer ABM sums term for term.
The datapath width follows the proven operand range, which for 8-bit
features and weights is almost always the float32 rung: half the bytes of
float64 for weights, patches and sums.

``max_weighted_sum`` is the exact per-kernel bound ``max_k sum(|VAL| *
NUM)`` read off the Q-Tables, so the rule needs only a peak of the input.
The fused model plan takes that peak from the tracked quantized-format
range at compile time; the per-layer functions in :mod:`repro.core.abm`
take it from the input itself.

Plans are immutable. The dense weight matrices (scattered once from the
WT-Buffer/Q-Table stream and stored once: in float32 when the group's
largest |code| is below ``2**24``, which every weight of 24 bits or fewer
meets, else in int64), the
analytic op counts and the magnitude bounds are fixed at construction.
The other rungs cast the stored matrix when they use it
(:meth:`LayerPlan.group_weights`); a fused stage does that once when it
compiles, together with its bias column. :meth:`LayerPlan.raw_sums`
allocates fresh arrays per call; :meth:`LayerPlan.sums_into` writes only
into arrays its caller owns, such as the flat scratch a
:class:`repro.core.model_plan.ModelPlan` sizes into its arena. One plan can
therefore serve any number of model plans and threads.

Operation counts stay analytic: ``nnz`` accumulates and one multiply per
Q-Table segment, per output pixel, which is exactly what the reference
loop (:func:`repro.core.abm.abm_conv2d_reference`) counts one iteration
at a time. Plans are cached per (encoded layer, geometry).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry.caches import BoundedCache
from .encoding import EncodedLayer

if TYPE_CHECKING:  # pragma: no cover - import cycle with repro.core.abm
    from .abm import ConvGeometry

#: Integer sums strictly below this magnitude are exact in float32.
FLOAT32_EXACT_LIMIT = 2**24

#: Integer sums strictly below this magnitude are exact in float64.
FLOAT64_EXACT_LIMIT = 2**53

#: Integer sums strictly below this magnitude fit int64.
INT64_EXACT_LIMIT = 2**63

#: Compiled plans kept before LRU eviction.
PLAN_CACHE_CAPACITY = 64


def _view(
    buffer: Optional[np.ndarray], shape: Sequence[int], dtype
) -> np.ndarray:
    """A ``shape``/``dtype`` array over caller scratch, or a fresh one.

    ``buffer`` is flat caller-owned scratch of any 8-byte dtype (a model
    plan arena); its leading bytes are reinterpreted as ``dtype`` (4- or
    8-byte), never copied.
    """
    if buffer is None:
        return np.empty(shape, dtype=dtype)
    return buffer.view(dtype)[: math.prod(shape)].reshape(shape)


class LayerPlan:
    """A layer compiled for exact dense-GEMM execution (see module docs)."""

    def __init__(self, encoded: EncodedLayer, geometry: "ConvGeometry") -> None:
        kernels = len(encoded.kernels)
        if kernels % geometry.groups:
            raise ValueError("output channels must divide into groups")
        self.geometry = geometry
        self.out_channels = kernels
        self.name = encoded.name
        shapes = {kernel.kernel_shape for kernel in encoded.kernels}
        if len(shapes) > 1:
            raise ValueError(f"kernels disagree on shape: {sorted(shapes)}")
        if shapes:
            shape = next(iter(shapes))
            if shape[1] != geometry.kernel:
                raise ValueError(
                    f"encoded kernel size {shape[1]} != geometry kernel "
                    f"{geometry.kernel}"
                )
            self.group_in = shape[0]
        else:
            self.group_in = 0
        self.patch_width = self.group_in * geometry.kernel * geometry.kernel
        self.group_out = kernels // geometry.groups
        #: Exact accumulate operations per output pixel (layer nonzeros).
        self.accumulates_per_pixel = 0
        #: Exact multiply operations per output pixel (Q-Table segments,
        #: counting NUM-field split entries separately, as the loop does).
        self.multiplies_per_pixel = 0
        #: Worst-case |output sum| per unit of input magnitude: the exact
        #: per-kernel bound max_k sum(|VAL| * NUM). Times a bound on |x| it
        #: bounds every GEMM partial sum, which licenses the datapath rule.
        self.max_weighted_sum = 0
        self._dense: Tuple[np.ndarray, ...] = tuple(
            self._compile_group(
                encoded.kernels[g * self.group_out : (g + 1) * self.group_out]
            )
            for g in range(geometry.groups)
        )

    def _compile_group(self, kernels: Sequence) -> np.ndarray:
        """Scatter one group's value-grouped streams into a dense matrix.

        Also folds the group into the analytic op counts and magnitude
        bounds. Returns the read-only ``(group_out, patch_width)`` weight
        matrix, stored in float32 when the group's largest |code| is below
        ``2**24`` (so every entry is exact) and in int64 otherwise.
        """
        values: List[int] = []
        counts: List[int] = []
        kernel_entries: List[int] = []
        columns: List[np.ndarray] = []
        for kernel in kernels:
            for entry in kernel.qtable:
                values.append(entry.value)
                counts.append(entry.count)
            kernel_entries.append(len(kernel.qtable))
            columns.append(kernel.indices)
        value_arr = np.asarray(values, dtype=np.int64)
        count_arr = np.asarray(counts, dtype=np.int64)
        flat_columns = (
            np.concatenate(columns).astype(np.intp)
            if columns
            else np.empty(0, dtype=np.intp)
        )
        if flat_columns.size and int(flat_columns.max()) >= self.patch_width:
            raise ValueError("encoded index exceeds the layer's patch width")
        # Per-kernel sum(|VAL| * NUM) as differences of one running total.
        running = np.zeros(len(values) + 1, dtype=np.int64)
        np.cumsum(np.abs(value_arr) * count_arr, out=running[1:])
        bounds = np.zeros(len(kernel_entries) + 1, dtype=np.intp)
        np.cumsum(kernel_entries, out=bounds[1:])
        peak = 0
        if values:
            weighted = running[bounds[1:]] - running[bounds[:-1]]
            self.max_weighted_sum = max(self.max_weighted_sum, int(weighted.max()))
            peak = int(np.abs(value_arr).max())
        self.accumulates_per_pixel += int(flat_columns.size)
        self.multiplies_per_pixel += len(values)
        # Storage exactness is a fixed float32 fact, not the datapath rule:
        # every integer code below 2**24 is a float32 value.
        storage = np.float32 if peak < 2**24 else np.int64
        matrix = np.zeros((len(kernels), self.patch_width), dtype=storage)
        kernel_nnz = [column.size for column in columns]
        matrix[
            np.repeat(np.arange(len(kernels)), kernel_nnz), flat_columns
        ] = np.repeat(value_arr, count_arr)
        matrix.setflags(write=False)
        return matrix

    # ---- the datapath rule -------------------------------------------------

    def sum_bound(self, input_peak: int, bias_peak: int = 0) -> int:
        """``input_peak * max_weighted_sum + bias_peak``: bounds every sum."""
        return int(input_peak) * self.max_weighted_sum + int(bias_peak)

    def sum_dtype(self, input_peak: int, bias_peak: int = 0) -> type:
        """``np.float32``, ``np.float64`` or ``np.int64``: the narrowest
        exact datapath for this bound.

        Raises ``ValueError`` when the bound reaches ``2**63``, where no
        datapath here can hold the sums exactly.
        """
        bound = self.sum_bound(input_peak, bias_peak)
        if bound < FLOAT32_EXACT_LIMIT:
            return np.float32
        if bound < FLOAT64_EXACT_LIMIT:
            return np.float64
        if bound < INT64_EXACT_LIMIT:
            return np.int64
        raise ValueError(
            f"layer {self.name!r}: sum bound {bound} "
            f"(input peak {int(input_peak)} x max weighted sum "
            f"{self.max_weighted_sum} + bias peak {int(bias_peak)}) "
            "is >= 2**63; int64 cannot hold the exact sums"
        )

    def group_weights(self, dtype) -> Tuple[np.ndarray, ...]:
        """The per-group ``(group_out, patch_width)`` GEMM matrices in ``dtype``.

        The stored matrices where they already have that dtype, else
        read-only casts. The cast is exact for the datapath
        :meth:`sum_dtype` picks: its limit bounds every weight times any
        nonzero input peak (an all-zero input makes every product zero).
        """
        matrices = []
        for stored in self._dense:
            if stored.dtype != dtype:
                stored = stored.astype(dtype)
                stored.setflags(write=False)
            matrices.append(stored)
        return tuple(matrices)

    # ---- execution ---------------------------------------------------------

    def scratch_elements(self, batch_shape: Sequence[int]) -> Tuple[int, int]:
        """(patch, padded-input) elements :meth:`sums_into` needs for a batch.

        The raw output needs ``out_channels * B * out_pixels`` more; a
        caller that supplies its own buffers (the model-plan arena) sizes
        all three.
        """
        images, channels, rows, cols = (int(s) for s in batch_shape)
        out_rows, out_cols = self.geometry.output_hw(rows, cols)
        pad = self.geometry.padding
        padded = images * channels * (rows + 2 * pad) * (cols + 2 * pad) if pad else 0
        return self.patch_width * images * out_rows * out_cols, padded

    def raw_sums(
        self,
        batch: np.ndarray,
        bias_codes: Optional[np.ndarray],
        input_peak: int,
    ) -> Tuple[np.ndarray, int, int, int]:
        """Exact kernel-major sums of a (B, C, H, W) integer-code batch.

        Returns ``(sums, images, out_rows, out_cols)`` where ``sums`` is a
        fresh ``(M, B * out_rows * out_cols)`` array, bias already added,
        in the dtype :meth:`sum_dtype` picks for ``input_peak`` (a bound on
        ``max|batch|``) and the bias peak. Every call allocates its own
        arrays, so concurrent callers never share state through the plan.
        """
        bias = None if bias_codes is None else np.asarray(bias_codes, dtype=np.int64)
        bias_peak = int(np.abs(bias).max()) if bias is not None and bias.size else 0
        dtype = self.sum_dtype(input_peak, bias_peak)
        return self.sums_into(
            batch,
            dtype,
            self.group_weights(dtype),
            None if bias is None else bias.astype(dtype)[:, None],
        )

    def sums_into(
        self,
        batch: np.ndarray,
        dtype,
        weights: Sequence[np.ndarray],
        bias_column: Optional[np.ndarray],
        out: Optional[np.ndarray] = None,
        patches: Optional[np.ndarray] = None,
        padded: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int, int, int]:
        """:meth:`raw_sums` with every per-call decision made by the caller.

        ``dtype`` is the datapath :meth:`sum_dtype` proved for the batch,
        ``weights`` its :meth:`group_weights` and ``bias_column`` the
        ``(M, 1)`` bias codes already in ``dtype`` (or ``None``): a caller
        running many batches (a fused model-plan stage) fixes all three
        once. ``out``, ``patches`` and ``padded`` are optional flat scratch
        buffers (sizes from :meth:`scratch_elements`); fresh arrays are
        allocated for any left out. The batch may hold any integer dtype:
        the padded copy (or the im2col, when there is no padding) is the
        one widening cast into ``dtype``.
        """
        geometry = self.geometry
        images, channels, rows, cols = batch.shape
        if self.group_in and channels != self.group_in * geometry.groups:
            raise ValueError(
                f"layer {self.name!r} expects {self.group_in * geometry.groups} "
                f"input channels, got {channels}"
            )
        out_rows, out_cols = geometry.output_hw(rows, cols)
        sums = _view(out, (self.out_channels, images * out_rows * out_cols), dtype)
        if self.patch_width == 0:
            sums.fill(0)
        else:
            pad = geometry.padding
            if pad:
                source = _view(
                    padded, (images, channels, rows + 2 * pad, cols + 2 * pad), dtype
                )
                source.fill(0)
                source[:, :, pad:-pad, pad:-pad] = batch
            else:
                source = batch
            for g, lhs in enumerate(weights):
                np.matmul(
                    lhs,
                    self._patches_t(source, g, out_rows, out_cols, patches, dtype),
                    out=sums[g * self.group_out : (g + 1) * self.group_out],
                )
        if bias_column is not None:
            sums += bias_column
        return sums, images, out_rows, out_cols

    def _patches_t(
        self,
        source: np.ndarray,
        group: int,
        out_rows: int,
        out_cols: int,
        buffer: Optional[np.ndarray],
        dtype,
    ) -> np.ndarray:
        """Transposed im2col of one channel group over the whole batch.

        ``source`` is the (already padded) batch. Returns a (C*K*K,
        B*pixels) matrix: row ``n*K*K + k*K + k'`` holds that weight
        position's feature word for every output pixel of every image, so
        the batch stacks into the GEMM's pixel axis.
        """
        geometry = self.geometry
        images = source.shape[0]
        k = geometry.kernel
        lo = group * self.group_in
        patches = _view(
            buffer, (self.patch_width, images * out_rows * out_cols), dtype
        )
        group_source = source[:, lo : lo + self.group_in]
        if k == 1 and out_rows * out_cols == 1 and source.shape[2:] == (1, 1):
            # FC view: the patch matrix is just the transposed batch.
            np.copyto(patches, group_source.reshape(images, -1).T, casting="unsafe")
            return patches
        windows = np.lib.stride_tricks.sliding_window_view(
            group_source, (k, k), axis=(2, 3)
        )[:, :, :: geometry.stride, :: geometry.stride][:, :, :out_rows, :out_cols]
        # (B, C, R', C', K, K) -> (C, K, K, B, R', C'): row-major (n, k, k')
        # over image-major pixel columns, in one strided pass.
        np.copyto(
            patches.reshape(self.group_in, k, k, images, out_rows, out_cols),
            windows.transpose(1, 4, 5, 0, 2, 3),
            casting="unsafe",
        )
        return patches

    def describe(self) -> str:
        """One-line summary for logs and benchmarks."""
        return (
            f"plan({self.name}: {self.out_channels} kernels, "
            f"{self.accumulates_per_pixel} acc/px, "
            f"{self.multiplies_per_pixel} mult/px, "
            f"{len(self._dense)} group(s))"
        )


_plan_cache = BoundedCache("core.plan", PLAN_CACHE_CAPACITY)


def compile_layer_plan(encoded: EncodedLayer, geometry: "ConvGeometry") -> LayerPlan:
    """The cached :class:`LayerPlan` for (encoded, geometry).

    Keyed by the encoded layer's identity (encodings are immutable) and the
    geometry; entries are evicted when the encoded layer is garbage
    collected, and an LRU bound caps the cache for long-lived processes.
    The cache is thread-safe, and so are the plans it holds.
    """
    return _plan_cache.get_or_create(
        geometry, lambda: LayerPlan(encoded, geometry), owner=encoded
    )


#: Drop all compiled plans (tests and memory-sensitive callers).
clear_plan_cache = _plan_cache.clear
