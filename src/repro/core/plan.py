"""Compile-once CSR execution plans for ABM-SpConv layers.

The vectorized kernel in :mod:`repro.core.abm` still issues one fancy-indexed
gather plus one ``sum(axis=1)`` per (kernel, distinct-value) pair — tens of
thousands of tiny numpy dispatches for a real conv layer. This module does
the software analogue of what the paper's accelerator does in hardware:
flatten every kernel's value-grouped index blocks into *layer-wide* CSR-style
arrays that are consumed sequentially.

A :class:`LayerPlan` holds, per channel group:

- ``columns``       — all kernels' WT-Buffer index streams concatenated,
  usable directly as gather columns into the im2col patch matrix;
- ``seg_starts``    — offsets of each Q-Table segment inside ``columns``
  (the CSR row pointer);
- ``seg_values``    — the Q-Table VAL of each segment;
- ``kernel_starts`` / ``kernel_rows`` — which contiguous run of segments
  belongs to which output channel (the segment→kernel map).

Execution works on the *transposed* patch matrix (features x pixels), so
the single gather (``np.take`` along axis 0) copies whole contiguous pixel
rows, and both segmented reductions (``np.add.reduceat`` over
``seg_starts`` — stage 1 of Equation 2 — then over ``kernel_starts`` —
stage 2) vectorize across the pixel axis. No per-kernel or per-value
Python loops remain; work is chunked on kernel boundaries so the gather
buffer stays cache-resident. Operation counts are computed analytically
from the encoding (``nnz`` accumulates and one multiply per Q-Table
segment, per output pixel), which is exactly what the reference loop
counts one iteration at a time.

Plans are cached per (encoded layer, geometry) and keep reusable scratch
buffers keyed by the shapes they have seen, so repeated inference — executor
batches, ``SystemRuntime.infer_batch``, the serve worker pool — pays
compilation and allocation once. Work is processed in pixel chunks sized to
stay cache-resident, and arithmetic drops to int32 when the layer's exact
worst-case partial sums provably fit, halving memory traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry.caches import BoundedCache
from ..telemetry.context import get_active
from . import tiers
from .encoding import EncodedLayer

if TYPE_CHECKING:  # pragma: no cover - import cycle with repro.core.abm
    from .abm import ConvGeometry

try:  # scipy is optional: it accelerates stage 1 but is never required.
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised via _set_sparse_enabled
    _scipy_sparse = None

#: Module switch for the scipy stage-1 path (tests force the fallback).
_sparse_enabled = _scipy_sparse is not None


def _set_sparse_enabled(enabled: bool) -> bool:
    """Toggle the scipy stage-1 path; returns the previous setting.

    Used by tests to force the pure-numpy fallback; enabling has no effect
    when scipy is not installed.
    """
    global _sparse_enabled
    previous = _sparse_enabled
    _sparse_enabled = bool(enabled) and _scipy_sparse is not None
    return previous


#: Target element count of one gather chunk (kept small enough that the
#: gather buffer stays cache-resident between the write and the reduceat).
CHUNK_ELEMENTS = 1 << 20

#: Target element count of the stage-1 partial-sum block in the sparse
#: path; bounds scratch memory when a layer has many output pixels.
PARTIAL_ELEMENTS = 1 << 23

#: Compiled plans kept before LRU eviction.
PLAN_CACHE_CAPACITY = 64

#: Scratch buffers kept per plan before LRU eviction.
_SCRATCH_CAPACITY = 16


def _conv_output_hw(rows: int, cols: int, geometry: "ConvGeometry") -> Tuple[int, int]:
    out_rows = (rows + 2 * geometry.padding - geometry.kernel) // geometry.stride + 1
    out_cols = (cols + 2 * geometry.padding - geometry.kernel) // geometry.stride + 1
    if out_rows < 1 or out_cols < 1:
        raise ValueError("convolution geometry does not fit the input")
    return out_rows, out_cols


class _GroupPlan:
    """Flat CSR arrays of one channel group's kernels.

    ``kcol_bounds`` / ``kseg_bounds`` are the per-(nonempty-)kernel
    boundaries into ``columns`` and the segment axis — the segment→kernel
    map — used to cut the stream into cache-sized chunks on kernel edges.
    """

    __slots__ = (
        "columns",
        "seg_starts",
        "seg_values",
        "kernel_rows",
        "kcol_bounds",
        "kseg_bounds",
        "_selection",
        "_numba_args",
        "_dense",
    )

    def __init__(
        self,
        columns: np.ndarray,
        seg_starts: np.ndarray,
        seg_values: np.ndarray,
        kernel_rows: np.ndarray,
        kcol_bounds: np.ndarray,
        kseg_bounds: np.ndarray,
    ) -> None:
        self.columns = columns
        self.seg_starts = seg_starts
        self.seg_values = seg_values
        self.kernel_rows = kernel_rows
        self.kcol_bounds = kcol_bounds
        self.kseg_bounds = kseg_bounds
        self._selection: Dict[str, object] = {}
        self._numba_args: Optional[Tuple[np.ndarray, ...]] = None
        self._dense: Optional[np.ndarray] = None

    def numba_args(self) -> Tuple[np.ndarray, ...]:
        """The int64 argument tuple of the numba group kernel (built once).

        ``seg_bounds`` extends ``seg_starts`` with the column count so the
        kernel can walk every segment's half-open column range directly.
        """
        if self._numba_args is None:
            seg_bounds = np.empty(len(self.seg_starts) + 1, dtype=np.int64)
            seg_bounds[:-1] = self.seg_starts
            seg_bounds[-1] = self.columns.size
            self._numba_args = (
                self.columns.astype(np.int64),
                seg_bounds,
                self.seg_values.astype(np.int64),
                self.kseg_bounds.astype(np.int64),
                self.kernel_rows.astype(np.int64),
            )
        return self._numba_args

    def dense_weights(self, group_out: int, patch_width: int) -> np.ndarray:
        """The group's weight codes as a dense float64 (group_out, K) matrix.

        Scattered straight from the CSR stream (one weight per (kernel,
        column) pair) and cached on the group — the fused model plan's GEMM
        datapath multiplies it against float64 patches with BLAS.  Weight
        codes are small integers, so every entry is exactly representable.
        """
        if self._dense is None:
            dense = np.zeros((group_out, patch_width), dtype=np.float64)
            if self.columns.size:
                seg_bounds = np.empty(len(self.seg_starts) + 1, dtype=np.int64)
                seg_bounds[:-1] = self.seg_starts
                seg_bounds[-1] = self.columns.size
                seg_lengths = np.diff(seg_bounds)
                seg_rows = np.repeat(self.kernel_rows, np.diff(self.kseg_bounds))
                dense[
                    np.repeat(seg_rows, seg_lengths), self.columns
                ] = np.repeat(self.seg_values, seg_lengths)
            self._dense = dense
        return self._dense

    def selection_matrix(self, dtype, patch_width: int):
        """The stage-1 accumulate as a CSR selection matrix (scipy path).

        Row ``s`` holds a 1 at every WT-Buffer column of Q-Table segment
        ``s`` — ``seg_starts`` is literally the CSR ``indptr`` and
        ``columns`` the CSR ``indices``, so ``S @ patchesT`` *is* the
        segmented accumulate of Equation 2's inner sum. Built once per work
        dtype (matching dtypes keeps scipy from copying the operands).
        """
        key = np.dtype(dtype).str
        matrix = self._selection.get(key)
        if matrix is None:
            indptr = np.empty(len(self.seg_starts) + 1, dtype=np.int64)
            indptr[:-1] = self.seg_starts
            indptr[-1] = self.columns.size
            matrix = _scipy_sparse.csr_matrix(
                (
                    np.ones(self.columns.size, dtype=dtype),
                    self.columns.astype(np.int64),
                    indptr,
                ),
                shape=(len(self.seg_starts), patch_width),
            )
            self._selection[key] = matrix
        return matrix


class _Chunk:
    """One kernel-aligned slice of a group's index stream."""

    __slots__ = ("col_lo", "col_hi", "seg_lo", "seg_hi", "kernel_lo", "kernel_hi",
                 "local_seg_starts", "local_kernel_starts")

    def __init__(self, group: _GroupPlan, kernel_lo: int, kernel_hi: int) -> None:
        self.kernel_lo = kernel_lo
        self.kernel_hi = kernel_hi
        self.col_lo = int(group.kcol_bounds[kernel_lo])
        self.col_hi = int(group.kcol_bounds[kernel_hi])
        self.seg_lo = int(group.kseg_bounds[kernel_lo])
        self.seg_hi = int(group.kseg_bounds[kernel_hi])
        self.local_seg_starts = (
            group.seg_starts[self.seg_lo : self.seg_hi] - self.col_lo
        )
        self.local_kernel_starts = (
            group.kseg_bounds[kernel_lo:kernel_hi] - self.seg_lo
        )


class LayerPlan:
    """A layer compiled for single-pass CSR execution (see module docs)."""

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
        group_out = kernels // geometry.groups if geometry.groups else 0
        self.group_out = group_out
        self._groups: List[_GroupPlan] = []
        #: Exact accumulate operations per output pixel (layer nonzeros).
        self.accumulates_per_pixel = 0
        #: Exact multiply operations per output pixel (Q-Table segments,
        #: counting NUM-field split entries separately, as the loop does).
        self.multiplies_per_pixel = 0
        # Worst-case |sum(value * partial)| over any kernel, per unit of
        # feature magnitude — the exact bound that licenses int32 execution.
        self._max_weighted_sum = 0
        for g in range(geometry.groups):
            self._groups.append(
                self._compile_group(encoded.kernels[g * group_out : (g + 1) * group_out])
            )
        self._scratch: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()
        self._chunk_cache: Dict[Tuple[int, int], List[_Chunk]] = {}

    def _compile_group(self, kernels: Sequence) -> _GroupPlan:
        columns: List[np.ndarray] = []
        seg_lengths: List[int] = []
        seg_values: List[int] = []
        kernel_rows: List[int] = []
        kcol_bounds: List[int] = [0]
        kseg_bounds: List[int] = [0]
        total_cols = 0
        for row, kernel in enumerate(kernels):
            weighted = 0
            for entry in kernel.qtable:
                seg_lengths.append(entry.count)
                seg_values.append(entry.value)
                weighted += abs(entry.value) * entry.count
            self._max_weighted_sum = max(self._max_weighted_sum, weighted)
            if kernel.indices.size:
                kernel_rows.append(row)
                columns.append(kernel.indices)
                total_cols += kernel.indices.size
                kcol_bounds.append(total_cols)
                kseg_bounds.append(len(seg_values))
            self.accumulates_per_pixel += kernel.nonzero_count
            self.multiplies_per_pixel += kernel.qtable_entries
        flat_columns = (
            np.concatenate(columns).astype(np.intp)
            if columns
            else np.empty(0, dtype=np.intp)
        )
        if flat_columns.size and int(flat_columns.max()) >= self.patch_width:
            raise ValueError("encoded index exceeds the layer's patch width")
        starts = np.zeros(len(seg_lengths), dtype=np.intp)
        if seg_lengths:
            np.cumsum(seg_lengths[:-1], out=starts[1:])
        return _GroupPlan(
            columns=flat_columns,
            seg_starts=starts,
            seg_values=np.asarray(seg_values, dtype=np.int64),
            kernel_rows=np.asarray(kernel_rows, dtype=np.intp),
            kcol_bounds=np.asarray(kcol_bounds, dtype=np.intp),
            kseg_bounds=np.asarray(kseg_bounds, dtype=np.intp),
        )

    # ---- scratch management ---------------------------------------------

    def _buffer(self, kind: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A reusable scratch array for this plan, LRU-bounded."""
        key = (kind, shape, np.dtype(dtype).str)
        buffer = self._scratch.get(key)
        if buffer is None:
            buffer = np.empty(shape, dtype=dtype)
            self._scratch[key] = buffer
            while len(self._scratch) > _SCRATCH_CAPACITY:
                self._scratch.popitem(last=False)
        else:
            self._scratch.move_to_end(key)
        return buffer

    # ---- execution -------------------------------------------------------

    def _work_dtype(self, features: np.ndarray, input_peak: Optional[int] = None):
        """int32 when the exact worst-case datapath value fits, else int64.

        The bound is |partial| <= max|x| * max_kernel sum(|VAL|*NUM), which
        also bounds every stage-2 total; bias enters later in int64.
        ``input_peak`` lets callers that already know a bound on ``max|x|``
        (the fused model plan tracks quantized-format code ranges at
        compile time) skip the full-batch ``abs().max()`` scan.
        """
        if self._max_weighted_sum == 0:
            return np.int32
        if input_peak is None:
            if features.size == 0:
                return np.int32
            input_peak = int(np.abs(features).max())
        peak = int(input_peak) * self._max_weighted_sum
        return np.int32 if peak <= np.iinfo(np.int32).max else np.int64

    def execute(
        self,
        features: np.ndarray,
        bias_codes: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int, int]:
        """Run one CHW image; returns (output MHW, acc_ops, mult_ops)."""
        output, acc, mult = self.execute_batch(features[None], bias_codes)
        return output[0], acc, mult

    def execute_batch(
        self,
        batch: np.ndarray,
        bias_codes: Optional[np.ndarray] = None,
        input_peak: Optional[int] = None,
    ) -> Tuple[np.ndarray, int, int]:
        """Run a (B, C, H, W) batch stacked into the pixel axis.

        Returns (output (B, M, R', C'), accumulate_ops, multiply_ops) with
        op counts totalled over the whole batch.
        """
        telemetry = get_active()
        if telemetry is None:
            return self._execute_batch(batch, bias_codes, input_peak)
        with telemetry.span("kernel", layer=self.name, images=int(batch.shape[0])):
            return self._execute_batch(batch, bias_codes, input_peak)

    def _execute_batch(
        self,
        batch: np.ndarray,
        bias_codes: Optional[np.ndarray] = None,
        input_peak: Optional[int] = None,
    ) -> Tuple[np.ndarray, int, int]:
        output, images, out_rows, out_cols = self.execute_batch_raw(
            batch, bias_codes, input_peak
        )
        total_pixels = images * out_rows * out_cols
        # .copy() detaches the result from the reusable scratch buffer.
        shaped = (
            output.reshape(self.out_channels, images, out_rows, out_cols)
            .transpose(1, 0, 2, 3)
            .copy()
        )
        return (
            shaped,
            self.accumulates_per_pixel * total_pixels,
            self.multiplies_per_pixel * total_pixels,
        )

    def execute_batch_raw(
        self,
        batch: np.ndarray,
        bias_codes: Optional[np.ndarray] = None,
        input_peak: Optional[int] = None,
    ) -> Tuple[np.ndarray, int, int, int]:
        """Run a batch and return the undetached (M, B*pixels) int64 sums.

        Returns ``(output, images, out_rows, out_cols)`` where ``output``
        is **plan-owned scratch** (kernel-major, bias already added): it is
        only valid until the next execute call on this plan.  The fused
        model plan consumes it directly — epilogue fusion writes requantized
        codes straight into the model's ping-pong buffers, so no per-layer
        output is materialized.  Op counts are analytic:
        ``accumulates_per_pixel * images * out_rows * out_cols`` (likewise
        multiplies), identical to what :meth:`execute_batch` reports.
        """
        geometry = self.geometry
        images, channels, rows, cols = batch.shape
        if self.group_in and channels != self.group_in * geometry.groups:
            raise ValueError(
                f"layer {self.name!r} expects {self.group_in * geometry.groups} "
                f"input channels, got {channels}"
            )
        out_rows, out_cols = _conv_output_hw(rows, cols, geometry)
        pixels = out_rows * out_cols
        total_pixels = images * pixels
        work_dtype = self._work_dtype(batch, input_peak)
        output = self._buffer("output", (self.out_channels, total_pixels), np.int64)
        output.fill(0)
        # No full-batch cast pass: _patches_t's copies convert to the work
        # dtype on the fly while laying out the patch matrix.
        for g, plan in enumerate(self._groups):
            patches_t = self._patches_t(batch, g, out_rows, out_cols, work_dtype)
            self._execute_group(
                g,
                plan,
                patches_t,
                output[g * self.group_out : (g + 1) * self.group_out],
                work_dtype,
            )
        if bias_codes is not None:
            output += np.asarray(bias_codes, dtype=np.int64)[:, None]
        return output, images, out_rows, out_cols

    @property
    def weight_peak(self) -> int:
        """Largest |weight code| of the layer (max |VAL| over all Q-Tables).

        Together with an input-magnitude bound this lets alternative scheme
        datapaths (the fused plan's Winograd stages) prove their float64
        intermediates exact at compile time, the same way
        :attr:`max_weighted_sum` licenses the GEMM datapath.
        """
        peak = 0
        for group in self._groups:
            if group.seg_values.size:
                peak = max(peak, int(np.abs(group.seg_values).max()))
        return peak

    def dense_group_weights(self, group: int) -> np.ndarray:
        """One group's weight codes as float64 ``(group_out, C_g, K, K)``.

        A reshaped view of the cached dense GEMM matrix — the tensor form
        the Winograd/spectral scheme datapaths transform. For FC layers the
        kernel extent is 1 and this degenerates to ``(out, in, 1, 1)``.
        """
        k = self.geometry.kernel
        dense = self._groups[group].dense_weights(self.group_out, self.patch_width)
        return dense.reshape(self.group_out, self.group_in, k, k)

    @property
    def max_weighted_sum(self) -> int:
        """Worst-case |output sum| per unit of input magnitude.

        The exact per-kernel bound max_k sum(|VAL| * NUM): multiplied by a
        bound on |x| it bounds every stage-1 partial, every stage-2 total
        and every GEMM prefix sum.  It licenses int32 execution (vs int64)
        and, against 2**53, the fused plan's exact float64 GEMM datapath.
        """
        return self._max_weighted_sum

    def execute_batch_gemm(
        self,
        batch: np.ndarray,
        bias_codes: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int, int, int]:
        """Run a batch as one dense float64 GEMM per group (BLAS).

        Returns ``(output, images, out_rows, out_cols)`` where ``output``
        is **plan-owned float64 scratch** of shape (M, B*pixels), bias
        already added.  Bit-exact against :meth:`execute_batch_raw`
        *provided the caller has checked the exactness bound*
        ``input_peak * max_weighted_sum + max|bias| < 2**53``: weight and
        feature codes are exact small integers in float64, every product
        and every partial sum (in any summation order BLAS picks) is then
        an exact integer below 2**53, so the accumulated result equals the
        integer ABM sum term for term.  The fused model plan verifies the
        bound at compile time from tracked quantized-format ranges.
        """
        geometry = self.geometry
        images, channels, rows, cols = batch.shape
        if self.group_in and channels != self.group_in * geometry.groups:
            raise ValueError(
                f"layer {self.name!r} expects {self.group_in * geometry.groups} "
                f"input channels, got {channels}"
            )
        out_rows, out_cols = _conv_output_hw(rows, cols, geometry)
        total_pixels = images * out_rows * out_cols
        output = self._buffer(
            "output_f", (self.out_channels, total_pixels), np.float64
        )
        for g, plan in enumerate(self._groups):
            patches_t = self._patches_t(batch, g, out_rows, out_cols, np.float64)
            np.matmul(
                plan.dense_weights(self.group_out, self.patch_width),
                patches_t,
                out=output[g * self.group_out : (g + 1) * self.group_out],
            )
        if bias_codes is not None:
            output += np.asarray(bias_codes, dtype=np.float64)[:, None]
        return output, images, out_rows, out_cols

    def _patches_t(
        self,
        batch: np.ndarray,
        group: int,
        out_rows: int,
        out_cols: int,
        work_dtype,
    ) -> np.ndarray:
        """Transposed im2col of one channel group over the whole batch.

        Returns a (C*K*K, B*pixels) matrix: row ``n*K*K + k*K + k'`` holds
        that weight position's feature word for every output pixel of every
        image — so a WT-Buffer index selects a *contiguous row*, and the
        batch genuinely stacks into the pixel axis.
        """
        geometry = self.geometry
        images = batch.shape[0]
        pixels = out_rows * out_cols
        width = self.patch_width if self.group_in else 0
        if width == 0:
            return np.empty((0, images * pixels), dtype=work_dtype)
        patches = self._buffer(("patches_t", group), (width, images * pixels), work_dtype)
        lo = group * self.group_in
        hi = lo + self.group_in
        if geometry.kernel == 1 and pixels == 1 and geometry.padding == 0:
            # FC view: the patch matrix is just the transposed batch.
            np.copyto(patches, batch[:, lo:hi].reshape(images, width).T)
            return patches
        k = geometry.kernel
        pad = geometry.padding
        if pad:
            padded = self._buffer(
                ("padded", group),
                (images, self.group_in, batch.shape[2] + 2 * pad, batch.shape[3] + 2 * pad),
                batch.dtype.str,
            )
            padded.fill(0)
            padded[:, :, pad:-pad, pad:-pad] = batch[:, lo:hi]
        else:
            padded = batch[:, lo:hi]
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (k, k), axis=(2, 3)
        )[:, :, :: geometry.stride, :: geometry.stride][:, :, :out_rows, :out_cols]
        # (B, C, R', C', K, K) -> (C, K, K, B, R', C'): row-major (n, k, k')
        # over image-major pixel columns, in one strided pass.
        np.copyto(
            patches.reshape(self.group_in, k, k, images, out_rows, out_cols),
            windows.transpose(1, 4, 5, 0, 2, 3),
            casting="same_kind",
        )
        return patches

    def _chunks(self, group_index: int, plan: _GroupPlan, pixels: int) -> List[_Chunk]:
        """Kernel-aligned chunks whose gather block fits the cache budget."""
        key = (group_index, pixels)
        chunks = self._chunk_cache.get(key)
        if chunks is not None:
            return chunks
        target_rows = max(1, CHUNK_ELEMENTS // max(1, pixels))
        chunks = []
        bounds = plan.kcol_bounds
        kernels = len(plan.kernel_rows)
        lo = 0
        while lo < kernels:
            hi = lo + 1
            while hi < kernels and bounds[hi + 1] - bounds[lo] <= target_rows:
                hi += 1
            chunks.append(_Chunk(plan, lo, hi))
            lo = hi
        self._chunk_cache[key] = chunks
        return chunks

    def _execute_group(
        self,
        group_index: int,
        plan: _GroupPlan,
        patches_t: np.ndarray,
        out: np.ndarray,
        work_dtype,
    ) -> None:
        if plan.columns.size == 0:
            return
        if tiers.numba_active():
            kernel = tiers.group_kernel()
            if kernel is not None:  # pragma: no cover - needs numba installed
                columns, seg_bounds, seg_values, kseg_bounds, kernel_rows = (
                    plan.numba_args()
                )
                kernel(
                    patches_t,
                    columns,
                    seg_bounds,
                    seg_values,
                    kseg_bounds,
                    kernel_rows,
                    out,
                )
                return
        if _sparse_enabled:
            self._execute_group_sparse(plan, patches_t, out, work_dtype)
        else:
            self._execute_group_gather(group_index, plan, patches_t, out, work_dtype)

    def _execute_group_sparse(
        self,
        plan: _GroupPlan,
        patches_t: np.ndarray,
        out: np.ndarray,
        work_dtype,
    ) -> None:
        """Stage 1 as one CSR selection product (scipy available).

        The WT-Buffer stream is consumed sequentially by the sparse kernel
        — the software twin of the accelerator's Address Generator walking
        its index buffer — and the pixel axis is blocked so the partial-sum
        matrix stays bounded for large feature maps.
        """
        pixels = patches_t.shape[1]
        segs = len(plan.seg_values)
        selection = plan.selection_matrix(work_dtype, patches_t.shape[0])
        seg_values = plan.seg_values.astype(work_dtype)[:, None]
        kernel_starts = (plan.kseg_bounds[:-1]).astype(np.intp)
        nker = len(plan.kernel_rows)
        block_pixels = max(1, min(pixels, PARTIAL_ELEMENTS // max(1, segs)))
        totals = self._buffer("totals", (nker, pixels), work_dtype)
        for lo in range(0, pixels, block_pixels):
            hi = min(lo + block_pixels, pixels)
            # Stage 1: the segmented accumulate, as sparse-times-dense.
            partial = selection @ np.ascontiguousarray(patches_t[:, lo:hi])
            # Stage 2: one multiply per Q-Table segment...
            np.multiply(partial, seg_values, out=partial)
            # ...then reduce each kernel's contiguous run of segments.
            np.add.reduceat(partial, kernel_starts, axis=0, out=totals[:, lo:hi])
        out[plan.kernel_rows] = totals

    def _execute_group_gather(
        self,
        group_index: int,
        plan: _GroupPlan,
        patches_t: np.ndarray,
        out: np.ndarray,
        work_dtype,
    ) -> None:
        """Pure-numpy fallback: chunked gather + two segmented reductions."""
        pixels = patches_t.shape[1]
        chunks = self._chunks(group_index, plan, pixels)
        seg_values = plan.seg_values.astype(work_dtype)[:, None]
        max_rows = max(chunk.col_hi - chunk.col_lo for chunk in chunks)
        max_segs = max(chunk.seg_hi - chunk.seg_lo for chunk in chunks)
        max_kernels = max(chunk.kernel_hi - chunk.kernel_lo for chunk in chunks)
        gather = self._buffer("gather", (max_rows, pixels), work_dtype)
        partial = self._buffer("partial", (max_segs, pixels), work_dtype)
        totals = self._buffer("totals", (max_kernels, pixels), work_dtype)
        for chunk in chunks:
            rows = chunk.col_hi - chunk.col_lo
            segs = chunk.seg_hi - chunk.seg_lo
            nker = chunk.kernel_hi - chunk.kernel_lo
            block = gather[:rows]
            # One gather: this chunk's WT-Buffer streams, whole rows at once.
            np.take(
                patches_t, plan.columns[chunk.col_lo : chunk.col_hi], axis=0, out=block
            )
            # Stage 1: segmented accumulate over the Q-Table segments,
            # vectorized across the (batch-stacked) pixel axis.
            np.add.reduceat(block, chunk.local_seg_starts, axis=0, out=partial[:segs])
            # Stage 2: one multiply per segment...
            np.multiply(
                partial[:segs],
                seg_values[chunk.seg_lo : chunk.seg_hi],
                out=partial[:segs],
            )
            # ...then reduce each kernel's contiguous run of segments and
            # scatter into those kernels' output rows (all-zero kernels were
            # never included, so their rows stay at the zero fill).
            np.add.reduceat(
                partial[:segs], chunk.local_kernel_starts, axis=0, out=totals[:nker]
            )
            out[plan.kernel_rows[chunk.kernel_lo : chunk.kernel_hi]] = totals[:nker]

    def describe(self) -> str:
        """One-line summary for logs and benchmarks."""
        return (
            f"plan({self.name}: {self.out_channels} kernels, "
            f"{self.accumulates_per_pixel} acc/px, "
            f"{self.multiplies_per_pixel} mult/px, "
            f"{len(self._groups)} group(s))"
        )


_plan_cache = BoundedCache("core.plan", PLAN_CACHE_CAPACITY)


def compile_layer_plan(encoded: EncodedLayer, geometry: "ConvGeometry") -> LayerPlan:
    """The cached :class:`LayerPlan` for (encoded, geometry).

    Keyed by the encoded layer's identity (encodings are immutable) and the
    geometry; entries are evicted when the encoded layer is garbage
    collected, and an LRU bound caps the cache for long-lived processes.
    The cache is thread-safe — serve workers and parallel simulation may
    compile plans concurrently.
    """
    return _plan_cache.get_or_create(
        geometry, lambda: LayerPlan(encoded, geometry), owner=encoded
    )


#: Drop all compiled plans (tests and memory-sensitive callers).
clear_plan_cache = _plan_cache.clear
