"""Index-based sparse weight encoding (paper Figure 4).

The accelerator never stores the dense weight tensor. Each convolution
kernel (the N*K*K weight block of one output channel) is encoded as:

- **WT-Buffer stream** — one 16-bit entry per *nonzero* weight, holding the
  packed position index ``n*K*K + k*K + k'``. Entries are grouped by weight
  value: all positions sharing the first distinct value Wp come first, then
  the next value's positions, and so on. The accumulate stage walks this
  stream linearly, which is what turns the algorithm's "random" access into
  sequential reads of an on-chip buffer.
- **Q-Table** — one 16-bit entry per distinct nonzero value: the 8-bit
  fixed-point VAL and the 8-bit NUM of index entries that belong to it. The
  loop counter uses NUM to know when to cut a partial sum, and the
  multiplier uses VAL as its constant operand. A count larger than 255 is
  legal in the model: the encoder splits it across several entries with the
  same VAL, exactly what the hardware's 8-bit NUM field forces.

Decoding is exact: ``decode_kernel(encode_kernel(w)) == w`` for any kernel
whose values fit the 8-bit weight format, a property test in the suite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..telemetry.caches import BoundedCache

#: Bytes per WT-Buffer entry (16-bit packed index).
WT_ENTRY_BYTES = 2
#: Bytes per Q-Table entry (8-bit VAL + 8-bit NUM).
QT_ENTRY_BYTES = 2
#: Bytes of per-kernel header (total occurrence count used by the loop counter).
KERNEL_HEADER_BYTES = 2
#: Largest NUM representable in a Q-Table entry's 8-bit count field.
MAX_ENTRY_COUNT = 255
#: Largest packed index representable in a 16-bit WT-Buffer entry.
MAX_PACKED_INDEX = (1 << 16) - 1


@dataclass(frozen=True)
class QTableEntry:
    """One Q-Table row: a distinct quantized value and its occurrence count."""

    value: int
    count: int

    def __post_init__(self) -> None:
        if self.value == 0:
            raise ValueError("zero weights are never encoded")
        if not 1 <= self.count <= MAX_ENTRY_COUNT:
            raise ValueError(f"count must be in [1, {MAX_ENTRY_COUNT}], got {self.count}")


@dataclass(frozen=True)
class EncodedKernel:
    """One kernel's encoded form: Q-Table rows plus the packed index stream.

    ``indices[i]`` belongs to the Q-Table entry whose cumulative counts
    cover position ``i``; indices are sorted within each value group.
    """

    qtable: Tuple[QTableEntry, ...]
    indices: np.ndarray
    kernel_shape: Tuple[int, int, int]

    def __post_init__(self) -> None:
        total = sum(entry.count for entry in self.qtable)
        if total != int(self.indices.size):
            raise ValueError(
                f"Q-Table counts sum to {total} but {self.indices.size} indices given"
            )

    @property
    def nonzero_count(self) -> int:
        """Nonzero weights — accumulate operations per output pixel."""
        return int(self.indices.size)

    @property
    def distinct_values(self) -> int:
        """Distinct nonzero values — multiply operations per output pixel."""
        return len({entry.value for entry in self.qtable})

    @property
    def qtable_entries(self) -> int:
        """Q-Table rows including any split continuation entries."""
        return len(self.qtable)

    @property
    def encoded_bytes(self) -> int:
        """On-chip/DDR footprint of this kernel's encoding."""
        return (
            KERNEL_HEADER_BYTES
            + QT_ENTRY_BYTES * self.qtable_entries
            + WT_ENTRY_BYTES * self.nonzero_count
        )

    @cached_property
    def segment_offsets(self) -> np.ndarray:
        """CSR-style offsets into :attr:`indices`, one segment per Q-Table
        entry: segment ``i`` is ``indices[segment_offsets[i]:segment_offsets[i+1]]``.

        Shape ``(qtable_entries + 1,)``. Cached: the flat view is what the
        compiled execution plan consumes directly.
        """
        counts = np.fromiter(
            (entry.count for entry in self.qtable), dtype=np.int64, count=len(self.qtable)
        )
        offsets = np.zeros(len(self.qtable) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return offsets

    @cached_property
    def segment_values(self) -> np.ndarray:
        """Per-segment weight value, aligned with :attr:`segment_offsets`."""
        return np.fromiter(
            (entry.value for entry in self.qtable), dtype=np.int64, count=len(self.qtable)
        )

    @cached_property
    def _materialized_groups(self) -> Tuple[Tuple[int, np.ndarray], ...]:
        offsets = self.segment_offsets
        groups = []
        for i, entry in enumerate(self.qtable):
            block = self.indices[offsets[i] : offsets[i + 1]]
            block.setflags(write=False)
            groups.append((entry.value, block))
        return tuple(groups)

    def value_groups(self) -> Iterable[Tuple[int, np.ndarray]]:
        """Yield (value, packed index block) pairs in stream order.

        The blocks are materialized once and cached, so hot loops that walk
        the groups repeatedly (the reference kernel visits them per output
        pixel) stop re-slicing :attr:`indices` on every iteration.
        """
        return iter(self._materialized_groups)


def pack_index(n: int, k: int, k2: int, kernel: int) -> int:
    """Pack a (n, k, k') weight position into a WT-Buffer index."""
    return (n * kernel + k) * kernel + k2


def unpack_index(packed: int, kernel: int) -> Tuple[int, int, int]:
    """Inverse of :func:`pack_index`."""
    k2 = packed % kernel
    rest = packed // kernel
    return rest // kernel, rest % kernel, k2


def encode_kernel(kernel_codes: np.ndarray) -> EncodedKernel:
    """Encode one kernel's integer weight codes.

    ``kernel_codes`` has shape (N, K, K); FC kernels use (N, 1, 1). Raises
    if any packed index would overflow the 16-bit WT-Buffer width.
    """
    codes = np.asarray(kernel_codes)
    if codes.ndim != 3 or codes.shape[1] != codes.shape[2]:
        raise ValueError(f"kernel codes must be (N, K, K), got {codes.shape}")
    if not np.issubdtype(codes.dtype, np.integer):
        raise TypeError("kernel codes must be integers")
    if codes.size - 1 > MAX_PACKED_INDEX:
        raise ValueError(
            f"kernel of {codes.size} weights overflows the 16-bit index width"
        )
    flat = codes.reshape(-1)
    nonzero_positions = np.flatnonzero(flat)
    entries: List[QTableEntry] = []
    blocks: List[np.ndarray] = []
    if nonzero_positions.size:
        values = flat[nonzero_positions]
        # Group positions by value; iterate values in ascending order, which
        # fixes the stream order the Address Generator expects.
        order = np.argsort(values, kind="stable")
        sorted_positions = nonzero_positions[order]
        sorted_values = values[order]
        boundaries = np.flatnonzero(np.diff(sorted_values)) + 1
        for block, value_block in zip(
            np.split(sorted_positions, boundaries), np.split(sorted_values, boundaries)
        ):
            value = int(value_block[0])
            # Split oversize groups to honour the 8-bit NUM field.
            for start in range(0, block.size, MAX_ENTRY_COUNT):
                chunk = block[start : start + MAX_ENTRY_COUNT]
                entries.append(QTableEntry(value=value, count=int(chunk.size)))
                blocks.append(np.sort(chunk))
    indices = (
        np.concatenate(blocks).astype(np.int64) if blocks else np.empty(0, dtype=np.int64)
    )
    return EncodedKernel(
        qtable=tuple(entries), indices=indices, kernel_shape=tuple(codes.shape)
    )


def decode_kernel(encoded: EncodedKernel) -> np.ndarray:
    """Reconstruct the dense integer kernel from its encoding."""
    flat = np.zeros(int(np.prod(encoded.kernel_shape)), dtype=np.int64)
    for value, block in encoded.value_groups():
        flat[block] = value
    return flat.reshape(encoded.kernel_shape)


@dataclass(frozen=True)
class EncodedLayer:
    """All kernels of one conv/FC layer in encoded form."""

    name: str
    kernels: Tuple[EncodedKernel, ...]

    @property
    def nonzero_count(self) -> int:
        return sum(kernel.nonzero_count for kernel in self.kernels)

    @property
    def qtable_entries(self) -> int:
        return sum(kernel.qtable_entries for kernel in self.kernels)

    @property
    def encoded_bytes(self) -> int:
        """Total DDR footprint of the layer's encoded weights."""
        return sum(kernel.encoded_bytes for kernel in self.kernels)

    @property
    def max_wt_entries_per_kernel(self) -> int:
        """Deepest per-kernel index stream (sizes the WT-Buffer depth D_w)."""
        if not self.kernels:
            return 0
        return max(kernel.nonzero_count for kernel in self.kernels)

    @property
    def max_qtable_entries_per_kernel(self) -> int:
        """Deepest per-kernel Q-Table (sizes the Q-Table depth D_q)."""
        if not self.kernels:
            return 0
        return max(kernel.qtable_entries for kernel in self.kernels)


def encode_layer(name: str, weight_codes: np.ndarray) -> EncodedLayer:
    """Encode a whole layer's (M, N, K, K) integer weight tensor."""
    codes = np.asarray(weight_codes)
    if codes.ndim == 2:  # FC weights (M, N) -> (M, N, 1, 1)
        codes = codes.reshape(codes.shape[0], codes.shape[1], 1, 1)
    if codes.ndim != 4:
        raise ValueError(f"layer codes must be (M, N, K, K), got shape {codes.shape}")
    kernels = tuple(encode_kernel(codes[m]) for m in range(codes.shape[0]))
    return EncodedLayer(name=name, kernels=kernels)


def decode_layer(encoded: EncodedLayer) -> np.ndarray:
    """Reconstruct the dense (M, N, K, K) tensor of an encoded layer."""
    if not encoded.kernels:
        raise ValueError("encoded layer has no kernels")
    return np.stack([decode_kernel(kernel) for kernel in encoded.kernels])


def encoded_model_bytes(layers: Sequence[EncodedLayer]) -> int:
    """Total encoded weight footprint of a model (paper Table 3)."""
    return sum(layer.encoded_bytes for layer in layers)


#: Encoded layers kept by :func:`encode_layer_cached` before LRU eviction.
ENCODE_CACHE_CAPACITY = 32

_encode_cache = BoundedCache("core.encode", ENCODE_CACHE_CAPACITY)


def _encode_cache_key(
    name: str, codes: np.ndarray
) -> Tuple[str, Tuple[int, ...], str]:
    digest = hashlib.sha256(np.ascontiguousarray(codes).tobytes()).hexdigest()
    return (name, tuple(codes.shape), digest)


def encode_layer_cached(name: str, weight_codes: np.ndarray) -> EncodedLayer:
    """Memoized :func:`encode_layer` for hot paths that re-encode per call.

    Keyed by (name, shape, content digest), so repeated calls with the same
    dense codes — e.g. :func:`repro.core.abm.abm_conv2d_from_codes` inside
    an inference loop — reuse the encoding instead of re-sorting the whole
    weight tensor every invocation. A small LRU bounds the footprint.
    """
    codes = np.asarray(weight_codes)
    if not np.issubdtype(codes.dtype, np.integer):
        raise TypeError("kernel codes must be integers")
    return _encode_cache.get_or_create(
        _encode_cache_key(name, codes), lambda: encode_layer(name, codes)
    )


#: Drop all memoized encodings (tests and long-lived processes).
clear_encode_cache = _encode_cache.clear
