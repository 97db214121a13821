"""Accelerator workload descriptions.

The simulator does not need weight *values* — cycle counts depend only on
each kernel's nonzero count (accumulate work) and distinct-value count
(multiply work), plus the layer geometry. A :class:`LayerWorkload` carries
exactly that, and can be built either from a real encoded layer
(:func:`workload_from_encoded`) or from calibrated synthetic statistics
(:mod:`repro.workloads`) for full-size models whose dense tensors would not
fit in laptop memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..core.encoding import EncodedLayer
from ..core.specs import LayerSpec



@dataclass(frozen=True)
class KernelWork:
    """Per-kernel work figures: one output channel's costs per output pixel."""

    nonzeros: int
    distinct_values: int

    def __post_init__(self) -> None:
        if self.nonzeros < 0 or self.distinct_values < 0:
            raise ValueError("work figures cannot be negative")
        if self.distinct_values > self.nonzeros:
            raise ValueError("distinct values cannot exceed nonzeros")


@dataclass(frozen=True)
class LayerWorkload:
    """Everything the simulator needs to schedule one layer."""

    spec: LayerSpec
    kernels: Tuple[KernelWork, ...]
    #: Encoded weight bytes of the layer (drives the bandwidth model).
    encoded_bytes: int

    def __post_init__(self) -> None:
        if len(self.kernels) != self.spec.out_channels:
            raise ValueError(
                f"{self.spec.name}: {len(self.kernels)} kernel work items for "
                f"{self.spec.out_channels} output channels"
            )

    @property
    def accumulate_ops(self) -> int:
        """Total accumulates per image (Table 1 'Acc.')."""
        return sum(k.nonzeros for k in self.kernels) * self.spec.output_pixels

    @property
    def multiply_ops(self) -> int:
        """Total multiplies per image (Table 1 'Mult.')."""
        return sum(k.distinct_values for k in self.kernels) * self.spec.output_pixels

    @property
    def mean_nonzeros(self) -> float:
        return float(np.mean([k.nonzeros for k in self.kernels]))

    @property
    def density(self) -> float:
        total = self.spec.weight_count
        if total == 0:
            return 0.0
        return sum(k.nonzeros for k in self.kernels) / total

    def nonzeros_array(self) -> np.ndarray:
        return np.array([k.nonzeros for k in self.kernels], dtype=np.int64)

    def distinct_array(self) -> np.ndarray:
        return np.array([k.distinct_values for k in self.kernels], dtype=np.int64)


@dataclass(frozen=True)
class ModelWorkload:
    """Ordered layer workloads of a whole network."""

    name: str
    layers: Tuple[LayerWorkload, ...]

    @property
    def accumulate_ops(self) -> int:
        return sum(layer.accumulate_ops for layer in self.layers)

    @property
    def multiply_ops(self) -> int:
        return sum(layer.multiply_ops for layer in self.layers)

    @property
    def dense_ops(self) -> int:
        """Original-model op count that throughput is normalized to."""
        return sum(layer.spec.dense_ops for layer in self.layers)

    @property
    def encoded_bytes(self) -> int:
        return sum(layer.encoded_bytes for layer in self.layers)

    def layer(self, name: str) -> LayerWorkload:
        for candidate in self.layers:
            if candidate.spec.name == name:
                return candidate
        raise KeyError(f"no layer named {name!r} in workload {self.name!r}")


def workload_from_encoded(spec: LayerSpec, encoded: EncodedLayer) -> LayerWorkload:
    """Build a layer workload from an actually-encoded weight tensor."""
    kernels = tuple(
        KernelWork(nonzeros=k.nonzero_count, distinct_values=k.distinct_values)
        for k in encoded.kernels
    )
    return LayerWorkload(
        spec=spec,
        kernels=kernels,
        encoded_bytes=encoded.encoded_bytes,
    )


def workload_from_arrays(
    spec: LayerSpec,
    nonzeros: Sequence[int],
    distinct: Sequence[int],
    encoded_bytes: int = 0,
) -> LayerWorkload:
    """Build a layer workload from per-kernel statistic arrays.

    When ``encoded_bytes`` is omitted it is derived from the encoding's
    16-bit-per-entry format (index stream + Q-Table + per-kernel header).
    """
    kernels = tuple(
        KernelWork(nonzeros=int(n), distinct_values=int(d))
        for n, d in zip(nonzeros, distinct)
    )
    if encoded_bytes == 0:
        encoded_bytes = sum(2 + 2 * k.distinct_values + 2 * k.nonzeros for k in kernels)
    return LayerWorkload(spec=spec, kernels=kernels, encoded_bytes=encoded_bytes)
