"""The ``infer-*`` workloads: one closed-loop client calling
``QuantizedPipeline.run_batch`` on a pruned, 8-bit quantized model.

The model (weights, pruning, calibration) is fixed; the workload seed
generates only the requests: a pool of images, each request's batch size
and which pool images it carries. Every timed batch is checked against
the per-layer reference path (``run_batch_reference``) image by image:
logits and accumulate/multiply counts must match exactly.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.nn.models.registry import get_architecture
from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import deep_compression_schedule
from repro.telemetry import Telemetry, activate, cache_stats
from repro.workloads.images import natural_image

from common import digest, peak_rss_mb, percentile

#: workload -> (model, channel scale, spatial scale, batch sizes drawn from).
MODELS: Dict[str, Tuple[str, float, float, Tuple[int, int]]] = {
    "infer-steady": ("vgg16", 0.25, 0.125, (8, 8)),
    "infer-mixed": ("alexnet", 0.25, 0.25, (1, 16)),
}
#: Seed of the model's weights and calibration image: part of the workload
#: definition, independent of the request seed.
MODEL_SEED = 1
POOL_IMAGES = 64
FIRST_BATCH = 8


class Inference:
    """Set-up state of one inference workload."""

    def __init__(self, workload: str, part: Callable) -> None:
        model, scale, spatial, self.sizes = MODELS[workload]
        architecture = get_architecture(model)
        with part("nn.build_s"):
            network = architecture.build(
                scale=scale, seed=MODEL_SEED, spatial_scale=spatial
            )
        schedule = deep_compression_schedule(model)
        densities = {
            layer.name: schedule.density(layer.name)
            for layer in network.accelerated_layers()
        }
        self.pipeline = QuantizedPipeline(network)
        with part("prune.prune_s"):
            self.pipeline.prune(densities)
        self.shape = network.input_shape.as_tuple()
        model_rng = np.random.default_rng(MODEL_SEED)
        calibration = natural_image(self.shape, model_rng)
        with part("quant.calibrate_s"):
            self.pipeline.calibrate(calibration)
        with part("quant.quantize_s"):
            self.pipeline.quantize()
        first = np.stack([natural_image(self.shape, model_rng) for _ in range(FIRST_BATCH)])
        with part("pipeline.first_batch_s"):
            self.pipeline.run_batch(first)

    def run(self, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
        """Time ``seconds`` of requests. With ``trace`` every second request
        runs under a telemetry context: the per-layer numbers come from
        those, and the others are the untraced baseline of the same mix."""
        rng = np.random.default_rng(seed)
        pool = np.stack([natural_image(self.shape, rng) for _ in range(POOL_IMAGES)])
        lo, hi = self.sizes
        telemetry = Telemetry()
        sizes: List[int] = []
        latencies: List[float] = []
        checks: List[Tuple[np.ndarray, List[str]]] = []
        spans = {"kernel": 0.0, "fuse": 0.0}
        before = cache_stats()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            traced = trace and len(latencies) % 2 == 1
            b = int(rng.integers(lo, hi + 1))
            indices = rng.integers(0, POOL_IMAGES, size=b)
            batch = pool[indices]
            with activate(telemetry if traced else None):
                start = time.perf_counter()
                results = self.pipeline.run_batch(batch)
                elapsed = time.perf_counter() - start
            sizes.append(b)
            latencies.append(elapsed)
            checks.append((indices, [_result_digest(r) for r in results]))
            if traced:
                totals = telemetry.tracer.totals()
                telemetry.clear()
                for name in spans:
                    spans[name] += totals.get(name, {}).get("total_s", 0.0)
        after = cache_stats()
        rss = peak_rss_mb()

        # Expected outputs: the retained per-layer path on every pool image.
        reference = self.pipeline.run_batch_reference(pool)
        expected = [_result_digest(r) for r in reference]
        failed = sum(
            any(got != expected[i] for i, got in zip(indices.tolist(), digests))
            for indices, digests in checks
        )
        counts = reference[0].layer_stats
        per_layer: Dict[str, float] = {
            "core.acc_ops_per_image": sum(s.accumulate_ops for s in counts),
            "core.mult_ops_per_image": sum(s.multiply_ops for s in counts),
        }
        for family in ("core.model_plan", "core.plan"):
            per_layer[f"{family}.hits"] = after[family].hits - before[family].hits
            per_layer[f"{family}.misses"] = after[family].misses - before[family].misses
        per_layer["core.model_plan.evictions"] = (
            after["core.model_plan"].evictions - before["core.model_plan"].evictions
        )
        if trace and len(latencies) > 1:
            n = len(latencies) // 2
            busy = sum(latencies[1::2])
            spanned = spans["kernel"] + spans["fuse"]
            per_layer.update(
                {
                    "core.kernel_s": spans["kernel"] / n,
                    "core.fuse_s": spans["fuse"] / n,
                    "pipeline.dark_s": (busy - spanned) / n,
                    "pipeline.span_coverage": spanned / busy,
                    "telemetry.overhead": _overhead(sizes, latencies),
                }
            )
        images = sum(sizes)
        return {
            "attempted": len(latencies),
            "failed": failed,
            "metrics": {
                "throughput_per_s": images / sum(latencies),
                "request_ms_p50": percentile(latencies, 50) * 1e3,
                "request_ms_p95": percentile(latencies, 95) * 1e3,
                "peak_rss_mb": rss,
            },
            "per_layer": per_layer,
            "samples": {"requests": len(latencies), "images": images},
            "aliases": {
                "images_per_s": ("throughput_per_s", "1/s"),
                "batch_ms_p50": ("request_ms_p50", "ms"),
                "batch_ms_p95": ("request_ms_p95", "ms"),
            },
        }


def _overhead(sizes: List[int], latencies: List[float]) -> float:
    """1 - traced/untraced images/s on the run's own size mix.

    Even requests ran untraced and odd ones traced; comparing median
    latency per batch size keeps the two groups' size draws out of it.
    """
    untraced: Dict[int, List[float]] = {}
    traced: Dict[int, List[float]] = {}
    for i, (b, t) in enumerate(zip(sizes, latencies)):
        (traced if i % 2 else untraced).setdefault(b, []).append(t)
    both = [b for b in untraced if b in traced]
    if not both:
        return 0.0
    weight = {b: sizes.count(b) for b in both}
    plain = sum(weight[b] * percentile(untraced[b], 50) for b in both)
    spanned = sum(weight[b] * percentile(traced[b], 50) for b in both)
    return 1.0 - plain / spanned


def _result_digest(result) -> str:
    return digest(
        result.output,
        sum(s.accumulate_ops for s in result.layer_stats),
        sum(s.multiply_ops for s in result.layer_stats),
    )
