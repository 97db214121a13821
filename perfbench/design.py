"""The ``design`` workload: a stream of design queries, one closed-loop
client, alternating AlexNet and VGG16 with a fresh seed per query.

One query answers "how should this model be deployed?" end to end:

1. full-size ``synthetic_model_workload``;
2. ``AcceleratorSimulator.simulate`` with the paper's config on GXA7;
3. ``explore`` on GXA7;
4. ``run_study`` with a fixed trial count;
5. a quarter-scale ``search_partitions`` over GXA7 + GXA3;
6. ``EventDrivenSimulator.run_trace`` with continuous batching on the best
   plan's ``PipelinedProfile``, fed a seeded Poisson trace at 0.8 of that
   plan's throughput with two SLO classes.

Each query's answers are checked against a cold re-run of the same query
after the timed stream, with every design cache cleared first.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.dse import (
    clear_buffer_cache,
    clear_compiled_cache,
    clear_partition_cache,
    explore,
    run_study,
    search_partitions,
)
from repro.hw import (
    PAPER_CONFIG_ALEXNET,
    PAPER_CONFIG_VGG16,
    AcceleratorSimulator,
    clear_sim_cache,
    clear_window_plan_cache,
    get_device,
)
from repro.serve import (
    BatchPolicy,
    EventDrivenSimulator,
    PipelinedProfile,
    SLOClass,
    poisson_trace,
)
from repro.telemetry import Telemetry, activate, cache_stats
from repro.workloads import synthetic_model_workload

from common import digest, peak_rss_mb, percentile

PAPER_CONFIGS = {"alexnet": PAPER_CONFIG_ALEXNET, "vgg16": PAPER_CONFIG_VGG16}
STUDY_TRIALS = 32
PARTITION_SCALE = 0.25
SERVE_REQUESTS = 40_000
SERVE_LOAD = 0.8
SLO_MIX = {"interactive": 0.7, "bulk": 0.3}
SLO_CLASSES = (
    SLOClass("interactive", priority=0),
    SLOClass("bulk", priority=1, queue_limit=4),
)
POLICY = BatchPolicy(max_batch=8, max_wait_s=0.002)

#: Query step -> per-layer metric holding its time.
STEPS = {
    "synthetic": "workloads.synthetic_s",
    "simulate": "hw.simulate_s",
    "explore": "dse.explore_s",
    "study": "dse.study_s",
    "partition": "dse.partition_s",
    "trace": "serve.trace_s",
    "run_trace": "serve.run_trace_s",
}
CACHES = ("hw.sim", "dse.compiled", "dse.partition")


class Design:
    """Set-up state of the design workload: the device catalog."""

    def __init__(self, part: Callable) -> None:
        with part("hw.catalog_s"):
            self.gxa7 = get_device("Stratix-V GXA7")
            self.gxa3 = get_device("Stratix-V GXA3")

    def query(self, model: str, seed: int, calls: Dict[str, float]) -> Tuple[str, Dict]:
        """Answer one design query; add each step's time to ``calls``."""

        def timed(step, fn, *args, **kwargs):
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            calls[step] = calls.get(step, 0.0) + time.perf_counter() - start
            return value

        workload = timed("synthetic", synthetic_model_workload, model, seed=seed)
        simulator = AcceleratorSimulator(PAPER_CONFIGS[model], self.gxa7)
        simulated = timed("simulate", simulator.simulate, workload)
        explored = timed("explore", explore, workload, self.gxa7, seed=seed)
        study = timed(
            "study", run_study, [workload], self.gxa7, trials=STUDY_TRIALS, seed=seed
        )
        quarter = timed(
            "synthetic", synthetic_model_workload, model, seed=seed,
            scale=PARTITION_SCALE, spatial_scale=PARTITION_SCALE,
        )
        partition = timed(
            "partition", search_partitions, quarter, (self.gxa7, self.gxa3), seed=seed
        )
        best = partition.best
        trace = timed(
            "trace", poisson_trace, SERVE_REQUESTS, SERVE_LOAD * best.throughput_ips,
            seed=seed, slo_mix=SLO_MIX,
        )
        engine = EventDrivenSimulator(
            PipelinedProfile.from_shard_plan(best),
            POLICY,
            classes=SLO_CLASSES,
            continuous=True,
            record_spans=False,
            collect_records=False,
        )
        served = timed("run_trace", engine.run_trace, trace)
        answer = digest(
            simulated.throughput_gops,
            explored.chosen,
            study.best.params if study.best else None,
            study.best.values if study.best else None,
            [(s.device.name, s.layers, s.config) for s in best.shards],
            best.throughput_ips,
            served.served,
            served.rejected,
        )
        info = {
            "study_points": study.evaluated_points,
            "partition_evaluated": partition.evaluated,
            "served": served.served,
            "rejected": served.rejected,
        }
        return answer, info

    def run(self, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
        rng = np.random.default_rng(seed)
        queries: List[Tuple[str, int, str]] = []
        latencies: List[float] = []
        calls: Dict[str, float] = {}
        info_totals: Dict[str, float] = {}
        trials = 0
        telemetry = Telemetry()
        before = cache_stats()
        deadline = time.perf_counter() + seconds
        # Whole AlexNet+VGG16 pairs keep the latency mix the same in every run.
        while time.perf_counter() < deadline:
            for model in ("alexnet", "vgg16"):
                query_seed = int(rng.integers(0, 2**31 - 1))
                with activate(telemetry if trace else None):
                    start = time.perf_counter()
                    answer, info = self.query(model, query_seed, calls)
                    latencies.append(time.perf_counter() - start)
                queries.append((model, query_seed, answer))
                for key, value in info.items():
                    info_totals[key] = info_totals.get(key, 0) + value
                if trace:
                    trials += telemetry.tracer.totals().get("dse.trial", {}).get("count", 0)
                    telemetry.clear()
        after = cache_stats()
        rss = peak_rss_mb()

        # Expected answers: every query again, cold.
        for clear in (
            clear_sim_cache,
            clear_window_plan_cache,
            clear_compiled_cache,
            clear_buffer_cache,
            clear_partition_cache,
        ):
            clear()
        failed = sum(
            self.query(model, query_seed, {})[0] != answer
            for model, query_seed, answer in queries
        )

        n = len(latencies)
        wall = sum(latencies)
        per_layer: Dict[str, float] = {
            metric: calls.get(step, 0.0) / n for step, metric in STEPS.items()
        }
        per_layer.update(
            {
                "design.call_coverage": sum(calls.values()) / wall,
                "dse.study.points": info_totals["study_points"] / n,
                "dse.study.trials": trials / n,
                "dse.partition.evaluated": info_totals["partition_evaluated"] / n,
                "serve.sim_requests_per_s": SERVE_REQUESTS * n / calls["run_trace"],
                "serve.served": info_totals["served"] / n,
                "serve.rejected": info_totals["rejected"] / n,
            }
        )
        for family in CACHES:
            old, new = before.get(family), after.get(family)
            if old is None or new is None:
                continue
            per_layer[f"{family}.hits"] = new.hits - old.hits
            per_layer[f"{family}.misses"] = new.misses - old.misses
        return {
            "attempted": n,
            "failed": failed,
            "metrics": {
                "throughput_per_s": n / wall,
                "request_ms_p50": percentile(latencies, 50) * 1e3,
                "request_ms_p95": percentile(latencies, 95) * 1e3,
                "peak_rss_mb": rss,
            },
            "per_layer": per_layer,
            "samples": {"requests": n},
            "aliases": {
                "design_queries_per_s": ("throughput_per_s", "1/s"),
                "query_ms_p50": ("request_ms_p50", "ms"),
                "query_ms_p95": ("request_ms_p95", "ms"),
            },
        }
