"""The benchmark's metric catalog: names, units and what each one moves.

``BENCHMARK.json`` lists the same names and units; ``test_smoke.py``
checks the two agree. Every workload reports every metric. A per-layer
metric of a layer the workload does not run reads 0.

A *request* is one ``run_batch`` call on the ``infer-*`` workloads and one
design query on ``design``. Per-layer times are means per request.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seed kept out of all tuning; a later gain claim must also hold on it.
HELD_OUT_SEED = 7919

#: Workload names; ``BENCHMARK.json`` and ``README.md`` say why each exists.
WORKLOADS = ("infer-steady", "infer-mixed", "design")


class Metric(NamedTuple):
    unit: str
    #: End-to-end metric this one should move (per-layer metrics only).
    moves: Tuple[str, ...] = ()
    #: Workloads that run the layer; it reads 0 on the others.
    workloads: Tuple[str, ...] = WORKLOADS


INFER = ("infer-steady", "infer-mixed")
DESIGN = ("design",)

END_TO_END: Dict[str, Metric] = {
    # Wall time from worker-process start to the first timed request, as the
    # median over several fresh processes.
    "setup_s": Metric("s"),
    # images/s on infer-*, design queries/s on design.
    "throughput_per_s": Metric("1/s"),
    # Per-request latency: one batch (infer-*) or one design query (design).
    "request_ms_p50": Metric("ms"),
    "request_ms_p95": Metric("ms"),
    # Resident-set high-water mark of the measured process.
    "peak_rss_mb": Metric("MB"),
}

_SETUP = ("setup_s",)
_SPEED = ("throughput_per_s", "request_ms_p50", "request_ms_p95")

PER_LAYER: Dict[str, Metric] = {
    # repro.* imports, from process start.
    "import_s": Metric("s", _SETUP),
    "nn.build_s": Metric("s", _SETUP, INFER),
    "prune.prune_s": Metric("s", _SETUP, INFER),
    "quant.calibrate_s": Metric("s", _SETUP, INFER),
    "quant.quantize_s": Metric("s", _SETUP, INFER),
    "pipeline.first_batch_s": Metric("s", _SETUP, INFER),
    "hw.catalog_s": Metric("s", _SETUP, DESIGN),
    # Sum of the timed set-up parts over the set-up wall time (about 1).
    "setup.coverage": Metric("ratio", _SETUP),
    # Sum of `kernel` spans per batch.
    "core.kernel_s": Metric("s", _SPEED, INFER),
    # Sum of `fuse` spans per batch (model-plan compiles).
    "core.fuse_s": Metric("s", _SPEED, INFER),
    # run_batch wall time outside `fuse` and `kernel` spans, per batch.
    "pipeline.dark_s": Metric("s", _SPEED, INFER),
    # (fuse + kernel) / run_batch wall time.
    "pipeline.span_coverage": Metric("ratio", _SPEED, INFER),
    # Cache counters over the timed requests.
    "core.model_plan.hits": Metric("count", _SPEED, INFER),
    "core.model_plan.misses": Metric("count", _SPEED, INFER),
    "core.model_plan.evictions": Metric("count", _SPEED, INFER),
    "core.plan.hits": Metric("count", _SPEED, INFER),
    "core.plan.misses": Metric("count", _SPEED, INFER),
    # The paper's accumulate/multiply counts; must never move under a
    # host-side change.
    "core.acc_ops_per_image": Metric("count", (), INFER),
    "core.mult_ops_per_image": Metric("count", (), INFER),
    # 1 - traced/untraced images/s; alternate requests, matched per batch size.
    "telemetry.overhead": Metric("ratio", (), INFER),
    # Design-query steps, seconds per query.
    "workloads.synthetic_s": Metric("s", _SPEED, DESIGN),
    "hw.simulate_s": Metric("s", _SPEED, DESIGN),
    "dse.explore_s": Metric("s", _SPEED, DESIGN),
    "dse.study_s": Metric("s", _SPEED, DESIGN),
    "dse.partition_s": Metric("s", _SPEED, DESIGN),
    "serve.trace_s": Metric("s", _SPEED, DESIGN),
    "serve.run_trace_s": Metric("s", _SPEED, DESIGN),
    # Sum of the timed step calls over the query wall time (about 1).
    "design.call_coverage": Metric("ratio", _SPEED, DESIGN),
    "hw.sim.hits": Metric("count", _SPEED, DESIGN),
    "hw.sim.misses": Metric("count", _SPEED, DESIGN),
    "dse.compiled.hits": Metric("count", _SPEED, DESIGN),
    "dse.compiled.misses": Metric("count", _SPEED, DESIGN),
    # Design points the study scored, and `dse.trial` spans, per query.
    "dse.study.points": Metric("count", _SPEED, DESIGN),
    "dse.study.trials": Metric("count", _SPEED, DESIGN),
    "dse.partition.evaluated": Metric("count", _SPEED, DESIGN),
    "dse.partition.hits": Metric("count", _SPEED, DESIGN),
    "dse.partition.misses": Metric("count", _SPEED, DESIGN),
    # Simulated requests per second of event-engine wall time.
    "serve.sim_requests_per_s": Metric("1/s", _SPEED, DESIGN),
    # Served and rejected simulated requests, per query.
    "serve.served": Metric("count", (), DESIGN),
    "serve.rejected": Metric("count", (), DESIGN),
}
