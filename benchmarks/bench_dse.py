"""Benchmark: compiled whole-grid DSE sweeps vs the per-point oracles.

Times the two sweeps of the exploration flow — the Figure 6 N_knl sweep
then the Figure 7 S_ec x N_cu grid at the optimal N_knl, exactly as
``explore()`` runs them — on the paper's two workloads, once through the
compiled whole-grid evaluator (``sweep_nknl`` + ``sweep_sec_ncu``,
:mod:`repro.dse.compiled`) and once through the per-point oracles
(``sweep_nknl_reference`` + ``sweep_sec_ncu_reference``). The two must
agree exactly — every sweep point and the chosen N_knl — before any
timing counts.

``test_bench_dse_artifact`` writes a ``BENCH_dse.json`` trajectory
artifact (timings, speedups, grid sizes, Pareto timings) to the repo root
so future PRs can track DSE performance over time. Quick mode for CI:
``REPRO_BENCH_QUICK=1`` uses fewer repeats and a relaxed speedup floor
for shared runners; the full run asserts the >= 20x acceptance bar on the
VGG16 sweeps.
"""

import json
import os
import time
from pathlib import Path

from repro.dse import (
    DEFAULT_RESOURCE_MODEL,
    best_candidates,
    clear_buffer_cache,
    clear_compiled_cache,
    explore,
    optimal_nknl,
    pareto_frontier,
    pareto_frontier_reference,
    share_factor_from_workloads,
    sweep_nknl,
    sweep_nknl_reference,
    sweep_sec_ncu,
    sweep_sec_ncu_reference,
)
from repro.hw import STRATIX_V_GXA7
from repro.hw.tiling import clear_window_plan_cache
from repro.telemetry import Telemetry, activate
from repro.workloads import synthetic_model_workload

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "")
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_dse.json"


def _telemetry_section(telemetry):
    """Compact snapshot for bench artifacts: cache hit rates + span totals."""
    snapshot = telemetry.snapshot(include_spans=False)
    return {
        "caches": {
            name: {
                key: data[key]
                for key in ("hits", "misses", "evictions", "hit_rate")
            }
            for name, data in snapshot["caches"].items()
        },
        "span_totals": telemetry.tracer.totals(),
    }


def _best_of(fn, repeats):
    """Best-of-N wall time in seconds (min is the least noisy estimator)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sweeps(workload, nknl_fn, grid_fn):
    """The N_knl sweep, then the S_ec x N_cu grid at the optimal N_knl.

    Same arguments ``explore()`` passes; ``nknl_fn``/``grid_fn`` are either
    the compiled sweeps or their per-point oracles.
    """
    n_share = share_factor_from_workloads(workload.layers)
    nknl = nknl_fn(
        workload, DEFAULT_RESOURCE_MODEL, n_share, device=STRATIX_V_GXA7
    )
    grid = grid_fn(
        workload,
        STRATIX_V_GXA7,
        DEFAULT_RESOURCE_MODEL,
        n_knl=optimal_nknl(nknl),
        n_share=n_share,
    )
    return nknl, grid


def _compiled_sweeps(workload):
    return _sweeps(workload, sweep_nknl, sweep_sec_ncu)


def _reference_sweeps(workload):
    return _sweeps(workload, sweep_nknl_reference, sweep_sec_ncu_reference)


def _clear_caches():
    clear_compiled_cache()
    clear_buffer_cache()
    clear_window_plan_cache()


def test_bench_dse_artifact():
    """Compiled sweeps vs the per-point oracles; writes the artifact.

    The compiled sweeps must return identical points (both sweeps, hence
    the same optimal N_knl and candidates) and clear the speedup floor on
    the VGG16 sweeps.
    """
    repeats = 3 if QUICK else 5
    floor = 5.0 if QUICK else 20.0
    report = {
        "generated_by": "benchmarks/bench_dse.py",
        "quick": QUICK,
        "seed": 1,
        "models": {},
    }
    print()
    for model in ("alexnet", "vgg16"):
        workload = synthetic_model_workload(model, seed=1)

        compiled_result = explore(workload, STRATIX_V_GXA7)
        compiled_sweeps = _compiled_sweeps(workload)
        reference_nknl, reference_grid = _reference_sweeps(workload)
        # Point-for-point, float-for-float agreement is a precondition.
        assert compiled_sweeps == (reference_nknl, reference_grid)
        assert compiled_result.nknl_sweep == tuple(reference_nknl)
        assert compiled_result.grid == tuple(reference_grid)
        assert compiled_result.candidates == tuple(
            best_candidates(reference_grid)
        )

        compiled_s = _best_of(lambda: _compiled_sweeps(workload), repeats)
        reference_s = _best_of(
            lambda: _reference_sweeps(workload), max(1, repeats - 2)
        )
        # Cold compile: what the very first query pays (caches emptied).
        _clear_caches()
        start = time.perf_counter()
        _compiled_sweeps(workload)
        cold_s = time.perf_counter() - start

        # Pareto dominance over the full S_ec x N_cu grid, both paths.
        grid = sweep_sec_ncu(
            workload,
            STRATIX_V_GXA7,
            DEFAULT_RESOURCE_MODEL,
            n_knl=compiled_result.chosen_n_knl,
            n_share=compiled_result.n_share,
        )
        assert pareto_frontier(grid) == pareto_frontier_reference(grid)
        pareto_s = _best_of(lambda: pareto_frontier(grid), repeats)
        pareto_ref_s = _best_of(
            lambda: pareto_frontier_reference(grid), max(1, repeats - 2)
        )

        entry = {
            "layers": len(workload.layers),
            "grid_points": len(compiled_result.grid),
            "nknl_points": len(compiled_result.nknl_sweep),
            "chosen": repr(compiled_result.chosen),
            "throughput_gops": round(compiled_result.performance.throughput_gops, 1),
            "reference_s": round(reference_s, 6),
            "compiled_s": round(compiled_s, 6),
            "cold_compile_s": round(cold_s, 6),
            "pareto_reference_s": round(pareto_ref_s, 6),
            "pareto_compiled_s": round(pareto_s, 6),
            "speedup_compiled_vs_reference": round(reference_s / compiled_s, 2),
            "speedup_pareto": round(pareto_ref_s / pareto_s, 2),
        }
        report["models"][model] = entry
        print(
            f"  {model:<8} reference {reference_s * 1e3:8.2f} ms  "
            f"compiled {compiled_s * 1e3:7.2f} ms  "
            f"cold {cold_s * 1e3:6.2f} ms  "
            f"speedup {entry['speedup_compiled_vs_reference']:6.2f}x"
        )

    # One instrumented warm explore per model (outside the timed loops)
    # captures the DSE memo hit story and a bench-level span total.
    telemetry = Telemetry()
    with activate(telemetry):
        for model in ("alexnet", "vgg16"):
            workload = synthetic_model_workload(model, seed=1)
            with telemetry.span("explore", model=model):
                explore(workload, STRATIX_V_GXA7)
    report["telemetry"] = _telemetry_section(telemetry)

    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  wrote {ARTIFACT}")

    vgg16 = report["models"]["vgg16"]["speedup_compiled_vs_reference"]
    assert vgg16 >= floor, f"vgg16 compiled-DSE speedup {vgg16}x below {floor}x"


def test_bench_dse_adaptive():
    """TPE-guided joint search vs the exhaustive oracle; appends rows.

    For each workload the adaptive study must recover >= 99% of the
    exhaustive-best throughput while evaluating <= 10% of the joint
    space. Results merge into ``BENCH_dse.json`` under ``"adaptive"``
    and each study's JSONL file is left next to the artifact so CI can
    upload it.
    """
    from repro.dse import default_joint_space, exhaustive_search, run_study

    trials = 48
    rows = {"trials": trials, "seed": 1, "sampler": "tpe", "models": {}}
    print()
    for model in ("alexnet", "vgg16"):
        workload = synthetic_model_workload(model, seed=1)
        space = default_joint_space([workload])

        start = time.perf_counter()
        exhaustive = exhaustive_search([workload], STRATIX_V_GXA7, space=space)
        exhaustive_s = time.perf_counter() - start

        study_path = ARTIFACT.parent / f"BENCH_dse_study_{model}.jsonl"
        study_path.unlink(missing_ok=True)
        start = time.perf_counter()
        result = run_study(
            [workload], STRATIX_V_GXA7, trials=trials, sampler="tpe",
            seed=1, space=space, path=str(study_path),
        )
        study_s = time.perf_counter() - start

        random_result = run_study(
            [workload], STRATIX_V_GXA7, trials=trials, sampler="random",
            seed=1, space=space,
        )

        best = result.best.values["throughput_gops"]
        oracle = exhaustive.values["throughput_gops"]
        ratio = best / oracle
        fraction = result.evaluated_fraction
        rows["models"][model] = {
            "space_points": space.size,
            "evaluated_points": result.evaluated_points,
            "evaluated_fraction": round(fraction, 5),
            "best_gops": round(best, 1),
            "exhaustive_gops": round(oracle, 1),
            "ratio_to_exhaustive": round(ratio, 4),
            "random_best_gops": round(
                random_result.best.values["throughput_gops"], 1
            ),
            "front_size": len(result.front),
            "study_wall_s": round(study_s, 3),
            "exhaustive_wall_s": round(exhaustive_s, 3),
            "study_file": study_path.name,
        }
        print(
            f"  {model:<8} tpe {best:7.1f} / exhaustive {oracle:7.1f} GOP/s "
            f"(ratio {ratio:.4f})  {result.evaluated_points} of "
            f"{space.size} points ({fraction:.2%})  "
            f"study {study_s:5.2f}s  exhaustive {exhaustive_s:5.2f}s"
        )
        assert ratio >= 0.99, f"{model}: TPE ratio {ratio:.4f} below 0.99"
        assert fraction <= 0.10, (
            f"{model}: evaluated {fraction:.2%} of the space (cap 10%)"
        )

    # Merge into the trajectory artifact without clobbering the grid rows.
    report = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {
        "generated_by": "benchmarks/bench_dse.py",
        "quick": QUICK,
        "seed": 1,
    }
    report["adaptive"] = rows
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  wrote adaptive rows into {ARTIFACT}")
