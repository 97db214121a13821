"""Serial-equivalence tests for the DSE sweeps.

The production sweeps (compiled whole-grid evaluator, vectorized Pareto
test) must return the same points in the same order as the serial
per-point oracles ``sweep_nknl_reference``,
``sweep_sec_ncu_reference`` and ``pareto_frontier_reference``.
"""

import pytest

from repro.dse import (
    explore,
    explore_joint,
    optimal_nknl,
    pareto_frontier,
    pareto_frontier_reference,
    share_factor_from_workloads,
    sweep_nknl,
    sweep_nknl_reference,
    sweep_sec_ncu,
    sweep_sec_ncu_reference,
)
from repro.dse.resources import DEFAULT_RESOURCE_MODEL
from repro.hw import STRATIX_V_GXA7
from repro.workloads import synthetic_model_workload


@pytest.fixture(scope="module")
def workload():
    return synthetic_model_workload("alexnet", seed=1)


class TestSweepDeterminism:
    def test_nknl_sweep_matches_serial(self, workload):
        kwargs = dict(
            resources=DEFAULT_RESOURCE_MODEL,
            n_share=4,
            device=STRATIX_V_GXA7,
            n_knl_range=tuple(range(2, 12)),
        )
        assert sweep_nknl(workload, **kwargs) == sweep_nknl_reference(
            workload, **kwargs
        )

    def test_grid_sweep_matches_serial(self, workload):
        kwargs = dict(
            device=STRATIX_V_GXA7,
            resources=DEFAULT_RESOURCE_MODEL,
            n_knl=14,
            n_share=4,
            s_ec_range=(8, 16, 24),
            n_cu_range=(1, 2, 3),
        )
        grid = sweep_sec_ncu(workload, **kwargs)
        assert grid == sweep_sec_ncu_reference(workload, **kwargs)
        # Order is N_cu outer, S_ec inner.
        assert [(p.n_cu, p.s_ec) for p in grid] == [
            (n_cu, s_ec) for n_cu in (1, 2, 3) for s_ec in (8, 16, 24)
        ]

    def test_pareto_frontier_matches_serial(self, workload):
        grid = sweep_sec_ncu(
            workload,
            STRATIX_V_GXA7,
            DEFAULT_RESOURCE_MODEL,
            n_knl=14,
            n_share=4,
        )
        frontier = pareto_frontier(grid)
        assert frontier
        assert frontier == pareto_frontier_reference(grid)

    def test_explore_matches_serial(self, workload):
        result = explore(workload, STRATIX_V_GXA7)
        nknl = sweep_nknl_reference(
            workload, DEFAULT_RESOURCE_MODEL, result.n_share, device=STRATIX_V_GXA7
        )
        assert result.nknl_sweep == tuple(nknl)
        assert result.chosen_n_knl == optimal_nknl(nknl)
        assert result.grid == tuple(
            sweep_sec_ncu_reference(
                workload,
                STRATIX_V_GXA7,
                DEFAULT_RESOURCE_MODEL,
                n_knl=result.chosen_n_knl,
                n_share=result.n_share,
            )
        )
        assert result.chosen.n_knl == result.chosen_n_knl
        assert (result.chosen.s_ec, result.chosen.n_cu) == (
            result.candidates[0].s_ec,
            result.candidates[0].n_cu,
        )

    def test_explore_joint_matches_serial(self, workload):
        vgg = synthetic_model_workload("vgg16", seed=1)
        workloads = [workload, vgg]
        result = explore_joint(workloads, STRATIX_V_GXA7)
        n_share = min(share_factor_from_workloads(w.layers) for w in workloads)
        for item in workloads:
            grid = sweep_sec_ncu_reference(
                item,
                STRATIX_V_GXA7,
                DEFAULT_RESOURCE_MODEL,
                n_knl=14,
                n_share=n_share,
            )
            assert result.best_single[item.name] == max(
                p.throughput_gops for p in grid if p.feasible
            )
