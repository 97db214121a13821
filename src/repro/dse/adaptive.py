"""Adaptive multi-objective DSE: TPE-guided search of the joint space.

The compiled grid evaluator made the fixed three-axis ``(N_knl, S_ec,
N_cu)`` sweep nearly free, but the paper's *real* design space is joint —
add ``(N, d_f, d_w, freq_mhz)`` and exhaustive enumeration stops scaling
exactly where the interesting trade-offs live. This module searches that
joint space adaptively:

- :class:`TPESampler` — a seeded, dependency-free Tree-structured Parzen
  Estimator over the categorical axes: observed trials split into a
  *good* fraction (top ``gamma`` by the primary objective) and the rest,
  per-axis smoothed categorical densities ``l(x)`` / ``g(x)`` are fit to
  the two groups, and each proposal is the best of ``n_candidates`` draws
  from ``l`` scored by ``sum(log l - log g)``. :class:`RandomSampler` is
  the baseline the benchmarks compare against.
- :class:`JointEvaluator` — scores whole sub-grids per sampler round
  through :meth:`CompiledWorkload.evaluate_grid` (with sampled ``d_f`` /
  ``d_w`` buffer overrides), then layers the joint-space feasibility the
  three-axis grid cannot see: sampled clocks are gated by the congestion
  model's Fmax, sampled ``d_w`` must cover the deepest kernel stream, and
  over- or under-provisioned buffers adjust the M20K budget through the
  same width×depth block mapping as :mod:`repro.hw.buffers`. Multi-model
  studies combine per-workload grids through
  :func:`repro.dse.multi.co_deployment_objectives`.
- :func:`run_study` — the round loop: sample a batch, group it by the
  outer ``(N, d_f, d_w, freq)`` axes, evaluate each group as one
  vectorized sub-grid (or per-point when the cross product would blow the
  ``subgrid_cap`` budget), *harvest* the best feasible sub-grid point as a
  bonus trial, and append everything to the :class:`~repro.dse.study.Study`.

Determinism contract: every random draw comes from
``np.random.default_rng([seed, round_index])`` and the sampler consumes
only completed-round history, so a killed-and-resumed study replays the
exact trial sequence and Pareto front of an uninterrupted run —
``tests/test_dse_adaptive.py`` pins this, plus the headline claim that
TPE reaches ≥99% of the exhaustive-best throughput while touching ≤10%
of the joint grid.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..hw.buffers import BufferRequirement
from ..hw.device import FPGADevice
from ..hw.power import EnergyModel
from ..hw.tiling import plan_layer_windows
from ..hw.workload import ModelWorkload
from ..telemetry import get_active
from .compiled import compile_workload
from .explorer import BufferSizing, size_buffers
from .frequency import DEFAULT_FREQUENCY_MODEL, FrequencyModel
from .multi import co_deployment_objectives
from .performance import share_factor_from_workloads
from .resources import DEFAULT_RESOURCE_MODEL, ResourceModel
from .study import (
    ORIGIN_HARVEST,
    ORIGIN_SAMPLED,
    Objective,
    SearchSpace,
    Study,
    StudyError,
    StudySpec,
    TrialRecord,
)

#: Every objective the joint evaluator can score, with its direction.
OBJECTIVE_DIRECTIONS: Dict[str, str] = {
    "throughput_gops": "max",
    "logic_util": "min",
    "dsp_util": "min",
    "mem_util": "min",
    "total_power_w": "min",
    "gops_per_watt": "max",
}

#: Default study objectives: the paper's throughput target plus the
#: resource/power Pareto axes. The first entry is the primary objective
#: driving the TPE good/bad split.
DEFAULT_OBJECTIVES: Tuple[Objective, ...] = (
    Objective("throughput_gops", "max"),
    Objective("logic_util", "min"),
    Objective("dsp_util", "min"),
    Objective("mem_util", "min"),
    Objective("total_power_w", "min"),
)

#: The grid axes evaluated in one vectorized batch per sub-grid...
INNER_AXES: Tuple[str, ...] = ("n_knl", "s_ec", "n_cu")
#: ...and the axes that pin one compiled-evaluation cell.
OUTER_AXES: Tuple[str, ...] = ("n_share", "d_f", "d_w", "freq_mhz")
JOINT_AXES: Tuple[str, ...] = INNER_AXES + OUTER_AXES

#: Histogram buckets for the primary-objective distribution (GOP/s scale).
_PRIMARY_BUCKETS = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0)


def default_joint_space(
    workloads: Sequence[ModelWorkload],
    *,
    n_knl_values: Sequence[int] = tuple(range(2, 25)),
    s_ec_values: Sequence[int] = tuple(range(4, 33, 2)),
    n_cu_values: Sequence[int] = tuple(range(1, 7)),
    freq_values: Sequence[float] = (150.0, 175.0, 200.0, 225.0, 250.0),
) -> SearchSpace:
    """The seven-axis joint space for a workload set.

    The grid axes come straight from the paper's sweeps; the joint axes
    are anchored on the derived sizing so every candidate is *plausible*:
    sharing factors bracket the intensity-ratio N, ``d_f`` spans the
    sizing rule's requirement from the widest to the narrowest ``S_ec``
    (smaller depths trade BRAM for extra prefetch windows), and ``d_w``
    brackets the deepest-kernel requirement (the half-depth candidate is
    deliberately infeasible — it exercises the coverage gate).
    """
    workloads = tuple(workloads)
    if not workloads:
        raise ValueError("need at least one workload")
    derived_share = min(
        share_factor_from_workloads(w.layers) for w in workloads
    )
    shares = tuple(
        sorted({max(1, derived_share - 1), derived_share, derived_share + 1})
    )
    ordered_sec = sorted(int(s) for s in s_ec_values)
    s_lo, s_hi = ordered_sec[0], ordered_sec[-1]
    s_mid = ordered_sec[len(ordered_sec) // 2]
    d_f_candidates = tuple(
        sorted(
            {
                max(size_buffers(w, s).d_f for w in workloads)
                for s in (s_hi, s_mid, s_lo)
            }
        )
    )
    required_dw = max(size_buffers(w, s_lo).d_w for w in workloads)
    d_w_candidates = tuple(
        sorted({max(1, required_dw // 2), required_dw, required_dw * 2})
    )
    return SearchSpace(
        (
            ("n_knl", tuple(int(v) for v in n_knl_values)),
            ("s_ec", tuple(ordered_sec)),
            ("n_cu", tuple(int(v) for v in n_cu_values)),
            ("n_share", shares),
            ("d_f", d_f_candidates),
            ("d_w", d_w_candidates),
            ("freq_mhz", tuple(float(v) for v in freq_values)),
        )
    )


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _uniform_draw(space: SearchSpace, rng: np.random.Generator) -> Dict[str, float]:
    """One uniform draw; consumes rng once per axis, in axis order."""
    return {
        name: values[int(rng.integers(len(values)))]
        for name, values in space.axes
    }


def _probe_unseen(
    space: SearchSpace, rng: np.random.Generator, taken: Set[Tuple[float, ...]]
) -> Optional[Dict[str, float]]:
    """Deterministic linear probe for any unseen point (dedup fallback).

    Walks flat indices from an rng-chosen start; returns ``None`` only
    when the whole space is exhausted.
    """
    start = int(rng.integers(space.size))
    for offset in range(space.size):
        params = space.unflatten((start + offset) % space.size)
        if space.key(params) not in taken:
            return params
    return None


def _draw_batch(
    space: SearchSpace,
    rng: np.random.Generator,
    count: int,
    seen: Set[Tuple[float, ...]],
    draw_one: Callable[[SearchSpace, np.random.Generator], Dict[str, float]],
) -> List[Dict[str, float]]:
    """Draw ``count`` distinct unseen points via ``draw_one`` + dedup.

    Redraws duplicates up to 32 times, then falls back to the linear
    probe; returns fewer than ``count`` only when the space runs dry.
    """
    taken = set(seen)
    proposals: List[Dict[str, float]] = []
    for _ in range(count):
        params: Optional[Dict[str, float]] = None
        for _attempt in range(32):
            candidate = draw_one(space, rng)
            if space.key(candidate) not in taken:
                params = candidate
                break
        if params is None:
            params = _probe_unseen(space, rng, taken)
            if params is None:
                break
        taken.add(space.key(params))
        proposals.append(params)
    return proposals


class RandomSampler:
    """Uniform-over-the-space baseline (still seeded and deduplicated)."""

    name = "random"

    def propose(
        self,
        space: SearchSpace,
        history: Sequence[TrialRecord],
        primary: Objective,
        rng: np.random.Generator,
        count: int,
        seen: Set[Tuple[float, ...]],
    ) -> List[Dict[str, float]]:
        return _draw_batch(space, rng, count, seen, _uniform_draw)


class TPESampler:
    """Tree-structured Parzen Estimator over the categorical joint axes.

    Observed trials are split into *good* (top ``gamma`` fraction of
    feasible trials by the primary objective) and *bad* (the rest, plus
    every infeasible trial); per axis, smoothed categorical densities
    ``l`` / ``g`` are fit to the two groups and each proposal is the best
    of ``n_candidates`` draws from ``l`` under the acquisition score
    ``sum(log l(x) - log g(x))`` — the standard EI-equivalent for TPE.
    Until ``n_startup`` feasible trials exist the sampler draws uniformly.
    """

    name = "tpe"

    def __init__(
        self,
        n_startup: int = 10,
        gamma: float = 0.25,
        n_candidates: int = 24,
        prior_weight: float = 1.0,
        explore_fraction: float = 0.25,
    ) -> None:
        if n_startup < 1 or n_candidates < 1:
            raise ValueError("n_startup and n_candidates must be >= 1")
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if prior_weight <= 0.0:
            raise ValueError("prior_weight must be positive")
        if not 0.0 <= explore_fraction < 1.0:
            raise ValueError("explore_fraction must be in [0, 1)")
        self.n_startup = n_startup
        self.gamma = gamma
        self.n_candidates = n_candidates
        self.prior_weight = prior_weight
        self.explore_fraction = explore_fraction

    def propose(
        self,
        space: SearchSpace,
        history: Sequence[TrialRecord],
        primary: Objective,
        rng: np.random.Generator,
        count: int,
        seen: Set[Tuple[float, ...]],
    ) -> List[Dict[str, float]]:
        scored = [
            t for t in history if t.feasible and primary.name in t.values
        ]
        # Startup counts *all* observations: infeasible trials still teach
        # g(x) where not to look, and feasible regions can be rare enough
        # that waiting for n_startup scored trials would never end startup.
        if len(history) < self.n_startup or not scored:
            return _draw_batch(space, rng, count, seen, _uniform_draw)
        ordered = sorted(
            scored,
            key=lambda t: t.values[primary.name],
            reverse=(primary.direction == "max"),
        )
        n_good = max(1, math.ceil(self.gamma * len(scored)))
        good = ordered[:n_good]
        bad = ordered[n_good:] + [
            t
            for t in history
            if not (t.feasible and primary.name in t.values)
        ]
        l_probs: Dict[str, np.ndarray] = {}
        g_probs: Dict[str, np.ndarray] = {}
        for name, values in space.axes:
            index = {value: i for i, value in enumerate(values)}
            l_w = np.full(len(values), self.prior_weight, dtype=np.float64)
            g_w = np.full(len(values), self.prior_weight, dtype=np.float64)
            for trial in good:
                l_w[index[trial.params[name]]] += 1.0
            for trial in bad:
                g_w[index[trial.params[name]]] += 1.0
            l_probs[name] = l_w / l_w.sum()
            g_probs[name] = g_w / g_w.sum()

        def draw_one(
            space: SearchSpace, rng: np.random.Generator
        ) -> Dict[str, float]:
            best_params: Optional[Dict[str, float]] = None
            best_score = -math.inf
            for _ in range(self.n_candidates):
                params: Dict[str, float] = {}
                score = 0.0
                for name, values in space.axes:
                    i = int(rng.choice(len(values), p=l_probs[name]))
                    params[name] = values[i]
                    score += math.log(l_probs[name][i]) - math.log(
                        g_probs[name][i]
                    )
                if score > best_score:
                    best_params, best_score = params, score
            return best_params  # type: ignore[return-value]

        n_explore = int(self.explore_fraction * count)
        exploited = _draw_batch(
            space, rng, count - n_explore, seen, draw_one
        )
        if n_explore:
            taken = set(seen)
            taken.update(space.key(p) for p in exploited)
            # A uniform tail in every batch keeps the categorical
            # densities from collapsing onto an early local optimum.
            exploited.extend(
                _draw_batch(space, rng, n_explore, taken, _uniform_draw)
            )
        return exploited


def make_sampler(name: str):
    """Sampler registry for the CLI / run_study ``sampler=`` string."""
    if name == "tpe":
        return TPESampler()
    if name == "random":
        return RandomSampler()
    raise StudyError(f"unknown sampler {name!r}; choose from ('tpe', 'random')")


# ---------------------------------------------------------------------------
# Joint evaluation
# ---------------------------------------------------------------------------


def _ft_blocks(d_f: int, s_ec: int) -> int:
    """M20K blocks of one FT-Buffer at a given depth/vector width."""
    return BufferRequirement(
        name="FT-Buffer",
        required_depth=d_f,
        provisioned_depth=d_f,
        entry_bits=8 * s_ec,
    ).m20k_blocks


def _wt_blocks(d_w: int) -> int:
    """M20K blocks of one kernel engine's WT-Buffer slice."""
    return BufferRequirement(
        name="WT-Buffer",
        required_depth=d_w,
        provisioned_depth=d_w,
        entry_bits=16,
    ).m20k_blocks


@dataclass(frozen=True)
class CellEvaluation:
    """One evaluated ``(N, d_f, d_w, freq)`` cell over a 3-axis sub-grid.

    ``values`` maps every objective of :data:`OBJECTIVE_DIRECTIONS` to an
    array indexed ``[i_knl, i_sec, i_ncu]``; ``plannable`` marks the
    ``S_ec`` columns where every workload's window plan fits the sampled
    ``d_f`` (unplannable columns score NaN and are infeasible).
    """

    n_knl_values: Tuple[int, ...]
    s_ec_values: Tuple[int, ...]
    n_cu_values: Tuple[int, ...]
    values: Mapping[str, np.ndarray]
    feasible: np.ndarray
    plannable: np.ndarray

    def point(
        self, i_knl: int, i_sec: int, i_ncu: int, names: Sequence[str]
    ) -> Tuple[Dict[str, float], bool]:
        """(objective values, feasibility) of one sub-grid point."""
        if not bool(self.plannable[i_sec]):
            return {}, False
        out: Dict[str, float] = {}
        for name in names:
            value = float(self.values[name][i_knl, i_sec, i_ncu])
            if math.isfinite(value):
                out[name] = value
        feasible = bool(self.feasible[i_knl, i_sec, i_ncu]) and len(out) == len(
            names
        )
        return out, feasible

    def best_feasible(self, primary: Objective) -> Optional[Tuple[int, int, int]]:
        """Index of the best feasible point on the primary objective.

        Ties break to the first point in C order — deterministic, which
        the resume contract depends on.
        """
        if not self.feasible.any():
            return None
        array = self.values[primary.name]
        if primary.direction == "max":
            masked = np.where(self.feasible, array, -np.inf)
            flat = int(np.argmax(masked))
        else:
            masked = np.where(self.feasible, array, np.inf)
            flat = int(np.argmin(masked))
        return tuple(int(i) for i in np.unravel_index(flat, self.feasible.shape))


class JointEvaluator:
    """Scores joint-space cells for one or more co-deployed workloads.

    On top of the compiled grid's logic/DSP/memory feasibility this adds
    the joint-space gates: the sampled clock must not exceed the
    congestion model's Fmax at the point's logic utilization, the sampled
    ``d_w`` must cover every workload's deepest kernel stream, and the
    delta between sampled and derived buffer sizing adjusts the M20K
    estimate through the same block mapping as :mod:`repro.hw.buffers`
    (so undersized buffers *save* BRAM and oversized ones must still fit
    the device).
    """

    def __init__(
        self,
        workloads: Sequence[ModelWorkload],
        device: FPGADevice,
        *,
        resources: ResourceModel = DEFAULT_RESOURCE_MODEL,
        logic_limit: float = 0.75,
        energy_model: Optional[EnergyModel] = None,
        frequency_model: FrequencyModel = DEFAULT_FREQUENCY_MODEL,
    ) -> None:
        self.workloads = tuple(workloads)
        if not self.workloads:
            raise ValueError("need at least one workload")
        self.device = device
        self.resources = resources
        self.logic_limit = logic_limit
        self.energy_model = (
            energy_model if energy_model is not None else EnergyModel()
        )
        self.frequency_model = frequency_model

    def _plannable_columns(
        self, workload: ModelWorkload, d_f: int, s_ec_values: Sequence[int]
    ) -> Set[int]:
        columns: Set[int] = set()
        for j, s_ec in enumerate(s_ec_values):
            try:
                for layer in workload.layers:
                    plan_layer_windows(layer.spec, d_f, s_ec)
            except ValueError:
                continue
            columns.add(j)
        return columns

    def evaluate_cell(
        self,
        outer: Mapping[str, float],
        n_knl_values: Sequence[int],
        s_ec_values: Sequence[int],
        n_cu_values: Sequence[int],
    ) -> CellEvaluation:
        """Evaluate one outer cell across a full inner sub-grid."""
        knl = tuple(int(v) for v in n_knl_values)
        sec = tuple(int(v) for v in s_ec_values)
        ncu = tuple(int(v) for v in n_cu_values)
        n_share = int(outer["n_share"])
        d_f = int(outer["d_f"])
        d_w = int(outer["d_w"])
        freq_mhz = float(outer["freq_mhz"])
        shape = (len(knl), len(sec), len(ncu))
        values = {
            name: np.full(shape, np.nan) for name in OBJECTIVE_DIRECTIONS
        }
        feasible = np.zeros(shape, dtype=bool)
        plannable = np.zeros(len(sec), dtype=bool)

        common: Optional[Set[int]] = None
        for workload in self.workloads:
            columns = self._plannable_columns(workload, d_f, sec)
            common = columns if common is None else (common & columns)
        ordered_columns = sorted(common or ())
        if not ordered_columns:
            return CellEvaluation(knl, sec, ncu, values, feasible, plannable)

        sub_sec = tuple(sec[j] for j in ordered_columns)
        knl_arr = np.asarray(knl, dtype=np.float64)[:, None, None]
        ncu_arr = np.asarray(ncu, dtype=np.float64)[None, None, :]
        evaluations = []
        mem_adjusted = []
        extra_gates = []
        for workload in self.workloads:
            derived = [size_buffers(workload, s) for s in sub_sec]
            override = [
                BufferSizing(d_f=d_f, d_w=d_w, d_q=sizing.d_q)
                for sizing in derived
            ]
            evaluation = compile_workload(workload, n_share).evaluate_grid(
                self.resources,
                self.device,
                n_knl_values=knl,
                s_ec_values=sub_sec,
                n_cu_values=ncu,
                freq_mhz=freq_mhz,
                logic_limit=self.logic_limit,
                buffers=override,
                energy_model=self.energy_model,
            )
            # Sampled-vs-derived buffer sizing shifts the M20K budget: one
            # FT-Buffer per CU, one WT-Buffer slice per kernel engine.
            ft_delta = np.array(
                [
                    _ft_blocks(d_f, s) - _ft_blocks(sizing.d_f, s)
                    for s, sizing in zip(sub_sec, derived)
                ],
                dtype=np.float64,
            )
            wt_delta = float(_wt_blocks(d_w) - _wt_blocks(derived[0].d_w))
            extra = (
                ncu_arr * ft_delta[None, :, None]
                + knl_arr * ncu_arr * wt_delta
            )
            mem_util = (evaluation.m20ks + extra) / self.device.m20k_blocks
            fmax = self.frequency_model.fmax_mhz_array(evaluation.logic_util)
            gate = (
                (mem_util <= 1.0)
                & (freq_mhz <= fmax)
                & (d_w >= derived[0].d_w)
            )
            evaluations.append(evaluation)
            mem_adjusted.append(mem_util)
            extra_gates.append(gate)

        base = co_deployment_objectives(evaluations)
        sub_values = {
            "throughput_gops": base["throughput_gops"],
            "logic_util": base["logic_util"],
            "dsp_util": base["dsp_util"],
            "mem_util": np.maximum.reduce(mem_adjusted),
            "total_power_w": base["total_power_w"],
            "gops_per_watt": base["gops_per_watt"],
        }
        sub_feasible = base["feasible"] & np.logical_and.reduce(extra_gates)
        for j_sub, j in enumerate(ordered_columns):
            plannable[j] = True
            feasible[:, j, :] = sub_feasible[:, j_sub, :]
            for name, array in values.items():
                array[:, j, :] = sub_values[name][:, j_sub, :]
        return CellEvaluation(knl, sec, ncu, values, feasible, plannable)


# ---------------------------------------------------------------------------
# The study loop
# ---------------------------------------------------------------------------


def _ordered_params(
    space: SearchSpace, mapping: Mapping[str, float]
) -> Dict[str, float]:
    """Normalize a params dict to the space's canonical axis order."""
    return {name: mapping[name] for name in space.names}


def _round_groups(
    proposals: Sequence[Mapping[str, float]]
) -> "OrderedDict[Tuple[float, ...], List[Mapping[str, float]]]":
    """Group a round's proposals by outer cell, first-appearance order."""
    groups: "OrderedDict[Tuple[float, ...], List[Mapping[str, float]]]" = (
        OrderedDict()
    )
    for params in proposals:
        key = tuple(params[axis] for axis in OUTER_AXES)
        groups.setdefault(key, []).append(params)
    return groups


def _neighbor_values(
    space: SearchSpace, axis: str, member_values: Set[int], radius: int
) -> Tuple[int, ...]:
    """Member values of one inner axis plus their ±radius grid neighbors."""
    values = space.values(axis)
    expanded: Set[int] = set()
    for value in member_values:
        i = values.index(value)
        for j in range(max(0, i - radius), min(len(values), i + radius + 1)):
            expanded.add(int(values[j]))
    return tuple(sorted(expanded))


def _group_axes(
    members: Sequence[Mapping[str, float]],
    space: SearchSpace,
    subgrid_cap: int,
    anchor: Optional[Mapping[str, float]] = None,
) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]], bool]:
    """Inner sub-grid axes for one group, and whether to grid at all.

    Each sampled point anchors a local sub-grid: the members' inner-axis
    values — plus the incumbent-best trial's inner point (``anchor``), so
    a good inner region found in one outer cell transfers to every newly
    sampled cell — expanded by grid neighbors at the largest radius whose
    cross product still fits the ``subgrid_cap * len(members)`` point
    budget. No radius fits → fall back to the members' own values; still
    too big → evaluate members point-by-point. Pure function of the group
    and the round-start incumbent, so resume replays the same decision.
    """
    budget = subgrid_cap * len(members)
    member_values = {
        axis: {int(p[axis]) for p in members} for axis in INNER_AXES
    }
    if anchor is not None:
        for axis in INNER_AXES:
            member_values[axis].add(int(anchor[axis]))
    best: Optional[Tuple[Tuple[int, ...], ...]] = None
    radius = 1
    while True:
        expanded = tuple(
            _neighbor_values(space, axis, member_values[axis], radius)
            for axis in INNER_AXES
        )
        if math.prod(len(v) for v in expanded) > budget:
            break
        if best is not None and expanded == best:
            break  # axes saturated; no point growing the radius further
        best = expanded
        radius += 1
    if best is not None:
        return best, True
    base = tuple(
        tuple(sorted(member_values[axis])) for axis in INNER_AXES
    )
    if math.prod(len(v) for v in base) <= budget:
        return base, True
    return base, False


def _group_tuples(
    members: Sequence[Mapping[str, float]],
    space: SearchSpace,
    subgrid_cap: int,
    anchor: Optional[Mapping[str, float]] = None,
) -> Tuple[List[Tuple[float, ...]], bool]:
    """The joint-space tuples one group's evaluation touches.

    Returns ``(tuples, use_subgrid)``: the local sub-grid's cross product
    when one is evaluated, else the members alone. The resume path
    replays this to reconstruct the evaluated-point set exactly.
    """
    outer = tuple(members[0][axis] for axis in OUTER_AXES)
    (knl, sec, ncu), use_subgrid = _group_axes(
        members, space, subgrid_cap, anchor
    )
    if use_subgrid:
        tuples = [
            (k, s, c) + outer for k in knl for s in sec for c in ncu
        ]
        return tuples, True
    tuples = [
        tuple(int(p[axis]) for axis in INNER_AXES) + outer for p in members
    ]
    return tuples, False


def _outer_neighbor_cells(
    space: SearchSpace, params: Mapping[str, float]
) -> List[Tuple[float, ...]]:
    """Outer cells one axis step away from a point, in axis order."""
    base = tuple(params[axis] for axis in OUTER_AXES)
    cells: List[Tuple[float, ...]] = []
    for position, axis in enumerate(OUTER_AXES):
        values = space.values(axis)
        i = values.index(params[axis])
        for delta in (-1, 1):
            j = i + delta
            if 0 <= j < len(values):
                cell = list(base)
                cell[position] = values[j]
                cells.append(tuple(cell))
    return cells


def _probe_cap(subgrid_cap: int) -> int:
    """Point budget for one incumbent-neighborhood probe cell."""
    return max(1, subgrid_cap // 4)


def _probe_member(
    space: SearchSpace,
    incumbent_params: Mapping[str, float],
    cell: Tuple[float, ...],
) -> Dict[str, float]:
    """Synthetic group member: incumbent inner point in a neighbor cell."""
    merged = dict(zip(OUTER_AXES, cell))
    merged.update(
        {axis: incumbent_params[axis] for axis in INNER_AXES}
    )
    return _ordered_params(space, merged)


def _replay_evaluated(
    study: Study,
) -> Tuple[Set[Tuple[float, ...]], Optional[int]]:
    """Reconstruct the evaluated-point set of a loaded study.

    Replays each completed round's group structure — and the incumbent
    neighborhood probes — from the recorded trials (both are pure
    functions of the history prefix), then cross-checks the count against
    the last ``round_end`` marker. Returns the set and the trial number
    of the last probed incumbent, so a resumed run continues the pattern
    search exactly where the file left off.
    """
    evaluated: Set[Tuple[float, ...]] = set()
    primary = study.spec.primary
    space = study.spec.space
    rounds: Dict[int, List[Mapping[str, float]]] = {}
    for trial in study.trials:
        if trial.origin == ORIGIN_SAMPLED:
            rounds.setdefault(trial.round, []).append(trial.params)
    incumbent: Optional[TrialRecord] = None
    last_probed: Optional[int] = None
    cursor = 0
    for round_index in sorted(rounds):
        # Re-derive the round-start incumbent (same scan as Study.best).
        while (
            cursor < len(study.trials)
            and study.trials[cursor].round < round_index
        ):
            trial = study.trials[cursor]
            if (
                trial.feasible
                and primary.name in trial.values
                and (
                    incumbent is None
                    or primary.better(
                        trial.values[primary.name],
                        incumbent.values[primary.name],
                    )
                )
            ):
                incumbent = trial
            cursor += 1
        anchor = incumbent.params if incumbent is not None else None
        for members in _round_groups(rounds[round_index]).values():
            tuples, _ = _group_tuples(
                members, space, study.spec.subgrid_cap, anchor
            )
            evaluated.update(tuples)
        if incumbent is not None and incumbent.number != last_probed:
            for cell in _outer_neighbor_cells(space, incumbent.params):
                member = _probe_member(space, incumbent.params, cell)
                tuples, _ = _group_tuples(
                    [member], space, _probe_cap(study.spec.subgrid_cap)
                )
                evaluated.update(tuples)
            last_probed = incumbent.number
    if study.trials and len(evaluated) != study.evaluated_points:
        raise StudyError(
            f"study {study.path or '<memory>'}: replayed evaluated-point "
            f"count {len(evaluated)} does not match the recorded "
            f"{study.evaluated_points} — the file was not produced by this "
            f"search procedure"
        )
    return evaluated, last_probed


@dataclass(frozen=True)
class StudyResult:
    """Outcome of :func:`run_study`."""

    study: Study
    best: Optional[TrialRecord]
    front: Tuple[TrialRecord, ...]
    evaluated_points: int
    space_size: int
    sampled_trials: int

    @property
    def evaluated_fraction(self) -> float:
        return self.evaluated_points / self.space_size


def _validate_space(space: SearchSpace) -> None:
    if set(space.names) != set(JOINT_AXES):
        raise StudyError(
            f"joint search space must define exactly the axes {JOINT_AXES}, "
            f"got {space.names}"
        )


def run_study(
    workloads: Sequence[ModelWorkload],
    device: FPGADevice,
    *,
    trials: int,
    sampler: str = "tpe",
    seed: int = 1,
    objectives: Optional[Sequence[Objective]] = None,
    space: Optional[SearchSpace] = None,
    path: Optional[str] = None,
    resume: bool = False,
    batch: int = 8,
    subgrid_cap: int = 320,
    resources: ResourceModel = DEFAULT_RESOURCE_MODEL,
    logic_limit: float = 0.75,
    energy_model: Optional[EnergyModel] = None,
    frequency_model: FrequencyModel = DEFAULT_FREQUENCY_MODEL,
    name: Optional[str] = None,
) -> StudyResult:
    """Run (or resume) an adaptive study until ``trials`` sampled trials.

    ``trials`` counts *sampled* trials; harvested sub-grid optima ride
    along for free. With ``path`` the study persists as append-only JSONL
    after every trial; ``resume=True`` continues an existing file (and
    must be invoked with the same configuration — the header is checked).
    A fresh run and a killed-and-resumed run with the same seed produce
    identical trial sequences, fronts and evaluated-point counts.
    """
    import os

    workloads = tuple(workloads)
    chosen_objectives = (
        tuple(objectives) if objectives else DEFAULT_OBJECTIVES
    )
    for objective in chosen_objectives:
        if objective.name not in OBJECTIVE_DIRECTIONS:
            raise StudyError(
                f"unknown objective {objective.name!r}; choose from "
                f"{sorted(OBJECTIVE_DIRECTIONS)}"
            )
    joint_space = space if space is not None else default_joint_space(workloads)
    _validate_space(joint_space)
    spec = StudySpec(
        name=name
        or "-".join(w.name for w in workloads) + f"-{sampler}",
        models=tuple(w.name for w in workloads),
        device=device.name,
        sampler=sampler,
        seed=seed,
        objectives=chosen_objectives,
        space=joint_space,
        batch=batch,
        subgrid_cap=subgrid_cap,
    )
    if path is not None and resume and os.path.exists(path):
        study = Study.load(path, spec)
    elif path is not None:
        study = Study.create(spec, path)
    else:
        study = Study(spec)

    sampler_obj = make_sampler(sampler)
    evaluator = JointEvaluator(
        workloads,
        device,
        resources=resources,
        logic_limit=logic_limit,
        energy_model=energy_model,
        frequency_model=frequency_model,
    )
    seen = {joint_space.key(t.params) for t in study.trials}
    evaluated, last_probed = _replay_evaluated(study)
    telemetry = get_active()
    primary = spec.primary
    objective_names = tuple(o.name for o in chosen_objectives)

    def record(
        params: Mapping[str, float],
        values: Dict[str, float],
        feasible: bool,
        round_index: int,
        origin: str,
    ) -> None:
        ordered = _ordered_params(joint_space, params)
        trial = TrialRecord(
            number=len(study.trials),
            round=round_index,
            origin=origin,
            params=ordered,
            values=values,
            feasible=feasible,
        )
        study.append_trial(trial)
        seen.add(joint_space.key(ordered))
        if telemetry is not None:
            with telemetry.span(
                "dse.trial", number=trial.number, origin=origin
            ):
                pass
            telemetry.registry.counter("dse.study/trials", origin=origin).inc()
            if feasible and primary.name in values:
                telemetry.registry.histogram(
                    "dse.study/primary", buckets=_PRIMARY_BUCKETS
                ).observe(values[primary.name])

    study_span = (
        telemetry.span(
            "dse.study",
            sampler=sampler,
            models=",".join(spec.models),
            seed=seed,
        )
        if telemetry is not None
        else nullcontext()
    )
    with study_span:
        while study.sampled_count() < trials:
            round_index = study.rounds_complete
            rng = np.random.default_rng([seed, round_index])
            want = min(batch, trials - study.sampled_count())
            proposals = sampler_obj.propose(
                joint_space, list(study.trials), primary, rng, want, seen
            )
            if not proposals:
                break  # space exhausted
            round_span = (
                telemetry.span(
                    "dse.round", round=round_index, proposals=len(proposals)
                )
                if telemetry is not None
                else nullcontext()
            )
            with round_span:
                points_before = len(evaluated)
                incumbent = study.best()
                anchor = incumbent.params if incumbent is not None else None
                for members in _round_groups(proposals).values():
                    tuples, use_subgrid = _group_tuples(
                        members, joint_space, subgrid_cap, anchor
                    )
                    evaluated.update(tuples)
                    outer = {
                        axis: members[0][axis] for axis in OUTER_AXES
                    }
                    if use_subgrid:
                        (knl, sec, ncu), _ = _group_axes(
                            members, joint_space, subgrid_cap, anchor
                        )
                        cell = evaluator.evaluate_cell(outer, knl, sec, ncu)
                        for params in members:
                            index = (
                                knl.index(int(params["n_knl"])),
                                sec.index(int(params["s_ec"])),
                                ncu.index(int(params["n_cu"])),
                            )
                            values, feasible = cell.point(
                                *index, objective_names
                            )
                            record(
                                params, values, feasible, round_index,
                                ORIGIN_SAMPLED,
                            )
                        best_index = cell.best_feasible(primary)
                        if best_index is not None:
                            bi, bj, bk = best_index
                            harvest = _ordered_params(
                                joint_space,
                                {
                                    **outer,
                                    "n_knl": knl[bi],
                                    "s_ec": sec[bj],
                                    "n_cu": ncu[bk],
                                },
                            )
                            if joint_space.key(harvest) not in seen:
                                values, feasible = cell.point(
                                    bi, bj, bk, objective_names
                                )
                                record(
                                    harvest, values, feasible, round_index,
                                    ORIGIN_HARVEST,
                                )
                    else:
                        for params in members:
                            cell = evaluator.evaluate_cell(
                                outer,
                                (int(params["n_knl"]),),
                                (int(params["s_ec"]),),
                                (int(params["n_cu"]),),
                            )
                            values, feasible = cell.point(
                                0, 0, 0, objective_names
                            )
                            record(
                                params, values, feasible, round_index,
                                ORIGIN_SAMPLED,
                            )
                # Pattern-search probe: each time the incumbent improves,
                # score its single-step outer-neighbor cells on a small
                # sub-grid around its inner point — TPE rarely flips one
                # outer axis of an already-good cell on its own.
                if incumbent is not None and incumbent.number != last_probed:
                    for cell_key in _outer_neighbor_cells(
                        joint_space, incumbent.params
                    ):
                        member = _probe_member(
                            joint_space, incumbent.params, cell_key
                        )
                        tuples, _ = _group_tuples(
                            [member], joint_space, _probe_cap(subgrid_cap)
                        )
                        evaluated.update(tuples)
                        (knl, sec, ncu), _ = _group_axes(
                            [member], joint_space, _probe_cap(subgrid_cap)
                        )
                        cell = evaluator.evaluate_cell(
                            dict(zip(OUTER_AXES, cell_key)), knl, sec, ncu
                        )
                        best_index = cell.best_feasible(primary)
                        if best_index is None:
                            continue
                        bi, bj, bk = best_index
                        harvest = _ordered_params(
                            joint_space,
                            {
                                **dict(zip(OUTER_AXES, cell_key)),
                                "n_knl": knl[bi],
                                "s_ec": sec[bj],
                                "n_cu": ncu[bk],
                            },
                        )
                        if joint_space.key(harvest) not in seen:
                            values, feasible = cell.point(
                                bi, bj, bk, objective_names
                            )
                            record(
                                harvest, values, feasible, round_index,
                                ORIGIN_HARVEST,
                            )
                    last_probed = incumbent.number
                study.end_round(round_index, len(evaluated))
                if telemetry is not None:
                    telemetry.registry.counter("dse.study/points").inc(
                        len(evaluated) - points_before
                    )
                    telemetry.registry.gauge("dse.study/front_size").set(
                        len(study.front)
                    )
    best = study.best()
    return StudyResult(
        study=study,
        best=best,
        front=study.front.members,
        evaluated_points=len(evaluated),
        space_size=joint_space.size,
        sampled_trials=study.sampled_count(),
    )


@dataclass(frozen=True)
class ExhaustiveResult:
    """Best point of a full joint-space enumeration (the oracle)."""

    params: Dict[str, float]
    values: Dict[str, float]
    evaluated_points: int


def exhaustive_search(
    workloads: Sequence[ModelWorkload],
    device: FPGADevice,
    *,
    space: SearchSpace,
    objectives: Optional[Sequence[Objective]] = None,
    resources: ResourceModel = DEFAULT_RESOURCE_MODEL,
    logic_limit: float = 0.75,
    energy_model: Optional[EnergyModel] = None,
    frequency_model: FrequencyModel = DEFAULT_FREQUENCY_MODEL,
) -> ExhaustiveResult:
    """Enumerate the whole joint space and return the primary-best point.

    One vectorized inner-grid evaluation per outer cell — this is the
    oracle the adaptive benchmarks measure search quality against, and it
    touches every single configuration (``evaluated_points ==
    space.size``).
    """
    _validate_space(space)
    chosen_objectives = tuple(objectives) if objectives else DEFAULT_OBJECTIVES
    primary = chosen_objectives[0]
    objective_names = tuple(o.name for o in chosen_objectives)
    evaluator = JointEvaluator(
        workloads,
        device,
        resources=resources,
        logic_limit=logic_limit,
        energy_model=energy_model,
        frequency_model=frequency_model,
    )
    knl = tuple(int(v) for v in space.values("n_knl"))
    sec = tuple(int(v) for v in space.values("s_ec"))
    ncu = tuple(int(v) for v in space.values("n_cu"))
    best: Optional[Tuple[float, Dict[str, float], Dict[str, float]]] = None
    for n_share in space.values("n_share"):
        for d_f in space.values("d_f"):
            for d_w in space.values("d_w"):
                for freq_mhz in space.values("freq_mhz"):
                    outer = {
                        "n_share": n_share,
                        "d_f": d_f,
                        "d_w": d_w,
                        "freq_mhz": freq_mhz,
                    }
                    cell = evaluator.evaluate_cell(outer, knl, sec, ncu)
                    index = cell.best_feasible(primary)
                    if index is None:
                        continue
                    values, feasible = cell.point(*index, objective_names)
                    if not feasible:
                        continue
                    score = values[primary.name]
                    if best is None or primary.better(score, best[0]):
                        params = _ordered_params(
                            space,
                            {
                                **outer,
                                "n_knl": knl[index[0]],
                                "s_ec": sec[index[1]],
                                "n_cu": ncu[index[2]],
                            },
                        )
                        best = (score, params, values)
    if best is None:
        raise RuntimeError("no feasible point anywhere in the joint space")
    return ExhaustiveResult(
        params=best[1], values=best[2], evaluated_points=space.size
    )
