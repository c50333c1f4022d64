"""Vectorized evaluation of the analytic models: arrays in, arrays out.

The scalar model stack (:mod:`~repro.modeling.costs` →
:mod:`~repro.modeling.interval` → :mod:`~repro.modeling.makespan`)
answers one (design, level, interval, MTBF) cell per call; a serving
layer fronting batches of thousands of queries cannot afford a Python
round-trip per cell. This module re-states the same closed forms over
numpy arrays, evaluating whole (query × cell) grids at once.

**Bit-identity contract.** Every function here reproduces its scalar
counterpart's arithmetic *operation for operation, in the same order* —
IEEE-754 double ops are deterministic, so equal inputs through equal
operation sequences produce equal bits. The equivalence tests
(``tests/service/test_vector.py``, ``tests/modeling/test_vector.py``)
pin exact ``==`` equality against the scalar path over the full
app × design × level grid; any edit here or in the scalar modules must
keep the two in lockstep or those tests fail.

The split of labour mirrors the scalar advisor: per-*cell* constants
(iteration time, checkpoint write/read cost, repair cost — functions of
the app, design, level and scale, but not of the MTBF) are priced once
through the scalar model protocol into a :class:`CellGrid`; the
per-*query* work (Daly interval, stride, expected failures, makespan
composition) is pure numpy over that grid. Cost models remain ordinary
scalar Python objects — plugins need no numpy awareness.

One caveat for custom models: the scalar path prices the recovery read
with the cell's *resolved* stride in its
:class:`~repro.fti.config.FtiConfig`, while the grid prices it once per
(design, level). The built-in ``analytic`` and calibrated models read
the level only, so the two agree bit-for-bit; a custom model whose
``ckpt_read_seconds`` depends on ``ckpt_stride`` should use the scalar
advisor instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import resolve_model
from ..apps import APP_REGISTRY
from ..core.configs import DESIGN_NAMES, NNODES
from ..errors import ConfigurationError
from ..fti.config import VALID_LEVELS, FtiConfig


def _as_float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _check_cm_arrays(ckpt: np.ndarray, mtbf: np.ndarray) -> None:
    # mirrors interval._check_cm; ~(x > 0) also catches NaN
    if np.any(ckpt < 0):
        raise ConfigurationError("checkpoint cost must be >= 0")
    if np.any(~(mtbf > 0)):
        raise ConfigurationError("MTBF must be positive")


def young_interval_array(ckpt_seconds, mtbf_seconds) -> np.ndarray:
    """Elementwise :func:`~repro.modeling.interval.young_interval` over
    broadcastable arrays (bit-identical)."""
    ckpt = _as_float_array(ckpt_seconds)
    mtbf = _as_float_array(mtbf_seconds)
    _check_cm_arrays(ckpt, mtbf)
    with np.errstate(invalid="ignore", over="ignore"):
        tau = np.sqrt(2.0 * ckpt * mtbf)
        return np.where(np.isinf(mtbf), np.inf, tau)


def daly_interval_array(ckpt_seconds, mtbf_seconds) -> np.ndarray:
    """Elementwise :func:`~repro.modeling.interval.daly_interval` over
    broadcastable arrays (bit-identical, including the thrash cap and
    the infinite-MTBF short-circuit)."""
    ckpt = _as_float_array(ckpt_seconds)
    mtbf = _as_float_array(mtbf_seconds)
    _check_cm_arrays(ckpt, mtbf)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        # the exact scalar expression: sqrt((2.0*C)*M) * (1.0 +
        # sqrt(C/(2.0*M))/3.0 + (C/(2.0*M))/9.0) - C
        ratio = ckpt / (2.0 * mtbf)
        tau = (np.sqrt(2.0 * ckpt * mtbf)
               * (1.0 + np.sqrt(ratio) / 3.0 + ratio / 9.0)
               - ckpt)
        tau = np.where(ckpt >= 2.0 * mtbf, mtbf, tau)
        return np.where(np.isinf(mtbf), np.inf, tau)


_INTERVAL_ORDERS = {"young": young_interval_array,
                    "daly": daly_interval_array}


def optimal_stride_array(ckpt_seconds, mtbf_seconds, iter_seconds,
                         niters: int, order: str = "daly") -> np.ndarray:
    """Elementwise :func:`~repro.modeling.interval.optimal_stride`:
    the integer iteration stride, clamped to ``[1, niters]``."""
    if niters < 2:
        raise ConfigurationError("need at least two iterations")
    iter_arr = _as_float_array(iter_seconds)
    if np.any(iter_arr <= 0):
        raise ConfigurationError("iteration time must be positive")
    try:
        interval = _INTERVAL_ORDERS[order]
    except KeyError:
        raise ConfigurationError(
            "interval order must be 'young' or 'daly' (got %r)"
            % (order,)) from None
    tau = interval(ckpt_seconds, mtbf_seconds)
    with np.errstate(invalid="ignore"):
        # round-half-even == Python round(); an infinite tau survives
        # rint and is clamped to niters, exactly the scalar
        # short-circuit
        stride = np.rint(tau / iter_arr)
    stride = np.minimum(float(niters), stride)
    stride = np.maximum(1.0, stride)
    return stride.astype(np.int64)


@dataclass(frozen=True, eq=False)
class CellGrid:
    """Scalar-priced constants for every (design × level) cell of one
    workload — the MTBF-independent half of an advisor query.

    Built once per (app, nprocs, input, nnodes, designs, levels, model)
    signature (the grid cache memoizes exactly this), then shared by
    every query against that workload. Cell order is the scalar
    advisor's: designs outer, levels inner.
    """

    app: str
    nprocs: int
    input_size: str
    nnodes: int
    niters: int
    designs: tuple
    levels: tuple
    #: per-cell arrays, all shaped (len(designs) * len(levels),)
    iter_seconds: np.ndarray
    ckpt_seconds: np.ndarray
    read_seconds: np.ndarray
    repair_seconds: np.ndarray
    work_seconds: np.ndarray

    @property
    def ncells(self) -> int:
        return len(self.designs) * len(self.levels)

    def cell(self, index: int) -> tuple:
        """The (design, level) pair at a flat cell index."""
        return (self.designs[index // len(self.levels)],
                self.levels[index % len(self.levels)])


def build_cell_grid(app: str, nprocs: int, *, input_size: str = "small",
                    nnodes: int = NNODES, designs=DESIGN_NAMES,
                    levels=VALID_LEVELS, model="analytic") -> CellGrid:
    """Price one workload's (design × level) grid through the scalar
    model — the same calls, in the same order, as
    :func:`repro.modeling.advisor.advise` makes per query."""
    model = resolve_model(model)
    designs = tuple(designs)
    levels = tuple(int(level) for level in levels)
    if not designs or not levels:
        raise ConfigurationError("advice grid needs designs and levels")
    app_obj = APP_REGISTRY.resolve(app).from_input(nprocs, input_size)
    nbytes = app_obj.nominal_ckpt_bytes()
    iter_list, ckpt_list, read_list, repair_list, work_list = \
        [], [], [], [], []
    for design in designs:
        iter_seconds = model.iteration_seconds(app_obj, design, nprocs,
                                               nnodes)
        repair = model.recovery_seconds(design, nprocs, nnodes)
        for level in levels:
            fti = FtiConfig(level=level)
            iter_list.append(iter_seconds)
            ckpt_list.append(model.ckpt_write_seconds(
                fti, nbytes, nprocs, nnodes, design=design))
            read_list.append(model.ckpt_read_seconds(
                fti, nbytes, nprocs, nnodes, design=design))
            repair_list.append(repair)
            # predict_cell's W: Python int * float, computed here so the
            # array holds the scalar path's exact product
            work_list.append(app_obj.niters * iter_seconds)
    return CellGrid(
        app=app_obj.name, nprocs=nprocs, input_size=input_size,
        nnodes=nnodes, niters=app_obj.niters, designs=designs,
        levels=levels,
        iter_seconds=np.array(iter_list, dtype=np.float64),
        ckpt_seconds=np.array(ckpt_list, dtype=np.float64),
        read_seconds=np.array(read_list, dtype=np.float64),
        repair_seconds=np.array(repair_list, dtype=np.float64),
        work_seconds=np.array(work_list, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class GridPredictions:
    """Every (query × cell) prediction component, as ``(Q, ncells)``
    arrays — the vectorized image of ``ncells`` scalar
    :class:`~repro.modeling.makespan.MakespanPrediction` calls per
    query."""

    grid: CellGrid
    stride: np.ndarray
    n_ckpt: np.ndarray
    expected_failures: np.ndarray
    ckpt_total: np.ndarray
    recovery_total: np.ndarray
    rework_total: np.ndarray
    total: np.ndarray
    efficiency: np.ndarray


def _compose_makespan(niters, stride, iter_seconds, work, ckpt, read,
                      repair, expected_failures) -> tuple:
    """E[T] = W + n·C + N_f·(R + rework), the composition of
    :func:`repro.modeling.makespan.predict_cell` over broadcastable
    arrays: ``(n_ckpt, ckpt_total, recovery_total, rework_total,
    total)``, operation for operation in the scalar order.

    ``stride`` must already be clamped to ``<= niters`` (both callers
    do), so the scalar ``0.5 * min(stride, niters)`` is ``0.5 *
    stride``, an exact float product. ``read``/``repair`` are zero
    where no failure is expected.
    """
    n_ckpt = (niters - 1) // stride
    lost_iters = 0.5 * stride
    rework_per_failure = lost_iters * iter_seconds + read
    recovery_total = expected_failures * repair
    rework_total = expected_failures * rework_per_failure
    ckpt_total = n_ckpt * ckpt
    total = work + ckpt_total + recovery_total + rework_total
    return n_ckpt, ckpt_total, recovery_total, rework_total, total


def evaluate_grid(grid: CellGrid, mtbf_seconds) -> GridPredictions:
    """Evaluate a workload grid against a vector of query MTBFs.

    Per (query, cell): the Daly-optimal stride for the cell's own
    checkpoint cost, then the expected-makespan composition of
    :func:`repro.modeling.makespan.predict_cell` — bit-identical to the
    scalar advisor's pricing of the same cell.
    """
    mtbf = _as_float_array(mtbf_seconds).reshape(-1, 1)       # (Q, 1)
    if np.any(~(mtbf > 0)):
        raise ConfigurationError("MTBF must be positive")
    stride = optimal_stride_array(grid.ckpt_seconds, mtbf,
                                  grid.iter_seconds, grid.niters)
    # work / inf == +0.0, the scalar path's explicit zero
    expected_failures = grid.work_seconds / mtbf
    failing = expected_failures > 0.0
    n_ckpt, ckpt_total, recovery_total, rework_total, total = \
        _compose_makespan(
            grid.niters, stride, grid.iter_seconds, grid.work_seconds,
            grid.ckpt_seconds, np.where(failing, grid.read_seconds, 0.0),
            np.where(failing, grid.repair_seconds, 0.0),
            expected_failures)
    with np.errstate(invalid="ignore"):
        efficiency = grid.work_seconds / total
    return GridPredictions(
        grid=grid, stride=stride, n_ckpt=n_ckpt,
        expected_failures=expected_failures, ckpt_total=ckpt_total,
        recovery_total=recovery_total, rework_total=rework_total,
        total=total, efficiency=efficiency)


def top_cell_indexes(predictions: GridPredictions,
                     objective: str = "makespan") -> np.ndarray:
    """Per query, the flat cell index the scalar advisor would rank
    first — the first occurrence of the minimal sort key, matching the
    stable ``list.sort`` over :func:`~repro.modeling.advisor._rank_key`.
    """
    if objective == "makespan":
        return np.argmin(predictions.total, axis=1)
    if objective == "efficiency":
        return np.argmin(-predictions.efficiency, axis=1)
    if objective == "recovery":
        # lexicographic (recovery, makespan): among the cells tied on
        # minimal recovery seconds, the first with minimal makespan
        recovery = predictions.recovery_total
        least = recovery.min(axis=1, keepdims=True)
        tied_totals = np.where(recovery == least, predictions.total,
                               np.inf)
        return np.argmin(tied_totals, axis=1)
    raise ConfigurationError(
        "unknown objective %r (have ('makespan', 'efficiency', "
        "'recovery'))" % (objective,))


def predict_configs(configs, model="analytic") -> list:
    """Vectorized ``[predict(c) for c in configs]`` — bit-identical.

    Model pricing (the Python-protocol calls) is memoized across the
    batch: a campaign matrix re-uses each distinct (app, design, scale)
    iteration price and each distinct checkpoint spec price instead of
    re-deriving them per cell, and the makespan composition runs once
    over numpy arrays. Backs :meth:`repro.api.Campaign.predict_many`.
    """
    from .makespan import MakespanPrediction

    configs = list(configs)
    if not configs:
        return []
    model = resolve_model(model)
    iter_memo, ckpt_memo, read_memo, repair_memo = {}, {}, {}, {}
    names, levels, iter_list, work_list, ckpt_list = [], [], [], [], []
    read_list, repair_list, stride_list, niters_list, ef_list = \
        [], [], [], [], []
    for config in configs:
        app_obj = config.make_app()
        niters = app_obj.niters
        stride = min(config.fti.ckpt_stride, niters)
        if not 1 <= stride:
            raise ConfigurationError(
                "stride must be >= 1 for %s (got %r)"
                % (config.app, stride))
        iter_key = (config.app, config.input_size, config.nprocs,
                    config.nnodes, config.design)
        iter_seconds = iter_memo.get(iter_key)
        if iter_seconds is None:
            iter_seconds = model.iteration_seconds(
                app_obj, config.design, config.nprocs, config.nnodes)
            iter_memo[iter_key] = iter_seconds
        fti = FtiConfig(level=config.fti.level, ckpt_stride=stride)
        nbytes = app_obj.nominal_ckpt_bytes()
        cost_key = (fti, nbytes, config.nprocs, config.nnodes,
                    config.design)
        ckpt_cost = ckpt_memo.get(cost_key)
        if ckpt_cost is None:
            ckpt_cost = model.ckpt_write_seconds(
                fti, nbytes, config.nprocs, config.nnodes,
                design=config.design)
            ckpt_memo[cost_key] = ckpt_cost
        expected = config.faults.expected_events(niters) \
            if config.inject_fault else 0.0
        if expected < 0:
            raise ConfigurationError("expected failures must be >= 0")
        read = repair = 0.0
        if expected > 0:
            read = read_memo.get(cost_key)
            if read is None:
                read = model.ckpt_read_seconds(
                    fti, nbytes, config.nprocs, config.nnodes,
                    design=config.design)
                read_memo[cost_key] = read
            repair_key = (config.design, config.nprocs, config.nnodes)
            repair = repair_memo.get(repair_key)
            if repair is None:
                repair = model.recovery_seconds(
                    config.design, config.nprocs, config.nnodes)
                repair_memo[repair_key] = repair
        names.append(app_obj.name)
        levels.append(config.fti.level)
        iter_list.append(iter_seconds)
        work_list.append(niters * iter_seconds)
        ckpt_list.append(ckpt_cost)
        read_list.append(read)
        repair_list.append(repair)
        stride_list.append(stride)
        niters_list.append(niters)
        ef_list.append(expected)
    iter_arr = np.array(iter_list, dtype=np.float64)
    work = np.array(work_list, dtype=np.float64)
    ckpt = np.array(ckpt_list, dtype=np.float64)
    read = np.array(read_list, dtype=np.float64)
    repair = np.array(repair_list, dtype=np.float64)
    stride = np.array(stride_list, dtype=np.int64)
    niters = np.array(niters_list, dtype=np.int64)
    expected_failures = np.array(ef_list, dtype=np.float64)
    _, ckpt_total, recovery_total, rework_total, total = \
        _compose_makespan(niters, stride, iter_arr, work, ckpt, read,
                          repair, expected_failures)
    rows = zip(configs, names, levels, stride.tolist(), work.tolist(),
               ckpt_total.tolist(), recovery_total.tolist(),
               rework_total.tolist(), expected_failures.tolist(),
               total.tolist())
    return [
        (config, MakespanPrediction(
            app=name, design=config.design, nprocs=config.nprocs,
            fti_level=level, interval=cell_stride, app_seconds=app_s,
            ckpt_write_seconds=ckpt_s, recovery_seconds=recovery_s,
            rework_seconds=rework_s, expected_failures=failures,
            total_seconds=total_s))
        for config, name, level, cell_stride, app_s, ckpt_s, recovery_s,
        rework_s, failures, total_s in rows]


__all__ = [
    "CellGrid",
    "GridPredictions",
    "build_cell_grid",
    "daly_interval_array",
    "evaluate_grid",
    "optimal_stride_array",
    "predict_configs",
    "top_cell_indexes",
    "young_interval_array",
]
