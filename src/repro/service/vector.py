"""The batch advise core: whole query arrays through the numpy paths.

``advise_batch`` answers N queries in two passes: group the queries by
their MTBF-independent workload signature
(:attr:`~repro.service.query.AdviceQuery.group_key`), then evaluate
each group's :class:`~repro.modeling.vector.CellGrid` against the
group's MTBF vector in one numpy sweep. Per-query Python work is
reduced to materializing the answer objects — no model-protocol calls,
no interval arithmetic, no sorting — which is where the ~100× over the
scalar advisor comes from.

Bit-identity: the component arrays come from
:func:`repro.modeling.vector.evaluate_grid` (exact scalar
reproduction), and the top cell per query is selected by
:func:`~repro.modeling.vector.top_cell_indexes`, which picks the same
cell a stable sort under :func:`repro.modeling.advisor._rank_key`
ranks first. ``advise_batch_ranked`` materializes every cell and runs
that very ``_rank_key`` sort, so full rankings are *identical* lists
to :func:`repro.modeling.advisor.advise` — the equivalence tests pin
``==`` on both.
"""

from __future__ import annotations

import numpy as np

from ..modeling.advisor import Advice, _rank_key
from ..modeling.costs import model_version, resolve_model
from ..modeling.makespan import MakespanPrediction
from ..modeling.vector import (
    CellGrid,
    build_cell_grid,
    evaluate_grid,
    top_cell_indexes,
)


def grid_for_query(query, model="analytic") -> CellGrid:
    """Build the cell grid one query's workload signature needs."""
    return build_cell_grid(
        query.app, query.nprocs, input_size=query.input_size,
        nnodes=query.nnodes, designs=query.designs,
        levels=query.levels, model=model)


def _new_prediction(app, design, nprocs, level, stride, work, ckpt,
                    recovery, rework, failures, total):
    # hot path: bypass the frozen-dataclass __init__ (one guarded
    # object.__setattr__ per field) — same fields, same values
    pred = MakespanPrediction.__new__(MakespanPrediction)
    pred.__dict__.update(
        app=app, design=design, nprocs=nprocs, fti_level=level,
        interval=stride, app_seconds=work, ckpt_write_seconds=ckpt,
        recovery_seconds=recovery, rework_seconds=rework,
        expected_failures=failures, total_seconds=total)
    return pred


def _new_advice(design, level, stride, prediction, calibration):
    row = Advice.__new__(Advice)
    row.__dict__.update(
        design=design, fti_level=level, interval=stride,
        prediction=prediction, calibration=calibration)
    return row


def _dedupe(queries) -> tuple:
    """``(unique_queries, slot_per_input)``: one evaluation slot per
    distinct cache key.

    A production query stream repeats heavily (few workloads, few
    quoted MTBFs), and Advice is frozen — so duplicates can *share*
    the one materialized answer object instead of paying Python object
    construction per duplicate. This is where batch throughput on
    realistic streams comes from; an all-unique batch just pays one
    dict probe per query.
    """
    slot_of: dict = {}
    unique: list = []
    slots: list = []
    for query in queries:
        key = query.cache_key
        slot = slot_of.get(key)
        if slot is None:
            slot = slot_of[key] = len(unique)
            unique.append(query)
        slots.append(slot)
    return unique, slots


def _sweep(queries, model, grids, materialize) -> list:
    """The sweep both batch paths share: dedupe → resolve the model →
    group by workload → cell grid → MTBF vector → one
    :func:`~repro.modeling.vector.evaluate_grid` pass per group.

    ``materialize(grid, predictions, objective, calibration)`` turns one
    evaluated group into its answers, one per row of
    ``predictions`` — the only step in which top-1 and full-ranking
    differ.
    """
    queries, slots = _dedupe(queries)
    model = resolve_model(model)
    calibration = model_version(model)
    groups: dict = {}
    for index, query in enumerate(queries):
        groups.setdefault(query.group_key, []).append(index)
    results: list = [None] * len(queries)
    for group_key, indexes in groups.items():
        first = queries[indexes[0]]
        grid = grids.get(group_key) if grids is not None else None
        if grid is None:
            grid = grid_for_query(first, model=model)
        mtbf = np.fromiter(
            (queries[i].mtbf_seconds for i in indexes),
            dtype=np.float64, count=len(indexes))
        answers = materialize(grid, evaluate_grid(grid, mtbf),
                              first.objective, calibration)
        for query_index, answer in zip(indexes, answers):
            results[query_index] = answer
    return [results[slot] for slot in slots]


def _top_rows(grid, predictions, objective, calibration) -> list:
    """Per query of one group, the first-ranked cell's Advice."""
    top = top_cell_indexes(predictions, objective)
    pick = top[:, None]

    def _take(array):
        return np.take_along_axis(array, pick, axis=1)[:, 0].tolist()

    strides = _take(predictions.stride)
    works = np.take(grid.work_seconds, top).tolist()
    ckpts = _take(predictions.ckpt_total)
    recoveries = _take(predictions.recovery_total)
    reworks = _take(predictions.rework_total)
    failures = _take(predictions.expected_failures)
    totals = _take(predictions.total)
    app, nprocs = grid.app, grid.nprocs
    answers = []
    for j, cell in enumerate(top.tolist()):
        design, level = grid.cell(cell)
        prediction = _new_prediction(
            app, design, nprocs, level, strides[j], works[j],
            ckpts[j], recoveries[j], reworks[j], failures[j],
            totals[j])
        answers.append(_new_advice(
            design, level, strides[j], prediction, calibration))
    return answers


def _ranked_rows(grid, predictions, objective, calibration) -> list:
    """Per query of one group, every cell's Advice sorted with the
    scalar advisor's own rank key."""
    key = _rank_key(objective)
    strides = predictions.stride.tolist()
    ckpts = predictions.ckpt_total.tolist()
    recoveries = predictions.recovery_total.tolist()
    reworks = predictions.rework_total.tolist()
    failures = predictions.expected_failures.tolist()
    totals = predictions.total.tolist()
    works = grid.work_seconds.tolist()
    cells = [grid.cell(c) for c in range(grid.ncells)]
    app, nprocs = grid.app, grid.nprocs
    rankings = []
    for j in range(len(strides)):
        rows = [
            _new_advice(design, level, strides[j][c],
                        _new_prediction(app, design, nprocs, level,
                                        strides[j][c], works[c],
                                        ckpts[j][c], recoveries[j][c],
                                        reworks[j][c], failures[j][c],
                                        totals[j][c]),
                        calibration)
            for c, (design, level) in enumerate(cells)]
        rows.sort(key=key)
        rankings.append(rows)
    return rankings


def advise_batch(queries, model="analytic", grids=None) -> list:
    """Top-ranked :class:`~repro.modeling.advisor.Advice` per query.

    ``queries`` is a sequence of
    :class:`~repro.service.query.AdviceQuery`; the result is parallel
    to it. Each answer is the row a fresh
    :func:`repro.modeling.advisor.advise` call would rank first under
    the query's objective — bit-identical, prediction and all.
    Duplicate queries share one (frozen) answer object.

    ``grids`` optionally maps
    :attr:`~repro.service.query.AdviceQuery.group_key` to a prebuilt
    :class:`~repro.modeling.vector.CellGrid` (the grid cache passes its
    store); missing groups are priced on the fly.
    """
    return _sweep(queries, model, grids, _top_rows)


def advise_batch_ranked(queries, model="analytic", grids=None) -> list:
    """Full ranked advice lists, one per query.

    The vectorized sibling of calling
    :func:`repro.modeling.advisor.advise` per query: every
    (design × level) cell is materialized and sorted with the scalar
    advisor's own rank key, so each returned list compares ``==`` to
    the scalar call's. Duplicate queries share one ranking list. Used
    where the whole ranking is the answer (the ``/advise`` endpoint,
    ``Session.advise_many``, LRU warming); ``advise_batch`` is the
    lighter top-1 path.
    """
    return _sweep(queries, model, grids, _ranked_rows)


__all__ = ["advise_batch", "advise_batch_ranked", "grid_for_query"]
