"""L3 encoding groups: one pure function every rank evaluates alike.

``nprocs % group_size == 1`` used to deadlock L3: the lone tail rank
put itself into the *last* ``group_size`` ranks under one communicator
name while those ranks sat in their own aligned group, so its
``allgather`` never completed.
"""

from __future__ import annotations

import pytest

from repro.api import run_single
from repro.core.configs import ExperimentConfig
from repro.faults.scenarios import FaultScenario
from repro.fti.api import group_members
from repro.fti.config import FtiConfig


@pytest.mark.parametrize("group_size", range(2, 9))
def test_groups_partition_the_ranks(group_size):
    for nprocs in range(1, 50):
        groups = {rank: group_members(rank, nprocs, group_size)
                  for rank in range(nprocs)}
        for rank, members in groups.items():
            assert rank in members
            # every member names the same group
            assert all(groups[other] == members for other in members)
            assert len(members) <= group_size + 1
            if nprocs >= 2:
                assert len(members) >= 2
        distinct = sorted(set(groups.values()), key=lambda g: g[0])
        assert [r for g in distinct for r in g] == list(range(nprocs))
        # only a lone tail changes the aligned runs
        if nprocs % group_size != 1:
            assert all(g[0] % group_size == 0 and len(g) <= group_size
                       for g in distinct)


def test_lone_tail_joins_the_previous_group():
    assert group_members(8, 9, 4) == range(4, 9)
    assert group_members(5, 9, 4) == range(4, 9)
    assert group_members(3, 9, 4) == range(0, 4)
    assert group_members(4, 5, 4) == range(0, 5)
    assert group_members(9, 10, 4) == range(8, 10)  # a tail of two stays
    assert group_members(0, 1, 4) == range(0, 1)


@pytest.mark.parametrize("nprocs", [5, 9, 13])
@pytest.mark.parametrize("design", ["reinit-fti", "ulfm-fti"])
@pytest.mark.parametrize("node_loss", [False, True])
def test_l3_runs_with_a_lone_tail_rank(nprocs, design, node_loss):
    # one rank per node, so losing a node costs its group one member
    faults = FaultScenario.independent(1, node_count=1) if node_loss \
        else FaultScenario.none()
    result = run_single(ExperimentConfig(
        app="hpccg", design=design, nprocs=nprocs, nnodes=nprocs,
        faults=faults, fti=FtiConfig(level=3)))
    assert result.verified is True


def test_l3_nine_ranks_on_three_nodes():
    """The configuration the deadlock was found with."""
    result = run_single(ExperimentConfig(
        app="hpccg", design="reinit-fti", nprocs=9, nnodes=3,
        inject_fault=False, fti=FtiConfig(level=3)))
    assert result.verified is True
