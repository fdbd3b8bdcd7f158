"""Partition refinement by node moves."""

import pytest

from repro.ddg.builder import DdgBuilder
from repro.machine.config import parse_config
from repro.partition.partition import Partition
from repro.partition.pseudo import pseudo_schedule
from repro.partition.refine import refine


@pytest.fixture
def m2():
    return parse_config("2c1b2l64r")


def split(ddg, mapping, n=2):
    return Partition(
        ddg, {ddg.node_by_name(k).uid: v for k, v in mapping.items()}, n
    )


@pytest.fixture
def two_chains():
    b = DdgBuilder()
    for s in range(2):
        for i in range(3):
            b.int_op(f"c{s}_{i}")
        b.chain(f"c{s}_0", f"c{s}_1", f"c{s}_2")
    return b.build()


class TestRefine:
    def test_heals_a_single_stray_node(self, two_chains, m2):
        stray = split(
            two_chains,
            {"c0_0": 0, "c0_1": 1, "c0_2": 0, "c1_0": 1, "c1_1": 1, "c1_2": 1},
        )
        refined, _ = refine(stray, m2, ii=3)
        assert refined.nof_coms() == 0

    def test_never_worsens_the_metric(self, two_chains, m2):
        start = split(
            two_chains,
            {"c0_0": 0, "c0_1": 1, "c0_2": 0, "c1_0": 1, "c1_1": 0, "c1_2": 1},
        )
        refined, _ = refine(start, m2, ii=3)
        assert (
            pseudo_schedule(refined, m2, 3).key
            <= pseudo_schedule(start, m2, 3).key
        )

    def test_input_partition_not_mutated(self, two_chains, m2):
        start = split(
            two_chains,
            {"c0_0": 0, "c0_1": 1, "c0_2": 0, "c1_0": 1, "c1_1": 1, "c1_2": 1},
        )
        before = start.assignment()
        refine(start, m2, ii=3)
        assert start.assignment() == before

    def test_local_optimum_is_stable(self, two_chains, m2):
        clean = split(
            two_chains,
            {"c0_0": 0, "c0_1": 0, "c0_2": 0, "c1_0": 1, "c1_1": 1, "c1_2": 1},
        )
        refined, _ = refine(clean, m2, ii=3)
        assert refined.assignment() == clean.assignment()

    def test_move_budget_bounds_work(self, two_chains, m2):
        start = split(
            two_chains,
            {"c0_0": 0, "c0_1": 1, "c0_2": 0, "c1_0": 1, "c1_1": 0, "c1_2": 1},
        )
        refined, _ = refine(start, m2, ii=3, move_budget=0)
        assert refined.assignment() == start.assignment()
