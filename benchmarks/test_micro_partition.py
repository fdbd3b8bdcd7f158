"""Partitioner microbenchmarks: the refinement hot path, layer by layer.

Times the pieces one refinement call is made of on the largest fpppp
loop (93 nodes) on ``4c1b2l64r`` at its MII:

* one boundary scan — every move refinement would try from the initial
  partition — scored read-only with ``MoveEvaluator.trial``, beside the
  same scan done by apply -> score -> undo (the two must agree);
* capacity repair (``_repair_capacity``) of the preliminary partition;
* one bus-penalized critical-path relaxation (``penalized_length``);
* one whole ``partition_replicating`` call on a fresh partitioner
  (coarsening, repair and replicating refinement).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_micro_partition.py \\
        --benchmark-json micro.json
"""

from __future__ import annotations

import pytest

from repro.ddg.analysis import mii
from repro.ddg.csr import csr_view, penalized_length
from repro.machine.config import parse_config
from repro.partition.incremental import MoveEvaluator, ReassignMove
from repro.partition.multilevel import MultilevelPartitioner, _repair_capacity
from repro.workloads.specfp import benchmark_loops

MACHINE = parse_config("4c1b2l64r")


@pytest.fixture(scope="module")
def case():
    """(ddg, II, preliminary partition, repaired partition)."""
    loop = max(benchmark_loops("fpppp"), key=lambda loop: (len(loop.ddg), loop.name))
    ddg = loop.ddg
    ii = mii(ddg, MACHINE)
    initial = MultilevelPartitioner(ddg=ddg, machine=MACHINE).initial(ii)
    return ddg, ii, initial, _repair_capacity(initial, MACHINE, ii)


def _moves(evaluator: MoveEvaluator) -> list[ReassignMove]:
    return list(evaluator.candidate_moves(replicate=False))


def scan_by_trial(evaluator: MoveEvaluator, moves: list[ReassignMove]) -> list:
    return [evaluator.trial(move) for move in moves]


def scan_by_apply_undo(
    evaluator: MoveEvaluator, moves: list[ReassignMove]
) -> list:
    scores = []
    for move in moves:
        applied = evaluator.apply(move.uid, move.dst_cluster)
        scores.append((evaluator.prefix(), evaluator.imbalance()))
        evaluator.undo(applied)
    return scores


@pytest.mark.benchmark(group="boundary-scan")
def test_boundary_scan_by_trial(benchmark, case):
    _, ii, _, repaired = case
    evaluator = MoveEvaluator(repaired, MACHINE, ii)
    moves = _moves(evaluator)
    scores = benchmark(scan_by_trial, evaluator, moves)
    assert moves
    assert scores == scan_by_apply_undo(evaluator, moves)


@pytest.mark.benchmark(group="boundary-scan")
def test_boundary_scan_by_apply_undo(benchmark, case):
    _, ii, _, repaired = case
    evaluator = MoveEvaluator(repaired, MACHINE, ii)
    moves = _moves(evaluator)
    scores = benchmark(scan_by_apply_undo, evaluator, moves)
    assert scores == scan_by_trial(evaluator, moves)


def test_repair_capacity(benchmark, case):
    _, ii, initial, repaired = case
    result = benchmark(_repair_capacity, initial, MACHINE, ii)
    assert result.assignment() == repaired.assignment()


def test_penalized_length(benchmark, case):
    ddg, ii, _, repaired = case
    csr = csr_view(ddg)
    cluster = [repaired.cluster_of(uid) for uid in csr.uids]
    length = benchmark(
        penalized_length, csr, cluster, MACHINE.bus.latency, ii, len(ddg) + 1
    )
    assert length > 0


def test_partition_replicating(benchmark, case):
    ddg, ii, _, _ = case

    def run():
        partitioner = MultilevelPartitioner(ddg=ddg, machine=MACHINE)
        return partitioner.partition_replicating(ii, replication_budget=8)

    partition, grants = benchmark(run)
    assert sum(len(clusters) for clusters in grants.values()) <= 8
    assert set(partition.assignment()) == set(ddg.node_ids())
