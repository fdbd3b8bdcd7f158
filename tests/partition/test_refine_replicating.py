"""Tests for refinement with replicate moves enabled (a replication budget)."""

from __future__ import annotations

import random

from repro.machine.config import parse_config, unified_machine
from repro.partition.incremental import EvaluatorStats
from repro.partition.multilevel import MultilevelPartitioner
from repro.partition.partition import Partition
from repro.partition.pseudo import pseudo_schedule
from repro.partition.refine import refine
from repro.workloads.generator import LoopSpec, generate_loop


def _case(seed: int, machine_name: str = "4c1b2l64r"):
    rng = random.Random(seed)
    machine = parse_config(machine_name)
    ddg = generate_loop(LoopSpec(name="refrep"), rng, index=seed).ddg
    assignment = {
        uid: rng.randrange(machine.n_clusters) for uid in ddg.node_ids()
    }
    return ddg, machine, Partition(ddg, assignment, machine.n_clusters)


class TestRefineReplicating:
    def test_without_grants_never_worse(self):
        """The homes-only result is scored replica-aware, so its plain
        key is only guaranteed to improve when no replicas survive."""
        for seed in range(5):
            _, machine, partition = _case(seed)
            refined, grants = refine(partition, machine, 2, replication_budget=8)
            if not grants:
                before = pseudo_schedule(partition, machine, 2)
                after = pseudo_schedule(refined, machine, 2)
                assert after.key <= before.key

    def test_budget_bounds_surviving_replicas(self):
        for budget in (0, 1, 3):
            _, machine, partition = _case(1)
            stats = EvaluatorStats()
            _, grants = refine(
                partition, machine, 2, replication_budget=budget, stats=stats
            )
            surviving = sum(len(clusters) for clusters in grants.values())
            assert surviving <= budget
            assert stats.replicas_surviving == surviving
            assert stats.replicate_accepted <= budget

    def test_zero_budget_matches_plain_refine(self):
        """With no replication budget the replicating entry point runs
        exactly the plain move stream: same counters, same assignment."""
        for seed in range(4):
            ddg, machine, _ = _case(seed)
            plain = MultilevelPartitioner(ddg=ddg, machine=machine)
            replicating = MultilevelPartitioner(ddg=ddg, machine=machine)
            expected = plain.partition(2)
            partition, grants = replicating.partition_replicating(
                2, replication_budget=0
            )
            assert grants == {}
            assert partition.assignment() == expected.assignment()
            counters = replicating.stats.as_counters()
            expected_counters = plain.stats.as_counters()
            del counters["refine_seconds"], expected_counters["refine_seconds"]
            assert counters == expected_counters

    def test_grants_are_frozen_cluster_sets(self):
        _, machine, partition = _case(2)
        _, grants = refine(partition, machine, 2, replication_budget=8)
        for uid, clusters in grants.items():
            assert isinstance(clusters, frozenset)
            assert partition.cluster_of(uid) not in clusters

    def test_counters_split_by_kind(self):
        _, machine, partition = _case(3)
        stats = EvaluatorStats()
        refine(partition, machine, 2, replication_budget=8, stats=stats)
        assert (
            stats.plain_accepted + stats.replicate_accepted
            == stats.moves_accepted
        )
        assert stats.plain_moves >= stats.plain_accepted
        assert stats.replicate_moves >= stats.replicate_accepted


class TestPartitionReplicating:
    def test_unclustered_machine_gets_trivial_partition(self):
        rng = random.Random(9)
        ddg = generate_loop(LoopSpec(name="uni"), rng, index=9).ddg
        machine = unified_machine()
        partitioner = MultilevelPartitioner(ddg=ddg, machine=machine)
        partition, grants = partitioner.partition_replicating(2)
        assert grants == {}
        assert set(partition.assignment().values()) == {0}

    def test_clustered_machine_produces_valid_grants(self):
        rng = random.Random(11)
        ddg = generate_loop(LoopSpec(name="clu"), rng, index=11).ddg
        machine = parse_config("4c1b2l64r")
        partitioner = MultilevelPartitioner(ddg=ddg, machine=machine)
        partition, grants = partitioner.partition_replicating(
            3, replication_budget=4
        )
        assert sum(len(clusters) for clusters in grants.values()) <= 4
        for uid, clusters in grants.items():
            assert partition.cluster_of(uid) not in clusters
            assert all(0 <= c < machine.n_clusters for c in clusters)
