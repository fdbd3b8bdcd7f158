"""Capacity repair: the hard per-cluster constraints of section 2.3.1."""

import random

import pytest

from repro.ddg.builder import DdgBuilder
from repro.ddg.graph import Ddg
from repro.machine.config import MachineConfig, heterogeneous_machine, parse_config
from repro.machine.resources import FuKind
from repro.partition.multilevel import MultilevelPartitioner, _repair_capacity
from repro.partition.partition import Partition
from repro.workloads.generator import LoopSpec, generate_loop


@pytest.fixture
def m2():
    return parse_config("2c1b2l64r")


def lopsided_partition(n_int, cluster=0, n_clusters=2):
    b = DdgBuilder()
    for i in range(n_int):
        b.int_op(f"p{i}")
    g = b.build()
    return Partition(g, {u: cluster for u in g.node_ids()}, n_clusters)


class TestFuRepair:
    def test_overflow_redistributed(self, m2):
        # 6 INT ops in one cluster (2 units): at II=2 capacity is 4.
        part = lopsided_partition(6)
        repaired = _repair_capacity(part, m2, ii=2)
        assert repaired.fits_resources(m2, 2)

    def test_already_feasible_untouched(self, m2):
        part = lopsided_partition(3)
        repaired = _repair_capacity(part, m2, ii=2)
        assert repaired.assignment() == part.assignment()

    def test_machine_wide_saturation_best_effort(self, m2):
        # 10 INT ops on 4 total units at II=2: capacity 8 machine-wide.
        part = lopsided_partition(10)
        repaired = _repair_capacity(part, m2, ii=2)
        # Cannot fit; repair still balances as far as capacity allows.
        table = repaired.load_table()
        assert table[1][FuKind.INT] >= 4

    def test_least_attached_nodes_move_first(self, m2):
        """A node glued to its cluster stays; a loner moves."""
        b = DdgBuilder()
        for i in range(5):
            b.int_op(f"p{i}")
        # p0..p3 form a clique-ish chain; p4 is isolated.
        b.chain("p0", "p1", "p2", "p3")
        g = b.build()
        part = Partition(g, {u: 0 for u in g.node_ids()}, 2)
        repaired = _repair_capacity(part, m2, ii=2)
        assert repaired.cluster_of(g.node_by_name("p4").uid) == 1

    def test_memory_edges_count_as_attachment(self, m2):
        """Attachment counts every edge kind: memory-linked loads stay
        together and the unlinked one moves, though it has the highest
        uid."""
        b = DdgBuilder()
        for i in range(5):
            b.load(f"l{i}")
        for i in range(3):
            b.mem_dep(f"l{i}", f"l{i + 1}")
        g = b.build()
        part = Partition(g, {u: 0 for u in g.node_ids()}, 2)
        repaired = _repair_capacity(part, m2, ii=2)
        moved = [u for u in g.node_ids() if repaired.cluster_of(u) == 1]
        assert moved == [g.node_by_name("l4").uid]

    def test_heterogeneous_capacities_respected(self):
        machine = heterogeneous_machine(
            cluster_fus=[
                {FuKind.INT: 3, FuKind.FP: 1, FuKind.MEM: 1},
                {FuKind.INT: 1, FuKind.FP: 1, FuKind.MEM: 1},
            ],
            bus_count=1,
            bus_latency=2,
        )
        part = lopsided_partition(7, cluster=1)
        repaired = _repair_capacity(part, machine, ii=2)
        assert repaired.fits_resources(machine, 2)


class TestRegisterFloorRepair:
    def test_producer_overflow_redistributed(self):
        machine = parse_config("2c1b2l4r")  # 4 registers per cluster
        part = lopsided_partition(6)  # 6 producers > 4 registers
        repaired = _repair_capacity(part, machine, ii=8)
        counts = [0, 0]
        for uid, cluster in repaired.assignment().items():
            counts[cluster] += 1
        assert max(counts) <= 4

    def test_partitioner_integrates_repair(self):
        machine = parse_config("2c1b2l4r")
        b = DdgBuilder()
        for i in range(6):
            b.int_op(f"p{i}")
        g = b.build()
        partitioner = MultilevelPartitioner(ddg=g, machine=machine)
        part = partitioner.partition(ii=8)
        counts = [len(part.nodes_in(c)) for c in range(2)]
        assert max(counts) <= 4


# ----------------------------------------------------------------------
# Oracle: the int-table repair against the dict-based original
# ----------------------------------------------------------------------


def _attachment(ddg: Ddg, partition: Partition, uid: int, cluster: int) -> int:
    """Edges (of any kind) joining ``uid`` to other nodes in ``cluster``."""
    count = 0
    for edge in ddg.out_edges(uid):
        if partition.cluster_of(edge.dst) == cluster and edge.dst != uid:
            count += 1
    for edge in ddg.in_edges(uid):
        if partition.cluster_of(edge.src) == cluster and edge.src != uid:
            count += 1
    return count


def _producer_counts(partition: Partition) -> list[int]:
    """Value-producing nodes per cluster (stores produce no value)."""
    counts = [0] * partition.n_clusters
    for uid, cluster in partition.assignment().items():
        if not partition.ddg.node(uid).is_store:
            counts[cluster] += 1
    return counts


def reference_repair_capacity(
    partition: Partition, machine: MachineConfig, ii: int
) -> Partition:
    """Capacity repair over Enum-keyed load tables and partition copies.

    The straightforward form of the rule ``_repair_capacity`` implements
    on int tables: fix the first overflowing (cluster, kind), else the
    first register-file overflow, by moving the least-attached eligible
    node to the cluster with the most spare capacity.
    """
    ddg = partition.ddg

    def fu_overflow() -> tuple[int, FuKind] | None:
        for cluster, loads in enumerate(partition.load_table()):
            for kind, count in loads.items():
                if count > machine.fu_count(cluster, kind) * ii:
                    return cluster, kind
        return None

    def register_overflow() -> int | None:
        for cluster, producers in enumerate(_producer_counts(partition)):
            if producers > machine.registers(cluster):
                return cluster
        return None

    def move_from(cluster: int, kind: FuKind | None, spare_of) -> Partition | None:
        spare, target = max(
            (spare_of(c), -c) for c in machine.cluster_ids() if c != cluster
        )
        target = -target
        if spare <= 0:
            return None
        movers = [
            uid
            for uid in partition.nodes_in(cluster)
            if (kind is None and not ddg.node(uid).is_store)
            or ddg.node(uid).fu_kind is kind
        ]
        if not movers:
            return None
        best = min(
            movers,
            key=lambda uid: (_attachment(ddg, partition, uid, cluster), uid),
        )
        return partition.with_move(best, target)

    for _ in range(2 * len(ddg)):
        overflow = fu_overflow()
        if overflow is not None:
            cluster, kind = overflow
            table = partition.load_table()
            moved = move_from(
                cluster,
                kind,
                lambda c: machine.fu_count(c, kind) * ii - table[c][kind],
            )
            if moved is None:
                return partition
            partition = moved
            continue
        reg_cluster = register_overflow()
        if reg_cluster is None:
            return partition
        producers = _producer_counts(partition)
        moved = move_from(
            reg_cluster, None, lambda c: machine.registers(c) - producers[c]
        )
        if moved is None:
            return partition
        partition = moved
    return partition


#: Machines for the oracle. ``ClusterConfig`` rejects a zero-unit kind
#: (every cluster executes every kind in this ISA model), so the
#: heterogeneous machine is as lopsided as the model allows; the
#: 16-register machine drives the register-floor branch.
ORACLE_MACHINES = {
    "2c1b2l64r": parse_config("2c1b2l64r"),
    "4c1b2l64r": parse_config("4c1b2l64r"),
    "heterogeneous": heterogeneous_machine(
        cluster_fus=[
            {FuKind.INT: 3, FuKind.FP: 1, FuKind.MEM: 2},
            {FuKind.INT: 1, FuKind.FP: 3, FuKind.MEM: 1},
            {FuKind.INT: 1, FuKind.FP: 1, FuKind.MEM: 1},
        ],
        bus_count=1,
        bus_latency=2,
        registers=[16, 8, 12],
    ),
    "2c1b2l16r": parse_config("2c1b2l16r"),
}


@pytest.mark.parametrize("machine_name", sorted(ORACLE_MACHINES))
@pytest.mark.parametrize("ii", [1, 2, 3, 4])
def test_int_repair_matches_the_dict_reference(machine_name, ii):
    """Same moves, same order: the returned assignments agree item for
    item on generated loops under random starting assignments, half of
    each piled onto one cluster so that repair has work to do."""
    machine = ORACLE_MACHINES[machine_name]
    for seed in range(8):
        rng = random.Random(100 * ii + seed)
        ddg = generate_loop(LoopSpec(name="repair"), rng, index=seed).ddg
        heavy = rng.randrange(machine.n_clusters)
        assignment = {
            uid: heavy if rng.random() < 0.5 else rng.randrange(machine.n_clusters)
            for uid in ddg.node_ids()
        }
        partition = Partition(ddg, assignment, machine.n_clusters)
        expected = reference_repair_capacity(partition, machine, ii)
        repaired = _repair_capacity(partition, machine, ii)
        assert list(repaired.assignment().items()) == list(
            expected.assignment().items()
        )
