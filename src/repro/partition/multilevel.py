"""The multilevel partitioner driver.

Combines edge weighting, coarsening and refinement into the partitioning
step of Figure 2: coarsen the DDG down to one macro-node per cluster,
assign macro-nodes to clusters balancing per-kind load, then refine at
the candidate II. The coarsening hierarchy is exposed for the macro-node
replication study (section 5.2).
"""

from __future__ import annotations

import dataclasses

from repro.ddg.analysis import analyze, rec_mii
from repro.ddg.csr import FU_KINDS, csr_view
from repro.ddg.graph import Ddg
from repro.machine.config import MachineConfig
from repro.machine.resources import FuKind
from repro.obs.spans import span as obs_span
from repro.partition.coarsen import CoarseLevel, coarsen
from repro.partition.incremental import EvaluatorStats
from repro.partition.partition import Partition
from repro.partition.refine import refine
from repro.partition.weights import edge_weights


def _assign_macro_nodes(
    ddg: Ddg, level: CoarseLevel, machine: MachineConfig
) -> dict[int, int]:
    """Place each macro-node on the cluster minimizing peak kind-load.

    Macro-nodes are placed largest first (greedy bin packing); ties go
    to the lowest cluster id for determinism.
    """
    loads = [
        {kind: 0 for kind in FuKind} for _ in range(machine.n_clusters)
    ]
    assignment: dict[int, int] = {}
    macro_order = sorted(
        level.macro_nodes.values(), key=lambda m: (-m.size, m.uid)
    )
    for macro in macro_order:
        demand = {kind: 0 for kind in FuKind}
        for uid in macro.members:
            demand[ddg.node(uid).fu_kind] += 1

        def overflow(cluster: int) -> tuple[float, int]:
            worst = 0.0
            for kind in FuKind:
                units = machine.fu_count(cluster, kind)
                worst = max(worst, (loads[cluster][kind] + demand[kind]) / units)
            return (worst, cluster)

        target = min(machine.cluster_ids(), key=overflow)
        for uid in macro.members:
            assignment[uid] = target
        for kind in FuKind:
            loads[target][kind] += demand[kind]
    return assignment


def _repair_capacity(
    partition: Partition, machine: MachineConfig, ii: int
) -> Partition:
    """Move nodes until hard per-cluster constraints hold.

    Two constraints are enforced: every (cluster, kind) load must fit
    ``units * II`` issue slots, and the number of value producers per
    cluster must not exceed its register file — beyond that floor no II
    increase can ever make MaxLive fit (each live value costs at least
    one register), so the partition itself must redistribute.

    Each step fixes the first overflowing (cluster, kind), kinds in
    ``FU_KINDS`` order, before any register overflow: the offending
    cluster's least-attached eligible node (fewest edges to nodes in
    its cluster, ties to the lower uid) moves to the cluster with the
    most spare capacity (ties to the lower cluster id). Runs on dense
    int tables over the graph's :class:`~repro.ddg.csr.CsrView`,
    updated once per move.

    Best effort: when the whole machine is saturated the overflow is
    unavoidable and the loop exits (the driver will raise the II or
    give up).
    """
    ddg = partition.ddg
    csr = csr_view(ddg)
    fu_ord, is_store, uids = csr.fu_ord, csr.is_store, csr.uids
    clusters = machine.cluster_ids()
    capacity = [[machine.fu_count(c, kind) * ii for kind in FU_KINDS] for c in clusters]
    registers = [machine.registers(c) for c in clusters]
    cluster = [partition.cluster_of(uid) for uid in uids]
    load = [[0] * len(FU_KINDS) for _ in clusters]
    producers = [0] * len(clusters)
    for position, home in enumerate(cluster):
        load[home][fu_ord[position]] += 1
        if not is_store[position]:
            producers[home] += 1

    # Every edge's other endpoint, per node, self loops excluded: a
    # node's attachment to a cluster is how many of these sit there.
    neighbours: list[list[int]] = [[] for _ in uids]
    for src, dst in zip(csr.edge_src, csr.edge_dst):
        if src != dst:
            neighbours[src].append(dst)
            neighbours[dst].append(src)

    moved = False
    for _ in range(2 * len(ddg)):
        overflow = next(
            (
                (c, kind)
                for c in clusters
                for kind in range(len(FU_KINDS))
                if load[c][kind] > capacity[c][kind]
            ),
            None,
        )
        if overflow is not None:
            source, kind = overflow
            spare = [capacity[c][kind] - load[c][kind] for c in clusters]
            movers = [
                p
                for p, home in enumerate(cluster)
                if home == source and fu_ord[p] == kind
            ]
        else:
            source = next(
                (c for c in clusters if producers[c] > registers[c]), None
            )
            if source is None:
                break
            spare = [registers[c] - producers[c] for c in clusters]
            movers = [
                p
                for p, home in enumerate(cluster)
                if home == source and not is_store[p]
            ]
        best_spare, target = max((spare[c], -c) for c in clusters if c != source)
        if best_spare <= 0 or not movers:
            break
        mover = min(
            movers,
            key=lambda p: (
                sum(1 for q in neighbours[p] if cluster[q] == source),
                uids[p],
            ),
        )
        target = -target
        cluster[mover] = target
        load[source][fu_ord[mover]] -= 1
        load[target][fu_ord[mover]] += 1
        if not is_store[mover]:
            producers[source] -= 1
            producers[target] += 1
        moved = True

    if not moved:
        return partition
    index = csr.index
    return Partition(
        ddg,
        {uid: cluster[index[uid]] for uid in partition.assignment()},
        partition.n_clusters,
    )


@dataclasses.dataclass
class MultilevelPartitioner:
    """Stateful partitioner for one loop on one machine.

    Keeps everything that does not depend on the II — the coarsening
    hierarchy, the macro-node assignment and the length memo — so
    repeated refinement calls (on II bumps) and the section 5.2
    experiments reuse it. A partitioner lives for one compile, so its
    memo dies with the job.

    Attributes:
        ddg: the loop being partitioned.
        machine: the target machine.
        levels: coarsening hierarchy, finest level first.
        stats: evaluator effort counters accumulated over every
            refinement this partitioner runs (all II bumps included);
            the pipeline copies them into the compile diagnostics.
        macro_assignment: the preliminary node -> cluster map from the
            coarsest level, computed with ``levels``.
        length_memo: the (II estimate, assignment[, replicas]) ->
            penalized length memo shared by every refinement call.
    """

    ddg: Ddg
    machine: MachineConfig
    levels: list[CoarseLevel] = dataclasses.field(default_factory=list)
    stats: EvaluatorStats = dataclasses.field(default_factory=EvaluatorStats)
    macro_assignment: dict[int, int] = dataclasses.field(default_factory=dict)
    length_memo: dict[tuple, int] = dataclasses.field(
        default_factory=dict, repr=False
    )

    def initial(self, ii: int) -> Partition:
        """Coarsen (cached) and produce the preliminary partition."""
        if not self.levels:
            with obs_span("partition.coarsen", nodes=len(self.ddg)) as sp:
                analysis_ii = max(ii, rec_mii(self.ddg))
                analysis = analyze(self.ddg, analysis_ii)
                weights = edge_weights(self.ddg, analysis, self.machine.bus.latency)
                self.levels = coarsen(self.ddg, weights, self.machine.n_clusters)
                sp.set(levels=len(self.levels))
            self.macro_assignment = _assign_macro_nodes(
                self.ddg, self.levels[-1], self.machine
            )
        return Partition(self.ddg, self.macro_assignment, self.machine.n_clusters)

    def partition(self, ii: int, move_budget: int = 64) -> Partition:
        """Initial partition, capacity repair, then refinement.

        Per the paper (section 2.3.1), the number of instructions per
        cluster is *constrained* by the available resources and the II,
        so capacity is enforced before quality refinement: whenever a
        (cluster, kind) pair exceeds ``units * II`` issue slots, the
        least-attached offending node moves to the cluster with the
        most spare capacity of that kind.
        """
        if not self.machine.is_clustered:
            assignment = {uid: 0 for uid in self.ddg.node_ids()}
            return Partition(self.ddg, assignment, 1)
        initial = self.initial(ii)
        with obs_span("partition.repair", ii=ii):
            repaired = _repair_capacity(initial, self.machine, ii)
        with obs_span("partition.refine", ii=ii, budget=move_budget):
            partition, _ = refine(
                repaired,
                self.machine,
                ii,
                move_budget,
                stats=self.stats,
                length_memo=self.length_memo,
            )
            return partition

    def partition_replicating(
        self, ii: int, move_budget: int = 64, replication_budget: int = 8
    ) -> tuple[Partition, dict[int, frozenset[int]]]:
        """Like :meth:`partition`, with replicate moves enabled.

        Coarsening and capacity repair are shared with :meth:`partition`;
        only the refinement's replication budget differs
        (:func:`~repro.partition.refine.refine`). Returns the
        refined partition plus the ``{uid: frozenset(clusters)}`` replica
        grants for the post-pass replicator to treat as already granted.
        An unclustered machine has nowhere to replicate into, so it gets
        the trivial partition and no grants.
        """
        if not self.machine.is_clustered:
            assignment = {uid: 0 for uid in self.ddg.node_ids()}
            return Partition(self.ddg, assignment, 1), {}
        initial = self.initial(ii)
        with obs_span("partition.repair", ii=ii):
            repaired = _repair_capacity(initial, self.machine, ii)
        with obs_span(
            "partition.refine", ii=ii, budget=move_budget, replicating=True
        ):
            return refine(
                repaired,
                self.machine,
                ii,
                move_budget,
                replication_budget=replication_budget,
                stats=self.stats,
                length_memo=self.length_memo,
            )


def initial_partition(ddg: Ddg, machine: MachineConfig, ii: int) -> Partition:
    """One-shot convenience wrapper around :class:`MultilevelPartitioner`."""
    return MultilevelPartitioner(ddg=ddg, machine=machine).partition(ii)
