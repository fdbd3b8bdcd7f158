"""Incremental move evaluation for the refinement hot path.

Refinement (Figure 2's inner loop) scores hundreds of candidate
single-node moves per loop. A :class:`MoveEvaluator` owns the state a
pseudo-schedule is computed from and scores every candidate
*read-only*: :meth:`~MoveEvaluator.trial` returns the cheap
lexicographic prefix (capacity violation, II estimate, communication
count) and the load imbalance the move *would* produce, without
touching the state, and :meth:`~MoveEvaluator.trial_length` answers the
expensive bus-penalized critical path for the moved assignment only when
that prefix ties. Only a move refinement accepts is applied, in
O(degree), by :meth:`~MoveEvaluator.apply`/:meth:`~MoveEvaluator.apply_replicate`;
:meth:`~MoveEvaluator.undo` rolls one back.

The maintained state:

* per-cluster, per-FU-kind load tables and totals, plus the resource
  II as a (max bound, cells at the max) pair, so a trial's resource II
  is O(1) — only when the one cell at the max drops is the table
  rescanned;
* per-cluster value-producer counts and how many clusters exceed
  their register file (the register floor);
* per-node counts of *foreign* register out-edges, so the partition's
  communication count is a running integer, not an edge scan;
* per-node counts of foreign register neighbours, so the boundary (the
  set of profitable move candidates) is *maintained*, not recomputed.

A trial's communication count is O(degree): the moved node and each of
its register producers is re-judged once against its foreign-out count
(a graph holds one register edge per ordered pair, and in a 2-cycle the
two nodes are judged as separate producers; with replicas live, the
affected producers are recounted on local copies of their consumer
counts). The register floor is O(1) and the imbalance O(clusters). The
length goes through the
CSR relaxation kernel (:func:`repro.ddg.csr.penalized_length`) behind a
memo keyed on (II estimate, assignment[, replicas]); the memo can be
shared by every evaluator of one (DDG, machine), since the length is a
pure function of that key. Every quantity matches the from-scratch
``pseudo_schedule`` bit for bit and every trial matches apply → score →
undo (the property tests drive thousands of random moves to hold both
lines), so refinement decisions are unchanged — only cheaper.

Moves come in two kinds, both O(degree) to score, apply and undo:

* :class:`ReassignMove` — the classic "move node to another cluster";
* :class:`ReplicateMove` — *clone* a node into a target cluster, the
  replication-aware-partitioning move (Papp et al.). The replica is an
  alias of the original (same edges; see
  :class:`repro.ddg.csr.ReplicaView`) whose presence absorbs
  communications: a producer only communicates when some consumer
  instance sits in a cluster holding no instance of the producer —
  the exact rule placement uses to create bus COPYs. Undoing a
  replicate move is the paired de-replication.

The replica tables (per-producer consumer-cluster counts, uncovered
cluster counts, the replica-aware communication total) are built lazily
on the first replicate move, trial or candidate scan, so evaluators that
never replicate — the four paper schemes — run the exact historical code
path and generate bit-identical move streams.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

from repro.ddg.csr import (
    FU_KINDS,
    csr_view,
    penalized_length,
    penalized_length_replicated,
)
from repro.machine.config import MachineConfig
from repro.partition.partition import Partition
from repro.partition.pseudo import PseudoSchedule


@dataclasses.dataclass
class EvaluatorStats:
    """Effort counters of the incremental evaluator.

    Accumulates across refinement calls (the multilevel partitioner
    keeps one instance for a loop's whole II trajectory) and feeds the
    ``CompileDiagnostics`` counters surfaced by ``repro bench``.

    Attributes:
        pseudo_evaluations: candidate moves scored (read-only trials).
        lengths_computed: bus-penalized critical-path relaxations run
            (the expensive part of a pseudo-schedule).
        lengths_skipped: candidate scorings decided on the cheap
            lexicographic prefix alone, with no relaxation.
        lengths_memoized: length asks answered from the
            assignment-keyed memo (refinement re-scores the same
            assignments across candidate scans and II attempts, and the
            critical path is a pure function of the assignment and the
            II estimate).
        moves_applied: O(degree) state updates performed (both kinds);
            trials never update state, so in refinement this is the
            number of accepted moves.
        moves_reverted: applied moves rolled back by ``undo``
            (refinement never rolls back).
        moves_accepted: moves kept by refinement.
        plain_moves: reassignment trials scored.
        replicate_moves: replicate trials scored.
        plain_accepted: reassignment moves refinement kept.
        plain_rejected: reassignment trials refinement turned down.
        replicate_accepted: replicate moves refinement kept.
        replicate_rejected: replicate trials refinement turned down.
        replicas_surviving: replica instances alive in the partition the
            last refinement returned.
        refine_calls: refinement invocations observed.
        refine_seconds: CPU time (``time.thread_time``) spent inside
            refinement.
    """

    pseudo_evaluations: int = 0
    lengths_computed: int = 0
    lengths_skipped: int = 0
    lengths_memoized: int = 0
    moves_applied: int = 0
    moves_reverted: int = 0
    moves_accepted: int = 0
    plain_moves: int = 0
    replicate_moves: int = 0
    plain_accepted: int = 0
    plain_rejected: int = 0
    replicate_accepted: int = 0
    replicate_rejected: int = 0
    replicas_surviving: int = 0
    refine_calls: int = 0
    refine_seconds: float = 0.0

    @property
    def lazy_skip_rate(self) -> float:
        """Fraction of candidate scorings that avoided the relaxation."""
        total = self.lengths_computed + self.lengths_memoized + self.lengths_skipped
        return self.lengths_skipped / total if total else 0.0

    @property
    def length_memo_hit_rate(self) -> float:
        """Fraction of length asks answered without a relaxation."""
        total = self.lengths_computed + self.lengths_memoized
        return self.lengths_memoized / total if total else 0.0

    def as_counters(self) -> dict[str, float]:
        """Flat dict for :class:`CompileDiagnostics` counters."""
        return {
            "pseudo_evaluations": self.pseudo_evaluations,
            "lengths_computed": self.lengths_computed,
            "lengths_skipped": self.lengths_skipped,
            "lengths_memoized": self.lengths_memoized,
            "moves_applied": self.moves_applied,
            "moves_reverted": self.moves_reverted,
            "moves_accepted": self.moves_accepted,
            "moves.plain": self.plain_moves,
            "moves.replicate": self.replicate_moves,
            "moves.plain_accepted": self.plain_accepted,
            "moves.plain_rejected": self.plain_rejected,
            "moves.replicate_accepted": self.replicate_accepted,
            "moves.replicate_rejected": self.replicate_rejected,
            "moves.replicas_surviving": self.replicas_surviving,
            "refine_calls": self.refine_calls,
            "refine_seconds": self.refine_seconds,
        }


@dataclasses.dataclass(frozen=True)
class Move:
    """One reassignment of ``uid`` from ``src_cluster`` to ``dst_cluster``.

    Score it with :meth:`MoveEvaluator.trial`; once applied, roll it
    back with :meth:`MoveEvaluator.undo`.
    """

    uid: int
    src_cluster: int
    dst_cluster: int


#: The explicit name of the classic move kind; ``Move`` is kept as the
#: historical alias (tests and callers predate the protocol).
ReassignMove = Move


@dataclasses.dataclass(frozen=True)
class ReplicateMove:
    """One replication of ``uid`` into ``cluster``.

    Undoing an applied one (:meth:`MoveEvaluator.undo`) is the paired
    de-replication: the replica instance and every table contribution it
    made are removed, in O(degree).
    """

    uid: int
    cluster: int


class MoveEvaluator:
    """Mutable pseudo-schedule state for one (partition, machine, II).

    The evaluator never mutates the partition it was built from; call
    :meth:`to_partition` to materialize the current assignment.

    ``length_memo`` is the (II estimate, assignment[, replicas]) ->
    length memo; pass one dict to every evaluator of the same DDG and
    machine to share relaxations between them (the multilevel
    partitioner does, across II attempts). By default each evaluator
    keeps its own.
    """

    def __init__(
        self,
        partition: Partition,
        machine: MachineConfig,
        ii: int,
        stats: EvaluatorStats | None = None,
        length_memo: dict[tuple, int] | None = None,
    ) -> None:
        self._machine = machine
        self._ii = ii
        self._stats = stats if stats is not None else EvaluatorStats()
        self._ddg = partition.ddg
        self._csr = csr_view(self._ddg)
        self._n_clusters = partition.n_clusters
        self._rounds = len(self._ddg) + 1
        self._bus_count = machine.bus.count
        self._bus_latency = machine.bus.latency
        self._units = [
            [machine.fu_count(cluster, kind) for kind in FU_KINDS]
            for cluster in range(machine.n_clusters)
        ]
        self._registers = [
            machine.registers(cluster) for cluster in machine.cluster_ids()
        ]

        csr = self._csr
        # Register neighbours per position, sliced out of the CSR once.
        self._reg_out = [
            csr.reg_out[lo:hi]
            for lo, hi in zip(csr.reg_out_offsets, csr.reg_out_offsets[1:])
        ]
        self._reg_in = [
            csr.reg_in[lo:hi]
            for lo, hi in zip(csr.reg_in_offsets, csr.reg_in_offsets[1:])
        ]
        self._cluster = [partition.cluster_of(uid) for uid in csr.uids]
        cluster = self._cluster
        self._load = [[0] * len(FU_KINDS) for _ in range(self._n_clusters)]
        self._totals = [0] * self._n_clusters
        self._producers = [0] * self._n_clusters
        for position in range(csr.n_nodes):
            home = cluster[position]
            self._load[home][csr.fu_ord[position]] += 1
            self._totals[home] += 1
            if not csr.is_store[position]:
                self._producers[home] += 1
        # Clusters hosting more value producers than registers.
        self._over_registers = sum(
            producers > registers
            for producers, registers in zip(self._producers, self._registers)
        )
        # Resource II bookkeeping: the largest per-cell bound
        # ceil(load / units) and how many cells sit at it.
        self._res_max = 0
        self._res_at_max = 0
        self._rescan_resource()

        foreign_out = self._foreign_out = [0] * csr.n_nodes
        foreign_adj = self._foreign_adj = [0] * csr.n_nodes
        for position in range(csr.n_nodes):
            home = cluster[position]
            for consumer in self._reg_out[position]:
                if cluster[consumer] != home:
                    foreign_out[position] += 1
                    foreign_adj[position] += 1
                    foreign_adj[consumer] += 1
        self._n_coms = sum(1 for count in self._foreign_out if count)
        self._boundary = {
            position
            for position, count in enumerate(self._foreign_adj)
            if count
        }
        # (ii_estimate, assignment[, replicas]) -> penalized length.
        # Refinement re-scores the same assignments constantly, and the
        # length is a pure function of the key, so the memo answer is
        # bit-identical to re-running the kernel.
        self._length_memo = length_memo if length_memo is not None else {}

        # Replica tables, built lazily by the first replicate move so
        # plain-move-only evaluators keep the exact historical path:
        #   _extra[p]          clusters holding a replica of p (never
        #                      the home cluster);
        #   _consumer_count[p] cluster -> register out-edges of p whose
        #                      consumer has an *instance* there (homes
        #                      and replicas alike);
        #   _uncovered[p]      consumer clusters with no instance of p
        #                      (>0 means p's value crosses clusters);
        #   _n_coms_replica    producers with _uncovered > 0 — the
        #                      replica-aware communication count.
        self._extra: list[set[int]] | None = None
        self._frozen_extra: tuple[frozenset[int], ...] | None = None
        self._consumer_count: list[dict[int, int]] = []
        self._uncovered: list[int] = []
        self._n_coms_replica = 0

    # ------------------------------------------------------------------
    # Candidate enumeration (the maintained boundary)
    # ------------------------------------------------------------------

    def boundary(self) -> list[int]:
        """Uids with a register neighbour in another cluster, ascending."""
        uids = self._csr.uids
        return [uids[position] for position in sorted(self._boundary)]

    def move_targets(self, uid: int) -> list[int]:
        """Clusters holding register neighbours of ``uid``, sorted.

        Clusters already holding a replica of ``uid`` are excluded:
        moving the home onto its own replica would collapse two
        instances into one, which placement rejects.
        """
        return self._targets(self._csr.index[uid])

    def _targets(self, position: int) -> list[int]:
        cluster = self._cluster
        clusters = set(
            map(cluster.__getitem__, self._reg_out[position] + self._reg_in[position])
        )
        clusters.discard(cluster[position])
        if self._extra is not None:
            clusters.difference_update(self._extra[position])
        return sorted(clusters)

    def candidate_moves(self, replicate: bool) -> Iterator[Move | ReplicateMove]:
        """The moves refinement tries, in scan order.

        Every :meth:`boundary` node (ascending uid) to each of its
        :meth:`move_targets`; then, with ``replicate``, every
        :meth:`replicate_candidates` producer into each of its
        :meth:`replicate_targets`. Lazy, so a scan that stops at the
        first improving move enumerates nothing past it; the state must
        not change while the scan runs.
        """
        uids = self._csr.uids
        cluster = self._cluster
        for position in sorted(self._boundary):
            uid = uids[position]
            home = cluster[position]
            for target in self._targets(position):
                yield Move(uid, home, target)
        if replicate:
            for uid in self.replicate_candidates():
                for target in self.replicate_targets(uid):
                    yield ReplicateMove(uid, target)

    # ------------------------------------------------------------------
    # Read-only scoring of candidate moves
    # ------------------------------------------------------------------

    def trial(
        self, move: Move | ReplicateMove
    ) -> tuple[tuple[bool, int, int], int]:
        """``(prefix(), imbalance())`` as they would be after ``move``.

        Read-only: no maintained table changes (a replicate trial only
        builds the replica tables on first use, which is observably
        free). O(degree) for the communication count, O(1) for the
        resource II and the register floor, O(clusters) for the
        imbalance. Counts the trial under its kind in
        :class:`EvaluatorStats`.
        """
        csr = self._csr
        position = csr.index[move.uid]
        if isinstance(move, ReplicateMove):
            self._activate_replicas()
            self._stats.replicate_moves += 1
            source = None
            to = move.cluster
            coms = self._n_coms_replica + self._replica_coms_delta(
                position, None, to
            )
        else:
            self._stats.plain_moves += 1
            source = self._cluster[position]
            to = move.dst_cluster
            if self._extra is None:
                coms = self._n_coms + self._shift_coms_delta(position, source, to)
            else:
                coms = self._n_coms_replica + self._replica_coms_delta(
                    position, source, to
                )

        ii_res = self._trial_resource_ii(csr.fu_ord[position], source, to)
        over_registers = self._over_registers
        if not csr.is_store[position]:
            producers, registers = self._producers, self._registers
            over_registers += producers[to] == registers[to]
            if source is not None:
                over_registers -= producers[source] == registers[source] + 1
        totals = self._totals.copy()
        totals[to] += 1
        if source is not None:
            totals[source] -= 1
        return (
            self._key(ii_res, over_registers > 0, coms),
            max(totals) - min(totals),
        )

    def trial_length(self, move: Move | ReplicateMove, ii_estimate: int) -> int:
        """:meth:`length` of the state ``move`` would produce.

        ``ii_estimate`` is the move's :meth:`trial` prefix estimate. The
        assignment is flipped in place for the memo key and the
        relaxation, then restored.
        """
        position = self._csr.index[move.uid]
        if isinstance(move, ReplicateMove):
            self._activate_replicas()
            frozen = self._replica_key()
            extra = self._extra[position]
            extra.add(move.cluster)
            key = (
                ii_estimate,
                tuple(self._cluster),
                frozen[:position] + (frozenset(extra),) + frozen[position + 1 :],
            )
            try:
                return self._length(key)
            finally:
                extra.discard(move.cluster)
        cluster = self._cluster
        source = cluster[position]
        cluster[position] = move.dst_cluster
        try:
            return self.length(ii_estimate)
        finally:
            cluster[position] = source

    def _shift_coms_delta(self, position: int, source: int, to: int) -> int:
        """Change in the plain communication count if ``position`` moves.

        A graph holds at most one register edge per ordered node pair,
        so each producer's crossing is re-judged once; in a 2-cycle the
        node and its neighbour are judged as separate producers.
        """
        cluster = self._cluster
        foreign_out = self._foreign_out
        own = 0
        for consumer in self._reg_out[position]:
            if consumer == position:
                continue  # self loops move with the node
            neighbour_cluster = cluster[consumer]
            if neighbour_cluster == source:
                own += 1
            elif neighbour_cluster == to:
                own -= 1
        delta = 0
        if own:
            count = foreign_out[position]
            delta = (count + own > 0) - (count > 0)
        for producer in self._reg_in[position]:
            if producer == position:
                continue
            neighbour_cluster = cluster[producer]
            if neighbour_cluster == source:
                delta += foreign_out[producer] == 0
            elif neighbour_cluster == to:
                delta -= foreign_out[producer] == 1
        return delta

    def _replica_coms_delta(
        self, position: int, source: int | None, to: int
    ) -> int:
        """Change in the replica-aware count if an instance of
        ``position`` moves ``source -> to`` (``source`` None: a new
        replica in ``to``).

        Only ``position`` and its register parents can change coverage;
        each is recounted on a local copy of its consumer counts.
        """
        cluster = self._cluster
        # Producer -> whether it feeds ``position`` (over one edge: a
        # graph holds one register edge per ordered pair); ``position``
        # itself feeds itself only through a self loop.
        feeds = dict.fromkeys(self._reg_in[position], True)
        feeds.setdefault(position, False)
        delta = 0
        for producer, fed in feeds.items():
            counts = self._consumer_count[producer]
            if fed:
                counts = counts.copy()
                if source is not None:
                    counts[source] -= 1
                counts[to] = counts.get(to, 0) + 1
            home = cluster[producer]
            extra = self._extra[producer]
            if producer == position:
                if source is None:
                    extra = extra | {to}
                else:
                    home = to
            uncovered = any(
                count and consumer_cluster != home and consumer_cluster not in extra
                for consumer_cluster, count in counts.items()
            )
            delta += uncovered - (self._uncovered[producer] > 0)
        return delta

    def _trial_resource_ii(self, kind: int, source: int | None, to: int) -> int:
        """Resource II after one ``kind`` instance moves ``source -> to``."""
        top = self._res_max
        at_max = self._res_at_max
        units = self._units
        loads = self._load
        count, unit = loads[to][kind], units[to][kind]
        before, after = -(-count // unit), -(-(count + 1) // unit)
        if after > top:
            return after
        if after == top and before < top:
            at_max += 1
        if source is not None:
            count, unit = loads[source][kind], units[source][kind]
            if -(-count // unit) == top and -(-(count - 1) // unit) < top:
                at_max -= 1
        if at_max:
            return max(top, 1)
        # The only cell at the max dropped: rescan with the trial loads.
        bound = 1
        for cluster, (cluster_loads, cluster_units) in enumerate(zip(loads, units)):
            for cell_kind, (count, unit) in enumerate(
                zip(cluster_loads, cluster_units)
            ):
                if cell_kind == kind:
                    count += (cluster == to) - (cluster == source)
                bound = max(bound, -(-count // unit))
        return bound

    # ------------------------------------------------------------------
    # Moves (state updates; refinement applies only accepted ones)
    # ------------------------------------------------------------------

    def apply(self, uid: int, cluster: int) -> Move:
        """Move ``uid`` to ``cluster``; O(degree) state update."""
        position = self._csr.index[uid]
        source = self._cluster[position]
        self._stats.moves_applied += 1
        self._shift(position, cluster)
        return Move(uid=uid, src_cluster=source, dst_cluster=cluster)

    def apply_replicate(self, uid: int, cluster: int) -> ReplicateMove:
        """Clone ``uid`` into ``cluster``; O(degree) state update.

        The replica adds to the target cluster's loads, totals and
        producer count, and its presence absorbs communications (the
        producer — and ``uid``'s own parents — stop paying for
        consumers in ``cluster``).

        Raises:
            ValueError: an instance of ``uid`` (home or replica)
                already sits in ``cluster`` — placement rejects
                duplicate instances, so the evaluator does too.
        """
        self._activate_replicas()
        position = self._csr.index[uid]
        if cluster == self._cluster[position] or cluster in self._extra[position]:
            raise ValueError(
                f"node {uid} already has an instance in cluster {cluster}"
            )
        self._stats.moves_applied += 1
        self._grow_replica(position, cluster)
        return ReplicateMove(uid=uid, cluster=cluster)

    def undo(self, move: Move | ReplicateMove) -> None:
        """Roll back the most recent apply of ``move`` (LIFO order)."""
        self._stats.moves_reverted += 1
        if isinstance(move, ReplicateMove):
            self._shrink_replica(self._csr.index[move.uid], move.cluster)
        else:
            self._shift(self._csr.index[move.uid], move.src_cluster)

    def _bump_adjacency(self, position: int, delta: int) -> None:
        count = self._foreign_adj[position] + delta
        self._foreign_adj[position] = count
        if count == 0:
            self._boundary.discard(position)
        elif count == delta:  # crossed up from zero
            self._boundary.add(position)

    def _bump_foreign_out(self, position: int, delta: int) -> None:
        count = self._foreign_out[position]
        self._foreign_out[position] = count + delta
        if count == 0 and delta > 0:
            self._n_coms += 1
        elif count > 0 and count + delta == 0:
            self._n_coms -= 1

    def _rescan_resource(self) -> None:
        top = 0
        at_max = 0
        for cluster_loads, cluster_units in zip(self._load, self._units):
            for count, units in zip(cluster_loads, cluster_units):
                bound = -(-count // units)
                if bound > top:
                    top, at_max = bound, 1
                elif bound == top:
                    at_max += 1
        self._res_max = top
        self._res_at_max = at_max

    def _count_instance(self, position: int, cluster: int, delta: int) -> None:
        """Add (``delta`` 1) or remove (-1) one instance's load."""
        csr = self._csr
        kind = csr.fu_ord[position]
        units = self._units[cluster][kind]
        loads = self._load[cluster]
        before = -(-loads[kind] // units)
        loads[kind] += delta
        after = -(-loads[kind] // units)
        self._totals[cluster] += delta
        if not csr.is_store[position]:
            producers = self._producers[cluster]
            registers = self._registers[cluster]
            self._over_registers += (producers + delta > registers) - (
                producers > registers
            )
            self._producers[cluster] = producers + delta
        top = self._res_max
        if after > top:
            self._res_max = after
            self._res_at_max = 1
        elif after == top and before != top:
            self._res_at_max += 1
        elif before == top and after != top:
            self._res_at_max -= 1
            if not self._res_at_max:
                self._rescan_resource()

    def _shift(self, position: int, to: int) -> None:
        csr = self._csr
        cluster = self._cluster
        source = cluster[position]
        if source == to:
            return
        if self._extra is not None and to in self._extra[position]:
            raise ValueError(
                f"node {csr.uids[position]} already has a replica in "
                f"cluster {to}; de-replicate before moving its home there"
            )

        self._count_instance(position, source, -1)
        self._count_instance(position, to, 1)

        own_adjacency_delta = 0
        own_out_delta = 0
        for consumer in self._reg_out[position]:
            if consumer == position:
                continue  # self loops move with the node
            neighbour_cluster = cluster[consumer]
            delta = (neighbour_cluster != to) - (neighbour_cluster != source)
            if delta:
                own_out_delta += delta
                own_adjacency_delta += delta
                self._bump_adjacency(consumer, delta)
        for producer in self._reg_in[position]:
            if producer == position:
                continue
            neighbour_cluster = cluster[producer]
            delta = (neighbour_cluster != to) - (neighbour_cluster != source)
            if delta:
                own_adjacency_delta += delta
                self._bump_adjacency(producer, delta)
                self._bump_foreign_out(producer, delta)
        if own_out_delta:
            self._bump_foreign_out(position, own_out_delta)
        if own_adjacency_delta:
            self._bump_adjacency(position, own_adjacency_delta)
        cluster[position] = to
        if self._extra is not None:
            self._presence_moved(position, source, to)

    # ------------------------------------------------------------------
    # Replica tables (activated by the first replicate move)
    # ------------------------------------------------------------------

    @property
    def has_replicas(self) -> bool:
        """True when any replica instance is currently live."""
        return self._extra is not None and any(self._extra)

    def replicas(self) -> dict[int, frozenset[int]]:
        """Live replica grants, uid -> clusters (empty sets omitted)."""
        if self._extra is None:
            return {}
        uids = self._csr.uids
        return {
            uids[position]: frozenset(clusters)
            for position, clusters in enumerate(self._extra)
            if clusters
        }

    def replicate_candidates(self) -> list[int]:
        """Uids whose value still crosses clusters, ascending.

        These are the producers a replicate move can help: each has at
        least one consumer cluster with no instance of it.
        """
        self._activate_replicas()
        uids = self._csr.uids
        return [
            uids[position]
            for position, count in enumerate(self._uncovered)
            if count
        ]

    def replicate_targets(self, uid: int) -> list[int]:
        """Consumer clusters with no instance of ``uid``, sorted."""
        self._activate_replicas()
        position = self._csr.index[uid]
        home = self._cluster[position]
        extra = self._extra[position]
        return sorted(
            cluster
            for cluster, count in self._consumer_count[position].items()
            if count > 0 and cluster != home and cluster not in extra
        )

    def _activate_replicas(self) -> None:
        if self._extra is not None:
            return
        csr = self._csr
        cluster = self._cluster
        n = csr.n_nodes
        self._extra = [set() for _ in range(n)]
        self._consumer_count = []
        self._uncovered = [0] * n
        self._n_coms_replica = 0
        for position in range(n):
            counts: dict[int, int] = {}
            for consumer in self._reg_out[position]:
                consumer_cluster = cluster[consumer]
                counts[consumer_cluster] = counts.get(consumer_cluster, 0) + 1
            self._consumer_count.append(counts)
        for position in range(n):
            home = cluster[position]
            uncovered = sum(
                1
                for consumer_cluster, count in self._consumer_count[
                    position
                ].items()
                if count and consumer_cluster != home
            )
            self._uncovered[position] = uncovered
            if uncovered:
                self._n_coms_replica += 1

    def _recount_uncovered(self, position: int) -> None:
        """Refresh one producer's uncovered-cluster count; O(clusters)."""
        home = self._cluster[position]
        extra = self._extra[position]
        count = 0
        for consumer_cluster, edges in self._consumer_count[position].items():
            if edges and consumer_cluster != home and consumer_cluster not in extra:
                count += 1
        previous = self._uncovered[position]
        self._uncovered[position] = count
        if previous == 0 and count > 0:
            self._n_coms_replica += 1
        elif previous > 0 and count == 0:
            self._n_coms_replica -= 1

    def _presence_moved(self, position: int, source: int, to: int) -> None:
        """Replica-table follow-up to a home move ``source -> to``."""
        parents = self._reg_in[position]
        for producer in parents:
            counts = self._consumer_count[producer]
            counts[source] = counts.get(source, 0) - 1
            counts[to] = counts.get(to, 0) + 1
        affected = {position}
        affected.update(parents)
        for uid_position in affected:
            self._recount_uncovered(uid_position)

    def _grow_replica(self, position: int, cluster: int) -> None:
        self._extra[position].add(cluster)
        self._frozen_extra = None
        self._count_instance(position, cluster, 1)
        parents = self._reg_in[position]
        for producer in parents:
            counts = self._consumer_count[producer]
            counts[cluster] = counts.get(cluster, 0) + 1
        affected = {position}
        affected.update(parents)
        for uid_position in affected:
            self._recount_uncovered(uid_position)

    def _shrink_replica(self, position: int, cluster: int) -> None:
        self._extra[position].discard(cluster)
        self._frozen_extra = None
        self._count_instance(position, cluster, -1)
        parents = self._reg_in[position]
        for producer in parents:
            self._consumer_count[producer][cluster] -= 1
        affected = {position}
        affected.update(parents)
        for uid_position in affected:
            self._recount_uncovered(uid_position)

    # ------------------------------------------------------------------
    # Scoring (lexicographic key, expensive length computed on demand)
    # ------------------------------------------------------------------

    def nof_coms(self) -> int:
        """Maintained count of values crossing clusters.

        With replicas live this is the replica-aware count: a producer
        communicates only when some consumer instance sits in a cluster
        holding no instance of the producer.
        """
        if self._extra is not None:
            return self._n_coms_replica
        return self._n_coms

    def prefix(self) -> tuple[bool, int, int]:
        """The cheap key prefix (capacity violation, II estimate, coms).

        O(clusters); never touches the relaxation kernel.
        """
        return self._key(
            max(self._res_max, 1), self._over_registers > 0, self.nof_coms()
        )

    def _key(
        self, ii_res: int, floor_broken: bool, coms: int
    ) -> tuple[bool, int, int]:
        if self._bus_count:
            ii_bus = self._bus_latency * -(-coms // self._bus_count) if coms else 1
            stranded_coms = False
        else:
            ii_bus = 1
            stranded_coms = coms > 0
        ii_estimate = max(self._ii, ii_res, ii_bus)
        violation = ii_res > self._ii or floor_broken or stranded_coms
        return (violation, ii_estimate, coms)

    def imbalance(self) -> int:
        """Max minus min total load over clusters."""
        return (max(self._totals) - min(self._totals)) if self._totals else 0

    def length(self, ii_estimate: int | None = None) -> int:
        """Bus-penalized critical path at the current II estimate.

        The expensive O(V·E) part of the score; callers should only ask
        when the cheap prefix ties (:func:`repro.partition.refine.refine`
        does, and the skip rate lands in :class:`EvaluatorStats`).
        ``ii_estimate`` defaults to :meth:`prefix`'s.
        """
        if self._csr.n_nodes == 0:
            self._stats.lengths_computed += 1
            return 0
        if ii_estimate is None:
            ii_estimate = self.prefix()[1]
        if self._extra is None:
            return self._length((ii_estimate, tuple(self._cluster)))
        return self._length((ii_estimate, tuple(self._cluster), self._replica_key()))

    def _replica_key(self) -> tuple[frozenset[int], ...]:
        """The replicas part of the memo key, rebuilt only after a
        replica is granted or withdrawn."""
        if self._frozen_extra is None:
            self._frozen_extra = tuple(map(frozenset, self._extra))
        return self._frozen_extra

    def _length(self, key: tuple) -> int:
        """Memoized length of the current state under its memo ``key``."""
        ii_estimate = key[0]
        cached = self._length_memo.get(key)
        if cached is not None:
            self._stats.lengths_memoized += 1
            return cached
        self._stats.lengths_computed += 1
        if self._extra is None:
            value = penalized_length(
                self._csr,
                self._cluster,
                self._bus_latency,
                ii_estimate,
                self._rounds,
            )
        else:
            value = penalized_length_replicated(
                self._csr,
                self._cluster,
                self._extra,
                self._bus_latency,
                ii_estimate,
                self._rounds,
            )
        self._length_memo[key] = value
        return value

    def pseudo(self) -> PseudoSchedule:
        """The full pseudo-schedule of the current state.

        Without live replicas this is bit-identical to
        ``pseudo_schedule(self.to_partition(), ...)``; with replicas the
        same key evaluated replica-aware (loads, producers and
        communications include replica instances, cross-cluster edges
        with a local producer instance pay no bus latency). Forces the
        length, so prefer :meth:`prefix` in hot loops.
        """
        violation, ii_estimate, coms = self.prefix()
        return PseudoSchedule(
            capacity_violation=violation,
            ii_estimate=ii_estimate,
            nof_coms=coms,
            length_estimate=self.length(),
            imbalance=self.imbalance(),
        )

    def to_partition(self) -> Partition:
        """Materialize the current assignment as a fresh partition."""
        assignment = dict(zip(self._csr.uids, self._cluster))
        return Partition(self._ddg, assignment, self._n_clusters)
