"""Partition refinement by greedy node moves.

Whenever the II grows (Figure 2's feedback arc) every cluster gains
issue slots, so a partition that was bus- or resource-bound may admit a
better shape. Refinement repeatedly tries to move single nodes to other
clusters, keeping any move that improves the pseudo-schedule metric, and
stops at a local optimum or when the move budget runs out.

Move candidates are restricted to *boundary* nodes — nodes with at least
one register neighbour in another cluster — because interior moves can
only create communications, never remove them. With a replication
budget, "replicate this producer into a consumer cluster" is a
first-class move too (Papp et al.), tried only once no plain move
improves the incumbent.

Candidates are scored read-only through
:class:`~repro.partition.incremental.MoveEvaluator`: a trial returns the
cheap lexicographic prefix (capacity, II estimate, communications) and
the imbalance the move would produce without touching the evaluator,
and the expensive critical-path length is only relaxed when that prefix
ties the incumbent — a comparison that is decision-equivalent to
ordering the full :attr:`~repro.partition.pseudo.PseudoSchedule.key`,
because the first differing component decides a lexicographic order.
Only an accepted move is applied to the evaluator.
"""

from __future__ import annotations

import time

from repro.machine.config import MachineConfig
from repro.partition.incremental import EvaluatorStats, MoveEvaluator, ReplicateMove
from repro.partition.partition import Partition

#: Upper bound on accepted moves per refinement call, to bound runtime
#: on large loops (each accepted move rescans the boundary).
_DEFAULT_MOVE_BUDGET = 64


def refine(
    partition: Partition,
    machine: MachineConfig,
    ii: int,
    move_budget: int = _DEFAULT_MOVE_BUDGET,
    replication_budget: int = 0,
    stats: EvaluatorStats | None = None,
    length_memo: dict[tuple, int] | None = None,
) -> tuple[Partition, dict[int, frozenset[int]]]:
    """Improve ``partition`` by single-node moves at a candidate II.

    Each round takes the first candidate that improves the incumbent:
    plain reassignments first, and — while fewer than
    ``replication_budget`` replicas were granted — cloning a
    communicating producer into one of its consumer clusters.

    Returns the refined partition (home assignment only — replicas are
    *not* partition nodes) plus the replica grants as a
    ``{producer uid: frozenset(clusters)}`` mapping for the post-pass
    replicator to treat as already granted. Without grants the
    partition's pseudo-schedule key is <= the input's; the input object
    is never mutated (and is returned as-is when no move improves it).
    ``stats`` accumulates evaluator effort counters across calls, and
    ``length_memo`` shares relaxations across calls on the same DDG and
    machine (see :class:`MoveEvaluator`).
    """
    started = time.thread_time()
    if stats is None:
        stats = EvaluatorStats()
    stats.refine_calls += 1

    evaluator = MoveEvaluator(partition, machine, ii, stats, length_memo)
    best_prefix = evaluator.prefix()
    best_length: int | None = None  # relaxed lazily, on the first prefix tie
    best_imbalance = evaluator.imbalance()
    accepted = 0
    granted = 0

    try:
        for _ in range(move_budget):
            for move in evaluator.candidate_moves(granted < replication_budget):
                replicate = isinstance(move, ReplicateMove)
                stats.pseudo_evaluations += 1
                prefix, imbalance = evaluator.trial(move)
                length: int | None = None
                if prefix != best_prefix:
                    stats.lengths_skipped += 1
                    keep = prefix < best_prefix
                else:
                    if best_length is None:
                        best_length = evaluator.length()
                    length = evaluator.trial_length(move, prefix[1])
                    keep = (length, imbalance) < (best_length, best_imbalance)
                if not keep:
                    if replicate:
                        stats.replicate_rejected += 1
                    else:
                        stats.plain_rejected += 1
                    continue
                if replicate:
                    evaluator.apply_replicate(move.uid, move.cluster)
                    stats.replicate_accepted += 1
                    granted += 1
                else:
                    evaluator.apply(move.uid, move.dst_cluster)
                    stats.plain_accepted += 1
                stats.moves_accepted += 1
                best_prefix = prefix
                best_length = length
                best_imbalance = imbalance
                accepted += 1
                break
            else:
                break
    finally:
        stats.refine_seconds += time.thread_time() - started

    grants = evaluator.replicas()
    stats.replicas_surviving = sum(len(clusters) for clusters in grants.values())
    result = evaluator.to_partition() if accepted else partition
    return result, grants
