"""Scheduling order for the placed graph (swing modulo scheduling).

The scheduler of section 2.3.2 sorts nodes "according to [Llosa et al.,
Swing Modulo Scheduling]" before placing them one by one. The properties
that matter are:

1. operations on recurrences are placed before the rest (their
   scheduling windows are the tightest);
2. each operation is placed while being adjacent to already-placed
   neighbours (so the close-to-predecessors/successors placement rule
   keeps lifetimes short);
3. less slack = earlier in the order.

We implement a deterministic variant: strongly connected components are
ordered by decreasing criticality (recurrences first, tightest first),
then nodes are emitted greedily, always choosing the candidate with the
most already-ordered neighbours, breaking ties by ascending slack, then
ascending ASAP time, then instance id.

Shared structure
----------------

Figure 2's feedback loop re-schedules the *same* placed graph at an
escalating II. Everything II-independent — flattened adjacency and the
SCC condensation — is built once per graph by :func:`graph_cache` and
shared by this module, :mod:`repro.schedule.scheduler` and
:mod:`repro.schedule.ims`. The cache is held in a ``WeakKeyDictionary``
keyed by graph identity (placed graphs are never structurally mutated
after :func:`~repro.schedule.placed.build_placed_graph` returns), and
the flat edge list preserves the exact node-major edge order of the
original nested loops, so relaxation results — including which round
diverges — are bit-identical to walking the graph directly. The
per-II analysis itself is not cached: each placed graph is analysed
once per II attempt, and :class:`PlacedAnalysis` carries the instance
latencies it used so callers do not recompute them.
"""

from __future__ import annotations

import dataclasses
import weakref

from repro.ddg.analysis import tarjan_scc
from repro.machine.config import MachineConfig
from repro.schedule.placed import Instance, PlacedGraph


class OrderError(ValueError):
    """Raised when schedule-time bounds cannot be computed."""


class _GraphCache:
    """II-independent structure of one placed graph."""

    __slots__ = ("ids", "edges", "in_lists", "out_lists", "scc")

    def __init__(self, graph: PlacedGraph) -> None:
        self.ids = [inst.iid for inst in graph.instances()]
        # Node-major flat edge list, matching the historical
        # ``for iid in ids: for edge in graph.out_edges(iid)`` order.
        # ``in_lists`` is derived from the same pass instead of walking
        # ``graph.in_edges`` too; its entries come out src-major rather
        # than insertion-ordered, which is safe because every consumer
        # (dependence windows, earliest starts) reduces over the list
        # with max/min and is order-independent.
        self.edges: list[tuple[int, int, int]] = []
        self.in_lists: dict[int, list[tuple[int, int]]] = {
            iid: [] for iid in self.ids
        }
        self.out_lists: dict[int, list[tuple[int, int]]] = {}
        edges = self.edges
        in_lists = self.in_lists
        for iid in self.ids:
            outs = [(e.dst, e.distance) for e in graph.out_edges(iid)]
            self.out_lists[iid] = outs
            for dst, distance in outs:
                edges.append((iid, dst, distance))
                in_lists[dst].append((iid, distance))
        self.scc = None


_GRAPH_CACHES: "weakref.WeakKeyDictionary[PlacedGraph, _GraphCache]" = (
    weakref.WeakKeyDictionary()
)


def graph_cache(graph: PlacedGraph) -> _GraphCache:
    """The shared structure of ``graph`` (created on first use)."""
    cache = _GRAPH_CACHES.get(graph)
    if cache is None:
        cache = _GraphCache(graph)
        _GRAPH_CACHES[graph] = cache
    return cache


@dataclasses.dataclass
class PlacedAnalysis:
    """ASAP/ALAP bounds of placed instances at a candidate II.

    ``latency`` is the instance latency map the bounds were computed
    with (COPY latency already overridden when requested).
    """

    ii: int
    asap: dict[int, int]
    alap: dict[int, int]
    length: int
    latency: dict[int, int]

    def slack(self, iid: int) -> int:
        """Scheduling freedom of an instance."""
        return self.alap[iid] - self.asap[iid]


def instance_latencies(
    graph: PlacedGraph, machine: MachineConfig, copy_latency_override: int | None = None
) -> dict[int, int]:
    """Latency of every instance; COPY latency optionally overridden.

    The override implements section 5.1's upper-bound experiment: bus
    transfers still occupy bus slots (the II effect is kept) but are
    treated as instantaneous for dependence/length purposes.
    """
    latency = {}
    for inst in graph.instances():
        if inst.is_copy and copy_latency_override is not None:
            latency[inst.iid] = copy_latency_override
        else:
            latency[inst.iid] = graph.latency_of(inst, machine)
    return latency


def placed_analysis(
    graph: PlacedGraph,
    machine: MachineConfig,
    ii: int,
    copy_latency_override: int | None = None,
) -> PlacedAnalysis:
    """Longest-path ASAP/ALAP over instances (bus latency included).

    Raises :class:`OrderError` when the ASAP relaxation diverges (the
    II is below the placed graph's recurrence bound).
    """
    cache = graph_cache(graph)
    ids = cache.ids
    if not ids:
        return PlacedAnalysis(ii=ii, asap={}, alap={}, length=0, latency={})
    latency = instance_latencies(graph, machine, copy_latency_override)
    edges = cache.edges
    rounds = len(ids) + 1

    asap = {iid: 0 for iid in ids}
    for _ in range(rounds):
        changed = False
        for src, dst, distance in edges:
            bound = asap[src] + latency[src] - ii * distance
            if bound > asap[dst]:
                asap[dst] = bound
                changed = True
        if not changed:
            break
    else:
        raise OrderError(f"ASAP diverged at II={ii}: below the recurrence bound")

    length = max(asap[iid] + latency[iid] for iid in ids)
    alap = {iid: length - latency[iid] for iid in ids}
    for _ in range(rounds):
        changed = False
        for src, dst, distance in edges:
            bound = alap[dst] - latency[src] + ii * distance
            if bound < alap[src]:
                alap[src] = bound
                changed = True
        if not changed:
            break
    else:  # pragma: no cover - symmetric to ASAP divergence
        raise OrderError(f"ALAP diverged at II={ii}")

    return PlacedAnalysis(
        ii=ii, asap=asap, alap=alap, length=length, latency=latency
    )


def compute_order(
    graph: PlacedGraph, machine: MachineConfig, ii: int,
    analysis: PlacedAnalysis | None = None,
) -> list[Instance]:
    """Scheduling order with the one-sided-window guarantee.

    Components of the SCC condensation are emitted in topological order
    (among simultaneously-ready components, the most critical — lowest
    slack, then earliest ASAP — goes first); inside a recurrence, nodes
    are emitted by ascending ASAP. Consequently, when the scheduler
    places a node, every already-placed neighbour is a *predecessor*
    unless both sit on the same recurrence — and recurrence windows are
    exactly the ones that widen as the II grows, so a failed attempt is
    always repaired by Figure 2's II bump (or is a genuine recurrence
    limit). A greedier both-sided order would wedge non-recurrence
    nodes into windows no II can open.
    """
    if analysis is None:
        analysis = placed_analysis(graph, machine, ii)
    cache = graph_cache(graph)
    if cache.scc is None:
        ids = cache.ids
        out_lists = cache.out_lists
        components = tarjan_scc(
            ids, lambda u: [dst for dst, _ in out_lists[u]]
        )
        component_of: dict[int, int] = {}
        for index, component in enumerate(components):
            for iid in component:
                component_of[iid] = index

        # Condensation in-degrees for Kahn's algorithm.
        in_degree = [0] * len(components)
        successors: list[set[int]] = [set() for _ in components]
        for src, dst, _ in cache.edges:
            src_c, dst_c = component_of[src], component_of[dst]
            if src_c != dst_c and dst_c not in successors[src_c]:
                successors[src_c].add(dst_c)
                in_degree[dst_c] += 1
        cache.scc = (components, successors, in_degree)
    components, successors, base_in_degree = cache.scc
    in_degree = list(base_in_degree)

    # Priorities are pure per (analysis, component); compute each once
    # instead of re-deriving the mins on every ``ready`` re-sort.
    priorities: dict[int, tuple[int, int, int]] = {}

    def priority(index: int) -> tuple[int, int, int]:
        cached = priorities.get(index)
        if cached is None:
            component = components[index]
            cached = (
                min(analysis.slack(iid) for iid in component),
                min(analysis.asap[iid] for iid in component),
                index,
            )
            priorities[index] = cached
        return cached

    ready = [i for i, degree in enumerate(in_degree) if degree == 0]
    ordered: list[int] = []
    while ready:
        ready.sort(key=priority)
        index = ready.pop(0)
        ordered.extend(
            sorted(
                components[index],
                key=lambda iid: (analysis.asap[iid], analysis.alap[iid], iid),
            )
        )
        for succ in successors[index]:
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)

    return [graph.instance(iid) for iid in ordered]
