"""Property-based invariants on scheduling and simulation.

Every loop the generator can produce must compile on every paper
machine, pass the independent verifier, and obey the Texec model — this
is the end-to-end safety net for the whole pipeline.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.ddg.analysis import mii
from repro.machine.config import parse_config, unified_machine
from repro.partition.partition import Partition
from repro.pipeline.driver import Scheme, compile_loop
from repro.schedule.kernel import Kernel, ScheduledOp
from repro.schedule.placed import build_placed_graph
from repro.schedule.registers import max_live
from repro.sim.verifier import verify_kernel
from repro.sim.vliw import simulate
from repro.workloads.generator import LoopSpec, generate_loop

_MACHINES = ["2c1b2l64r", "4c1b2l64r", "4c2b4l64r", "4c2b2l64r"]


@st.composite
def workload_loops(draw):
    """Loops drawn from the synthetic-workload generative model."""
    seed = draw(st.integers(0, 10_000))
    spec = LoopSpec(
        name="prop",
        n_streams=draw(st.integers(2, 5)),
        stream_depth=(1, draw(st.integers(2, 4))),
        shared_values=draw(st.integers(1, 5)),
        shared_fanout=(1, draw(st.integers(1, 4))),
        cross_link_prob=draw(st.floats(0.0, 0.3)),
        recurrence_prob=draw(st.floats(0.0, 0.4)),
        trip_range=(2, 50),
        visit_range=(1, 50),
    )
    return generate_loop(spec, random.Random(seed))


def _onto_unified(ddg, kernel: Kernel) -> Kernel:
    """A baseline kernel moved onto the unified machine.

    Every operation keeps its start cycle and lands in the one cluster;
    the COPY operations are dropped (no buses, no communications).
    """
    machine = unified_machine()
    start = {
        op.instance.origin: op.start
        for op in kernel.ops.values()
        if not op.instance.is_copy
    }
    assert len(start) == len(ddg)  # baseline: one instance per node
    partition = Partition(ddg, dict.fromkeys(ddg.node_ids(), 0), 1)
    graph = build_placed_graph(ddg, partition, machine)
    ops = {
        inst.iid: ScheduledOp(instance=inst, start=start[inst.origin])
        for inst in graph.instances()
    }
    return Kernel(graph=graph, machine=machine, ii=kernel.ii, ops=ops)


#: A 24-node loop whose one recurrence (latency 9, distance 1) is tight
#: at its MII of 9: the unified machine's schedule fails there (II 10)
#: while ``4c1b2l64r`` schedules at 9.
_TIGHT_RECURRENCE = generate_loop(
    LoopSpec(
        name="prop",
        n_streams=3,
        stream_depth=(1, 4),
        shared_values=4,
        shared_fanout=(1, 4),
        cross_link_prob=0.0,
        recurrence_prob=0.25,
        trip_range=(2, 50),
        visit_range=(1, 50),
    ),
    random.Random(733),
)


class TestEndToEndProperties:
    @given(workload_loops(), st.sampled_from(_MACHINES))
    @settings(max_examples=25, deadline=None)
    def test_every_loop_compiles_and_verifies(self, loop, name):
        machine = parse_config(name)
        for scheme in (Scheme.BASELINE, Scheme.REPLICATION):
            result = compile_loop(loop.ddg, machine, scheme=scheme)
            verify_kernel(result.kernel)
            assert result.ii >= result.mii

    @given(workload_loops(), st.sampled_from(_MACHINES))
    @settings(max_examples=25, deadline=None)
    def test_replication_dominates_baseline_ii(self, loop, name):
        machine = parse_config(name)
        base = compile_loop(loop.ddg, machine, scheme=Scheme.BASELINE)
        repl = compile_loop(loop.ddg, machine, scheme=Scheme.REPLICATION)
        assert repl.ii <= base.ii

    @given(workload_loops(), st.sampled_from(_MACHINES))
    @settings(max_examples=20, deadline=None)
    def test_simulation_matches_texec_model(self, loop, name):
        machine = parse_config(name)
        result = compile_loop(loop.ddg, machine, scheme=Scheme.REPLICATION)
        sim = simulate(result.kernel, loop.iterations)
        k = result.kernel
        assert sim.cycles == (loop.iterations - 1 + k.stage_count) * k.ii
        assert sim.useful_ops == len(loop.ddg) * loop.iterations

    @given(workload_loops())
    @example(loop=_TIGHT_RECURRENCE)
    @settings(max_examples=20, deadline=None)
    def test_unified_machine_bounds_clustered_ii(self, loop):
        """The unified machine has a schedule at the clustered II.

        The scheduler places greedily without backtracking, so the II
        it finds is not monotone in the machine's resources. In the
        pinned example the recurrence is tight at II 9, leaving its
        second op one legal cycle, and on the unified machine that
        cycle's modulo slot already holds four FP ops, one per FP unit:
        the unified II is 10 where ``4c1b2l64r`` reaches 9. What holds
        is that both machines share the MII and that the clustered
        kernel, moved onto the unified machine, is a valid unified
        schedule at the same II.
        """
        machine = parse_config("4c1b2l64r")
        clustered = compile_loop(loop.ddg, machine, scheme=Scheme.BASELINE)
        assert mii(loop.ddg, unified_machine()) == clustered.mii
        verify_kernel(_onto_unified(loop.ddg, clustered.kernel))

    @given(workload_loops(), st.sampled_from(_MACHINES))
    @settings(max_examples=20, deadline=None)
    def test_register_pressure_within_files(self, loop, name):
        machine = parse_config(name)
        result = compile_loop(loop.ddg, machine, scheme=Scheme.REPLICATION)
        for cluster, pressure in enumerate(max_live(result.kernel)):
            assert pressure <= machine.registers(cluster)
