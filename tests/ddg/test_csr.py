"""Flattened CSR view, relaxation kernels and the analysis memo."""

from hypothesis import example, given, settings, strategies as st

from repro.ddg.analysis import analysis_memo_stats, analyze, rec_mii
from repro.ddg.builder import DdgBuilder
from repro.ddg.csr import (
    csr_view,
    edge_weights_at,
    has_positive_cycle,
    penalized_length,
    relax_alap,
    relax_asap,
)
from repro.ddg.graph import Ddg, EdgeKind
from repro.machine.config import parse_config
from repro.machine.resources import OpClass

REGISTER_OPS = (OpClass.INT_ARITH, OpClass.FP_ARITH, OpClass.FP_MUL, OpClass.LOAD)


def chain_with_recurrence():
    """i -> a -> b with a loop-carried b -> a back edge."""
    b = DdgBuilder()
    b.int_op("i").int_op("a").int_op("b")
    b.chain("i", "a", "b")
    b.dep("b", "a", distance=1)
    return b.build()


class TestCsrView:
    def test_mirrors_graph_shape(self):
        g = chain_with_recurrence()
        csr = csr_view(g)
        assert csr.n_nodes == len(g)
        assert csr.n_edges == sum(1 for _ in g.edges())
        assert list(csr.uids) == list(g.node_ids())

    def test_preserves_edge_order(self):
        g = chain_with_recurrence()
        csr = csr_view(g)
        for position, edge in enumerate(g.edges()):
            assert csr.uids[csr.edge_src[position]] == edge.src
            assert csr.uids[csr.edge_dst[position]] == edge.dst
            assert csr.edge_distance[position] == edge.distance
            assert csr.edge_is_register[position] == (
                edge.kind is EdgeKind.REGISTER
            )

    def test_adjacency_lists_register_edges_only(self):
        b = DdgBuilder()
        b.load("ld").store("st").int_op("a")
        b.dep("ld", "a")
        b.dep("a", "st")
        b.mem_dep("st", "ld", distance=1)
        g = b.build()
        csr = csr_view(g)
        st = csr.index[g.node_by_name("st").uid]
        assert csr.reg_out_neighbours(st) == ()  # MEMORY edge excluded
        a = csr.index[g.node_by_name("a").uid]
        assert csr.reg_out_neighbours(a) == (st,)

    def test_cached_until_mutation(self):
        g = chain_with_recurrence()
        first = csr_view(g)
        assert csr_view(g) is first
        g.add_node("late", g.node_by_name("a").op_class)
        assert csr_view(g) is not first
        assert csr_view(g).n_nodes == len(g)


@st.composite
def kernel_cases(draw):
    """A random loop body plus kernel arguments.

    Graphs range from a lone node to dense cyclic bodies (loop-carried
    edges may close any cycle, self loops included); round budgets
    include ones too small to converge, where the partial result
    depends on the order edges are visited in.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    ddg = Ddg("prop")
    nodes = [
        ddg.add_node(f"n{i}", draw(st.sampled_from(REGISTER_OPS)))
        for i in range(n)
    ]
    for dst in range(1, n):
        for src in draw(
            st.lists(st.integers(0, dst - 1), max_size=3, unique=True)
        ):
            kind = draw(st.sampled_from((EdgeKind.REGISTER, EdgeKind.MEMORY)))
            ddg.add_edge(nodes[src], nodes[dst], distance=0, kind=kind)
    for _ in range(draw(st.integers(0, 3))):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        ddg.add_edge(nodes[src], nodes[dst], distance=draw(st.integers(1, 2)))

    ii = draw(st.integers(1, 6))
    rounds = draw(
        st.sampled_from((0, 1, 2, max(1, n // 2), n, n + 1, 2 * n + 2))
    )
    cluster = [draw(st.integers(0, 3)) for _ in range(n)]
    bus_latency = draw(st.integers(0, 4))
    start = [draw(st.integers(0, 24))] * n
    return ddg, ii, rounds, cluster, bus_latency, start


def chain_case():
    """The recurrence chain at its RecMII, split over two clusters."""
    g = chain_with_recurrence()
    cluster = [i % 2 for i in range(len(g))]
    bus_latency = parse_config("2c1b2l64r").bus.latency
    start = [0] * len(g)
    return g, rec_mii(g), len(g) + 1, cluster, bus_latency, start


def dict_relax(edges, dist, rounds, backward=False):
    """Gauss-Seidel longest-path relaxation over uid-keyed dicts.

    ``edges`` are (src uid, dst uid, weight) in graph order. Returns the
    distances and whether they converged within ``rounds``.
    """
    for _ in range(rounds):
        changed = False
        for src, dst, weight in edges:
            if backward:
                bound = dist[dst] - weight
                if bound < dist[src]:
                    dist[src] = bound
                    changed = True
            else:
                bound = dist[src] + weight
                if bound > dist[dst]:
                    dist[dst] = bound
                    changed = True
        if not changed:
            return dist, True
    return dist, False


def dict_edges(ddg, ii, cluster=None, bus_latency=0):
    """Edge weights computed straight off the graph, bus penalty included."""
    home = dict(zip(ddg.node_ids(), cluster)) if cluster else {}
    edges = []
    for edge in ddg.edges():
        weight = ddg.node(edge.src).latency - ii * edge.distance
        if (
            home
            and edge.kind is EdgeKind.REGISTER
            and home[edge.src] != home[edge.dst]
        ):
            weight += bus_latency
        edges.append((edge.src, edge.dst, weight))
    return edges


class TestKernels:
    def test_positive_cycle_matches_rec_mii(self):
        g = chain_with_recurrence()
        bound = rec_mii(g)
        csr = csr_view(g)
        assert not has_positive_cycle(csr, bound)
        if bound > 1:
            assert has_positive_cycle(csr, bound - 1)

    @settings(max_examples=200, deadline=None)
    @given(case=kernel_cases())
    @example(case=chain_case())
    def test_penalized_length_matches_dict_reference(self, case):
        g, ii, rounds, cluster, bus_latency, _ = case
        uids = list(g.node_ids())
        start, _ = dict_relax(
            dict_edges(g, ii, cluster, bus_latency),
            {uid: 0 for uid in uids},
            rounds,
        )
        expected = max(start[uid] + g.node(uid).latency for uid in uids)

        csr = csr_view(g)
        assert penalized_length(csr, cluster, bus_latency, ii, rounds) == expected

    @settings(max_examples=200, deadline=None)
    @given(case=kernel_cases())
    @example(case=chain_case())
    def test_relaxations_match_dict_reference(self, case):
        g, ii, rounds, _, _, start = case
        uids = list(g.node_ids())
        edges = dict_edges(g, ii)
        csr = csr_view(g)
        weights = edge_weights_at(csr, ii)

        asap, converged = dict_relax(edges, {uid: 0 for uid in uids}, rounds)
        expected = [asap[uid] for uid in uids] if converged else None
        assert relax_asap(csr, weights, rounds) == expected

        alap, converged = dict_relax(
            edges, dict(zip(uids, start)), rounds, backward=True
        )
        expected = [alap[uid] for uid in uids] if converged else None
        assert relax_alap(csr, weights, start, rounds) == expected

        _, converged = dict_relax(edges, {uid: 0 for uid in uids}, len(uids))
        assert has_positive_cycle(csr, ii) is not converged


class TestAnalysisMemo:
    def test_repeat_analyze_hits_the_memo(self):
        g = chain_with_recurrence()
        ii = rec_mii(g)
        first = analyze(g, ii)
        assert analyze(g, ii) is first  # shared memoized object
        assert analysis_memo_stats(g).hits >= 1

    def test_mutation_invalidates_but_keeps_stats(self):
        g = chain_with_recurrence()
        ii = rec_mii(g)
        first = analyze(g, ii)
        hits_before = analysis_memo_stats(g).hits
        g.add_node("late", g.node_by_name("a").op_class)
        assert analyze(g, ii) is not first
        assert analysis_memo_stats(g).hits == hits_before

    def test_distinct_iis_are_distinct_entries(self):
        g = chain_with_recurrence()
        ii = rec_mii(g)
        assert analyze(g, ii).length >= 1
        assert analyze(g, ii + 1) is not analyze(g, ii)
