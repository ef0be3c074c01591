from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancores import core_decomposition, innermost_core
from .conftest import fixed_point_core, innermost_of, k_core


def random_static_graph(rng: random.Random, max_vertices: int = 50):
    n = rng.randint(1, max_vertices)
    p = rng.uniform(0.02, 0.5)
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    return n, frozenset(edges)


class TestCoreDecomposition:
    def test_triangle_plus_pendant(self):
        labeling = core_decomposition(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert labeling.coreness == {3: 1, 0: 2, 1: 2, 2: 2}
        assert labeling.max_order == 2
        assert k_core(labeling, 1) == frozenset({0, 1, 2, 3})
        assert k_core(labeling, 2) == frozenset({0, 1, 2})

    def test_isolated_vertices_get_no_entry(self):
        labeling = core_decomposition(range(5), [(0, 1)])
        assert set(labeling.coreness) == {0, 1}

    def test_edgeless_graph(self):
        labeling = core_decomposition(range(3), [])
        assert labeling.coreness == {}
        assert labeling.max_order == 0

    def test_rejects_stray_endpoint(self):
        with pytest.raises(ValueError, match="outside the input set"):
            core_decomposition([0, 1], [(0, 2)])

    def test_non_contiguous_vertex_ids(self):
        labeling = core_decomposition([5, 9, 40], [(5, 9), (9, 40), (5, 40)])
        assert labeling.coreness == {5: 2, 9: 2, 40: 2}

    def test_only_asks_the_vertex_set_for_membership(self):
        # A vertex set far larger than the graph, which refuses iteration:
        # the kernel may only test its endpoints against it.
        class MembershipOnly:
            def __init__(self, n):
                self.ids = range(n)

            def __contains__(self, u):
                return u in self.ids

            def __iter__(self):
                raise AssertionError("the kernel iterated the vertex set")

        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (7, 8)]
        labeling = core_decomposition(MembershipOnly(10**9), edges)
        assert labeling == core_decomposition(range(9), edges)
        assert labeling.coreness == {0: 2, 1: 2, 2: 2, 3: 1, 7: 1, 8: 1}
        with pytest.raises(ValueError, match="outside the input set"):
            core_decomposition(MembershipOnly(8), edges)

    def test_path_peels_into_the_bucket_being_walked(self):
        # Peeling end vertex 0 lowers vertex 1 from degree 2 into bucket 1,
        # the bucket being walked, and leaves a stale entry in bucket 2.
        labeling = core_decomposition(range(4), [(0, 1), (1, 2), (2, 3)])
        assert labeling.coreness == {0: 1, 1: 1, 2: 1, 3: 1}
        assert labeling.max_order == 1

    def test_matches_fixed_point_oracle(self):
        # The kernel asks the vertex set only for membership; its adjacency,
        # and with it the peel order inside a degree bucket, follows the
        # edge order. So each graph goes in as given, with its edges
        # shuffled and some turned (v, u), and renamed to non-contiguous ids
        # in a frozenset.
        rng = random.Random(97)
        order_rng = random.Random(98)
        for _ in range(60):
            n, edges = random_static_graph(rng)
            expected = {}
            k = 1
            while core := fixed_point_core(n, edges, k):
                expected.update(dict.fromkeys(core, k))
                k += 1
            shuffled = [(v, u) if order_rng.random() < 0.5 else (u, v) for u, v in edges]
            order_rng.shuffle(shuffled)
            ids = order_rng.sample(range(10 * n), n)  # vertex u is renamed ids[u]
            renamed_edges = [(ids[u], ids[v]) for u, v in edges]
            for vertices, graph_edges, name in ((range(n), edges, range(n)),
                                                (range(n), shuffled, range(n)),
                                                (frozenset(ids), renamed_edges, ids)):
                labeling = core_decomposition(vertices, graph_edges)
                assert labeling.coreness == {name[u]: c for u, c in expected.items()}
                assert labeling.max_order == k - 1

    def test_every_member_meets_the_degree_bound(self):
        rng = random.Random(3)
        for _ in range(30):
            n, edges = random_static_graph(rng, max_vertices=20)
            labeling = core_decomposition(range(n), edges)
            for k in range(1, labeling.max_order + 1):
                members = k_core(labeling, k)
                for u in members:
                    inside = sum(1 for a, b in edges
                                 if (a == u and b in members) or (b == u and a in members))
                    assert inside >= k


def peel_candidates(n: int, edges, bound: int) -> tuple[int, frozenset[int]]:
    """innermost_core on a static graph's vertices of degree above `bound`.

    Hands the kernel adjacency lists as the direct engine's replay keeps
    them, and checks that the scratch list is all zeros again.
    """
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    candidates = [u for u in range(n) if len(adjacency[u]) > bound]
    work = [0] * n
    result = innermost_core(candidates, adjacency, bound, work)
    assert work == [0] * n
    return result


@st.composite
def bounded_static_graphs(draw):
    n = draw(st.integers(1, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=40) if pairs else st.just(set()))
    return n, edges, draw(st.integers(0, 5))


class TestInnermostCore:
    def test_edgeless_is_zero_empty(self):
        assert peel_candidates(4, [], 0) == (0, frozenset())

    def test_fixture_interval(self):
        triangle_pendant = [(0, 1), (1, 2), (0, 2), (2, 3)]
        assert peel_candidates(4, triangle_pendant, 0) == (2, frozenset({0, 1, 2}))
        # Bound 1 leaves the pendant out of the candidates.
        assert peel_candidates(4, triangle_pendant, 1) == (2, frozenset({0, 1, 2}))

    def test_candidate_without_candidate_neighbours_gets_no_coreness(self):
        # Star centre 3 has degree 3, but its leaves sit at the bound, so its
        # induced degree is 0: alone it makes no core, and beside a triangle
        # it must not lift the order to its degree.
        star = [(3, 4), (3, 5), (3, 6)]
        assert peel_candidates(7, star, 1) == (0, frozenset())
        triangle = [(0, 1), (1, 2), (0, 2)]
        assert peel_candidates(7, triangle + star, 1) == (2, frozenset({0, 1, 2}))

    def test_is_top_core_of_decomposition(self):
        rng = random.Random(41)
        for _ in range(30):
            n, edges = random_static_graph(rng, max_vertices=25)
            order, members = peel_candidates(n, edges, 0)
            labeling = core_decomposition(range(n), edges)
            assert order == labeling.max_order
            assert members == k_core(labeling, order) if order else members == frozenset()

    @settings(max_examples=300, deadline=None)
    @given(bounded_static_graphs())
    def test_matches_the_filtered_subgraph(self, graph):
        n, edges, bound = graph
        degree = Counter(u for edge in edges for u in edge)
        candidates = [u for u in range(n) if degree[u] > bound]
        subgraph = [e for e in edges if degree[e[0]] > bound and degree[e[1]] > bound]
        assert peel_candidates(n, edges, bound) == innermost_of(candidates, subgraph)
