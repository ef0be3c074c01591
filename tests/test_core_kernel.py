from __future__ import annotations

import random

import pytest

from spancores import core_decomposition, innermost_core
from .conftest import fixed_point_core, k_core


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

    def test_path_peels_into_the_bucket_being_walked(self):
        # Peeling end vertex 0 lowers vertex 1 from degree 2 into bucket 1,
        # the bucket being walked, and leaves a stale entry in bucket 2.
        labeling = core_decomposition(range(4), [(0, 1), (1, 2), (2, 3)])
        assert labeling.coreness == {0: 1, 1: 1, 2: 1, 3: 1}
        assert labeling.max_order == 1

    def test_matches_fixed_point_oracle(self):
        # The order vertices are handed in sets the peel order inside a
        # degree bucket, so each graph goes in as a range, as a shuffled
        # list, and renamed to non-contiguous ids in a frozenset.
        rng = random.Random(97)
        order_rng = random.Random(98)
        for _ in range(60):
            n, edges = random_static_graph(rng)
            expected = {}
            k = 1
            while core := fixed_point_core(n, edges, k):
                expected.update(dict.fromkeys(core, k))
                k += 1
            shuffled = list(range(n))
            order_rng.shuffle(shuffled)
            ids = order_rng.sample(range(10 * n), n)  # vertex u is renamed ids[u]
            renamed_edges = [(ids[u], ids[v]) for u, v in edges]
            for vertices, graph_edges, name in ((range(n), edges, range(n)),
                                                (shuffled, edges, range(n)),
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


class TestInnermostCore:
    def test_edgeless_is_zero_empty(self):
        assert innermost_core(range(4), []) == (0, frozenset())

    def test_fixture_interval(self):
        order, members = innermost_core(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert order == 2
        assert members == frozenset({0, 1, 2})

    def test_is_top_core_of_decomposition(self):
        rng = random.Random(41)
        for _ in range(30):
            n, edges = random_static_graph(rng, max_vertices=25)
            order, members = innermost_core(range(n), edges)
            labeling = core_decomposition(range(n), edges)
            assert order == labeling.max_order
            assert members == k_core(labeling, order) if order else members == frozenset()
