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

    def test_matches_fixed_point_oracle(self):
        rng = random.Random(97)
        for _ in range(60):
            n, edges = random_static_graph(rng)
            labeling = core_decomposition(range(n), edges)
            k = 1
            while True:
                expected = fixed_point_core(n, edges, k)
                assert k_core(labeling, k) == expected
                if not expected:
                    break
                k += 1
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
