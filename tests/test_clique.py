"""Exact clique and vertex cover against exhaustive enumeration."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from powersdim import CORPUS_SPECS, Graph, build_group, max_clique, min_vertex_cover, \
    power_graph, reduced_graph, sigma_of, strong_resolving_graph

from helpers import (brute_force_clique_number, complement, forward_brute_force_clique_number,
                     graph_of_rows, is_clique, random_cycle_with_chords, random_graph,
                     ref_max_clique, ref_min_vertex_cover)


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_max_clique_basics():
    assert max_clique(Graph.from_edges(0, [])) == max_clique(Graph.from_edges(0, []))
    assert max_clique(Graph.from_edges(0, [])) == ()
    assert len(max_clique(Graph.from_edges(3, []))) == 1    # no edges: a single vertex
    assert max_clique(complete_graph(5)) == (0, 1, 2, 3, 4)
    assert len(max_clique(cycle_graph(5))) == 2    # triangle-free


def test_max_clique_members_form_a_maximum_clique():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 12))
        res = max_clique(g)
        assert is_clique(g, res)
        assert len(res) == brute_force_clique_number(g)


def test_max_clique_reduced_power_graph_z12():
    red = reduced_graph(power_graph(build_group("Z12")))
    res = max_clique(red.quotient)
    assert len(res) == 3 == sigma_of(12)
    assert len(res) == brute_force_clique_number(red.quotient)


def test_max_clique_determinism():
    rng = random.Random(5)
    g = random_graph(rng, 14)
    first = max_clique(g)
    for _ in range(3):
        again = max_clique(graph_of_rows(list(g.rows)))
        assert again == first


@given(st.integers(0, 13), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_max_clique_matches_brute_force(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    assert len(max_clique(g)) == brute_force_clique_number(g)


@given(st.integers(40, 80), st.sampled_from([0.0, 0.03, 0.06]), st.integers(0, 7),
       st.integers(0, 2**32))
@settings(max_examples=15, deadline=None)
def test_max_clique_on_multi_byte_rows(n, p, planted, seed):
    rng = random.Random(seed)
    # a planted clique on random vertices, one of them the last, in the highest byte
    g = random_cycle_with_chords(rng, n, p)
    members = rng.sample(range(n - 1), planted - 1) + [n - 1] if planted else []
    g = graph_of_rows([row | sum(1 << w for w in members if w != v) if v in members else row
                       for v, row in enumerate(g.rows)])
    res = max_clique(g)
    assert len(res) == forward_brute_force_clique_number(g)
    assert list(res) == sorted(set(res))
    assert is_clique(g, res)


def test_min_vertex_cover_examples():
    assert len(min_vertex_cover(complete_graph(4))) == 3
    assert len(min_vertex_cover(cycle_graph(4))) == 2
    star = Graph.from_edges(7, [(0, i) for i in range(1, 7)])
    assert min_vertex_cover(star) == [0]
    assert min_vertex_cover(Graph.from_edges(4, [])) == []


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # a 1500-clique is found 1500 levels deep, beyond the default recursion limit
    n = 1500
    full = (1 << n) - 1
    k = graph_of_rows([full & ~(1 << v) for v in range(n)])
    res = max_clique(k)
    assert res == tuple(range(n))
    assert min_vertex_cover(complement(k)) == []


@given(st.integers(0, 12), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_cover_valid_and_complementary_to_mis(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    cover = min_vertex_cover(g)
    in_cover = set(cover)
    for u, v in g.edges():
        assert u in in_cover or v in in_cover
    # |cover| + max independent set = n
    mis = len(max_clique(complement(g)))
    assert len(cover) + mis == g.n


# ---------------------------------------------------------------------------
# The search is pinned: the same clique members and the same
# cover as the reference search in helpers.py


def assert_same_search(g: Graph) -> None:
    assert max_clique(g) == ref_max_clique(g)
    assert max_clique(complement(g)) == ref_max_clique(complement(g))
    assert min_vertex_cover(g) == ref_min_vertex_cover(g)


@given(st.integers(0, 80), st.floats(0.05, 0.95), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_search_equals_the_reference_on_random_graphs(n, p, seed):
    assert_same_search(random_graph(random.Random(seed), n, p))


@pytest.mark.parametrize("n", [63, 64, 65, 80])
@pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
def test_search_equals_the_reference_on_rows_at_word_boundaries(n, p):
    for seed in range(3):
        assert_same_search(random_graph(random.Random(seed), n, p))


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_search_equals_the_reference_on_corpus_quotients_and_srgs(spec):
    graph = power_graph(build_group(spec))
    quotient = reduced_graph(graph).quotient
    assert max_clique(quotient) == ref_max_clique(quotient)
    srg = strong_resolving_graph(graph)
    assert max_clique(complement(srg)) == ref_max_clique(complement(srg))
    assert min_vertex_cover(srg) == ref_min_vertex_cover(srg)


# ---------------------------------------------------------------------------
# An independent oracle: networkx's own exact clique search


def _networkx_clique_number(nx, g: Graph) -> int:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return nx.max_weight_clique(G, weight=None)[1]


def test_clique_number_equals_networkx_on_corpus_quotients():
    nx = pytest.importorskip("networkx")
    for spec in CORPUS_SPECS:
        quotient = reduced_graph(power_graph(build_group(spec))).quotient
        assert len(max_clique(quotient)) == _networkx_clique_number(nx, quotient), spec


@pytest.mark.parametrize("n", range(20, 61, 4))
def test_cover_equals_networkx_on_srgs_of_cycles_with_chords(n):
    nx = pytest.importorskip("networkx")
    srg = strong_resolving_graph(random_cycle_with_chords(random.Random(n), n, 3 / n))
    omega = _networkx_clique_number(nx, complement(srg))
    assert len(max_clique(complement(srg))) == omega
    assert len(min_vertex_cover(srg)) == n - omega
