"""Power graphs, BFS metrics, twin reduction, and serialization."""

import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powersdim import (Disconnected, Graph, bfs_distances, build_group, chain_analysis,
                       diameter, element_orders, factorize, from_edge_list,
                       graph6_decode, graph6_encode, is_strong_resolving_set, power_graph,
                       reduced_graph, sdim_group, sdim_oracle, to_dot, to_edge_list)
from powersdim.graphs import _distances_to, bit_matrix, bit_rows, has_universal_vertex, sweep
from powersdim.groups import bits

from helpers import (all_pairs_distances, brute_is_strong_resolving,
                     brute_strong_resolving_graph, complement, cone,
                     graph_of_rows, random_cycle_with_chords, random_graph, with_closed_twins)


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# Graph basics


def test_graph_rejects_asymmetry_and_loops():
    with pytest.raises(ValueError):
        graph_of_rows([0b10, 0b00])
    with pytest.raises(ValueError):
        graph_of_rows([0b1])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(ValueError, match="^vertex count must be >= 0$"):
        Graph.from_edges(-1, [])


def test_graph_edges_and_complement():
    g = Graph.from_edges(4, [(0, 1), (2, 3), (0, 1)])  # duplicate collapses
    assert list(g.edges()) == [(0, 1), (2, 3)]
    assert g.edge_count() == 2
    comp = complement(g)
    assert set(comp.edges()) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert complement(comp) == g


def test_from_edges_takes_numpy_integers_and_bools():
    want = Graph.from_edges(4, [(0, 1), (1, 3)])
    assert Graph.from_edges(4, [(np.int64(0), np.uint8(1)), (np.int32(1), 3)]) == want
    assert Graph.from_edges(4, [(False, True), (True, 3)]) == want
    assert Graph.from_edges(4, [(np.False_, np.True_), (np.True_, 3)]) == want
    assert Graph.from_edges(4, np.array([[0, 1], [1, 3]])) == want


# ---------------------------------------------------------------------------
# Bit-matrix layout (rows of several bytes, and sizes at byte boundaries)


@given(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 200]), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_bit_matrix_round_trips_and_matches_the_bits(n, p, seed):
    rng = random.Random(seed)
    rows = random_graph(rng, n, p).rows
    m = bit_matrix(rows, n)
    assert m.shape == (n, n) and m.dtype == bool
    assert m.tolist() == [[bool((row >> v) & 1) for v in range(n)] for row in rows]
    assert bit_rows(m) == rows


def one_cell_flipped(n: int, u: int, v: int) -> np.ndarray:
    """A random symmetric loopless n x n bool matrix with cell (u, v) flipped."""
    m = np.triu(np.random.default_rng(n).random((n, n)) < 0.3, 1)
    m |= m.T
    m[u, v] ^= True
    return m


@pytest.mark.parametrize("build, message", [
    (lambda: graph_of_rows([1 << 64] + [0] * 64), "adjacency is not symmetric"),  # one-way (0, 64)
    (lambda: graph_of_rows([0] * 64 + [1 << 64]), "loop at vertex 64"),
    (lambda: Graph.from_edges(65, [(0, 65)]), "edge (0,65) out of range for n=65"),
    (lambda: Graph.from_edges(65, [(-1, 0)]), "edge (-1,0) out of range for n=65"),
    (lambda: Graph.from_edges(3, [(0.1, 1)]), "edge (0.1,1) has a non-integer endpoint"),
    (lambda: Graph.from_edges(5, [(2.2, 4.0)]), "edge (2.2,4.0) has a non-integer endpoint"),
    (lambda: Graph.from_edges(3, [(0, 1), (0, np.float64(2.0))]),
     "edge (0,2.0) has a non-integer endpoint"),
    # the diagonal is checked before symmetry
    (lambda: graph_of_rows([1 << 64] + [0] * 63 + [1 << 64]), "loop at vertex 64"),
    # at n = 600 a block of the symmetry check is rows 0-435: rows 500 and 590 lie in the second
    (lambda: Graph(one_cell_flipped(600, 500, 590)), "adjacency is not symmetric"),
], ids=["asymmetric-high-byte", "loop", "bit-n", "negative", "float", "floats",
        "numpy-float", "loop-before-asymmetry", "asymmetric-past-the-first-block"])
def test_graph_rejections_keep_their_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@given(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65]), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_from_edges_keeps_the_rows_of_its_matrix(n, p, seed):
    rng = random.Random(seed)
    # both orientations and duplicates, against a matrix set edge by edge
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    g = Graph.from_edges(n, edges)
    m = np.zeros((n, n), bool)
    for u, v in edges:
        m[u, v] = m[v, u] = True
    assert g.matrix.tolist() == m.tolist()
    assert g.rows == bit_rows(m)
    h = graph_of_rows(g.rows)
    assert g == h and hash(g) == hash(h)


# ---------------------------------------------------------------------------
# Power graphs


def test_power_graph_prime_cyclic_is_complete():
    for p in [2, 3, 5, 7]:
        g = power_graph(build_group(f"Z{p}"))
        assert g.edge_count() == p * (p - 1) // 2


def test_power_graph_klein_is_star():
    g = power_graph(build_group("E2^2"))
    assert set(g.edges()) == {(0, 1), (0, 2), (0, 3)}


def test_power_graph_z6_edges():
    g = power_graph(build_group("Z6"))
    # identity and both generators are universal; 2~4; 3 sees only 0, 1, 5
    for universal in (0, 1, 5):
        assert int(g.matrix[universal].sum()) == 5
    assert g.matrix[2, 4]
    assert not g.matrix[2, 3] and not g.matrix[3, 4]


def test_power_graph_identity_universal_and_diameter_le_2():
    for spec in ["Z6", "Z12", "D12", "Q8", "A4", "S4", "Ab[2,6]"]:
        grp = build_group(spec)
        g = power_graph(grp)
        assert int(g.matrix[grp.identity].sum()) == g.n - 1
        assert diameter(g) <= 2


@pytest.mark.parametrize("n, edges, expected", [
    (0, [], False), (1, [], True), (2, [], False), (2, [(0, 1)], True),
])
def test_has_universal_vertex_on_the_smallest_graphs(n, edges, expected):
    assert has_universal_vertex(Graph.from_edges(n, edges)) is expected


@given(st.integers(0, 65), st.sampled_from([0.0, 0.3, 0.9, 1.0]), st.booleans(),
       st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_has_universal_vertex_is_its_definition(n, p, plant, seed):
    rng = random.Random(seed)
    # a vertex joined to every other vertex: one in n - 1 of the distinct pairs given
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    if plant and n:
        apex = rng.randrange(n)
        edges |= {(min(apex, v), max(apex, v)) for v in range(n) if v != apex}
    degree = Counter(v for e in edges for v in e)
    expected = any(degree[v] == n - 1 for v in range(n))
    assert has_universal_vertex(Graph.from_edges(n, sorted(edges))) is expected


# ---------------------------------------------------------------------------
# BFS and diameter


def test_bfs_complete_and_star():
    assert bfs_distances(complete_graph(4), 0) == [0, 1, 1, 1]
    s = star(3)
    assert bfs_distances(s, 0) == [0, 1, 1, 1]
    assert bfs_distances(s, 1) == [1, 0, 2, 2]


def test_bfs_power_graph_z6_from_3():
    g = power_graph(build_group("Z6"))
    d = bfs_distances(g, 3)
    assert d[2] == 2 and d[4] == 2
    assert d[0] == d[1] == d[5] == 1


def test_bfs_unreachable_marker():
    g = graph_of_rows([0b010, 0b001, 0])
    assert bfs_distances(g, 2) == [math.inf, math.inf, 0]


def test_vertex_arguments_are_integers_as_edge_endpoints_are():
    g = power_graph(build_group("Z6"))
    for call, message in [
        (lambda: is_strong_resolving_set(g, [1.0, 2]), "vertex 1.0 is not an integer"),
        (lambda: is_strong_resolving_set(g, [1.5]), "vertex 1.5 is not an integer"),
        (lambda: is_strong_resolving_set(g, [1, np.float64(2.0)]),
         f"vertex {np.float64(2.0)!r} is not an integer"),  # the repr differs by numpy version
        (lambda: is_strong_resolving_set(g, ["1"]), "vertex '1' is not an integer"),
        (lambda: bfs_distances(g, 1.0), "vertex 1.0 is not an integer"),
        (lambda: bfs_distances(g, 6), "vertex 6 out of range"),
        (lambda: is_strong_resolving_set(g, [0, -1]), "vertex -1 out of range"),
    ]:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    # Python and numpy integers and bools pass, as in Graph.from_edges
    for s in [np.int64(1), np.uint8(1), True, np.True_]:
        assert bfs_distances(g, s) == bfs_distances(g, 1)
    assert is_strong_resolving_set(g, [np.int64(0), np.False_, True, np.uint8(2), 3, 4])
    assert not is_strong_resolving_set(g, [True])


def test_diameter():
    assert diameter(complete_graph(5)) == 1
    assert diameter(path_graph(4)) == 3
    assert diameter(Graph.from_edges(1, [])) == 0
    with pytest.raises(Disconnected):
        diameter(Graph.from_edges(2, []))
    with pytest.raises(ValueError):
        diameter(Graph.from_edges(0, []))


@given(st.integers(0, 40), st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]), st.integers(0, 2**32))
@example(n=256, p=0.3, seed=0)  # 257 vertices: still a uint8 matrix
@settings(max_examples=50, deadline=None)
def test_distances_of_a_cone_are_two_minus_adjacency(n, p, seed):
    # p = 0 leaves the base without edges, p = 0.05 mostly disconnected;
    # the cone is connected either way, with diameter <= 2
    rng = random.Random(seed)
    g = cone(rng, random_graph(rng, n, p))
    ref = all_pairs_distances(g)
    targets = rng.sample(range(g.n), rng.randint(0, g.n))  # in any order
    for cols in (list(range(g.n)), targets):
        dist = _distances_to(g, cols)
        assert dist.dtype == np.uint8
        assert dist.tolist() == [[row[t] for t in cols] for row in ref]
    assert diameter(g) == max(map(max, ref))
    assert "sweep" not in g._cache  # read from the adjacency: no search ran


@given(st.integers(1, 60), st.sampled_from([0.0, 0.02, 0.1, 0.3]), st.integers(0, 2**32))
@example(n=520, p=0.0, seed=0)  # a 520-cycle: diameter 260, beyond uint8
@settings(max_examples=40, deadline=None)
def test_distances_without_a_universal_vertex_are_bfs(n, p, seed):
    rng = random.Random(seed)
    g = random_cycle_with_chords(rng, n, p)
    dist, ref = sweep(g)[0], all_pairs_distances(g)
    assert dist.dtype == np.min_scalar_type(n - 1)
    assert dist.tolist() == ref
    assert diameter(g) == max(map(max, ref))
    targets = rng.sample(range(n), rng.randint(0, n))
    assert _distances_to(g, targets).tolist() == [[row[t] for t in targets] for row in ref]


def srg_of_sweep(g: Graph) -> Graph:
    far = sweep(g)[1]
    srg = ~(far | far.T)
    np.fill_diagonal(srg, False)
    return Graph(srg)


@given(st.sampled_from([1, 2, 63, 64, 65, 128, 129]), st.sampled_from([0.0, 0.02, 0.1, 0.3]),
       st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_sweep_matches_bfs_and_the_definition_at_word_boundaries(n, p, seed):
    g = random_cycle_with_chords(random.Random(seed), n, p)
    dist = sweep(g)[0]
    assert dist.dtype == np.min_scalar_type(n - 1)
    assert dist.tolist() == all_pairs_distances(g)
    assert srg_of_sweep(g) == brute_strong_resolving_graph(g)


def test_sweep_in_several_gather_blocks():
    # K_300 minus a perfect matching: 89400 list entries of 5 words each, so
    # the gather takes four blocks; matched pairs are the only ones at
    # distance 2, and the only mutually maximally distant ones
    n = 300
    g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if v != u ^ 1])
    assert sweep(g)[0].tolist() == all_pairs_distances(g)
    assert srg_of_sweep(g) == Graph.from_edges(n, [(u, u + 1) for u in range(0, n, 2)])


def test_sweep_results_are_read_only():
    # both arrays are cached on the graph, so a caller's write would change
    # what every later reader sees
    g = path_graph(5)
    for a in sweep(g):  # dist, then far
        with pytest.raises(ValueError, match="read-only"):
            a[0, 4] = 99
    assert diameter(g) == 4 and sweep(g)[0][0, 4] == 4


@pytest.mark.parametrize("kind, n", [("chords", n) for n in range(20, 61, 4)]
                         + [("path", 50), ("cycle", 45)])
def test_all_pairs_equals_networkx_shortest_paths(kind, n):
    """The sweep's distances on the seeded cycle-plus-chords graphs of the
    networkx cover test, a path and a cycle (none has a universal vertex),
    against networkx's own breadth-first search."""
    nx = pytest.importorskip("networkx")
    g = {"chords": lambda: random_cycle_with_chords(random.Random(n), n, 3 / n),
         "path": lambda: path_graph(n),
         "cycle": lambda: Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])}[kind]()
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(g.edges())
    expected = [[lengths[v] for v in range(n)]
                for _, lengths in sorted(nx.all_pairs_shortest_path_length(G))]
    assert not has_universal_vertex(g)
    assert sweep(g)[0].tolist() == expected
    assert diameter(g) == nx.diameter(G)


UNIVERSAL_GRAPHS = {
    "K1": lambda: complete_graph(1),
    "K2": lambda: complete_graph(2),
    "K7": lambda: complete_graph(7),
    "star": lambda: star(5),
    "cone-empty": lambda: cone(random.Random(1), Graph.from_edges(6, [])),
    "cone-chords": lambda: cone(random.Random(2),
                                random_cycle_with_chords(random.Random(2), 30, 0.1)),
    **{f"power-{spec}": lambda spec=spec: power_graph(build_group(spec))
       for spec in ["Z1", "Z2", "Z6", "S3", "Q8", "E2^3", "A4", "S4"]},
}


@pytest.mark.parametrize("name", UNIVERSAL_GRAPHS)
def test_diameter_with_a_universal_vertex_equals_networkx(name):
    nx = pytest.importorskip("networkx")
    g = UNIVERSAL_GRAPHS[name]()
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    assert has_universal_vertex(g)
    assert diameter(g) == nx.diameter(G)
    assert "sweep" not in g._cache


@given(st.sampled_from(["cone", *UNIVERSAL_GRAPHS]), st.integers(0, 9),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 2**32), st.data())
@settings(max_examples=80, deadline=None)
def test_strong_resolving_check_with_a_universal_vertex_is_its_definition(name, n, p, seed,
                                                                          data):
    # a named graph, or a cone over a random base of n vertices; each is
    # checked on four candidates, whose outside sets R are drawn, hold a
    # universal vertex, are empty and hold one vertex
    rng = random.Random(seed)
    g = cone(rng, random_graph(rng, n, p)) if name == "cone" else UNIVERSAL_GRAPHS[name]()
    apex = rng.choice(np.flatnonzero(g.matrix.sum(1) == g.n - 1).tolist())
    vertices = set(range(g.n))
    drawn = data.draw(st.sets(st.sampled_from(sorted(vertices))), label="candidate")
    lone = data.draw(st.sampled_from(sorted(vertices)), label="R")
    for candidate in (drawn, drawn - {apex}, vertices, vertices - {lone}):
        assert is_strong_resolving_set(g, candidate) == brute_is_strong_resolving(g, candidate)


@pytest.mark.parametrize("n, edges", [
    (3, [(1, 2)]),                  # isolated first vertex
    (3, [(0, 2)]),                  # isolated middle vertex
    (3, [(0, 1)]),                  # isolated last vertex
    (5, [(0, 3), (1, 4), (2, 4)]),  # two components, no isolated vertex
], ids=["first", "middle", "last", "two-components"])
def test_sweep_raises_disconnected(n, edges):
    g = Graph.from_edges(n, edges)
    with pytest.raises(Disconnected):
        sweep(g)
    with pytest.raises(Disconnected):
        _distances_to(g, [0])
    with pytest.raises(Disconnected):
        is_strong_resolving_set(g, range(n))  # an empty R still needs the search
    with pytest.raises(Disconnected):
        diameter(g)
    with pytest.raises(Disconnected):  # a failed search leaves nothing cached
        sweep(g)
    assert "sweep" not in g._cache


# ---------------------------------------------------------------------------
# Twin reduction


def test_reduced_complete_graph():
    red = reduced_graph(complete_graph(6))
    assert red.representatives == [0]
    assert red.quotient.n == 1


def test_reduced_power_graph_z6():
    red = reduced_graph(power_graph(build_group("Z6")))
    assert red.class_members() == [[0, 1, 5], [2, 4], [3]]
    # quotient is a path: 2's class -- 0's class -- 3's class
    q = red.quotient
    assert q.n == 3 and q.edge_count() == 2 and int(q.matrix[0].sum()) == 2


def test_reduced_star_has_singleton_leaf_classes():
    red = reduced_graph(star(3))
    assert red.quotient.n == 4
    assert red.quotient.edge_count() == 3


@given(st.integers(0, 10), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_twin_classes_are_cliques_with_equal_outside_adjacency(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    red = reduced_graph(g)
    # equivalence: same class iff equal closed neighborhoods
    for u in range(n):
        for v in range(n):
            same = red.class_of[u] == red.class_of[v]
            assert same == ((g.rows[u] | 1 << u) == (g.rows[v] | 1 << v))
    for members in red.class_members():
        assert all(g.matrix[u, v] for i, u in enumerate(members) for v in members[i + 1:])
    # representatives are class minima and quotient matches base adjacency
    for c, members in enumerate(red.class_members()):
        assert red.representatives[c] == min(members)
    for a in range(red.quotient.n):
        for b in range(red.quotient.n):
            if a != b:
                assert red.quotient.matrix[a, b] == g.matrix[
                    red.representatives[a], red.representatives[b]]


@given(st.integers(20, 40), st.sampled_from([0.0, 0.05, 0.2]), st.integers(0, 2**32))
@settings(max_examples=15, deadline=None)
def test_quotient_of_twin_blow_ups_joins_classes_iff_representatives_are_adjacent(m, p, seed):
    rng = random.Random(seed)
    # 20..120 vertices, mostly 40..80, so rows span several bytes
    g = with_closed_twins(rng, random_cycle_with_chords(rng, m, p), 3)
    red = reduced_graph(g)
    masks = [g.rows[v] | 1 << v for v in range(g.n)]
    assert red.representatives == sorted({masks.index(mask) for mask in masks})
    assert all(red.representatives[red.class_of[v]] == masks.index(masks[v])
               for v in range(g.n))
    reps = red.representatives
    assert red.quotient.rows == [sum(1 << b for b in range(len(reps))
                                     if b != a and g.matrix[reps[a], reps[b]])
                                 for a in range(len(reps))]


def test_equal_order_elements_are_twins_in_cyclic_power_graphs():
    for n in [6, 12, 24, 30]:
        grp = build_group(f"Z{n}")
        g = power_graph(grp)
        red = reduced_graph(g)
        orders = element_orders(grp)
        for u in range(n):
            for v in range(n):
                if orders[u] == orders[v]:
                    assert red.class_of[u] == red.class_of[v]
        # generators share the identity's class
        gen = next(x for x in range(n) if orders[x] == n)
        assert red.class_of[gen] == red.class_of[grp.identity]


def test_distinct_chain_generators_are_never_twins():
    # chain generators of the same analysis always land in distinct classes
    for spec in ["Q8", "A4", "S4", "D16", "Ab[2,8]", "Ab[4,4]", "Q16"]:
        grp = build_group(spec)
        red = reduced_graph(power_graph(grp))
        orders = element_orders(grp)
        for p, _ in factorize(grp.n).factors:
            for a in chain_analysis(grp, p):
                gens = [min(e for e in bits(m) if orders[e] == m.bit_count()) for m in a.chain]
                classes = [red.class_of[x] for x in gens]
                assert len(set(classes)) == len(classes)


# ---------------------------------------------------------------------------
# Serialization


def test_edge_list_round_trip():
    g = random_graph(random.Random(7), 9, 0.4)
    assert from_edge_list(json.loads(json.dumps(to_edge_list(g)))) == g


def test_edge_list_rejects_bad_payloads():
    with pytest.raises(ValueError):
        from_edge_list({"edges": []})
    with pytest.raises(ValueError):
        from_edge_list({"n": 2, "edges": [[0, 0]]})
    with pytest.raises(ValueError):
        from_edge_list({"n": 2, "edges": [[0, 2]]})
    with pytest.raises(ValueError):
        from_edge_list({"n": -1, "edges": []})


@pytest.mark.parametrize("edges, message", [
    ([[0, 1], [1, 1]], "loop at vertex 1 not allowed"),
    ([[0, 2]], "edge (0,2) out of range for n=2"),
    ([[-1, 0]], "edge (-1,0) out of range for n=2"),
    ([[0, 1.0]], "bad edge entry: [0, 1.0]"),
    ([[0, 1, 1]], "bad edge entry: [0, 1, 1]"),
    ([7], "bad edge entry: 7"),
    # every entry's shape is checked before any range or loop check
    ([[0, 5], "x"], "bad edge entry: 'x'"),
    ([[1, 1], [0, 1.0]], "bad edge entry: [0, 1.0]"),
    # endpoints stay Python ints: an int64 edge array would raise OverflowError
    ([[0, 2**70]], "edge (0,1180591620717411303424) out of range for n=2"),
])
def test_edge_list_error_messages(edges, message):
    with pytest.raises(ValueError) as exc:
        from_edge_list({"n": 2, "edges": edges})
    assert str(exc.value) == message


@pytest.mark.parametrize("payload, message", [
    ({"n": True, "edges": []}, '"n" must be a non-negative integer'),
    ({"n": False, "edges": []}, '"n" must be a non-negative integer'),
    ({"n": 2, "edges": [[True, 0]]}, "bad edge entry: [True, 0]"),
    ({"n": 2, "edges": [[0, False]]}, "bad edge entry: [0, False]"),
    # a bool endpoint is a shape error, found before a loop in an earlier entry
    ({"n": 2, "edges": [[1, 1], [True, 0]]}, "bad edge entry: [True, 0]"),
])
def test_edge_list_rejects_json_booleans(payload, message):
    with pytest.raises(ValueError) as exc:
        from_edge_list(json.loads(json.dumps(payload)))
    assert str(exc.value) == message


def test_graph_keeps_the_matrix_and_checks_it():
    m = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], bool)
    g = Graph(m)
    h = Graph.from_edges(3, [(0, 1), (0, 2)])
    assert g == h and g.matrix is m
    assert not m.flags.writeable and not h.matrix.flags.writeable
    for bad, message in [
        (np.eye(3, dtype=bool), "loop at vertex 0"),
        (np.triu(np.ones((3, 3), bool), 1), "adjacency is not symmetric"),
        (np.zeros((2, 3), bool), "adjacency must be a square bool matrix"),
        (np.zeros((2, 2), np.uint8), "adjacency must be a square bool matrix"),
        ([[False, True], [True, False]], "adjacency must be a square bool matrix"),
        (2, "adjacency must be a square bool matrix"),
    ]:
        with pytest.raises(ValueError) as exc:
            Graph(bad)
        assert str(exc.value) == message


def test_no_package_path_derives_or_seeds_rows(monkeypatch):
    built = []
    init = Graph.__init__

    def recorded(self, m):
        init(self, m)
        built.append(self)

    monkeypatch.setattr(Graph, "__init__", recorded)
    path = from_edge_list({"n": 3, "edges": [[0, 1], [1, 2]]})
    assert sdim_oracle(path).value == 1
    for spec, sdim in [("S4", 22), ("Q16", 14)]:
        grp = build_group(spec)
        start = len(built)
        assert sdim_group(grp, oracle_cap=grp.n).value == sdim
        g = power_graph(grp)
        quotient = reduced_graph(g).quotient
        new = built[start:]
        # the power graph, the quotient and the strong resolving graph
        assert any(h is g for h in new) and any(h is quotient for h in new)
        assert any(h.n == grp.n and h is not g for h in new)
        graph6_encode(g)
        assert from_edge_list(to_edge_list(g)) == g and hash(Graph(g.matrix.copy())) == hash(g)
    assert all("rows" not in h._cache for h in built)
    # rows are derived when first read, then kept
    g = Graph(np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], bool))
    assert g.rows == [0b110, 0b001, 0b001] and g.rows is g.rows


def test_graph6_known_strings():
    assert graph6_encode(Graph.from_edges(0, [])) == "?"
    assert graph6_encode(Graph.from_edges(1, [])) == "@"
    assert graph6_encode(complete_graph(2)) == "A_"
    assert graph6_encode(complete_graph(3)) == "Bw"
    assert graph6_decode("Bw") == complete_graph(3)
    assert graph6_decode(">>graph6<<A_") == complete_graph(2)


@given(st.integers(0, 20), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_graph6_round_trip(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    assert graph6_decode(graph6_encode(g)) == g


@pytest.mark.parametrize("n", range(63))
def test_graph6_matches_networkx(n):
    # n = 2 .. 62 give every bit count mod 6, so every padding of the last character
    nx = pytest.importorskip("networkx")
    rng = random.Random(n)
    for p in [0.0, 0.3, 0.7, 1.0]:
        g = random_graph(rng, n, p)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edges())
        text = nx.to_graph6_bytes(G, header=False).decode().rstrip("\n")
        assert graph6_encode(g) == text
        assert graph6_decode(text) == g


def test_graph6_limits():
    with pytest.raises(ValueError):
        graph6_encode(Graph.from_edges(63, []))
    with pytest.raises(ValueError):
        graph6_decode("~??")
    with pytest.raises(ValueError):
        graph6_decode("")
    with pytest.raises(ValueError):
        graph6_decode("Bwww")


def test_dot_output():
    text = to_dot(star(2), labels=["center", "a", "b"])
    assert text.startswith("graph {")
    assert '0 [label="center"];' in text
    assert "  0 -- 1;" in text and "  0 -- 2;" in text
    with pytest.raises(ValueError):
        to_dot(star(2), labels=["just-one"])
    # backslashes, then double quotes, are escaped
    text = to_dot(star(2), labels=['a"b', "c\\", '\\"'])
    assert '  0 [label="a\\"b"];' in text
    assert '  1 [label="c\\\\"];' in text
    assert '  2 [label="\\\\\\""];' in text
