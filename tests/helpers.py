"""Independent brute-force oracles and random-instance generators for tests.

Everything here deliberately avoids the library's search code paths: clique
numbers come from exhaustive subset enumeration, minimum strong resolving
sets from exhaustive subset search over the definitional check.
"""

from __future__ import annotations

import itertools
import math
from random import Random

from powersdim import Graph, bfs_distances


def brute_force_clique_number(graph: Graph) -> int:
    """Exhaustive scan of all 2^n subsets (subset DP on one-vertex removals)."""
    n = graph.n
    if n == 0:
        return 0
    rows = graph.rows
    is_clique = bytearray(1 << n)
    is_clique[0] = 1
    best = 0
    for s in range(1, 1 << n):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        if is_clique[rest] and rest & ~rows[v] == 0:
            is_clique[s] = 1
            size = s.bit_count()
            if size > best:
                best = size
    return best


def all_pairs_distances(graph: Graph) -> list[list]:
    return [bfs_distances(graph, v) for v in range(graph.n)]


def resolves(dist, w: int, u: int, v: int) -> bool:
    duv = dist[u][v]
    return dist[w][u] == dist[w][v] + duv or dist[w][v] == dist[w][u] + duv


def brute_is_strong_resolving(graph: Graph, subset) -> bool:
    """Definitional check written independently of the library's version."""
    dist = all_pairs_distances(graph)
    if any(math.inf in row for row in dist):
        raise ValueError("disconnected")
    members = list(subset)
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if not any(resolves(dist, w, u, v) for w in members):
                return False
    return True


def brute_strong_resolving_graph(graph: Graph) -> Graph:
    """Mutually maximally distant pairs from the definition: u and v are
    joined iff no neighbour of v is farther from u than v is, and no
    neighbour of u is farther from v than u is."""
    dist = all_pairs_distances(graph)
    n = graph.n

    def maximally_distant(u: int, v: int) -> bool:
        return all(dist[u][w] <= dist[u][v] for w in range(n) if graph.has_edge(v, w))

    return Graph.from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                if maximally_distant(u, v) and maximally_distant(v, u)])


def brute_sdim(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """Smallest strong resolving set by exhaustive subset search (tiny graphs)."""
    vertices = list(range(graph.n))
    for k in range(graph.n + 1):
        for subset in itertools.combinations(vertices, k):
            if brute_is_strong_resolving(graph, subset):
                return k, subset
    raise AssertionError("the full vertex set always resolves")


def brute_perm_table(perms) -> list[list[int]]:
    """Row a, column b holds the index of the composition a.b, x -> a[b[x]]."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[i]] for i in range(len(b)))] for b in perms] for a in perms]


def is_clique(graph: Graph, vertices) -> bool:
    vs = list(vertices)
    return all(graph.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1:])


def pairwise_distinct_closed_neighborhoods(graph: Graph, vertices) -> bool:
    masks = [graph.closed_mask(v) for v in vertices]
    return len(set(masks)) == len(masks)


def random_graph(rng: Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_cycle_with_chords(rng: Random, n: int, p: float) -> Graph:
    """Connected graph: a Hamiltonian cycle in random order plus each other
    pair as a chord with probability p (p = 0 gives diameter n // 2, p = 1
    the complete graph)."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1]) if a != b}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return Graph.from_edges(n, sorted(edges))


def random_diameter2_graph(rng: Random, n: int, p: float = 0.4) -> Graph:
    """Random graph on n-1 vertices plus a universal vertex: connected, diameter <= 2."""
    assert n >= 1
    edges = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1) if rng.random() < p]
    edges += [(u, n - 1) for u in range(n - 1)]
    return Graph.from_edges(n, edges)
