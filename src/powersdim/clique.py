"""Exact maximum clique and minimum vertex cover on small graphs.

Branch and bound over bitset candidate sets with a greedy-coloring upper
bound, searching in descending-degree order.  Sized for the few-hundred-
vertex graphs that arise here; exactness is mandatory because downstream
identities are equalities, not bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bit_matrix, bit_rows


@dataclass(frozen=True)
class CliqueResult:
    size: int
    members: tuple[int, ...]  # sorted ascending


def max_clique(graph: Graph) -> CliqueResult:
    """Exact maximum clique; deterministic for identical input bits.

    The search runs on a relabelled copy of the adjacency, taken as one
    bool-matrix permutation m[order][:, order] of its rows and columns."""
    n = graph.n
    if n == 0:
        return CliqueResult(0, ())
    # relabel so lower internal index = higher degree (ties by vertex index)
    order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
    adj = bit_rows(bit_matrix(graph.rows, n).take(order, 0).take(order, 1))

    best_size = 0
    best: list[int] = []
    current: list[int] = []

    def expand(cand: int) -> None:
        nonlocal best_size, best
        # greedy coloring: same color class => pairwise non-adjacent, so a
        # clique inside the first c classes has at most c vertices
        order_list: list[int] = []
        bound_list: list[int] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            cls = rest
            while cls:
                v = (cls & -cls).bit_length() - 1
                cls &= ~(adj[v] | (1 << v))
                rest &= ~(1 << v)
                order_list.append(v)
                bound_list.append(color)
        for i in range(len(order_list) - 1, -1, -1):
            if len(current) + bound_list[i] <= best_size:
                return
            v = order_list[i]
            current.append(v)
            nxt = cand & adj[v]
            if nxt:
                expand(nxt)
            elif len(current) > best_size:
                best_size = len(current)
                best = current.copy()
            current.pop()
            cand &= ~(1 << v)

    expand((1 << n) - 1)
    return CliqueResult(best_size, tuple(sorted(order[v] for v in best)))


def min_vertex_cover(graph: Graph) -> list[int]:
    """Exact minimum vertex cover: the complement of a maximum independent
    set, found as a maximum clique of the complement graph."""
    independent = set(max_clique(graph.complement()).members)
    return [v for v in range(graph.n) if v not in independent]
