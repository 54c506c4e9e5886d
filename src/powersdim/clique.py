"""Exact maximum clique and minimum vertex cover on small graphs.

Branch and bound over bitset candidate sets with a greedy-coloring upper
bound (MCQ, Tomita & Kameda, J. Global Optim. 37, 2007), searching in
descending-degree order.  Each vertex's non-neighbour mask is computed once
per search, so a color class is one AND per vertex; classes too low to
beat the best clique are colored but not recorded, since the bound would
reject their vertices at once.  The vertex cover is the complement of a
maximum clique of the complement graph.  Sized for the few-hundred-vertex
graphs that arise here; exactness is mandatory because downstream
identities are equalities, not bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bit_rows


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
    full = (1 << n) - 1
    adj = bit_rows(graph.matrix.take(order, 0).take(order, 1))
    nadj = [full ^ row ^ 1 << v for v, row in enumerate(adj)]  # non-neighbours

    def greedy_coloring(cand: int, kmin: int) -> tuple[list[int], list[int]]:
        # greedy coloring: same color class => pairwise non-adjacent, so a
        # clique inside the first c classes has at most c vertices.  Classes
        # below kmin are colored but not recorded: their vertices cannot
        # extend the current clique beyond the best one.
        vs: list[int] = []
        bounds: list[int] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            cls = rest
            if color < kmin:
                while cls:
                    low = cls & -cls
                    cls &= nadj[low.bit_length() - 1]
                    rest ^= low
                continue
            while cls:
                low = cls & -cls
                v = low.bit_length() - 1
                cls &= nadj[v]
                rest ^= low
                vs.append(v)
                bounds.append(color)
        return vs, bounds

    # Depth-first search with an explicit stack, so clique size is not
    # bounded by the interpreter's recursion limit.  At each level the
    # vertices are tried from the last colored down, and the level ends
    # once the color bound cannot beat the best clique found.
    best_size = 0
    best: list[int] = []
    current: list[int] = []
    stack: list[tuple[int, list[int], list[int], int]] = []
    cand = full
    vs, bounds = greedy_coloring(cand, 1)
    i = len(vs) - 1
    while True:
        if i >= 0 and len(current) + bounds[i] > best_size:
            v = vs[i]
            current.append(v)
            nxt = cand & adj[v]
            if nxt:
                stack.append((cand, vs, bounds, i))
                cand = nxt
                vs, bounds = greedy_coloring(cand, best_size - len(current) + 1)
                i = len(vs) - 1
                continue
            if len(current) > best_size:
                best_size = len(current)
                best = current.copy()
        elif stack:
            cand, vs, bounds, i = stack.pop()
            v = vs[i]  # the vertex this level had added to current
        else:
            break
        current.pop()
        cand ^= 1 << v
        i -= 1

    return CliqueResult(best_size, tuple(sorted(order[v] for v in best)))


def min_vertex_cover(graph: Graph) -> list[int]:
    """Exact minimum vertex cover: the complement of a maximum independent
    set, found as a maximum clique of the complement graph."""
    independent = set(max_clique(graph.complement()).members)
    return [v for v in range(graph.n) if v not in independent]
