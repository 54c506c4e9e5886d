"""Exact maximum clique and minimum vertex cover on small graphs.

Branch and bound over bitset candidate sets with a greedy-coloring upper
bound (MCQ, Tomita & Kameda, J. Global Optim. 37, 2007), searching in
descending-degree order.  Each vertex's non-neighbour mask is computed once
per search, so a color class is one AND per vertex; classes too low to
beat the best clique are colored but not recorded, since the bound would
reject their vertices at once.  The best size starts one below a greedy
clique's, so below the clique number: the floor prunes only branches that
cannot reach a maximum clique, and the first maximum clique recorded is the
one a search from 0 records.  The vertex cover is the complement of a
maximum clique of the complement graph, searched on the graph's own rows,
the complement's non-neighbour masks.  Sized for the few-hundred-vertex
graphs that arise here; exactness is mandatory because downstream
identities are equalities, not bounds.
"""

from __future__ import annotations

from .graphs import Graph, bit_rows

__all__ = ["max_clique", "min_vertex_cover"]


def _search(adj: list[int], nadj: list[int]) -> list[int]:
    """The first maximum clique found in the graph with rows adj and
    non-neighbour masks nadj (the vertex itself excluded)."""

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

    # the floor: a greedy clique of first candidates, less one vertex
    full = cand = (1 << len(adj)) - 1
    best_size = -1
    while cand:
        best_size += 1
        cand &= adj[(cand & -cand).bit_length() - 1]

    # Depth-first search with an explicit stack, so clique size is not
    # bounded by the interpreter's recursion limit.  At each level the
    # vertices are tried from the last colored down, and the level ends
    # once the color bound cannot beat the best clique found.
    best: list[int] = []
    current: list[int] = []
    stack: list[tuple[int, list[int], list[int], int]] = []
    cand = full
    vs, bounds = greedy_coloring(cand, best_size + 1)
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
    return best


def _relabel(graph: Graph, descending: bool) -> tuple[list[int], list[int], list[int]]:
    """(order, rows, non-neighbour masks) of graph relabelled by degree,
    ascending or descending, ties by index, as one bool-matrix permutation
    m[order][:, order]."""
    deg = (-graph.matrix.sum(1) if descending else graph.matrix.sum(1)).tolist()
    order = sorted(range(graph.n), key=deg.__getitem__)  # stable: ties by index
    rows = bit_rows(graph.matrix.take(order, 0).take(order, 1))
    full = (1 << graph.n) - 1
    return order, rows, [full ^ row ^ 1 << v for v, row in enumerate(rows)]


def max_clique(graph: Graph) -> tuple[int, ...]:
    """Exact maximum clique, its members ascending; deterministic for identical
    input bits.  The search runs on the rows relabelled by descending degree,
    ties by index."""
    order, adj, nadj = _relabel(graph, descending=True)
    return tuple(sorted(order[v] for v in _search(adj, nadj)))


def min_vertex_cover(graph: Graph) -> list[int]:
    """Exact minimum vertex cover: the vertices outside a maximum clique of
    the complement.  Ascending degree, ties by index, is the complement's
    descending-degree order, and no complement graph is built."""
    order, rows, nrows = _relabel(graph, descending=False)
    independent = {order[v] for v in _search(nrows, rows)}
    return [v for v in range(graph.n) if v not in independent]
