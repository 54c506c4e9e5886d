"""Simple undirected graphs with bitset adjacency rows.

Provides the power-graph construction, BFS metrics, the closed-twin
reduction, and serialization to/from edge-list JSON dicts, graph6 strings,
and DOT text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import Group, bits, cyclic_masks


class Disconnected(ValueError):
    """Raised by operations that require a connected graph."""


def bit_matrix(rows: list[int], n: int) -> np.ndarray:
    """len(rows) x n bool matrix whose entry [u, v] is bit v of rows[u];
    every row must lie in 0 <= row < 2**n."""
    width = (n + 7) // 8
    data = b"".join([row.to_bytes(width, "little") for row in rows])
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def bit_rows(m: np.ndarray) -> list[int]:
    """Inverse of bit_matrix: one int bitset per row of a bool matrix."""
    packed = np.packbits(m, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * width:(i + 1) * width], "little")
            for i in range(len(m))]


class Graph:
    """Simple undirected graph on vertices 0..n-1; row v is the neighbor bitmask.

    Construction checks each row's range and loop bit in order, then the
    symmetry of the whole adjacency as one bool-matrix comparison with its
    transpose.  Instances are immutable after construction: rows must not
    be changed, because derived data (the distance matrix) is cached lazily.
    """

    __slots__ = ("n", "rows", "_dist")

    def __init__(self, n: int, rows: list[int] | None = None):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        if rows is None:
            rows = [0] * n
        if len(rows) != n:
            raise ValueError("need one adjacency row per vertex")
        for u, row in enumerate(rows):
            if row >> n:
                raise ValueError(f"row {u} references vertices >= {n}")
            if (row >> u) & 1:
                raise ValueError(f"loop at vertex {u}")
        m = bit_matrix(rows, n)
        if m.tobytes() != m.T.tobytes():  # m == m.T, compared as raw bytes
            raise ValueError("adjacency is not symmetric")
        self.n = n
        self.rows = list(rows)
        self._dist: np.ndarray | None = None

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    def has_edge(self, u: int, v: int) -> bool:
        return (self.rows[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def closed_mask(self, v: int) -> int:
        return self.rows[v] | (1 << v)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self):
        """Yield edges (u, v) with u < v, in ascending order."""
        for u in range(self.n):
            for v in bits(self.rows[u]):
                if v > u:
                    yield (u, v)

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, [full & ~row & ~(1 << v) for v, row in enumerate(self.rows)])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, tuple(self.rows)))

    def __repr__(self):
        return f"<Graph n={self.n} m={self.edge_count()}>"


# ---------------------------------------------------------------------------
# Power graph


def power_graph(g: Group) -> Graph:
    """Vertices are the group elements; x ~ y iff x != y and one generates
    a cyclic subgroup containing the other.  With m[x, y] true iff y is in
    <x>, the adjacency is m | m.T without the diagonal.  Cached on the group."""
    if g._power_graph is None:
        m = bit_matrix(cyclic_masks(g), g.n)
        m |= m.T
        np.fill_diagonal(m, False)
        g._power_graph = Graph(g.n, bit_rows(m))
    return g._power_graph


# ---------------------------------------------------------------------------
# Metrics


def bfs_distances(graph: Graph, source: int) -> list:
    """Exact shortest-path distances from source; math.inf marks unreachable.

    Each vertex is visited once: the loop that writes its distance also ORs
    its row into the set reached by the next layer."""
    n = graph.n
    if not 0 <= source < n:
        raise ValueError(f"vertex {source} out of range")
    rows = graph.rows
    dist: list = [math.inf] * n
    dist[source] = 0
    seen = 1 << source
    reach = rows[source]
    d = 0
    while frontier := reach & ~seen:
        d += 1
        seen |= frontier
        reach = 0
        for v in bits(frontier):
            dist[v] = d
            reach |= rows[v]
    return dist


def is_connected(graph: Graph) -> bool:
    if graph.n == 0:
        return True
    return math.inf not in bfs_distances(graph, 0)


def all_pairs(graph: Graph) -> np.ndarray:
    """n x n distance matrix, cached on the graph, in the smallest unsigned
    dtype that holds n - 1, so any diameter fits.  A universal vertex (a row
    with n - 1 bits) makes the graph connected with diameter <= 2, so
    d(u, v) = 2 - A[u, v] for u != v and no BFS runs; every power graph has
    one, the identity.  Other graphs take one BFS per vertex.  Raises
    Disconnected when unreachable pairs exist."""
    if graph._dist is None:
        n = graph.n
        dtype = np.min_scalar_type(max(n - 1, 0))
        if any(row.bit_count() == n - 1 for row in graph.rows):
            dist = 2 - bit_matrix(graph.rows, n).astype(dtype)
            np.fill_diagonal(dist, 0)
        else:
            rows = [bfs_distances(graph, v) for v in range(n)]
            if any(math.inf in row for row in rows):
                raise Disconnected("graph is not connected")
            dist = np.array(rows, dtype=dtype).reshape(n, n)
        graph._dist = dist
    return graph._dist


def diameter(graph: Graph) -> int:
    """Greatest pairwise distance; raises Disconnected when unreachable pairs exist."""
    if graph.n == 0:
        raise ValueError("empty graph has no diameter")
    return int(all_pairs(graph).max())


# ---------------------------------------------------------------------------
# Closed-twin reduction


@dataclass
class ReducedGraph:
    """Quotient of a graph by equality of closed neighborhoods.

    representatives[c] is the smallest vertex of class c; class_of maps each
    vertex to its class id; quotient joins two classes when their
    representatives are adjacent in the base graph.
    """

    base: Graph
    representatives: list[int]
    class_of: list[int]
    quotient: Graph

    def class_members(self) -> list[list[int]]:
        members: list[list[int]] = [[] for _ in self.representatives]
        for v, c in enumerate(self.class_of):
            members[c].append(v)
        return members


def reduced_graph(graph: Graph) -> ReducedGraph:
    """Group vertices by their closed-neighborhood bitmask (dict lookup gives
    hash-then-exact-equality), canonical representative = smallest vertex.
    The quotient is the adjacency matrix restricted to the representatives."""
    n = graph.n
    class_ids: dict[int, int] = {}
    representatives: list[int] = []
    class_of = [0] * n
    for v in range(n):
        key = graph.closed_mask(v)
        cid = class_ids.get(key)
        if cid is None:
            cid = len(representatives)
            class_ids[key] = cid
            representatives.append(v)
        class_of[v] = cid
    m = bit_matrix(graph.rows, n).take(representatives, 0).take(representatives, 1)
    quotient = Graph(len(representatives), bit_rows(m))
    return ReducedGraph(graph, representatives, class_of, quotient)


# ---------------------------------------------------------------------------
# Serialization


def to_edge_list(graph: Graph) -> dict:
    """Edge-list JSON object: {"n": ..., "edges": [[u, v], ...]} with u < v."""
    return {"n": graph.n, "edges": [[u, v] for u, v in graph.edges()]}


def from_edge_list(data: dict) -> Graph:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ValueError('edge-list JSON must be an object with "n" and "edges"')
    n = data["n"]
    if not isinstance(n, int) or n < 0:
        raise ValueError('"n" must be a non-negative integer')
    edges = data["edges"]
    if not isinstance(edges, list):
        raise ValueError('"edges" must be an array of [u, v] pairs')
    pairs = []
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2
                and all(isinstance(x, int) for x in e)):
            raise ValueError(f"bad edge entry: {e!r}")
        pairs.append((e[0], e[1]))
    return Graph.from_edges(n, pairs)  # duplicates collapse in the bitmask


GRAPH6_MAX = 62  # short form only; the long form is out of scope


def graph6_encode(graph: Graph) -> str:
    """Standard graph6 ASCII encoding for graphs with at most 62 vertices."""
    n = graph.n
    if n > GRAPH6_MAX:
        raise ValueError(f"graph6 short form only covers n <= {GRAPH6_MAX}, got {n}")
    out = [chr(63 + n)]
    buf, nbits = 0, 0
    for j in range(1, n):
        for i in range(j):
            buf = (buf << 1) | (1 if graph.has_edge(i, j) else 0)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + buf))
                buf, nbits = 0, 0
    if nbits:
        out.append(chr(63 + (buf << (6 - nbits))))
    return "".join(out)


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    if s[0] == "~":
        raise ValueError("long-form graph6 (n > 62) is not supported")
    n = ord(s[0]) - 63
    if not 0 <= n <= GRAPH6_MAX:
        raise ValueError(f"bad graph6 size byte {s[0]!r}")
    nbits = n * (n - 1) // 2
    body = s[1:]
    if len(body) != (nbits + 5) // 6:
        raise ValueError("graph6 string has the wrong length")
    bitstream = []
    for ch in body:
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise ValueError(f"bad graph6 character {ch!r}")
        bitstream.extend((v >> k) & 1 for k in range(5, -1, -1))
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bitstream[pos]:
                edges.append((i, j))
            pos += 1
    return Graph.from_edges(n, edges)


def to_dot(graph: Graph, labels: list[str] | None = None) -> str:
    """Undirected DOT text; optional per-vertex labels."""
    if labels is not None and len(labels) != graph.n:
        raise ValueError("need one label per vertex")
    lines = ["graph {"]
    for v in range(graph.n):
        label = labels[v] if labels is not None else str(v)
        lines.append(f'  {v} [label="{label}"];')
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
