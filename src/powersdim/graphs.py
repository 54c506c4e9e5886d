"""Simple undirected graphs with bitset adjacency rows.

Provides the power-graph construction, BFS metrics, the closed-twin
reduction, and serialization to/from edge-list JSON dicts, graph6 strings,
and DOT text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import Group, _cached, bit_matrix, bits, membership_matrix

__all__ = [
    "Graph", "ReducedGraph", "power_graph", "bfs_distances", "diameter",
    "reduced_graph", "to_edge_list", "from_edge_list",
    "graph6_encode", "graph6_decode", "to_dot", "Disconnected",
]


class Disconnected(ValueError):
    """Raised by operations that require a connected graph."""


def bit_rows(m: np.ndarray) -> list[int]:
    """Inverse of bit_matrix: one int bitset per row of a bool matrix."""
    packed = np.packbits(m, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * width:(i + 1) * width], "little")
            for i in range(len(m))]


class Graph:
    """Simple undirected graph on vertices 0..n-1; row v is the neighbor bitmask.

    matrix, a read-only n x n bool array, is the one stored adjacency; the
    rows are derived from it on first read.  Graph(n, rows) checks each
    row's range in order, builds the matrix and keeps the rows as derived;
    Graph.from_matrix(m) keeps m.  Either way one check runs on the matrix:
    no loop on the diagonal, then symmetry, as one comparison with its
    transpose.  Instances are immutable after construction; derived data
    (the rows, distances, sweep and twin quotient) is cached by _cached.
    """

    __slots__ = ("n", "matrix", "_cache")

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
        self._adopt(bit_matrix(rows, n))
        self._cache["rows"] = list(rows)  # the rows property's entry, under its name

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Graph":
        """Graph whose adjacency is the square bool matrix m, which it keeps
        (made read-only) rather than copies."""
        if m.dtype != bool or m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("adjacency must be a square bool matrix")
        graph = cls.__new__(cls)
        graph._adopt(m)
        return graph

    def _adopt(self, m: np.ndarray) -> None:
        """The one adjacency check, shared by both constructors."""
        loops = np.flatnonzero(m.diagonal())
        if len(loops):
            raise ValueError(f"loop at vertex {loops[0]}")
        if m.tobytes() != m.T.tobytes():  # m == m.T, compared as raw bytes
            raise ValueError("adjacency is not symmetric")
        m.flags.writeable = False
        self.n = len(m)
        self.matrix = m
        self._cache = {}

    @property
    @_cached
    def rows(self) -> list[int]:
        """Row v is the neighbour bitmask of v: bit_rows of the matrix."""
        return bit_rows(self.matrix)

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
        return int(np.count_nonzero(self.matrix)) // 2

    def edges(self):
        """Yield edges (u, v) with u < v, in ascending order."""
        for u in range(self.n):
            for v in bits(self.rows[u]):
                if v > u:
                    yield (u, v)

    def complement(self) -> "Graph":
        m = ~self.matrix
        np.fill_diagonal(m, False)
        return Graph.from_matrix(m)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, tuple(self.rows)))

    def __repr__(self):
        return f"<Graph n={self.n} m={self.edge_count()}>"


# ---------------------------------------------------------------------------
# Power graph


@_cached
def power_graph(g: Group) -> Graph:
    """Vertices are the group elements; x ~ y iff x != y and one generates
    a cyclic subgroup containing the other.  With C = membership_matrix(g),
    C[x, y] true iff y is in <x>, the adjacency is C | C.T without the
    diagonal.  Cached on the group."""
    c = membership_matrix(g)
    m = c | c.T
    np.fill_diagonal(m, False)
    return Graph.from_matrix(m)


# ---------------------------------------------------------------------------
# Metrics


def bfs_distances(graph: Graph, source: int) -> list:
    """Exact shortest-path distances from source; math.inf marks unreachable.

    Each vertex is visited once: the loop that writes its distance also ORs
    its row into the set reached by the next layer.  Unused in the package,
    it stays as the sweep's reference: perfbench's tracer counts it by name."""
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


def has_universal_vertex(graph: Graph) -> bool:
    """True iff some row has n - 1 bits.  Such a vertex makes the graph
    connected with diameter <= 2; every power graph has one, the identity."""
    return any(row.bit_count() == graph.n - 1 for row in graph.rows)


_WORD = np.dtype("<u8")


def _pack(m: np.ndarray) -> np.ndarray:
    """Rows of a bool matrix as little-endian uint64 words: bit j of word k
    of row v is m[v, 64 k + j]."""
    packed = np.packbits(m, axis=1, bitorder="little")
    out = np.zeros((len(m), -(-m.shape[1] // 64) * 8), np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view(_WORD)


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _pack for an n-column bool matrix."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


@_cached
def sweep(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search from every source at once: (dist, far), cached.

    dist is the n x n distance matrix in the smallest unsigned dtype that
    holds n - 1, which all_pairs reads off diameter 2.  far[v, s] is true
    iff v has a neighbour one layer farther from s than v is, that is, iff
    v is not maximally distant from s; it is read-only, for the strong
    resolving graph.

    Row v of each working array is a set of sources, packed as uint64
    words.  A layer is one gather of the frontier over the neighbour lists
    and one OR-reduce at the list starts: reach[v] holds the sources that
    reach a neighbour of v in the current layer, so reach & prev marks the
    vertices of the previous layer with a neighbour one layer farther.  Each
    layer d is ORed into the bit planes of d, which are unpacked into dist
    once at the end.  The gather runs in vertex blocks of about 1 MB, one
    list at least.  Raises
    Disconnected when unreachable pairs exist (at once when n > 1 and some
    vertex has no neighbour, which would leave an empty list to reduce)."""
    n = graph.n
    adj = graph.matrix
    deg = adj.sum(1)
    if n > 1 and not deg.all():
        raise Disconnected("graph is not connected")
    # row-major flat indices mod n: the neighbour lists in vertex order, one
    # array of 2m entries
    nbr = np.flatnonzero(adj)
    nbr %= n
    ends = np.cumsum(deg)
    starts = ends - deg
    # list entries per gather: a block of at most 2**17 words (1 MB) stays in
    # cache, which made a dense 2000-vertex sweep 3x faster than blocks of
    # n * n words; a block takes at least one list, n - 1 entries at most
    cap = (1 << 17) // (n // 64 + 1)
    blocks, lo = [], 0
    while lo < n:
        hi = max(int(np.searchsorted(ends, starts[lo] + cap, "right")), lo + 1)
        blocks.append((nbr[starts[lo]:ends[hi - 1]], starts[lo:hi] - starts[lo]))
        lo = hi

    seen = _pack(np.eye(n, dtype=bool))
    front, prev, far = seen.copy(), np.zeros_like(seen), np.zeros_like(seen)
    planes: list[np.ndarray] = []  # bit k of the distances, as sets of sources
    d = 0
    while n > 1:  # n <= 1 leaves no list to reduce and nothing to reach
        reach = np.concatenate([np.bitwise_or.reduceat(front[lists], offsets, axis=0)
                                for lists, offsets in blocks])
        far |= reach & prev
        new = reach & ~seen
        if not new.any():
            break
        d += 1
        if d.bit_length() > len(planes):
            planes.append(np.zeros_like(seen))
        for k, plane in enumerate(planes):
            if d >> k & 1:
                plane |= new
        seen |= new
        prev, front = front, new
    if (seen != _pack(np.ones((1, n), bool))).any():
        raise Disconnected("graph is not connected")
    dist = np.zeros((n, n), np.min_scalar_type(max(n - 1, 0)))
    for k, plane in enumerate(planes):
        dist |= _unpack(plane, n).astype(dist.dtype) << k
    far = _unpack(far, n)
    far.flags.writeable = False
    return dist, far


@_cached
def all_pairs(graph: Graph) -> np.ndarray:
    """n x n distance matrix, cached on the graph.  With a universal vertex
    d(u, v) = 2 - A[u, v] for u != v and no search runs; the diameter is at
    most 2, so the matrix is uint8.  Other graphs take the distances of the
    one sweep, in the smallest unsigned dtype that holds n - 1, so any
    diameter fits.  Raises Disconnected when unreachable pairs exist."""
    if not has_universal_vertex(graph):
        return sweep(graph)[0]
    dist = 2 - graph.matrix.astype(np.uint8)
    np.fill_diagonal(dist, 0)
    return dist


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
    representatives are adjacent in the graph.  Cached on the graph but
    holds no reference to it, so both are freed by reference counting, with
    no cycle left for the collector: do not change it.
    """

    representatives: list[int]
    class_of: list[int]
    quotient: Graph

    def class_members(self) -> list[list[int]]:
        members: list[list[int]] = [[] for _ in self.representatives]
        for v, c in enumerate(self.class_of):
            members[c].append(v)
        return members


@_cached
def reduced_graph(graph: Graph) -> ReducedGraph:
    """Closed-twin classes with the smallest vertex as representative, cached
    on the graph: vertices are grouped by their closed neighbourhood
    row | 1 << v (a dict lookup gives hash-then-exact-equality).  The
    quotient is the adjacency matrix restricted to the representatives."""
    class_ids: dict[int, int] = {}
    representatives: list[int] = []
    class_of = []
    for v, row in enumerate(graph.rows):
        cid = class_ids.setdefault(row | 1 << v, len(representatives))
        if cid == len(representatives):
            representatives.append(v)
        class_of.append(cid)
    quotient = Graph.from_matrix(graph.matrix.take(representatives, 0)
                                 .take(representatives, 1))
    return ReducedGraph(representatives, class_of, quotient)


# ---------------------------------------------------------------------------
# Serialization


def to_edge_list(graph: Graph) -> dict:
    """Edge-list JSON object: {"n": ..., "edges": [[u, v], ...]} with u < v."""
    return {"n": graph.n, "edges": [[u, v] for u, v in graph.edges()]}


def from_edge_list(data: dict) -> Graph:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ValueError('edge-list JSON must be an object with "n" and "edges"')
    n = data["n"]
    if type(n) is not int or n < 0:  # bool is an int subclass: JSON true is not a count
        raise ValueError('"n" must be a non-negative integer')
    edges = data["edges"]
    if not isinstance(edges, list):
        raise ValueError('"edges" must be an array of [u, v] pairs')
    for e in edges:  # every entry's shape first, then Graph.from_edges's checks
        if not (isinstance(e, (list, tuple)) and len(e) == 2
                and type(e[0]) is int and type(e[1]) is int):  # not bool either
            raise ValueError(f"bad edge entry: {e!r}")
    return Graph.from_edges(n, edges)  # duplicates collapse in the bitmask


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
