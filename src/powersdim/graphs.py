"""Simple undirected graphs, each stored as its bool adjacency matrix.

Provides the power-graph construction, BFS metrics, the closed-twin
reduction, the strong-resolving definitions and serialization to/from
edge-list JSON, graph6 and DOT.  Every function here but bfs_distances,
the sweep's reference, reads and writes only the matrix; Graph.rows is an
int-bitset view for callers outside the package.  Only this module reads
distances: with a universal vertex they are 2 - A and no matrix is kept.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._numpy import np
from .groups import Group, _block_rows, _cached, _is_symmetric, bits, cyclic_masks

__all__ = [
    "Graph", "ReducedGraph", "power_graph", "bfs_distances", "diameter", "reduced_graph",
    "is_strong_resolving_set", "strong_resolving_graph", "to_edge_list", "from_edge_list",
    "graph6_encode", "graph6_decode", "to_dot", "Disconnected",
]


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
    """Simple undirected graph on vertices 0..n-1, given by its adjacency.

    Graph(m) keeps m, a square bool array, made read-only rather than
    copied: the one stored adjacency.  The one check runs here: no loop on
    the diagonal, then symmetry by _is_symmetric, with no whole-matrix copy.
    Graph.from_edges builds the matrix from an edge list.  Row v of rows,
    the neighbour bitmask of v, is derived from the matrix when first read,
    for callers outside the package: only bfs_distances reads it here.
    Equality and the hash compare matrices.  Instances are immutable after
    construction; derived data (the rows, the universal-vertex test, the
    sweep and the twin quotient) is cached by _cached.
    """

    __slots__ = ("n", "matrix", "_cache")

    def __init__(self, m: np.ndarray):
        if not (isinstance(m, np.ndarray) and m.dtype == bool and m.ndim == 2
                and m.shape[0] == m.shape[1]):
            raise ValueError("adjacency must be a square bool matrix")
        loops = np.flatnonzero(m.diagonal())
        if len(loops):
            raise ValueError(f"loop at vertex {loops[0]}")
        if not _is_symmetric(m):
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
        """Graph on n vertices with the (u, v) edges given; duplicates collapse.
        An endpoint is a Python or numpy integer or bool; a float is refused."""
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        cells = []  # flat index u * n + v of every edge as given
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            c = u * n + v  # an integer exactly when both endpoints are
            if type(c) is not int and not isinstance(c, np.integer):
                raise ValueError(f"edge ({u},{v}) has a non-integer endpoint")
            cells.append(c)
        uv = np.array(cells, np.intp)
        u, v = np.divmod(uv, n)
        m = np.zeros(n * n, bool)
        m[uv] = True  # scatters, faster than indexing by the list
        m[v * n + u] = True  # the other orientation: one array pass, not an append per edge
        return cls(m.reshape(n, n))

    def edge_count(self) -> int:
        return int(np.count_nonzero(self.matrix)) // 2

    def edges(self):
        """Yield edges (u, v) with u < v, in ascending order."""
        yield from map(tuple, np.argwhere(np.triu(self.matrix, 1)).tolist())

    def __eq__(self, other):
        return isinstance(other, Graph) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash((self.n, self.matrix.tobytes()))

    def __repr__(self):
        return f"<Graph n={self.n} m={self.edge_count()}>"


# ---------------------------------------------------------------------------
# Power graph


@_cached
def power_graph(g: Group) -> Graph:
    """Vertices are the group elements; x ~ y iff x != y and one generates
    a cyclic subgroup containing the other.  With C[x, y] true iff y is in
    <x>, the cyclic masks unpacked by bit_matrix, the adjacency is C | C.T
    without the diagonal: C.T is ORed into that one array, a block at a time."""
    m = bit_matrix(cyclic_masks(g), g.n)
    for b in _block_rows(g.n, g.n):
        m[b] |= m[:, b].T  # OR is idempotent; numpy buffers the overlapping diagonal block
    np.fill_diagonal(m, False)
    return Graph(m)


# ---------------------------------------------------------------------------
# Metrics


def bfs_distances(graph: Graph, source: int) -> list:
    """Exact shortest-path distances from source; math.inf marks unreachable.

    Each vertex is visited once: the loop that writes its distance also ORs
    its row into the set reached by the next layer.  Unused in the package,
    it stays as the sweep's reference: perfbench's tracer counts it by name."""
    n = graph.n
    source = _vertex(graph, source)
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


@_cached
def has_universal_vertex(graph: Graph) -> bool:
    """True iff some vertex has degree n - 1, cached; every power graph has one."""
    return bool((graph.matrix.sum(1) == graph.n - 1).any())


_WORD = "<u8"  # a dtype string: np.dtype here would import numpy


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
    holds n - 1, consulted only on a graph without a universal vertex.
    far[v, s] is true iff v has a neighbour one layer farther from s than v
    is, that is, iff v is not maximally distant from s, for the strong
    resolving graph.  Both arrays are read-only.

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
    dist.flags.writeable = far.flags.writeable = False  # cached: no caller may edit them
    return dist, far


def _distances_to(graph: Graph, targets: list[int]) -> np.ndarray:
    """n x len(targets) distances d(x, targets[i]): with a universal vertex
    2 - A[:, targets] in uint8, zero at (targets[i], i), else the sweep's
    columns.  Raises Disconnected when unreachable pairs exist."""
    if not has_universal_vertex(graph):
        return sweep(graph)[0][:, targets]
    dist = 2 - graph.matrix.take(targets, 1).view(np.uint8)
    dist[targets, np.arange(len(targets))] = 0
    return dist


def diameter(graph: Graph) -> int:
    """Greatest pairwise distance; raises Disconnected when unreachable pairs exist."""
    n = graph.n
    if n == 0:
        raise ValueError("empty graph has no diameter")
    if not has_universal_vertex(graph):
        return int(sweep(graph)[0].max())
    return 0 if n == 1 else 1 if graph.edge_count() == n * (n - 1) // 2 else 2


# ---------------------------------------------------------------------------
# Closed-twin reduction


class ReducedGraph(NamedTuple):
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
    row | 1 << v, over int bitsets of the matrix rows built here (a dict
    lookup gives hash-then-exact-equality).  The quotient is the adjacency
    matrix restricted to the representatives."""
    class_ids: dict[int, int] = {}
    representatives: list[int] = []
    class_of = []
    for v, row in enumerate(bit_rows(graph.matrix)):
        cid = class_ids.setdefault(row | 1 << v, len(representatives))
        if cid == len(representatives):
            representatives.append(v)
        class_of.append(cid)
    quotient = Graph(graph.matrix.take(representatives, 0).take(representatives, 1))
    return ReducedGraph(representatives, class_of, quotient)


# ---------------------------------------------------------------------------
# Strong resolution: the definitional check and the strong resolving graph


def _vertex(graph: Graph, v) -> int:
    """v as an int: a Python or numpy integer or bool, as from_edges asks, in 0..n-1."""
    if not isinstance(v, (int, np.integer, np.bool_)):
        raise ValueError(f"vertex {v!r} is not an integer")
    if not 0 <= v < graph.n:
        raise ValueError(f"vertex {v} out of range")
    return int(v)


def is_strong_resolving_set(graph: Graph, candidate) -> bool:
    """True iff every vertex pair u, v has some w in the set with
    d(w,u) = d(w,v) + d(v,u) or d(w,v) = d(w,u) + d(u,v).

    A pair with an endpoint in the set is resolved by that endpoint, so only
    the pairs inside R = V minus the set are tested.  The n x |R| distances
    to R are read once as Python ints, so the sums cannot wrap in a dtype."""
    members = sorted({_vertex(graph, v) for v in candidate})
    rest = sorted(set(range(graph.n)).difference(members))
    to_rest = _distances_to(graph, rest).tolist()  # to_rest[x][i] = d(x, rest[i])
    from_members = [to_rest[w] for w in members]
    for i, u in enumerate(rest):
        du = to_rest[u]
        for j in range(i + 1, len(rest)):
            duv = du[j]
            for dw in from_members:
                if dw[i] == dw[j] + duv or dw[j] == dw[i] + duv:
                    break
            else:
                return False
    return True


def strong_resolving_graph(graph: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the mutually
    maximally distant pairs.

    With a universal vertex the diameter is at most 2: a pair at distance 2
    is always joined, and adjacent u, v are joined iff N[u] = N[v], so the
    edges are the matrix's non-edges and the cached closed-twin classes of
    reduced_graph.  Any other graph reads the far matrix of its one
    sweep (which a diameter call may already have run): far[v, u] says
    that v is not maximally distant from u, and u and v are joined iff
    neither far[u, v] nor far[v, u]."""
    if has_universal_vertex(graph):
        srg = ~graph.matrix
        class_of = np.array(reduced_graph(graph).class_of)
        srg |= class_of[:, None] == class_of
    else:
        far = sweep(graph)[1]
        srg = ~(far | far.T)
    np.fill_diagonal(srg, False)
    return Graph(srg)


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
    return Graph.from_edges(n, edges)  # duplicates collapse in the matrix


GRAPH6_MAX = 62  # short form only; the long form is out of scope


def graph6_encode(graph: Graph) -> str:
    """Standard graph6 ASCII encoding for graphs with at most 62 vertices:
    the upper triangle column by column, cells (i, j) with i < j ordered by
    j then i, six bits to a character, the last padded with zeros."""
    n = graph.n
    if n > GRAPH6_MAX:
        raise ValueError(f"graph6 short form only covers n <= {GRAPH6_MAX}, got {n}")
    triangle = graph.matrix[np.tril_indices(n, -1)[::-1]]
    six = np.zeros((-(-len(triangle) // 6), 6), bool)
    six.flat[:len(triangle)] = triangle
    return chr(63 + n) + ((np.packbits(six, axis=1) >> 2) + 63).tobytes().decode()


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
    codes = bytearray()
    for ch in body:
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise ValueError(f"bad graph6 character {ch!r}")
        codes.append(v)
    six = np.unpackbits(np.frombuffer(codes, np.uint8)[:, None], axis=1)[:, 2:]
    m = np.zeros((n, n), bool)
    m[np.tril_indices(n, -1)[::-1]] = six.ravel()[:nbits]  # the encoder's cells
    return Graph(m | m.T)


def to_dot(graph: Graph, labels: list[str] | None = None) -> str:
    """Undirected DOT text; optional per-vertex labels, quoted with each
    backslash and double quote escaped."""
    if labels is not None and len(labels) != graph.n:
        raise ValueError("need one label per vertex")
    lines = ["graph {"]
    for v in range(graph.n):
        label = str(v if labels is None else labels[v]).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{label}"];')
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
