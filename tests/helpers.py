"""Independent brute-force oracles and random-instance generators for tests.

Everything here deliberately avoids the library's search code paths: clique
numbers come from exhaustive subset enumeration, minimum strong resolving
sets from exhaustive subset search over the definitional check.
"""

from __future__ import annotations

import itertools
import math
from random import Random
from typing import NamedTuple

import numpy as np

from powersdim import (ChainAnalysis, CliqueResult, Graph, MaximalCyclicFamily,
                       bfs_distances, factorize)
from powersdim.graphs import bit_matrix, bit_rows, bits
from powersdim.groups import cyclic_masks, element_orders, is_prime


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


def induced_subgraph(graph: Graph, vertices) -> Graph:
    """Subgraph on the given vertices, relabelled 0..k-1 in the given order."""
    vs = list(vertices)
    return Graph.from_edges(len(vs), [(i, j) for i, j in itertools.combinations(range(len(vs)), 2)
                                      if graph.matrix[vs[i], vs[j]]])


def forward_brute_force_clique_number(graph: Graph) -> int:
    """Clique number as the largest 1 + omega(later neighbours of v), each
    omega by exhaustive subset scan: exact on any graph, and fast when no
    vertex has more than about 16 later neighbours."""
    later = [[w for w in range(v + 1, graph.n) if graph.matrix[v, w]] for v in range(graph.n)]
    return max((1 + brute_force_clique_number(induced_subgraph(graph, ws)) for ws in later),
               default=0)


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
        return all(dist[u][w] <= dist[u][v] for w in range(n) if graph.matrix[v, w])

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


def ref_close_permutations(gens) -> list[tuple[int, ...]]:
    """The group the permutation tuples gens generate, by a breadth-first
    closure on tuples: g.s, x -> g[s[x]], for each g in the order found and
    each s in gens.  The order found is a perm file's element numbering."""
    k = len(gens[0]) if gens else 0
    elems = [tuple(range(k))]
    found = set(elems)
    for g in elems:  # also yields what the loop appends
        for s in gens:
            h = tuple(g[x] for x in s)
            if h not in found:
                found.add(h)
                elems.append(h)
    return elems


def lex_perms(k: int, even: bool = False) -> list[tuple[int, ...]]:
    """The permutations of 0..k-1 in lexicographic order, or the even ones,
    with an even count of inversions (pairs i < j with p[i] > p[j]): the
    element numbering of S<k> and A<k>."""
    pairs = list(itertools.combinations(range(k), 2))
    return [p for p in sorted(itertools.permutations(range(k)))
            if not even or sum(p[i] > p[j] for i, j in pairs) % 2 == 0]


def ref_cyclic_masks(g) -> list[int]:
    """Bitmask of <x> for every x by its own power walk x, x^2, ... over the
    list table, one walk per element: the walk cyclic_masks replaced."""
    table, e = g.table, 1 << g.identity
    masks = []
    for x in range(g.n):
        m, y = e, x
        while not (m >> y) & 1:
            m |= 1 << y
            y = table[y][x]
        masks.append(m)
    return masks


def ref_is_abelian(g) -> bool:
    """table[i][j] == table[j][i] for every pair i < j."""
    t = g.table
    return all(t[i][j] == t[j][i] for i in range(g.n) for j in range(i + 1, g.n))


def is_associative(table) -> bool:
    """(ab)c == a(bc) for every triple: the O(n^3) definition."""
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def ref_table_verdict(table) -> str | None:
    """The NotAGroup message a square table of ints earns, or None for a
    group, from the definitions, checked in the order: entries in 0..n-1,
    every row and column a permutation of them, a two-sided identity, then
    the triple check for associativity."""
    n = len(table)
    if any(not 0 <= c < n for row in table for c in row):
        return "table entries must be element indices 0..n-1"
    symbols = list(range(n))
    if any(sorted(line) != symbols for line in [*table, *zip(*table)]):
        return "table is not a Latin square"
    if not any(all(table[e][x] == x == table[x][e] for x in range(n)) for e in range(n)):
        return "table has no two-sided identity"
    if not is_associative(table):
        return "table is not associative"
    return None


def inverses(g) -> list[int]:
    """inverses[x] is the y with x*y = identity: where row x holds it."""
    return np.nonzero(g.array == g.identity)[1].tolist()


def random_loop(rng: Random, n: int) -> list[list[int]]:
    """Random Latin square on 0..n-1 whose row and column 0 are the identity
    (a loop with identity 0), filled cell by cell, each cell trying the
    symbols still free in its row and column in random order, backtracking
    on a dead end.  Every loop of order <= 4 is a group; from order 5 on
    most are not associative."""
    t = [[i + j if i == 0 or j == 0 else -1 for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(t[i][:j]) | {t[r][j] for r in range(i)}
        free = [v for v in range(n) if v not in used]
        rng.shuffle(free)
        for v in free:
            t[i][j] = v
            if fill(k + 1):
                return True
        t[i][j] = -1
        return False

    assert fill(0)
    return t


def write_cayley_file(path, table) -> None:
    path.write_text(f"{len(table)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table))


# Loop-built reference tables: the element numbering of the built-in
# families, written out entry by entry.


def ref_cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def ref_dihedral_table(order: int) -> list[list[int]]:
    # rotations a^i at 0..n-1, reflections a^i b at n..2n-1
    n = order // 2
    t = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in range(n):
            t[i][j] = (i + j) % n
            t[i][n + j] = n + (i + j) % n
            t[n + i][j] = n + (i - j) % n
            t[n + i][n + j] = (i - j) % n
    return t


def ref_quaternion_table(order: int) -> list[list[int]]:
    # x^a at 0..2n-1, y x^a at 2n..4n-1, with y^2 = x^n and x y = y x^{-1}
    n = order // 4
    two = 2 * n
    t = [[0] * order for _ in range(order)]
    for a in range(two):
        for b in range(two):
            t[a][b] = (a + b) % two
            t[a][two + b] = two + (b - a) % two
            t[two + a][b] = two + (a + b) % two
            t[two + a][two + b] = (n + b - a) % two
    return t


def ref_metacyclic_table(m: int, r: int, s: int) -> list[list[int]]:
    # <x, y | x^m, y^2 = x^s, y x y^-1 = x^r> with r^2 = 1 and r s = s mod m,
    # so x^i y = y x^(i r); x^i at 0..m-1, y x^i at m..2m-1.  r = -1 gives
    # the dihedral group (s = 0) or the generalized quaternion one (s = m/2)
    t = [[0] * (2 * m) for _ in range(2 * m)]
    for a, b in itertools.product((0, 1), repeat=2):
        for i in range(m):
            for j in range(m):
                t[a * m + i][b * m + j] = (a ^ b) * m + (i * r ** b + j + s * (a & b)) % m
    return t


def ref_product_table(tables: list[list[list[int]]]) -> list[list[int]]:
    """Row-major direct product of the given multiplication tables."""
    sizes = [len(t) for t in tables]
    total = math.prod(sizes)
    comps = []
    for idx in range(total):
        c, rem = [], idx
        for sz in reversed(sizes):
            rem, r = divmod(rem, sz)
            c.append(r)
        comps.append(tuple(reversed(c)))
    out = []
    for ci in comps:
        row = []
        for cj in comps:
            idx = 0
            for t, sz, a, b in zip(tables, sizes, ci, cj):
                idx = idx * sz + t[a][b]
            row.append(idx)
        out.append(row)
    return out


def complement(graph: Graph) -> Graph:
    """The graph on the same vertices whose edges are graph's non-edges."""
    m = ~graph.matrix
    np.fill_diagonal(m, False)
    return Graph(m)


def graph_of_rows(rows: list[int]) -> Graph:
    """The graph whose row v, the neighbour bitmask of v, is rows[v]."""
    return Graph(bit_matrix(rows, len(rows)))


def is_clique(graph: Graph, vertices) -> bool:
    vs = list(vertices)
    return all(graph.matrix[u, v] for i, u in enumerate(vs) for v in vs[i + 1:])


def clique_with_a_non_edge(real):
    """A stand-in for max_clique: real's size, so every value still agrees, but
    members that hold a non-adjacent pair, so the reduction's witness leaves
    out two mutually maximally distant classes and fails the check."""
    def clique(graph: Graph) -> CliqueResult:
        size = real(graph).size
        u, v = next((u, v) for u in range(graph.n) for v in range(u + 1, graph.n)
                    if not graph.matrix[u, v])
        rest = [w for w in range(graph.n) if w not in (u, v)][:size - 2]
        return CliqueResult(size, (u, v, *rest))
    return clique


def pairwise_distinct_closed_neighborhoods(graph: Graph, vertices) -> bool:
    masks = [graph.rows[v] | 1 << v for v in vertices]
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


def with_closed_twins(rng: Random, base: Graph, max_copies: int) -> Graph:
    """Blow-up of base: vertex i becomes 1..max_copies pairwise adjacent
    copies, each joined to every copy of i's neighbours (so copies of one
    vertex are closed twins), with the copies' labels shuffled."""
    copies = [rng.randint(1, max_copies) for _ in range(base.n)]
    owner = [i for i, c in enumerate(copies) for _ in range(c)]
    rng.shuffle(owner)
    n = len(owner)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if owner[u] == owner[v] or base.matrix[owner[u], owner[v]]])


def cone(rng: Random, base: Graph) -> Graph:
    """base plus an apex joined to every base vertex; the apex takes a random
    label and the base vertices keep their order around it."""
    n = base.n + 1
    apex = rng.randrange(n)
    label = [v + (v >= apex) for v in range(base.n)]
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in base.edges()]
                            + [(apex, label[v]) for v in range(base.n)])


def random_diameter2_graph(rng: Random, n: int, p: float = 0.4) -> Graph:
    """Random graph on n-1 vertices plus a universal vertex: connected, diameter <= 2."""
    assert n >= 1
    edges = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1) if rng.random() < p]
    edges += [(u, n - 1) for u in range(n - 1)]
    return Graph.from_edges(n, edges)


# Reference clique search: max_clique as it was before the non-neighbour
# masks and the unrecorded low color classes, kept to pin the search's
# result (size and members) on every input.


def ref_max_clique(graph: Graph) -> CliqueResult:
    n = graph.n
    if n == 0:
        return CliqueResult(0, ())
    order = sorted(range(n), key=lambda v: (-int(graph.matrix[v].sum()), v))
    adj = bit_rows(bit_matrix(graph.rows, n).take(order, 0).take(order, 1))

    def greedy_coloring(cand: int) -> tuple[list[int], list[int]]:
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
        return order_list, bound_list

    best_size = 0
    best: list[int] = []
    current: list[int] = []
    stack: list[tuple[int, list[int], list[int], int]] = []
    cand = (1 << n) - 1
    vs, bounds = greedy_coloring(cand)
    i = len(vs) - 1
    while True:
        if i >= 0 and len(current) + bounds[i] > best_size:
            v = vs[i]
            current.append(v)
            nxt = cand & adj[v]
            if nxt:
                stack.append((cand, vs, bounds, i))
                cand = nxt
                vs, bounds = greedy_coloring(cand)
                i = len(vs) - 1
                continue
            if len(current) > best_size:
                best_size = len(current)
                best = current.copy()
        elif stack:
            cand, vs, bounds, i = stack.pop()
            v = vs[i]
        else:
            break
        current.pop()
        cand &= ~(1 << v)
        i -= 1

    return CliqueResult(best_size, tuple(sorted(order[v] for v in best)))


def ref_min_vertex_cover(graph: Graph) -> list[int]:
    full = (1 << graph.n) - 1
    complement = graph_of_rows([full & ~row & ~(1 << v) for v, row in enumerate(graph.rows)])
    independent = set(ref_max_clique(complement).members)
    return [v for v in range(graph.n) if v not in independent]


# Reference group theory: maximal_cyclic_subgroups, chain_analysis and
# alpha_p as they were before the membership-matrix test and the chain data
# from popcounts (an O(d^2) subset test over the distinct cyclic subgroups,
# one RefSubgroup per family member and chain element), uncached, kept to
# pin the values.  The chain helpers take the reference family, fam, which
# a caller builds once per group; ref_family_masks gives it in the library's
# form, masks.


class RefSubgroup(NamedTuple):
    generator: int  # the smallest
    elements: tuple[int, ...]  # sorted ascending
    order: int


def ref_maximal_cyclic_subgroups(g) -> MaximalCyclicFamily:
    masks = cyclic_masks(g)
    first_gen: dict[int, int] = {}
    for x, m in enumerate(masks):
        if m not in first_gen:
            first_gen[m] = x
    distinct = list(first_gen.items())
    subs = []
    for m, gen in distinct:
        if any(m != m2 and m & ~m2 == 0 for m2, _ in distinct):
            continue
        els = tuple(bits(m))
        subs.append(RefSubgroup(gen, els, len(els)))
    subs.sort(key=lambda s: (s.order, s.elements))
    by_prime: dict[int, list[RefSubgroup]] = {}
    mixed = []
    for s in subs:
        fac = factorize(s.order)
        if len(fac.factors) == 1:
            by_prime.setdefault(fac.factors[0][0], []).append(s)
        else:
            mixed.append(s)
    return MaximalCyclicFamily(
        all=tuple(subs),
        by_prime={p: tuple(v) for p, v in sorted(by_prime.items())},
        mixed=tuple(mixed),
    )


def ref_family_masks(fam: MaximalCyclicFamily) -> MaximalCyclicFamily:
    """The reference family with each member as its int mask."""
    def masks(subs):
        return tuple(sum(1 << e for e in s.elements) for s in subs)

    return MaximalCyclicFamily(masks(fam.all), {p: masks(v) for p, v in fam.by_prime.items()},
                               masks(fam.mixed))


def _ref_subgroup_from_mask(g, mask: int) -> RefSubgroup:
    els = tuple(bits(mask))
    order = len(els)
    orders = element_orders(g)
    gen = min(e for e in els if orders[e] == order)
    return RefSubgroup(gen, els, order)


def _ref_exact_log(base: int, value: int) -> int:
    e, v = 0, 1
    while v < value:
        v *= base
        e += 1
    if v != value:
        raise AssertionError(f"{value} is not a power of {base}")
    return e


def ref_chain_analysis(g, p: int, fam: MaximalCyclicFamily) -> tuple[ChainAnalysis, ...]:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    mp = fam.by_prime.get(p, ())
    if not mp:
        return ()
    masks = cyclic_masks(g)
    mp_gens = {s.generator for s in mp}
    mp_masks = [masks[s.generator] for s in mp]
    other_masks = [masks[s.generator] for s in fam.all if s.generator not in mp_gens]
    out = []
    for i, mi_mask in enumerate(mp_masks):
        inter = sorted({mi_mask & mj for mj in mp_masks}, key=lambda m: m.bit_count())
        for a, b in zip(inter, inter[1:]):
            if a & ~b:
                raise AssertionError("intersections do not form a chain")
        chain = tuple(_ref_subgroup_from_mask(g, m) for m in inter)
        if other_masks:
            lam_order = max((mi_mask & om).bit_count() for om in other_masks)
            lambda_exp = _ref_exact_log(p, lam_order)
        else:
            lambda_exp = -1
        s_i = len(chain)
        if lambda_exp < 0:
            s_prime = 1
        else:
            threshold = p ** lambda_exp
            s_prime = next(u for u, c in enumerate(chain, 1) if c.order > threshold)
        f_i = _ref_exact_log(p, chain[-1].order)
        out.append(ChainAnalysis(
            subgroup_index=i,
            chain=tuple(sum(1 << e for e in s.elements) for s in chain),
            s_i=s_i,
            lambda_exp=lambda_exp,
            s_prime=s_prime,
            f_i=f_i,
        ))
    return tuple(out)


def ref_alpha_p(g, p: int, fam: MaximalCyclicFamily) -> int:
    analyses = ref_chain_analysis(g, p, fam)
    if not analyses:
        return 0
    return max(a.s_i - a.s_prime + a.lambda_exp + 2 for a in analyses)
