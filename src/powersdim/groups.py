"""Finite groups as explicit multiplication tables.

Groups are built from parametric families (cyclic, dihedral, generalized
quaternion, abelian products, small symmetric/alternating groups), from
Cayley-table files, or by closing a set of permutation generators.  Elements
are the indices 0..n-1.  Everything downstream (element orders, maximal
cyclic subgroups, the intersection-chain data behind the dimension formulas)
is computed directly from the table, so file-loaded groups behave exactly
like built-in ones.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_VERIFY_ORDER = 128      # full O(n^3) associativity check up to this order
DEFAULT_CLOSURE_CAP = 5040  # permutation-closure guard (S_7 sized)


class InvalidSpec(ValueError):
    """Malformed group specification or unparseable input file."""


class NotAGroup(ValueError):
    """A purported multiplication table violates the group axioms."""


class ClosureTooLarge(ValueError):
    """Permutation closure exceeded the configured element cap."""


class NotAPrimeDivisor(ValueError):
    """The given number is not a prime divisor of the group order."""


# ---------------------------------------------------------------------------
# Arithmetic helpers


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeFactorization:
    """n = prod p_i^{r_i} with primes ascending and all r_i >= 1."""

    n: int
    factors: tuple[tuple[int, int], ...]


def factorize(n: int) -> PrimeFactorization:
    """Trial-division factorization; ample for desk-scale group orders."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    factors = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            r = 0
            while m % p == 0:
                m //= p
                r += 1
            factors.append((p, r))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return PrimeFactorization(n, tuple(factors))


def sigma(f: PrimeFactorization) -> int:
    """1 for prime powers, else the sum of the exponents.

    For n = 1 the defining case split does not apply; we return 1 by
    convention so that the single-vertex reduced graph (clique number 1)
    stays consistent.
    """
    if len(f.factors) <= 1:
        return 1
    return sum(r for _, r in f.factors)


def sigma_of(n: int) -> int:
    return sigma(factorize(n))


# ---------------------------------------------------------------------------
# Group specifications.  Each spec checks its own fields on construction
# (InvalidSpec), so parse_spec, build_group and direct callers share one check.


@dataclass(frozen=True)
class Cyclic:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpec("cyclic order must be >= 1")


@dataclass(frozen=True)
class Dihedral:
    order: int  # 2n with n >= 3

    def __post_init__(self):
        if self.order < 6 or self.order % 2:
            raise InvalidSpec("dihedral order must be even and >= 6")


@dataclass(frozen=True)
class GeneralizedQuaternion:
    order: int  # 4n with n >= 2

    def __post_init__(self):
        if self.order < 8 or self.order % 4:
            raise InvalidSpec("quaternion order must be a multiple of 4 and >= 8")


@dataclass(frozen=True)
class ElementaryAbelian:
    p: int
    k: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidSpec(f"{self.p} is not prime")
        if self.k < 1:
            raise InvalidSpec("exponent must be >= 1")


@dataclass(frozen=True)
class Abelian:
    invariant_factors: tuple[int, ...]  # d_1 | d_2 | ... | d_k, all >= 2

    def __post_init__(self):
        ds = self.invariant_factors
        if not ds or any(d < 2 for d in ds):
            raise InvalidSpec("invariant factors must be >= 2")
        if any(ds[i + 1] % ds[i] for i in range(len(ds) - 1)):
            raise InvalidSpec("invariant factors must form a divisibility chain")


@dataclass(frozen=True)
class Symmetric:
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= 6:
            raise InvalidSpec("symmetric degree must be 1..6")


@dataclass(frozen=True)
class Alternating:
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= 6:
            raise InvalidSpec("alternating degree must be 1..6")


@dataclass(frozen=True)
class DirectProduct:
    parts: tuple["GroupSpec", ...]

    def __post_init__(self):
        if not self.parts:
            raise InvalidSpec("direct product needs at least one factor")


@dataclass(frozen=True)
class CayleyFile:
    path: str

    def __post_init__(self):
        if not self.path:
            raise InvalidSpec("cayley: needs a file path")


@dataclass(frozen=True)
class PermFile:
    path: str

    def __post_init__(self):
        if not self.path:
            raise InvalidSpec("perm: needs a file path")


GroupSpec = (
    Cyclic
    | Dihedral
    | GeneralizedQuaternion
    | ElementaryAbelian
    | Abelian
    | Symmetric
    | Alternating
    | DirectProduct
    | CayleyFile
    | PermFile
)


def spec_string(spec: GroupSpec) -> str:
    """Canonical spec-grammar rendering, re-parseable by parse_spec."""
    if isinstance(spec, Cyclic):
        return f"Z{spec.n}"
    if isinstance(spec, Dihedral):
        return f"D{spec.order}"
    if isinstance(spec, GeneralizedQuaternion):
        return f"Q{spec.order}"
    if isinstance(spec, ElementaryAbelian):
        return f"E{spec.p}^{spec.k}"
    if isinstance(spec, Abelian):
        return "Ab[" + ",".join(str(d) for d in spec.invariant_factors) + "]"
    if isinstance(spec, Symmetric):
        return f"S{spec.n}"
    if isinstance(spec, Alternating):
        return f"A{spec.n}"
    if isinstance(spec, DirectProduct):
        return "x".join(spec_string(p) for p in spec.parts)
    if isinstance(spec, CayleyFile):
        return f"cayley:{spec.path}"
    if isinstance(spec, PermFile):
        return f"perm:{spec.path}"
    raise TypeError(f"not a GroupSpec: {spec!r}")


def spec_order(spec: GroupSpec) -> int | None:
    """Order of the group a spec describes, from its parameters alone, so a
    caller can bound it before any table is built; None for file specs,
    whose order is known only once the file is read."""
    if isinstance(spec, Cyclic):
        return spec.n
    if isinstance(spec, (Dihedral, GeneralizedQuaternion)):
        return spec.order
    if isinstance(spec, ElementaryAbelian):
        return spec.p ** spec.k
    if isinstance(spec, Abelian):
        return math.prod(spec.invariant_factors)
    if isinstance(spec, Symmetric):
        return math.factorial(spec.n)
    if isinstance(spec, Alternating):
        return math.factorial(spec.n) // 2 if spec.n >= 2 else 1
    if isinstance(spec, DirectProduct):
        orders = [spec_order(p) for p in spec.parts]
        return None if None in orders else math.prod(orders)
    if isinstance(spec, (CayleyFile, PermFile)):
        return None
    raise TypeError(f"not a GroupSpec: {spec!r}")


def parse_spec(text: str) -> GroupSpec:
    """Parse the spec grammar: Z<n>, D<order>, Q<order>, E<p>^<k>,
    Ab[d1,d2,...], S<n>, A<n>, x-joined products, cayley:<path>, perm:<path>.

    File specs consume the rest of the string, so paths cannot appear as
    product factors.
    """
    t = text.strip()
    if not t:
        raise InvalidSpec("empty group spec")
    if t.startswith("cayley:"):
        return CayleyFile(t[len("cayley:"):])
    if t.startswith("perm:"):
        return PermFile(t[len("perm:"):])
    parts = t.split("x")
    if len(parts) > 1:
        return DirectProduct(tuple(_parse_atom(p, t) for p in parts))
    return _parse_atom(t, t)


def _parse_atom(t: str, full: str) -> GroupSpec:
    try:
        m = re.fullmatch(r"Z(\d+)", t)
        if m:
            return Cyclic(int(m.group(1)))
        m = re.fullmatch(r"Ab\[(\d+(?:,\d+)*)\]", t)
        if m:
            return Abelian(tuple(int(d) for d in m.group(1).split(",")))
        m = re.fullmatch(r"D(\d+)", t)
        if m:
            return Dihedral(int(m.group(1)))
        m = re.fullmatch(r"Q(\d+)", t)
        if m:
            return GeneralizedQuaternion(int(m.group(1)))
        m = re.fullmatch(r"E(\d+)\^(\d+)", t)
        if m:
            return ElementaryAbelian(int(m.group(1)), int(m.group(2)))
        m = re.fullmatch(r"S(\d+)", t)
        if m:
            return Symmetric(int(m.group(1)))
        m = re.fullmatch(r"A(\d+)", t)
        if m:
            return Alternating(int(m.group(1)))
    except InvalidSpec as exc:  # the spec's own check, reported against the input
        raise InvalidSpec(f"{exc} in {full!r}") from None
    raise InvalidSpec(f"cannot parse group spec {full!r} (at {t!r})")


# ---------------------------------------------------------------------------
# The Group type


class Group:
    """Finite group on elements 0..n-1 with an explicit multiplication table.

    Instances are immutable after construction and safe for concurrent
    reads; derived data (element orders, cyclic subgroups, the power graph)
    is cached lazily.
    """

    __slots__ = ("n", "table", "identity", "inverse", "spec",
                 "_orders", "_cyclic_masks", "_maximal_family", "_power_graph")

    def __init__(self, table, spec: GroupSpec | None = None, *,
                 trust_associativity: bool = False):
        rows = [list(map(int, row)) for row in table]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise NotAGroup("multiplication table must be square and nonempty")
        self.n = n
        self.table = rows
        self.spec = spec
        self.identity = _validate_table(rows, trust_associativity)
        e = self.identity
        self.inverse = [row.index(e) for row in rows]
        self._orders: list[int] | None = None
        self._cyclic_masks: list[int] | None = None
        self._maximal_family: MaximalCyclicFamily | None = None
        self._power_graph = None  # graphs.Graph, set by graphs.power_graph

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def __repr__(self):
        name = spec_string(self.spec) if self.spec is not None else "table"
        return f"<Group {name} order={self.n}>"


def _validate_table(rows: list[list[int]], trust_associativity: bool) -> int:
    """Check Latin square + identity, and associativity for small tables.

    Returns the identity index.  The triple check is skipped above
    MAX_VERIFY_ORDER; untrusted tables of that size are rejected instead.
    """
    n = len(rows)
    t = np.asarray(rows, dtype=np.int64)
    if t.min() < 0 or t.max() >= n:
        raise NotAGroup("table entries must be element indices 0..n-1")
    ar = np.arange(n)
    if not (np.all(np.sort(t, axis=1) == ar) and np.all(np.sort(t, axis=0) == ar[:, None])):
        raise NotAGroup("table is not a Latin square")
    identity = None
    for e in np.nonzero((t == ar).all(axis=1))[0]:
        if (t[:, e] == ar).all():
            identity = int(e)
            break
    if identity is None:
        raise NotAGroup("table has no two-sided identity")
    if n <= MAX_VERIFY_ORDER:
        s = t.astype(np.int32)
        if not np.array_equal(s[s], s[:, s]):  # (ab)c == a(bc) for all triples
            raise NotAGroup("table is not associative")
    elif not trust_associativity:
        raise InvalidSpec(
            f"order {n} exceeds the {MAX_VERIFY_ORDER}-element associativity check; "
            "pass trust_associativity=True to accept the table unverified")
    return identity


# ---------------------------------------------------------------------------
# Table builders


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _dihedral_table(order: int) -> list[list[int]]:
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


def _quaternion_table(order: int) -> list[list[int]]:
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


def _product_table(tables: list[list[list[int]]]) -> list[list[int]]:
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


def _perm_parity_even(p: tuple[int, ...]) -> bool:
    seen = [False] * len(p)
    transpositions = 0
    for i in range(len(p)):
        if not seen[i]:
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            transpositions += length - 1
    return transpositions % 2 == 0


def _perm_table(perms: list[tuple[int, ...]]) -> list[list[int]]:
    """Multiplication table of a list of permutations of 0..k-1, where
    row a, column b holds the index of a.b, (a.b)(x) = a(b(x)).

    Each row is one numpy gather a[p] over all b at once (memory O(n*k)
    per row); the products are looked up by their raw bytes (a void-dtype
    view) with searchsorted on the sorted permutation keys.  Raises
    NotAGroup when a product is not in the list.
    """
    n = len(perms)
    k = len(perms[0]) if perms else 0
    # one extra fixed point k keeps the byte keys nonempty at degree 0
    p = np.empty((n, k + 1), dtype=np.min_scalar_type(k))
    p[:, :k] = perms
    p[:, k] = k
    key = np.dtype((np.void, p.itemsize * (k + 1)))
    keys = p.view(key).ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    table = []
    for a in p:
        prod = a[p]
        pos = np.searchsorted(sorted_keys, prod.view(key).ravel())
        idx = order[np.minimum(pos, n - 1)]
        if not np.array_equal(p[idx], prod):
            raise NotAGroup("the permutations are not closed under composition")
        table.append(idx.tolist())
    return table


# ---------------------------------------------------------------------------
# File parsers


def _parse_cayley_file(path: str) -> list[list[int]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidSpec(f"cannot read Cayley file {path!r}: {exc}") from exc
    tokens = text.split()
    if not tokens:
        raise InvalidSpec(f"Cayley file {path!r} is empty")
    try:
        values = [int(tk) for tk in tokens]
    except ValueError as exc:
        raise InvalidSpec(f"Cayley file {path!r} has a non-integer token: {exc}") from exc
    n = values[0]
    if n < 1:
        raise InvalidSpec(f"Cayley file {path!r} declares order {n}")
    if len(values) != 1 + n * n:
        raise InvalidSpec(
            f"Cayley file {path!r} should hold {n * n} entries after the order, "
            f"found {len(values) - 1}")
    body = values[1:]
    return [body[i * n:(i + 1) * n] for i in range(n)]


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_perm_file(path: str) -> list[tuple[int, ...]]:
    """Parse one permutation per line in disjoint-cycle notation on 1..k."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidSpec(f"cannot read perm file {path!r}: {exc}") from exc
    lines = [ln.strip() for ln in text.splitlines()]
    cycle_lists: list[list[list[int]]] = []
    degree = 0
    for no, line in enumerate(lines, 1):
        if not line:
            continue
        if _CYCLE_RE.sub("", line).strip():
            raise InvalidSpec(f"{path}:{no}: not disjoint-cycle notation: {line!r}")
        cycles = []
        seen: set[int] = set()
        for body in _CYCLE_RE.findall(line):
            pts = body.split()
            if not pts:
                continue  # "()" stands for the identity
            try:
                cycle = [int(p) for p in pts]
            except ValueError as exc:
                raise InvalidSpec(f"{path}:{no}: bad point in {line!r}") from exc
            if any(p < 1 for p in cycle):
                raise InvalidSpec(f"{path}:{no}: points must be >= 1 in {line!r}")
            if seen.intersection(cycle) or len(set(cycle)) != len(cycle):
                raise InvalidSpec(f"{path}:{no}: repeated point in {line!r}")
            seen.update(cycle)
            degree = max(degree, max(cycle))
            cycles.append(cycle)
        cycle_lists.append(cycles)
    if not cycle_lists:
        raise InvalidSpec(f"perm file {path!r} has no permutations")
    gens = []
    for cycles in cycle_lists:
        img = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                img[a - 1] = b - 1
        gens.append(tuple(img))
    return gens


def _close_permutations(gens: list[tuple[int, ...]], cap: int) -> list[tuple[int, ...]]:
    """Breadth-first multiplicative closure, elements in first-discovery order."""
    k = len(gens[0]) if gens else 0
    ident = tuple(range(k))
    elems = [ident]
    index = {ident: 0}
    i = 0
    while i < len(elems):
        g = elems[i]
        i += 1
        for s in gens:
            h = tuple(g[s[j]] for j in range(k))
            if h not in index:
                if len(elems) >= cap:
                    raise ClosureTooLarge(
                        f"permutation closure exceeds the cap of {cap} elements")
                index[h] = len(elems)
                elems.append(h)
    return elems


# ---------------------------------------------------------------------------
# build_group


def build_group(spec: GroupSpec | str, *, closure_cap: int = DEFAULT_CLOSURE_CAP,
                trust_associativity: bool = False) -> Group:
    """Construct the group described by a spec object or spec string.

    trust_associativity only matters for Cayley files larger than
    MAX_VERIFY_ORDER; built-in families are associative by construction.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if isinstance(spec, Cyclic):
        return Group(_cyclic_table(spec.n), spec, trust_associativity=True)
    if isinstance(spec, Dihedral):
        return Group(_dihedral_table(spec.order), spec, trust_associativity=True)
    if isinstance(spec, GeneralizedQuaternion):
        return Group(_quaternion_table(spec.order), spec, trust_associativity=True)
    if isinstance(spec, ElementaryAbelian):
        table = _product_table([_cyclic_table(spec.p)] * spec.k)
        return Group(table, spec, trust_associativity=True)
    if isinstance(spec, Abelian):
        table = _product_table([_cyclic_table(d) for d in spec.invariant_factors])
        return Group(table, spec, trust_associativity=True)
    if isinstance(spec, Symmetric):
        perms = sorted(itertools.permutations(range(spec.n)))
        return Group(_perm_table(perms), spec, trust_associativity=True)
    if isinstance(spec, Alternating):
        perms = [p for p in sorted(itertools.permutations(range(spec.n)))
                 if _perm_parity_even(p)]
        return Group(_perm_table(perms), spec, trust_associativity=True)
    if isinstance(spec, DirectProduct):
        factors = [build_group(p, closure_cap=closure_cap) for p in spec.parts]
        table = _product_table([f.table for f in factors])
        return Group(table, spec, trust_associativity=True)
    if isinstance(spec, CayleyFile):
        table = _parse_cayley_file(spec.path)
        g = Group(table, spec, trust_associativity=trust_associativity)
        if g.identity != 0:
            raise NotAGroup(f"Cayley file {spec.path!r}: element 0 must be the identity")
        return g
    if isinstance(spec, PermFile):
        gens = _parse_perm_file(spec.path)
        elems = _close_permutations(gens, closure_cap)
        return Group(_perm_table(elems), spec, trust_associativity=True)
    raise InvalidSpec(f"unsupported spec: {spec!r}")


# ---------------------------------------------------------------------------
# Orders and cyclic subgroups


def element_order(g: Group, x: int) -> int:
    """Least k >= 1 with x^k = identity."""
    if not 0 <= x < g.n:
        raise ValueError(f"element index {x} out of range for order-{g.n} group")
    k, y = 1, x
    while y != g.identity:
        y = g.table[y][x]
        k += 1
    return k


def element_orders(g: Group) -> list[int]:
    """Orders of all elements, cached on the group."""
    if g._orders is None:
        g._orders = [element_order(g, x) for x in range(g.n)]
    return g._orders


def cyclic_masks(g: Group) -> list[int]:
    """Bitmask of the cyclic subgroup <x> for every element x, cached."""
    if g._cyclic_masks is None:
        masks = []
        for x in range(g.n):
            m = 1 << g.identity
            y = x
            while not (m >> y) & 1:
                m |= 1 << y
                y = g.table[y][x]
            masks.append(m)
        g._cyclic_masks = masks
    return g._cyclic_masks


def is_cyclic_group(g: Group) -> bool:
    return g.n in element_orders(g) if g.n > 1 else True


def is_abelian_group(g: Group) -> bool:
    t = g.table
    return all(t[i][j] == t[j][i] for i in range(g.n) for j in range(i + 1, g.n))


def group_exponent(g: Group) -> int:
    """Least common multiple of all element orders."""
    return math.lcm(*element_orders(g))


def is_cp_group(g: Group) -> bool:
    """True when every element order is 1 or a prime power."""
    return all(len(factorize(k).factors) <= 1 for k in element_orders(g))


@dataclass(frozen=True)
class CyclicSubgroup:
    generator: int
    elements: tuple[int, ...]  # sorted ascending
    order: int


def _mask_of(elements: tuple[int, ...]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _subgroup_from_mask(g: Group, mask: int) -> CyclicSubgroup:
    els = tuple(bits(mask))
    order = len(els)
    gen = min(e for e in els if element_order(g, e) == order)
    return CyclicSubgroup(gen, els, order)


@dataclass(frozen=True)
class MaximalCyclicFamily:
    """All inclusion-maximal cyclic subgroups, split by order type.

    by_prime maps p to the members of p-power order; mixed holds the rest
    (orders with at least two prime divisors, plus the trivial subgroup of
    the one-element group).
    """

    all: tuple[CyclicSubgroup, ...]
    by_prime: dict[int, tuple[CyclicSubgroup, ...]]
    mixed: tuple[CyclicSubgroup, ...]


def maximal_cyclic_subgroups(g: Group) -> MaximalCyclicFamily:
    """Compute <x> for every x, deduplicate by element set, keep the
    inclusion-maximal ones."""
    if g._maximal_family is not None:
        return g._maximal_family
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
        subs.append(CyclicSubgroup(gen, els, len(els)))
    subs.sort(key=lambda s: (s.order, s.elements))
    by_prime: dict[int, list[CyclicSubgroup]] = {}
    mixed = []
    for s in subs:
        fac = factorize(s.order)
        if len(fac.factors) == 1:
            by_prime.setdefault(fac.factors[0][0], []).append(s)
        else:
            mixed.append(s)
    fam = MaximalCyclicFamily(
        all=tuple(subs),
        by_prime={p: tuple(v) for p, v in sorted(by_prime.items())},
        mixed=tuple(mixed),
    )
    g._maximal_family = fam
    return fam


# ---------------------------------------------------------------------------
# Intersection chains


@dataclass(frozen=True)
class ChainAnalysis:
    """Intersection-chain data of one maximal cyclic p-subgroup M_i.

    chain lists the distinct intersections of M_i with the maximal cyclic
    p-subgroups, strictly increasing, ending at M_i itself.  lambda_exp is
    the largest e with p^e the order of an intersection of M_i with a
    maximal cyclic subgroup of non-p-power order, or -1 when no such
    subgroup exists.  s_prime is the first chain position whose order
    exceeds p^lambda_exp, and f_i the exponent with p^{f_i} = |M_i|.
    """

    subgroup_index: int
    chain: tuple[CyclicSubgroup, ...]
    chain_generators: tuple[int, ...]
    s_i: int
    lambda_exp: int
    s_prime: int
    f_i: int


def _exact_log(base: int, value: int) -> int:
    e, v = 0, 1
    while v < value:
        v *= base
        e += 1
    if v != value:
        raise AssertionError(f"{value} is not a power of {base}")
    return e


def chain_analysis(g: Group, p: int) -> list[ChainAnalysis]:
    """One analysis per maximal cyclic p-subgroup; empty list if there are none."""
    if not is_prime(p) or g.n % p != 0:
        raise NotAPrimeDivisor(f"{p} is not a prime divisor of the group order {g.n}")
    fam = maximal_cyclic_subgroups(g)
    mp = fam.by_prime.get(p, ())
    if not mp:
        return []
    mp_masks = [_mask_of(s.elements) for s in mp]
    other_masks = [_mask_of(s.elements) for s in fam.all if s not in mp]
    out = []
    for i, mi_mask in enumerate(mp_masks):
        inter = sorted({mi_mask & mj for mj in mp_masks}, key=lambda m: m.bit_count())
        for a, b in zip(inter, inter[1:]):
            if a & ~b:  # subgroups of a cyclic p-group are totally ordered
                raise AssertionError("intersections do not form a chain")
        chain = tuple(_subgroup_from_mask(g, m) for m in inter)
        if other_masks:
            lam_order = max((mi_mask & om).bit_count() for om in other_masks)
            lambda_exp = _exact_log(p, lam_order)
        else:
            lambda_exp = -1
        s_i = len(chain)
        if lambda_exp < 0:
            s_prime = 1
        else:
            threshold = p ** lambda_exp
            s_prime = next(u for u, c in enumerate(chain, 1) if c.order > threshold)
        f_i = _exact_log(p, chain[-1].order)
        out.append(ChainAnalysis(
            subgroup_index=i,
            chain=chain,
            chain_generators=tuple(c.generator for c in chain),
            s_i=s_i,
            lambda_exp=lambda_exp,
            s_prime=s_prime,
            f_i=f_i,
        ))
    return out


def alpha_p(g: Group, p: int) -> int:
    """max over the p-chains of s_i - s_i' + lambda_i + 2; 0 with no p-chains."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if g.n % p != 0:
        return 0
    analyses = chain_analysis(g, p)
    if not analyses:
        return 0
    return max(a.s_i - a.s_prime + a.lambda_exp + 2 for a in analyses)
