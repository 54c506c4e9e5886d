"""Finite groups as explicit multiplication tables.

Groups are built from parametric families (cyclic, dihedral, generalized
quaternion, abelian products), from Cayley-table files, or by one closure
of permutation generators, which serves both perm files and the small
symmetric and alternating groups.  Elements are the indices 0..n-1, and
every table passes one check: a two-sided identity, associativity by
Light's test, and the identity in every row, which makes it a group.
Everything downstream (element orders, maximal cyclic subgroups, the
intersection-chain data behind the dimension formulas) is computed
directly from the table, so file-loaded groups behave exactly like
built-in ones.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from ._numpy import np

__all__ = [
    "Group", "GroupSpec", "Cyclic", "Dihedral", "GeneralizedQuaternion",
    "ElementaryAbelian", "Abelian", "Symmetric", "Alternating", "DirectProduct",
    "CayleyFile", "PermFile", "MaximalCyclicFamily",
    "ChainAnalysis", "build_group", "parse_spec", "spec_string", "spec_order",
    "element_orders", "maximal_cyclic_subgroups", "chain_analysis", "alpha_p",
    "sigma_of", "factorize", "is_cp_group", "is_cyclic_group",
    "is_abelian_group",
    "InvalidSpec", "NotAGroup", "ClosureTooLarge", "InternalInconsistency",
]

DEFAULT_CLOSURE_CAP = 5040  # permutation-closure guard (S_7 sized)


class InvalidSpec(ValueError):
    """Malformed group specification or unparseable input file."""


class NotAGroup(ValueError):
    """A purported multiplication table violates the group axioms."""


class ClosureTooLarge(ValueError):
    """Permutation closure exceeded the configured element cap."""


class InternalInconsistency(RuntimeError):
    """Two methods that must agree returned different values, or derived
    data broke an invariant that the group axioms guarantee; this is a bug,
    never a condition to resolve by preferring one method."""


# ---------------------------------------------------------------------------
# Arithmetic helpers


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """n = prod p^r as its pairs (p, r), primes ascending and every r >= 1, by
    trial division; ample for desk-scale group orders."""
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
    return tuple(factors)


def is_prime(p: int) -> bool:
    return p > 1 and factorize(p) == ((p, 1),)


def sigma_of(n: int) -> int:
    """1 for prime powers, else the sum of the exponents of n.

    For n = 1 the defining case split does not apply; we return 1 by
    convention so that the single-vertex reduced graph (clique number 1)
    stays consistent.
    """
    factors = factorize(n)
    return 1 if len(factors) <= 1 else sum(r for _, r in factors)


# ---------------------------------------------------------------------------
# Group specifications.  Each spec checks its own fields on construction
# (InvalidSpec), so parse_spec, build_group and direct callers share one check.
# Each spec kind's grammar, order and builder are its row of _ROWS, below.

# the largest order n whose n x n table numpy can index (3037000499 on 64-bit
# builds): numpy's intp is ssize_t-sized, so read without importing numpy
_MAX_ORDER = math.isqrt(sys.maxsize)


def _check_order(order: int | str | None) -> None:
    """Refuse a spec whose order is above _MAX_ORDER; an order too large to
    compute comes as its text, and a file spec's, not yet known, as None."""
    if isinstance(order, str) or order is not None and order > _MAX_ORDER:
        raise InvalidSpec(f"order {order} exceeds {_MAX_ORDER} (the largest n"
                          " whose n x n table numpy can index)")


class GroupSpec:
    """Base of the spec classes: a frozen record over the fields a subclass
    annotates, given by position or keyword, then checked, InvalidSpec on
    failure: by its __post_init__, by a family's _ATOMS row, so that a spec
    is what the grammar writes, and by _check_order.  Two specs are equal
    only when of one class: Cyclic(6) is not Symmetric(6), unlike NamedTuples."""

    __match_args__: tuple[str, ...] = ()  # the field names, in order

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        values = {**dict(zip(names, args)), **kwargs}
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields"
                            f" {', '.join(names)}, each given once")
        self.__dict__.update(values)  # __setattr__ refuses every assignment
        try:
            self.__post_init__()
            if atom := _ATOMS.get(type(self)):
                m = atom.pattern.fullmatch(atom.render(self))
                read = m and tuple(map(atom.read, m.groups()))
                if read != self._values():
                    raise TypeError
                self.__dict__.update(zip(names, read))  # Python ints: orders cannot wrap
        except (TypeError, LookupError):  # also a field no check can read, as Cyclic("6")
            raise InvalidSpec(f"{self!r} is not a spec the grammar writes") from None
        _check_order(spec_order(self))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: a spec is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: a spec is frozen")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Cyclic(GroupSpec):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpec("cyclic order must be >= 1")


class Dihedral(GroupSpec):
    order: int  # 2n with n >= 3

    def __post_init__(self):
        if self.order < 6 or self.order % 2:
            raise InvalidSpec("dihedral order must be even and >= 6")


class GeneralizedQuaternion(GroupSpec):
    order: int  # 4n with n >= 2

    def __post_init__(self):
        if self.order < 8 or self.order % 4:
            raise InvalidSpec("quaternion order must be a multiple of 4 and >= 8")


class ElementaryAbelian(GroupSpec):
    p: int
    k: int

    def __post_init__(self):
        if self.p <= _MAX_ORDER and not is_prime(self.p):  # is_prime trial-divides to sqrt(p)
            raise InvalidSpec(f"{self.p} is not prime")
        if self.k < 1:
            raise InvalidSpec("exponent must be >= 1")
        if self.p > _MAX_ORDER or self.k >= 32:  # p >= 2: too large, so p^k is not computed
            _check_order(f"{self.p}^{self.k}")


class Abelian(GroupSpec):
    invariant_factors: tuple[int, ...]  # d_1 | d_2 | ... | d_k, all >= 2

    def __post_init__(self):
        ds = self.invariant_factors
        if not ds or any(d < 2 for d in ds):
            raise InvalidSpec("invariant factors must be >= 2")
        if any(ds[i + 1] % ds[i] for i in range(len(ds) - 1)):
            raise InvalidSpec("invariant factors must form a divisibility chain")


class Symmetric(GroupSpec):
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= 7:
            raise InvalidSpec("symmetric degree must be 1..7")


class Alternating(GroupSpec):
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= 7:
            raise InvalidSpec("alternating degree must be 1..7")


class DirectProduct(GroupSpec):
    """A product as parse_spec writes it: a tuple of two or more family specs."""

    parts: tuple[GroupSpec, ...]

    def __post_init__(self):
        parts = self.parts
        if type(parts) is not tuple or len(parts) < 2 or any(type(p) not in _ATOMS for p in parts):
            raise InvalidSpec("direct product factors must be a tuple of two or more family specs")


class CayleyFile(GroupSpec):
    path: str

    def __post_init__(self):
        if type(self.path) is not str or not self.path or self.path[-1].isspace():
            raise InvalidSpec("cayley: needs a file path, a str with no whitespace at its end")


class PermFile(GroupSpec):
    path: str

    def __post_init__(self):
        if type(self.path) is not str or not self.path or self.path[-1].isspace():
            raise InvalidSpec("perm: needs a file path, a str with no whitespace at its end")


def spec_string(spec: GroupSpec) -> str:
    """Canonical spec-grammar rendering, re-parseable by parse_spec."""
    return _row(spec).render(spec)


def spec_order(spec: GroupSpec) -> int | None:
    """Order of the group a spec describes, from its parameters alone, so a
    caller can bound it before any table is built; None for file specs
    alone, whose order is known only once the file is read."""
    return _row(spec).order(spec)


def parse_spec(text: str) -> GroupSpec:
    """Parse the spec grammar: Z<n>, D<order>, Q<order>, E<p>^<k>,
    Ab[d1,d2,...], S<n>, A<n>, x-joined products, cayley:<path>, perm:<path>.

    File specs consume the rest of the string, so paths cannot appear as
    product factors; nor can a product.  parse_spec(spec_string(s)) == s
    for every spec s, since a spec is what this grammar writes.
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
        return _spec(DirectProduct, [tuple(_parse_atom(p, t) for p in parts)], t)
    return _parse_atom(t, t)


def _parse_atom(t: str, full: str) -> GroupSpec:
    for cls, atom in _ATOMS.items():
        m = atom.pattern.fullmatch(t)
        if m:
            return _spec(cls, map(atom.read, m.groups()), full)
    raise InvalidSpec(f"cannot parse group spec {full!r} (at {t!r})")


def _spec(cls, fields, full: str) -> GroupSpec:
    try:
        return cls(*fields)
    except InvalidSpec as exc:  # the spec's own check, reported against the input
        raise InvalidSpec(f"{exc} in {full!r}") from None


# ---------------------------------------------------------------------------
# The Group type


def _cached(f):
    """Decorator for what a Group or a Graph derives: f(obj, *args) runs the
    first time it is asked for, and its result is kept in obj._cache, the
    one cache slot, under f's name and args.  A call that raises keeps nothing."""
    name = f.__name__

    @functools.wraps(f)
    def cached(obj, *args):
        key = (name, *args) if args else name
        try:
            return obj._cache[key]
        except KeyError:
            value = obj._cache[key] = f(obj, *args)
            return value

    return cached


class Group:
    """Finite group on elements 0..n-1 with an explicit multiplication table.

    The table (rows or an array) is checked for a two-sided identity,
    associativity and the identity in every row, NotAGroup on failure, and
    kept as one read-only numpy array, array[a, b] = a*b, of the narrowest
    unsigned dtype that holds 0..n-1, np.min_scalar_type(n - 1); an array
    already of that dtype is kept rather than copied.  A group is its
    table: it holds no spec, and everything derived, the closed forms'
    families included, reads that array; table (lists of ints) is built on
    first read.  generators, optional element indices in 0..n-1, are where
    the associativity check starts: any indices give the same verdict, and
    a small generating set the fastest check.  Instances are immutable
    after construction and safe for concurrent reads; derived data (element
    orders, cyclic subgroups as int masks, the chain data, the power graph)
    is cached lazily by _cached.
    """

    __slots__ = ("n", "array", "identity", "_cache")

    def __init__(self, table, *, generators=()):
        try:
            t = np.asarray(table)
        except ValueError:  # ragged rows
            t = np.empty(0)
        n = len(t)
        if n == 0 or t.shape != (n, n):
            raise NotAGroup("multiplication table must be square and nonempty")
        if not all(0 <= a < n for a in generators):
            raise ValueError(f"generators must be element indices 0..{n - 1}")
        self.n = n
        self.array, self.identity = _validate_table(t, generators)
        self._cache: dict = {}  # filled by _cached

    @property
    @_cached
    def table(self) -> list[list[int]]:
        """The table as lists of ints, table[a][b] = a*b."""
        return self.array.tolist()

    def __repr__(self):
        return f"<Group order={self.n}>"


_BLOCK_ENTRIES = 1 << 18  # entries of a pass taken at once, so temporaries stay in cache


def _block_rows(rows: int, width: int) -> list[slice]:
    """Row slices of a pass over rows rows of width entries, _BLOCK_ENTRIES to a slice."""
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _is_symmetric(t: np.ndarray) -> bool:
    """t == t.T as raw bytes, each _block_rows block against its columns transposed."""
    return all(t[b].tobytes() == t[:, b].T.tobytes() for b in _block_rows(len(t), len(t)))


def _validate_table(t: np.ndarray, generators=()) -> tuple[np.ndarray, int]:
    """Check the range, a two-sided identity e, associativity by Light's
    test, then that every row holds e.

    Returns the table narrowed to the smallest unsigned dtype that holds
    0..n-1, np.min_scalar_type(n - 1), made read-only, and the identity
    index.  An entry outside int64 makes t an object (or float) array,
    refused as out of range.

    Light's test: the a with (x*a)*y == x*(a*y) for all x, y are closed
    under the product, so checking the generators that _spanning_tree
    picks (starting from generators) proves associativity.  With e, the
    table is then a finite monoid.  If row x holds e, at column y, then
    z -> x*z is onto, since z = x*(y*z), so it is one-to-one, and
    x*(y*x) = (x*y)*x = x*e gives y*x = e.  So when every row holds e,
    every element has an inverse: the table is a group, and a Latin square.
    Only a table that fails is sorted for the Latin square, so that one
    that is not is reported as such, whichever check failed.
    """
    n = len(t)
    if t.dtype.kind not in "iu" or t.min() < 0 or t.max() >= n:
        raise NotAGroup("table entries must be element indices 0..n-1")
    t = t.astype(np.min_scalar_type(n - 1), copy=False)  # narrow entries: cheaper gathers
    ar = np.arange(n)

    def column(a: int) -> list[int]:
        col, row = t[:, a], t[a]
        for b in _block_rows(n, n):
            if t[col[b]].tobytes() != t[b].take(row, axis=1).tobytes():
                raise NotAGroup("table is not associative")
        return col.tolist()

    try:
        # the first row with x*0 = 0, as a left identity has; with none,
        # argmax gives row 0, which then fails, since 0*0 != 0
        identity = int(np.argmax(t[:, 0] == 0))
        if not ((t[identity] == ar).all() and (t[:, identity] == ar).all()):
            raise NotAGroup("table has no two-sided identity")
        _spanning_tree(n, identity, column, generators)
        if not all((t[b] == identity).any(1).all() for b in _block_rows(n, n)):
            raise NotAGroup("table is not a Latin square")
    except NotAGroup:
        if not ((np.sort(t, 1) == ar).all() and (np.sort(t, 0) == ar[:, None]).all()):
            raise NotAGroup("table is not a Latin square") from None
        raise
    t.flags.writeable = False
    return t, identity


def _spanning_tree(n: int, identity: int, column, gens=()) -> None:
    """Grow a spanning tree of right multiplication from the identity,
    breadth first, until it reaches all n elements; its edges are not kept.

    column(a) returns [x*a for every x], or raises NotAGroup.  The
    generators are gens, then greedily the smallest element not yet
    reached; one already reached is skipped.  In a group each generator at
    least doubles the subgroup reached, so more than log2(n) of them means
    the table is not associative.
    """
    seen = [False] * n
    seen[identity] = True
    reached, cols = [identity], []
    for a in itertools.chain(gens, range(n)):
        if len(reached) == n:
            break
        if seen[a]:
            continue
        if 2 << len(cols) > n:
            raise NotAGroup("table is not associative")
        col = column(a)
        cols.append(col)
        pending = iter(reached)  # also yields what the loops below append
        for g in itertools.islice(pending, len(reached)):  # closed under the earlier generators
            h = col[g]
            if not seen[h]:
                seen[h] = True
                reached.append(h)
        for g in pending:
            for c in cols:
                h = c[g]
                if not seen[h]:
                    seen[h] = True
                    reached.append(h)


# ---------------------------------------------------------------------------
# Table builders


# Z, D and Q compute in the narrowest dtype holding +-2 * order: every intermediate lies within it
def _cyclic_table(n: int) -> np.ndarray:
    ar = np.arange(n, dtype=np.min_scalar_type(2 * n))
    return (ar[:, None] + ar) % n


def _dihedral_table(order: int) -> np.ndarray:
    # rotations a^i at 0..n-1, reflections a^i b at n..2n-1:
    # (a^i b^s)(a^j b^t) = a^(i + (-1)^s j) b^(s xor t)
    n = order // 2
    s, i = np.divmod(np.arange(order, dtype=np.min_scalar_type(-2 * order)), n)
    return (s[:, None] ^ s) * n + (i[:, None] + (1 - 2 * s[:, None]) * i) % n


def _quaternion_table(order: int) -> np.ndarray:
    # x^a at 0..2n-1, y x^a at 2n..4n-1, with y^2 = x^n and x y = y x^{-1}:
    # (y^s x^a)(y^t x^b) = y^(s xor t) x^((-1)^t a + b + s t n)
    n = order // 4
    two = 2 * n
    s, a = np.divmod(np.arange(order, dtype=np.min_scalar_type(-2 * order)), two)
    return (s[:, None] ^ s) * two + ((1 - 2 * s) * a[:, None] + a + s[:, None] * s * n) % two


def _product_table(factors) -> tuple[np.ndarray, list[int]]:
    """Row-major direct product of the given (table, generators) pairs, one
    factor t of order m at a time by mixed radix: (A, a) has index A*m + a,
    and (A, a)(B, b) = out[A, B]*m + t[a, b], broadcast over (A, a, B, b).
    A factor's identity is 0, so its generator a is a times the product of
    the later factors' orders; returns the table and those generators.

    The fold runs in the table's own dtype, np.min_scalar_type(n - 1) for
    the product's order n, so the one n x n array it makes is the table,
    which Group() then keeps as it is.  Every intermediate entry is below
    n: with k the order of the factors folded so far, A*m + a is below
    k*m <= n.  m is cast to that dtype too; it wraps only when m = n, where
    out is [[0]], so the product is 0 either way."""
    dt = np.min_scalar_type(math.prod(len(t) for t, _ in factors) - 1)
    out, gens = np.zeros((1, 1), dtype=dt), []
    for t, factor_gens in factors:
        k, m = len(out), len(t)
        layer = np.multiply(out[:, None, :, None], np.intp(m), out=np.empty((k, m, k, m), dt),
                            dtype=dt, casting="unsafe")
        layer += t.astype(dt)[None, :, None, :]
        out = layer.reshape(k * m, -1)
        gens = [a * m for a in gens] + list(factor_gens)
    return out, gens


def _perm_table(gens: list[tuple[int, ...]],
                lexicographic: bool = False) -> tuple[np.ndarray, list[int]]:
    """Multiplication table of the group that the permutations gens of
    0..k-1 generate, row a, column b holding the index of a.b,
    (a.b)(x) = a(b(x)), and the index of each generator.

    One breadth-first closure from the identity grows a spanning tree of
    the generators (a Schreier vector; Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, ch. 4).  Each permutation is a row with one
    fixed point k appended, so that even the degree-0 identity has a key,
    and one dict maps each row's raw bytes to its index, the elements
    numbered in first-discovery order.  The rows are multiplied by every
    generator in that order, one numpy product per _block_rows slice, so
    that many generators on many points take bounded memory, and each new
    h = g.s is a tree edge.  Since (g.s).b = g.(s.b), row h of the table is
    row g gathered by row s, which lists s.b for every b.  With
    lexicographic, the elements are numbered in the lexicographic order of
    their rows instead, through the edges and the generators' rows.  Raises
    ClosureTooLarge when the group has more than DEFAULT_CLOSURE_CAP elements.
    """
    k = len(gens[0]) if gens else 0
    s = np.empty((len(gens), k + 1), dtype=np.min_scalar_type(k))
    s[:, :k] = gens
    s[:, k] = k
    key = np.dtype((np.void, s.itemsize * (k + 1)))

    def keys(rows: np.ndarray) -> list[bytes]:
        return rows.view(key).ravel().tolist()  # each row's raw bytes

    m, first = len(s), 0  # first: the index of block[0]
    blocks = [np.arange(k + 1, dtype=s.dtype)[None]]
    index = dict.fromkeys(keys(blocks[0]), 0)
    edges = []  # edges[h - 1] = g*m + j for the tree edge h = g.gens[j]
    for block in blocks:  # also yields the blocks appended below
        for part in _block_rows(len(block), s.size):  # a row: len(gens) * (k + 1) entries
            products = block[part].take(s, axis=1).reshape(-1, k + 1)  # row g*m + j: g.gens[j]
            new = []
            for r, b in enumerate(keys(products)):
                if b not in index:
                    if len(index) >= DEFAULT_CLOSURE_CAP:
                        raise ClosureTooLarge("permutation closure exceeds the cap of "
                                              f"{DEFAULT_CLOSURE_CAP} elements")
                    index[b] = len(index)
                    new.append(r)
            if new:
                blocks.append(products[new])
                edges += [(first + part.start) * m + r for r in new]
        first += len(block)
    perms = np.concatenate(blocks)
    n = len(perms)
    label = np.argsort(np.lexsort(perms.T[::-1])) if lexicographic else np.arange(n)
    rows = np.empty((m, n), dtype=np.intp)
    for row, r in zip(s, rows):
        r[label] = label[[index[b] for b in keys(row[perms])]]
    table = np.empty((n, n), dtype=np.min_scalar_type(n - 1))
    at = label.tolist()
    table[at[0]] = np.arange(n)
    for h, q in enumerate(edges, 1):
        g, j = divmod(q, m)
        table[at[g]].take(rows[j], out=table[at[h]])
    return table, label[[index[b] for b in keys(s)]].tolist()


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
    """Parse one permutation per line in disjoint-cycle notation on points >= 1.

    The points that occur are numbered 0..k-1 in ascending order, so the
    degree k is bounded by the file's size, not by its largest label."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidSpec(f"cannot read perm file {path!r}: {exc}") from exc
    lines = [ln.strip() for ln in text.splitlines()]
    cycle_lists: list[list[list[int]]] = []
    points: set[int] = set()
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
            cycles.append(cycle)
        points |= seen
        cycle_lists.append(cycles)
    if not cycle_lists:
        raise InvalidSpec(f"perm file {path!r} has no permutations")
    label = {pt: i for i, pt in enumerate(sorted(points))}
    gens = []
    for cycles in cycle_lists:
        img = list(range(len(label)))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                img[label[a]] = label[b]
        gens.append(tuple(img))
    return gens


def _symmetric_or_alternating(spec: Symmetric | Alternating) -> tuple[np.ndarray, list[int]]:
    """S_k on the permutations of 0..k-1 in lexicographic order, or A_k on
    the even ones, closed from the k-cycle and (0 1) for S_k (k >= 2), and
    for A_k (k >= 3) from (0 1 2) and the cycle on 0..k-1 (odd k) or on
    1..k-1 (even k)."""
    k = spec.n
    if isinstance(spec, Symmetric):
        gens = [tuple(range(1, k)) + (0,), (1, 0) + tuple(range(2, k))] if k >= 2 else []
    else:
        lo = k % 2 ^ 1  # the long cycle is even: length k for odd k, k - 1 for even k
        gens = [(1, 2, 0) + tuple(range(3, k)), tuple(range(lo)) + tuple(range(lo + 1, k)) + (lo,)]
        gens = gens if k >= 3 else []
    return _perm_table(gens, lexicographic=True)


# ---------------------------------------------------------------------------
# The spec table and build_group


class _Atom(NamedTuple):
    """A spec kind's row: its grammar, a family's alone, its order, and its builder,
    which gives its table, identity 0, and the generators it knows, () for none."""

    pattern: re.Pattern | None  # a spec's text, one group per field
    read: Callable[[str], object] | None  # matched group -> field
    render: Callable[[GroupSpec], str]
    order: Callable[[GroupSpec], int | None]  # from the fields alone
    build: Callable[[GroupSpec], tuple]  # (table, generators)


# One row per family.  parse_spec, spec_string, spec_order and build_group
# all read it, so a new family is one spec class and one row.
_ATOMS = {
    Cyclic: _Atom(
        re.compile(r"Z(\d+)"), int, lambda s: f"Z{s.n}", lambda s: s.n,
        lambda s: (_cyclic_table(s.n), ())),
    Abelian: _Atom(
        re.compile(r"Ab\[(\d+(?:,\d+)*)\]"), lambda t: tuple(int(d) for d in t.split(",")),
        lambda s: "Ab[" + ",".join(str(d) for d in s.invariant_factors) + "]",
        lambda s: math.prod(s.invariant_factors),
        lambda s: _product_table([(_cyclic_table(d), ()) for d in s.invariant_factors])),
    Dihedral: _Atom(
        re.compile(r"D(\d+)"), int, lambda s: f"D{s.order}", lambda s: s.order,
        lambda s: (_dihedral_table(s.order), ())),
    GeneralizedQuaternion: _Atom(
        re.compile(r"Q(\d+)"), int, lambda s: f"Q{s.order}", lambda s: s.order,
        lambda s: (_quaternion_table(s.order), ())),
    ElementaryAbelian: _Atom(
        re.compile(r"E(\d+)\^(\d+)"), int, lambda s: f"E{s.p}^{s.k}", lambda s: s.p ** s.k,
        lambda s: _product_table([(_cyclic_table(s.p), ())] * s.k)),
    Symmetric: _Atom(
        re.compile(r"S(\d+)"), int, lambda s: f"S{s.n}", lambda s: math.factorial(s.n),
        _symmetric_or_alternating),
    Alternating: _Atom(
        re.compile(r"A(\d+)"), int, lambda s: f"A{s.n}", lambda s: max(1, math.factorial(s.n) // 2),
        _symmetric_or_alternating),
}

# The families' rows, and beside them those of the kinds written from family specs or a path.
_ROWS = _ATOMS | {
    DirectProduct: _Atom(
        None, None, lambda s: "x".join(map(spec_string, s.parts)),
        lambda s: math.prod(map(spec_order, s.parts)),
        lambda s: _product_table([_ATOMS[type(p)].build(p) for p in s.parts])),
    CayleyFile: _Atom(
        None, None, lambda s: f"cayley:{s.path}", lambda s: None,
        lambda s: (_parse_cayley_file(s.path), ())),
    PermFile: _Atom(
        None, None, lambda s: f"perm:{s.path}", lambda s: None,
        lambda s: _perm_table(_parse_perm_file(s.path))),
}


def _row(spec: GroupSpec) -> _Atom:
    if type(spec) not in _ROWS:
        raise TypeError(f"not a GroupSpec: {spec!r}")
    return _ROWS[type(spec)]


def build_group(spec: GroupSpec | str) -> Group:
    """Construct the group described by a spec object or spec string, the
    one place a Group is made: from a table and the generators its builder
    knows, a product's folded from its factors' rows.  Every table, built-in
    or from a file of any order, gets Group()'s full check, and its identity
    must be element 0."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    table, gens = _row(spec).build(spec)
    g = Group(table, generators=gens)
    if g.identity != 0:
        raise NotAGroup(f"{spec_string(spec)}: element 0 must be the identity")
    return g


# ---------------------------------------------------------------------------
# Orders and cyclic subgroups


@_cached
def element_orders(g: Group) -> list[int]:
    """Orders of all elements, cached on the group: ord(x) = |<x>|, the
    popcount of x's cyclic mask."""
    return [m.bit_count() for m in cyclic_masks(g)]


@_cached
def cyclic_masks(g: Group) -> list[int]:
    """Bitmask of the cyclic subgroup <x> for every element x, cached: the
    group layer's one power walk, which element_orders reads.

    One walk x, x^2, ... per cyclic subgroup, reading the array entry by
    entry; each power x^j with gcd(j, ord x) = 1 generates the same
    subgroup and takes its mask without a walk."""
    item, e, gcd = g.array.item, g.identity, math.gcd
    masks = [0] * g.n
    for x in range(g.n):
        if masks[x]:
            continue
        powers, m, y = [e], 1 << e, x  # powers[j] = x^j
        while y != e:
            powers.append(y)
            m |= 1 << y
            y = item(y, x)
        k = len(powers)
        for j, y in enumerate(powers):
            if gcd(j, k) == 1:
                masks[y] = m
    return masks


def is_cyclic_group(g: Group) -> bool:
    return g.n in element_orders(g)


def is_abelian_group(g: Group) -> bool:
    """array == array.T, by _is_symmetric: a block with a pair that does not commute ends it."""
    return _is_symmetric(g.array)


def group_exponent(g: Group) -> int:
    """Least common multiple of all element orders."""
    return math.lcm(*element_orders(g))


def is_cp_group(g: Group) -> bool:
    """True when every element order is 1 or a prime power."""
    return all(len(factorize(k)) <= 1 for k in set(element_orders(g)))


def bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class MaximalCyclicFamily(NamedTuple):
    """All inclusion-maximal cyclic subgroups as int masks, split by order
    type; bits(m) gives a member's elements and m.bit_count() its order.

    by_prime maps p to the members of p-power order; mixed holds the rest
    (orders with at least two prime divisors, plus the trivial subgroup of
    the one-element group).  Each tuple is sorted by order, then by the
    ascending element list.
    """

    all: tuple[int, ...]
    by_prime: dict[int, tuple[int, ...]]
    mixed: tuple[int, ...]


@_cached
def maximal_cyclic_subgroups(g: Group) -> MaximalCyclicFamily:
    """The inclusion-maximal cyclic subgroups, each once, as its mask;
    cached on the group.

    The cyclic masks are visited by order, from the largest down, each
    under its first generator in ascending x, against larger, the union of
    the masks already visited.  <x> is maximal iff no cyclic subgroup of
    larger order contains x, that is, iff bit x of larger is clear: a
    cyclic subgroup of equal order that contains <x> is <x> itself."""
    by_order: dict[int, dict[int, int]] = {}
    for x, (m, k) in enumerate(zip(cyclic_masks(g), element_orders(g))):
        by_order.setdefault(k, {}).setdefault(m, x)
    subs = []
    larger = 0
    for k in sorted(by_order, reverse=True):
        for m, gen in by_order[k].items():
            if not larger >> gen & 1:
                subs.append(m)
            larger |= m
    subs.sort(key=lambda m: (m.bit_count(), tuple(bits(m))))
    factors = {k: factorize(k) for k in by_order}
    by_prime: dict[int, list[int]] = {}
    mixed = []
    for m in subs:
        f = factors[m.bit_count()]
        if len(f) == 1:
            by_prime.setdefault(f[0][0], []).append(m)
        else:
            mixed.append(m)
    return MaximalCyclicFamily(
        all=tuple(subs),
        by_prime={p: tuple(v) for p, v in sorted(by_prime.items())},
        mixed=tuple(mixed),
    )


# ---------------------------------------------------------------------------
# Intersection chains


class ChainAnalysis(NamedTuple):
    """Intersection-chain data of one maximal cyclic p-subgroup M_i.

    chain lists the distinct intersections of M_i with the maximal cyclic
    p-subgroups as int masks, strictly increasing, ending at M_i itself;
    bits(m) gives a subgroup's elements and m.bit_count() its order.
    lambda_exp is the largest e with p^e the order of an intersection of
    M_i with a maximal cyclic subgroup of non-p-power order, or -1 when no
    such subgroup exists.  s_prime is the first chain position whose order
    exceeds p^lambda_exp.  The paper's s_i is len(chain), and its f_i the
    exponent of chain[-1].bit_count() = |M_i| as a power of p.
    """

    chain: tuple[int, ...]
    lambda_exp: int
    s_prime: int


def _exact_log(base: int, value: int) -> int:
    e, v = 0, 1
    while v < value:
        v *= base
        e += 1
    if v != value:
        raise InternalInconsistency(f"{value} is not a power of {base}")
    return e


@_cached
def chain_analysis(g: Group, p: int) -> tuple[ChainAnalysis, ...]:
    """One analysis per maximal cyclic p-subgroup, in family order; () if
    there are none, as for a prime p that does not divide the group order.
    ValueError if p is not prime.  Computed from masks and popcounts alone
    and cached on the group per prime p.

    An intersection of M_i with a maximal cyclic subgroup O is a subgroup
    of the cyclic p-group M_i, and those form a chain, so the largest
    |M_i & O| over the O of non-p-power order is |M_i & U|, U the union of
    those O."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    fam = maximal_cyclic_subgroups(g)
    mp_masks = fam.by_prime.get(p, ())
    others = [m for q, subs in fam.by_prime.items() if q != p for m in subs] + list(fam.mixed)
    union = 0
    for m in others:
        union |= m
    out = []
    for mi in mp_masks:
        inter = sorted({mi & mj for mj in mp_masks}, key=int.bit_count)
        for a, b in zip(inter, inter[1:]):
            if a & ~b:  # subgroups of a cyclic p-group are totally ordered
                raise InternalInconsistency("intersections do not form a chain")
        lambda_exp = _exact_log(p, (mi & union).bit_count()) if others else -1
        threshold = p ** lambda_exp if lambda_exp >= 0 else 0
        s_prime = next(u for u, c in enumerate(inter, 1) if c.bit_count() > threshold)
        out.append(ChainAnalysis(tuple(inter), lambda_exp, s_prime))
    return tuple(out)


def alpha_p(g: Group, p: int) -> int:
    """max over the p-chains of s_i - s_i' + lambda_i + 2; 0 with no p-chains,
    as for a prime p that does not divide the group order.  ValueError if p
    is not prime (chain_analysis checks it once per group and prime)."""
    return max((len(c.chain) - c.s_prime + c.lambda_exp + 2 for c in chain_analysis(g, p)),
               default=0)
