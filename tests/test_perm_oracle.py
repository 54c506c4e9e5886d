"""Permutation groups against sympy's combinatorics, an oracle that shares
no code with the library: the group order, every element's order, the
abelian and cyclic tests, and the table entries as sympy's products."""

import itertools
import random

import pytest

from powersdim import build_group, element_orders, is_abelian_group, is_cyclic_group
from powersdim import groups as groups_module

combinatorics = pytest.importorskip("sympy.combinatorics")
Permutation, PermutationGroup = combinatorics.Permutation, combinatorics.PermutationGroup

FULL_TABLE_UP_TO = 120  # larger tables are checked on SAMPLED_ENTRIES seeded entries
SAMPLED_ENTRIES = 2000
# sympy's cycle decomposition takes about 20 ms a permutation at degree 300,
# so above ALL_ORDERS_UP_TO_DEGREE only SAMPLED_ORDERS seeded elements are checked
ALL_ORDERS_UP_TO_DEGREE = 8
SAMPLED_ORDERS = 30


def assert_matches_sympy(g, perms, gens):
    """g's element x is the permutation perms[x]; gens generate the group."""
    rng = random.Random(g.n)
    degree = len(perms[0])
    group = PermutationGroup([Permutation(list(s), size=degree) for s in gens])
    sym = [Permutation(list(p)) for p in perms]
    assert group.order() == g.n == len(perms)
    assert is_abelian_group(g) is group.is_abelian
    assert is_cyclic_group(g) is group.is_cyclic
    orders = element_orders(g)
    xs = range(g.n) if degree <= ALL_ORDERS_UP_TO_DEGREE else rng.sample(range(g.n), SAMPLED_ORDERS)
    assert [orders[x] for x in xs] == [sym[x].order() for x in xs]
    index = {tuple(p): x for x, p in enumerate(perms)}
    if g.n <= FULL_TABLE_UP_TO:
        pairs = itertools.product(range(g.n), repeat=2)
    else:
        pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(SAMPLED_ENTRIES)]
    t = g.array
    for a, b in pairs:  # sympy's p*q applies p first: a.b, x -> a(b(x)), is perms[b]*perms[a]
        assert t[a, b] == index[tuple((sym[b] * sym[a]).array_form)], (a, b)


@pytest.mark.parametrize("spec", ["S3", "S4", "S5", "S6", "A4", "A5", "A6"])
def test_built_in_symmetric_and_alternating_groups_match_sympy(spec):
    k = int(spec[1:])
    perms = sorted(itertools.permutations(range(k)))  # the lexicographic numbering
    if spec[0] == "A":
        perms = [p for p in perms if Permutation(list(p)).is_even]
    assert_matches_sympy(build_group(spec), perms, perms)


def block_preserving_generators(rng, k=7):
    """2-3 random permutations of 0..k-1 that each map every block of a
    random partition of the points into itself."""
    points = rng.sample(range(k), k)
    cuts = sorted(rng.sample(range(1, k), rng.randint(1, 2)))
    blocks = [points[lo:hi] for lo, hi in zip([0] + cuts, cuts + [k])]
    gens = []
    for _ in range(rng.randint(2, 3)):
        img = list(range(k))
        for block in blocks:
            for a, b in zip(block, rng.sample(block, len(block))):
                img[a] = b
        gens.append(tuple(img))
    return gens


def _cycle_notation(p):
    return "".join(f"({' '.join(str(x + 1) for x in c)})" for c in Permutation(list(p)).cyclic_form)


PERM_FILES = {
    "300-cycle": ["(" + " ".join(str(i) for i in range(1, 301)) + ")"],
    "D16": ["(1 2 3 4 5 6 7 8)", "(1 8)(2 7)(3 6)(4 5)"],
    "Klein4": ["(1 2)(3 4)", "(1 3)(2 4)"],
    **{f"blocks{seed}": [_cycle_notation(s) or "()"
                         for s in block_preserving_generators(random.Random(seed))]
       for seed in range(4)},
}


@pytest.mark.parametrize("name", sorted(PERM_FILES))
def test_perm_files_match_sympy(name, tmp_path):
    path = tmp_path / f"{name}.txt"
    path.write_text("\n".join(PERM_FILES[name]) + "\n")
    gens = groups_module._parse_perm_file(str(path))
    elems = groups_module._close_permutations(gens, 5040)
    assert_matches_sympy(build_group(f"perm:{path}"), elems, gens)
