"""The group layer on one checked array: the power walk per cyclic subgroup,
the blocked table checks, the abelian test and the permutation table from
the closure's spanning tree, each against a reference that does not share
its code path."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersdim import (CORPUS_SPECS, Group, NotAGroup, build_group, is_abelian_group,
                       omega_reduced_group, power_graph, sdim_via_reduction)
from powersdim import groups as groups_module

from helpers import (brute_perm_table, lex_perms, ref_close_permutations, ref_cyclic_masks,
                     ref_is_abelian)

LARGER = ["Z720", "S6", "A6", "D360", "Q64", "Ab[12,60]"]


@pytest.mark.parametrize("spec", CORPUS_SPECS + LARGER)
def test_cyclic_masks_match_the_walk_per_element(spec):
    g = build_group(spec)
    assert groups_module.cyclic_masks(g) == ref_cyclic_masks(g)


@pytest.mark.parametrize("spec", CORPUS_SPECS + ["Z720", "S6", "Ab[12,60]", "Z2xS4"])
def test_is_abelian_group_matches_the_pairwise_scan(spec):
    g = build_group(spec)
    assert is_abelian_group(g) is ref_is_abelian(g)


def test_the_table_is_one_read_only_array_with_list_views():
    g = build_group("S4")
    assert g.array.dtype == np.uint8 and not g.array.flags.writeable
    assert g.table == g.array.tolist() and g.table is g.table
    assert all(g.table[x][y] == g.identity for x, y in enumerate(g.inverse))
    with pytest.raises(ValueError, match="generators"):
        Group(g.array, generators=[24])


def test_checks_and_abelian_test_with_one_row_per_block(monkeypatch):
    specs = ["Z12", "S4", "Ab[2,6]", "Z3xQ8", f"perm:{Path(__file__).parent / 'data' / 's5.txt'}"]
    tables = {spec: build_group(spec).table for spec in specs}
    monkeypatch.setattr(groups_module, "_BLOCK_ENTRIES", 1)
    for spec in specs:
        g = build_group(spec)
        assert g.table == tables[spec]
        assert is_abelian_group(g) is ref_is_abelian(g)
    rows_repeat = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 0, 0]]
    cols_repeat = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [0, 1, 2, 3]]
    for t in (rows_repeat, cols_repeat):
        with pytest.raises(NotAGroup, match="Latin square"):
            Group(t)


def test_a_row_latin_table_with_a_repeat_down_a_later_column_is_refused(monkeypatch):
    monkeypatch.setattr(groups_module, "_BLOCK_ENTRIES", 12)  # two rows and columns per block
    t = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    t[5][4], t[5][5] = t[5][5], t[5][4]  # rows stay permutations; columns 4 and 5 repeat
    with pytest.raises(NotAGroup, match="Latin square"):
        Group(t)


@pytest.mark.parametrize("spec", ["S6", "A6"])
def test_tree_table_matches_composition(spec):
    perms = lex_perms(int(spec[1:]), even=spec[0] == "A")
    assert build_group(spec).table == brute_perm_table(perms)


@st.composite
def small_closures(draw):
    """2-3 random permutations of 0..6 that each map every block of a random
    partition of the points into itself, so they generate at most
    S5 x S2 (240 elements)."""
    points = draw(st.permutations(range(7)))
    sizes = draw(st.sampled_from([(5, 2), (4, 3), (3, 2, 2), (4, 2, 1), (3, 3, 1), (5, 1, 1)]))
    cuts = list(itertools.accumulate(sizes))
    blocks = [points[lo:hi] for lo, hi in zip([0] + cuts, cuts)]
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        img = list(range(7))
        for block in blocks:
            for a, b in zip(block, draw(st.permutations(block))):
                img[a] = b
        gens.append(tuple(img))
    return gens


@given(small_closures())
@settings(max_examples=25, deadline=None)
def test_closures_in_s7_table_and_theorem_equals_reduction(gens):
    table, generators = groups_module._perm_table(gens, 300)
    g = Group(table, generators=generators)
    assert g.table == brute_perm_table(ref_close_permutations(gens))
    assert omega_reduced_group(g) == sdim_via_reduction(power_graph(g)).omega_reduced
