"""Group construction, orders, maximal cyclic subgroups, and chain data."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersdim import (CORPUS_SPECS, Abelian, Alternating, CayleyFile, ClosureTooLarge,
                       Cyclic, Dihedral, DirectProduct, ElementaryAbelian, GeneralizedQuaternion,
                       InvalidSpec, NotAGroup, NotAPrimeDivisor, PermFile, Symmetric,
                       alpha_p, build_group, chain_analysis,
                       element_order, element_orders, factorize, is_cp_group,
                       is_cyclic_group, maximal_cyclic_subgroups, parse_spec, sigma,
                       sigma_of, spec_order, spec_string)
from powersdim import groups as groups_module

from helpers import brute_perm_table


# ---------------------------------------------------------------------------
# Factorization and sigma


def test_factorize_small():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(30).factors == ((2, 1), (3, 1), (5, 1))
    assert factorize(1).factors == ()
    assert factorize(97).factors == ((97, 1),)


@given(st.integers(min_value=1, max_value=5000))
def test_factorize_reconstructs(n):
    f = factorize(n)
    assert math.prod(p ** r for p, r in f.factors) == n
    primes = [p for p, _ in f.factors]
    assert primes == sorted(primes) and len(set(primes)) == len(primes)
    assert all(r >= 1 for _, r in f.factors)


def test_sigma_values():
    assert sigma(factorize(8)) == 1       # single prime
    assert sigma(factorize(12)) == 3      # 2 + 1
    assert sigma(factorize(30)) == 3      # 1 + 1 + 1
    assert sigma_of(1) == 1               # convention, see docstring


# ---------------------------------------------------------------------------
# Spec parsing


def test_parse_spec_round_trips():
    for text in ["Z12", "D12", "Q8", "E2^3", "Ab[2,6]", "S4", "A5", "Z3xQ8",
                 "cayley:/tmp/t.txt", "perm:/tmp/p.txt"]:
        assert spec_string(parse_spec(text)) == text


def test_parse_spec_rejects_garbage():
    for text in ["", "Z", "zx12", "D7", "D4", "Q6", "Q4", "E4^2", "E2^0",
                 "Ab[]", "Ab[3,2]", "Ab[1,2]", "S7", "A9", "Z0", "W5"]:
        with pytest.raises(InvalidSpec):
            parse_spec(text)


def test_parse_product():
    spec = parse_spec("Z3xQ8")
    assert isinstance(spec, DirectProduct)
    assert spec.parts == (Cyclic(3), GeneralizedQuaternion(8))


@pytest.mark.parametrize("cls, args", [
    (Cyclic, (0,)), (Dihedral, (7,)), (Dihedral, (4,)), (GeneralizedQuaternion, (14,)),
    (ElementaryAbelian, (4, 2)), (ElementaryAbelian, (2, 0)), (Abelian, ((),)),
    (Abelian, ((1, 2),)), (Abelian, ((4, 6),)), (Symmetric, (7,)), (Alternating, (0,)),
    (DirectProduct, ((),)), (CayleyFile, ("",)), (PermFile, ("",)),
])
def test_spec_objects_check_their_own_fields(cls, args):
    with pytest.raises(InvalidSpec):
        cls(*args)


def test_spec_field_errors_name_the_parsed_input():
    with pytest.raises(InvalidSpec, match=r"dihedral order must be even and >= 6 in 'Z3xD7'"):
        parse_spec("Z3xD7")
    with pytest.raises(InvalidSpec, match=r"cannot parse group spec 'W5' \(at 'W5'\)$"):
        parse_spec("W5")


def test_spec_order_is_the_built_order_on_the_corpus():
    for spec in list(CORPUS_SPECS) + ["Z1", "S1", "A1", "A2", "A3", "E3^2", "Z2xS3xQ8"]:
        assert spec_order(parse_spec(spec)) == build_group(spec).n, spec


def test_spec_order_of_file_specs_is_unknown():
    assert spec_order(CayleyFile("t.txt")) is None
    assert spec_order(PermFile("p.txt")) is None
    assert spec_order(DirectProduct((Cyclic(2), PermFile("p.txt")))) is None


# ---------------------------------------------------------------------------
# Construction


def test_cyclic_table_is_modular_addition():
    g = build_group("Z6")
    assert all(g.table[i][j] == (i + j) % 6 for i in range(6) for j in range(6))
    assert g.identity == 0


def test_dihedral_involution_count():
    # six reflections plus the rotation a^3 plus the identity
    g = build_group("D12")
    assert g.n == 12
    assert sum(1 for x in range(g.n) if element_order(g, x) <= 2) == 8


def test_quaternion_structure():
    g = build_group("Q8")
    # y sits at index 2n = 4 and has order 4
    assert element_order(g, 4) == 4
    assert sum(1 for x in range(8) if element_order(g, x) == 2) == 1


def test_symmetric_and_alternating_orders():
    assert build_group("S4").n == 24
    assert build_group("A4").n == 12
    assert build_group("A5").n == 60


def test_direct_product_orders():
    g = build_group("Z3xQ8")
    assert g.n == 24
    assert sorted(set(element_orders(g))) == [1, 2, 3, 4, 6, 12]


@pytest.mark.parametrize("spec, orders", [
    ("Z6", [1, 2, 3, 6]),
    ("E3^2", [1, 3]),
    ("Ab[2,4]", [1, 2, 4]),
])
def test_element_order_profiles(spec, orders):
    g = build_group(spec)
    assert sorted(set(element_orders(g))) == orders


def test_element_order_examples():
    g = build_group("Z6")
    assert element_order(g, 2) == 3
    assert element_order(g, 0) == 1
    assert all(g.n % element_order(g, x) == 0 for x in range(g.n))


def test_group_axioms_hold_for_builtins_up_to_128():
    # construction re-runs the Latin-square and (n <= 128) associativity checks
    for spec in ["Z60", "D40", "Q48", "E2^4", "Ab[2,2,6]", "S4", "A5", "Z3xQ8"]:
        g = build_group(spec)
        assert g.n <= 128
        e = g.identity
        assert all(g.table[e][x] == x and g.table[x][e] == x for x in range(g.n))
        assert all(g.table[x][g.inverse[x]] == e for x in range(g.n))


# ---------------------------------------------------------------------------
# Cayley and permutation files


def test_cayley_file_round_trip(tmp_path):
    path = tmp_path / "z3.txt"
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    g = build_group(f"cayley:{path}")
    assert g.n == 3 and is_cyclic_group(g)


def test_cayley_file_not_associative(tmp_path):
    # Latin square with identity 0 that fails associativity (order-5 loop)
    path = tmp_path / "loop5.txt"
    path.write_text("5\n"
                    "0 1 2 3 4\n"
                    "1 0 3 4 2\n"
                    "2 4 0 1 3\n"
                    "3 2 4 0 1\n"
                    "4 3 1 2 0\n")
    with pytest.raises(NotAGroup):
        build_group(f"cayley:{path}")


def test_cayley_file_not_latin(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 0\n1 1\n")
    with pytest.raises(NotAGroup):
        build_group(f"cayley:{path}")


def test_cayley_file_identity_must_be_zero(tmp_path):
    path = tmp_path / "shift.txt"
    # Z3 with elements relabeled so the identity is 1
    path.write_text("3\n2 0 1\n0 1 2\n1 2 0\n")
    with pytest.raises(NotAGroup):
        build_group(f"cayley:{path}")


def test_cayley_file_malformed(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("3\n0 1 2\n1 2 0\n")
    with pytest.raises(InvalidSpec):
        build_group(f"cayley:{path}")


def test_perm_file_closure(tmp_path):
    path = tmp_path / "s3.txt"
    path.write_text("(1 2)\n(1 2 3)\n")
    g = build_group(f"perm:{path}")
    assert g.n == 6
    assert sorted(set(element_orders(g))) == [1, 2, 3]
    assert g.identity == 0  # identity discovered first


def test_perm_file_identity_line(tmp_path):
    path = tmp_path / "triv.txt"
    path.write_text("()\n")
    g = build_group(f"perm:{path}")
    assert g.n == 1


def test_perm_file_closure_cap(tmp_path):
    path = tmp_path / "a4.txt"
    path.write_text("(1 2 3)\n(2 3 4)\n")
    assert build_group(f"perm:{path}").n == 12
    with pytest.raises(ClosureTooLarge):
        build_group(f"perm:{path}", closure_cap=10)


def test_perm_file_bad_cycles(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("(1 2)(2 3)\n")
    with pytest.raises(InvalidSpec):
        build_group(f"perm:{path}")


def _inversions(p):
    return sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j])


@pytest.mark.parametrize("spec", ["S1", "S2", "S3", "S4", "S5", "A4", "A5"])
def test_perm_table_matches_composition(spec):
    k = int(spec[1:])
    perms = sorted(itertools.permutations(range(k)))
    if spec[0] == "A":
        perms = [p for p in perms if _inversions(p) % 2 == 0]
    assert build_group(spec).table == brute_perm_table(perms)


@pytest.mark.parametrize("text", ["(1 2 3)\n(2 3 4)\n", "(1 200)\n", "(1 300)(2 299 150)\n"])
def test_perm_file_table_matches_composition(tmp_path, text):
    path = tmp_path / "gens.txt"
    path.write_text(text)
    elems = groups_module._close_permutations(groups_module._parse_perm_file(str(path)), 100)
    assert build_group(f"perm:{path}").table == brute_perm_table(elems)


def test_perm_table_rejects_a_list_not_closed_under_composition():
    with pytest.raises(NotAGroup):
        groups_module._perm_table([(0, 1, 2), (1, 2, 0)])  # misses (2, 0, 1)
    with pytest.raises(NotAGroup):
        groups_module._perm_table([(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2)])


# ---------------------------------------------------------------------------
# Maximal cyclic subgroups


def test_maximal_cyclic_cyclic_group():
    fam = maximal_cyclic_subgroups(build_group("Z12"))
    assert len(fam.all) == 1 and fam.all[0].order == 12
    assert fam.by_prime == {} and len(fam.mixed) == 1


def test_maximal_cyclic_dihedral():
    # the rotation subgroup plus six reflections
    fam = maximal_cyclic_subgroups(build_group("D12"))
    assert sorted(s.order for s in fam.all) == [2, 2, 2, 2, 2, 2, 6]


def test_maximal_cyclic_quaternion():
    fam = maximal_cyclic_subgroups(build_group("Q8"))
    assert [s.order for s in fam.all] == [4, 4, 4]
    masks = [sum(1 << e for e in s.elements) for s in fam.all]
    for i in range(3):
        for j in range(i + 1, 3):
            assert (masks[i] & masks[j]).bit_count() == 2  # common center


@pytest.mark.parametrize("spec", ["Z12", "D12", "Q8", "A4", "S4", "Ab[2,6]", "E3^2"])
def test_family_covers_and_partitions(spec):
    g = build_group(spec)
    fam = maximal_cyclic_subgroups(g)
    covered = set()
    for s in fam.all:
        covered.update(s.elements)
    assert covered == set(range(g.n))
    split = [s for subs in fam.by_prime.values() for s in subs] + list(fam.mixed)
    assert sorted(split, key=lambda s: (s.order, s.elements)) == list(fam.all)
    # no member contains another
    masks = [sum(1 << e for e in s.elements) for s in fam.all]
    assert not any(i != j and masks[i] & ~masks[j] == 0
                   for i in range(len(masks)) for j in range(len(masks)))


# ---------------------------------------------------------------------------
# CP groups


def test_is_cp_group():
    assert is_cp_group(build_group("A4"))
    assert is_cp_group(build_group("Q8"))
    assert not is_cp_group(build_group("Z6"))
    assert not is_cp_group(build_group("D12"))


# ---------------------------------------------------------------------------
# Chain analysis and alpha


def test_chain_analysis_q8():
    analyses = chain_analysis(build_group("Q8"), 2)
    assert len(analyses) == 3
    for a in analyses:
        assert [c.order for c in a.chain] == [2, 4]
        assert (a.s_i, a.lambda_exp, a.s_prime, a.f_i) == (2, -1, 1, 2)


def test_chain_analysis_a4():
    g = build_group("A4")
    for p, count in [(3, 4), (2, 3)]:
        analyses = chain_analysis(g, p)
        assert len(analyses) == count
        for a in analyses:
            assert [c.order for c in a.chain] == [1, p ** a.f_i]
            assert (a.s_i, a.lambda_exp, a.s_prime) == (2, 0, 2)


def test_chain_analysis_empty_family():
    assert chain_analysis(build_group("Z12"), 2) == []


def test_chain_analysis_rejects_non_divisor():
    g = build_group("Z12")
    with pytest.raises(NotAPrimeDivisor):
        chain_analysis(g, 5)
    with pytest.raises(NotAPrimeDivisor):
        chain_analysis(g, 4)


def test_chains_are_totally_ordered_and_end_at_mi():
    for spec in ["Q8", "A4", "S4", "Ab[2,8]", "Ab[4,4]", "D16"]:
        g = build_group(spec)
        for p, _ in factorize(g.n).factors:
            for a in chain_analysis(g, p):
                orders = [c.order for c in a.chain]
                assert orders == sorted(orders) and len(set(orders)) == len(orders)
                sets = [set(c.elements) for c in a.chain]
                assert all(sets[i] < sets[i + 1] for i in range(len(sets) - 1))
                # last entry is the maximal subgroup itself
                mp = maximal_cyclic_subgroups(g).by_prime[p]
                assert a.chain[-1].elements == mp[a.subgroup_index].elements
                assert a.s_i <= a.f_i + 1


def test_alpha_p_values():
    assert alpha_p(build_group("Q8"), 2) == 2
    assert alpha_p(build_group("A4"), 2) == 2
    assert alpha_p(build_group("Z12"), 2) == 0  # no p-power maximal subgroups
    assert alpha_p(build_group("Z12"), 7) == 0  # p does not divide the order


def test_chain_bounds_hold_corpus_wide():
    # s_i <= f_i + 1 and alpha_p <= max f_i + 1 for every corpus group and prime
    from powersdim import CORPUS_SPECS
    for spec in CORPUS_SPECS:
        g = build_group(spec)
        for p, _ in factorize(g.n).factors:
            analyses = chain_analysis(g, p)
            if not analyses:
                continue
            assert all(a.s_i <= a.f_i + 1 for a in analyses), (spec, p)
            assert alpha_p(g, p) <= max(a.f_i for a in analyses) + 1, (spec, p)


def test_alpha_equals_max_s_for_noncyclic_p_groups():
    for spec in ["Q8", "Q16", "D8", "D16", "E2^3", "Ab[2,4]", "Ab[4,4]", "Ab[3,9]"]:
        g = build_group(spec)
        p = factorize(g.n).factors[0][0]
        analyses = chain_analysis(g, p)
        assert alpha_p(g, p) == max(a.s_i for a in analyses)
        assert alpha_p(g, p) <= max(a.f_i for a in analyses) + 1


# ---------------------------------------------------------------------------
# Random specs keep the invariants (construction is revalidated each time)


@st.composite
def group_specs(draw):
    kind = draw(st.sampled_from(["Z", "D", "Q", "E", "Ab", "S", "A"]))
    if kind == "Z":
        return Cyclic(draw(st.integers(2, 40)))
    if kind == "D":
        return Dihedral(2 * draw(st.integers(3, 15)))
    if kind == "Q":
        return GeneralizedQuaternion(4 * draw(st.integers(2, 8)))
    if kind == "E":
        p = draw(st.sampled_from([2, 3, 5]))
        k = draw(st.integers(1, 3 if p == 2 else 2))
        return ElementaryAbelian(p, k)
    if kind == "Ab":
        d1 = draw(st.integers(2, 6))
        mult = draw(st.integers(1, 4))
        return Abelian((d1, d1 * mult))
    if kind == "S":
        return (lambda n: parse_spec(f"S{n}"))(draw(st.integers(1, 4)))
    return parse_spec(f"A{draw(st.integers(1, 4))}")


@given(group_specs())
@settings(max_examples=40, deadline=None)
def test_random_specs_build_valid_groups(spec):
    g = build_group(spec)
    e = g.identity
    assert g.table[e] == list(range(g.n))
    assert all(g.n % element_order(g, x) == 0 for x in range(g.n))
    fam = maximal_cyclic_subgroups(g)
    assert set().union(*(set(s.elements) for s in fam.all)) == set(range(g.n))
