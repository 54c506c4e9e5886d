"""Group construction, orders, maximal cyclic subgroups, and chain data."""

import copy
import math
import pickle
import re
import tracemalloc
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powersdim import (CORPUS_SPECS, Abelian, Alternating, CayleyFile, ClosureTooLarge,
                       Cyclic, Dihedral, DirectProduct, ElementaryAbelian, GeneralizedQuaternion,
                       GroupSpec, InvalidSpec, NotAGroup, PermFile, Symmetric,
                       alpha_p, build_group, chain_analysis, clique_witness_alpha_p,
                       element_orders, factorize, is_cp_group,
                       is_cyclic_group, maximal_cyclic_subgroups, parse_spec, power_graph,
                       sdim_group, sigma, sigma_of, spec_order, spec_string)
import powersdim
from powersdim import groups as groups_module
from powersdim import sdim as sdim_module
from powersdim.groups import bits

from helpers import (brute_perm_table, inverses, is_associative, lex_perms, random_loop,
                     ref_alpha_p, ref_chain_analysis, ref_close_permutations, ref_cyclic_table,
                     ref_dihedral_table, ref_family_masks, ref_maximal_cyclic_subgroups,
                     ref_product_table, ref_quaternion_table, ref_table_verdict,
                     write_cayley_file)
from powersdim import Group


# ---------------------------------------------------------------------------
# The package's exports


def test_package_exports_each_name_once_and_every_one_resolves():
    names = powersdim.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(powersdim, name) for name in names)
    namespace = {}
    exec("from powersdim import *", namespace)
    assert set(names) == namespace.keys() - {"__builtins__"}


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


def test_is_prime_matches_its_definition():
    for p in [*range(201), 7919]:
        assert groups_module.is_prime(p) == (p > 1 and all(p % d for d in range(2, p))), p


def test_sigma_values():
    assert sigma(factorize(8)) == 1       # single prime
    assert sigma(factorize(12)) == 3      # 2 + 1
    assert sigma(factorize(30)) == 3      # 1 + 1 + 1
    assert sigma_of(1) == 1               # convention, see docstring


# ---------------------------------------------------------------------------
# Spec parsing


def test_parse_spec_round_trips():
    for text in ["Z12", "D12", "Q8", "E2^3", "Ab[2,6]", "S4", "A5", "Z3xQ8",
                 "cayley:/tmp/t.txt", "perm:/tmp/p.txt",
                 # every family of the grammar at its bounds
                 "Z1", "D6", "E3^2", "E2^1", "Ab[2]", "Ab[2,4,8]", "S1", "S7",
                 "A1", "A7", "Z2xS3xQ8", "Ab[2,2]xE5^1xD8"]:
        assert spec_string(parse_spec(text)) == text


def test_parse_spec_rejects_garbage():
    for text in ["", "Z", "zx12", "D7", "D4", "Q6", "Q4", "E4^2", "E2^0",
                 "Ab[]", "Ab[3,2]", "Ab[1,2]", "S8", "A9", "Z0", "W5"]:
        with pytest.raises(InvalidSpec):
            parse_spec(text)


def test_parse_product():
    spec = parse_spec("Z3xQ8")
    assert isinstance(spec, DirectProduct)
    assert spec.parts == (Cyclic(3), GeneralizedQuaternion(8))


@pytest.mark.parametrize("cls, args", [
    (Cyclic, (0,)), (Dihedral, (7,)), (Dihedral, (4,)), (GeneralizedQuaternion, (14,)),
    (ElementaryAbelian, (4, 2)), (ElementaryAbelian, (2, 0)), (Abelian, ((),)),
    (Abelian, ((1, 2),)), (Abelian, ((4, 6),)), (Symmetric, (8,)), (Alternating, (0,)),
    (DirectProduct, ((),)), (CayleyFile, ("",)), (PermFile, ("",)),
    # orders whose n x n table numpy cannot index; a huge p is never trial-divided,
    # and p^k is not computed for k >= 32
    (Cyclic, (99999999999999999999,)), (Dihedral, (99999999999999999998,)),
    (GeneralizedQuaternion, (99999999999999999996,)), (Abelian, ((2, 99999999999999999998),)),
    (ElementaryAbelian, (99999999999999999989, 1)), (ElementaryAbelian, (3, 99999999999)),
    (ElementaryAbelian, (2, 99999999999)), (ElementaryAbelian, (2, 32)),
    (DirectProduct, ((Cyclic(2),) * 33,)),
    # numpy fields whose order would wrap in int64 (to 0, or below 0)
    (DirectProduct, ((Cyclic(np.int64(2**31)), Cyclic(np.int64(2**31)), Cyclic(4)),)),
    (Abelian, ((np.int64(2**32), np.int64(2**32)),)), (ElementaryAbelian, (np.int64(17), np.int64(16))),
    # fields the grammar cannot write: ZTrue would build Z1, Z6.0 fail in Group()
    (Cyclic, (True,)), (Cyclic, (6.0,)), (Cyclic, (np.float64(6),)), (Dihedral, (8.0,)),
    (GeneralizedQuaternion, (8.0,)), (Symmetric, (3.0,)), (ElementaryAbelian, (2.0, 3)),
    (ElementaryAbelian, (2, 1.5)), (Abelian, ((2, 4.0),)), (Abelian, ([2, 4],)),
    # products the grammar cannot write: a file factor (cayley:a.txtxZ2 is one
    # path), a nested product, one factor; and paths parse_spec would strip
    (DirectProduct, ((CayleyFile("a.txt"), Cyclic(2)),)),
    (DirectProduct, ((Cyclic(2), PermFile("p.txt")),)),
    (DirectProduct, ((DirectProduct((Cyclic(2), Cyclic(3))), Cyclic(5)),)),
    (DirectProduct, ((Cyclic(2),),)), (DirectProduct, ([Cyclic(2), Cyclic(3)],)),
    (CayleyFile, ("a.txt ",)), (PermFile, ("p.txt\n",)), (CayleyFile, (Path("a.txt"),)),
])
def test_spec_objects_check_their_own_fields(cls, args):
    with pytest.raises(InvalidSpec):
        cls(*args)
    with pytest.raises(InvalidSpec):
        cls(**dict(zip(cls.__match_args__, args)))


def test_a_family_spec_stores_numpy_integer_fields_as_the_ints_they_read_back_as():
    assert Cyclic(np.int64(6)) == Cyclic(6) and hash(Cyclic(np.int64(6))) == hash(Cyclic(6))
    assert Abelian((np.uint8(2), 4)) == Abelian((2, 4))
    assert spec_string(ElementaryAbelian(np.int32(3), np.int64(2))) == "E3^2"
    assert type(Cyclic(np.int64(6)).n) is int  # stored as read back, so orders cannot wrap
    assert all(type(d) is int for d in Abelian((np.uint8(2), 4)).invariant_factors)
    with pytest.raises(InvalidSpec, match=r"^Cyclic\(n=True\) is not a spec the grammar writes$"):
        Cyclic(True)


@pytest.mark.parametrize("make, message", [
    pytest.param(make, f"{text} is not a spec the grammar writes", id=text) for make, text in [
        (lambda: Cyclic("6"), "Cyclic(n='6')"), (lambda: Dihedral(None), "Dihedral(order=None)"),
        (lambda: Abelian(("2", "4")), "Abelian(invariant_factors=('2', '4'))"),
        (lambda: Abelian(5), "Abelian(invariant_factors=5)"),
        (lambda: ElementaryAbelian("2", 3), "ElementaryAbelian(p='2', k=3)"),
        (lambda: Symmetric("5"), "Symmetric(n='5')"), (lambda: Cyclic(6.0), "Cyclic(n=6.0)"),
        (lambda: Abelian({2: 0, 4: 0}), "Abelian(invariant_factors={2: 0, 4: 0})"),
    ]] + [pytest.param(lambda: Cyclic(-1), "cyclic order must be >= 1", id="Cyclic(n=-1)")])
def test_a_field_that_a_check_cannot_compare_is_not_a_spec_the_grammar_writes(make, message):
    with pytest.raises(InvalidSpec, match=rf"^{re.escape(message)}$"):
        make()


SPECS = [Cyclic(6), Symmetric(6), Alternating(6), Dihedral(8), GeneralizedQuaternion(8),
         ElementaryAbelian(2, 3), Abelian((2, 4)), DirectProduct((Cyclic(2), Dihedral(8))),
         CayleyFile("t.txt"), PermFile("p.txt")]


def test_specs_are_frozen_values_equal_only_within_their_class():
    for a in SPECS:
        assert isinstance(a, GroupSpec)
        for b in SPECS:
            assert (a == b) is (a is b)
        assert a != tuple(getattr(a, name) for name in a.__match_args__)
        first = a.__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(a, first, None)
        with pytest.raises(AttributeError):
            delattr(a, first)
        for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)
    assert Cyclic(6) == Cyclic(n=6) and hash(Cyclic(6)) == hash(Cyclic(n=6))
    assert {Cyclic(6): "Z6", Symmetric(6): "S6"}[Cyclic(n=6)] == "Z6"
    assert repr(Cyclic(6)) == "Cyclic(n=6)"
    assert repr(SPECS[7]) == "DirectProduct(parts=(Cyclic(n=2), Dihedral(order=8)))"
    match SPECS[7]:
        case DirectProduct((Cyclic(n), Dihedral(order))):
            assert (n, order) == (2, 8)
    for not_a_spec in ("Z6", (6,), None):
        assert not isinstance(not_a_spec, GroupSpec)
        with pytest.raises(TypeError, match="not a GroupSpec"):
            spec_string(not_a_spec)


@pytest.mark.parametrize("make", [
    lambda: Cyclic(), lambda: Cyclic(6, 7), lambda: Cyclic(m=6), lambda: Cyclic(6, n=6),
    lambda: ElementaryAbelian(2), lambda: ElementaryAbelian(p=2, k=3, n=8),
])
def test_a_spec_takes_each_of_its_fields_once(make):
    with pytest.raises(TypeError):
        make()


def test_the_numpy_free_order_bound_is_numpys_own():
    assert groups_module._MAX_ORDER == math.isqrt(np.iinfo(np.intp).max)


def test_an_order_above_the_indexable_bound_is_named_with_the_bound():
    bound = math.isqrt(np.iinfo(np.intp).max)
    Cyclic(bound)  # the bound itself passes: a spec builds no table
    for text, order in [(f"Z{bound + 1}", bound + 1), ("E3^99999999999", "3^99999999999"),
                        ("E99999999999999999989^1", "99999999999999999989^1"),
                        ("Z2xD99999999999999999998", 99999999999999999998)]:
        with pytest.raises(InvalidSpec, match=rf"^order {re.escape(str(order))} exceeds "
                                              rf"{bound} .* in '{re.escape(text)}'$"):
            parse_spec(text)
    for text, message in [("E0^2", "0 is not prime"), ("E4^2", "4 is not prime"),
                          ("E9^1", "9 is not prime"), ("E4^32", "4 is not prime"),
                          ("E2^0", "exponent must be >= 1"),
                          ("E99999999999999999989^0", "exponent must be >= 1")]:
        with pytest.raises(InvalidSpec, match=rf"^{message} in '{re.escape(text)}'$"):
            parse_spec(text)


def test_spec_field_errors_name_the_parsed_input():
    with pytest.raises(InvalidSpec, match=r"dihedral order must be even and >= 6 in 'Z3xD7'"):
        parse_spec("Z3xD7")
    with pytest.raises(InvalidSpec, match=r"cannot parse group spec 'W5' \(at 'W5'\)$"):
        parse_spec("W5")


def test_spec_order_is_the_built_order_on_the_corpus():
    for spec in list(CORPUS_SPECS) + ["Z1", "D6", "Q8", "E2^1", "E3^2", "Ab[2]", "Ab[2,4,8]",
                                      "S1", "S6", "A1", "A2", "A3", "A6", "Z2xS3xQ8"]:
        assert spec_order(parse_spec(spec)) == build_group(spec).n, spec
    assert spec_order(parse_spec("S7")) == 5040  # not built: S7 takes about half a second
    assert spec_order(parse_spec("A7")) == 2520


def test_spec_order_of_file_specs_is_unknown():
    assert spec_order(CayleyFile("t.txt")) is None
    assert spec_order(PermFile("p.txt")) is None
    with pytest.raises(InvalidSpec, match="two or more family specs"):
        DirectProduct((Cyclic(2), PermFile("p.txt")))  # so a product's order is always known


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
    assert sum(1 for x in range(g.n) if element_orders(g)[x] <= 2) == 8


def test_quaternion_structure():
    g = build_group("Q8")
    # y sits at index 2n = 4 and has order 4
    assert element_orders(g)[4] == 4
    assert sum(1 for x in range(8) if element_orders(g)[x] == 2) == 1


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
    assert element_orders(g)[2] == 3
    assert element_orders(g)[0] == 1
    assert all(g.n % element_orders(g)[x] == 0 for x in range(g.n))


def test_group_axioms_hold_for_builtins_up_to_128():
    # construction re-runs the Latin-square and (n <= 128) associativity checks
    for spec in ["Z60", "D40", "Q48", "E2^4", "Ab[2,2,6]", "S4", "A5", "Z3xQ8"]:
        g = build_group(spec)
        assert g.n <= 128
        e = g.identity
        assert all(g.table[e][x] == x and g.table[x][e] == x for x in range(g.n))
        inverse = inverses(g)
        assert all(g.table[x][inverse[x]] == e for x in range(g.n))


@pytest.mark.parametrize("spec", list(CORPUS_SPECS) + ["Z720", "S6"])
def test_inverses_multiply_to_the_identity(spec):
    g = build_group(spec)
    e = g.identity
    inverse = inverses(g)
    assert all(type(y) is int for y in inverse)
    assert all(g.table[x][inverse[x]] == e for x in range(g.n))


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


def test_identity_lines_in_a_perm_file_change_nothing(tmp_path):
    # "()" is the identity: as a generator it adds no element and moves none
    plain, padded = tmp_path / "plain.txt", tmp_path / "padded.txt"
    plain.write_text("(1 2 3 4)\n(1 2)\n")
    padded.write_text("()\n(1 2 3 4)\n() ()\n(1 2)\n()\n")
    g, h = build_group(f"perm:{plain}"), build_group(f"perm:{padded}")
    assert (h.n, h.identity, h.table) == (24, g.identity, g.table)


def test_perm_file_closure_cap(tmp_path, monkeypatch):
    path = tmp_path / "a4.txt"
    path.write_text("(1 2 3)\n(2 3 4)\n")
    assert build_group(f"perm:{path}").n == 12
    monkeypatch.setattr(groups_module, "DEFAULT_CLOSURE_CAP", 12)
    assert build_group(f"perm:{path}").n == 12
    monkeypatch.setattr(groups_module, "DEFAULT_CLOSURE_CAP", 10)
    with pytest.raises(ClosureTooLarge):
        build_group(f"perm:{path}")
    monkeypatch.setattr(groups_module, "DEFAULT_CLOSURE_CAP", 11)
    with pytest.raises(ClosureTooLarge, match="exceeds the cap of 11 elements"):
        build_group(f"perm:{path}")


def test_perm_file_bad_cycles(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("(1 2)(2 3)\n")
    with pytest.raises(InvalidSpec):
        build_group(f"perm:{path}")


@pytest.mark.parametrize("spec", ["S1", "S2", "S3", "S4", "S5", "A4", "A5"])
def test_perm_table_matches_composition(spec):
    perms = lex_perms(int(spec[1:]), even=spec[0] == "A")
    assert build_group(spec).table == brute_perm_table(perms)


@pytest.mark.parametrize("text", ["(1 2 3)\n(2 3 4)\n", "(1 200)\n", "(1 300)(2 299 150)\n"])
def test_perm_file_table_matches_composition(tmp_path, text):
    path = tmp_path / "gens.txt"
    path.write_text(text)
    elems = ref_close_permutations(groups_module._parse_perm_file(str(path)))
    assert build_group(f"perm:{path}").table == brute_perm_table(elems)


@pytest.mark.parametrize("k", [4, 5])
def test_a_perm_file_of_the_standard_generators_relabelled_is_the_built_in_table(tmp_path, k):
    path = tmp_path / "sk.txt"  # the k-cycle and (1 2), numbered in the order the closure finds
    path.write_text(f"({' '.join(str(i) for i in range(1, k + 1))})\n(1 2)\n")
    lex = {p: i for i, p in enumerate(lex_perms(k))}
    rank = [lex[p] for p in ref_close_permutations(groups_module._parse_perm_file(str(path)))]
    relabelled = [[0] * len(rank) for _ in rank]
    for a, row in enumerate(build_group(f"perm:{path}").table):
        for b, c in enumerate(row):
            relabelled[rank[a]][rank[b]] = rank[c]
    assert rank != sorted(rank)
    assert relabelled == build_group(f"S{k}").table


# ---------------------------------------------------------------------------
# Maximal cyclic subgroups


def test_maximal_cyclic_cyclic_group():
    fam = maximal_cyclic_subgroups(build_group("Z12"))
    assert len(fam.all) == 1 and fam.all[0].bit_count() == 12
    assert fam.by_prime == {} and len(fam.mixed) == 1


def test_maximal_cyclic_dihedral():
    # the rotation subgroup plus six reflections
    fam = maximal_cyclic_subgroups(build_group("D12"))
    assert sorted(m.bit_count() for m in fam.all) == [2, 2, 2, 2, 2, 2, 6]


def test_maximal_cyclic_quaternion():
    fam = maximal_cyclic_subgroups(build_group("Q8"))
    assert [m.bit_count() for m in fam.all] == [4, 4, 4]
    masks = fam.all
    for i in range(3):
        for j in range(i + 1, 3):
            assert (masks[i] & masks[j]).bit_count() == 2  # common center


@pytest.mark.parametrize("spec", ["Z12", "D12", "Q8", "A4", "S4", "Ab[2,6]", "E3^2"])
def test_family_covers_and_partitions(spec):
    g = build_group(spec)
    fam = maximal_cyclic_subgroups(g)
    covered = set()
    for m in fam.all:
        covered.update(bits(m))
    assert covered == set(range(g.n))
    split = [m for subs in fam.by_prime.values() for m in subs] + list(fam.mixed)
    assert sorted(split, key=lambda m: (m.bit_count(), tuple(bits(m)))) == list(fam.all)
    # no member contains another
    masks = fam.all
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
        assert [m.bit_count() for m in a.chain] == [2, 4]
        assert (a.s_i, a.lambda_exp, a.s_prime, a.f_i) == (2, -1, 1, 2)


def test_chain_analysis_a4():
    g = build_group("A4")
    for p, count in [(3, 4), (2, 3)]:
        analyses = chain_analysis(g, p)
        assert len(analyses) == count
        for a in analyses:
            assert [m.bit_count() for m in a.chain] == [1, p ** a.f_i]
            assert (a.s_i, a.lambda_exp, a.s_prime) == (2, 0, 2)


def test_chain_analysis_empty_family():
    assert chain_analysis(build_group("Z12"), 2) == ()


def test_chain_data_answers_every_prime_and_refuses_a_non_prime():
    g = build_group("Z12")
    for p in [5, 7, 9973]:  # primes that do not divide 12: no p-chains
        assert chain_analysis(g, p) == ()
        assert alpha_p(g, p) == 0
        assert clique_witness_alpha_p(g, p) == []
    for f in [chain_analysis, alpha_p, clique_witness_alpha_p]:
        for p in [4, 12, 1, 0, -3]:
            with pytest.raises(ValueError) as exc:
                f(g, p)
            assert type(exc.value) is ValueError and str(exc.value) == f"{p} is not prime"


def test_chains_are_totally_ordered_and_end_at_mi():
    for spec in ["Q8", "A4", "S4", "Ab[2,8]", "Ab[4,4]", "D16"]:
        g = build_group(spec)
        for p, _ in factorize(g.n).factors:
            for a in chain_analysis(g, p):
                orders = [m.bit_count() for m in a.chain]
                assert orders == sorted(orders) and len(set(orders)) == len(orders)
                sets = [set(bits(m)) for m in a.chain]
                assert all(sets[i] < sets[i + 1] for i in range(len(sets) - 1))
                # last entry is the maximal subgroup itself
                mp = maximal_cyclic_subgroups(g).by_prime[p]
                assert a.chain[-1] == mp[a.subgroup_index]
                assert a.s_i <= a.f_i + 1


def test_the_ladder_caches_one_chain_analysis_per_prime():
    for spec in ["Q16", "E3^3", "Z2xS4"]:
        g = build_group(spec)
        sdim_group(g)
        primes = [p for p, _ in factorize(g.n).factors]
        cached = {k: v for k, v in g._cache.items()
                  if isinstance(k, tuple) and k[0] == "chain_analysis"}
        assert sorted(cached) == [("chain_analysis", p) for p in primes], spec
        assert all(chain_analysis(g, p) is cached["chain_analysis", p] for p in primes), spec


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
    assert all(g.n % element_orders(g)[x] == 0 for x in range(g.n))
    fam = maximal_cyclic_subgroups(g)
    assert set().union(*(set(bits(m)) for m in fam.all)) == set(range(g.n))


# a path as parse_spec reads it back: the spec string is stripped, so not
# one that ends in whitespace
file_paths = st.text(min_size=1).filter(lambda t: not t[-1].isspace())


@st.composite
def written_specs(draw):
    """An atom of group_specs(), a product of two or three, or a file spec."""
    kind = draw(st.sampled_from(["atom", "product", "cayley", "perm"]))
    if kind == "atom":
        return draw(group_specs())
    if kind == "product":
        return DirectProduct(tuple(draw(st.lists(group_specs(), min_size=2, max_size=3))))
    return (CayleyFile if kind == "cayley" else PermFile)(draw(file_paths))


@given(written_specs(), group_specs())
@settings(max_examples=150, deadline=None)
def test_parse_spec_reads_back_every_spec_and_a_product_is_of_atoms_alone(spec, atom):
    assert parse_spec(spec_string(spec)) == spec
    order = spec_order(spec)
    assert (order is None) is isinstance(spec, (CayleyFile, PermFile))
    if order is not None and order <= 200:
        assert build_group(spec).n == order
    # the grammar writes no one-factor product, and no product holding a file
    # or a product
    is_atom = type(spec) in groups_module._ATOMS
    for parts in [(spec,), (atom, spec), (spec, atom)]:
        if is_atom and len(parts) == 2:
            assert parse_spec(spec_string(DirectProduct(parts))) == DirectProduct(parts)
        else:
            with pytest.raises(InvalidSpec, match="two or more family specs"):
                DirectProduct(parts)


# ---------------------------------------------------------------------------
# Table checks: Light's associativity test at every order, entries outside int64


@given(st.integers(1, 8), st.integers(0, 2 ** 32))
@settings(max_examples=300, deadline=None)
def test_light_test_agrees_with_the_triple_check_on_random_loops(n, seed):
    table = random_loop(Random(seed), n)
    if is_associative(table):
        assert Group(table).identity == 0
    else:
        with pytest.raises(NotAGroup, match="not associative"):
            Group(table)


def test_light_test_checks_every_generator():
    # loop5 x Z2 (row-major, so element 1 is the Z2 generator): the first
    # greedy generator is associative, the second one (2, in loop5) is not
    loop5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    table = ref_product_table([loop5, ref_cyclic_table(2)])
    assert not is_associative(table)
    with pytest.raises(NotAGroup, match="not associative"):
        Group(table)


SMALL_TABLES = [ref_cyclic_table(n) for n in range(1, 7)] + [
    ref_product_table([ref_cyclic_table(2)] * 2), ref_dihedral_table(6), ref_dihedral_table(8),
    ref_quaternion_table(8)]


@st.composite
def small_tables(draw):
    """A small group table or a random loop (often not associative),
    relabelled, then kept whole or given a broken cell, row or column, or two
    rows swapped, which breaks the identity; with up to 3 generators."""
    if draw(st.booleans()):
        base = draw(st.sampled_from(SMALL_TABLES))
    else:
        base = random_loop(Random(draw(st.integers(0, 2 ** 32))), draw(st.integers(1, 6)))
    n = len(base)
    perm = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[base[a][b]]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    line = st.one_of(st.permutations(range(n)), st.lists(st.integers(0, n - 1), min_size=n,
                                                         max_size=n))
    kind = draw(st.sampled_from(["whole", "cell", "row", "column", "identity"]))
    if kind == "cell":
        table[i][j] = draw(st.integers(-1, n))
    elif kind == "row":
        table[i] = list(draw(line))
    elif kind == "column":
        for row, c in zip(table, draw(line)):
            row[j] = c
    elif kind == "identity":
        table[i], table[j] = table[j], table[i]
    return table, draw(st.lists(st.integers(0, n - 1), max_size=3))


@given(small_tables())
@settings(max_examples=600, deadline=None)
def test_group_verdicts_and_messages_match_the_definitions(case):
    table, generators = case
    expected = ref_table_verdict(table)
    if expected is None:
        assert Group(table, generators=generators).table == table
    else:
        with pytest.raises(NotAGroup) as caught:
            Group(table, generators=generators)
        assert str(caught.value) == expected


def test_a_monoid_with_a_row_that_lacks_the_identity_is_not_a_latin_square():
    # associative with the two-sided identity 0, so the identity and Light's
    # test pass: only the check that every row holds the identity refuses it
    table = [[0, 1], [1, 1]]
    assert is_associative(table)
    with pytest.raises(NotAGroup, match="^table is not a Latin square$"):
        Group(table)


def test_cayley_file_above_128_elements_is_validated_and_accepted(tmp_path):
    path = tmp_path / "z130.txt"
    write_cayley_file(path, ref_cyclic_table(130))
    g = build_group(f"cayley:{path}")
    assert g.n == 130 and is_cyclic_group(g)


def test_cayley_file_above_128_elements_that_is_not_associative(tmp_path):
    rows = ref_cyclic_table(130)
    # rows 1, 66 and columns 1, 66 hold the intercalate [[2, 67], [67, 2]]:
    # swapping it keeps a Latin square with identity 0
    assert (rows[1][1], rows[1][66], rows[66][1], rows[66][66]) == (2, 67, 67, 2)
    rows[1][1] = rows[66][66] = 67
    rows[1][66] = rows[66][1] = 2
    path = tmp_path / "loop130.txt"
    write_cayley_file(path, rows)
    with pytest.raises(NotAGroup, match="not associative"):
        build_group(f"cayley:{path}")


@pytest.mark.parametrize("big", [99999999999999999999999, -99999999999999999999999])
def test_table_entry_outside_int64_is_not_a_group(tmp_path, big):
    with pytest.raises(NotAGroup):
        Group([[0, 1], [1, big]])
    path = tmp_path / "big.txt"
    path.write_text(f"2\n0 1\n1 {big}\n")
    with pytest.raises(NotAGroup):
        build_group(f"cayley:{path}")


def test_perm_file_degree_counts_only_the_points_that_occur(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("(1 2 99999999999999999999)\n")
    assert groups_module._parse_perm_file(str(path)) == [(1, 2, 0)]
    g = build_group(f"perm:{path}")
    assert g.n == 3 and is_cyclic_group(g)


# ---------------------------------------------------------------------------
# Element numbering of the built-in families (witnesses in the golden CLI
# transcript depend on it): the vectorized builders against loop references


def test_cyclic_dihedral_and_quaternion_tables_match_the_loop_builders():
    for n in range(1, 61):
        assert build_group(f"Z{n}").table == ref_cyclic_table(n), n
    for order in range(6, 201, 2):
        assert build_group(f"D{order}").table == ref_dihedral_table(order), order
    for order in range(8, 201, 4):
        assert build_group(f"Q{order}").table == ref_quaternion_table(order), order


@pytest.mark.parametrize("spec, factors", [
    ("E2^8", lambda: [ref_cyclic_table(2)] * 8),
    ("Ab[2,4,8]", lambda: [ref_cyclic_table(d) for d in (2, 4, 8)]),
    ("Z3xQ8", lambda: [ref_cyclic_table(3), ref_quaternion_table(8)]),
    ("Z2xA4", lambda: [ref_cyclic_table(2), brute_perm_table(lex_perms(4, even=True))]),
    ("S3xS3", lambda: [brute_perm_table(lex_perms(3))] * 2),
])
def test_product_tables_match_the_loop_builder(spec, factors):
    assert build_group(spec).table == ref_product_table(factors())


def spy_group_inits(monkeypatch) -> list:
    """Record the generators of every Group() made from here on."""
    calls, init = [], Group.__init__

    def spy(self, table, *, generators=()):
        calls.append(list(generators))
        init(self, table, generators=generators)

    monkeypatch.setattr(Group, "__init__", spy)
    return calls


@pytest.mark.parametrize("spec", ["Z12", "Ab[2,4]", "D8", "S4", "Z3xQ8", "S3xS3", "perm", "cayley"])
def test_build_group_constructs_one_group(monkeypatch, tmp_path, spec):
    if spec == "cayley":
        write_cayley_file(tmp_path / "s3.txt", brute_perm_table(lex_perms(3)))
        spec = f"cayley:{tmp_path / 's3.txt'}"
    elif spec == "perm":
        spec = f"perm:{DATA / 's5.txt'}"
    calls = spy_group_inits(monkeypatch)
    build_group(spec)
    assert len(calls) == 1, calls  # a product builds no Group for a factor


def test_a_product_starts_lights_test_from_its_factors_generators(monkeypatch):
    calls = spy_group_inits(monkeypatch)
    build_group("S3")
    s3 = calls.pop()
    assert len(s3) == 2
    build_group("S3xS3")  # the first factor's generator a is the element (a, e) = a*6
    assert calls == [[a * 6 for a in s3] + s3]


def test_a_product_folds_in_its_tables_dtype_within_twice_its_bytes():
    factors = [groups_module._ATOMS[Alternating].build(Alternating(5))] * 2
    tracemalloc.start()
    try:
        table, _ = groups_module._product_table(factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.uint16
    # 2 bytes an entry: an intp fold holds 8, as much as four such tables
    assert peak < 2 * table.size * 2, (peak, table.size)


@pytest.mark.parametrize("factors", [["E2^8"], ["Z1", "Z256"], ["Z256"], ["Z3", "Q8"],
                                     ["Ab[2,4]", "E3^2", "D6"], ["S4", "S4"]])
def test_group_keeps_a_folded_table_as_it_is(factors):
    # ["Z256"] is Ab[256]'s one factor, and ["Z1", "Z256"] folds Z256 after
    # Z1: the factor's order m is n itself, which the table's dtype cannot hold
    table, gens = groups_module._product_table(
        [groups_module._ATOMS[type(p)].build(p) for p in map(parse_spec, factors)])
    assert table.dtype == np.min_scalar_type(len(table) - 1)
    g = Group(table, generators=gens)
    assert g.array is table  # adopted, not copied
    assert g.table == build_group("x".join(factors)).table


# ---------------------------------------------------------------------------
# The permutation table on long and short byte keys


def test_perm_table_of_a_300_cycle_matches_the_cyclic_table(tmp_path):
    path = tmp_path / "cycle.txt"  # 300 uint16 points and the fixed point: 602-byte keys
    path.write_text("(" + " ".join(str(i) for i in range(1, 301)) + ")\n")
    assert build_group(f"perm:{path}").table == ref_cyclic_table(300)


def test_perm_table_of_a_1000_cycle_in_bounded_memory():
    # the closure and the table together peak at about 9.9 MB on this input
    # with raw-byte dict keys; tuple keys, one Python int per point, peak at 34-68 MB
    gen = tuple(range(1, 1000)) + (0,)
    tracemalloc.start()
    try:
        table, gens = groups_module._perm_table([gen])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gens == [1]
    assert table.tolist() == ref_cyclic_table(1000)
    assert peak < 16 << 20, peak


def test_degree_8_perm_table_matches_composition(tmp_path):
    path = tmp_path / "d16.txt"  # degree 8: a row and its fixed point take 9 bytes
    path.write_text("(1 2 3 4 5 6 7 8)\n(1 8)(2 7)(3 6)(4 5)\n")
    elems = ref_close_permutations(groups_module._parse_perm_file(str(path)))
    assert (len(elems), len(elems[0])) == (16, 8)
    assert build_group(f"perm:{path}").table == brute_perm_table(elems)


# ---------------------------------------------------------------------------
# The maximal family and the chain data against the subset-test reference


def assert_matches_the_reference(g):
    primes = [p for p, _ in factorize(g.n).factors]
    fam = ref_maximal_cyclic_subgroups(g)  # the reference family, built once
    assert [alpha_p(g, p) for p in primes] == [ref_alpha_p(g, p, fam) for p in primes]
    assert maximal_cyclic_subgroups(g) == ref_family_masks(fam)
    for p in primes:
        assert chain_analysis(g, p) == ref_chain_analysis(g, p, fam), p


DATA = Path(__file__).parent / "data"


def perm_file(name):
    """A perm file under tests/data as a spec, with the file name as the test id."""
    return pytest.param(f"perm:{DATA / name}", id=f"perm:{name}")


# The perm files number their elements in closure order, so their smallest
# generators differ from those of the built-in groups.
@pytest.mark.parametrize("spec", CORPUS_SPECS + ["S6", "A6", "A7", "D360", "Q64", "Z2xS4", "E3^3",
                                                 "Z2xS3xQ8", perm_file("blocks3.txt"),
                                                 perm_file("s5.txt"), perm_file("d16.txt")])
def test_maximal_family_and_chains_match_the_reference(spec):
    assert_matches_the_reference(build_group(spec))


@pytest.mark.parametrize("spec", ["S4", "Q16", perm_file("blocks3.txt")])
def test_a_group_caches_each_cyclic_subgroup_only_as_its_mask(spec):
    # the cyclic masks are the one cached form of <x>: no n x n membership
    # matrix is kept beside them, and the power graph keeps only its own
    g = build_group(spec)
    sdim_group(g, oracle_cap=g.n)
    power_graph(g)
    assert [k for k, v in g._cache.items() if isinstance(v, np.ndarray)] == []
    # the maximal family holds those masks, each that of its smallest generator
    fam = maximal_cyclic_subgroups(g)
    masks, orders = groups_module.cyclic_masks(g), element_orders(g)
    for m in [*fam.all, *(m for subs in fam.by_prime.values() for m in subs), *fam.mixed]:
        x = min(e for e in bits(m) if orders[e] == m.bit_count())
        assert type(m) is int and m == masks[x]


@given(group_specs(), group_specs())
@settings(max_examples=30, deadline=None)
def test_maximal_family_and_chains_match_the_reference_on_products(a, b):
    spec = DirectProduct((a, b))
    assume(spec_order(spec) <= 300)
    assert_matches_the_reference(build_group(spec))


def test_a_power_that_is_not_exact_is_an_internal_inconsistency():
    assert groups_module._exact_log(3, 27) == 3
    with pytest.raises(powersdim.InternalInconsistency, match="6 is not a power of 2"):
        groups_module._exact_log(2, 6)
    assert (groups_module.InternalInconsistency is sdim_module.InternalInconsistency
            is powersdim.InternalInconsistency)
