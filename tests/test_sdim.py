"""The dimension engine: definitional checks, both computation paths,
group dispatch, constructive witnesses, and the n-2 classification."""

import gc
import itertools
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import powersdim.graphs as graphs_module
import powersdim.sdim as sdim_module
from powersdim import (CORPUS_SPECS, DiameterTooLarge, Disconnected, Graph,
                       Group, InternalInconsistency, Method, OracleCapExceeded, alpha_p,
                       build_group, classify_n_minus_2, clique_witness_alpha_p,
                       clique_witness_cyclic, diameter, element_orders, factorize,
                       from_edge_list, is_cp_group, is_strong_resolving_set,
                       parse_spec, spec_order,
                       omega_reduced_group, power_graph, reduced_graph, sdim_group,
                       sdim_oracle, sdim_via_reduction, sigma_of,
                       strong_resolving_graph)

from helpers import (brute_is_strong_resolving, brute_sdim, brute_strong_resolving_graph,
                     clique_with_a_non_edge, cone, is_clique,
                     pairwise_distinct_closed_neighborhoods, random_cycle_with_chords,
                     random_diameter2_graph, random_graph, ref_metacyclic_table,
                     with_closed_twins, write_cayley_file)


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# is_strong_resolving_set


def test_srs_complete_graph():
    k3 = complete_graph(3)
    assert is_strong_resolving_set(k3, [0, 1])
    assert is_strong_resolving_set(k3, [1, 2])
    assert not is_strong_resolving_set(k3, [0])
    assert is_strong_resolving_set(k3, [0, 1, 2])


def test_srs_rejects_disconnected_and_bad_vertices():
    with pytest.raises(Disconnected):
        is_strong_resolving_set(Graph.from_edges(2, []), [0])
    with pytest.raises(ValueError):
        is_strong_resolving_set(complete_graph(3), [7])


def test_srs_z6_exhaustive():
    g = power_graph(build_group("Z6"))
    value, witness = brute_sdim(g)
    assert value == 4
    assert is_strong_resolving_set(g, witness)
    # no 3-element set works, and in particular the complement of the
    # non-clique {0, 2, 3} cannot resolve the pair (2, 3)
    for subset in itertools.combinations(range(6), 3):
        assert not is_strong_resolving_set(g, subset)
    assert not is_strong_resolving_set(g, [1, 4, 5])
    # complements of 2-cliques of non-twins do work
    assert is_strong_resolving_set(g, [1, 3, 4, 5])   # complement of {0, 2}
    assert is_strong_resolving_set(g, [1, 2, 4, 5])   # complement of {0, 3}


def test_srs_agrees_with_independent_check():
    rng = random.Random(23)

    def agree_on_random_subsets(g, density):
        outcomes = set()
        for _ in range(12):
            subset = [v for v in range(g.n) if rng.random() < density]
            resolves = is_strong_resolving_set(g, subset)
            assert resolves == brute_is_strong_resolving(g, subset)
            outcomes.add(resolves)
        return outcomes

    for _ in range(25):
        agree_on_random_subsets(random_diameter2_graph(rng, rng.randint(1, 8)), 0.5)
    # off diameter 2, where the distances come from BFS, not from 2 - A
    seen, checked = set(), 0
    while checked < 25:
        g = random_cycle_with_chords(rng, rng.randint(6, 11), rng.choice([0.0, 0.1, 0.2]))
        if diameter(g) >= 3:
            seen |= agree_on_random_subsets(g, rng.choice([0.5, 0.8, 0.9]))
            checked += 1
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# strong_resolving_graph


def test_srg_complete():
    assert strong_resolving_graph(complete_graph(4)) == complete_graph(4)


def test_srg_path3_single_endpoint_edge():
    srg = strong_resolving_graph(path_graph(3))
    assert list(srg.edges()) == [(0, 2)]


def test_srg_z6_contains_distance2_pairs():
    srg = strong_resolving_graph(power_graph(build_group("Z6")))
    assert srg.matrix[2, 3]
    assert srg.matrix[3, 4]


@given(st.integers(1, 30), st.sampled_from([0.0, 0.03, 0.1, 0.3, 1.0]),
       st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_srg_matches_definition_on_random_connected_graphs(n, p, rng):
    g = random_cycle_with_chords(rng, n, p)
    d = diameter(g)
    event("diameter >= 4" if d >= 4 else f"diameter {d}")
    assert strong_resolving_graph(g) == brute_strong_resolving_graph(g)


@given(st.integers(40, 80), st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3]),
       st.integers(0, 2**32))
@settings(max_examples=12, deadline=None)
def test_srg_matches_definition_on_multi_byte_rows(n, p, seed):
    rng = random.Random(seed)
    g = random_cycle_with_chords(rng, n, p)
    assert strong_resolving_graph(g) == brute_strong_resolving_graph(g)


@given(st.integers(0, 12), st.sampled_from([0.0, 0.2, 0.5, 0.9]), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_srg_with_a_universal_vertex_matches_definition_on_twin_blow_ups(k, p, seed):
    # the cone's apex is universal, so the SRG comes from 2 - A and the
    # closed-twin classes; the blow-up makes classes of up to 3 twins
    rng = random.Random(seed)
    g = cone(rng, with_closed_twins(rng, random_graph(rng, k, p), 3))
    assert strong_resolving_graph(g) == brute_strong_resolving_graph(g)


def test_srg_matches_definition_on_corpus_power_graphs():
    checked = 0
    for spec in CORPUS_SPECS:
        g = build_group(spec)
        if g.n <= 60:
            pg = power_graph(g)
            assert strong_resolving_graph(pg) == brute_strong_resolving_graph(pg), spec
            checked += 1
    assert checked >= 30


# ---------------------------------------------------------------------------
# Oracle


def test_oracle_complete_graph():
    k7 = complete_graph(7)
    res = sdim_oracle(k7)
    assert res.value == 6
    assert res.method is Method.GENERIC_ORACLE
    assert is_strong_resolving_set(k7, res.witness) and len(res.witness) == 6


def test_oracle_power_graphs():
    assert sdim_oracle(power_graph(build_group("Z12"))).value == 9
    assert sdim_oracle(power_graph(build_group("A4"))).value == 10


def test_oracle_matches_exhaustive_search():
    rng = random.Random(31)
    for _ in range(15):
        g = random_diameter2_graph(rng, rng.randint(1, 7))
        assert sdim_oracle(g).value == brute_sdim(g)[0]


def test_oracle_cap():
    with pytest.raises(OracleCapExceeded):
        sdim_oracle(complete_graph(12), oracle_cap=10)
    with pytest.raises(Disconnected):
        sdim_oracle(Graph.from_edges(3, []))


def ilp_sdim(graph: Graph) -> int:
    """sdim straight from the definition, as a set cover solved by an ILP
    (Sebő & Tannier, Math. Oper. Res. 29, 2004): one binary column per
    vertex w, one row per pair {u, v}, entry 1 when w resolves the pair
    strongly.  It reads neither the strong resolving graph nor the clique
    search, and takes its distances from scipy, not from the package."""
    pytest.importorskip("scipy", minversion="1.9")
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse.csgraph import shortest_path

    n = graph.n
    d = shortest_path(graph.matrix, unweighted=True)  # d[w, x], exact in float64
    u, v = np.triu_indices(n, 1)
    duv = d[u, v][:, None]
    cover = (d[:, u].T == d[:, v].T + duv) | (d[:, v].T == d[:, u].T + duv)  # [pair, w]
    res = milp(np.ones(n), constraints=LinearConstraint(cover.astype(float), lb=1),
               integrality=np.ones(n), bounds=Bounds(0, 1))
    assert res.success, res.message
    chosen = np.flatnonzero(res.x > 0.5).tolist()
    assert brute_is_strong_resolving(graph, chosen)
    return len(chosen)


# n <= 12: each solve took about 15 ms of solver set-up on a 2-vCPU VM, and
# importing scipy 0.5 s, so these add about 0.8 s in all
@pytest.mark.parametrize("spec", [s for s in CORPUS_SPECS if spec_order(parse_spec(s)) <= 12])
def test_the_definitional_ilp_agrees_with_the_ladder_and_the_oracle_on_groups(spec):
    g = build_group(spec)
    assert ilp_sdim(power_graph(g)) == sdim_group(g).value == sdim_oracle(power_graph(g)).value


@pytest.mark.parametrize("n, p, seed", [(14, 0.1, 5), (20, 0.08, 11)])
def test_the_definitional_ilp_agrees_with_the_oracle_off_diameter_two(n, p, seed):
    graph = random_cycle_with_chords(random.Random(seed), n, p)
    assert diameter(graph) > 2  # so no universal vertex
    assert ilp_sdim(graph) == sdim_oracle(graph).value


# ---------------------------------------------------------------------------
# Reduction


def test_reduction_klein_group():
    graph = power_graph(build_group("E2^2"))
    res = sdim_via_reduction(graph)
    assert res.value == 2 and res.omega_reduced == 2
    assert is_strong_resolving_set(graph, res.witness) and len(res.witness) == 2


def test_reduction_complete_graph():
    res = sdim_via_reduction(complete_graph(6))
    assert res.value == 5 and res.omega_reduced == 1


def test_reduction_single_vertex():
    res = sdim_via_reduction(Graph.from_edges(1, []))
    assert res.value == 0 and res.witness == []


def test_reduction_rejects_large_diameter():
    with pytest.raises(DiameterTooLarge):
        sdim_via_reduction(path_graph(4))


def test_reduction_equals_oracle_on_random_diameter2_graphs():
    rng = random.Random(47)
    for _ in range(50):
        g = random_diameter2_graph(rng, rng.randint(1, 12))
        red = sdim_via_reduction(g)
        assert red.value == sdim_oracle(g).value
        assert is_strong_resolving_set(g, red.witness)


def test_a_reduction_witness_that_fails_the_check_raises(monkeypatch):
    # same value as the ladder's other rungs, so only the witness check can object
    monkeypatch.setattr(sdim_module, "max_clique", clique_with_a_non_edge(sdim_module.max_clique))
    g = build_group("Z12")
    message = "Diameter2Reduction witness of 9 vertices is not a strong resolving set"
    for compute in [lambda: sdim_via_reduction(power_graph(g)), lambda: sdim_group(g),
                    lambda: sdim_group(g, oracle_cap=12)]:
        with pytest.raises(InternalInconsistency, match=f"^{message}$"):
            compute()


def test_prop_complement_clique_iff_srs_small():
    # diameter <= 2: S strong resolving iff complement is a clique of
    # pairwise non-twin vertices; both directions, all subsets
    rng = random.Random(53)
    for _ in range(8):
        g = random_diameter2_graph(rng, rng.randint(1, 7))
        for size in range(g.n + 1):
            for subset in itertools.combinations(range(g.n), size):
                comp = [v for v in range(g.n) if v not in subset]
                expected = is_clique(g, comp) and \
                    pairwise_distinct_closed_neighborhoods(g, comp)
                assert is_strong_resolving_set(g, subset) == expected


# ---------------------------------------------------------------------------
# Group dispatch


def test_omega_reduced_group_values():
    assert omega_reduced_group(build_group("Z12")) == 3
    assert omega_reduced_group(build_group("Q8")) == 2
    assert omega_reduced_group(build_group("D12")) == 3  # sigma_6 + 1
    assert omega_reduced_group(build_group("A4")) == 2


# small factors, abelian and not, whose products of order <= 200 take every
# branch of omega_reduced_group: cyclic, CP and (most of them) non-CP
PRODUCT_FACTORS = ["Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "E2^2", "S3", "D8",
                   "Q8", "D10", "Q12", "A4", "D12", "D14", "Q16", "S4"]


def test_theorem_equals_reduction_on_products_of_two_small_groups():
    products = non_cp = 0
    for a, b in itertools.combinations_with_replacement(PRODUCT_FACTORS, 2):
        spec = parse_spec(f"{a}x{b}")
        if spec_order(spec) > 200:
            continue
        g = build_group(spec)
        red = sdim_via_reduction(power_graph(g))
        assert omega_reduced_group(g) == red.omega_reduced, (a, b)
        products += 1
        non_cp += not is_cp_group(g)
    assert (products, non_cp) == (199, 167)


def test_sdim_group_methods_and_values():
    cases = [
        ("Z8", 7, Method.CLOSED_FORM_CYCLIC_PRIME_POWER),
        ("Z12", 9, Method.CLOSED_FORM_CYCLIC),
        ("D12", 9, Method.CLOSED_FORM_DIHEDRAL),
        ("Q12", 9, Method.CLOSED_FORM_QUATERNION),
        ("E3^2", 7, Method.CLOSED_FORM_ELEMENTARY_ABELIAN),
        ("Ab[2,4]", 5, Method.CLOSED_FORM_P_GROUP),
        ("Ab[2,6]", 9, Method.CLOSED_FORM_ABELIAN),
        ("A4", 10, Method.GROUP_THEOREM),
        ("Z3xQ8", 20, Method.GROUP_THEOREM),
    ]
    for spec, value, method in cases:
        res = sdim_group(build_group(spec))
        assert (res.value, res.method) == (value, method), spec
        assert is_strong_resolving_set(power_graph(build_group(spec)), res.witness)
        assert len(res.witness) == value
        assert res.value == build_group(spec).n - res.omega_reduced


def test_sdim_group_trivial_group():
    res = sdim_group(build_group("Z1"))
    assert res.value == 0 and res.witness == []
    assert res.method is Method.DIAMETER2_REDUCTION


def test_method_names_the_closed_form():
    cases = [
        ("Z8", Method.CLOSED_FORM_CYCLIC_PRIME_POWER),
        ("D12", Method.CLOSED_FORM_DIHEDRAL),
        ("Q8", Method.CLOSED_FORM_QUATERNION),
        ("E2^3", Method.CLOSED_FORM_ELEMENTARY_ABELIAN),
        ("Ab[2,4]", Method.CLOSED_FORM_P_GROUP),
        ("Ab[2,6]", Method.CLOSED_FORM_ABELIAN),
    ]
    for spec, method in cases:
        assert sdim_group(build_group(spec)).method is method, spec
    assert sdim_group(build_group("S4")).method is Method.GROUP_THEOREM


def test_cayley_file_input_dispatches_structurally(tmp_path):
    # a cyclic group loaded from a file still hits the cyclic closed form
    path = tmp_path / "z6.txt"
    n = 6
    path.write_text("6\n" + "\n".join(
        " ".join(str((i + j) % n) for j in range(n)) for i in range(n)) + "\n")
    res = sdim_group(build_group(f"cayley:{path}"))
    assert res.method is Method.CLOSED_FORM_CYCLIC
    assert res.value == 4


RELABELLED_SPECS = [*CORPUS_SPECS, "S6", "A6", "Z720", "D200", "Q64", "E2^8", "Z2xS4",
                    "Ab[2,4,8]", "S3xS3", "Z1"]


def relabelled(spec: str) -> tuple[Group, Group]:
    """The group of spec and a bare table of it in which element x becomes
    perm[x] for a permutation seeded by spec that moves the identity, so
    that the power graph's universal vertex is not where it was."""
    g = build_group(spec)
    rng = random.Random(spec)
    perm = rng.sample(range(g.n), g.n)
    e = g.identity
    if g.n > 1 and perm[e] == e:
        perm[e], perm[e - 1] = perm[e - 1], perm[e]
    p = np.array(perm)
    inv = np.argsort(p)
    bare = Group(p[g.array[inv][:, inv]])  # bare[perm[a], perm[b]] = perm[a * b]
    assert bare.identity == perm[e] and (g.n == 1 or bare.identity != e)
    return g, bare


def rung_values(res) -> list[tuple[Method, int]]:
    return [(method, value) for method, value, _ in res.rows]


@pytest.mark.parametrize("spec", RELABELLED_SPECS)
def test_a_relabelled_bare_table_gives_the_same_answer(spec):
    g, bare = relabelled(spec)
    want, got = sdim_group(g), sdim_group(bare)
    assert (got.value, got.omega_reduced) == (want.value, want.omega_reduced)
    assert rung_values(got) == rung_values(want)  # each rung, its method and its value
    assert is_strong_resolving_set(power_graph(bare), got.witness)
    assert len(got.witness) == got.value


DQ = {Method.CLOSED_FORM_DIHEDRAL, Method.CLOSED_FORM_QUATERNION}


def closed_form_rows(g: Group) -> set[Method]:
    return {method for method, _ in rung_values(sdim_group(g))} & DQ


def test_dihedral_and_quaternion_rows_follow_the_group_not_its_spec(tmp_path):
    # semidihedral SD16 and SD32, modular M16 and M32 and Z8 x Z2 have an
    # element of order n/2 too, but neither presentation
    for name, m, r in [("sd16", 8, 3), ("m16", 8, 5), ("sd32", 16, 7), ("m32", 16, 9),
                       ("z8xz2", 8, 1)]:
        write_cayley_file(tmp_path / f"{name}.txt", ref_metacyclic_table(m, r, 0))
        g = build_group(f"cayley:{tmp_path / name}.txt")
        assert closed_form_rows(g) == set(), name
        assert sdim_group(g).method is Method.CLOSED_FORM_P_GROUP, name
    for spec in ["Z2xZ6", "E2^2", "A4", "Z3xQ8"]:
        assert closed_form_rows(build_group(spec)) == set(), spec
    d16 = f"perm:{Path(__file__).parent / 'data' / 'd16.txt'}"
    for spec in ["S3", "Z2xS3", "Z2xD10", "Z2xD6xZ1", d16]:  # D6, D12, D20, D12 and D16
        assert sdim_group(build_group(spec)).method is Method.CLOSED_FORM_DIHEDRAL, spec
    _, q16 = relabelled("Q16")
    assert sdim_group(q16).method is Method.CLOSED_FORM_QUATERNION


def test_every_cyclic_extension_by_z2_gets_the_d_or_q_row_of_its_presentation():
    # x of order m, y^2 = x^s, y x y^-1 = x^r: the group is dihedral iff
    # r = -1 and s = 0, and generalized quaternion iff r = -1 and s = m/2
    groups = 0
    for m in range(3, 17):
        for r in (r for r in range(1, m) if r * r % m == 1):
            for s in (s for s in range(m) if r * s % m == s):
                g = Group(ref_metacyclic_table(m, r, s))
                want = set()
                if r == m - 1:
                    want = {Method.CLOSED_FORM_DIHEDRAL if s == 0 else Method.CLOSED_FORM_QUATERNION}
                assert closed_form_rows(g) == want, (m, r, s)
                groups += 1
    assert groups == 188


def test_sdim_group_rows_follow_the_ladder_and_the_oracle_cap():
    g = build_group("Z30")
    assert [m for m, _, _ in sdim_group(g).rows] == [
        Method.CLOSED_FORM_CYCLIC, Method.GROUP_THEOREM, Method.DIAMETER2_REDUCTION]
    rows = sdim_group(g, oracle_cap=30).rows
    assert rows[-1][0] is Method.GENERIC_ORACLE and len(rows) == 4
    assert {v for _, v, _ in rows} == {27} and all(ms >= 0 for _, _, ms in rows)
    assert [m for m, _, _ in sdim_group(build_group("S4"), oracle_cap=23).rows] == [
        Method.GROUP_THEOREM, Method.DIAMETER2_REDUCTION]


def test_sdim_group_disagreement_names_every_row(monkeypatch):
    real = sdim_module.omega_reduced_group
    monkeypatch.setattr(sdim_module, "omega_reduced_group", lambda g: real(g) + 1)
    with pytest.raises(InternalInconsistency) as exc:
        sdim_group(build_group("Z12"), oracle_cap=12)
    for row in ["ClosedFormCyclic gives 9", "GroupTheorem gives 8",
                "Diameter2Reduction gives 9", "GenericOracle gives 9"]:
        assert row in str(exc.value)


def count_graphs_calls(monkeypatch, name: str, counts) -> list[int]:
    """Add counts(*args) for each call of graphs.<name>, through every
    powersdim module that binds it."""
    calls = [0]
    real = getattr(graphs_module, name)

    def counted(*args):
        calls[0] += counts(*args)
        return real(*args)

    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "powersdim" and vars(module).get(name) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def count_computations(monkeypatch, name: str) -> list[int]:
    """Calls of graphs.<name> that compute, that is, find no result of
    theirs in the graph's cache."""
    return count_graphs_calls(monkeypatch, name, lambda graph: name not in graph._cache)


def count_sweeps(monkeypatch) -> list[int]:
    return count_computations(monkeypatch, "sweep")


@pytest.mark.parametrize("spec", ["Z12", "S4", "Q16"])
def test_ladder_and_oracle_share_one_distance_matrix(monkeypatch, spec):
    # the identity is a universal vertex, so distances are 2 - A: the one
    # matrix the ladder and the oracle share is the adjacency itself
    sweeps = count_sweeps(monkeypatch)
    g = build_group(spec)
    assert sdim_group(g, oracle_cap=g.n).rows[-1][0] is Method.GENERIC_ORACLE
    cached = [a for v in power_graph(g)._cache.values()
              for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
    assert sweeps[0] == 0
    assert not [a for a in cached if a.shape == (g.n, g.n) and a.dtype.kind in "iu"]


def test_diameter_and_the_oracle_sweep_a_chords_graph_once(monkeypatch):
    sweeps = count_sweeps(monkeypatch)
    g = random_cycle_with_chords(random.Random(40), 40, 3 / 40)
    assert diameter(g) >= 3 and sweeps[0] == 1
    assert is_strong_resolving_set(g, sdim_oracle(g).witness) and sweeps[0] == 1


@pytest.mark.parametrize("spec", ["S4", "Z12"])
def test_ladder_and_oracle_share_one_twin_quotient(monkeypatch, spec):
    reads = count_graphs_calls(monkeypatch, "reduced_graph", lambda graph: 1)
    builds = count_computations(monkeypatch, "reduced_graph")
    sdim_group(build_group(spec), oracle_cap=200)
    # the reduction and the oracle's strong resolving graph both read the
    # closed-twin classes, which are computed once
    assert (reads[0], builds[0]) == (2, 1)


def test_oracle_computes_distances_once_off_diameter_two(monkeypatch):
    sweeps = count_sweeps(monkeypatch)
    cycle = from_edge_list({"n": 7, "edges": [[i, (i + 1) % 7] for i in range(7)]})
    res = sdim_oracle(cycle)
    assert (res.value, sweeps[0]) == (4, 1) and is_strong_resolving_set(cycle, res.witness)
    assert diameter(cycle) == 3 and sweeps[0] == 1


def test_diameter_before_the_oracle_sweeps_once(monkeypatch):
    # the sweep behind diameter keeps its far matrix for the strong resolving graph
    sweeps = count_sweeps(monkeypatch)
    cycle = from_edge_list({"n": 7, "edges": [[i, (i + 1) % 7] for i in range(7)]})
    assert diameter(cycle) == 3 and sweeps[0] == 1
    res = sdim_oracle(cycle)
    assert (res.value, sweeps[0]) == (4, 1) and is_strong_resolving_set(cycle, res.witness)


def test_a_finished_computation_frees_its_graphs_without_the_cyclic_collector():
    # a graph, its cache and its cached twin quotient form no reference cycle, so
    # reference counting frees S6's arrays (about 1.3 MB) as soon as they are dropped
    def compute():
        g = build_group("S6")
        sdim_group(g, oracle_cap=g.n)

    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        compute()
        held = tracemalloc.get_traced_memory()[0] - start
        assert gc.collect() == 0
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 100_000, held


# ---------------------------------------------------------------------------
# Constructive witnesses


def test_clique_witness_cyclic_examples():
    assert clique_witness_cyclic(12) == ([3, 6, 12], [4, 2, 1])
    assert clique_witness_cyclic(30) == ([5, 15, 30], [6, 2, 1])
    orders, elements = clique_witness_cyclic(7)
    assert orders == [7] and elements == [1]
    with pytest.raises(ValueError):
        clique_witness_cyclic(1)


def test_clique_witness_cyclic_is_nontwin_clique():
    for n in [6, 12, 30, 36, 60]:
        grp = build_group(f"Z{n}")
        g = power_graph(grp)
        orders, elements = clique_witness_cyclic(n)
        assert len(elements) == sigma_of(n)
        assert [element_orders(grp)[e] for e in elements] == orders
        assert all(b % a == 0 for a, b in zip(orders, orders[1:]))
        assert is_clique(g, elements)
        assert pairwise_distinct_closed_neighborhoods(g, elements)


def test_clique_witness_alpha_p_examples():
    assert len(clique_witness_alpha_p(build_group("Q8"), 2)) == 2
    w = clique_witness_alpha_p(build_group("A4"), 3)
    assert len(w) == 2 and 0 in w  # includes the identity because lambda = 0
    assert len(clique_witness_alpha_p(build_group("E3^2"), 3)) == 2
    assert clique_witness_alpha_p(build_group("Z12"), 2) == []  # no maximal cyclic 2-subgroup
    assert clique_witness_alpha_p(build_group("Q8"), 3) == []  # 3 does not divide 8


def test_clique_witness_alpha_p_properties():
    # Z12 and Q12 have primes without p-chains: their witness is the empty clique
    for spec in ["Q8", "Q16", "A4", "S4", "D8", "D12", "Ab[2,8]", "Ab[4,4]", "A5", "Z12", "Q12"]:
        grp = build_group(spec)
        g = power_graph(grp)
        for p, _ in factorize(grp.n).factors:
            witness = clique_witness_alpha_p(grp, p)
            assert len(witness) == alpha_p(grp, p)
            assert is_clique(g, witness)
            assert pairwise_distinct_closed_neighborhoods(g, witness)


# ---------------------------------------------------------------------------
# Classification


def test_classify_examples():
    assert classify_n_minus_2(build_group("Z15")) == (True, "cyclic-of-order-pq")
    assert classify_n_minus_2(build_group("Q16")) == (True, "generalized-quaternion-2-group")
    assert classify_n_minus_2(build_group("A4")) == (True, "cp-group-trivial-intersections")
    assert classify_n_minus_2(build_group("Ab[2,4]")) == (False, None)
    assert classify_n_minus_2(build_group("Z9")) == (False, None)
    assert classify_n_minus_2(build_group("Z12")) == (False, None)


def test_classify_q8_is_quaternion_not_cp_class():
    hit, label = classify_n_minus_2(build_group("Q8"))
    assert hit and label == "generalized-quaternion-2-group"


def test_extremal_n_minus_1_iff_cyclic_prime_power():
    for spec, expect in [("Z8", True), ("Z16", True), ("Z5", True), ("Z6", False),
                         ("Q8", False), ("E2^2", False), ("D8", False)]:
        g = build_group(spec)
        assert (sdim_group(g).value == g.n - 1) == expect
