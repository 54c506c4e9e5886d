"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All expected values are exact integers; there are no tolerances anywhere.
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import itertools
import random

import pytest

from powersdim import (CORPUS_SPECS, alpha_p, build_group, chain_analysis,
                       classify_n_minus_2, clique_witness_alpha_p,
                       clique_witness_cyclic, element_orders, factorize,
                       is_strong_resolving_set, max_clique, maximal_cyclic_subgroups,
                       power_graph, sdim_group, sdim_oracle, sdim_via_reduction,
                       sigma_of)

from helpers import (brute_force_clique_number, is_clique,
                     pairwise_distinct_closed_neighborhoods, random_diameter2_graph,
                     random_graph)


def _report(name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail and not ok else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{tail}")
    assert ok, f"{name}{tail}"


@pytest.fixture(scope="module")
def corpus():
    """spec -> (group, sdim_group result), computed once for the whole module."""
    out = {}
    for spec in CORPUS_SPECS:
        g = build_group(spec)
        out[spec] = (g, sdim_group(g))
    return out


def test_criterion_01_cyclic_law():
    failures = []
    for n in range(2, 61):
        g = build_group(f"Z{n}")
        expected = n - sigma_of(n)
        if sdim_group(g).value != expected:
            failures.append((n, "formula"))
        if sdim_oracle(power_graph(g)).value != expected:
            failures.append((n, "oracle"))
    _report("criterion 1: cyclic law sdim(Z_n) = n - sigma_n for n in 2..60",
            not failures, str(failures))


def test_criterion_02_prime_power_extremal(corpus):
    failures = []
    for spec, (g, res) in corpus.items():
        fac = factorize(g.n)
        is_cyclic_prime_power = g.n in element_orders(g) and len(fac) == 1
        if (res.value == g.n - 1) != is_cyclic_prime_power:
            failures.append(spec)
    _report("criterion 2: sdim = n-1 exactly for the cyclic prime-power corpus groups",
            not failures, str(failures))


def test_criterion_03_dihedral():
    failures = []
    for n in range(3, 21):
        g = build_group(f"D{2 * n}")
        closed = 2 * n - (sigma_of(n) + 1)
        theorem = sdim_group(g).value
        oracle = sdim_oracle(power_graph(g)).value
        if not closed == theorem == oracle:
            failures.append((n, closed, theorem, oracle))
    _report("criterion 3: dihedral closed form = theorem = oracle for n in 3..20",
            not failures, str(failures))


def test_criterion_04_quaternion():
    failures = []
    for n in range(2, 13):
        g = build_group(f"Q{4 * n}")
        closed = 4 * n - (sigma_of(2 * n) + 1)
        theorem = sdim_group(g).value
        oracle = sdim_oracle(power_graph(g)).value
        if not closed == theorem == oracle:
            failures.append((n, closed, theorem, oracle))
    _report("criterion 4: quaternion closed form = theorem = oracle for n in 2..12",
            not failures, str(failures))


def test_criterion_05_elementary_abelian():
    failures = []
    for p, k in [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)]:
        g = build_group(f"E{p}^{k}")
        closed = p ** k - 2
        reduction = sdim_via_reduction(power_graph(g)).value
        oracle = sdim_oracle(power_graph(g)).value
        if not closed == reduction == oracle:
            failures.append((p, k, closed, reduction, oracle))
    _report("criterion 5: elementary abelian p^k - 2 = reduction = oracle",
            not failures, str(failures))


def test_criterion_06_noncyclic_p_groups():
    specs = ["Ab[2,4]", "Ab[2,8]", "Ab[4,4]", "Ab[3,9]", "Q8", "Q16", "D8", "D16"]
    failures = []
    for spec in specs:
        g = build_group(spec)
        p = factorize(g.n)[0][0]
        closed = g.n - max(a.s_i for a in chain_analysis(g, p))
        reduction = sdim_via_reduction(power_graph(g)).value
        oracle = sdim_oracle(power_graph(g)).value
        if not closed == reduction == oracle:
            failures.append((spec, closed, reduction, oracle))
    z2z4 = sdim_group(build_group("Ab[2,4]")).value
    if z2z4 != 5:  # frozen regression number, confirmed by the oracle above
        failures.append(("Ab[2,4] regression", z2z4))
    _report("criterion 6: noncyclic p-groups n - max s_i = reduction = oracle",
            not failures, str(failures))


def test_criterion_07_abelian():
    cases = {"Ab[2,6]": 6, "Ab[2,12]": 12, "Ab[2,2,6]": 6}  # largest invariant factor
    failures = []
    for spec, d_k in cases.items():
        g = build_group(spec)
        closed = g.n - (sigma_of(d_k) + 1)
        reduction = sdim_via_reduction(power_graph(g)).value
        oracle = sdim_oracle(power_graph(g)).value
        if not closed == reduction == oracle:
            failures.append((spec, closed, reduction, oracle))
    _report("criterion 7: abelian prod d_i - (sigma_{d_k}+1) = reduction = oracle",
            not failures, str(failures))


def test_criterion_08_classification(corpus):
    assert len(corpus) >= 40
    for required in ["A4", "S3", "S4", "Z15", "Q16", "Ab[2,4]"]:
        assert required in corpus
    failures = []
    for spec, (g, res) in corpus.items():
        hit, label = classify_n_minus_2(g)
        if hit != (res.value == g.n - 2):
            failures.append((spec, hit, res.value, g.n - 2))
        if hit and label is None:
            failures.append((spec, "missing label"))
    _report("criterion 8: classify_n_minus_2 agrees with sdim = n-2 on the corpus",
            not failures, str(failures))


def test_criterion_09_witness_soundness(corpus):
    failures = []
    for spec, (g, res) in corpus.items():
        graph = power_graph(g)
        if res.witness is None or len(res.witness) != res.value \
                or not is_strong_resolving_set(graph, res.witness):
            failures.append(spec)
    _report("criterion 9: every corpus witness verifies at its computed size",
            not failures, str(failures))


def test_criterion_10a_clique_brute_force():
    rng = random.Random(2024)
    failures = 0
    for i in range(200):
        n = rng.randint(1, 16) if i % 10 else 16  # make sure n = 16 appears
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        if len(max_clique(g)) != brute_force_clique_number(g):
            failures += 1
    _report("criterion 10a: max_clique equals 2^n brute force on 200 graphs, n <= 16",
            failures == 0, f"{failures} mismatches")


def test_criterion_10b_reduction_vs_oracle():
    rng = random.Random(77)
    failures = 0
    for _ in range(50):
        g = random_diameter2_graph(rng, rng.randint(1, 14), rng.choice([0.2, 0.4, 0.6]))
        if sdim_via_reduction(g).value != sdim_oracle(g).value:
            failures += 1
    _report("criterion 10b: reduction = oracle on 50 random diameter-2 graphs",
            failures == 0, f"{failures} mismatches")


def test_criterion_10c_complement_clique_equivalence():
    rng = random.Random(99)
    failures = 0
    for _ in range(20):
        g = random_diameter2_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5]))
        for size in range(g.n + 1):
            for subset in itertools.combinations(range(g.n), size):
                comp = [v for v in range(g.n) if v not in subset]
                expected = is_clique(g, comp) and \
                    pairwise_distinct_closed_neighborhoods(g, comp)
                if is_strong_resolving_set(g, subset) != expected:
                    failures += 1
    _report("criterion 10c: strong-resolving iff complement is a non-twin clique, "
            "all subsets of 20 diameter-2 graphs", failures == 0, f"{failures} mismatches")


def test_criterion_11_constructive_witnesses(corpus):
    failures = []
    for n in range(2, 61):
        grp = build_group(f"Z{n}")
        graph = power_graph(grp)
        _, elements = clique_witness_cyclic(n)
        if len(elements) != sigma_of(n) or not is_clique(graph, elements) \
                or not pairwise_distinct_closed_neighborhoods(graph, elements):
            failures.append(f"Z{n}")
    for spec, (g, _) in corpus.items():
        fam = maximal_cyclic_subgroups(g)
        graph = power_graph(g)
        for p in fam.by_prime:
            witness = clique_witness_alpha_p(g, p)
            if len(witness) != alpha_p(g, p) or not is_clique(graph, witness) \
                    or not pairwise_distinct_closed_neighborhoods(graph, witness):
                failures.append((spec, p))
    _report("criterion 11: constructive witnesses have sizes sigma_n / alpha_p "
            "and are non-twin cliques", not failures, str(failures))
