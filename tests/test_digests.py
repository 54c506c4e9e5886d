"""One SHA-256 per input over everything the ladder and the group layer return.

tests/data/digests.json maps each input in DIGEST_SPECS to the digest of a
canonical JSON dump (dump()) of: the sdim_group result with the oracle up
to DEFAULT_ORACLE_CAP (value, method, omega, witness, and each row's
method and value without its time), the multiplication table, the
MaximalCyclicFamily, chain_analysis, alpha_p and clique_witness_alpha_p
for every prime divisor, and classify_n_minus_2.
A change that alters any of these for an input fails the test for that
input.  To rewrite the file after an intended output change, run:

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from powersdim import (CORPUS_SPECS, DEFAULT_ORACLE_CAP, alpha_p, build_group,
                       chain_analysis, classify_n_minus_2, clique_witness_alpha_p,
                       element_orders, factorize, maximal_cyclic_subgroups, sdim_group)
from powersdim.groups import bits

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "digests.json"

# Perm files under tests/data, keyed by file name, so that a key names the
# same input from any working directory.  Their element numbering is the
# closure's first-discovery order, which s5.txt's generators, (1 2 3 4 5) and
# (1 2), make differ from the lexicographic order of S5.
PERM_FILES = ["s5.txt", "d16.txt", "blocks3.txt"]

DIGEST_SPECS = list(dict.fromkeys([
    *CORPUS_SPECS,
    "S6", "A6", "Z720", "D360", "Q64", "Z2xS4", "E3^3", "Ab[12,60]", "D200",
    *(f"perm:{name}" for name in PERM_FILES),
]))


def _mask_sub(orders, m: int) -> list:
    """[generator, elements, order] of the cyclic subgroup with mask m, under
    its smallest generator."""
    elements = list(bits(m))
    order = len(elements)
    return [min(e for e in elements if orders[e] == order), elements, order]


def _chain_analysis(orders, a) -> list:
    subs = [_mask_sub(orders, m) for m in a.chain]
    return [a.subgroup_index, subs, [s[0] for s in subs], a.s_i, a.lambda_exp,
            a.s_prime, a.f_i]


def dump(spec: str) -> str:
    """Canonical JSON of every checked output for one group spec."""
    if spec.startswith("perm:"):
        spec = f"perm:{DATA / spec[len('perm:'):]}"
    g = build_group(spec)
    res = sdim_group(g, oracle_cap=DEFAULT_ORACLE_CAP)
    fam = maximal_cyclic_subgroups(g)
    orders = element_orders(g)
    primes = [p for p, _ in factorize(g.n)]
    out = {
        "n": g.n,
        "identity": g.identity,
        "table": g.table,
        "result": {
            "value": res.value,
            "method": res.method.value,
            "omega_reduced": res.omega_reduced,
            "witness": res.witness,
            "rows": [[m.value, v] for m, v, _ in res.rows],
        },
        "family": {
            "all": [_mask_sub(orders, m) for m in fam.all],
            "by_prime": {str(p): [_mask_sub(orders, m) for m in subs]
                         for p, subs in fam.by_prime.items()},
            "mixed": [_mask_sub(orders, m) for m in fam.mixed],
        },
        "primes": {str(p): {
            "alpha_p": alpha_p(g, p),
            "clique_witness_alpha_p": clique_witness_alpha_p(g, p),
            "chain_analysis": [_chain_analysis(orders, a) for a in chain_analysis(g, p)],
        } for p in primes},
        "classify_n_minus_2": list(classify_n_minus_2(g)),
    }
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def digest(spec: str) -> str:
    return hashlib.sha256(dump(spec).encode()).hexdigest()


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(DIGESTS.read_text())


def test_digest_file_covers_every_input(expected):
    assert list(expected) == DIGEST_SPECS


@pytest.mark.parametrize("spec", DIGEST_SPECS)
def test_outputs_match_digest(spec, expected):
    assert digest(spec) == expected[spec]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({s: digest(s) for s in DIGEST_SPECS}, indent=1) + "\n")
