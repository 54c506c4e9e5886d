"""Writes reference.json: the groups of the corpus and ladder workloads, the
strong metric dimension of each group's power graph, and that of each graph
in the graphs workload's pool.  Each group also gets the multiset of its
element orders, which the gate compares with the program's multiplication
table, so that a table of the wrong group of the right order is caught.

The values come from code that shares nothing with powersdim: groups are
built here from their textbook presentations, the power graph from element
powers, and the value from the theorem for graphs of diameter at most 2
(every power graph: the identity is adjacent to all elements), sdim =
n - clique number of the closed-twin quotient (Kuziak, Yero and
Rodriguez-Velazquez 2013), with networkx finding the clique.  Families
with a closed form in Ma, Feng and Wang (arXiv:1607.00257) are checked
against it as well.  Graph values come from verify.graph_sdim: the
minimum vertex cover of a strong resolving graph built with numpy, through
networkx's exact maximum clique on its complement.

Usage: python3 perfbench/make_reference.py
test_perfbench.py checks that the stored file matches a fresh computation.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

import networkx as nx

from verify import adjacency, graph_sdim
from workloads import graph_pool

HERE = Path(__file__).resolve().parent

CORPUS = [
    "Z2", "Z3", "Z4", "Z6", "Z8", "Z12", "Z15", "Z16", "Z24", "Z30", "Z36", "Z60",
    "D6", "D8", "D10", "D12", "D16", "D20", "D24", "D40",
    "Q8", "Q12", "Q16", "Q20", "Q24", "Q32", "Q48",
    "E2^2", "E2^3", "E2^4", "E3^2", "E5^2",
    "Ab[2,4]", "Ab[2,8]", "Ab[4,4]", "Ab[3,9]", "Ab[2,6]", "Ab[2,12]", "Ab[2,2,6]",
    "S3", "S4", "S5", "A4", "A5",
    "Z3xQ8", "Z2xA4",
]
LADDER = ["Z360", "D360", "Q360", "E2^8", "S6", "Z720"]


# --- groups as (elements, multiply) ----------------------------------------

def cyclic(n):
    return list(range(n)), lambda a, b: (a + b) % n


def dihedral(order):
    m = order // 2  # (k, s) = r^k f^s, f r f = r^-1
    els = [(k, s) for s in (0, 1) for k in range(m)]
    return els, lambda a, b: ((a[0] + (b[0] if a[1] == 0 else -b[0])) % m, a[1] ^ b[1])


def dicyclic(order):
    m = order // 4  # (k, s) = a^k x^s, a^(2m) = 1, x^2 = a^m, x a x^-1 = a^-1
    els = [(k, s) for s in (0, 1) for k in range(2 * m)]

    def mul(a, b):
        if a[1] == 0:
            return ((a[0] + b[0]) % (2 * m), b[1])
        if b[1] == 0:
            return ((a[0] - b[0]) % (2 * m), 1)
        return ((a[0] - b[0] + m) % (2 * m), 0)
    return els, mul


def abelian(factors):
    els = list(itertools.product(*[range(d) for d in factors]))
    return els, lambda a, b: tuple((x + y) % d for x, y, d in zip(a, b, factors))


def permutations(n, even_only):
    def parity(p):
        return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]) % 2
    els = [p for p in itertools.permutations(range(n)) if not even_only or parity(p) == 0]
    return els, lambda a, b: tuple(a[b[i]] for i in range(n))


def product(g, h):
    (ge, gm), (he, hm) = g, h
    return ([(x, y) for x in ge for y in he],
            lambda a, b: (gm(a[0], b[0]), hm(a[1], b[1])))


def group(spec):
    parts = spec.split("x")
    if len(parts) > 1:
        out = group(parts[0])
        for p in parts[1:]:
            out = product(out, group(p))
        return out
    if m := re.fullmatch(r"Z(\d+)", spec):
        return cyclic(int(m[1]))
    if m := re.fullmatch(r"D(\d+)", spec):
        return dihedral(int(m[1]))
    if m := re.fullmatch(r"Q(\d+)", spec):
        return dicyclic(int(m[1]))
    if m := re.fullmatch(r"E(\d+)\^(\d+)", spec):
        return abelian([int(m[1])] * int(m[2]))
    if m := re.fullmatch(r"Ab\[([\d,]+)\]", spec):
        return abelian([int(d) for d in m[1].split(",")])
    if m := re.fullmatch(r"([SA])(\d+)", spec):
        return permutations(int(m[2]), m[1] == "A")
    raise ValueError(f"unknown spec {spec}")


# --- sdim by the diameter-2 theorem ----------------------------------------

def cyclic_subgroups(spec):
    """<x> as a set of element indices, for every element x of the group."""
    els, mul = group(spec)
    index = {e: i for i, e in enumerate(els)}
    powers = []
    for x in els:
        seen, y = {index[x]}, mul(x, x)
        while index[y] not in seen:
            seen.add(index[y])
            y = mul(y, x)
        powers.append(seen)
    return powers


def order_counts(powers):
    """[[order, number of elements of that order], ...], by order."""
    counts = {}
    for p in powers:
        counts[len(p)] = counts.get(len(p), 0) + 1
    return [[k, counts[k]] for k in sorted(counts)]


def sdim(powers):
    n = len(powers)
    closed = [set(powers[x]) | {x} for x in range(n)]
    for x in range(n):
        for y in powers[x]:
            closed[y].add(x)
    classes = {}
    for x in range(n):
        classes.setdefault(frozenset(closed[x]), x)
    reps = list(classes.values())
    quotient = nx.Graph()
    quotient.add_nodes_from(range(len(reps)))
    quotient.add_edges_from((i, j) for i, j in itertools.combinations(range(len(reps)), 2)
                            if reps[j] in closed[reps[i]])
    _, omega = nx.max_weight_clique(quotient, weight=None)
    return n - omega


def closed_form(spec):
    """Ma-Feng-Wang closed forms for the families that have one, else None."""
    def factor(n):
        out, p = {}, 2
        while p * p <= n:
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
            p += 1
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out

    def sigma(n):  # 1 for prime powers, else the sum of the exponents
        f = factor(n)
        return 1 if len(f) <= 1 else sum(f.values())
    if m := re.fullmatch(r"Z(\d+)", spec):
        n = int(m[1])
        return n - 1 if len(factor(n)) == 1 else n - sigma(n)
    if m := re.fullmatch(r"[DQ](\d+)", spec):
        n = int(m[1])
        return n - (sigma(n // 2) + 1)
    if m := re.fullmatch(r"E(\d+)\^(\d+)", spec):
        return int(m[1]) ** int(m[2]) - 2
    return None


def build() -> dict:
    values, orders = {}, {}
    for spec in CORPUS + LADDER:
        powers = cyclic_subgroups(spec)
        value = sdim(powers)
        expected = closed_form(spec)
        if expected is not None and expected != value:
            raise AssertionError(f"{spec}: theorem gives {value}, closed form {expected}")
        values[spec] = value
        orders[spec] = order_counts(powers)
    graphs = {name: graph_sdim(adjacency(g)) for name, g in graph_pool()}
    return {"corpus": CORPUS, "ladder": LADDER, "groups": values, "graphs": graphs,
            "orders": orders}


def main() -> int:
    with open(HERE / "reference.json", "w") as fh:
        json.dump(build(), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
