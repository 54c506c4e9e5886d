"""Strong-metric-dimension engine.

Computes sdim of power graphs by a ladder of methods that must all agree:
family closed forms, the group-theoretic clique-number dispatch, the
diameter-2 twin reduction, and a generic oracle (minimum vertex cover of
the mutually-maximally-distant graph) that works on any connected graph.
Also builds and verifies minimum strong-resolving-set witnesses and the
constructive clique witnesses behind the formulas.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import groups as gr
from .groups import InternalInconsistency
from .clique import max_clique, min_vertex_cover
from .graphs import (Graph, all_pairs, diameter, has_universal_vertex, power_graph,
                     reduced_graph, sweep)

__all__ = [
    "Method", "SdimResult", "is_strong_resolving_set", "strong_resolving_graph",
    "sdim_oracle", "sdim_via_reduction", "omega_reduced_group", "sdim_group",
    "clique_witness_cyclic", "clique_witness_alpha_p", "classify_n_minus_2",
    "DiameterTooLarge", "OracleCapExceeded", "EmptyFamily",
    "DEFAULT_ORACLE_CAP",
]

DEFAULT_ORACLE_CAP = 200


class DiameterTooLarge(ValueError):
    """The reduction path only applies to graphs of diameter at most two."""


class OracleCapExceeded(ValueError):
    """The generic oracle refuses graphs above its configured size cap."""


class EmptyFamily(ValueError):
    """No maximal cyclic subgroup of p-power order exists."""


class Method(str, enum.Enum):
    CLOSED_FORM_CYCLIC_PRIME_POWER = "ClosedFormCyclicPrimePower"
    CLOSED_FORM_CYCLIC = "ClosedFormCyclic"
    CLOSED_FORM_P_GROUP = "ClosedFormPGroup"
    CLOSED_FORM_DIHEDRAL = "ClosedFormDihedral"
    CLOSED_FORM_QUATERNION = "ClosedFormQuaternion"
    CLOSED_FORM_ABELIAN = "ClosedFormAbelian"
    CLOSED_FORM_ELEMENTARY_ABELIAN = "ClosedFormElementaryAbelian"
    GROUP_THEOREM = "GroupTheorem"
    DIAMETER2_REDUCTION = "Diameter2Reduction"
    GENERIC_ORACLE = "GenericOracle"


@dataclass
class SdimResult:
    value: int
    method: Method
    omega_reduced: int | None = None
    closed_form: Method | None = None
    witness: list[int] | None = None
    verified: bool = False
    # (method, value, milliseconds) for each step sdim_group ran, in order
    rows: list[tuple[Method, int, float]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Definitional checks


def _normalize_vertex_set(graph: Graph, vertices) -> list[int]:
    out = sorted(set(vertices))
    for v in out:
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} out of range")
    return out


def is_strong_resolving_set(graph: Graph, candidate) -> bool:
    """True iff every vertex pair u, v has some w in the set with
    d(w,u) = d(w,v) + d(v,u) or d(w,v) = d(w,u) + d(u,v).

    A pair with an endpoint in the set is resolved by that endpoint, so only
    the pairs inside R = V minus the set are tested.  The distances to R are
    read once as Python ints, so the sums cannot wrap in the matrix dtype."""
    members = _normalize_vertex_set(graph, candidate)
    dist = all_pairs(graph)
    inside = set(members)
    rest = [v for v in range(graph.n) if v not in inside]
    to_rest = dist[:, rest].tolist()  # to_rest[x][i] = d(x, rest[i])
    from_members = [to_rest[w] for w in members]
    for i, u in enumerate(rest):
        du = to_rest[u]
        for j in range(i + 1, len(rest)):
            duv = du[j]
            for dw in from_members:
                if dw[i] == dw[j] + duv or dw[j] == dw[i] + duv:
                    break
            else:
                return False
    return True


def strong_resolving_graph(graph: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the mutually
    maximally distant pairs.

    With a universal vertex the diameter is at most 2: a pair at distance 2
    is always joined, and adjacent u, v are joined iff N[u] = N[v], so the
    edges are read from the cached 2 - A and the cached closed-twin classes
    of reduced_graph.  Any other graph reads the far matrix of its one
    sweep (which a diameter call may already have run): far[v, u] says
    that v is not maximally distant from u, and u and v are joined iff
    neither far[u, v] nor far[v, u]."""
    if has_universal_vertex(graph):
        srg = all_pairs(graph) == 2
        class_of = np.array(reduced_graph(graph).class_of)
        srg |= class_of[:, None] == class_of
    else:
        far = sweep(graph)[1]
        srg = ~(far | far.T)
    np.fill_diagonal(srg, False)
    return Graph.from_matrix(srg)


# ---------------------------------------------------------------------------
# The two graph-level computation paths


def check_oracle_cap(n: int, oracle_cap: int) -> None:
    """Raise OracleCapExceeded when an n-vertex graph is above the cap, so
    callers can refuse an input before building its graph."""
    if n > oracle_cap:
        raise OracleCapExceeded(f"oracle cap is {oracle_cap} vertices, graph has {n}")


def sdim_oracle(graph: Graph, *, oracle_cap: int = DEFAULT_ORACLE_CAP) -> SdimResult:
    """Generic path for any connected graph: minimum vertex cover of the
    mutually-maximally-distant graph.  Exponential-time exact, hence capped."""
    check_oracle_cap(graph.n, oracle_cap)
    srg = strong_resolving_graph(graph)
    cover = min_vertex_cover(srg)
    return SdimResult(
        value=len(cover),
        method=Method.GENERIC_ORACLE,
        witness=cover,
        verified=is_strong_resolving_set(graph, cover),
    )


def sdim_via_reduction(graph: Graph) -> SdimResult:
    """Diameter-<=2 path: n minus the clique number of the closed-twin
    quotient; the witness is the complement of the clique's representatives."""
    d = diameter(graph)
    if d > 2:
        raise DiameterTooLarge(f"reduction requires diameter <= 2, got {d}")
    red = reduced_graph(graph)
    cq = max_clique(red.quotient)
    keep = {red.representatives[c] for c in cq.members}
    witness = [v for v in range(graph.n) if v not in keep]
    return SdimResult(
        value=graph.n - cq.size,
        method=Method.DIAMETER2_REDUCTION,
        omega_reduced=cq.size,
        witness=witness,
        verified=is_strong_resolving_set(graph, witness),
    )


# ---------------------------------------------------------------------------
# Group-theoretic path


def omega_reduced_group(g: gr.Group) -> int:
    """Clique number of the reduced power graph, from group structure alone:
    sigma_n for cyclic groups, the alpha_p maximum for noncyclic CP-groups,
    and additionally sigma_{|M|}+1 over the mixed-order maximal cyclic
    subgroups otherwise."""
    if g.n == 1:
        return 1  # single-vertex reduced graph
    if gr.is_cyclic_group(g):
        return gr.sigma_of(g.n)
    primes = [p for p, _ in gr.factorize(g.n).factors]
    best = max(gr.alpha_p(g, p) for p in primes)
    if not gr.is_cp_group(g):
        fam = gr.maximal_cyclic_subgroups(g)
        best = max(best, max(gr.sigma_of(m.order) + 1 for m in fam.mixed))
    return best


def _closed_form(g: gr.Group) -> tuple[Method, int] | None:
    """Family formula applying to this group, if any.

    Cyclic, elementary abelian, p-group, and abelian cases are detected
    structurally (so Cayley-file inputs dispatch too); dihedral and
    generalized quaternion dispatch on the construction spec.
    """
    n = g.n
    if gr.is_cyclic_group(g):
        if len(gr.factorize(n).factors) == 1:
            return Method.CLOSED_FORM_CYCLIC_PRIME_POWER, n - 1
        return Method.CLOSED_FORM_CYCLIC, n - gr.sigma_of(n)
    if isinstance(g.spec, gr.Dihedral):
        return Method.CLOSED_FORM_DIHEDRAL, n - (gr.sigma_of(n // 2) + 1)
    if isinstance(g.spec, gr.GeneralizedQuaternion):
        return Method.CLOSED_FORM_QUATERNION, n - (gr.sigma_of(n // 2) + 1)
    fac = gr.factorize(n)
    if len(fac.factors) == 1:
        p = fac.factors[0][0]
        if all(k in (1, p) for k in gr.element_orders(g)):
            return Method.CLOSED_FORM_ELEMENTARY_ABELIAN, n - 2
        s_max = max(c.s_i for c in gr._chain_stats(g, p))
        return Method.CLOSED_FORM_P_GROUP, n - s_max
    if gr.is_abelian_group(g):
        d_k = gr.group_exponent(g)  # largest invariant factor
        return Method.CLOSED_FORM_ABELIAN, n - (gr.sigma_of(d_k) + 1)
    return None


def sdim_group(g: gr.Group, *, oracle_cap: int = 0) -> SdimResult:
    """Full ladder for a group: the closed form when one applies, the group
    theorem, the reduction on the power graph (which gives the witness), and
    the generic oracle when g.n <= oracle_cap.  Each step's (method, value,
    ms) is kept in rows; any disagreement raises InternalInconsistency."""
    graph = power_graph(g)
    rows: list[tuple[Method, int, float]] = []
    t0 = time.perf_counter()
    cf = _closed_form(g)
    if cf is not None:
        rows.append((*cf, (time.perf_counter() - t0) * 1000.0))
    t0 = time.perf_counter()
    omega = omega_reduced_group(g)
    rows.append((Method.GROUP_THEOREM, g.n - omega, (time.perf_counter() - t0) * 1000.0))
    t0 = time.perf_counter()
    red = sdim_via_reduction(graph)
    rows.append((Method.DIAMETER2_REDUCTION, red.value, (time.perf_counter() - t0) * 1000.0))
    if g.n <= oracle_cap:
        t0 = time.perf_counter()
        oracle = sdim_oracle(graph, oracle_cap=oracle_cap)
        rows.append((Method.GENERIC_ORACLE, oracle.value, (time.perf_counter() - t0) * 1000.0))
    if len({value for _, value, _ in rows}) != 1:
        raise InternalInconsistency("methods disagree: " + ", ".join(
            f"{method.value} gives {value}" for method, value, _ in rows))
    if g.n == 1:  # sigma_1 = 1 is a convention only; credit the one vertex to the reduction
        return replace(red, rows=rows)
    return SdimResult(
        value=red.value,
        method=cf[0] if cf else Method.GROUP_THEOREM,
        omega_reduced=omega,
        closed_form=cf[0] if cf else None,
        witness=red.witness,
        verified=red.verified,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Constructive clique witnesses


def clique_witness_cyclic(n: int) -> tuple[list[int], list[int]]:
    """Order sequence and concrete residues of a maximum clique of pairwise
    non-twin vertices in the power graph of the cyclic group of order n.

    For n with m >= 2 prime factors the orders are built by multiplying in
    primes from the largest down, one exponent step at a time, ending at n;
    for prime powers a single generator suffices.  Each order d is realized
    as the residue n/d, the smallest element of that order, which makes
    every chosen element a power of the next.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    fac = gr.factorize(n)
    if len(fac.factors) == 1:
        orders = [n]
    else:
        orders = []
        d = 1
        for p, r in reversed(fac.factors):
            for _ in range(r):
                d *= p
                orders.append(d)
    elements = [n // d for d in orders]
    return orders, elements


def clique_witness_alpha_p(g: gr.Group, p: int) -> list[int]:
    """Clique of size alpha_p in the power graph with pairwise distinct
    closed neighborhoods: chain generators from position s' up, plus one
    element of each order p^0..p^lambda inside the s'-th chain subgroup."""
    if not gr.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if g.n % p != 0:
        raise EmptyFamily(f"no maximal cyclic {p}-subgroups in a group of order {g.n}")
    analyses = gr.chain_analysis(g, p)
    if not analyses:
        raise EmptyFamily(f"no maximal cyclic subgroup of {p}-power order")
    best = max(analyses, key=lambda a: a.s_i - a.s_prime + a.lambda_exp + 2)
    witness = [best.chain[u - 1].generator for u in range(best.s_prime, best.s_i + 1)]
    if best.lambda_exp >= 0:
        sub = best.chain[best.s_prime - 1]
        orders = gr.element_orders(g)
        for j in range(best.lambda_exp + 1):
            target = p ** j
            witness.append(min(e for e in sub.elements if orders[e] == target))
    result = sorted(set(witness))
    expected = best.s_i - best.s_prime + best.lambda_exp + 2
    if len(result) != expected:
        raise InternalInconsistency(
            f"witness has {len(result)} elements, expected alpha contribution {expected}")
    return result


# ---------------------------------------------------------------------------
# Classification of sdim = n - 2


def classify_n_minus_2(g: gr.Group) -> tuple[bool, str | None]:
    """Whether sdim of the power graph is exactly n - 2, with the structural
    class: a cyclic group of order pq, a generalized quaternion 2-group, or
    a noncyclic CP-group whose maximal cyclic subgroups pairwise intersect
    trivially."""
    fac = gr.factorize(g.n)
    if gr.is_cyclic_group(g):
        if len(fac.factors) == 2 and all(r == 1 for _, r in fac.factors):
            return True, "cyclic-of-order-pq"
        return False, None
    if len(fac.factors) == 1 and fac.factors[0][0] == 2 and g.n >= 8:
        involutions = sum(1 for k in gr.element_orders(g) if k == 2)
        if involutions == 1:  # noncyclic 2-group with a unique involution
            return True, "generalized-quaternion-2-group"
    if gr.is_cp_group(g):
        fam = gr.maximal_cyclic_subgroups(g)
        cyclic = gr.cyclic_masks(g)
        masks = [cyclic[s.generator] for s in fam.all]
        if all((masks[i] & masks[j]).bit_count() == 1
               for i in range(len(masks)) for j in range(i + 1, len(masks))):
            return True, "cp-group-trivial-intersections"
    return False, None
