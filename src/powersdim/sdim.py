"""Strong-metric-dimension engine.

Computes sdim of power graphs by a ladder of methods that must all agree:
family closed forms, the group-theoretic clique-number dispatch, the
diameter-2 twin reduction, and a generic oracle (minimum vertex cover of
the mutually-maximally-distant graph) that works on any connected graph.
Also builds minimum strong-resolving-set witnesses (graphs holds their
definitional check) and the constructive clique witnesses behind the formulas.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Sequence
from typing import NamedTuple

from . import groups as gr
from .groups import InternalInconsistency
from .clique import max_clique, min_vertex_cover
from .graphs import (Graph, diameter, is_strong_resolving_set, power_graph, reduced_graph,
                     strong_resolving_graph)

__all__ = [
    "Method", "SdimResult", "sdim_oracle", "sdim_via_reduction", "omega_reduced_group",
    "sdim_group", "clique_witness_cyclic", "clique_witness_alpha_p", "classify_n_minus_2",
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


class SdimResult(NamedTuple):
    value: int
    method: Method
    omega_reduced: int | None = None
    closed_form: Method | None = None
    witness: list[int] | None = None
    verified: bool = False
    # (method, value, milliseconds) for each step sdim_group ran, in order
    rows: Sequence[tuple[Method, int, float]] = ()


# ---------------------------------------------------------------------------
# The two graph-level computation paths


def check_oracle_cap(n: int, oracle_cap: int) -> None:
    """Raise OracleCapExceeded when an n-vertex graph is above the cap, so
    callers can refuse an input before building its graph."""
    if n > oracle_cap:
        raise OracleCapExceeded(f"oracle cap is {oracle_cap} vertices, graph has {n}")


def sdim_oracle(graph: Graph, *, oracle_cap: int = DEFAULT_ORACLE_CAP) -> SdimResult:
    """Generic path for any connected graph: minimum vertex cover of the
    mutually-maximally-distant graph.  Exponential-time exact, hence capped.
    A cover that fails the definitional check raises InternalInconsistency."""
    check_oracle_cap(graph.n, oracle_cap)
    srg = strong_resolving_graph(graph)
    cover = min_vertex_cover(srg)
    if not is_strong_resolving_set(graph, cover):
        raise InternalInconsistency(f"{Method.GENERIC_ORACLE.value} cover of {len(cover)}"
                                    " vertices is not a strong resolving set")
    return SdimResult(
        value=len(cover),
        method=Method.GENERIC_ORACLE,
        witness=cover,
        verified=True,
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
    if gr.is_cyclic_group(g):
        return gr.sigma_of(g.n)
    primes = [p for p, _ in gr.factorize(g.n).factors]
    best = max(gr.alpha_p(g, p) for p in primes)
    if not gr.is_cp_group(g):
        fam = gr.maximal_cyclic_subgroups(g)
        best = max(best, max(gr.sigma_of(m.bit_count()) + 1 for m in fam.mixed))
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
        s_max = max(c.s_i for c in gr.chain_analysis(g, p))
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
    def timed(f, *args, **kwargs):
        """f's result and the ms it took."""
        t0 = time.perf_counter()
        return f(*args, **kwargs), (time.perf_counter() - t0) * 1000.0  # f runs first

    graph = power_graph(g)
    rows: list[tuple[Method, int, float]] = []
    cf, ms = timed(_closed_form, g)
    if cf is not None:
        rows.append((*cf, ms))
    omega, ms = timed(omega_reduced_group, g)
    rows.append((Method.GROUP_THEOREM, g.n - omega, ms))
    red, ms = timed(sdim_via_reduction, graph)
    rows.append((Method.DIAMETER2_REDUCTION, red.value, ms))
    if g.n <= oracle_cap:
        oracle, ms = timed(sdim_oracle, graph, oracle_cap=oracle_cap)
        rows.append((Method.GENERIC_ORACLE, oracle.value, ms))
    if len({value for _, value, _ in rows}) != 1:
        raise InternalInconsistency("methods disagree: " + ", ".join(
            f"{method.value} gives {value}" for method, value, _ in rows))
    if g.n == 1:  # sigma_1 = 1 is a convention only; credit the one vertex to the reduction
        return red._replace(rows=rows)
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
    orders = gr.element_orders(g)

    def smallest_of_order(mask: int, k: int) -> int:
        return min(e for e in gr.bits(mask) if orders[e] == k)

    witness = [smallest_of_order(m, m.bit_count()) for m in best.chain[best.s_prime - 1:]]
    if best.lambda_exp >= 0:
        sub = best.chain[best.s_prime - 1]
        witness += [smallest_of_order(sub, p ** j) for j in range(best.lambda_exp + 1)]
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
        masks = gr.maximal_cyclic_subgroups(g).all
        if all((masks[i] & masks[j]).bit_count() == 1
               for i in range(len(masks)) for j in range(i + 1, len(masks))):
            return True, "cp-group-trivial-intersections"
    return False, None
