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
    "DiameterTooLarge", "OracleCapExceeded", "DEFAULT_ORACLE_CAP",
]

DEFAULT_ORACLE_CAP = 200


class DiameterTooLarge(ValueError):
    """The reduction path only applies to graphs of diameter at most two."""


class OracleCapExceeded(ValueError):
    """The generic oracle refuses graphs above its configured size cap."""


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
    """An sdim value and the method credited with it.

    sdim_group credits the closed form when one applies and GroupTheorem
    otherwise; Z1 is credited to Diameter2Reduction, although its rows hold
    a ClosedFormCyclic row.  sdim_via_reduction and sdim_oracle credit
    themselves."""
    value: int
    method: Method
    omega_reduced: int | None = None
    witness: list[int] | None = None
    # (method, value, milliseconds) for each step sdim_group ran, in order
    rows: Sequence[tuple[Method, int, float]] = ()


# ---------------------------------------------------------------------------
# The two graph-level computation paths


def check_oracle_cap(n: int, oracle_cap: int) -> None:
    """Raise OracleCapExceeded when an n-vertex graph is above the cap, so
    callers can refuse an input before building its graph."""
    if n > oracle_cap:
        raise OracleCapExceeded(f"oracle cap is {oracle_cap} vertices, graph has {n}")


def _check_witness(graph: Graph, witness: list[int], method: Method, noun: str) -> None:
    """Raise InternalInconsistency unless witness strongly resolves graph."""
    if not is_strong_resolving_set(graph, witness):
        raise InternalInconsistency(f"{method.value} {noun} of {len(witness)} vertices"
                                    " is not a strong resolving set")


def sdim_oracle(graph: Graph, *, oracle_cap: int = DEFAULT_ORACLE_CAP) -> SdimResult:
    """Generic path for any connected graph: minimum vertex cover of the
    mutually-maximally-distant graph.  Exponential-time exact, hence capped.
    A cover that fails the definitional check raises InternalInconsistency."""
    check_oracle_cap(graph.n, oracle_cap)
    srg = strong_resolving_graph(graph)
    cover = min_vertex_cover(srg)
    _check_witness(graph, cover, Method.GENERIC_ORACLE, "cover")
    return SdimResult(
        value=len(cover),
        method=Method.GENERIC_ORACLE,
        witness=cover,
    )


def sdim_via_reduction(graph: Graph) -> SdimResult:
    """Diameter-<=2 path: n minus the clique number of the closed-twin
    quotient; the witness is the complement of the clique's representatives.
    A witness that fails the definitional check raises InternalInconsistency."""
    d = diameter(graph)
    if d > 2:
        raise DiameterTooLarge(f"reduction requires diameter <= 2, got {d}")
    red = reduced_graph(graph)
    cq = max_clique(red.quotient)
    keep = {red.representatives[c] for c in cq.members}
    witness = [v for v in range(graph.n) if v not in keep]
    _check_witness(graph, witness, Method.DIAMETER2_REDUCTION, "witness")
    return SdimResult(
        value=graph.n - cq.size,
        method=Method.DIAMETER2_REDUCTION,
        omega_reduced=cq.size,
        witness=witness,
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
    """Family formula applying to this group, if any, tried in the order
    cyclic, dihedral, generalized quaternion, p-group (elementary abelian
    first), abelian.  Each family is recognized from the table alone, so a
    group gets the same rows however it was built or numbered.

    Dihedral and generalized quaternion are read from the element orders,
    with [P] = 1 if P holds, else 0.  Let n = 2m with m >= 3 and x of order
    m.  Then <x> has index 2, and the m elements outside it are the y x^k.
    <x> holds [m even] involutions and 2 [4 | m] elements of order 4, so
    the group has m + [m even] involutions iff every y outside <x> is one,
    and m + 2 [4 | m] elements of order 4 iff every such y has order 4.  In
    the first case y^2 = e; in the second y^2, of order 2, lies in <x>, so
    m is even and y^2 = x^(m/2), the one involution of <x>.  Either way y x
    lies outside <x> too, so (y x)^2 = y^2, that is y x y^-1 = x^-1: the
    presentation <x, y | x^m, y^2, y x y^-1 = x^-1> of the dihedral group
    of order n, or <x, y | x^m, y^2 = x^(m/2), y x y^-1 = x^-1> of the
    generalized quaternion (dicyclic) one.  Any x of order m will do.
    """
    n, orders = g.n, gr.element_orders(g)
    if gr.is_cyclic_group(g):
        if len(gr.factorize(n).factors) == 1:
            return Method.CLOSED_FORM_CYCLIC_PRIME_POWER, n - 1
        return Method.CLOSED_FORM_CYCLIC, n - gr.sigma_of(n)
    m = n // 2
    if n % 2 == 0 and m >= 3 and m in orders:
        if orders.count(2) == m + (m % 2 == 0):
            return Method.CLOSED_FORM_DIHEDRAL, n - (gr.sigma_of(m) + 1)
        if orders.count(4) == m + 2 * (m % 4 == 0):
            return Method.CLOSED_FORM_QUATERNION, n - (gr.sigma_of(m) + 1)
    fac = gr.factorize(n)
    if len(fac.factors) == 1:
        p = fac.factors[0][0]
        if all(k in (1, p) for k in orders):
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
    # the check above makes the theorem's omega equal red.omega_reduced
    return red._replace(method=cf[0] if cf else Method.GROUP_THEOREM, rows=rows)


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
    element of each order p^0..p^lambda inside the s'-th chain subgroup.
    [] (the empty clique, alpha_p = 0) with no p-chains, as for a prime p
    that does not divide the group order; ValueError if p is not prime."""
    analyses = gr.chain_analysis(g, p)
    if not analyses:
        return []
    best = max(analyses, key=lambda a: a.s_i - a.s_prime + a.lambda_exp + 2)
    orders = gr.element_orders(g)

    def smallest_of_order(mask: int, k: int) -> int:
        return min(e for e in gr.bits(mask) if orders[e] == k)

    witness = [smallest_of_order(m, m.bit_count()) for m in best.chain[best.s_prime - 1:]]
    if best.lambda_exp >= 0:
        sub = best.chain[best.s_prime - 1]
        witness += [smallest_of_order(sub, p ** j) for j in range(best.lambda_exp + 1)]
    result = sorted(set(witness))
    if len(result) != gr.alpha_p(g, p):
        raise InternalInconsistency(
            f"witness has {len(result)} elements, expected alpha_p = {gr.alpha_p(g, p)}")
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
