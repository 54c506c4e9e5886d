"""Exact strong metric dimension of power graphs of finite groups.

Builds finite groups from parametric families or files, constructs their
power graphs, and computes the strong metric dimension by several mutually
cross-checking methods (family closed forms, the group-theoretic clique
dispatch on the twin-reduced graph, and a generic vertex-cover oracle),
emitting verified minimum strong-resolving-set witnesses.
"""

__version__ = "0.1.0"

from .clique import CliqueResult, max_clique, min_vertex_cover
from .corpus import CORPUS_SPECS
from .graphs import (Disconnected, Graph, ReducedGraph, bfs_distances, diameter,
                     from_edge_list, graph6_decode, graph6_encode, power_graph,
                     reduced_graph, to_dot, to_edge_list)
from .groups import (Abelian, Alternating, CayleyFile, ChainAnalysis, ClosureTooLarge,
                     Cyclic, CyclicSubgroup, Dihedral, DirectProduct, ElementaryAbelian,
                     GeneralizedQuaternion, Group, GroupSpec, InvalidSpec,
                     MaximalCyclicFamily, NotAGroup, NotAPrimeDivisor, PermFile,
                     PrimeFactorization, Symmetric, alpha_p, build_group, chain_analysis,
                     element_orders, factorize, is_abelian_group,
                     is_cp_group, is_cyclic_group, maximal_cyclic_subgroups, parse_spec,
                     sigma, sigma_of, spec_order, spec_string)
from .sdim import (DEFAULT_ORACLE_CAP, DiameterTooLarge, EmptyFamily,
                   InternalInconsistency, Method, OracleCapExceeded, SdimResult,
                   classify_n_minus_2, clique_witness_alpha_p, clique_witness_cyclic,
                   is_strong_resolving_set, omega_reduced_group, sdim_group, sdim_oracle,
                   sdim_via_reduction, strong_resolving_graph)

__all__ = [
    "__version__",
    # groups
    "Group", "GroupSpec", "Cyclic", "Dihedral", "GeneralizedQuaternion",
    "ElementaryAbelian", "Abelian", "Symmetric", "Alternating", "DirectProduct",
    "CayleyFile", "PermFile", "PrimeFactorization", "CyclicSubgroup",
    "MaximalCyclicFamily", "ChainAnalysis", "build_group", "parse_spec",
    "spec_string", "spec_order", "element_orders", "maximal_cyclic_subgroups",
    "chain_analysis", "alpha_p", "sigma", "sigma_of", "factorize", "is_cp_group",
    "is_cyclic_group", "is_abelian_group",
    "InvalidSpec", "NotAGroup", "ClosureTooLarge", "NotAPrimeDivisor",
    # graphs
    "Graph", "ReducedGraph", "power_graph", "bfs_distances", "diameter",
    "reduced_graph", "to_edge_list", "from_edge_list",
    "graph6_encode", "graph6_decode", "to_dot", "Disconnected",
    # clique
    "CliqueResult", "max_clique", "min_vertex_cover",
    # sdim
    "Method", "SdimResult", "is_strong_resolving_set", "strong_resolving_graph",
    "sdim_oracle", "sdim_via_reduction", "omega_reduced_group", "sdim_group",
    "clique_witness_cyclic", "clique_witness_alpha_p", "classify_n_minus_2",
    "DiameterTooLarge", "OracleCapExceeded", "EmptyFamily", "InternalInconsistency",
    "DEFAULT_ORACLE_CAP",
    # corpus
    "CORPUS_SPECS",
]
