"""Exact extremal graph theory toolkit.

Builds the extremal constructions for graphs with prescribed fractional
matching number and minimum degree, evaluates the closed-form clique and
biclique counting formulas and the associated Turan-type bounds, computes
fractional matching numbers by two independent exact methods, and verifies
the bounds exhaustively over all small graphs.
"""

from .counting import Biclique, Clique, Motif, count_bicliques, count_cliques, \
    count_motif, count_oracle, parse_motif
from .constructions import FamilySpec, build_extremal, build_family_member, \
    describe_extremal, family_max_count, family_max_count_literal, family_splits
from .formulas import ExtremalParams, binom, bound_edges_matching, \
    bound_edges_max_degree, bound_edges_min_degree_one, bound_motif, \
    bound_motif_scan, extremal_candidates, feasible_t_max, g_biclique, \
    g_clique, g_motif, second_difference
from .graphs import Graph, Graph6Error, are_isomorphic, complement, \
    complete_graph, cycle_graph, degree_stats, delete_edges, disjoint_union, \
    empty_graph, from_graph6, join, path_graph, relabel, to_graph6
from .matching import DeficiencyWitness, FractionalCertificate, HalfInt, \
    fractional_certificate, matching_number, nu_star_deficiency, nu_star_fast
from .verifier import ConvexityReport, NonexistenceReport, VerificationReport, \
    VerifySpec, verify_bound, verify_convexity, verify_nonexistence, verify_specs

__version__ = "0.1.0"
