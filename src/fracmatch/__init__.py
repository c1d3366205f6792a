"""Exact extremal graph theory toolkit.

Builds the extremal constructions for graphs with prescribed fractional
matching number and minimum degree, evaluates the closed-form clique and
biclique counting formulas and the associated Turan-type bounds, computes
fractional matching numbers by two independent exact methods, and verifies
the bounds exhaustively over all small graphs.

The package root exports what poses a question and reads its report; every
other name lives in its module.
"""

from .counting import Biclique, Clique, parse_motif
from .graphs import Graph, from_graph6, to_graph6
from .verifier import VerifySpec, verify_bound, verify_nonexistence, verify_specs

__version__ = "0.1.0"
