"""chowcalc: exact intersection calculus on affine charts.

Cycles with integer multiplicities on finitely presented algebras over QQ
or a prime field, Cartier divisors and their Weil cycles, flat pullback,
proper pushforward, a torsion-weighted intersection product on regular
charts, and composable finite correspondences -- all computed exactly over
Groebner bases, with a scriptable CLI on top.
"""

from .correspondences import (Correspondence, ProductChart, compose,
                              correspondence_degree, graph,
                              identity_correspondence)
from .errors import (ConsistencyError, DecompositionError,
                     DegreeOverflowError, EngineError, GlueError,
                     HypothesisError, InexactDivisionError, NotPrimeError,
                     ParseError, ResolutionError, RingMismatchError)
from .fields import GF, QQ, field_from_name
from .geometry import (CartierDivisor, Chart, ChartedSpace, Cycle,
                       cycle_of_module, cycle_of_subscheme, point_cycle,
                       principal_atlas, restrict_cycle, transport_cycle)
from .groebner import Ideal, degree_limit, eliminate, intersect
from .homology import FPModule, free_resolution, tor_modules
from .intersection import (IntersectionReport, identity_sides,
                           intersection_product, intersects_properly,
                           serre_multiplicity, tor_length_table,
                           verify_identity)
from .morphisms import (ChartMap, degree, fiber_product, flat_pullback,
                        proper_pushforward, pullback_module,
                        pushforward_module, zariski_image)
from .polyring import PolynomialRing, transport
from .primes import (PrimeIdeal, assert_decomposition, assert_prime,
                     generic_rank, is_prime, length_at_prime, minimal_primes)
from .script import run_script

__version__ = "0.1.0"

__all__ = [
    "CartierDivisor", "Chart", "ChartMap", "ChartedSpace", "ConsistencyError",
    "Correspondence", "Cycle", "DecompositionError", "DegreeOverflowError",
    "EngineError", "FPModule", "GF", "GlueError", "HypothesisError", "Ideal",
    "InexactDivisionError", "IntersectionReport", "NotPrimeError",
    "ParseError", "PolynomialRing", "PrimeIdeal", "ProductChart", "QQ",
    "ResolutionError", "RingMismatchError", "assert_decomposition",
    "assert_prime", "compose", "correspondence_degree", "cycle_of_module",
    "cycle_of_subscheme", "degree", "degree_limit", "eliminate",
    "fiber_product", "field_from_name", "flat_pullback", "free_resolution",
    "generic_rank", "graph", "identity_correspondence", "identity_sides",
    "intersect", "intersection_product", "intersects_properly", "is_prime",
    "length_at_prime", "minimal_primes", "point_cycle", "principal_atlas",
    "proper_pushforward", "pullback_module", "pushforward_module",
    "restrict_cycle", "run_script", "serre_multiplicity",
    "tor_length_table", "tor_modules", "transport", "transport_cycle",
    "verify_identity", "zariski_image",
]
