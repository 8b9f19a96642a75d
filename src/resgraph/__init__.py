"""Exact invariants of normal surface singularities from plumbing trees."""

from .counting import (InternalCheckError, counting_Q, counting_q,
                       counting_qp_closed, modified_qp_closed,
                       periodic_constant_full, periodic_constant_reduced,
                       plain_zeta, surgery_check, sw_norm)
from .curves import (CurveDataError, MultibranchCurve, delta_branch,
                     delta_total, hilbert_table, parse_curve, poincare_series,
                     verify_inversion)
from .cycles import RationalCycle, zero_cycle
from .embedded import (EmbeddedCurve, RationalityError, blache_correction,
                       delta_cross_check, delta_embedded, kappa_topological,
                       verify_twisted_duality)
from .graphs import (DiscriminantGroup, GraphError, GraphSyntaxError,
                     IntersectionForm, NotATreeError, NotNegativeDefiniteError,
                     ResolutionGraph, artin_rationality, chi,
                     fundamental_cycle, laufer_saturate,
                     min_antinef_rep, parse_graph, strict_interior_cycle,
                     subgraph_components)
from .randtrees import random_rational_graph
from .series import (RegionError, SparseSeries, TableBudgetExceeded, TwistError,
                     ZetaSpec, build_zeta, expand, h_part, reduce_to,
                     synthetic_spec)

__version__ = "0.1.0"
