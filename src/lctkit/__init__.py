"""lctkit: exact threshold toolkit for monic polynomials with one-variable
series coefficients.

The package computes orders of Puiseux roots and of their pairwise
differences for f = y^d + a_1(x) y^(d-1) + ... + a_d(x), builds the
associated criterion ideals, and decides lct(f) >= c in one variable, all
with exact rational arithmetic cross-validated against independent
Newton-polyhedron oracles.
"""

from .errors import (
    BudgetError, ConsistencyError, DegenerateError, LctkitError, ParseError,
    PrecisionError, TruncationError,
)
from .series import INF, OrderVal, PSeries
from .poly import (
    MPoly, UPoly, compound_poly, difference_poly, resultant, taylor_shift,
    value_poly,
)
from .qideal import (
    NO, QIdeal, QIdealFrac, UNKNOWN, YES, lc_dim1, qi_ord, qi_power,
    qi_product, qi_sum,
)
from .rootdata import (
    DiffOrderTable, NewtonPolygon, PuiseuxRootSet,
    contact_order_identity_check, diff_orders, integrality_test,
    max_root_order, newton_polygon, orders_against_series, partial_sums,
    perturbation_check, puiseux_expand, root_orders,
)
from .criterion import (
    Cor3Pack, CriterionContext, CriterionIdeals, build_b, build_bbar_k,
    build_bk, build_c, build_cor3_pack, build_p_plus_minus, build_tilde_bk,
    choose_p, containment_check, cor3_divisibility, degree3_test,
    depressed_cubic, eval_theorem_lhs, example3_test, lct_ge,
)
from .oracle import (
    lct_binomial_curve, lct_monomial_ideal, lct_plane_nondegenerate,
)

__version__ = "0.1.0"
