"""lctkit: exact threshold toolkit for monic polynomials with one-variable
series coefficients.

The package computes orders of Puiseux roots and of their pairwise
differences for f = y^d + a_1(x) y^(d-1) + ... + a_d(x), builds the
associated criterion ideals, and decides lct(f) >= c in one variable, all
with exact rational arithmetic cross-validated against independent
Newton-polyhedron oracles.

Importing the package loads the decision path only (errors, series, poly
with its packed kernel, rootdata and criterion).  Every other public name
is imported from its module on first access: the symbolic layer
(multivariate polynomials, resultants, Taylor shifts, the value
polynomial), the dual-route root-order reports, the Q-ideals, the numeric
Newton-Puiseux layer, the criterion ideals and the oracles.
"""

import importlib

from .errors import (
    BudgetError, ConsistencyError, DegenerateError, LctkitError, ParseError,
    PrecisionError, TruncationError,
)
from .series import INF, NO, UNKNOWN, YES, OrderVal, PSeries
from .poly import UPoly, compound_poly, difference_poly
from .rootdata import root_orders
from .criterion import CriterionContext, choose_p, lct_ge

__version__ = "0.1.0"

# The public names off the decision path, each with the module defining it.
_LAZY = {
    "MPoly": "mpoly", "resultant": "mpoly", "taylor_shift": "mpoly",
    "value_poly": "mpoly",
    "NewtonPolygon": "reports", "integrality_test": "reports",
    "max_root_order": "reports", "newton_polygon": "reports",
    "partial_sums": "reports",
    "QIdeal": "qideal", "QIdealFrac": "qideal", "lc_dim1": "qideal",
    "qi_ord": "qideal", "qi_power": "qideal", "qi_product": "qideal",
    "qi_sum": "qideal",
    "DiffOrderTable": "numeric", "PuiseuxRootSet": "numeric",
    "contact_order_identity_check": "numeric", "diff_orders": "numeric",
    "orders_against_series": "numeric", "perturbation_check": "numeric",
    "puiseux_expand": "numeric",
    "Cor3Pack": "ideals", "build_b": "ideals", "build_bbar_k": "ideals",
    "build_bk": "ideals", "build_c": "ideals",
    "build_cor3_pack": "ideals", "build_p_plus_minus": "ideals",
    "build_tilde_bk": "ideals", "containment_check": "ideals",
    "cor3_divisibility": "ideals", "degree3_test": "ideals",
    "depressed_cubic": "ideals", "example3_test": "ideals",
    "lct_binomial_curve": "oracle", "lct_monomial_ideal": "oracle",
    "lct_plane_nondegenerate": "oracle",
}


def __getattr__(name):
    """Imports the module of a public name off the decision path on the
    name's first access (PEP 562)."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
