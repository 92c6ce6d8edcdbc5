"""The dual-route reports on root orders: the Newton polygon with its
slope multiset, the partial sums of the smallest root orders and the
largest root order (each computed two independent ways that must agree),
the integrality test and the exact cross-difference orders.

`lctkit orders`, `lctkit integrality`, the verification suites and the
perturbation check read them; a decision does not, so the package loads
this module on first use.  Each report reads the one int polygon of
lctkit.rootdata, and the integrality test reads its certificate too.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConsistencyError
from .poly import UPoly, composed_difference
from .rootdata import (
    _coeff_orders, _difference_levels, _order_list, _polygon, _slope_levels,
    root_orders,
)
from .series import OrderVal, as_int, frac_str


# ---------------------------------------------------------------------------
# Newton polygon and dual-route root orders (exact)
# ---------------------------------------------------------------------------

class NewtonPolygon:
    """Lower hull of the coefficient-order points of a monic polynomial over
    series; the (negated) slopes are the root orders with multiplicity.

    `points` lists (i, ord(a_i)) for i = 0..d with a_0 = 1; the hull is over
    abscissa j = d - i with the anchor (d, 0) from the leading coefficient.
    `slopes` is the ascending multiset [(OrderVal, multiplicity)]; an entry
    may be Infinite when trailing coefficients vanish identically.
    """

    __slots__ = ("degree", "points", "hull", "slopes")

    def __init__(self, degree, points, hull, slopes):
        self.degree = degree
        self.points = points
        self.hull = hull
        self.slopes = slopes

    def to_json(self):
        return {"slopes": [[("inf" if v.is_infinite else frac_str(v.value)),
                            m] for v, m in self.slopes]}


def newton_polygon(h: UPoly) -> NewtonPolygon:
    """Exact Newton polygon; raises TruncationError when truncated coefficient
    data leaves the hull ambiguous (with a required-truncation hint)."""
    R, hull = _polygon(_coeff_orders(h))
    d = h.degree
    points = [(0, OrderVal.exact(0))]
    points.extend((i, h.coeff(i).order()) for i in range(1, d + 1))
    slopes = [(OrderVal.exact(Fraction(num, den)), mult)
              for num, den, mult in _slope_levels(R, hull)]
    if hull[0][0]:
        slopes.append((OrderVal.infinite(), hull[0][0]))
    return NewtonPolygon(d, points, [(j, Fraction(y, R)) for j, y in hull],
                         slopes)


def partial_sums(h: UPoly, k: int) -> OrderVal:
    """Sum of the k smallest root orders, computed both from the slope
    multiset and from the explicit coefficient recursion; the two must
    agree."""
    d = h.degree
    if not 1 <= as_int(k, "k") <= d:
        raise ValueError("k out of range")
    orders = root_orders(h)
    from_slopes = OrderVal.sum_of(orders[:k])
    prev = OrderVal.exact(0)
    from_rec = None
    for kk in range(1, k + 1):
        candidates = []
        for i in range(kk, d + 1):
            term = h.coeff(i).order().scale(Fraction(1, i - kk + 1)) + \
                prev.scale(Fraction(i - kk, i - kk + 1))
            candidates.append(term)
        prev = OrderVal.min_of(candidates)
    from_rec = prev
    if from_slopes != from_rec:
        raise ConsistencyError(
            f"partial sum routes disagree: {from_slopes!r} vs {from_rec!r}")
    return from_slopes


def max_root_order(h: UPoly) -> OrderVal:
    """Largest root order, from the slopes and from the complementary-product
    ideal formula ord(a_d) - min_i [ord(a_{d-i}) + (i-1) ord(a_d)]/i.

    Once root_orders certifies h, the minimum is exact on truncated input
    too.  A termless a_d that is not exactly zero lies left of the hull's
    start, where _check_truncated raises, so ord(a_d) = y_0 is exact.  With
    y_i = ord(a_(d-i)) and y_d = 0, candidate i is y_0 + (y_i - y_0) / i:
    y_0 plus the slope from (0, y_0) to point i.  Over the known points
    the least one is at the far end of the hull's first edge, an exact
    point or the anchor at i = d.  A loose point (i, t) passed
    _check_truncated, so t is at least the hull's value at i, and by
    convexity its candidate is at least that least one.  So
    OrderVal.min_of always finds an exact witness; a minimum known only
    from below would mean that _check_truncated is wrong."""
    d = h.degree
    orders = root_orders(h)
    from_slopes = orders[-1]
    ad = h.coeff(d).order()
    if ad.is_infinite:
        if not from_slopes.is_infinite:
            raise ConsistencyError("vanishing a_d must give an infinite root")
        return from_slopes
    candidates = []
    for i in range(1, d + 1):
        low = OrderVal.exact(0) if i == d else h.coeff(d - i).order()
        term = (low + ad.scale(i - 1)).scale(Fraction(1, i))
        candidates.append(term)
    cval = OrderVal.min_of(candidates)
    if not cval.is_exact:
        raise ConsistencyError(
            f"complementary-product order {cval!r} has no exact witness on "
            "a certified polygon")
    from_formula = ad.sub(cval)
    if from_slopes != from_formula:
        raise ConsistencyError(
            f"max root order routes disagree: {from_slopes!r} vs "
            f"{from_formula!r}")
    return from_slopes


# ---------------------------------------------------------------------------
# Integrality of roots
# ---------------------------------------------------------------------------

def _is_integral(v: OrderVal) -> bool:
    return v.is_infinite or v.value.denominator == 1


def integrality_test(h: UPoly):
    """All roots lie in unramified series iff every root order and every
    pairwise difference order is an integer (or infinite).  Fully exact:
    root orders from the polygon, difference orders from the certificate
    (_difference_levels).  Returns (verdict, certificate)."""
    orders = root_orders(h)
    for v in orders:
        if not _is_integral(v):
            return False, {"integral": False, "source": "root",
                           "violating_order": frac_str(v.value)}
    if h.degree >= 2:
        for v in _order_list(*_difference_levels(h)):
            if not _is_integral(v):
                return False, {"integral": False, "source": "difference",
                               "violating_order": frac_str(v.value)}
    return True, {"integral": True, "violating_order": None}



# ---------------------------------------------------------------------------
# Cross-difference orders (exact)
# ---------------------------------------------------------------------------

def cross_difference_orders(f: UPoly, g: UPoly):
    """Exact multiset of ord(beta_j - alpha_i) over roots alpha of f and
    beta of g, via their composed-difference polynomial."""
    return root_orders(composed_difference(f, g))
