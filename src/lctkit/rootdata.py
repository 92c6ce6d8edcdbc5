"""Root-order data for monic polynomials over one-variable series: the
exact layer of the decision.

Newton polygons on ints with truncation-aware ordinates, root-order
multisets, the certificate and the table of difference-order rows.  One
int polygon, with its truncation and Lemma-1 checks, reads the points of
poly.polygon_points: those of h's coefficients, or those of the
difference polynomial D's, read off the packed power sums without building
D (poly.difference_orders).  certified_rows builds the per-root rows of
difference orders by two routes.  From degree DEPTH_ONE_FROM on, an exact
Newton-nondegenerate h with at most one zero root has a depth-one root
tree, and its rows are read off h's own polygon (_depth_one_rows).  Every
other input, truncated input among it, takes the certificate: one root
tree of D's root orders; only where several trees have D's counts does it
import the numeric layer (lctkit.numeric, and with it mpmath), whose
expansion picks the tree.  The dual-route reports built on this polygon
(the NewtonPolygon object, partial sums, the largest root order,
integrality, cross-difference orders) are lctkit.reports, which a
decision never loads.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import ConsistencyError, TruncationError
from .poly import UPoly, difference_orders, polygon_points
from .series import OrderVal

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Newton polygon (exact)
# ---------------------------------------------------------------------------

def _lower_hull(points):
    """Lower convex hull vertices of (x, y) pairs with distinct x, sorted."""
    pts = sorted(points)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep turn strictly convex: drop middle if on or above segment
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _hull_value(hull, x):
    """Value of the piecewise-linear lower hull at abscissa x (hull covers x)."""
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return y1 + (y2 - y1) * Fraction(x - x1, x2 - x1)
    raise ValueError("abscissa outside hull range")


def _coeff_orders(h: UPoly):
    """h's points (poly.polygon_points), read by _polygon and
    _lemma1_order."""
    if not h.is_series:
        raise ValueError("root orders need series coefficients")
    return polygon_points([a.order_units() for a in h.coeffs])


def _polygon(pts):
    """The Newton polygon on ints, (R, hull), of the monic polynomial of
    degree d with the points pts = (d, R, points, loose) of
    poly.polygon_points: the lower-hull vertices of the points and the
    anchor (d, 0).  The hull starts at the count of roots of infinite
    order, and a segment from (x1, y1) to (x2, y2) carries x2 - x1 roots of
    order (y1 - y2) / ((x2 - x1) R).  Raises TruncationError, with a
    required-truncation hint, when a coefficient known only from below
    leaves the hull ambiguous."""
    d, R, points, loose = pts
    hull = _lower_hull(points + [(d, 0)])
    if loose:
        _check_truncated(d, R, hull, loose)
    return R, hull


def _check_truncated(d, R, hull, loose):
    """Raises TruncationError when a coefficient a_(d - j) of order at
    least t, for (j, t) in loose, could change the int hull of _polygon:
    when it lies left of the hull's start or below the hull."""
    j_start = hull[0][0]
    hidden = [(j, t) for j, t in loose if j < j_start]
    if hidden:
        # an unknown coefficient below every known one: the hull's left
        # end (and the infinite-order root count) cannot be certified.  The
        # hint is the truncation past which every root such a coefficient
        # could add lies more than one beyond the largest certified order
        # (always past the current truncation).
        y_start = Fraction(hull[0][1], R)
        q_max = (Fraction(hull[0][1] - hull[1][1],
                          (hull[1][0] - j_start) * R)
                 if len(hull) > 1 else _ZERO)
        required = max(max(y_start + (j_start - j) * (q_max + 1),
                            math.floor(t) + 1) for j, t in hidden)
        j = max(j for j, _ in hidden)
        raise TruncationError(
            f"coefficient a_{d - j} is unknown below its truncation and "
            "controls the polygon", required=required)
    for j, t in loose:
        bound = Fraction(_hull_value(hull, j), R)
        if t < bound:
            raise TruncationError(
                f"coefficient a_{d - j} is only known up to order {t}",
                required=bound)


def _slope_levels(R, hull):
    """The finite root orders of an int hull of _polygon, ascending, as
    (num, den, mult): mult roots of order num / den (den > 0, the fraction
    not reduced)."""
    levels = [(y1 - y2, (x2 - x1) * R, x2 - x1)
              for (x1, y1), (x2, y2) in zip(hull, hull[1:])]
    levels.reverse()
    return tuple(levels)


def _lemma1_order(pts):
    """Order of the ideal sum of (a_i)^(1/i) over the coefficients that are
    not exactly zero, min_i ord(a_i) / i by the semigroup law ord(sum) =
    min(ord), as (num, den, rank): rank 0 when a coefficient with a stored
    term attains the minimum, else 1, the minimum then being known from
    below only (as in OrderVal.min_of); None, the infinite order, when
    every coefficient is exactly zero.  It reads _polygon's points by
    cross-multiplication, apart from the hull whose least slope it
    checks."""
    d, R, points, loose = pts
    best = None
    for j, y in points:
        if best is None or y * best[1] < best[0] * R * (d - j):
            best = y, R * (d - j), 0
    for j, t in loose:
        num, den = t.numerator, t.denominator * (d - j)
        if best is None or num * best[1] < best[0] * den:
            best = num, den, 1
    return best


def _root_levels(pts):
    """The root orders on ints, (levels, infinite), of the polynomial whose
    points _polygon reads: the finite orders as _slope_levels gives them
    and the count of infinite ones.  Every call checks the least order
    against the coefficient-ideal order of _lemma1_order."""
    R, hull = _polygon(pts)
    levels = _slope_levels(R, hull)
    lem1 = _lemma1_order(pts)
    if levels:
        num, den, _ = levels[0]
        ok = (lem1 is not None and lem1[2] == 0
              and lem1[0] * den == num * lem1[1])
    else:
        ok = lem1 is None
    if not ok:
        smallest = (OrderVal.exact(Fraction(num, den)) if levels
                    else OrderVal.infinite())
        lem1 = (OrderVal.infinite() if lem1 is None else
                OrderVal(OrderVal.KINDS[lem1[2]], Fraction(*lem1[:2])))
        raise ConsistencyError(
            f"minimum root order {smallest!r} disagrees with the coefficient "
            f"ideal order {lem1!r}")
    return levels, hull[0][0]


def _order_list(levels, infinite):
    """The ascending OrderVal list of int root orders (see _root_levels)."""
    orders = []
    for num, den, mult in levels:
        orders.extend([OrderVal.exact(Fraction(num, den))] * mult)
    orders.extend([OrderVal.infinite()] * infinite)
    return orders


def root_orders(h: UPoly):
    """Ascending multiset of root orders (slope multiset), with the smallest
    order checked against the coefficient-ideal route."""
    return _order_list(*_root_levels(_coeff_orders(h)))


def _difference_levels(h: UPoly):
    """The certificate: the root levels of h's difference polynomial D, as
    _root_levels gives them, read off D's points (poly.difference_orders)
    without building D.  Its truncation checks and their hints name D's
    coefficients."""
    if not h.is_series:
        raise ValueError("root orders need series coefficients")
    return _root_levels(difference_orders(h))


# ---------------------------------------------------------------------------
# Difference-order rows from the root tree (exact)
# ---------------------------------------------------------------------------

# Per-root rows of ascending difference orders ord(alpha_j - alpha_i),
# j != i, kept as all that a maximum over the rows reads: `denominator`,
# the lcm L of the denominators of the tree's finite levels, and
# `distinct_prefix_sums`, one tuple per distinct row.  The rows form a
# multiset, and neither which row belongs to which root nor how often a
# row repeats is recorded.  Every entry is exact or infinite.  The prefix
# sums S_0 = 0, S_1, .. of a row are the numerators over L of its finite
# sums: they stop at its first infinite entry, so S_k is infinite iff
# k >= len(sums).
RootRows = namedtuple("RootRows", "denominator distinct_prefix_sums")


# The root-tree enumeration caches, _row_multisets keyed by count pattern
# and _partitions by (n, most), hold at most this many entries each.  A
# degree d has 1, 2, 6, 18, 64, 274, 1326, 6258 and 36010 count patterns
# for d = 2, ..., 10, so an unbounded cache would keep every pattern a long
# run at d = 10 meets.  1024 keeps all 365 patterns of d <= 7 resident,
# and every (n, most) key of _partitions up to n = 10 (64 of them).
_TREE_CACHE = 1024


@lru_cache(maxsize=_TREE_CACHE)
def _partitions(n, most=None):
    """Integer partitions of n into parts of at most `most`, descending."""
    most = n if most is None else most
    if n == 0:
        return ((),)
    return tuple((p,) + rest for p in range(min(n, most), 0, -1)
                 for rest in _partitions(n - p, p))


def _split_blocks(blocks, want, k):
    """Every way to split each (size, row) block at level k so that `want`
    pairs fall on level k in all.  A block of size n split into parts of
    sizes n_1, ..., n_r puts C(n, 2) - sum C(n_i, 2) pairs on level k, and
    n - n_i of them on the row of each root of the i-th part."""
    if not blocks:
        if want == 0:
            yield ()
        return
    (n, row), rest = blocks[0], blocks[1:]
    for parts in _partitions(n):
        used = math.comb(n, 2) - sum(math.comb(p, 2) for p in parts)
        if used > want:
            continue
        head = tuple((p, row + (k,) * (n - p)) for p in parts)
        for tail in _split_blocks(rest, want - used, k):
            yield head + tail


@lru_cache(maxsize=_TREE_CACHE)
def _row_multisets(d, counts):
    """Every row multiset of a root tree on d roots with counts[k] pairs on
    its k-th lowest level, as a sorted tuple of sorted tuples; a row lists
    the levels of one root's d - 1 pairs.

    Difference orders form an ultrametric, the Kuo-Lu tree of the roots
    (Kuo and Lu, Topology 16, 1977): the roots whose pairs all lie above
    level k - 1 fall into blocks, each of which splits at level k.  A block
    carries its size and the row its roots share so far.  The key is the
    count pattern alone, of which a degree has finitely many."""
    states = {((d, ()),)}
    for k, want in enumerate(counts):
        states = {tuple(sorted(blocks)) for state in states
                  for blocks in _split_blocks(state, want, k)}
    return tuple(sorted({tuple(sorted(row for _, row in state))
                         for state in states
                         if all(n == 1 for n, _ in state)}))


# certified_rows tries _depth_one_rows first from this degree on.  Below it
# the certificate costs 19-80 us a table, and on the degenerate inputs of
# the benchmark's `contact` workload, which depth one never decides, the
# failed pre-pass added 61-83% to a d = 2 miss and 45-65% to a d = 3 one.
# From d = 4 on the median lct_ge miss on raw draws falls from 0.12-0.21 ms
# (d = 4) and 33-42 ms (d = 8) to 0.027-0.037 ms.  (In process, CPython
# 3.11.7, 2 cores.)
DEPTH_ONE_FROM = 4


def _squarefree(p):
    """Whether the int polynomial p[0] + p[1] u + .., p[0] and p[-1] not
    zero, has no repeated root: whether gcd(p, p') is a constant, by
    pseudo-remainders made primitive."""
    if len(p) == 3:
        return p[1] * p[1] != 4 * p[0] * p[2]
    f, g = p, [k * c for k, c in enumerate(p)][1:]
    while len(g) > 1:
        while len(f) >= len(g):
            s, lf, lg = len(f) - len(g), f[-1], g[-1]
            f = [lg * c - lf * g[k - s] if k >= s else lg * c
                 for k, c in enumerate(f[:-1])]
            while f and not f[-1]:
                f.pop()
            if not f:
                return False
            m = math.gcd(*f)
            f = [c // m for c in f]
        f, g = g, f
    return True


def _depth_one_rows(h: UPoly):
    """The rows of an exact h from its own Newton polygon, when its Kuo-Lu
    tree has depth one: when every edge polynomial is squarefree, the roots
    on an edge of slope q have distinct leading coefficients, so that
    ord(alpha_i - alpha_j) is q within an edge and min(q, q') across edges.
    A single zero root lies above every level.  None on truncated input,
    on a repeated zero root or on an edge polynomial with a repeated root:
    there only the certificate decides.

    The table is the certificate's, with its denominator and its order of
    distinct rows: the pair levels are the edge slopes but the top one when
    its edge carries the only root above the rest, and edge e's row, in
    ascending e, lists the lower edges' levels, then q_e for every root
    left.  It never reads the difference polynomial D."""
    pts = d, R, points, _ = _coeff_orders(h)
    for a in h.coeffs:
        if a._tr is not None:
            return None
    hull = _lower_hull(points + [(d, 0)])
    zero = hull[0][0]
    if zero > 1:
        return None
    ys = dict(points)
    ys[d] = 0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        # the edge polynomial in u = y^s, s the edge's lattice step, needs
        # a test only with a support point inside the edge
        g = math.gcd(x2 - x1, y1 - y2)
        s, t = (x2 - x1) // g, (y1 - y2) // g
        on = [k for k in range(g + 1) if ys.get(x1 + k * s) == y1 - k * t]
        if len(on) > 2:
            # its coefficients, the terms of order y / R, on ints over the
            # lcm of their denominators
            lead = [h.coeff(d - x1 - k * s) for k in on]
            m = math.lcm(*(a._den for a in lead))
            p = [0] * (g + 1)
            for k, a in zip(on, lead):
                p[k] = a._t[min(a._t)] * (m // a._den)
            if not _squarefree(p):
                return None
    levels = _slope_levels(R, hull)
    lem1 = _lemma1_order(pts)
    num, q, _ = levels[0]
    if lem1[0] * q != num * lem1[1]:
        raise ConsistencyError(
            "minimum root order disagrees with the coefficient ideal order")
    den = 1
    for num, q, _ in levels if zero or levels[-1][2] > 1 else levels[:-1]:
        den = math.lcm(den, q // math.gcd(num, q))
    rows, sums = {}, [0]
    for num, q, mult in levels:
        v, row = num * den // q, sums[:]
        while len(row) < d:
            row.append(row[-1] + v)
        rows[tuple(row)] = None
        sums = row[:len(sums) + mult]
    return RootRows(den, tuple(rows))


def certified_rows(h: UPoly):
    """The rows of h's difference-order table, from the coefficients to
    the table V reads: a RootRows, built from one root tree.

    From degree DEPTH_ONE_FROM on, an exact h whose tree has depth one
    (_depth_one_rows) has its rows read off its own Newton polygon.  Every
    other input takes the certificate.  The rows are then read from the
    certificate's root tree, the root orders of
    the difference polynomial D (_difference_levels).  Truncation is
    tracked through D's coefficients, so a polygon of D that certifies is
    that of every completion of h, and so are the rows.  Where several
    trees have the certificate's counts (some patterns from d = 5 on; every
    pattern with d <= 4 has one), the certified expansion only picks the
    tree: its rows, mapped onto the certificate's levels, must be one of
    the enumerated row multisets, else ConsistencyError.  When D's polygon
    is left open by truncation, h's own polygon is read first, so that a
    TruncationError of h's, with its `required` hint in h's terms, is the
    one raised.

    The levels of the tree are the certificate's distinct orders: its
    finite levels, ascending, then its infinite one when there is one.  In
    a row, index len(levels) is that infinite level, a repeated root, and
    the row's prefix sums stop there.  They are the finite levels'
    numerators over L, the lcm of their reduced denominators."""
    if len(h.coeffs) >= DEPTH_ONE_FROM:
        rows = _depth_one_rows(h)
        if rows is not None:
            return rows
    try:
        levels, infinite = _difference_levels(h)
    except TruncationError:
        _root_levels(_coeff_orders(h))
        raise
    counts, den = [], 1
    for num, q, mult in levels:
        counts.append(mult)
        den = math.lcm(den, q // math.gcd(num, q))
    if infinite:
        counts.append(infinite)
    if any(m % 2 for m in counts):
        raise ConsistencyError(
            "difference-polynomial orders do not come in pairs")
    found = _row_multisets(h.degree, tuple([m // 2 for m in counts]))
    if not found:
        raise ConsistencyError(
            "no root tree has the difference-polynomial orders")
    tree = found[0]
    if len(found) > 1:
        from .numeric import _expanded
        cert = _order_list(levels, infinite)
        index = {v: k for k, v in enumerate(dict.fromkeys(cert))}
        index[OrderVal.infinite()] = len(levels)
        # each row drops its last infinite entry, the root against itself
        tree = tuple(sorted(
            tuple(sorted(index.get(v, -1) for v in row))[:-1]
            for row in _expanded(h, root_orders(h), cert, None).rows))
        if tree not in found:
            raise ConsistencyError(
                "the expansion's rows form no root tree of the "
                "difference-polynomial orders")
    nums = [num * den // q for num, q, _ in levels]
    distinct = []
    for row in dict.fromkeys(tree):
        sums = [0]
        for k in row:
            if k == len(nums):
                break
            sums.append(sums[-1] + nums[k])
        distinct.append(tuple(sums))
    return RootRows(den, tuple(distinct))
