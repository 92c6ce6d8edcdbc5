"""Root-order data for monic polynomials over one-variable series.

The exact layer: Newton polygons with truncation-aware ordinates, root-order
multisets, partial sums of the smallest root orders (computed two independent
ways that must agree), the maximum root order (again dual-route), and the
per-root rows of difference orders: certified_rows reads them, on exact and
truncated input alike, from the root tree of the difference orders wherever
that tree fixes them, and otherwise from the numeric layer.

The numeric layer: Newton-Puiseux expansion with exact rational exponents and
arbitrary-precision complex coefficients, used to attach pairwise
root-difference orders to individual roots.  Every numerically derived order
is certified against an exact difference or cross-difference polynomial
(built from root power sums); a mismatch escalates precision and ultimately
raises, never returning a silent answer.  mpmath is imported on the numeric
layer's first use.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache

from .errors import ConsistencyError, PrecisionError, TruncationError
from .poly import (
    UPoly, composed_difference, difference_poly, q_squarefree_decomposition,
    taylor_shift,
)
from .series import INF, OrderVal, PSeries, as_frac, frac_str

_ZERO = Fraction(0)


class _LazyMpmath:
    """Stands in for the mpmath module until the numeric layer first reads
    it; that read imports mpmath and rebinds this module's `mpmath` to the
    module itself, so a process that only does exact work never loads it."""

    def __getattr__(self, name):
        import mpmath as module
        globals()["mpmath"] = module
        return getattr(module, name)


mpmath = _LazyMpmath()


def default_precision() -> int:
    """Working precision in bits: LCTKIT_PRECISION, 256 when unset.
    Anything but a positive integer is a usage error (ValueError)."""
    text = os.environ.get("LCTKIT_PRECISION", "256")
    try:
        prec = int(text)
    except ValueError:
        prec = 0
    if prec < 1:
        raise ValueError(
            f"LCTKIT_PRECISION must be a positive integer, got {text!r}")
    return prec


# ---------------------------------------------------------------------------
# Newton polygon (exact)
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
    if hull and x == hull[0][0]:
        return hull[0][1]
    raise ValueError("abscissa outside hull range")


def _polygon(h: UPoly):
    """The Newton polygon of h on ints: (R, hull).

    R is the lcm of the ramification indices of the coefficients with a
    stored term, so each such a_i gives the int point (d - i, ord(a_i) R);
    hull lists the lower-hull vertices of those points and the anchor
    (d, 0).  The hull starts at the count of roots of infinite order, and a
    segment from (x1, y1) to (x2, y2) carries x2 - x1 roots of order
    (y1 - y2) / ((x2 - x1) R).  Raises TruncationError, with a
    required-truncation hint, when a coefficient known only from below
    leaves the hull ambiguous."""
    if not h.is_series:
        raise ValueError("newton_polygon expects series coefficients")
    d = h.degree
    known = []
    loose = []
    for i, a in enumerate(h.coeffs, 1):
        units = a.order_units()
        if units is not None:
            known.append((d - i,) + units)
        elif not a.is_exactly_zero:
            loose.append((d - i, a.trunc))
    R = math.lcm(*(ram for _, _, ram in known))
    points = [(j, k * (R // ram)) for j, k, ram in reversed(known)]
    points.append((d, 0))
    hull = _lower_hull(points)
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


def newton_polygon(h: UPoly) -> NewtonPolygon:
    """Exact Newton polygon; raises TruncationError when truncated coefficient
    data leaves the hull ambiguous (with a required-truncation hint)."""
    R, hull = _polygon(h)
    d = h.degree
    points = [(0, OrderVal.exact(0))]
    points.extend((i, h.coeff(i).order()) for i in range(1, d + 1))
    slopes = [(OrderVal.exact(Fraction(num, den)), mult)
              for num, den, mult in _slope_levels(R, hull)]
    if hull[0][0]:
        slopes.append((OrderVal.infinite(), hull[0][0]))
    return NewtonPolygon(d, points, [(j, Fraction(y, R)) for j, y in hull],
                         slopes)


def _lemma1_order(h: UPoly):
    """Order of the ideal sum of (a_i)^(1/i) over the coefficients that are
    not exactly zero, min_i ord(a_i) / i by the semigroup law
    ord(sum) = min(ord), as (num, den, rank): rank 0 when a coefficient
    with a stored term attains the minimum, else 1, the minimum then being
    known from below only (as in OrderVal.min_of); None, the infinite
    order, when every coefficient is exactly zero.

    The minimum is taken over the coefficients' int exponents by
    cross-multiplication, apart from the polygon whose least slope it
    checks."""
    best = None
    for i, a in enumerate(h.coeffs, 1):
        units = a.order_units()
        if units is not None:
            num, den, rank = units[0], units[1] * i, 0
        elif a.is_exactly_zero:
            continue
        else:
            t = a.trunc
            num, den, rank = t.numerator, t.denominator * i, 1
        if best is None or (num * best[1], rank) < (best[0] * den, best[2]):
            best = num, den, rank
    return best


def _root_levels(h: UPoly):
    """h's root orders on ints, (levels, infinite): the finite orders as
    _slope_levels gives them and the count of infinite ones.  Every call
    checks the least order against the coefficient-ideal order of
    _lemma1_order."""
    R, hull = _polygon(h)
    levels = _slope_levels(R, hull)
    lem1 = _lemma1_order(h)
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
    return _order_list(*_root_levels(h))


def partial_sums(h: UPoly, k: int) -> OrderVal:
    """Sum of the k smallest root orders, computed both from the slope
    multiset and from the explicit coefficient recursion; the two must
    agree."""
    d = h.degree
    if not 1 <= k <= d:
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
    ideal formula ord(a_d) - min_i [ord(a_{d-i}) + (i-1) ord(a_d)]/i."""
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
        raise TruncationError(
            "complementary-product order is not resolved by the data")
    from_formula = ad.sub(cval)
    if from_slopes != from_formula:
        raise ConsistencyError(
            f"max root order routes disagree: {from_slopes!r} vs "
            f"{from_formula!r}")
    return from_slopes


# ---------------------------------------------------------------------------
# Difference-order rows from the root tree (exact)
# ---------------------------------------------------------------------------

class RootRows:
    """Per-root rows of ascending difference orders ord(alpha_j - alpha_i),
    each ending in the root's infinite order against itself.  The rows form
    a multiset: which row belongs to which root is not recorded.

    A table is kept on ints.  `denominator` is the lcm L of the
    denominators of its finite entries.  Each distinct entry is a pair
    (num, rank): its numerator over L (None when infinite) and its rank in
    OrderVal.RANK; a row lists the indices of its entries.  The prefix sums
    S_0 = 0, S_1, .., S_d of a row are a triple (sums, inexact, inf):
    `sums` holds the numerators over L of its finite sums S_0 .. S_inf,
    `inexact` is the index of the row's first entry that is not exact and
    `inf` that of its first infinite entry (both len(row) when there is
    none), so S_k is exact iff k <= inexact and finite iff k <= inf.

    `distinct_prefix_sums`, one triple per distinct row, is built with the
    table: it is all that a maximum over the rows reads.  `prefix_sums`,
    one triple per row with equal rows sharing one, and the OrderVal
    `rows` are built when read."""

    __slots__ = ("denominator", "distinct_prefix_sums", "_entries", "_shape",
                 "_rows")

    def __init__(self, rows):
        """The table of rows of OrderVals."""
        rows = [tuple(row) for row in rows]
        vals = list(dict.fromkeys(v for row in rows for v in row))
        den = math.lcm(*(v.value.denominator for v in vals
                         if not v.is_infinite))
        entries = tuple(
            (None, 2) if v.is_infinite else
            (v.value.numerator * (den // v.value.denominator),
             OrderVal.RANK[v.kind]) for v in vals)
        index = {v: k for k, v in enumerate(vals)}
        self._set(den, entries,
                  tuple(tuple(index[v] for v in row) for row in rows))

    def _set(self, den, entries, shape):
        """Fills a table from its int form (see RootRows)."""
        self.denominator = den
        self._entries = entries
        self._shape = shape
        self._rows = None
        self.distinct_prefix_sums = tuple(
            _prefix_sums(entries, row) for row in dict.fromkeys(shape))
        return self

    @property
    def rows(self):
        """The rows as tuples of OrderVals."""
        if self._rows is None:
            den = self.denominator
            vals = [OrderVal.infinite() if rank == 2 else
                    OrderVal(OrderVal.KINDS[rank], Fraction(num, den))
                    for num, rank in self._entries]
            self._rows = tuple(tuple(vals[k] for k in row)
                               for row in self._shape)
        return self._rows

    @property
    def prefix_sums(self):
        """One prefix-sum triple per row; equal rows share one."""
        sums = dict(zip(dict.fromkeys(self._shape),
                        self.distinct_prefix_sums))
        return tuple(sums[row] for row in self._shape)


def _prefix_sums(entries, row):
    """The (sums, inexact, inf) triple of the row of entries[k], k in row
    (see RootRows): the one routine that builds prefix sums."""
    sums = [0]
    inexact = inf = len(row)
    for k, e in enumerate(row):
        num, rank = entries[e]
        if rank == 2:
            inf = k
            inexact = min(inexact, k)
            break
        if rank and inexact > k:
            inexact = k
        sums.append(sums[-1] + num)
    return tuple(sums), inexact, inf


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


def certified_rows(h: UPoly):
    """The rows of h's difference-order table, the one route from the
    coefficients to the table V reads: a RootRows.

    The rows are read from the certificate's root tree, the root orders of
    the difference polynomial D.  Truncation is tracked through D's
    coefficients, so a polygon of D that certifies is that of every
    completion of h, and so are the rows.  Where the tree does not fix the
    rows (some count patterns from d = 5 on; every pattern with d <= 4
    fixes them), the certified expansion attaches orders to roots, checked
    against the certificate already built.  When D's polygon is left open
    by truncation, h's own polygon is read first, so that a TruncationError
    of h's, with its `required` hint in h's terms, is the one raised.

    The levels of the tree are the certificate's distinct orders: its
    finite levels, ascending, then its infinite one when there is one.
    Their numerators over L become the table's entries, with one infinite
    entry last for each root's order against itself."""
    try:
        levels, infinite = _root_levels(difference_poly(h))
    except TruncationError:
        _root_levels(h)
        raise
    counts = [mult for _, _, mult in levels]
    if infinite:
        counts.append(infinite)
    if any(m % 2 for m in counts):
        raise ConsistencyError(
            "difference-polynomial orders do not come in pairs")
    found = _row_multisets(h.degree, tuple(m // 2 for m in counts))
    if not found:
        raise ConsistencyError(
            "no root tree has the difference-polynomial orders")
    if len(found) > 1:
        return _expanded(h, root_orders(h), _order_list(levels, infinite),
                         None)
    reduced = []
    for num, den, _ in levels:
        g = math.gcd(num, den)
        reduced.append((num // g, den // g))
    den = math.lcm(*(q for _, q in reduced))
    entries = tuple((p * (den // q), 0) for p, q in reduced) + ((None, 2),)
    top = len(levels)
    return object.__new__(RootRows)._set(
        den, entries, tuple(row + (top,) for row in found[0]))


# ---------------------------------------------------------------------------
# Numeric series (exact rational exponents, arbitrary-precision complex
# coefficients); internal to the expansion machinery.
# ---------------------------------------------------------------------------

class _NSeries:
    __slots__ = ("terms", "trunc")

    def __init__(self, terms, trunc):
        self.terms = terms
        self.trunc = trunc

    @property
    def empty(self):
        return not self.terms

    def min_exp(self):
        return min(self.terms)


def _tolerances(prec):
    """(zero, gray, cluster) magnitudes at working precision prec: below
    zero a coefficient is dropped, between zero and gray it is ambiguous,
    and roots closer than cluster are one root."""
    two = mpmath.mpf(2)
    return two ** (-(prec // 2)), two ** (-(prec // 4)), two ** (-(prec // 8))


def _ns_normalize(terms, trunc, tols):
    tol_zero, tol_gray = tols[0], tols[1]
    clean = {}
    for e, c in terms.items():
        if trunc != INF and e >= trunc:
            continue
        m = abs(c)
        if m <= tol_zero:
            continue
        if m < tol_gray:
            raise PrecisionError(
                "coefficient indistinguishable from zero at the working "
                "tolerance")
        clean[e] = c
    return _NSeries(clean, trunc)


def _series_terms_numeric(ps: PSeries):
    """Exact series as an ascending numeric term list [(exp, mpc)]."""
    return [(e, mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator))
            for e, c in ps.sorted_terms()]


# ---------------------------------------------------------------------------
# Newton-Puiseux expansion
# ---------------------------------------------------------------------------

class PuiseuxRootSet:
    """d root expansions: per root an ascending list of (exponent, complex
    coefficient) with every exponent below `depth`."""

    __slots__ = ("depth", "precision", "roots")

    def __init__(self, depth, precision, roots):
        self.depth = depth
        self.precision = precision
        self.roots = roots


def _single_cluster(phi_num, tols):
    """(u, m) when the degree-m polynomial is within the gray tolerance of
    c_0 (z - u)^m, where u = -c_1 / (m c_0); else None.

    Root finders converge only linearly on a multiple root, so a branch
    whose roots share a prefix would otherwise exhaust every precision
    escalation.  A false cluster is caught by the exact certificate."""
    m = len(phi_num) - 1
    c0 = phi_num[0]
    u = -phi_num[1] / (m * c0)
    tol = tols[1] * max(abs(c) for c in phi_num)
    want = c0
    for k in range(1, m + 1):
        want = want * (-u) * (m - k + 1) / k  # c_0 C(m, k) (-u)^k
        if abs(phi_num[k] - want) > tol:
            return None
    return u, m


_DK_STEPS = 200
_SEED_STEPS = 100


def _quadratic_roots(b, c):
    """Roots of z^2 + b z + c by q = -(b + s sqrt(b^2 - 4c)) / 2 with the
    sign s that avoids cancellation: q and c / q.  Real coefficients with a
    negative discriminant give an exactly conjugate pair."""
    disc = b * b - 4 * c
    if b.imag == 0 and c.imag == 0:
        b, c, disc = b.real, c.real, disc.real
        if disc < 0:
            re, im = -b / 2, mpmath.sqrt(-disc) / 2
            return [mpmath.mpc(re, im), mpmath.mpc(re, -im)]
        root = mpmath.sqrt(disc)
        q = -(b + root) / 2 if b >= 0 else -(b - root) / 2
    else:
        root = mpmath.sqrt(disc)
        if (mpmath.conj(b) * root).real < 0:
            root = -root
        q = -(b + root) / 2
    if q == 0:  # b = c = 0
        return [q, q]
    return [q, c / q]


def _start_points(n):
    """mpmath.polyroots' fixed Durand-Kerner start points."""
    return [(0.4 + 0.9j) ** k for k in range(n)]


def _dk_sweep(roots, monic):
    """One sweep of mpmath.polyroots' Durand-Kerner update, in place, over
    approximations to the roots of z^n + monic[0] z^(n-1) + ... + monic[-1];
    works on machine complex numbers and on mpc alike.  Returns the largest
    step taken."""
    worst = 0
    for i, p in enumerate(roots):
        x = p + monic[0]
        for c in monic[1:]:
            x = x * p + c
        for j, r in enumerate(roots):
            if j != i and r != p:
                x /= p - r
        roots[i] = p - x
        worst = max(worst, abs(x))
    return worst


def _seed_roots(monic):
    """The roots to about 1e-13 by Durand-Kerner in machine complex
    arithmetic, or None when the coefficients leave the float range or the
    iteration does not settle."""
    cs = [complex(c) for c in monic]
    roots = _start_points(len(cs))
    for _ in range(_SEED_STEPS):
        step = _dk_sweep(roots, cs)
        if not all(math.isfinite(abs(r)) for r in roots):
            return None
        if step < 1e-13 * max(1.0, max(abs(r) for r in roots)):
            return roots
    return None


def _durand_kerner(monic, tol):
    """mpmath.polyroots' iteration on the monic polynomial, started from
    _seed_roots when they exist: it stops once no root moves by tol."""
    seeds = _seed_roots(monic) or _start_points(len(monic))
    roots = [mpmath.mpc(s) for s in seeds]
    for _ in range(_DK_STEPS):
        if _dk_sweep(roots, monic) < tol:
            return roots
    raise PrecisionError("characteristic roots did not converge")


def _char_roots(coeffs, extraprec, separation=None):
    """Roots of the polynomial with descending coefficients `coeffs`
    (leading one nonzero), worked out at `extraprec` bits above the working
    precision and sorted as mpmath.polyroots sorts them: by |imaginary part|,
    then by real part, after parts below the working epsilon are zeroed.

    Degrees 1 and 2 use the closed form; higher degrees run Durand-Kerner
    from machine-precision seeds instead of fixed start points, so a few
    quadratically converging steps reach full precision.  Raises
    PrecisionError when the iteration does not converge, or when
    `separation` is given and two roots lie within it of each other (they
    cannot be told apart downstream, and are never returned merged)."""
    tol = +mpmath.eps
    with mpmath.extraprec(extraprec):
        monic = [c / coeffs[0] for c in coeffs[1:]]
        if len(monic) == 1:
            roots = [-monic[0]]
        elif len(monic) == 2:
            roots = _quadratic_roots(*monic)
        else:
            roots = _durand_kerner(monic, tol)
        for i, r in enumerate(roots):
            if abs(r) < tol:
                roots[i] = mpmath.mpf(0)
            elif abs(mpmath.im(r)) < tol:
                roots[i] = mpmath.re(r)
            elif abs(mpmath.re(r)) < tol:
                roots[i] = mpmath.mpc(0, mpmath.im(r))
        roots.sort(key=lambda r: (abs(mpmath.im(r)), mpmath.re(r)))
    roots = [+r for r in roots]
    if separation is not None:
        for i, r in enumerate(roots):
            if any(abs(r - s) <= separation for s in roots[i + 1:]):
                raise PrecisionError(
                    "characteristic roots are not separated at the working "
                    "precision")
    return roots


def _solve_char(phi_num, phi_exact, prec, tols):
    """Roots of the characteristic polynomial with multiplicity structure.

    phi_num: descending mpc coefficients; phi_exact: matching Fractions when
    the data is exact (top level), else None.  Returns [(root, mult)].
    Exact data gets its multiplicities from a squarefree decomposition; the
    numeric fallback first tests for a single multiple root, then clusters
    by tolerance.
    """
    deg = len(phi_num) - 1
    if phi_exact is not None:
        out = []
        for factor, mult in q_squarefree_decomposition(phi_exact):
            coeffs = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                      for c in factor]
            out.extend((r, mult)
                       for r in _char_roots(coeffs, prec, tols[1]))
        if sum(m for _, m in out) != deg:
            raise ConsistencyError("squarefree multiplicities do not add up")
        return out
    cluster = _single_cluster(phi_num, tols)
    if cluster is not None:
        return [cluster]
    clusters = []
    for r in _char_roots(phi_num, 2 * prec):
        for c in clusters:
            if abs(r - c[0]) < tols[2]:
                c[1].append(r)
                break
        else:
            clusters.append([r, [r]])
    out = []
    for _, members in clusters:
        centroid = sum(members) / len(members)
        out.append((centroid, len(members)))
    return out


class _Shortfall(TruncationError):
    """Truncated data inside the expansion: a transformed coefficient falls
    `short` of the truncation it needs.  Exponents there are relative to the
    transform, so puiseux_expand turns the shortfall into an input bound."""

    def __init__(self, message, short):
        super().__init__(message)
        self.short = short


def _numeric_polygon(coeffs, depth):
    """Lower hull data for numeric coefficients c_0..c_d (ascending powers).

    Returns (j0, segments): j0 = count of low coefficients with no visible
    terms (their branches all have order >= depth or vanish identically);
    segments = [(j1, v1, j2, v2, slope)] with slope > 0 only.  Truncated
    empty coefficients are sound as long as any branch they could hide lies
    at or beyond `depth`.
    """
    d = len(coeffs) - 1
    j0 = 0
    while j0 <= d and coeffs[j0].empty:
        j0 += 1
    if j0 > d:
        raise ConsistencyError("numeric polynomial vanished identically")
    pts = [(j, coeffs[j].min_exp()) for j in range(j0, d + 1)
           if not coeffs[j].empty]
    hull = _lower_hull(pts)
    v_start = hull[0][1]
    for j in range(j0):
        tj = coeffs[j].trunc
        if tj == INF:
            continue
        # branches hiding behind the truncation have order at least
        # (tj - v_start) / (j0 - j); they may be ignored beyond depth
        if (tj - v_start) < depth * (j0 - j):
            raise _Shortfall(
                "a transformed coefficient is unknown below its truncation",
                depth * (j0 - j) + v_start - tj)
    for j in range(j0 + 1, d + 1):
        if coeffs[j].empty and coeffs[j].trunc != INF:
            if coeffs[j].trunc < _hull_value(hull, j):
                raise _Shortfall(
                    "a truncated coefficient could cut the numeric polygon",
                    _hull_value(hull, j) - coeffs[j].trunc)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        q = Fraction(y1 - y2, x2 - x1)
        if q > 0:
            segments.append((x1, y1, x2, y2, q))
    return j0, segments


def _transform(coeffs, q, u, mu, cut, tols):
    """Coefficients of h(t^q (u + z)) / t^mu in z, given those of h in y,
    less every term at exponent `cut` or beyond.

    For u a characteristic root of multiplicity m on a segment of slope q,
    with D = depth - q left to expand, the cut m D drops only terms that
    cannot change a root expansion below D:
    - The expansions below D come from the part of the polygon with slopes
      below D.  That part ends at (m, 0), and its left end (k, v_k) has
      v_k < (m - k) D when k < m, so its points and the characteristic
      coefficients read on it all lie below m D.
    - A point at m D or beyond lies above that part, or shapes the part with
      slopes of D or more, whose branches have no term below D.
    - A dropped term stays beyond the next cut too: the next transform
      (slope q' < D, multiplicity m' <= m) lowers exponents by mu' <= q' m,
      and m D - q' m >= m' (D - q').
    The bound is tight: the roots +-t^(e/2) of z^2 - t^e have a term below
    D exactly when e < 2 D.

    The cut is INF on truncated input, where the shortfall tests of
    _numeric_polygon read the whole polygon."""
    d = len(coeffs) - 1
    acc = [dict() for _ in range(d + 1)]
    truncs = [INF] * (d + 1)
    upow = [mpmath.mpc(1)]
    for _ in range(d):
        upow.append(upow[-1] * u)
    for j in range(d + 1):
        cj = coeffs[j]
        shift = q * j - mu
        if cj.trunc != INF:
            tj = cj.trunc + shift
            for i in range(j + 1):
                truncs[i] = min(truncs[i], tj)
        terms = [(key, c) for key, c in
                 ((e + shift, c) for e, c in cj.terms.items()) if key < cut]
        if not terms:
            continue
        for i in range(j + 1):
            factor = math.comb(j, i) * upow[j - i]
            target = acc[i]
            for key, c in terms:
                add = c * factor
                prev = target.get(key)
                target[key] = add if prev is None else prev + add
    return [_ns_normalize(acc[i], truncs[i], tols) for i in range(d + 1)]


def _expand_rec(coeffs, exact, depth, prec, tols, lazy, level):
    """All positive-order root expansions of the polynomial with coefficients
    c_0..c_d (ascending), truncated below `depth` (relative exponents).
    `lazy` turns on the depth cut of _transform (exact input only)."""
    if level > 512:
        raise ConsistencyError("expansion recursion exceeded its level cap")
    expansions = []
    j0, segments = _numeric_polygon(coeffs, depth)
    expansions.extend([] for _ in range(j0))
    for (j1, v1, j2, v2, q) in segments:
        mult_total = j2 - j1
        if q >= depth:
            expansions.extend([] for _ in range(mult_total))
            continue
        # characteristic polynomial from the points on the segment
        phi_num = []
        phi_exact = [] if exact is not None else None
        for j in range(j2, j1 - 1, -1):
            line = v1 - q * (j - j1)
            c = coeffs[j].terms.get(line)
            phi_num.append(c if c is not None else mpmath.mpc(0))
            if phi_exact is not None:
                phi_exact.append(exact[j].coeff(line))
        mu = v1 + q * j1
        found = 0
        for (u, mult) in _solve_char(phi_num, phi_exact, prec, tols):
            if abs(u) == 0:
                continue
            found += mult
            cut = mult * (depth - q) if lazy else INF
            sub_coeffs = _transform(coeffs, q, u, mu, cut, tols)
            subs = _expand_rec(sub_coeffs, None, depth - q, prec, tols, lazy,
                               level + 1)
            if len(subs) != mult:
                raise PrecisionError(
                    "branch multiplicity does not match its continuation")
            for s in subs:
                expansions.append([(q, u)] + [(e + q, c) for (e, c) in s])
        if found != mult_total:
            raise PrecisionError("characteristic roots lost multiplicity")
    return expansions


def puiseux_expand(h: UPoly, depth, precision=None) -> PuiseuxRootSet:
    """Numeric Newton-Puiseux expansion of all d roots down to exponent
    `depth`, with exact exponents; the leading data must reproduce the exact
    Newton polygon slopes."""
    depth = as_frac(depth)
    if depth <= 0:
        raise ValueError("depth must be positive")
    prec = precision or default_precision()
    orders = root_orders(h)
    d = h.degree
    with mpmath.workprec(prec + 64):
        coeffs = []
        exact = []
        for j in range(d + 1):
            i = d - j
            ps = PSeries.one(h.coeffs[0].var) if i == 0 else h.coeff(i)
            if ps.trunc != INF and ps.trunc < depth:
                raise TruncationError(
                    f"coefficient a_{i} is truncated below the requested "
                    f"depth", required=depth)
            coeffs.append(_NSeries(dict(_series_terms_numeric(ps)),
                                   ps.trunc))
            exact.append(ps)
        known = max((ps.trunc for ps in exact if ps.trunc != INF),
                    default=None)
        if known is not None:
            exact = None  # exact char-poly route needs fully exact data
        try:
            expansions = _expand_rec(coeffs, exact, depth, prec,
                                     _tolerances(prec), known is None, 0)
        except _Shortfall as exc:
            if known is None:
                raise ConsistencyError(
                    f"truncation shortfall {exc.short} on exact input: "
                    f"{exc}") from None
            # a transform adds a fixed offset to each truncation, so
            # raising every input truncation by the shortfall clears it
            raise TruncationError(str(exc),
                                  required=known + exc.short) from None
    if len(expansions) != d:
        raise ConsistencyError(
            f"expected {d} expansions, produced {len(expansions)}")
    # certify leading exponents against the exact polygon
    lead_num = sorted((exp[0][0] if exp else INF) for exp in expansions)
    lead_exact = sorted(
        INF if (v.is_infinite or v.lower >= depth) else v.value
        for v in orders)
    if lead_num != lead_exact:
        raise ConsistencyError(
            "numeric leading exponents disagree with the Newton polygon")
    roots = [tuple(exp) for exp in expansions]
    return PuiseuxRootSet(depth, prec, roots)


# ---------------------------------------------------------------------------
# Difference-order tables
# ---------------------------------------------------------------------------

class DiffOrderTable(RootRows):
    """d x d matrix of ord(alpha_j - alpha_i) with per-root sorted rows;
    the off-diagonal multiset is certified against the exact root orders of
    the difference polynomial."""

    __slots__ = ("degree", "entries", "certificate", "depth")

    def __init__(self, degree, entries, certificate, depth):
        super().__init__([sorted(row, key=OrderVal.sort_key)
                          for row in entries])
        self.degree = degree
        self.entries = entries
        self.certificate = certificate
        self.depth = depth

    def to_json(self):
        return {
            "diffTable": [[v.to_json() for v in row]
                          for row in self.entries],
            "rows": [[v.to_json() for v in row] for row in self.rows],
            "certificate": [v.to_json() for v in self.certificate],
        }


def _pair_order(terms_a, terms_b, depth, tol):
    """First exponent (below depth) where two ascending numeric term lists
    differ by more than tol; None when they agree throughout."""
    ia = ib = 0
    while ia < len(terms_a) or ib < len(terms_b):
        ea = terms_a[ia][0] if ia < len(terms_a) else None
        eb = terms_b[ib][0] if ib < len(terms_b) else None
        if eb is None or (ea is not None and ea < eb):
            e, ca, cb = ea, terms_a[ia][1], mpmath.mpc(0)
            ia += 1
        elif ea is None or eb < ea:
            e, ca, cb = eb, mpmath.mpc(0), terms_b[ib][1]
            ib += 1
        else:
            e, ca, cb = ea, terms_a[ia][1], terms_b[ib][1]
            ia += 1
            ib += 1
        if e >= depth:
            return None
        if abs(ca - cb) > tol:
            return e
    return None


def _auto_depth(order_lists):
    m = _ZERO
    for vals in order_lists:
        for v in vals:
            if v.is_exact:
                m = max(m, v.value)
    return m + 1


def _certified_orders(expand, pairs, cert, depth, mismatch, exhausted):
    """The orders ord(left[a] - right[b]) below `depth` for the index pairs
    (a, b), certified against `cert`, the exact multiset of the same orders.

    expand(p) gives the numeric term lists (left, right); it runs under p +
    64 bits at p = prec, 2 prec, ..., 16 prec with prec =
    default_precision().  An attempt certifies when its finite orders are
    cert's orders below `depth` and it leaves as many pairs unresolved as
    cert has orders that are infinite or at least `depth`; those pairs get
    Infinite when all such orders are, else AtLeast(depth).  A
    PrecisionError or a disagreement moves on to the next precision; every
    other error propagates at once.  Once all five are spent, raises
    ConsistencyError: `mismatch` when the last attempt disagreed, else
    `exhausted` with the PrecisionError."""
    small = sorted(v.value for v in cert if v.is_exact and v.value < depth)
    rest = [v for v in cert if v.is_infinite or v.value >= depth]
    fill = (OrderVal.infinite() if all(v.is_infinite for v in rest)
            else OrderVal.at_least(depth))
    prec = default_precision()
    last_error = None
    for i in range(5):
        p = prec << i
        try:
            with mpmath.workprec(p + 64):
                left, right = expand(p)
                tol = mpmath.mpf(2) ** (-(p // 8))
                found = [_pair_order(left[a], right[b], depth, tol)
                         for a, b in pairs]
        except PrecisionError as exc:
            last_error = exc
            continue
        last_error = None
        if (sorted(e for e in found if e is not None) == small
                and found.count(None) == len(rest)):
            return [fill if e is None else OrderVal.exact(e) for e in found]
    if last_error is None:
        raise ConsistencyError(mismatch)
    raise ConsistencyError(f"{exhausted}: {last_error}")


def diff_orders(h: UPoly, depth=None) -> DiffOrderTable:
    """Pairwise root-difference orders with exact certification.

    The default depth is one past the largest finite order in the exact
    difference data, which resolves every pair exactly (entries are Exact or
    Infinite); smaller explicit depths may leave AtLeast entries.
    """
    orders = root_orders(h)
    if h.degree == 1:
        return DiffOrderTable(1, [[OrderVal.infinite()]], [],
                              as_frac(depth or 1))
    return _expanded(h, orders, _order_list(*_root_levels(difference_poly(h))),
                     depth)


def _expanded(h, orders, cert, depth):
    """diff_orders' table from h's root orders and the exact certificate
    `cert`, the ascending OrderVal list of the difference polynomial's root
    orders (d >= 2)."""
    d = h.degree
    if depth is None:
        depth = _auto_depth([orders, cert])
    depth = as_frac(depth)

    def expand(p):
        roots = puiseux_expand(h, depth, p).roots
        return roots, roots

    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    found = dict(zip(pairs, _certified_orders(
        expand, pairs, cert, depth,
        "numeric difference orders disagree with the exact difference "
        "polynomial", "difference orders failed to certify")))
    entries = [[found[i, j] if i != j else OrderVal.infinite()
                for j in range(d)] for i in range(d)]
    return DiffOrderTable(d, entries, cert, depth)


def orders_against_series(h: UPoly, w: PSeries):
    """Per-root orders ord(alpha_i - w), numerically grouped and certified
    against the exact Newton polygon of h(y + w).

    Returns (values, certificate) where values align with the expansion
    order of puiseux_expand(h, ...).
    """
    shifted = taylor_shift(h, w)
    cert = root_orders(shifted)
    depth = _auto_depth([cert, root_orders(h),
                         [w.order()] if not w.is_exactly_zero else []])

    def expand(p):
        return puiseux_expand(h, depth, p).roots, [_series_terms_numeric(w)]

    vals = _certified_orders(
        expand, [(i, 0) for i in range(h.degree)], cert, depth,
        "numeric contact orders disagree with the shifted polygon",
        "contact orders failed to certify")
    return vals, cert


# ---------------------------------------------------------------------------
# Integrality of roots
# ---------------------------------------------------------------------------

def _is_integral(v: OrderVal) -> bool:
    return v.is_infinite or v.value.denominator == 1


def integrality_test(h: UPoly):
    """All roots lie in unramified series iff every root order and every
    pairwise difference order is an integer (or infinite).  Fully exact:
    root orders from the polygon, difference orders through the difference
    polynomial.  Returns (verdict, certificate)."""
    orders = root_orders(h)
    for v in orders:
        if not _is_integral(v):
            return False, {"integral": False, "source": "root",
                           "violating_order": frac_str(v.value)}
    if h.degree >= 2:
        for v in _order_list(*_root_levels(difference_poly(h))):
            if not _is_integral(v):
                return False, {"integral": False, "source": "difference",
                               "violating_order": frac_str(v.value)}
    return True, {"integral": True, "violating_order": None}


# ---------------------------------------------------------------------------
# Contact-order identity and perturbation bound
# ---------------------------------------------------------------------------

def contact_order_identity_check(h: UPoly, w: PSeries):
    """For each center i, ord(h(w)) >= sum_j min(ord(w - alpha_i),
    ord(alpha_i - alpha_j)), with equality at every center maximizing
    ord(w - alpha_i).  Returns a report dict."""
    d = h.degree
    hw = h.evaluate(w).order()
    table = diff_orders(h)
    wvals, _ = orders_against_series(h, w)
    per_center = []
    best = OrderVal.max_of(wvals)
    ok = True
    for i in range(d):
        bound = OrderVal.sum_of(
            OrderVal.min_of([wvals[i], table.entries[i][j]])
            for j in range(d))
        is_max = wvals[i] == best
        ge = hw.ge(bound)
        eq = hw == bound
        if ge is not True or (is_max and not eq):
            ok = False
        per_center.append({
            "center": i,
            "bound": bound.to_json(),
            "max_center": is_max,
            "holds": ge is True,
            "equality": bool(eq),
        })
    return {"pass": ok, "order_h_w": hw.to_json(), "centers": per_center}


def cross_difference_orders(f: UPoly, g: UPoly):
    """Exact multiset of ord(beta_j - alpha_i) over roots alpha of f and
    beta of g, via their composed-difference polynomial."""
    return root_orders(composed_difference(f, g))


def perturbation_check(f: UPoly, g: UPoly, N):
    """Checks that every root of g matches some root of f to order at least
    N/d, given ord(a_i - b_i) >= N for all coefficients.  Numeric matching
    is certified against the exact cross-difference polynomial."""
    d = f.degree
    if g.degree != d:
        raise ValueError("perturbation check needs equal degrees")
    N = as_frac(N)
    for i in range(1, d + 1):
        diff = f.coeff(i) - g.coeff(i)
        ov = diff.order()
        if ov.lower < N:
            raise ValueError(
                f"coefficient {i} differs at order {ov!r}, below N={N}")
    cert = cross_difference_orders(f, g)
    bound = N / d
    depth = _auto_depth([cert, root_orders(f), root_orders(g)])

    def expand(p):
        return (puiseux_expand(f, depth, p).roots,
                puiseux_expand(g, depth, p).roots)

    found = _certified_orders(
        expand, [(i, j) for i in range(d) for j in range(d)],
        cert, depth,
        "numeric perturbation orders disagree with the exact "
        "cross-difference polynomial", "perturbation check failed to certify")
    rows = []
    for j in range(d):
        best = OrderVal.max_of(found[i * d + j] for i in range(d))
        rows.append({"root": j, "best_match": best.to_json(),
                     "holds": best.lower >= bound})
    return {"pass": all(r["holds"] for r in rows), "bound": frac_str(bound),
            "roots": rows}
