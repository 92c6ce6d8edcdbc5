"""The numeric layer: Newton-Puiseux expansion with exact rational exponents
and arbitrary-precision complex coefficients (mpmath), used to attach
pairwise root-difference orders to individual roots.

Every numerically derived order is certified against the exact root orders
of a difference or cross-difference polynomial (from root power sums, by the
exact layer, lctkit.rootdata); a mismatch escalates precision and
ultimately raises, never returning a silent answer.  The exact decision
path does not import this module: rootdata.certified_rows reaches it only
for a certificate whose count pattern leaves the rows open, so a process
that decides from a depth-one polygon or the certificate alone never loads
mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from .errors import ConsistencyError, PrecisionError, TruncationError
from .mpoly import q_squarefree_decomposition, taylor_shift
from .poly import UPoly
from .reports import cross_difference_orders
from .rootdata import (
    _difference_levels, _hull_value, _lower_hull, _order_list, root_orders,
)
from .series import INF, OrderVal, PSeries, as_frac, frac_str

_ZERO = Fraction(0)

# Working precision in bits: the default of puiseux_expand and the first of
# _certified_orders' five attempts, each of which doubles it.
PRECISION = 256


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


_DK_STEPS = 200
_SEED_STEPS = 100
_POLISH_STEPS = 50


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
    arithmetic, or as close as _SEED_STEPS sweeps get when the iteration
    does not settle (a multiple root); None when the coefficients or the
    approximations leave the float range."""
    cs = [complex(c) for c in monic]
    roots = _start_points(len(cs))
    for _ in range(_SEED_STEPS):
        step = _dk_sweep(roots, cs)
        if not all(math.isfinite(abs(r)) for r in roots):
            return None
        if step < 1e-13 * max(1.0, max(abs(r) for r in roots)):
            break
    return roots


def _durand_kerner(monic, tol):
    """mpmath.polyroots' iteration on the monic polynomial from _seed_roots
    when they exist, for _DK_STEPS sweeps or until no root moves by tol."""
    seeds = _seed_roots(monic) or _start_points(len(monic))
    roots = [mpmath.mpc(s) for s in seeds]
    for _ in range(_DK_STEPS):
        if _dk_sweep(roots, monic) < tol:
            break
    return roots


def _char_roots(coeffs, extraprec, separation=None, stop=None):
    """Roots of the polynomial with descending coefficients `coeffs`
    (leading one nonzero), worked out at `extraprec` bits above the working
    precision and sorted as mpmath.polyroots sorts them: by |imaginary part|,
    then by real part, after parts below the working epsilon are zeroed.

    Degrees 1 and 2 use the closed form; higher degrees run Durand-Kerner
    from machine-precision seeds instead of fixed start points, so a few
    quadratically converging steps reach simple roots to full precision.
    Durand-Kerner stops once no root moves by `stop`, by default the
    working epsilon.  Raises PrecisionError when `separation` is given and
    two roots lie within it of each other (they cannot be told apart
    downstream, and are never returned merged)."""
    tol = +mpmath.eps
    stop = tol if stop is None else stop
    with mpmath.extraprec(extraprec):
        monic = [c / coeffs[0] for c in coeffs[1:]]
        if len(monic) == 1:
            roots = [-monic[0]]
        elif len(monic) == 2:
            roots = _quadratic_roots(*monic)
        else:
            roots = _durand_kerner(monic, stop)
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


def _polish(coeffs, u, m, extraprec, gray):
    """The root of multiplicity m near u of the polynomial with descending
    coefficients `coeffs`: Newton's method at `extraprec` extra bits on its
    (m-1)-th derivative.  PrecisionError when Newton does not settle, or a
    lower derivative there is not zero to within `gray` times its size."""
    tol, n = +mpmath.eps, len(coeffs) - 1
    with mpmath.extraprec(extraprec):
        derivs = [[c * math.perm(n - i, k)
                   for i, c in enumerate(coeffs[:n + 1 - k])]
                  for k in range(m)]
        for _ in range(_POLISH_STEPS):
            value, slope = mpmath.polyval(derivs[-1], u, derivative=True)
            if not slope or abs(value) < tol * abs(slope):
                break
            u -= value / slope
        if not abs(value) < tol * abs(slope):
            raise PrecisionError("characteristic roots did not converge")
        for p in derivs[:-1]:
            size = mpmath.polyval([abs(c) for c in p], abs(u))
            if abs(mpmath.polyval(p, u)) > gray * size:
                raise PrecisionError("a root cluster is not one multiple root")
    return +u


def _solve_char(phi_num, phi_exact, prec, tols):
    """Roots of the characteristic polynomial with multiplicity structure.

    phi_num: descending mpc coefficients; phi_exact: matching Fractions where
    the input is known on the segment (top level), else None.  Returns
    [(root, mult)].  Exact data gets its multiplicities from a squarefree
    decomposition; the numeric route clusters the roots by tolerance, and
    stops Durand-Kerner once no root moves by 2^-8 of it, since a multiple
    root's approximations close in only linearly.  Each root, a cluster's
    centroid or a factor's simple root, is then polished."""
    deg = len(phi_num) - 1
    if phi_exact is not None:
        out = []
        for factor, mult in q_squarefree_decomposition(phi_exact):
            coeffs = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                      for c in factor]
            out.extend((_polish(coeffs, r, 1, prec, tols[1]), mult)
                       for r in _char_roots(coeffs, prec, tols[1]))
        if sum(m for _, m in out) != deg:
            raise ConsistencyError("squarefree multiplicities do not add up")
        return out
    clusters = []
    for r in _char_roots(phi_num, 2 * prec, stop=tols[2] / 256):
        for c in clusters:
            if abs(r - c[0]) < tols[2]:
                c.append(r)
                break
        else:
            clusters.append([r])
    return [(_polish(phi_num, sum(c) / len(c), len(c), 2 * prec, tols[1]),
             len(c)) for c in clusters]


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
    `exact` is the input's coefficients at the top level, None below it;
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
        points = [(j, v1 - q * (j - j1)) for j in range(j2, j1 - 1, -1)]
        phi_num = [coeffs[j].terms.get(line, mpmath.mpc(0))
                   for j, line in points]
        # read exactly when every coefficient on the segment is known there
        phi_exact = ([exact[j].coeff(line) for j, line in points]
                     if exact is not None
                     and all(exact[j].trunc > line for j, line in points)
                     else None)
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
    Newton polygon slopes.  `precision`, in bits, is PRECISION when None."""
    depth = as_frac(depth)
    if depth <= 0:
        raise ValueError("depth must be positive")
    prec = PRECISION if precision is None else precision
    if type(prec) is not int or prec <= 0:
        raise ValueError(f"precision must be a positive int, not {prec!r}")
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

class DiffOrderTable:
    """d x d matrix of ord(alpha_j - alpha_i) with per-root sorted rows;
    the off-diagonal multiset is certified against the exact root orders of
    the difference polynomial."""

    __slots__ = ("degree", "entries", "rows", "certificate", "depth")

    def __init__(self, degree, entries, certificate, depth):
        self.degree = degree
        self.entries = entries
        self.rows = tuple(tuple(sorted(row, key=OrderVal.sort_key))
                          for row in entries)
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
    a, b, zero = dict(terms_a), dict(terms_b), mpmath.mpc(0)
    for e in sorted(a.keys() | b.keys()):
        if e >= depth:
            return None
        if abs(a.get(e, zero) - b.get(e, zero)) > tol:
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
    64 bits at p = PRECISION, 2 PRECISION, ..., 16 PRECISION.  An attempt
    certifies when its finite orders are cert's orders below `depth` and it
    leaves as many pairs unresolved as cert has orders that are infinite or
    at least `depth`; those pairs get Infinite when all such orders are,
    else AtLeast(depth).  A PrecisionError or a disagreement moves on to the
    next precision; every other error propagates at once.  Once all five
    are spent, raises ConsistencyError: `mismatch` when the last attempt
    disagreed, else `exhausted` with the PrecisionError."""
    small = sorted(v.value for v in cert if v.is_exact and v.value < depth)
    rest = [v for v in cert if v.is_infinite or v.value >= depth]
    fill = (OrderVal.infinite() if all(v.is_infinite for v in rest)
            else OrderVal.at_least(depth))
    last_error = None
    for i in range(5):
        p = PRECISION << i
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
    if depth is not None:
        depth = as_frac(depth)
        if depth <= 0:
            raise ValueError("depth must be positive")
    orders = root_orders(h)
    if h.degree == 1:
        return DiffOrderTable(1, [[OrderVal.infinite()]], [],
                              Fraction(1) if depth is None else depth)
    return _expanded(h, orders, _order_list(*_difference_levels(h)), depth)


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
