"""The threshold decision lct(f) >= c for monic f = y^d + sum a_i(x)
y^(d-i) with one-variable series coefficients of positive order: the band
parameter p with its weights c1, c2, and lct_ge.

The decision evaluates V = max_i [c1 * (b_1 + .. + b_(p-1)) + c2 * (b_1 +
.. + b_p)] over the per-root rows b_1 <= b_2 <= .. of difference orders, and
in one variable the pair is log canonical iff V <= 1.  V reads the rows only
as a multiset, which rootdata.certified_rows builds by two routes: from
d = 4 on, an exact Newton-nondegenerate input's rows off its own Newton
polygon; every other input's from the root tree of the certified
difference orders, read off the Newton polygon of the difference
polynomial's packed coefficients without building it, whenever the tree
fixes it (always for d <= 4), otherwise from the certified expansion.  The
tables, or the TruncationError that leaves an input unknown, are cached by
the validated coefficients alone.  A table stores each row's prefix sums
when it is built, as ints over one table-wide denominator, and only p, c1
and c2 depend on c, so a decision on a cached table evaluates V from two
stored prefix sums per distinct row in int arithmetic and decides by one
int comparison.  What depends on (d, c) alone is cached apart, for
the 1024 most recently used pairs: the shortcut verdict or the band, and
the diagnostics without V.  So a parameter sweep derives it once per pair,
and a decision on a cached table runs in lct_ge's own frame: past the
shared validator and the two cache reads, one loop over the distinct rows
keeps the largest numerator and one ratio_str call formats V.  lct_ge
returns a fresh dict on every call, which the caller owns.  The paper's
criterion ideals, which validate this route, live in lctkit.ideals.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import TruncationError
from .poly import UPoly
from .rootdata import certified_rows
from .series import (
    NO, UNKNOWN, YES, OrderVal, PSeries, as_frac, frac_str, ratio_str,
)

# ---------------------------------------------------------------------------
# Context: the band parameter p and the weights c1, c2
# ---------------------------------------------------------------------------

CriterionContext = namedtuple("CriterionContext", "d c p c1 c2")


def _band(d, c):
    """The band of c = a/b in (1/d, 1] on ints: (p, w1, w2, b) with
    c1 = w1/b and c2 = w2/b.  With m = d - p the band reads
    m <= 1/c < m + 1, so m = b // a, w1 = b - m a and w2 = (m + 1) a - b;
    w1 >= 0 (zero at the band's upper edge) and w2 > 0."""
    a, b = c.numerator, c.denominator
    m = b // a
    return d - m, b - m * a, (m + 1) * a - b, b


def _checked(d, c):
    """c as a Fraction, or the TypeError of a threshold as_frac refuses (a
    bool among them) or of a degree that is not a plain int: a degree equal
    to an int would share its cache entries and leak into their output."""
    c = as_frac(c)
    if type(d) is not int:
        raise TypeError(f"degree must be an int, got {d!r}")
    return c


def choose_p(d: int, c) -> CriterionContext:
    """The unique p in {1..d-1} with 1/(d-p+1) < c <= 1/(d-p), plus the
    weights c1 = 1-(d-p)c and c2 = (d-p+1)c - 1."""
    c = _checked(d, c)
    if d < 2:
        raise ValueError("the band parameter needs d >= 2")
    if not (Fraction(1, d) < c <= 1):
        raise ValueError(f"c must lie in (1/{d}, 1]")
    p, w1, w2, b = _band(d, c)
    return CriterionContext(d, c, p, Fraction(w1, b), Fraction(w2, b))


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------

def _validate_coeffs(coeffs, d):
    if len(coeffs) != d:
        raise ValueError(f"expected {d} coefficients, got {len(coeffs)}")
    i = 0
    for a in coeffs:
        i += 1
        if not isinstance(a, PSeries):
            raise TypeError("coefficients must be series")
        if 0 in a._t:           # has_positive_order, without its call
            raise ValueError(
                f"coefficient a_{i} must have positive order")
    var = coeffs[0].var
    for a in coeffs:
        if a.var != var:
            raise ValueError("series coefficients use different variables")


@lru_cache(maxsize=257)
def _table_for(coeffs):
    """Difference-order rows of y^d + sum a_i y^(d-i), validated, from
    rootdata.certified_rows, or its TruncationError, kept for the 257
    most recently used inputs (a parameter sweep revisits each curve once
    per threshold); _table_for.cache_info() counts hits and misses."""
    try:
        return certified_rows(UPoly.of_series("y", coeffs))
    except TruncationError as exc:
        return exc.with_traceback(None)


@lru_cache(maxsize=1024)
def _head(d, a, b):
    """What lct_ge's answer at degree d and threshold c = a/b (lowest
    terms, b > 0) owes to (d, c) alone: (verdict, head) when a shortcut
    decides, else (band, head), where head is the diagnostics dict without
    V.  Kept for the 1024 most recently used pairs; callers copy head."""
    head = {"d": d, "c": ratio_str(a, b), "p": None, "c1": None, "c2": None,
            "V": None}
    if a > b:
        head["reason"] = "thresholds of monic polynomials never exceed 1"
        return NO, head
    if d == 1 or d * a <= b:
        head["reason"] = "thresholds lie in [1/d, 1]"
        return YES, head
    band = _band(d, Fraction(a, b))
    p, w1, w2, _ = band
    head.update({"p": p, "c1": ratio_str(w1, b), "c2": ratio_str(w2, b)})
    return band, head


def lct_ge(d: int, c, coeffs):
    """Decide lct(f) >= c for f = y^d + sum a_i y^(d-i).

    Returns (verdict, diagnostics): verdict in {yes, no, unknown}, and the
    diagnostics echo p, c1, c2 and V so results are auditable.  Truncated
    data is decided when the certificate of the difference orders fixes the
    rows of every completion; data that cannot be certified gives unknown,
    with the error as `reason` and the truncation hint as `required` in
    place of V.

    Every entry of the table is exact or infinite, so V is too: with
    c = a/b and L the table's denominator, V = num / (b * L) and the
    verdict is the one int comparison num <= b * L, no when V is infinite.
    Everything but V depends on (d, c) alone and comes from a cache of the
    1024 most recently used pairs; the returned dict is a fresh copy that
    the caller owns.
    """
    if type(c) is not Fraction or type(d) is not int:
        c = _checked(d, c)
    if d < 1:
        raise ValueError("degree must be positive")
    _validate_coeffs(coeffs, d)
    band, head = _head(d, c.numerator, c.denominator)
    diag = head.copy()
    if isinstance(band, str):           # a shortcut verdict
        return band, diag
    table = _table_for(tuple(coeffs))
    if isinstance(table, TruncationError):
        diag["reason"] = str(table)
        diag["required"] = (None if table.required is None
                            else frac_str(table.required))
        return UNKNOWN, diag
    # V's numerator: the largest center w1 * S_(p-1) + w2 * S_p (each >= 0)
    # over the distinct rows.  w2 > 0, so V is infinite at the first row
    # without S_p; a row without S_(p-1) has none, so w1 = 0 needs no case.
    p, w1, w2, b = band
    num = 0
    for sums in table.distinct_prefix_sums:
        if p >= len(sums):
            diag["V"] = {"kind": OrderVal.INFINITE}
            return NO, diag
        center = w1 * sums[p - 1] + w2 * sums[p]
        if center > num:
            num = center
    one = b * table.denominator
    diag["V"] = {"kind": OrderVal.EXACT, "value": ratio_str(num, one)}
    return (NO if num > one else YES), diag
