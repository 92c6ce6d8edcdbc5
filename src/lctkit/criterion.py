"""The threshold decision lct(f) >= c for monic f = y^d + sum a_i(x)
y^(d-i) with one-variable series coefficients of positive order: the band
parameter p with its weights c1, c2, and lct_ge.

The decision evaluates V = max_i [c1 * (b_1 + .. + b_(p-1)) + c2 * (b_1 +
.. + b_p)] over the per-root rows b_1 <= b_2 <= .. of difference orders, and
in one variable the pair is log canonical iff V <= 1.  V reads the rows only
as a multiset, which rootdata.certified_rows builds by its one route, on
exact and truncated input alike: from the root tree of the certified
difference orders, read off the Newton polygon of the difference
polynomial's packed coefficients without building it, whenever the tree
fixes it (always for d <= 4), otherwise from the certified expansion.  The
tables are cached by the coefficients alone.  A table stores each row's
prefix sums when it is built, as ints over one table-wide denominator, and
only p, c1 and c2 depend on c, so a decision on a cached table evaluates V
from two stored prefix sums per distinct row in int arithmetic and decides
by one int comparison.  The paper's criterion ideals, which validate this
route, live in lctkit.ideals.
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


def choose_p(d: int, c) -> CriterionContext:
    """The unique p in {1..d-1} with 1/(d-p+1) < c <= 1/(d-p), plus the
    weights c1 = 1-(d-p)c and c2 = (d-p+1)c - 1."""
    c = as_frac(c)
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
    for i, a in enumerate(coeffs, start=1):
        if not isinstance(a, PSeries):
            raise TypeError("coefficients must be series")
        if not a.has_positive_order:
            raise ValueError(
                f"coefficient a_{i} must have positive order")


@lru_cache(maxsize=257)
def _table_for(coeffs):
    """Difference-order rows of y^d + sum a_i y^(d-i) from
    rootdata.certified_rows, kept for the 257 most recently used inputs (a
    parameter sweep revisits each curve once per threshold);
    _table_for.cache_info() counts hits and misses."""
    return certified_rows(UPoly("y", coeffs))


def _centers(band, prefix_sums):
    """The center c1 * S_(p-1) + c2 * S_p of each row of int prefix sums
    (see RootRows), as (numerator over b * L, rank): rank 0 for an exact
    center, 1 for one known from below and 2, numerator None, for an
    infinite one, the ranks of OrderVal.sort_key.  c2 > 0, so a center is
    infinite exactly when S_p is; an infinite S_(p-1) makes S_p infinite,
    so a zero c1 against it needs no case of its own."""
    p, w1, w2, _ = band
    return [(None, 2) if p > inf else
            (w1 * sums[p - 1] + w2 * sums[p], 0 if p <= inexact else 1)
            for sums, inexact, inf in prefix_sums]


def _eval_v(band, coeffs):
    """V from validated coefficients, the largest center over the table's
    distinct rows, as (numerator, rank, b * L): infinite when one center
    is, exact when all are."""
    table = _table_for(tuple(coeffs))
    one = band[3] * table.denominator
    centers = _centers(band, table.distinct_prefix_sums)
    rank = max(r for _, r in centers)
    if rank == 2:
        return None, 2, one
    return max(n for n, _ in centers), rank, one


def _order_json(num, rank, den):
    """OrderVal.to_json of num/den with the given rank, from the ints."""
    if rank == 2:
        return {"kind": OrderVal.INFINITE}
    return {"kind": OrderVal.KINDS[rank], "value": ratio_str(num, den)}


def lct_ge(d: int, c, coeffs):
    """Decide lct(f) >= c for f = y^d + sum a_i y^(d-i).

    Returns (verdict, diagnostics): verdict in {yes, no, unknown}, and the
    diagnostics echo p, c1, c2 and V so results are auditable.  Truncated
    data is decided when the certificate of the difference orders fixes the
    rows of every completion; data that cannot be certified gives unknown,
    with the error as `reason` and the truncation hint as `required` in
    place of V.

    V = num / (b * L) with c = a/b and L the table's denominator, so the
    verdict is the one int comparison num <= b * L: yes when V is exact, no
    when V is infinite or exceeds 1, unknown when V is only known from
    below and does not exceed 1.
    """
    c = as_frac(c)
    if d < 1:
        raise ValueError("degree must be positive")
    _validate_coeffs(coeffs, d)
    diag = {"d": d, "c": frac_str(c), "p": None, "c1": None, "c2": None,
            "V": None}
    a, b = c.numerator, c.denominator
    if a > b:
        diag["reason"] = "thresholds of monic polynomials never exceed 1"
        return NO, diag
    if d == 1 or d * a <= b:
        diag["reason"] = "thresholds lie in [1/d, 1]"
        return YES, diag
    band = _band(d, c)
    p, w1, w2, _ = band
    diag.update({"p": p, "c1": ratio_str(w1, b), "c2": ratio_str(w2, b)})
    try:
        num, rank, one = _eval_v(band, coeffs)
    except TruncationError as exc:
        diag["reason"] = str(exc)
        diag["required"] = (None if exc.required is None
                            else frac_str(exc.required))
        return UNKNOWN, diag
    diag["V"] = _order_json(num, rank, one)
    if rank == 2 or num > one:
        return NO, diag
    return (YES if rank == 0 else UNKNOWN), diag
