"""The int Newton polygon and the int Lemma-1 order against references.

newton_polygon, root_orders and the exact certificate all read one int
hull.  Here it is checked against the polygon built on Fraction points, and
the Lemma-1 order taken by cross-multiplication against the order of the
coefficient ideal built with QIdeal, on random exact and truncated inputs:
mixed ramification, exactly zero coefficients, roots of infinite order and
coefficients known only from below on either side of the hull's start."""

import math
import random
from fractions import Fraction

import pytest

from lctkit import rootdata
from lctkit.errors import ConsistencyError, TruncationError
from lctkit.poly import UPoly, difference_poly
from lctkit.mpoly import MPoly
from lctkit.qideal import QIdeal, qi_ord, qi_power, qi_sum
from lctkit.reports import newton_polygon
from lctkit.rootdata import certified_rows, root_orders
from lctkit.series import OrderVal, PSeries

F = Fraction


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def _ref_lower_hull(points):
    pts = sorted(points)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _ref_hull_value(hull, x):
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return y1 + (y2 - y1) * F(x - x1, x2 - x1)
    raise ValueError("abscissa outside hull range")


def ref_polygon(h):
    """The Newton polygon on Fraction points: (slopes, hull), slopes the
    ascending [(OrderVal, multiplicity)]; raises TruncationError as
    newton_polygon must."""
    d = h.degree
    exact_pts, atleast_pts = [(d, F(0))], []
    for i in range(1, d + 1):
        ov = h.coeff(i).order()
        if ov.is_exact:
            exact_pts.append((d - i, ov.value))
        elif ov.is_at_least:
            atleast_pts.append((d - i, ov.value))
    j_start = min(j for j, _ in exact_pts)
    hull = _ref_lower_hull(exact_pts)
    hidden = [(j, t) for j, t in atleast_pts if j < j_start]
    if hidden:
        y_start = hull[0][1]
        q_max = (F(y_start - hull[1][1], hull[1][0] - j_start)
                 if len(hull) > 1 else F(0))
        required = max(max(y_start + (j_start - j) * (q_max + 1),
                            math.floor(t) + 1) for j, t in hidden)
        j = max(j for j, _ in hidden)
        raise TruncationError(
            f"coefficient a_{d - j} is unknown below its truncation and "
            "controls the polygon", required=required)
    for j, t in atleast_pts:
        bound = _ref_hull_value(hull, j)
        if t < bound:
            raise TruncationError(
                f"coefficient a_{d - j} is only known up to order {t}",
                required=bound)
    slopes = [(OrderVal.exact(F(y1 - y2, x2 - x1)), x2 - x1)
              for (x1, y1), (x2, y2) in zip(hull, hull[1:])][::-1]
    if j_start:
        slopes.append((OrderVal.infinite(), j_start))
    return slopes, hull


def ref_lemma1(h):
    """Order of the Q-ideal sum of (z_i)^(1/i) along the arc z_i -> a_i."""
    d = h.degree
    ideal = qi_sum([qi_power(QIdeal.principal(MPoly.variable(f"z{i}")),
                             F(1, i)) for i in range(1, d + 1)])
    return qi_ord(ideal, {f"z{i}": h.coeff(i) for i in range(1, d + 1)})


def _as_order(lem1):
    if lem1 is None:
        return OrderVal.infinite()
    num, den, rank = lem1
    return OrderVal(OrderVal.KINDS[rank], F(num, den))


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def _rand_series(rng, exps):
    kind = rng.random()
    if kind < 0.2:
        return PSeries.zero("t")
    terms = {rng.choice(exps): F(rng.choice([-3, -1, 1, 2, 5]))
             for _ in range(rng.randint(1, 3))}
    s = PSeries("t", terms)
    if kind > 0.7:
        s = s.truncated(rng.choice(exps))
    return s


def rand_poly(rng, ram):
    """A random monic polynomial whose coefficients mix exponents with
    denominators dividing ram; some exactly zero, some truncated (known
    only from below when the truncation cuts every term)."""
    d = rng.randint(1, 6)
    exps = sorted({F(k, q) for q in ram for k in range(1, 5 * q)})
    return UPoly("y", [_rand_series(rng, exps) for _ in range(d)])


def _corpus(seed, n):
    rng = random.Random(seed)
    polys = [rand_poly(rng, rng.choice([(1,), (1, 2), (2, 3), (1, 2, 3, 4)]))
             for _ in range(n)]
    # difference polynomials: long, even-power, often with zero blocks
    polys += [difference_poly(h) for h in polys[:n // 8]
              if 2 <= h.degree <= 3]
    return polys


def _outcome(fn, h):
    try:
        return fn(h)
    except TruncationError as exc:
        return ("raised", str(exc), exc.required)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_polygon_matches_fraction_reference(seed):
    seen = set()
    for h in _corpus(seed, 400):
        want = _outcome(ref_polygon, h)
        got = _outcome(newton_polygon, h)
        if want[0] == "raised":
            assert got == want, h.coeffs
            seen.add("left" if "controls" in want[1] else "right")
            continue
        slopes, hull = want
        assert (got.slopes, got.hull) == (slopes, hull), h.coeffs
        assert got.points == [(0, OrderVal.exact(0))] + [
            (i, h.coeff(i).order()) for i in range(1, h.degree + 1)]
        assert root_orders(h) == [v for v, m in slopes for _ in range(m)]
        seen.update(v.kind for v, _ in slopes)
        if any(h.coeff(i).order().is_at_least
               for i in range(1, h.degree + 1)):
            seen.add("certified past a truncation")
        if len({a.ram for a in h.coeffs if not a.is_zero()}) > 1:
            seen.add("mixed ramification")
    assert seen == {"left", "right", OrderVal.EXACT, OrderVal.INFINITE,
                    "certified past a truncation", "mixed ramification"}


def _lemma1(h):
    return rootdata._lemma1_order(rootdata._coeff_orders(h))


@pytest.mark.parametrize("seed", [4, 5])
def test_lemma1_matches_qideal(seed):
    kinds = set()
    for h in _corpus(seed, 300):
        got = _as_order(_lemma1(h))
        assert got == ref_lemma1(h), h.coeffs
        assert got == (OrderVal.min_of(
            h.coeff(i).order().scale(F(1, i))
            for i in range(1, h.degree + 1)
            if not h.coeff(i).is_exactly_zero)
            if any(not a.is_exactly_zero for a in h.coeffs)
            else OrderVal.infinite())
        kinds.add(got.kind)
    assert kinds == {OrderVal.EXACT, OrderVal.ATLEAST, OrderVal.INFINITE}


def test_lemma1_prefers_an_exact_witness():
    # a_1 known only above 2 and a_2 = t^4 tie at 2: the exact one wins
    h = UPoly("y", [PSeries.zero("t", 2),
                    PSeries.monomial("t", 4)])
    assert _as_order(_lemma1(h)) == OrderVal.exact(2)
    h = UPoly("y", [PSeries.zero("t", 2), PSeries.zero("t", 5)])
    assert _as_order(_lemma1(h)) == OrderVal.at_least(2)


def test_shifted_slope_is_caught(monkeypatch):
    """Raising the hull vertex next to the anchor changes the least root
    order; the Lemma-1 check catches it in root_orders and in the exact
    certificate."""
    real = rootdata._polygon

    def shifted(orders):
        R, hull = real(orders)
        j, y = hull[-2]
        return R, hull[:-2] + [(j, y + 1), hull[-1]]

    h = UPoly.from_roots("y", [PSeries.monomial("t", k) for k in (1, 2, 3)])
    monkeypatch.setattr(rootdata, "_polygon", shifted)
    with pytest.raises(ConsistencyError, match="coefficient ideal order"):
        root_orders(h)
    with pytest.raises(ConsistencyError, match="coefficient ideal order"):
        certified_rows(h)
