"""The cached decision: V, the verdict and the diagnostics evaluated on ints
from the prefix sums a table stores, over its distinct rows, against a
test-side copy of the per-center formula on OrderVal; the closed-form band
against the band loop; and digests of the verdicts and diagnostics of a
parameter sweep and of table misses on exact and truncated input.
Every entry of a table is exact or infinite, so the reference rows are
too."""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

from lctkit import criterion, rootdata
from lctkit.criterion import choose_p, lct_ge
from lctkit.errors import ConsistencyError, DegenerateError, TruncationError
from lctkit.numeric import diff_orders
from lctkit.oracle import lct_plane_nondegenerate
from lctkit.mpoly import MPoly
from lctkit.poly import UPoly
from lctkit.qideal import ord_diff_le_one
from lctkit.rootdata import RootRows
from lctkit.series import UNKNOWN, OrderVal, PSeries, frac_str

F = Fraction


# ---------------------------------------------------------------------------
# Reference: the per-center formula and the band loop
# ---------------------------------------------------------------------------

def _ref_weighted(c, val):
    return OrderVal.exact(0) if c == 0 else val.scale(c)


def _ref_center(ctx, rows, i):
    """c1 * (sum of the p-1 smallest orders at i) + c2 * (sum of the p
    smallest), each prefix added up afresh."""
    return (_ref_weighted(ctx.c1, OrderVal.sum_of(rows[i][:ctx.p - 1])) +
            _ref_weighted(ctx.c2, OrderVal.sum_of(rows[i][:ctx.p])))


def _ref_v(ctx, rows):
    return OrderVal.max_of([_ref_center(ctx, rows, i)
                            for i in range(ctx.d)])


def _ref_band(d, c):
    for p in range(1, d):
        if F(1, d - p + 1) < c <= F(1, d - p):
            return p, 1 - (d - p) * c, (d - p + 1) * c - 1
    raise AssertionError("band partition failed")


def _as_order(num, den):
    """An int center (numerator over den, None when infinite) as an
    OrderVal."""
    if num is None:
        return OrderVal.infinite()
    return OrderVal.exact(F(num, den))


def _row_prefix_sum(table, i, k):
    """Sum of the k smallest difference orders of distinct row i, read
    from the table's int prefix sums."""
    sums = table.distinct_prefix_sums[i]
    if k >= len(sums):
        return OrderVal.infinite()
    return _as_order(sums[k], table.denominator)


def _band_thresholds(d):
    """For each p: the upper edge 1/(d-p), where c1 = 0, a point just
    above the lower edge, and the midpoint."""
    for p in range(1, d):
        lo, hi = F(1, d - p + 1), F(1, d - p)
        for c in (hi, lo + (hi - lo) / 97, (lo + hi) / 2):
            yield p, c


def _positive_coeffs(d):
    return [PSeries.monomial("x", 1)] * d


def _lct_v(ctx, coeffs):
    """V of lct_ge's diagnostics at ctx's threshold."""
    return OrderVal.from_json(lct_ge(ctx.d, ctx.c, coeffs)[1]["V"])


# ---------------------------------------------------------------------------
# V against the reference
# ---------------------------------------------------------------------------

def _random_order(rng, dens=(1, 2, 3)):
    if rng.random() < 0.2:
        return OrderVal.infinite()
    return OrderVal.exact(F(rng.randint(1, 12), rng.choice(dens)))


def _random_rows(rng, d, dens=(1, 2, 3)):
    """d rows drawn with repetition from at most d distinct ascending
    rows, each ending in the infinite self-order."""
    pool = []
    for _ in range(rng.randint(1, d)):
        row = sorted((_random_order(rng, dens) for _ in range(d - 1)),
                     key=OrderVal.sort_key)
        pool.append(tuple(row) + (OrderVal.infinite(),))
    return [rng.choice(pool) for _ in range(d)]


class TestAgainstReference:
    def test_random_rows_every_band(self, monkeypatch, table_of,
                                    centers_of):
        rng = random.Random(808)
        kinds = set()
        for _ in range(200):
            d = rng.randint(2, 6)
            rows = _random_rows(rng, d)
            table = table_of(rows)
            distinct = list(dict.fromkeys(rows))
            kinds.update(v.kind for row in rows for v in row)
            monkeypatch.setattr(criterion, "_table_for",
                                lambda *args, t=table: t)
            for p, c in _band_thresholds(d):
                ctx = choose_p(d, c)
                assert ctx.p == p
                got = _lct_v(ctx, _positive_coeffs(d))
                assert got == _ref_v(ctx, rows), (rows, c)
                assert sorted(centers_of(ctx, table),
                              key=OrderVal.sort_key) == \
                    sorted((_ref_center(ctx, distinct, i)
                            for i in range(len(distinct))),
                           key=OrderVal.sort_key)
        assert kinds == {"exact", "inf"}

    def test_int_verdict_and_diagnostics(self, monkeypatch, table_of):
        """lct_ge on a cached table against ord_diff_le_one(V, 0) and the
        JSON of the reference V, on rows with larger denominators, at
        every band edge and at random thresholds in each band."""
        rng = random.Random(4242)
        kinds, verdicts, zero_c1_inf = set(), set(), 0
        for _ in range(150):
            d = rng.randint(2, 6)
            rows = _random_rows(rng, d, dens=(1, 2, 3, 5, 7, 12))
            table = table_of(rows)
            kinds.update(v.kind for row in rows for v in row)
            monkeypatch.setattr(criterion, "_table_for",
                                lambda *args, t=table: t)
            thresholds = [c for _, c in _band_thresholds(d)]
            thresholds += [F(rng.randint(1, 60), 60) for _ in range(6)]
            for c in thresholds:
                if not F(1, d) < c <= 1:
                    continue
                ctx = choose_p(d, c)
                ref = _ref_v(ctx, rows)
                verdict, diag = lct_ge(d, c, _positive_coeffs(d))
                assert verdict == ord_diff_le_one(ref, OrderVal.exact(0))
                assert diag == {"d": d, "c": frac_str(c), "p": ctx.p,
                                "c1": frac_str(ctx.c1),
                                "c2": frac_str(ctx.c2), "V": ref.to_json()}
                verdicts.add(verdict)
                zero_c1_inf += ctx.c1 == 0 and any(
                    r[ctx.p - 2].is_infinite for r in rows if ctx.p > 1)
        assert kinds == {"exact", "inf"}
        assert verdicts == {"yes", "no"}
        assert zero_c1_inf > 0

    def test_repeated_rows_collapse(self):
        # roots x and x + x^(3/2) share the row 1, 3/2 and 2x has 1, 1:
        # the table keeps each distinct row once, as numerators over L = 2
        h = UPoly.from_roots("y", [PSeries.monomial("x", 1),
                                   PSeries("x", {F(1): F(1), F(3, 2): F(1)}),
                                   PSeries.monomial("x", 1, 2)])
        table = rootdata.certified_rows(h)
        assert table == RootRows(2, ((0, 2, 4), (0, 2, 5)))

    def test_row_prefix_sums(self, table_of):
        """Each distinct row's sums, read back from the table as
        OrderVals, are the sums of its k smallest orders, k = 0..d."""
        rng = random.Random(17)
        for _ in range(100):
            d = rng.randint(2, 6)
            rows = list(dict.fromkeys(_random_rows(rng, d)))
            table = table_of(rows)
            assert len(table.distinct_prefix_sums) == len(rows)
            got = sorted([_row_prefix_sum(table, i, k).sort_key()
                          for k in range(d + 1)]
                         for i in range(len(rows)))
            assert got == sorted([OrderVal.sum_of(row[:k]).sort_key()
                                  for k in range(d + 1)] for row in rows)

    def test_zero_weight_against_infinite_prefix(self, monkeypatch,
                                                 table_of, centers_of):
        # p = 2 at its upper edge c = 1/(d-2): c1 = 0 meets an infinite
        # S_1 on the all-infinite row, sorted first, and contributes 0
        inf = OrderVal.infinite()
        rows = [(OrderVal.exact(2), OrderVal.exact(3), inf),
                (inf, inf, inf), (OrderVal.exact(2), OrderVal.exact(3), inf)]
        table = table_of(rows)
        ctx = choose_p(3, F(1))
        assert (ctx.p, ctx.c1) == (2, 0)
        assert centers_of(ctx, table) == [inf, OrderVal.exact(5)]
        monkeypatch.setattr(criterion, "_table_for", lambda *args: table)
        assert _lct_v(ctx, _positive_coeffs(3)) == \
            _ref_v(ctx, rows) == inf
        verdict, diag = lct_ge(3, F(1), _positive_coeffs(3))
        assert (verdict, diag["V"]) == ("no", inf.to_json())

    def test_truncated_diff_order_tables(self):
        """V on diff_orders' tables of truncated input at the default
        depth, whose entries are exact or infinite, against the V of
        lct_ge's diagnostics."""
        rng = random.Random(7)
        tables = 0
        kinds = set()
        for _ in range(20):
            d = rng.choice([2, 3, 3, 4])
            coeffs = [PSeries("x", {F(rng.randint(1, 6)):
                                    F(rng.choice([-3, -2, -1, 1, 2, 3]))
                                    for _ in range(rng.randint(1, 2))})
                      for _ in range(d)]
            for bound in (3, 6, 9):
                cut = [a.truncated(F(bound)) for a in coeffs]
                try:
                    table = diff_orders(UPoly("y", cut))
                except (TruncationError, ConsistencyError):
                    continue
                tables += 1
                kinds.update(v.kind for row in table.rows for v in row)
                for _, c in _band_thresholds(d):
                    ctx = choose_p(d, c)
                    assert _ref_v(ctx, table.rows) == \
                        _lct_v(ctx, cut), (cut, c)
        assert tables > 40
        assert kinds == {"exact", "inf"}


class TestClosedFormBand:
    def test_against_band_loop(self):
        pairs = set()
        for d in range(2, 9):
            for b in range(1, 61):
                for a in range(1, b + 1):
                    c = F(a, b)
                    if not F(1, d) < c <= 1:
                        continue
                    ctx = choose_p(d, c)
                    assert (ctx.p, ctx.c1, ctx.c2) == _ref_band(d, c)
                    assert (ctx.d, ctx.c) == (d, c)
                    pairs.add((d, a, b))
        assert len(pairs) == 9824

    def test_errors(self):
        with pytest.raises(ValueError, match="d >= 2"):
            choose_p(1, F(1))
        for c in (F(1, 3), F(1, 4), F(0), F(-1, 2), F(3, 2)):
            with pytest.raises(ValueError, match="must lie in"):
                choose_p(3, c)


# ---------------------------------------------------------------------------
# The hit path: the per-(d, c) head cache
# ---------------------------------------------------------------------------

def _cusp():
    """y^3 + x^5 at c = 5/6, in the band p = 2: a decision that reads a
    table."""
    zero = PSeries.zero("x")
    return 3, F(5, 6), (zero, zero, PSeries.monomial("x", 5))


SHORTCUTS = [
    (3, F(3, 2), "no", "thresholds of monic polynomials never exceed 1"),
    (3, F(1, 3), "yes", "thresholds lie in [1/d, 1]"),
    (3, F(1, 4), "yes", "thresholds lie in [1/d, 1]"),
    (1, F(1, 2), "yes", "thresholds lie in [1/d, 1]"),
    (3, F(0), "yes", "thresholds lie in [1/d, 1]"),
    (3, F(-1, 2), "yes", "thresholds lie in [1/d, 1]"),
]


class TestHitPath:
    def test_each_call_owns_its_dict(self):
        """Mutating a result, as `lctkit lct` adds "verdict" to it, leaves
        the next result of the same decision unchanged, on a table and on
        a shortcut."""
        d, c, coeffs = _cusp()
        cases = [(d, c, coeffs)] + [
            (d, c, _positive_coeffs(d)) for d, c, *_ in SHORTCUTS]
        for d, c, coeffs in cases:
            verdict, diag = lct_ge(d, c, coeffs)
            expected = dict(diag)
            diag["verdict"] = verdict
            diag["c"] = diag["p"] = None
            diag.pop("V")
            again = lct_ge(d, c, coeffs)
            assert again == (verdict, expected)
            assert again[1] is not diag

    def test_repeat_formats_only_v(self, monkeypatch):
        """The first decision at a (d, c) formats c, c1, c2 and V; a repeat
        on the cached table formats V alone."""
        from lctkit import series

        d, c, coeffs = _cusp()
        criterion._head.cache_clear()
        calls = []
        real = series.ratio_str

        def counted(num, den):
            calls.append((num, den))
            return real(num, den)

        monkeypatch.setattr(criterion, "ratio_str", counted)
        monkeypatch.setattr(series, "ratio_str", counted)
        first = lct_ge(d, c, coeffs)
        assert len(calls) == 4
        del calls[:]
        assert lct_ge(d, c, coeffs) == first
        assert len(calls) == 1
        assert first[1]["V"] == {"kind": "exact",
                                 "value": real(*calls[0])}

    def test_warm_decision_calls(self):
        """The Python-level calls of a decision on a cached table at d = 3:
        lct_ge, the shared validator, the threshold's numerator and
        denominator (Fraction properties), the series hash of each
        coefficient that the table lookup makes, and the one ratio_str that
        formats V.  V is evaluated in lct_ge's own frame."""
        zero = PSeries.zero("x")
        coeffs = (zero, PSeries.monomial("x", 3), PSeries.monomial("x", 5))
        c = F(3, 5)
        # primed with these very objects, so the lookup compares none
        criterion._table_for.cache_clear()
        first = lct_ge(3, c, coeffs)
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            again = lct_ge(3, c, coeffs)
        finally:
            sys.setprofile(None)
        assert again == first
        assert calls == ["lct_ge", "_validate_coeffs", "numerator",
                         "denominator", "__hash__", "__hash__", "__hash__",
                         "ratio_str"]

    def test_warm_equals_cold(self):
        """A cached unknown, with its reason and required hint, and a table
        whose second distinct row has no S_p, so V is infinite at the
        loop's early return, decide the same on cold and on warm caches."""
        x = PSeries.monomial("x", 1)
        cut = (PSeries.zero("x", 3), PSeries.zero("x", 3))
        h = UPoly.from_roots("y", [x, x, PSeries.monomial("x", 1, 2)])
        cases = [
            (2, F(3, 4), cut, ("unknown", {
                "d": 2, "c": "3/4", "p": 1, "c1": "1/4", "c2": "1/2",
                "V": None, "required": "4",
                "reason": "coefficient a_1 is unknown below its truncation "
                          "and controls the polygon; required truncation "
                          ">= 4"})),
            (3, F(5, 6), h.coeffs, ("no", {
                "d": 3, "c": "5/6", "p": 2, "c1": "1/6", "c2": "2/3",
                "V": {"kind": "inf"}})),
        ]
        assert criterion._table_for(h.coeffs) == \
            RootRows(1, ((0, 1, 2), (0, 1)))
        for d, c, coeffs, expected in cases:
            criterion._table_for.cache_clear()
            criterion._head.cache_clear()
            cold = lct_ge(d, c, coeffs)
            assert lct_ge(d, c, coeffs) == cold == expected
            assert criterion._table_for.cache_info()[:2] == (1, 1)

    def test_shortcuts_repeat_equal(self):
        for d, c, verdict, reason in SHORTCUTS:
            criterion._head.cache_clear()
            first = lct_ge(d, c, _positive_coeffs(d))
            assert first == (verdict, {
                "d": d, "c": frac_str(c), "p": None, "c1": None,
                "c2": None, "V": None, "reason": reason})
            assert lct_ge(d, c, _positive_coeffs(d)) == first

    def test_validation_errors_repeat(self):
        """Each refused call raises the same error on a cold and on a warm
        head cache, and reads neither cache: a float degree equal to a
        cached int one does not reach the int's entry."""
        d, c, coeffs = _cusp()
        x = PSeries.monomial("x", 1)
        # coefficients in two variables, at a shortcut's c and a table's
        mixed = (PSeries.monomial("x", 2), PSeries.monomial("t", 3))
        bad = [
            (d, 0.5, coeffs), (3.0, c, coeffs), (F(3), c, coeffs),
            (True, c, coeffs[:1]), (0, c, ()), (d, c, coeffs[:2]),
            (d, c, coeffs[:2] + (5,)),
            (d, c, coeffs[:2] + (PSeries.one("x"),)),
            (d, "1/0", coeffs), (2, F(3, 4), (x, 2.0)),
            (2, F(1, 2), mixed), (2, F(3, 2), mixed), (2, F(2, 3), mixed),
            (d, True, coeffs), (2, False, (x, x)), (True, True, coeffs),
        ]

        def errors():
            found = []
            for args in bad:
                with pytest.raises((TypeError, ValueError,
                                    ZeroDivisionError)) as info:
                    lct_ge(*args)
                found.append((info.type, str(info.value)))
            return found

        criterion._head.cache_clear()
        cold = errors()
        assert criterion._head.cache_info().currsize == 0
        lct_ge(d, c, coeffs)
        lct_ge(2, F(3, 4), (x, x))
        heads = criterion._head.cache_info()
        tables = criterion._table_for.cache_info()
        assert errors() == cold
        assert criterion._head.cache_info() == heads
        assert criterion._table_for.cache_info() == tables
        assert [t for t, _ in cold] == [
            TypeError, TypeError, TypeError, TypeError, ValueError,
            ValueError, TypeError, ValueError, ZeroDivisionError,
            TypeError, ValueError, ValueError, ValueError,
            TypeError, TypeError, TypeError]
        assert {m for _, m in cold[-6:-3]} == {
            "series coefficients use different variables"}
        # a bool threshold is refused before the degree is read, as a bool
        # degree is, and by choose_p too; int and str thresholds are read
        assert cold[-3:] == [
            (TypeError, "cannot interpret True as an exact rational"),
            (TypeError, "cannot interpret False as an exact rational"),
            (TypeError, "cannot interpret True as an exact rational")]
        for flag in (True, False):
            with pytest.raises(TypeError, match="cannot interpret"):
                choose_p(2, flag)
        assert lct_ge(2, 1, (x, x)) == lct_ge(2, F(1), (x, x))
        assert lct_ge(d, "5/6", coeffs) == lct_ge(d, c, coeffs)
        assert choose_p(2, 1) == choose_p(2, "1") == choose_p(2, F(1))
        assert type(choose_p(2, 1).c) is F

    def test_truncated_outcome_is_cached(self):
        """Input that truncation leaves unknown builds its certificate
        once: y^2 + O(x^3) at three thresholds is one miss and two hits,
        each with the same reason and required hint."""
        cut = (PSeries.zero("x", 3), PSeries.zero("x", 3))
        reason = ("coefficient a_1 is unknown below its truncation and "
                  "controls the polygon; required truncation >= 4")
        criterion._table_for.cache_clear()
        counts = []
        for c in (F(3, 4), F(4, 5), F(5, 6)):
            verdict, diag = lct_ge(2, c, cut)
            assert (verdict, diag["V"], diag["reason"], diag["required"]) \
                == ("unknown", None, reason, "4")
            info = criterion._table_for.cache_info()
            counts.append((info.misses, info.hits, info.currsize))
        assert counts == [(1, 0, 1), (1, 1, 1), (1, 2, 1)]


# ---------------------------------------------------------------------------
# Parameter sweep: pinned outputs and a table built once
# ---------------------------------------------------------------------------

def _sweep_family():
    """The 36 binomials y^d + x^k (d = 2..5, k = 2..10) and the first 50
    nondegenerate trinomials y^3 + x^a y + x^b in (a, b) order."""
    zero = PSeries.zero("x")
    family = [(d, (zero,) * (d - 1) + (PSeries.monomial("x", k),))
              for d in range(2, 6) for k in range(2, 11)]
    found = 0
    for a in range(1, 11):
        for b in range(1, 11):
            if found == 50:
                return family
            f = MPoly(("x", "y"), {(0, 3): F(1), (a, 1): F(1), (b, 0): F(1)})
            try:
                lct_plane_nondegenerate(f)
            except DegenerateError:
                continue
            family.append((3, (zero, PSeries.monomial("x", a),
                               PSeries.monomial("x", b))))
            found += 1
    raise AssertionError("fewer than 50 nondegenerate trinomials")


def _grid(d):
    return [F(1, d) + (1 - F(1, d)) * F(j, 40) for j in range(1, 41)]


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(json.dumps(line, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


class TestSweepPins:
    def test_sweep_verdicts_and_diagnostics(self):
        family = _sweep_family()
        assert len(family) == 86
        lines = []
        for d, coeffs in family:
            for c in _grid(d):
                verdict, diag = lct_ge(d, c, coeffs)
                lines.append([verdict, diag])
        for d, coeffs in family[::9]:
            for bound in (3, 6):
                cut = tuple(a.truncated(F(bound)) for a in coeffs)
                for c in _grid(d):
                    verdict, diag = lct_ge(d, c, cut)
                    lines.append([bound, verdict, diag])
        assert len(lines) == 3440 + 10 * 2 * 40
        assert _digest(lines) == SWEEP_DIGEST

    def test_truncated_leg_is_sound(self):
        """Every yes or no of the sweep's truncated leg is the verdict of
        the exact input and of a random completion of the cut: the
        certificate's root tree fixes the rows of every completion."""
        rng = random.Random(16)
        decided = unknown = 0
        for d, coeffs in _sweep_family()[::9]:
            for bound in (3, 6):
                cut = tuple(a.truncated(F(bound)) for a in coeffs)
                other = tuple(
                    PSeries("x", {**a.terms,
                                  F(rng.randint(2 * bound, 4 * bound), 2):
                                  F(rng.choice([-2, -1, 1, 3]))})
                    for a in cut)
                for c in _grid(d):
                    verdict, _ = lct_ge(d, c, cut)
                    if verdict == "unknown":
                        unknown += 1
                        continue
                    decided += 1
                    assert verdict == lct_ge(d, c, coeffs)[0], (d, bound, c)
                    assert verdict == lct_ge(d, c, other)[0], (d, bound, c)
        assert (decided, unknown) == (560, 240)

    def test_forty_thresholds_build_one_table(self, monkeypatch):
        built = []
        real = criterion.certified_rows
        monkeypatch.setattr(criterion, "certified_rows",
                            lambda h: built.append(real(h)) or built[-1])
        criterion._table_for.cache_clear()
        zero = PSeries.zero("x")
        coeffs = (zero, PSeries.monomial("x", 3), PSeries.monomial("x", 5))
        for c in _grid(3):
            lct_ge(3, c, coeffs)
        info = criterion._table_for.cache_info()
        criterion._table_for.cache_clear()
        assert (info.misses, info.hits) == (1, 39)
        # the three roots share one row, 3/2, 3/2 as numerators over
        # L = 2, so the one table keeps one tuple of prefix sums
        assert built == [RootRows(2, ((0, 3, 6),))]


# ---------------------------------------------------------------------------
# Table misses: pinned outputs of the exact and truncated certificate
# ---------------------------------------------------------------------------

def _rational_series(rng, terms):
    """A series of positive order with `terms` terms, exponents over 1, 2
    or 3 and coefficients over 1, 2, 3 or 5."""
    return PSeries("x", {F(rng.randint(1, 9), rng.choice((1, 2, 3))):
                         F(rng.choice((-3, -2, -1, 1, 2, 3)),
                           rng.choice((1, 2, 3, 5)))
                         for _ in range(terms)})


def _clustered_roots(rng, d):
    """d roots: each repeats an earlier one with probability 0.1, or
    copies an earlier root's terms below a random exponent with probability
    0.7 and adds one or two terms of its own."""
    roots = []
    while len(roots) < d:
        if roots and rng.random() < 0.1:
            roots.append(rng.choice(roots))
            continue
        terms = {}
        if roots and rng.random() < 0.7:
            cut = rng.randint(1, 5)
            terms = {e: c for e, c in rng.choice(roots).terms.items()
                     if e < cut}
        for _ in range(rng.randint(1, 2)):
            terms[F(rng.randint(1, 9), rng.choice((1, 1, 2)))] = \
                F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
        root = PSeries("x", terms)
        if all(root != r for r in roots):
            roots.append(root)
    return roots


def _miss_corpus():
    """(d, coeffs) pairs: exact inputs with rational coefficients and
    ramified exponents at d = 2..5, each also cut at two truncations and
    with all but a_d cut low, and the coefficients of clustered roots at
    d = 2..5, each also cut at one truncation."""
    rng = random.Random(32)
    corpus = []
    for d in range(2, 6):
        for _ in range(12):
            coeffs = tuple(_rational_series(rng, rng.randint(0, 2))
                           for _ in range(d - 1))
            coeffs += (_rational_series(rng, rng.randint(1, 2)),)
            corpus.append((d, coeffs))
            for bound in (F(rng.randint(2, 9), rng.choice((1, 2))),
                          F(rng.randint(8, 16))):
                corpus.append((d, tuple(a.truncated(bound)
                                        for a in coeffs)))
            # a_d exact and the others cut low: below h's polygon
            bound = F(rng.randint(1, 4), 2)
            corpus.append((d, tuple(a.truncated(bound)
                                    for a in coeffs[:-1]) + coeffs[-1:]))
        for _ in range(6):
            h = UPoly.from_roots("y", _clustered_roots(rng, d))
            corpus.append((d, h.coeffs))
            bound = F(rng.randint(6, 24), rng.choice((1, 2)))
            corpus.append((d, tuple(a.truncated(bound) for a in h.coeffs)))
    return corpus


class TestMissPins:
    def test_miss_verdicts_and_diagnostics(self):
        """Every verdict and diagnostic of distinct inputs at five
        thresholds each, from cold caches: the certificate's route from the
        coefficients to the table changes no byte.  Decided again on the
        warm caches, every decision a hit, they give the same digest."""
        criterion._table_for.cache_clear()
        criterion._head.cache_clear()
        lines, seen = [], set()
        for d, coeffs in _miss_corpus():
            seen.add(("L", any(c.denominator > 1 for a in coeffs
                               for c in a.terms.values())))
            seen.add(("R", any(a.ram > 1 for a in coeffs)))
            for j in range(1, 6):
                c = F(1, d) + (1 - F(1, d)) * F(j, 5)
                verdict, diag = lct_ge(d, c, coeffs)
                lines.append([d, [a.to_json() for a in coeffs], verdict,
                              diag])
                seen.add(verdict)
                seen.add(("V", None if diag["V"] is None
                          else diag["V"]["kind"]))
                if verdict == UNKNOWN:
                    # "a_<i>" names h's coefficient or D's
                    i = int(diag["reason"].split()[1][2:])
                    seen.add(("a_i of", "h" if i <= d else "D"))
                    seen.add(("reason", diag["reason"].split()[3]))
        assert len(lines) == 4 * (12 * 4 + 6 * 2) * 5
        assert seen >= {"yes", "no", "unknown", ("L", True), ("R", True),
                        ("V", OrderVal.EXACT), ("V", OrderVal.INFINITE),
                        ("V", None), ("a_i of", "h"), ("a_i of", "D"),
                        ("reason", "unknown"), ("reason", "only")}
        assert _digest(lines) == MISS_DIGEST
        misses = criterion._table_for.cache_info().misses
        warm = [[d, [a.to_json() for a in coeffs],
                 *lct_ge(d, F(1, d) + (1 - F(1, d)) * F(j, 5), coeffs)]
                for d, coeffs in _miss_corpus() for j in range(1, 6)]
        assert criterion._table_for.cache_info().misses == misses
        assert _digest(warm) == MISS_DIGEST


SWEEP_DIGEST = (
    "8677198a812725f6963836289235e2135ef15082af287232e10cf8b92be3f596")

MISS_DIGEST = (
    "3adc540faab8218cafeebd3ce669d6c9e93c1c92d71bc2867f28cb6f249c36d9")
