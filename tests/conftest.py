"""Fixtures shared by the test modules."""

import math
from fractions import Fraction

import pytest

from lctkit.mpoly import MPoly
from lctkit.rootdata import RootRows
from lctkit.series import OrderVal


def _table_of(rows):
    """The RootRows of rows of exact or infinite OrderVals: the common
    denominator L of their finite values and the sorted distinct tuples
    of their prefix sums over L, each stopping at the row's first infinite
    entry."""
    rows = [sorted(row, key=OrderVal.sort_key) for row in rows]
    den = math.lcm(*(v.value.denominator for row in rows for v in row
                     if not v.is_infinite))
    distinct = set()
    for row in rows:
        sums = [0]
        for v in row:
            if v.is_infinite:
                break
            assert v.is_exact
            sums.append(sums[-1] + int(v.value * den))
        distinct.add(tuple(sums))
    return RootRows(den, tuple(sorted(distinct)))


@pytest.fixture
def table_of():
    """The test-side table of OrderVal rows, what a RootRows keeps of
    them: a reference that shares no code with rootdata.certified_rows."""
    return _table_of


def _centers_of(ctx, table):
    """The center c1 * S_(p-1) + c2 * S_p of each distinct row of a table,
    from its int prefix sums over L, as an OrderVal: infinite when the row
    stores no S_p.  A test-side copy of the formula lct_ge runs on ints."""
    p, den = ctx.p, table.denominator
    return [OrderVal.infinite() if p >= len(sums) else
            OrderVal.exact((ctx.c1 * sums[p - 1] + ctx.c2 * sums[p]) / den)
            for sums in table.distinct_prefix_sums]


@pytest.fixture
def centers_of():
    """Each distinct row's center from a table's prefix sums, computed
    in the tests rather than read from lctkit.criterion."""
    return _centers_of


def _materialized_ord(a, arc):
    """The order of a Q-ideal along an arc with every term multiplied out
    at the common denominator m of its exponents: the least order of
    prod g^(e m), over m.  It multiplies polynomials where qi_ord adds the
    orders of the generators."""
    if a.is_zero:
        return OrderVal.infinite()
    m = math.lcm(*(e.denominator for t in a.terms for _, e in t))
    vals = []
    for t in a.terms:
        p = MPoly.const(1)
        for g, e in t:
            p = p * g ** int(e * m)
        val = p.eval_series({v: arc[v] for v in p.vars})
        vals.append(val.order().scale(Fraction(1, m)))
    return OrderVal.min_of(vals)


@pytest.fixture
def materialized_ord():
    """The order of a Q-ideal along an arc with its terms multiplied out,
    the oracle for qideal.qi_ord."""
    return _materialized_ord
