"""Difference-order rows from the exact certificate's root tree.

The count-pattern enumeration is checked against a brute force over
labelled ultrametrics, and every table certified_rows builds from a tree,
whether the counts fix the tree or the expansion picks it, is checked
against the denominator and distinct prefix sums of the rows of the
numeric expansion (diff_orders) or, where the roots are known, of the
explicit roots' rows."""

import itertools
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from lctkit import criterion, numeric, rootdata
from lctkit.criterion import choose_p, lct_ge
from lctkit.errors import ConsistencyError
from lctkit.numeric import diff_orders
from lctkit.poly import UPoly
from lctkit.rootdata import RootRows, _row_multisets, certified_rows
from lctkit.series import OrderVal, PSeries

F = Fraction


def mono(e, c=1):
    return PSeries.monomial("x", F(e), F(c))


# ---------------------------------------------------------------------------
# The enumeration against labelled ultrametrics
# ---------------------------------------------------------------------------

def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _chains(blocks):
    """Every chain of strictly finer set partitions from `blocks` down to
    singletons."""
    if all(len(b) == 1 for b in blocks):
        yield []
        return
    for split in itertools.product(*(list(_set_partitions(b))
                                     for b in blocks)):
        finer = [part for parts in split for part in parts]
        if len(finer) > len(blocks):
            for rest in _chains(finer):
                yield [finer] + rest


def brute_force(d):
    """{count pattern: set of row multisets} over every labelled
    ultrametric on d points: the pair (i, j) sits on level k when i and j
    share a block of the (k-1)-th partition of the chain but not of the
    k-th."""
    found = defaultdict(set)
    for chain in _chains([list(range(d))]):
        level = {}
        outer = [list(range(d))]
        for k, part in enumerate(chain):
            block = {i: n for n, b in enumerate(part) for i in b}
            for b in outer:
                for i, j in itertools.combinations(b, 2):
                    if block[i] != block[j]:
                        level[i, j] = level[j, i] = k
            outer = part
        counts = tuple(sum(1 for (i, j), k in level.items()
                           if i < j and k == n) for n in range(len(chain)))
        rows = tuple(sorted(tuple(sorted(level[i, j] for j in range(d)
                                         if j != i)) for i in range(d)))
        found[counts].add(rows)
    return found


def _compositions(n):
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, size = [], 1
        for cut in cuts:
            if cut:
                parts.append(size)
                size = 0
            size += 1
        yield tuple(parts + [size])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_patterns_match_brute_force(d):
    brute = brute_force(d)
    for counts in _compositions(d * (d - 1) // 2):
        assert _row_multisets(d, counts) == \
            tuple(sorted(brute.get(counts, ()))), counts
    ambiguous = sorted(c for c, rows in brute.items() if len(rows) > 1)
    assert ambiguous == ([] if d <= 4 else [(6, 2, 1, 1), (6, 3, 1)])


def test_enumeration_caches_are_bounded():
    """The pattern counts that size rootdata._TREE_CACHE, 1, 2, 6 and 18
    for d = 2..5, by brute force; both enumeration caches are bounded, and
    the bound holds the 365 patterns of every d <= 7."""
    assert [len(brute_force(d)) for d in (2, 3, 4, 5)] == [1, 2, 6, 18]
    for cache in (rootdata._row_multisets, rootdata._partitions):
        assert cache.cache_info().maxsize == rootdata._TREE_CACHE >= 365


def test_d5_pattern_is_ambiguous():
    # 6 pairs at a, 3 at b, 1 at c: blocks of 3 and 2 split at a; then the
    # 3 splits fully at b and the 2 at c, or the 3 splits 2 + 1 and the 2
    # splits at b, leaving the 2 from the 3 for c
    assert _row_multisets(5, (6, 3, 1)) == (
        ((0, 0, 0, 1), (0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 1, 2),
         (0, 0, 1, 2)),
        ((0, 0, 0, 2), (0, 0, 0, 2), (0, 0, 1, 1), (0, 0, 1, 1),
         (0, 0, 1, 1)))


# ---------------------------------------------------------------------------
# Rows decided from the certificate against the expansion
# ---------------------------------------------------------------------------

def _key(rows):
    return sorted(sorted(v.sort_key() for v in row) for row in rows)


def _sorted(table):
    """A RootRows with its distinct prefix sums sorted, as the table_of
    fixture builds them."""
    return RootRows(table.denominator,
                    tuple(sorted(table.distinct_prefix_sums)))


def _explicit_rows(roots):
    return [[(a - b).order() if j != i else OrderVal.infinite()
             for j, b in enumerate(roots)] for i, a in enumerate(roots)]


def _sparse(rng, d):
    coeffs = []
    for _ in range(d):
        terms = {}
        for _ in range(rng.randint(0, 2)):
            c = F(rng.randint(-5, 5))
            if c:
                terms[F(rng.randint(1, 6), rng.choice([1, 1, 2, 3]))] = c
        coeffs.append(PSeries("x", terms))
    return UPoly("y", coeffs), None


def _shared_prefix(rng, d):
    """Roots w + tail: a shared prefix, sometimes a second shared term or
    a repeated root."""
    w = {F(e): F(rng.choice([-2, -1, 1, 3]))
         for e in rng.sample(range(1, 4), rng.randint(1, 2))}
    top = max(w)
    roots = []
    for _ in range(d):
        tail = {top + rng.randint(1, 3): F(rng.choice([-2, -1, 1, 2]))}
        if rng.random() < 0.3:
            tail[top + 4] = F(rng.choice([-1, 1]))
        roots.append(PSeries("x", {**w, **tail}))
    if rng.random() < 0.4:
        roots[-1] = roots[rng.randrange(d - 1)]
    return UPoly.from_roots("y", roots), roots


def _binomials(rng, d):
    """Products of y^k - c x^e: conjugate and ramified roots."""
    h = None
    left = d
    while left:
        k = rng.randint(1, min(3, left))
        left -= k
        factor = UPoly("y", [PSeries.zero("x")] * (k - 1) +
                       [mono(rng.randint(1, 7), rng.choice([-2, -1, 1, 3]))])
        h = factor if h is None else _mul(h, factor)
    return h, None


def _mul(f, g):
    a = [PSeries.one("x"), *f.coeffs]
    b = [PSeries.one("x"), *g.coeffs]
    out = [PSeries.zero("x")] * (len(a) + len(b) - 1)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            out[i + j] = out[i + j] + p * q
    return UPoly("y", out[1:])


def corpus(seed, degrees):
    rng = random.Random(seed)
    return [make(rng, d) for d in degrees
            for make in (_sparse, _shared_prefix, _binomials)]


@pytest.mark.parametrize("seed,degrees", [
    (1, (2, 2, 2, 3, 3, 3, 3, 4, 4)),
    (2, (2, 3, 3, 3, 4, 4, 4)),
    (3, (5, 5, 5)),
])
def test_certified_rows_match_expansion(seed, degrees, table_of):
    for h, roots in corpus(seed, degrees):
        rows = certified_rows(h)
        assert isinstance(rows, RootRows)
        if roots:
            assert _sorted(rows) == table_of(_explicit_rows(roots)), roots
        assert _sorted(rows) == table_of(diff_orders(h).rows), h


def _clustered_roots(rng, d, depth):
    """d roots that share random prefixes: each root walks 1..depth terms
    down a tree whose branches differ in one coefficient, so the roots fall
    into nested clusters; sometimes a root repeats."""
    roots = []
    for _ in range(d):
        terms, e = {}, F(0)
        for _ in range(rng.randint(1, depth)):
            e += F(1, rng.choice([1, 1, 2]))
            terms[e] = F(rng.choice([-1, 1, 2]))
        roots.append(PSeries("x", terms))
    if rng.random() < 0.2:
        roots[-1] = roots[0]
    return roots


@pytest.mark.parametrize("seed,d,depth,tree", [
    (17, 6, 3, True), (1, 6, 3, False), (9, 7, 3, True), (1, 7, 2, False),
    (6, 8, 2, True), (1, 8, 2, False)])
def test_explicit_roots_at_high_degree(monkeypatch, seed, d, depth, tree,
                                      table_of):
    """The certificate levels that certified_rows reads are the orders
    ord(alpha_i - alpha_j) of explicit roots at d = 6..8; where the root
    tree decides the rows (`tree`), they are the roots' rows."""
    def undecided(*args):
        raise LookupError("the root tree leaves the rows open")

    read = []

    def levels(g):
        read.append(real(g))
        return read[-1]

    real = rootdata._difference_levels
    monkeypatch.setattr(numeric, "_expanded", undecided)
    monkeypatch.setattr(rootdata, "_difference_levels", levels)
    roots = _clustered_roots(random.Random(seed), d, depth)
    want = sorted(((b - a).order()
                   for a, b in itertools.permutations(roots, 2)),
                  key=OrderVal.sort_key)
    try:
        rows = certified_rows(UPoly.from_roots("y", roots))
    except LookupError:
        rows = None
    assert rootdata._order_list(*read[0]) == want, roots
    assert (rows is not None) == tree
    if tree:
        assert _sorted(rows) == table_of(_explicit_rows(roots)), roots


def _counted(monkeypatch, module, name, calls=None):
    """Replace module.name by a wrapper that logs the degree of each call's
    polynomial; returns the log (a fresh one unless `calls` is given)."""
    calls = [] if calls is None else calls
    real = getattr(module, name)

    def counted(g, *args, **kwargs):
        calls.append(g.degree)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_ambiguous_pattern_falls_back_to_expansion(monkeypatch, table_of):
    # the d = 5 pattern above: blocks {x, x + x^3} and {x^2, 2x^2, 3x^2}
    roots = [mono(1), mono(1) + mono(3), mono(2), mono(2, 2), mono(2, 3)]
    h = UPoly.from_roots("y", roots)
    expanded = _counted(monkeypatch, numeric, "_expanded")
    # numeric binds its own _difference_levels (numeric.diff_orders reads
    # the certificate there), so both bindings log to one list
    read = _counted(monkeypatch, rootdata, "_difference_levels")
    _counted(monkeypatch, numeric, "_difference_levels", read)
    criterion._table_for.cache_clear()
    table = criterion._table_for(h.coeffs)
    # one expansion, and the fallback reuses the certificate read once
    assert (expanded, read) == ([5], [5])
    # the expansion picks the tree, and the table is built from it
    assert isinstance(table, RootRows)
    assert _sorted(table) == table_of(_explicit_rows(roots))
    assert _key(_explicit_rows(roots)) == _key(diff_orders(h).rows)


def _pattern(h):
    """The certificate's count pattern and its row multisets."""
    levels, infinite = rootdata._difference_levels(h)
    counts = [mult // 2 for _, _, mult in levels]
    if infinite:
        counts.append(infinite // 2)
    return _row_multisets(h.degree, tuple(counts))


@pytest.mark.parametrize("seed,d,depth", [
    (8, 5, 2), (3, 5, 3), (8, 6, 2), (3, 6, 3), (8, 7, 2), (16, 7, 3)])
def test_expansion_picks_one_enumerated_tree(seed, d, depth, table_of):
    """On ambiguous patterns of distinct explicit roots at d = 5..7, where
    the roots' tree is not the first one enumerated, the table built from
    the tree the expansion picks has the explicit roots' rows and the
    expansion's."""
    roots = _clustered_roots(random.Random(seed), d, depth)
    assert len(set(map(repr, roots))) == d
    h = UPoly.from_roots("y", roots)
    assert len(_pattern(h)) > 1
    rows = certified_rows(h)
    assert isinstance(rows, RootRows)
    assert _sorted(rows) == table_of(_explicit_rows(roots)), roots
    assert _key(_explicit_rows(roots)) == _key(diff_orders(h).rows), roots


def _series(*terms):
    """The series sum of c x^e over the pairs (e, c)."""
    return PSeries("x", {F(e): F(c) for e, c in terms})


def _v_of(rows, c):
    """V at c from rows of exact or infinite orders, by OrderVal sums."""
    rows = [sorted(row, key=OrderVal.sort_key) for row in rows]
    ctx = choose_p(len(rows), c)
    return OrderVal.max_of(
        (OrderVal.exact(0) if ctx.c1 == 0 else
         OrderVal.sum_of(row[:ctx.p - 1]).scale(ctx.c1)) +
        OrderVal.sum_of(row[:ctx.p]).scale(ctx.c2) for row in rows)


W = ((1, 1), (3, 3), (4, -2))  # x + 3x^3 - 2x^4


@pytest.mark.parametrize("roots", [
    # d = 7 and 6, ambiguous patterns: an expansion level below a shared
    # prefix meets a double characteristic root beside other roots
    [_series((4, 3), (5, -4)), _series((4, 3), (5, 2)),
     _series((3, -2), (6, 3)), _series((3, -2), (6, -3)),
     _series((4, 3), (6, -4)), _series((3, -2), (6, 3), (7, 2)),
     _series((3, -2), (6, 1), (9, -4))],
    [_series((6, 3), (8, -2)), _series((3, -1), (4, 2)),
     _series((3, -1), (4, -2), (6, 4)), _series((5, -3)),
     _series((3, -1), (4, 2), (6, -2)), _series((2, -3), (4, 3))],
    # clustered roots at d = 7, 8 and 6: each root copies an earlier
    # root's terms below a cut and adds one or two
    [_series((1, -4)), _series((1, -4), (2, 2)), _series((1, -4), (2, 4)),
     _series((8, 3)), _series((1, -3), (2, 2), (4, 1)),
     _series((1, -4), (2, 4), (7, 1), (9, -4)), _series((1, -6), (2, 4))],
    [_series((3, -3), (8, 4)), _series((3, -2)),
     _series((2, -4), (3, -2), (4, -1)),
     _series((2, -4), (3, -2), (4, -1), (5, -1)),
     _series((2, 3), (3, -3)), _series((2, -4), (3, -2), (4, -5)),
     _series((2, -4), (3, -2), (4, 4), (6, -4)), _series((4, 4))],
    [_series((1, -4), (2, -3)), _series((1, -4), (2, -3), (5, 2)),
     _series((1, -4), (9, 2)), _series((6, 1)), _series((1, -4), (2, -1)),
     _series((1, -1), (3, -3))],
    # a repeated root beside a simple one: (z + 1)^2 (z - 1) at x^6
    [_series(*W, (6, -1)), _series(*W, (6, -1)), _series(*W, (6, 1))],
], ids=["d7", "d6", "clustered-d7", "clustered-d8", "clustered-d6",
        "double-beside-simple"])
def test_multiple_characteristic_root_beside_others(roots, table_of):
    """Where a characteristic polynomial of the expansion has a multiple
    root that is not its only root, the table, the expansion's rows and
    lct_ge's V are those of the explicit roots."""
    h = UPoly.from_roots("y", roots)
    explicit = _explicit_rows(roots)
    assert _sorted(certified_rows(h)) == table_of(explicit)
    assert _key(diff_orders(h).rows) == _key(explicit)
    criterion._table_for.cache_clear()
    for c in (F(1, 2), F(2, 3), F(1)):
        assert lct_ge(h.degree, c, h.coeffs)[1]["V"] == \
            _v_of(explicit, c).to_json()


@pytest.mark.parametrize("rows", [
    # the d = 5 pattern's pairs per level, but a root with two pairs on
    # the top level, which holds one pair: no tree has these rows
    [[1, 1, 1, 2, None]] * 2 + [[1, 1, 2, 2, None]] * 2 +
    [[1, 1, 3, 3, None]],
    # the first tree's rows with its top level known only from below,
    # which is no level of the certificate
    [[1, 1, 1, 2, None]] * 2 + [[1, 1, 2, 2, None]] +
    [[1, 1, 2, ">=3", None]] * 2])
def test_expansion_outside_the_trees_raises(monkeypatch, rows):
    roots = [mono(1), mono(1) + mono(3), mono(2), mono(2, 2), mono(2, 3)]
    h = UPoly.from_roots("y", roots)

    def value(v):
        if v is None:
            return OrderVal.infinite()
        if isinstance(v, str):
            return OrderVal.at_least(int(v[2:]))
        return OrderVal.exact(v)

    table = type("Expanded", (), {
        "rows": [tuple(map(value, row)) for row in rows]})
    monkeypatch.setattr(numeric, "_expanded", lambda *args: table)
    with pytest.raises(ConsistencyError, match="no root tree"):
        certified_rows(h)


def test_exact_decisions_without_expansion(monkeypatch):
    """With the expansion disabled, lct_ge decides every exact d <= 4 input
    with the V of the expansion's (or the explicit roots') table."""
    cases = corpus(4, (2, 2, 3, 3, 3, 4, 4))
    rng = random.Random(5)
    want = []
    for h, roots in cases:
        d = h.degree
        c = F(1, d) + (1 - F(1, d)) * F(rng.randint(1, 10), 10)
        want.append((c, _v_of(_explicit_rows(roots) if roots
                              else diff_orders(h).rows, c)))

    def refuse(*args, **kwargs):
        raise AssertionError("the expansion ran")

    monkeypatch.setattr(numeric, "puiseux_expand", refuse)
    criterion._table_for.cache_clear()
    for (h, _), (c, v) in zip(cases, want):
        verdict, diag = lct_ge(h.degree, c, h.coeffs)
        assert diag["V"] == v.to_json()
        assert verdict == ("yes" if v.is_exact and v.value <= 1 else "no")


# ---------------------------------------------------------------------------
# Checks on the certificate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cert,message", [
    ([1, 1, 1, 2, 2, 2], "do not come in pairs"),
    # d = 3 cannot put a single pair on its lowest level
    ([1, 1, 2, 2, 2, 2], "no root tree"),
])
def test_inconsistent_certificate_raises(monkeypatch, cert, message):
    # the int certificate, the difference polynomial's root orders:
    # (order numerator, denominator, multiplicity) of each finite level,
    # and no infinite orders
    levels = tuple((v, 1, cert.count(v)) for v in sorted(set(cert)))
    monkeypatch.setattr(rootdata, "_difference_levels",
                        lambda g: (levels, 0))
    h = UPoly.from_roots("y", [mono(1), mono(2), mono(3)])
    with pytest.raises(ConsistencyError, match=message):
        certified_rows(h)
