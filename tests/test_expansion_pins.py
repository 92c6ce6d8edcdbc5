"""Outputs of the Newton-Puiseux layer pinned on a seeded corpus.

Difference-order tables, truncation hints and lct_ge verdicts of d = 2..5
polynomials (sparse random coefficients, roots sharing a prefix, repeated
roots, products of binomials with conjugate and ramified roots), each exact
and truncated at two bounds.  The expected strings were recorded before the
expansion gained its closed-form characteristic roots and depth cut; any
change to them is a change of output, not of speed.  In two shared-prefix
cases with a repeated root (12 and 14) the characteristic polynomial below
the shared prefix has a double root beside a simple one; their tables were
first pinned as a ConsistencyError, and now read as the explicit roots'
tables.  Every shared-prefix table and verdict is checked against the
table of its explicit roots.  Truncated verdicts come from the same tree,
which can decide where the expanded table still asks for more terms
(case 2).  Only public API is used, so the same file
runs against any version of the package; run it as a script to print the
pins for the package on the path.
"""

import random
import re
from fractions import Fraction

import pytest

from lctkit.criterion import choose_p, lct_ge
from lctkit.errors import LctkitError, TruncationError
from lctkit.numeric import diff_orders
from lctkit.mpoly import taylor_shift
from lctkit.poly import UPoly
from lctkit.series import OrderVal, PSeries, frac_str

F = Fraction
BOUNDS = (F(3), F(6))


def _sparse(rng, d):
    coeffs = []
    for _ in range(d):
        terms = {}
        for _ in range(rng.randint(0, 2)):
            e = F(rng.randint(1, 6), rng.choice([1, 1, 2, 3]))
            c = F(rng.randint(-5, 5))
            if c:
                terms[e] = c
        coeffs.append(PSeries("x", terms))
    return UPoly("y", coeffs)


def _shared_prefix_roots(rng, d):
    exps = sorted(rng.sample(range(1, 5), rng.randint(1, 3)))
    w = {F(e): F(rng.choice([-3, -2, -1, 1, 2, 3])) for e in exps}
    tails = [(rng.randint(exps[-1] + 1, exps[-1] + 4),
              rng.choice([-3, -1, 1, 2])) for _ in range(d)]
    roots = [PSeries("x", {**w, F(e): F(c)}) for e, c in tails]
    if rng.random() < 0.25:
        roots[-1] = roots[0]
    return roots


def _shared_prefix(rng, d):
    return UPoly.from_roots("y", _shared_prefix_roots(rng, d))


def _binomials(rng, d):
    dense = [PSeries.one("x")]
    while len(dense) <= d:
        k = rng.randint(1, min(3, d + 1 - len(dense)))
        tail = PSeries.monomial("x", F(rng.randint(1, 7)),
                                F(rng.choice([-2, -1, 1, 2, 3])))
        factor = [PSeries.one("x")] + [PSeries.zero("x")] * (k - 1) + [tail]
        prod = [PSeries.zero("x")] * (len(dense) + k)
        for i, a in enumerate(dense):
            for j, b in enumerate(factor):
                prod[i + j] = prod[i + j] + a * b
        dense = prod
    h = UPoly("y", dense[1:])
    if rng.random() < 0.5:
        h = taylor_shift(h, PSeries.monomial("x", F(1),
                                             F(rng.choice([-1, 1, 2]))))
    return h


SEED = 20261018
DEGREES = (2, 2, 3, 3, 3, 4, 4, 5)


def corpus():
    """[(h, c)]: the polynomials, each with a threshold c for lct_ge."""
    rng = random.Random(SEED)
    polys = [make(rng, d) for make in (_sparse, _shared_prefix, _binomials)
             for d in DEGREES]
    rng = random.Random(7)
    return [(h, F(rng.randint(30, 100), 100)) for h in polys]


def shared_prefix_roots():
    """{case index: roots} of the shared-prefix cases, from the same draws
    as corpus()."""
    rng = random.Random(SEED)
    for d in DEGREES:
        _sparse(rng, d)
    return {len(DEGREES) + k: _shared_prefix_roots(rng, d)
            for k, d in enumerate(DEGREES)}


CASES = corpus()


def _code(v):
    if v.is_infinite:
        return "inf"
    return (">=" if v.is_at_least else "") + frac_str(v.value)


def _outcome(fn):
    try:
        return fn()
    except TruncationError as exc:
        return f"required={frac_str(exc.required)}"
    except LctkitError as exc:
        return f"{type(exc).__name__}: {exc}"


def record(h, c):
    """The table of h and its lct_ge verdict (with the hint when unknown),
    then the same two for h truncated at each bound; a table reads row by
    row, rows separated by ';'."""
    def table(g):
        return ";".join(",".join(_code(v) for v in row)
                        for row in diff_orders(g).entries)

    def verdict(g):
        v, diag = lct_ge(g.degree, c, g.coeffs)
        return v + ("" if diag.get("required") is None
                    else "@" + diag["required"])

    parts = [_outcome(lambda: table(h)), _outcome(lambda: verdict(h))]
    for bound in BOUNDS:
        cut = UPoly("y", [a.truncated(bound) for a in h.coeffs])
        parts.append(_outcome(lambda: table(cut)))
        parts.append(_outcome(lambda: verdict(cut)))
    return tuple(parts)


PINNED = [
    ('inf,1/6;1/6,inf',
     'yes',
     'inf,1/6;1/6,inf',
     'yes',
     'inf,1/6;1/6,inf',
     'yes'),
    ('inf,1;1,inf',
     'yes',
     'inf,1;1,inf',
     'yes',
     'inf,1;1,inf',
     'yes'),
    ('inf,1/2,1/2;1/2,inf,1/2;1/2,1/2,inf',
     'yes',
     'required=4',
     'yes',
     'required=7',
     'yes'),
    ('inf,1/4,1/4;1/4,inf,1/4;1/4,1/4,inf',
     'yes',
     'inf,1/4,1/4;1/4,inf,1/4;1/4,1/4,inf',
     'yes',
     'inf,1/4,1/4;1/4,inf,1/4;1/4,1/4,inf',
     'yes'),
    ('inf,2/3,2/3;2/3,inf,2/3;2/3,2/3,inf',
     'yes',
     'inf,2/3,2/3;2/3,inf,2/3;2/3,2/3,inf',
     'yes',
     'inf,2/3,2/3;2/3,inf,2/3;2/3,2/3,inf',
     'yes'),
    ('inf,inf,inf,1/2;inf,inf,inf,1/2;inf,inf,inf,1/2;1/2,1/2,1/2,inf',
     'no',
     'required=5',
     'unknown@5',
     'required=7',
     'unknown@7'),
    ('inf,1/3,1/3,1/3;1/3,inf,1/3,1/3;1/3,1/3,inf,1/3;1/3,1/3,1/3,inf',
     'yes',
     'inf,1/3,1/3,1/3;1/3,inf,1/3,1/3;1/3,1/3,inf,1/3;1/3,1/3,1/3,inf',
     'yes',
     'inf,1/3,1/3,1/3;1/3,inf,1/3,1/3;1/3,1/3,inf,1/3;1/3,1/3,1/3,inf',
     'yes'),
    ('inf,inf,inf,1,1;inf,inf,inf,1,1;inf,inf,inf,1,1;1,1,1,inf,1;1,1,1,1,inf',
     'no',
     'required=8',
     'unknown@8',
     'required=8',
     'unknown@8'),
    ('inf,5;5,inf',
     'yes',
     'required=4',
     'yes',
     'required=7',
     'yes'),
    ('inf,inf;inf,inf',
     'no',
     'required=5',
     'unknown@5',
     'required=7',
     'unknown@7'),
    ('inf,6,5;6,inf,5;5,5,inf',
     'no',
     'required=4',
     'unknown@4',
     'required=14',
     'unknown@14'),
    ('inf,inf,5;inf,inf,5;5,5,inf',
     'yes',
     'required=8',
     'unknown@8',
     'required=7',
     'unknown@7'),
    ('inf,6,6;6,inf,inf;6,inf,inf',
     'no',
     'required=4',
     'unknown@4',
     'required=10',
     'unknown@10'),
    ('inf,4,4,4;4,inf,4,4;4,4,inf,inf;4,4,inf,inf',
     'no',
     'required=11',
     'unknown@11',
     'required=10',
     'unknown@10'),
    ('inf,6,6,6;6,inf,6,6;6,6,inf,inf;6,6,inf,inf',
     'no',
     'required=11',
     'unknown@11',
     'required=10',
     'unknown@10'),
    ('inf,inf,2,2,2;inf,inf,2,2,2;2,2,inf,2,2;2,2,2,inf,2;2,2,2,2,inf',
     'no',
     'required=8',
     'unknown@8',
     'required=58',
     'unknown@58'),
    ('inf,1/2;1/2,inf',
     'yes',
     'inf,1/2;1/2,inf',
     'yes',
     'inf,1/2;1/2,inf',
     'yes'),
    ('inf,3;3,inf',
     'yes',
     'required=4',
     'yes',
     'required=7',
     'yes'),
    ('inf,1/2,1/2;1/2,inf,1/2;1/2,1/2,inf',
     'yes',
     'inf,1/2,1/2;1/2,inf,1/2;1/2,1/2,inf',
     'yes',
     'inf,1/2,1/2;1/2,inf,1/2;1/2,1/2,inf',
     'yes'),
    ('inf,7/3,7/3;7/3,inf,7/3;7/3,7/3,inf',
     'no',
     'required=4',
     'unknown@4',
     'required=7',
     'unknown@7'),
    ('inf,2,2;2,inf,2;2,2,inf',
     'yes',
     'required=4',
     'unknown@4',
     'required=16',
     'unknown@16'),
    ('inf,7/3,7/3,7/3;7/3,inf,7/3,7/3;7/3,7/3,inf,7/3;7/3,7/3,7/3,inf',
     'no',
     'required=6',
     'unknown@6',
     'required=15',
     'unknown@15'),
    ('inf,1,1,1;1,inf,7/2,7/2;1,7/2,inf,7/2;1,7/2,7/2,inf',
     'no',
     'required=6',
     'unknown@6',
     'required=18',
     'unknown@18'),
    ('inf,7/3,7/3,7/3,2;7/3,inf,7/3,7/3,2;7/3,7/3,inf,7/3,2;'
     '7/3,7/3,7/3,inf,2;2,2,2,2,inf',
     'no',
     'required=8',
     'unknown@8',
     'required=58',
     'unknown@58'),
]


@pytest.mark.parametrize("index", range(len(PINNED)))
def test_outputs_match_pins(index):
    assert record(*CASES[index]) == PINNED[index]


def test_corpus_is_pinned_in_full():
    assert len(PINNED) == len(CASES)


ROOTS = shared_prefix_roots()


def _weighted(c, v):
    return OrderVal.exact(0) if c == 0 else v.scale(c)


@pytest.mark.parametrize("index", sorted(ROOTS))
def test_shared_prefix_verdicts_match_explicit_roots(index):
    """The exact lct_ge verdict and V against V computed from the table
    ord(alpha_i - alpha_j) of the explicit roots, by series subtraction."""
    (h, c), roots = CASES[index], ROOTS[index]
    assert UPoly.from_roots("y", roots) == h
    d = h.degree
    verdict, diag = lct_ge(d, c, h.coeffs)
    if c <= F(1, d):
        assert verdict == "yes" and diag["V"] is None
        return
    rows = [sorted(((a - b).order() if j != i else OrderVal.infinite()
                    for j, b in enumerate(roots)), key=OrderVal.sort_key)
            for i, a in enumerate(roots)]
    ctx = choose_p(d, c)
    v = OrderVal.max_of(
        _weighted(ctx.c1, OrderVal.sum_of(row[:ctx.p - 1])) +
        _weighted(ctx.c2, OrderVal.sum_of(row[:ctx.p])) for row in rows)
    assert diag["V"] == v.to_json()
    assert verdict == ("yes" if v.is_exact and v.value <= 1 else "no")


@pytest.mark.parametrize("index", sorted(ROOTS))
def test_shared_prefix_tables_match_explicit_roots(index):
    """The pinned exact table of each shared-prefix case against the table
    ord(alpha_i - alpha_j) of its explicit roots, as multisets of rows."""
    roots = ROOTS[index]
    explicit = [[_code((a - b).order() if j != i else OrderVal.infinite())
                 for j, b in enumerate(roots)] for i, a in enumerate(roots)]
    pinned = [row.split(",") for row in PINNED[index][0].split(";")]
    assert sorted(map(sorted, pinned)) == sorted(map(sorted, explicit))


def _literal(part, indent):
    """part as adjacent string literals within 79 columns, split after a
    ';' or a space."""
    lines = [""]
    for piece in re.split(r"(?<=[; ])", part):
        if lines[-1] and indent + len(lines[-1]) + len(piece) + 3 > 79:
            lines.append("")
        lines[-1] += piece
    return ("\n" + " " * indent).join(repr(x) for x in lines)


if __name__ == "__main__":
    for case in CASES:
        parts = record(*case)
        print("    (" + ",\n     ".join(_literal(x, 5) for x in parts)
              + "),")
