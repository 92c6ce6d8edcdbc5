"""The depth-one route of rootdata.certified_rows: from d = DEPTH_ONE_FROM
on, an exact h whose edge polynomials are squarefree has its rows read off
its own Newton polygon (rootdata._depth_one_rows), with any number of zero
roots.  The certificate, the Newton polygon of the difference polynomial
D, is the route's independent check: each table here is compared with the
one certified_rows builds with depth one patched out, and whether the
route decides is compared with the plane oracle or with the explicit
roots."""

import ast
import importlib.util
import inspect
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from lctkit import criterion, packed, rootdata
from lctkit.criterion import lct_ge
from lctkit.errors import DegenerateError, TruncationError
from lctkit.poly import UPoly
from lctkit.rootdata import RootRows, _depth_one_rows, certified_rows
from lctkit.series import PSeries

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    """bench/workloads.py, loaded by path: its raw draws and the plane
    oracle's verdict on them."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "bench" / "workloads.py")
        # its dataclasses look their module up in sys.modules
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _certificate(monkeypatch, h):
    """certified_rows(h) with the depth-one route patched out."""
    with monkeypatch.context() as m:
        m.setattr(rootdata, "_depth_one_rows", lambda g: None)
        return certified_rows(h)


def _of_roots(roots):
    return UPoly.from_roots("y", roots)


def mono(e, c=1):
    return PSeries.monomial("x", F(e), F(c))


# roots x, 2x, x^2, 2x^2, x^3 and 3x^3: the count pattern (9, 5, 1) has
# two root trees, so the certificate needs the numeric expansion
AMBIGUOUS = [mono(1), mono(1, 2), mono(2), mono(2, 2), mono(3), mono(3, 3)]


def test_raw_draws_agree_with_certificate(monkeypatch):
    """On raw bench draws at d = 4..8 the route decides a draw y^k g, k
    its count of zero roots, exactly when the plane oracle finds g =
    h / y^k nondegenerate (y^d always); every table it builds is the
    certificate's.  Draws with k >= 2 are among them."""
    workloads = _workloads()
    rng = random.Random("depth-one:raw")
    decided = repeated = 0
    for d, n in ((4, 50), (5, 50), (6, 30), (7, 15), (8, 6)):
        for _ in range(n):
            terms = workloads._random_poly(rng, d)
            h = UPoly("y", [PSeries("x", t) for t in terms])
            rows = _depth_one_rows(h)
            g = list(itertools.dropwhile(lambda t: not t, reversed(terms)))
            g.reverse()
            repeated += d - len(g) > 1
            try:
                if g:
                    workloads._threshold(len(g), g)
                nondegenerate = True
            except DegenerateError:
                nondegenerate = False
            assert (rows is not None) == nondegenerate, terms
            if rows is not None:
                decided += 1
                assert rows == _certificate(monkeypatch, h), terms
                assert certified_rows(h) == rows
    assert decided >= 120 and repeated >= 15


def _clustered(rng, d, depth):
    """d distinct roots that share random prefixes, with integer and
    half-integer exponents and integer and fractional coefficients;
    sometimes one of them is zero."""
    roots = []
    while len(roots) < d:
        terms, e = {}, F(0)
        for _ in range(rng.randint(1, depth)):
            e += F(1, rng.choice([1, 1, 2]))
            terms[e] = rng.choice([F(-1), F(1), F(2), F(1, 2), F(-2, 3)])
        root = PSeries("x", terms)
        if root not in roots:
            roots.append(root)
    if rng.random() < 0.25:
        roots[rng.randrange(d)] = PSeries.zero("x")
    return roots


def _has_depth_one(roots):
    """Whether ord(alpha_i - alpha_j) = min(ord alpha_i, ord alpha_j) for
    every pair of explicit roots: the Kuo-Lu tree has depth one."""
    def order(a):
        return a.order().sort_key()

    return all(order(a - b) == min(order(a), order(b))
               for a, b in itertools.combinations(roots, 2))


def _zero_rooted(rng, d, dens):
    """d roots, 2 to 4 of them zero, the rest distinct with one or two
    terms whose exponents step by 1 / n, n drawn from dens."""
    nonzero = []
    zero = rng.randint(2, min(4, d))
    while len(nonzero) < d - zero:
        terms, e = {}, F(0)
        for _ in range(rng.randint(1, 2)):
            e += F(1, rng.choice(dens))
            terms[e] = rng.choice([F(-1), F(1), F(2), F(1, 2), F(-2, 3)])
        root = PSeries("x", terms)
        if root not in nonzero:
            nonzero.append(root)
    return [PSeries.zero("x")] * zero + nonzero


def test_clustered_roots_agree_with_certificate(monkeypatch):
    """On clustered roots at d = 4..7, on 300 root sets at d = 4..8 with 2
    to 4 zero roots, exponents in (1/2)Z and (1/3)Z among them, and on
    y^4, y^5 and y^6, the route decides exactly the inputs whose explicit
    roots have a depth-one tree.  certified_rows then reads no difference
    polynomial, and the table is the certificate's: zero roots meet each
    other on the infinite level, so their row stops before the others
    do."""
    rng = random.Random("depth-one:clustered")
    cases = [_clustered(rng, d, rng.choice([1, 2]))
             for d in (4, 5, 6, 7) for _ in range(40)]
    cases += [[PSeries.zero("x")] * d for d in (4, 5, 6)]
    rng = random.Random("depth-one:zero-roots")
    # both ramifications together cost the certificate 0.4 s a table at
    # d = 8, so d = 7 and 8 step by 1/2 only
    for d, n, dens in ((4, 110, (1, 2, 3)), (5, 90, (1, 2, 3)),
                       (6, 60, (1, 2, 3)), (7, 25, (1, 1, 2)),
                       (8, 15, (1, 1, 2))):
        cases += [_zero_rooted(rng, d, dens) for _ in range(n)]
    calls = _counted_levels(monkeypatch)
    decided, zero, repeated, ramified = 0, 0, 0, 0
    for roots in cases:
        h = _of_roots(roots)
        rows = _depth_one_rows(h)
        assert (rows is not None) == _has_depth_one(roots), roots
        if rows is not None:
            zeros = sum(r.is_exactly_zero for r in roots)
            decided += 1
            zero += zeros == 1
            repeated += zeros > 1
            ramified += zeros > 1 and any(r.ram > 1 for r in roots)
            del calls[:]
            assert certified_rows(h) == rows and not calls, roots
            assert rows == _certificate(monkeypatch, h), roots
    assert decided >= 300 and zero >= 5
    assert repeated >= 200 and ramified >= 100


def test_ambiguous_pattern_is_decided_by_depth_one(monkeypatch):
    h = _of_roots(AMBIGUOUS)
    levels, infinite = rootdata._difference_levels(h)
    assert not infinite
    counts = tuple(mult // 2 for _, _, mult in levels)
    assert counts == (9, 5, 1)
    assert len(rootdata._row_multisets(6, counts)) == 2
    rows = _depth_one_rows(h)
    assert rows == _certificate(monkeypatch, h)
    criterion._table_for.cache_clear()
    verdict, diag = lct_ge(6, F(1, 2), h.coeffs)
    assert (verdict, diag["V"]) == ("no", {"kind": "exact", "value": "3"})


@pytest.mark.parametrize("d", [2, 3])
def test_route_below_the_gate_agrees(d):
    """Below DEPTH_ONE_FROM certified_rows takes the certificate; called
    directly, the route builds the same tables there."""
    assert d < rootdata.DEPTH_ONE_FROM
    cases = [[mono(1), mono(2), mono(F(5, 2), 3)][:d],
             [mono(1), mono(1, -1), mono(3)][:d],
             [PSeries.zero("x"), mono(F(1, 2)), mono(F(1, 2), 2)][:d],
             [mono(2), mono(2, 2), mono(2, 3)][:d]]
    for roots in cases:
        h = _of_roots(roots)
        assert _depth_one_rows(h) == certified_rows(h), roots
    # a shared leading term at d = 2 and 3 is left to the certificate
    assert _depth_one_rows(_of_roots([mono(1), mono(1) + mono(2),
                                      mono(3)][:d])) is None


@pytest.mark.parametrize("roots,squarefree", [
    ((1, 2), True), ((1, 1), False), ((1, 2, 3), True), ((2, 2, -1), False),
    ((1, -1, 2, -2), True), ((1, 3, 1, 5), False), ((2, 2, 3, 3), False),
    ((1, 2, 3, 4, 5), True), ((-1, 2, 4, 4, 7), False),
])
def test_squarefree_edge_polynomials(roots, squarefree):
    """The edge-polynomial test on ints: the product of u - r over the
    nonzero roots r, lowest coefficient first."""
    p = [1]
    for r in roots:
        p = [a - r * b for a, b in zip([0] + p, p + [0])]
    assert rootdata._squarefree(p) is squarefree


def test_route_reads_h_through_root_levels():
    """The route reads h's levels and zero-root count through _root_levels,
    the reader of root_orders and the certificate with the one Lemma-1
    check, and raises nothing of its own."""
    tree = ast.parse(inspect.getsource(rootdata._depth_one_rows))
    called = {n.func.id for n in ast.walk(tree)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert "_root_levels" in called
    assert not called & {"_lower_hull", "_slope_levels", "_lemma1_order"}
    assert not any(isinstance(n, ast.Raise) for n in ast.walk(tree))


def _counted_levels(monkeypatch):
    calls = []
    real = rootdata._difference_levels

    def counted(h):
        calls.append(h.degree)
        return real(h)

    monkeypatch.setattr(rootdata, "_difference_levels", counted)
    return calls


@pytest.mark.parametrize("roots", [
    # x and x + x^2 repeat the root 1 of the edge polynomial of slope 1
    [mono(1), mono(1) + mono(2), mono(2, 2), mono(3, 3)],
    # a repeated root
    [mono(1), mono(2), mono(2), mono(3)],
], ids=["edge-root", "repeated-root"])
def test_degenerate_input_takes_the_certificate(monkeypatch, roots):
    h = _of_roots(roots)
    calls = _counted_levels(monkeypatch)
    assert _depth_one_rows(h) is None
    assert isinstance(certified_rows(h), RootRows)
    assert calls == [4]


def test_repeated_zero_root_takes_depth_one(monkeypatch):
    """The roots 0, 0, x and 2x: the zero roots meet on the infinite
    level, so their row, (0, 1, 2), stops before the others' (0, 1, 2,
    3).  Depth one decides it without the certificate, whose table it
    builds."""
    h = _of_roots([PSeries.zero("x"), PSeries.zero("x"), mono(1), mono(1, 2)])
    calls = _counted_levels(monkeypatch)
    rows = certified_rows(h)
    assert rows == RootRows(1, ((0, 1, 2, 3), (0, 1, 2)))
    assert calls == []
    assert rows == _certificate(monkeypatch, h)
    assert calls == [4]


def test_truncated_input_takes_the_certificate(monkeypatch):
    coeffs = _of_roots([mono(1), mono(2), mono(3), mono(4)]).coeffs
    h = UPoly("y", [a.truncated(20) for a in coeffs])
    calls = _counted_levels(monkeypatch)
    assert _depth_one_rows(h) is None
    assert isinstance(certified_rows(h), RootRows)
    cut = UPoly("y", [a.truncated(3) for a in coeffs])
    with pytest.raises(TruncationError):
        certified_rows(cut)
    assert calls == [4, 4]


def test_nondegenerate_decisions_never_read_d(monkeypatch):
    """Nondegenerate d = 4..6 decisions run with every reader of the
    difference polynomial patched to raise."""
    def refuse(*args):
        raise AssertionError("the difference polynomial was read")

    inputs = [[mono(k + 1, k + 2) for k in range(d)] for d in (4, 5, 6)]
    inputs += [[mono(1, k + 1) + mono(2) for k in range(d)]
               for d in (4, 5, 6)]
    inputs.append(AMBIGUOUS)
    want = [lct_ge(len(r), F(1, 3), _of_roots(r).coeffs) for r in inputs]
    for module, name in ((rootdata, "difference_poly"),
                         (packed, "orders"),
                         (rootdata, "_difference_levels")):
        monkeypatch.setattr(module, name, refuse)
    criterion._table_for.cache_clear()
    for roots, verdict in zip(inputs, want):
        assert lct_ge(len(roots), F(1, 3), _of_roots(roots).coeffs) == verdict


FRESH_DECISION = """
import json
import sys
from lctkit import packed
from lctkit.criterion import lct_ge
from lctkit.series import PSeries
coeffs = [PSeries.from_json(a) for a in json.loads(sys.argv[1])]
print(json.dumps(lct_ge(6, "1/2", coeffs)))
print(packed._program.cache_info().currsize,
      "lctkit.numeric" in sys.modules, "mpmath" in sys.modules)
"""


def _fresh_decision(roots):
    """lct_ge(6, 1/2) on the roots, decided in a fresh process: the
    verdict, then the count of recorded packed programs and whether
    lctkit.numeric and mpmath were loaded."""
    coeffs = json.dumps([a.to_json() for a in _of_roots(roots).coeffs])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", FRESH_DECISION, coeffs],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    decision, loaded = proc.stdout.splitlines()
    return json.loads(decision)[0], loaded


def test_ambiguous_decision_loads_no_numeric_layer():
    assert _fresh_decision(AMBIGUOUS) == ("no", "0 False False")


def test_zero_root_decision_records_nothing():
    """Two zero roots at d = 6 take depth one: no packed program is
    recorded, and neither the numeric layer nor mpmath is loaded."""
    roots = [PSeries.zero("x"), PSeries.zero("x"), mono(1), mono(1, 2),
             mono(2), mono(F(5, 2), 3)]
    assert _fresh_decision(roots) == ("no", "0 False False")
