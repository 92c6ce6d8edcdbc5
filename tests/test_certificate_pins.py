"""The exact certificate's polynomials pinned on a seeded corpus.

For d = 2..5 polynomials (sparse with ramified exponents, large rational
coefficients of both signs, and roots sharing a prefix, so that the kernel
cancels), each exact and truncated at 3 and at 6, the JSON of
difference_poly(h), compound_poly(h, 2) and cross_difference_orders(h, g)
against a seeded quadratic g is pinned as a SHA-256 digest.  Any change to
a digest is a change of output, not of speed.  Only public API is used, so
the same file runs against any version of the package; run it as a script
to print the digests for the package on the path.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from lctkit.errors import LctkitError
from lctkit.poly import UPoly, compound_poly, difference_poly
from lctkit.reports import cross_difference_orders
from lctkit.series import PSeries

F = Fraction
SEED = 20261019
DEGREES = (2, 3, 4, 5)
BOUNDS = (None, F(3), F(6))


def _sparse(rng, d):
    coeffs = []
    for _ in range(d):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = F(rng.randint(1, 6), rng.choice([1, 1, 2, 3]))
            c = F(rng.randint(-5, 5), rng.choice([1, 1, 2]))
            if c:
                terms[e] = c
        coeffs.append(PSeries("x", terms))
    return UPoly("y", coeffs)


def _wide(rng, d):
    coeffs = []
    for _ in range(d):
        terms = {F(rng.randint(0, 4), rng.choice([1, 2, 4])):
                 F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 97))
                 for _ in range(rng.randint(1, 2))}
        coeffs.append(PSeries("x", terms))
    return UPoly("y", coeffs)


def _shared_prefix(rng, d):
    w = {F(e): F(rng.choice([-3, -1, 2])) for e in rng.sample(range(1, 4), 2)}
    roots = [PSeries("x", {**w, F(rng.randint(4, 7), rng.choice([1, 2])):
                           F(rng.choice([-2, -1, 1, 3]))}) for _ in range(d)]
    return UPoly.from_roots("y", roots)


def corpus():
    """[(h, g)]: the polynomials, each with a seeded quadratic partner."""
    rng = random.Random(SEED)
    return [(make(rng, d), _sparse(rng, 2))
            for make in (_sparse, _wide, _shared_prefix) for d in DEGREES]


CASES = corpus()


def _cut(h, bound):
    return h if bound is None else UPoly("y", [a.truncated(bound)
                                              for a in h.coeffs])


def _outcome(fn):
    try:
        return fn()
    except LctkitError as exc:
        return f"{type(exc).__name__}: {exc}"


def _poly_json(h):
    return [a.to_json() for a in h.coeffs]


def record(h, g):
    """Digest of the three certificate outputs for h and g, exact and
    truncated at each bound."""
    out = []
    for bound in BOUNDS:
        hc, gc = _cut(h, bound), _cut(g, bound)
        out.append([
            _outcome(lambda: _poly_json(difference_poly(hc))),
            _outcome(lambda: _poly_json(compound_poly(hc, 2))),
            _outcome(lambda: [v.to_json()
                              for v in cross_difference_orders(hc, gc)]),
        ])
    blob = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


PINNED = [
    '520a641888357afa99e17d4624e80e4b',
    '633810eb499c0861395b5b382f3739e8',
    'a9423d4225eac2dbd61117db2c30296f',
    'e6c17ba00a667764dc084f9961c640a6',
    'fdabdb29ec8274b986b41299cfceff00',
    '16ad5af07c3000176b43881cdd8a7619',
    'd5da81b609610238f642e738d1651bf5',
    '4e1406496a74af74f6748ee81decba13',
    'fdf3984dd6cbc5684100bf960861d2b7',
    'e254b3f3ad35a6e8ecc72dee20c4fb90',
    '9fcfc8f159304032fa649503242aff5b',
    '93d006a504ee98c46a359121af9530fe',
]


@pytest.mark.parametrize("index", range(len(CASES)))
def test_certificate_matches_pin(index):
    assert record(*CASES[index]) == PINNED[index]


def test_corpus_is_pinned_in_full():
    assert len(PINNED) == len(CASES)


if __name__ == "__main__":
    for case in CASES:
        print(f"    {record(*case)!r},")
