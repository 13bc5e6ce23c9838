"""Reduced Gröbner bases checked against sympy (test-only oracle).

A reduced basis is unique for a given ideal and term order, so
``groebner_basis`` must return exactly sympy's monic reduced basis, term by
term, over QQ and GF(p), in grevlex and lex. The cases cover the standard
katsura and cyclic systems and a seeded family of small ideals that includes
unit ideals and generating sets with redundant members.
"""

import random
from fractions import Fraction

import pytest

from scheme_explorer.algebra import GroebnerBasis, groebner_basis
from scheme_explorer.arith import GF, QQ
from scheme_explorer.multipoly import GREVLEX, LEX, BlockOrder, PolyRing

from helpers_kernel import verify_basis

sympy = pytest.importorskip("sympy")

P = 32003


def katsura(n):
    """katsura-n in x0..xn as {exponents: integer coefficient} dicts."""
    nv = n + 1
    polys = []
    for m in range(n):
        terms = {}
        for l in range(-n, n + 1):
            a, b = abs(l), abs(m - l)
            if b <= n:
                e = [0] * nv
                e[a] += 1
                e[b] += 1
                terms[tuple(e)] = terms.get(tuple(e), 0) + 1
        e = [0] * nv
        e[m] = 1
        terms[tuple(e)] = terms.get(tuple(e), 0) - 1
        polys.append(terms)
    lin = {tuple(int(i == j) for j in range(nv)): 1 if i == 0 else 2 for i in range(nv)}
    lin[(0,) * nv] = -1
    polys.append(lin)
    return nv, polys


def cyclic(n):
    """cyclic-n in x0..x(n-1)."""
    polys = []
    for d in range(1, n):
        terms = {}
        for i in range(n):
            e = [0] * n
            for j in range(d):
                e[(i + j) % n] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + 1
        polys.append(terms)
    polys.append({(1,) * n: 1, (0,) * n: -1})
    return n, polys


def random_ideal(rng, nv):
    """Two or three random generators of degree <= 3, sometimes padded with a
    redundant combination of the others."""
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = [0] * nv
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(nv)] += 1
            terms[tuple(e)] = rng.choice((-3, -2, -1, 1, 2, 3, 5))
        gens.append(terms)
    if rng.random() < 0.4:
        gens.append(_combine(gens[0], gens[-1], rng.choice((1, 2, -3))))
    return nv, gens


def _combine(f, g, c):
    out = dict(f)
    for e, v in g.items():
        out[e] = out.get(e, 0) + c * v
    return {e: v for e, v in out.items() if v}


# unit ideals and redundant generators, stated outright
FIXED = [
    (2, [{(1, 0): 1, (0, 0): -1}, {(1, 0): 1}]),
    (2, [{(2, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 2}, {(0, 1): 1}]),
    (3, [{(1, 1, 0): 1, (0, 0, 0): -1}, {(1, 0, 0): 1}]),
    (2, [{(2, 0): 1, (0, 1): -1}, {(2, 0): 2, (0, 1): -2}, {(0, 2): 1}]),
    (3, [{(1, 0, 0): 1, (0, 1, 0): -1}, {(0, 1, 0): 1, (0, 0, 1): -1},
         {(1, 0, 0): 1, (0, 0, 1): -1}]),
    (2, [{(0, 0): 1}]),
    (2, [{(1, 1): 1}, {(2, 1): 1, (1, 2): 1}]),
]

SEEDED = [random_ideal(random.Random(seed), 2 + seed % 2) for seed in range(30)]

STANDARD = {"katsura3": katsura(3), "katsura4": katsura(4), "cyclic4": cyclic(4)}


def names_of(nv):
    return tuple(f"x{i}" for i in range(nv))


def ours(nv, polys, dom, order):
    ring = PolyRing(dom, names_of(nv), order)
    gens = [ring.from_dict({e: dom.from_int(c) for e, c in t.items()}) for t in polys]
    return sorted(sorted(g.terms) for g in groebner_basis(gens, ring))


def theirs(nv, polys, field, order):
    syms = sympy.symbols(names_of(nv))
    exprs = [
        sum(c * sympy.prod(s ** k for s, k in zip(syms, e)) for e, c in t.items())
        for t in polys
    ]
    opts = {"modulus": P} if field == "GF" else {"domain": "QQ"}
    gb = sympy.groebner(exprs, *syms, order=order, **opts)
    out = []
    for g in gb.polys:
        if field == "GF":
            terms = [(e, int(c) % P) for e, c in g.terms()]
        else:
            terms = [(e, Fraction(int(c.p), int(c.q))) for e, c in g.terms()]
        out.append(sorted(terms))
    return sorted(out)


ORDERS = {"grevlex": GREVLEX, "lex": LEX}
FIELDS = {"QQ": QQ, "GF": GF(P)}


def check(nv, polys, field, order):
    assert ours(nv, polys, FIELDS[field], ORDERS[order]) == theirs(nv, polys, field, order)


# lex katsura-4 is left out: sympy's Buchberger takes minutes on it
STANDARD_CASES = [
    ("katsura3", "grevlex"), ("katsura4", "grevlex"), ("cyclic4", "grevlex"),
    ("katsura3", "lex"), ("cyclic4", "lex"),
]


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("system, order", STANDARD_CASES)
def test_standard_systems_match_sympy(system, order, field):
    check(*STANDARD[system], field, order)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("order", sorted(ORDERS))
def test_small_ideals_match_sympy(order, field):
    for nv, polys in FIXED + SEEDED:
        check(nv, polys, field, order)


def test_fixed_cases_include_unit_ideals():
    units = [
        (nv, polys) for nv, polys in FIXED
        if ours(nv, polys, QQ, GREVLEX) == [[((0,) * nv, Fraction(1))]]
    ]
    assert len(units) >= 3


def test_block_order_elimination_basis_verifies():
    """Twisted cubic: eliminate t from (x - t, y - t^2, z - t^3)."""
    ring = PolyRing(QQ, ("t", "x", "y", "z"), BlockOrder((1, 3)))
    t, x, y, z = ring.gens()
    polys = groebner_basis([x - t, y - t ** 2, z - t ** 3], ring)
    gb = GroebnerBasis(ring, polys)
    assert verify_basis(gb)
    kept = [g for g in polys if not g.variables_used() & {"t"}]
    assert sorted(str(g) for g in kept) == sorted(["x^2 - y", "x*y - z", "y^2 - x*z"])
