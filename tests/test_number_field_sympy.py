"""Factorization over number fields of degree 1 to 6 checked against sympy's
factorization over QQ<alpha>, alpha a root of the field's modulus
(test-only oracle).

The products hold repeated factors, factors with rational coefficients
and rational polynomials that split over the field; the fields include
fractional moduli and orders Z[beta] that are not maximal.
"""

import random
from fractions import Fraction

import pytest

from scheme_explorer.arith import QQ, ExtField, factor_dense, up_deg, up_mul, up_norm

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")

FIELDS = {
    "deg1": (-3, 1), "deg1frac": (Fraction(1, 2), 1),
    "i": (1, 0, 1), "sqrt2": (-2, 0, 1), "sqrt-3": (3, 0, 1), "sqrt5": (-5, 0, 1),
    "half": (Fraction(-1, 2), 0, 1), "golden": (-1, -1, 1), "t2+101": (101, 0, 1),
    "cbrt2": (-2, 0, 0, 1), "cyc7real": (-1, -2, 1, 1), "t3-1/4": (Fraction(-1, 4), 0, 0, 1),
    "t3-t/2+1/3": (Fraction(1, 3), Fraction(-1, 2), 0, 1),
    "sqrt2+sqrt3": (1, 0, -10, 0, 1), "x4+1": (1, 0, 0, 0, 1), "phi5": (1, 1, 1, 1, 1),
    "x5-2": (-2, 0, 0, 0, 0, 1), "x6+3": (3, 0, 0, 0, 0, 0, 1),
}


def field(name):
    return ExtField(QQ, tuple(Fraction(c) for c in FIELDS[name]))


def to_sympy(dense, K):
    """The dense polynomial over K as a sympy Poly over QQ<alpha>, the
    coordinates of each coefficient taken in the powers of alpha, so t
    maps to alpha."""
    y = sympy.Symbol("y")
    modulus = sum(sympy.Rational(c.numerator, c.denominator) * y ** j
                  for j, c in enumerate(K.modulus))
    A = sympy.QQ.algebraic_field(sympy.CRootOf(modulus, 0))
    return sympy.Poly([A([sympy.QQ(c.numerator, c.denominator) for c in reversed(a)])
                       for a in reversed(dense)], X, domain=A)


def sympy_factors(K, f):
    """[(monic factor, multiplicity)] of f over K by sympy's
    ``factor_list``, sorted as ``factor_dense`` sorts its factors."""
    _, expected = sympy.factor_list(to_sympy(f, K))
    out = []
    for g, m in expected:
        coeffs = reversed(g.monic().rep.to_list())
        out.append((tuple(up_norm(QQ, tuple(Fraction(int(c.numerator), int(c.denominator))
                                             for c in reversed(a.to_list())))
                          for a in coeffs), m))
    return sorted(out, key=lambda gm: (up_deg(gm[0]), gm[0]))


def check_against_sympy(K, f):
    unit, fac = factor_dense(f, K)
    product = (unit,)
    for g, m in fac:
        for _ in range(m):
            product = up_mul(K, product, g)
    assert product == f
    assert fac == sympy_factors(K, f), f


def element(*coeffs):
    return up_norm(QQ, tuple(Fraction(c) for c in coeffs))


def linear(K, rng):
    return (up_norm(QQ, tuple(Fraction(rng.randint(-3, 3)) for _ in range(K.degree))), K.one())


def rational_quadratic(K, rng):
    return (element(rng.choice((1, 2, 3, 5, -3, -5))), element(rng.randint(-2, 2)), K.one())


def random_factor(K, rng):
    """A monic factor of degree 1 or 2 over K, possibly with rational coefficients."""
    degree = rng.randint(1, 2)
    rational = rng.random() < 0.4
    coeffs = []
    for _ in range(degree):
        a = [Fraction(rng.randint(-4, 4), rng.randint(1, 2))]
        if not rational:
            a.append(Fraction(rng.randint(-3, 3)))
        coeffs.append(up_norm(QQ, tuple(a)))
    return tuple(coeffs) + (K.one(),)


@pytest.mark.parametrize("name", ["i", "sqrt2"])
def test_number_field_factors_match_sympy(name):
    K = field(name)
    alpha = {"i": "I", "sqrt2": "sqrt(2)"}[name]
    rng = random.Random(len(alpha) + sum(FIELDS[name]))
    for _ in range(15):
        f = (K.from_int(rng.randint(1, 5)),)
        for _ in range(rng.randint(1, 3)):
            g = random_factor(K, rng)
            for _ in range(rng.randint(1, 2)):
                f = up_mul(K, f, g)
        check_against_sympy(K, f)


@pytest.mark.parametrize("name", list(FIELDS))
def test_seeded_products_with_repeated_and_rational_factors(name):
    K = field(name)
    rng = random.Random(f"seeded {name}")
    for trial in range(10):
        f = (K.from_int(rng.choice((1, 2, 3))),)
        shape = [rational_quadratic if k == 0 and trial % 2 == 0 else linear
                 for k in range(rng.randint(2, 3))]
        for make in shape:
            g = make(K, rng)
            for _ in range(rng.choice((1, 1, 2))):
                f = up_mul(K, f, g)
        check_against_sympy(K, f)


@pytest.mark.parametrize("name", ["cbrt2", "i"])
def test_a_product_with_a_coefficient_divisible_by_5_7_11_and_13(name):
    """(x - 5005a)(x - 1 - 2a), 5005 = 5*7*11*13, over Q(cbrt 2) and Q(i):
    its norm to QQ has no good prime among 5, 7, 11 and 13."""
    K = field(name)
    check_against_sympy(K, up_mul(K, (element(0, -5005), K.one()), (element(-1, -2), K.one())))


def test_a_norm_above_degree_24_factors():
    """x^13 - 1 over QQ(i) has a norm of degree 26: x - 1 splits off and
    the cyclotomic factor of degree 12 stays irreducible."""
    K = field("i")
    _, fac = factor_dense((K.from_int(-1),) + (K.zero(),) * 12 + (K.one(),), K)
    assert sorted((up_deg(g), m) for g, m in fac) == [(1, 1), (12, 1)]
