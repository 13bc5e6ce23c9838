"""Factorization over QQ(i) and QQ(sqrt 2) checked against sympy's
factorization over an algebraic extension (test-only oracle)."""

import random
from fractions import Fraction

import pytest

from scheme_explorer.arith import QQ, ExtField, factor_dense, up_deg, up_mul, up_norm

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def to_sympy(dense, alpha):
    """A dense polynomial over QQ(alpha), as a sympy expression in X."""
    return sum(
        (sum(sympy.Rational(c.numerator, c.denominator) * alpha ** k for k, c in enumerate(a))
         * X ** j for j, a in enumerate(dense)),
        sympy.Integer(0),
    )


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


@pytest.mark.parametrize("modulus, alpha", [
    ((1, 0, 1), sympy.I), ((-2, 0, 1), sympy.sqrt(2)),
], ids=["i", "sqrt2"])
def test_number_field_factors_match_sympy(modulus, alpha):
    K = ExtField(QQ, tuple(Fraction(c) for c in modulus))
    rng = random.Random(len(str(alpha)) + sum(modulus))
    for _ in range(15):
        f = (K.from_int(rng.randint(1, 5)),)
        for _ in range(rng.randint(1, 3)):
            g = random_factor(K, rng)
            for _ in range(rng.randint(1, 2)):
                f = up_mul(K, f, g)
        _, fac = factor_dense(f, K)
        _, expected = sympy.factor_list(to_sympy(f, alpha), X, extension=alpha)
        expected = [(sympy.Poly(g, X, extension=alpha).monic().as_expr(), m)
                    for g, m in expected]
        assert sorted(m for _, m in fac) == sorted(m for _, m in expected), f
        for g, m in fac:
            ours = to_sympy(g, alpha)
            match = [k for k, (h, n) in enumerate(expected)
                     if n == m and sympy.expand(ours - h) == 0]
            assert match, (f, g)
            del expected[match[0]]


def test_a_norm_above_degree_24_factors():
    """x^13 - 1 over QQ(i) has a norm of degree 26: x - 1 splits off and
    the cyclotomic factor of degree 12 stays irreducible."""
    K = ExtField(QQ, (Fraction(1), Fraction(0), Fraction(1)))
    _, fac = factor_dense((K.from_int(-1),) + (K.zero(),) * 12 + (K.one(),), K)
    assert sorted((up_deg(g), m) for g, m in fac) == [(1, 1), (12, 1)]
