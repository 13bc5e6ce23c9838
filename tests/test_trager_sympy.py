"""Factorization over number fields checked against sympy's factorization
over an algebraic extension (test-only oracle): at a split prime over the
quadratic fields, by Trager's norm descent over the cubic field.

The products hold repeated factors and factors with rational coefficients:
over Q(cbrt 2) the norm of a rational quadratic at shift 0 is its cube, so
the shift loop runs, and a cube has no good prime, so the integer gcd
decides.
"""

import random
from fractions import Fraction

import pytest

from scheme_explorer import arith
from scheme_explorer.arith import QQ, ExtField, IntegerRing, factor_dense, up_deg, up_mul, up_norm

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")

FIELDS = [((1, 0, 1), sympy.I), ((-2, 0, 1), sympy.sqrt(2))]
CBRT2 = ((-2, 0, 0, 1), sympy.cbrt(2))


def to_sympy(dense, alpha):
    return sum(
        (sum(sympy.Rational(c.numerator, c.denominator) * alpha ** k for k, c in enumerate(a))
         * X ** j for j, a in enumerate(dense)),
        sympy.Integer(0),
    )


def element(*coeffs):
    return up_norm(QQ, tuple(Fraction(c) for c in coeffs))


def linear(K, rng):
    return (element(rng.randint(-3, 3), rng.randint(-3, 3)), K.one())


def rational_quadratic(K, rng):
    return (element(rng.choice((1, 2, 3, 5, -3, -5))), element(rng.randint(-2, 2)), K.one())


def check_against_sympy(K, alpha, f):
    unit, fac = factor_dense(f, K)
    product = (unit,)
    for g, m in fac:
        assert g[-1] == K.one()
        for _ in range(m):
            product = up_mul(K, product, g)
    assert product == f
    _, expected = sympy.factor_list(to_sympy(f, alpha), X, extension=alpha)
    expected = [(sympy.Poly(g, X, extension=alpha).monic().as_expr(), m) for g, m in expected]
    assert len(fac) == len(expected), f
    for g, m in fac:
        ours = to_sympy(g, alpha)
        match = [k for k, (h, n) in enumerate(expected)
                 if n == m and sympy.expand(ours - h) == 0]
        assert match, (f, g)
        del expected[match[0]]


@pytest.fixture
def trager_calls(monkeypatch):
    """The shifts whose norms were computed and the degrees of the integer
    gcds taken, by wrapping the norm and ``IntegerRing.dense_gcd``."""
    seen = {"norms": 0, "gcd_degrees": [], "squarefree_parts": 0}
    norm, gcd, trager = arith._norm_to_base, IntegerRing.dense_gcd, arith._trager_squarefree

    def counted_norm(dom, f):
        seen["norms"] += 1
        return norm(dom, f)

    def counted_gcd(self, a, b):
        g = gcd(self, a, b)
        seen["gcd_degrees"].append(up_deg(g))
        return g

    def counted_trager(g, dom):
        seen["squarefree_parts"] += 1
        return trager(g, dom)

    monkeypatch.setattr(arith, "_norm_to_base", counted_norm)
    monkeypatch.setattr(IntegerRing, "dense_gcd", counted_gcd)
    monkeypatch.setattr(arith, "_trager_squarefree", counted_trager)
    return seen


def check_seeded_products(modulus, alpha, trials):
    K = ExtField(QQ, tuple(Fraction(c) for c in modulus))
    rng = random.Random(17 + modulus[0])
    for trial in range(trials):
        f = (K.from_int(rng.choice((1, 2, 3))),)
        shape = [rational_quadratic if k == 0 and trial % 2 == 0 else linear
                 for k in range(rng.randint(2, 3))]
        for make in shape:
            g = make(K, rng)
            for _ in range(rng.choice((1, 1, 2))):
                f = up_mul(K, f, g)
        check_against_sympy(K, alpha, f)


@pytest.mark.parametrize("modulus, alpha", FIELDS, ids=["i", "sqrt2"])
def test_seeded_products_with_repeated_and_rational_factors(modulus, alpha, trager_calls):
    check_seeded_products(modulus, alpha, 10)
    assert trager_calls["norms"] == trager_calls["squarefree_parts"] == 0  # a split prime


def test_the_shift_loop_runs_and_the_gcd_refuses_a_norm_over_a_cubic_field(trager_calls):
    check_seeded_products(*CBRT2, 10)
    # the shift loop went past shift 0, and the integer gcd refused a norm
    assert trager_calls["norms"] > trager_calls["squarefree_parts"]
    assert any(d > 0 for d in trager_calls["gcd_degrees"])


def test_a_squarefree_norm_without_a_good_prime_is_certified_by_the_gcd(trager_calls):
    """The norm (x^3 - 2*5005^3)((x - 1)^3 - 16) of (x - 5005a)(x - 1 - 2a)
    over Q(a), a^3 = 2, is squarefree, but 5005 = 5*7*11*13 puts each of
    the primes searched for a certificate in its discriminant."""
    modulus, alpha = CBRT2
    K = ExtField(QQ, tuple(Fraction(c) for c in modulus))
    f = up_mul(K, (element(0, -5005), K.one()), (element(-1, -2), K.one()))
    check_against_sympy(K, alpha, f)
    assert trager_calls["norms"] == trager_calls["squarefree_parts"] == 1
    assert trager_calls["gcd_degrees"] == [0]


def test_the_same_product_over_qi_factors_at_a_split_prime(trager_calls):
    """(x - 5005i)(x - 1 - 2i), whose norm has no good prime among 5, 7, 11
    and 13, takes no norm over Q(i): the prime over 13 is good for it."""
    K = ExtField(QQ, (Fraction(1), Fraction(0), Fraction(1)))
    f = up_mul(K, (element(0, -5005), K.one()), (element(-1, -2), K.one()))
    check_against_sympy(K, sympy.I, f)
    assert trager_calls["norms"] == trager_calls["squarefree_parts"] == 0
