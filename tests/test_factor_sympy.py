"""Factorization over QQ and GF(p) checked against sympy (test-only oracle).

The fixed cases pin each path of the integer-first QQ factorization: the
squarefree certificate and its Yun fallback, the irreducibility certificate,
and Hensel lifting with recombination when no certificate exists.
"""

import random
from fractions import Fraction

import pytest

from scheme_explorer import arith
from scheme_explorer.arith import GF, QQ, ZZ, factor_dense

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def to_dense_qq(poly):
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


def check_qq(expr):
    """factor_dense over QQ agrees with sympy's factor_list."""
    poly = sympy.Poly(expr, X, domain="QQ")
    unit, fac = factor_dense(to_dense_qq(poly), QQ)
    lc, factors = poly.LC(), poly.factor_list()[1]
    expected = sorted((to_dense_qq(f.monic()), m) for f, m in factors)
    assert (unit, sorted(fac)) == (Fraction(int(lc.p), int(lc.q)), expected), expr
    return unit, fac


def sympy_factors_gf(coeffs, p):
    poly = sympy.Poly(list(reversed(coeffs)), X, modulus=p)
    _, factors = poly.factor_list()
    out = []
    for f, m in factors:
        dense = [int(c) % p for c in reversed(f.all_coeffs())]
        inv = pow(dense[-1], -1, p)
        out.append((tuple(c * inv % p for c in dense), m))
    return sorted(out)


@pytest.fixture
def path_calls(monkeypatch):
    """Count calls of the Yun fallback (``_yun`` over ZZ) and of Hensel
    lifting."""
    calls = {"yun": 0, "lift": 0}

    def counted(name, fn, when=lambda *args: True):
        def wrapper(*args):
            calls[name] += when(*args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(arith, "_yun", counted("yun", arith._yun, lambda f, dom: dom == ZZ))
    monkeypatch.setattr(
        arith, "_lift_factorization", counted("lift", arith._lift_factorization)
    )
    return calls


def test_random_products_over_qq():
    rng = random.Random(2024)
    for _ in range(150):
        poly = sympy.Poly(sympy.Rational(rng.randint(1, 40), rng.randint(1, 9)), X)
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 4)
            g = [rng.randint(1, 6)] + [rng.randint(-9, 9) for _ in range(d)]
            poly *= sympy.Poly(g, X) ** rng.randint(1, 3)
        check_qq(poly)


def test_degrees_above_24_factor_over_qq():
    """No degree cap: x^48 - 1 splits into its 10 cyclotomic factors."""
    _, fac = check_qq(X ** 48 - 1)
    assert len(fac) == 10


def test_random_polynomials_over_gf_p():
    rng = random.Random(77)
    for p in (2, 3, 5, 7, 13, 101):
        for _ in range(25):
            n = rng.randint(1, 9)
            coeffs = tuple(rng.randrange(p) for _ in range(n)) + (rng.randrange(1, p),)
            unit, fac = factor_dense(coeffs, GF(p))
            assert unit == coeffs[-1]
            assert sorted(fac) == sympy_factors_gf(coeffs, p), (p, coeffs)


def test_swinnerton_dyer_reaches_hensel_lifting(path_calls):
    # irreducible over QQ but reducible mod every prime: no certificate
    _, fac = check_qq(X ** 4 - 10 * X ** 2 + 1)
    assert len(fac) == 1
    assert path_calls == {"yun": 0, "lift": 1}


def test_irreducible_mod_p_is_certified_without_lifting(path_calls):
    _, fac = check_qq(X ** 2 + 1)  # irreducible mod 7
    assert len(fac) == 1
    assert path_calls == {"yun": 0, "lift": 0}


def test_no_good_prime_runs_yun(path_calls):
    check_qq((X ** 2 - 2) ** 2 * (3 * X + 1) ** 3)
    assert path_calls["yun"] == 1


def test_lc_divisible_by_every_prime_tried(path_calls):
    # 5, 7, 11 and 13 all divide lc: Yun runs, then Zassenhaus looks further
    check_qq(5 * 7 * 11 * 13 * X ** 2 + X + 1)
    check_qq((5 * 7 * 11 * 13 * X ** 2 + X + 1) * (X - 2))
    assert path_calls["yun"] == 2


def test_degree_drop_mod_first_prime_is_skipped(path_calls):
    check_qq(5 * X ** 3 + X + 1)
    check_qq((5 * X - 1) * (X ** 2 + 3))
    assert path_calls["yun"] == 0


def test_integer_yun_matches_sympy_sqf_list():
    rng = random.Random(11)
    for _ in range(60):
        poly = sympy.Poly(1, X)
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            g = [rng.randint(1, 4)] + [rng.randint(-5, 5) for _ in range(d)]
            poly *= sympy.Poly(g, X) ** rng.randint(1, 4)
        prim = primitive_ints(poly)
        if len(prim) < 2:
            continue
        expected = {m: primitive_ints(g) for g, m in poly.sqf_list()[1]}
        assert {m: g for g, m in arith._yun(prim, ZZ)} == expected, prim


def primitive_ints(poly):
    """Dense integer primitive part of a sympy polynomial, lc > 0."""
    prim = [int(c) for c in reversed(poly.primitive()[1].all_coeffs())]
    return tuple(-c for c in prim) if prim[-1] < 0 else tuple(prim)
