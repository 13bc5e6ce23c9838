"""Factorization over QQ and GF(p) checked against sympy (test-only oracle).

The fixed cases pin each path of the integer-first QQ factorization: the
squarefree certificate and its Yun fallback, the irreducibility certificate,
and Hensel lifting with recombination when no certificate exists.
"""

import itertools
import random
from fractions import Fraction

import pytest

from scheme_explorer import arith
from scheme_explorer.arith import GF, QQ, ZZ, factor_dense, up_deg

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


def swinnerton_dyer(*primes):
    """The minimal polynomial of the sum of the square roots of ``primes``:
    irreducible of degree 2^k, with factors of degree <= 2 mod every
    prime."""
    return sympy.minimal_polynomial(sum(sympy.sqrt(p) for p in primes), X)


@pytest.mark.parametrize("primes", [(2, 3, 5), (2, 3, 5, 7)], ids=["sd8", "sd16"])
def test_swinnerton_dyer_polynomials_over_qq(primes):
    """Every modular image splits into 2^(k-1) quadratics or finer, so
    recombination tries every subset up to half of them before it proves
    the input irreducible."""
    _, fac = check_qq(swinnerton_dyer(*primes))
    assert len(fac) == 1 and up_deg(fac[0][0]) == 2 ** len(primes)


def test_recombination_over_qq_divides_on_integers(monkeypatch):
    """On the Swinnerton-Dyer polynomial of degree 16 (8 modular
    quadratics) ``_recombine`` trial-divides each of the 8 + 28 + 56 + 70
    subsets of up to 4 factors, and no division runs over QQ's Fractions:
    neither ``RationalField.dense_divmod`` nor ``kernels._qq_divmod``."""
    from scheme_explorer import kernels

    calls = {"recombine": 0, "divide": 0, "qq": 0}
    inside = []
    real = arith._recombine

    def recombine(g, lifted, read, divide):
        def counted(current, cand):
            calls["divide"] += 1
            return divide(current, cand)

        calls["recombine"] += 1
        inside.append(True)
        try:
            return real(g, lifted, read, counted)
        finally:
            inside.pop()

    def watched(fn):
        def wrapper(*args, **kwargs):
            calls["qq"] += bool(inside)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(arith, "_recombine", recombine)
    monkeypatch.setattr(arith.RationalField, "dense_divmod",
                        watched(arith.RationalField.dense_divmod))
    monkeypatch.setattr(arith, "_qq_divmod", watched(arith._qq_divmod))
    monkeypatch.setattr(kernels, "_qq_divmod", watched(kernels._qq_divmod))
    poly = sympy.Poly(swinnerton_dyer(2, 3, 5, 7), X, domain="QQ")
    _, fac = factor_dense(to_dense_qq(poly), QQ)
    assert len(fac) == 1
    assert calls == {"recombine": 1, "divide": 162, "qq": 0}


def test_x48_minus_1_times_a_non_monic_linear_over_qq():
    _, fac = check_qq((X ** 48 - 1) * (3 * X + 2))
    assert len(fac) == 11


def test_six_non_monic_linears_over_qq():
    """A seeded product of six linears with leading coefficients 2 to 6:
    recombination reads each one back from the lifted monic factors."""
    rng = random.Random(606)
    linears = [rng.randint(2, 6) * X + rng.choice((-1, 1)) * rng.randint(1, 9)
               for _ in range(6)]
    _, fac = check_qq(sympy.prod(linears))
    assert sum(m for _, m in fac) == 6 and all(up_deg(g) == 1 for g, _ in fac)


def test_random_polynomials_over_gf_p():
    rng = random.Random(77)
    for p in (2, 3, 5, 7, 13, 101):
        for _ in range(25):
            n = rng.randint(1, 9)
            coeffs = tuple(rng.randrange(p) for _ in range(n)) + (rng.randrange(1, p),)
            unit, fac = factor_dense(coeffs, GF(p))
            assert unit == coeffs[-1]
            assert sorted(fac) == sympy_factors_gf(coeffs, p), (p, coeffs)


def test_every_small_monic_polynomial_over_small_prime_fields():
    """Every monic polynomial of degree at most 3 over GF(2), GF(3), GF(5)
    and GF(7), and seeded ones of degree up to 9 over GF(31) and GF(47)."""
    cases = [(p, tail + (1,)) for p in (2, 3, 5, 7)
             for d in range(4) for tail in itertools.product(range(p), repeat=d)]
    rng = random.Random(3147)
    cases += [(p, tuple(rng.randrange(p) for _ in range(rng.randint(1, 9))) + (1,))
              for p in (31, 47) for _ in range(40)]
    for p, coeffs in cases:
        unit, fac = factor_dense(coeffs, GF(p))
        assert unit == 1
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


def test_every_monic_quartic_over_gf2_and_gf3():
    """Every monic polynomial of degree at most 4 over GF(2) and GF(3), all
    of whose linear factors come from scanning the residues."""
    assert 3 <= arith._ROOT_SCAN_ORDER
    for p in (2, 3):
        for d in range(5):
            for tail in itertools.product(range(p), repeat=d):
                coeffs = tail + (1,)
                unit, fac = factor_dense(coeffs, GF(p))
                assert (unit, sorted(fac)) == (1, sympy_factors_gf(coeffs, p)), coeffs


def _root_free(rng, p, degree):
    """A seeded monic polynomial of the given degree with no root in GF(p)."""
    while True:
        g = tuple(rng.randrange(p) for _ in range(degree)) + (1,)
        if all(sum(c * pow(r, i, p) for i, c in enumerate(g)) % p for r in range(p)):
            return g


def test_repeated_linears_times_a_root_free_cofactor_on_both_sides_of_the_scan_cutoff():
    """Seeded products of linear factors, some repeated, and a root-free
    cofactor of degree 4 to 10, over the largest prime the residue scan
    serves and the smallest one past it."""
    cutoff = arith._ROOT_SCAN_ORDER
    below = max(p for p in range(2, cutoff + 1) if arith.is_prime(p))
    rng = random.Random(6461)
    for p in (below, arith._next_prime(cutoff)):
        dom = GF(p)
        for _ in range(6):
            f = _root_free(rng, p, rng.randint(4, 10))
            for _ in range(rng.randint(1, 4)):
                linear = (rng.randrange(p), 1)
                for _ in range(rng.randint(1, 3)):
                    f = arith.up_mul(dom, f, linear)
            unit, fac = factor_dense(f, dom)
            assert unit == 1
            assert sorted(fac) == sympy_factors_gf(f, p), (p, f)


def test_zassenhaus_images_split_by_the_residue_scan(monkeypatch, path_calls):
    """Products over QQ and Q(i) that need Hensel lifting: the modular
    images at 5, 7, 11, ... (over Q(i) the split primes 5, 13, 17, ...)
    have their roots found by the scan, and the factors match sympy."""
    from test_number_field_sympy import sympy_factors

    primes, real = [], arith._linear_factors

    def counted(f, p):
        primes.append(p)
        return real(f, p)

    monkeypatch.setattr(arith, "_linear_factors", counted)
    check_qq((X - 1) * (2 * X + 3) * (X + 5) ** 2 * (X ** 2 - 2))
    check_qq((3 * X - 1) * (X + 4) * (X - 7) * (X ** 3 - X - 1))
    assert primes and max(primes) <= arith._ROOT_SCAN_ORDER
    primes.clear()
    K = arith.ExtField(QQ, (Fraction(1), Fraction(0), Fraction(1)))
    i = K.gen()
    f = (K.one(),)
    for a, b in ((1, 2), (-3, 1), (0, 1), (2, 0), (1, 2)):
        f = arith.up_mul(K, f, (K.neg(K.add(K.from_int(a), K.mul(K.from_int(b), i))), K.one()))
    _, fac = factor_dense(f, K)
    assert primes and max(primes) <= arith._ROOT_SCAN_ORDER
    assert fac == sympy_factors(K, f)
    assert path_calls["lift"] == 3
