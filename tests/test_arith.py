"""Domain arithmetic and univariate factorization."""

import random
from fractions import Fraction

import pytest

from scheme_explorer.arith import (
    GF,
    GFq,
    QQ,
    ZZ,
    Domain,
    ExtField,
    FracField,
    Zmod,
    domain_units,
    factor_dense,
    factor_univariate,
    is_irreducible,
    is_prime,
    up_deg,
    up_mul,
    up_norm,
)
from scheme_explorer.errors import (
    BudgetExceeded,
    ConstantPolynomial,
    InfiniteDomain,
    UnsupportedDomain,
    ZeroPolynomial,
)
from scheme_explorer.multipoly import PolyRing


def dense(ring, f):
    dom = ring.domain
    out = [dom.zero()] * (f.total_degree() + 1 if f.terms else 0)
    for e, c in f.terms:
        out[e[0]] = c
    return up_norm(dom, tuple(out))


def brute_roots(field, coeffs):
    """Oracle: exhaustive root search over a finite field."""
    from scheme_explorer.arith import up_eval

    return [x for x in field.elements() if field.is_zero(up_eval(field, coeffs, x))]


def test_primality():
    assert is_prime(2) and is_prime(97) and is_prime(10 ** 9 + 7)
    assert not is_prime(1) and not is_prime(91) and not is_prime(10 ** 12 + 1)


def test_t2_plus_1_over_gf5_splits_at_brute_force_roots():
    F5 = GF(5)
    f = (1, 0, 1)
    roots = brute_roots(F5, f)
    assert sorted(roots) == [2, 3]  # 2^2 = 4 = -1
    unit, fac = factor_dense(f, F5)
    assert unit == 1
    # factors are T - 2 = T + 3 and T - 3 = T + 2
    assert sorted(fac) == [((2, 1), 1), ((3, 1), 1)]


def test_t2_plus_1_over_gf3_irreducible():
    F3 = GF(3)
    assert brute_roots(F3, (1, 0, 1)) == []
    _, fac = factor_dense((1, 0, 1), F3)
    assert fac == [((1, 0, 1), 1)]


def test_linear_over_qq_is_irreducible():
    R = PolyRing(QQ, ("T",))
    T, = R.gens()
    result = factor_univariate(T - 7)
    assert result.unit == 1
    assert result.factors == [(T - 7, 1)]


def test_paper_discriminant_irreducibility():
    # 6X^2+18X-3 over QQ: discriminant 396 is not a square
    R = PolyRing(QQ, ("X",))
    X, = R.gens()
    f = 6 * X ** 2 + 18 * X - 3
    assert 18 ** 2 - 4 * 6 * (-3) == 396
    assert is_irreducible(f)


def test_x2_3x_m6_over_gf11_is_a_square():
    F11 = GF(11)
    R = PolyRing(F11, ("X",))
    X, = R.gens()
    f = X ** 2 + 3 * X - 6
    assert not is_irreducible(f)
    fac = factor_univariate(f)
    assert fac.factors == [(X - 4, 2)]


def test_degree_one_always_irreducible():
    R = PolyRing(GF(7), ("X",))
    X, = R.gens()
    assert is_irreducible(X)


def test_constant_rejected():
    R = PolyRing(QQ, ("X",))
    with pytest.raises(ConstantPolynomial):
        is_irreducible(R.from_int(5))
    with pytest.raises(ZeroPolynomial):
        factor_univariate(R.zero())


def test_composite_modulus_rejected():
    R = PolyRing(Zmod(6), ("X",))
    X, = R.gens()
    with pytest.raises(UnsupportedDomain):
        factor_univariate(X ** 2 + 1)


def test_factor_merge_property_over_small_prime_fields():
    rng = random.Random(20240819)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7, 11, 97])
        dom = GF(p)
        def rand_poly(deg):
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            return up_norm(dom, tuple(coeffs))
        f = rand_poly(rng.randrange(1, 5))
        g = rand_poly(rng.randrange(1, 5))
        _, fac_f = factor_dense(f, dom)
        _, fac_g = factor_dense(g, dom)
        _, fac_fg = factor_dense(up_mul(dom, f, g), dom)
        merged = {}
        for fc, m in fac_f + fac_g:
            merged[fc] = merged.get(fc, 0) + m
        assert dict(fac_fg) == merged


def test_reassembly_is_exact():
    rng = random.Random(99)
    for _ in range(25):
        p = rng.choice([3, 5, 13])
        dom = GF(p)
        coeffs = [rng.randrange(p) for _ in range(rng.randrange(1, 8))]
        coeffs.append(rng.randrange(1, p))
        f = up_norm(dom, tuple(coeffs))
        unit, fac = factor_dense(f, dom)
        prod = (unit,)
        for g, m in fac:
            for _ in range(m):
                prod = up_mul(dom, prod, g)
        assert prod == f


def test_reassembly_over_qq():
    R = PolyRing(QQ, ("X",))
    X, = R.gens()
    f = (2 * X ** 2 - 2) * (X ** 2 + X + 1) * (3 * X - 5)
    fac = factor_univariate(f)
    assert fac.reassemble() == f


def test_irreducibility_matches_trial_division():
    """Exhaustive oracle: trial division by all monic polynomials of degree
    at most deg/2, over small prime fields."""
    import itertools

    rng = random.Random(7)
    for _ in range(30):
        p = rng.choice([2, 3, 5, 13])
        dom = GF(p)
        deg = rng.randrange(2, 7)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        f = up_norm(dom, tuple(coeffs))
        if up_deg(f) < 2:
            continue
        has_divisor = False
        for d in range(1, up_deg(f) // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                g = up_norm(dom, tuple(tail) + (1,))
                if up_deg(g) != d:
                    continue
                if not dom.dense_divmod(f, g)[1]:
                    has_divisor = True
                    break
            if has_divisor:
                break
        _, fac = factor_dense(f, dom)
        computed_irreducible = len(fac) == 1 and fac[0][1] == 1
        assert computed_irreducible == (not has_divisor)


def test_zassenhaus_versus_structured_products():
    R = PolyRing(QQ, ("X",))
    X, = R.gens()
    f = (X ** 3 - 2) * (X ** 2 + X + 7) * (X - 1) ** 2
    fac = factor_univariate(f)
    degrees = sorted((g.total_degree(), m) for g, m in fac.factors)
    assert degrees == [(1, 2), (2, 1), (3, 1)]
    assert fac.reassemble() == f


def test_number_field_factorization_qq_i():
    Qi = ExtField(QQ, (Fraction(1), Fraction(0), Fraction(1)), var="i")
    f = (Qi.one(), Qi.zero(), Qi.one())  # X^2 + 1
    unit, fac = factor_dense(f, Qi)
    assert len(fac) == 2 and all(m == 1 for _, m in fac)
    prod = (unit,)
    for g, m in fac:
        prod = up_mul(Qi, prod, g)
    assert prod == f
    i = Qi.gen()
    roots = {Qi.dense_scale((g[0],), Qi.from_int(-1))[0] if g[0] else Qi.zero() for g, _ in fac}
    assert roots == {i, Qi.neg(i)}


def test_gf49_factorization():
    F49 = GFq(49, (1, 0, 1))
    assert F49.order() == 49
    f = (F49.one(), F49.zero(), F49.one())  # X^2 + 1 splits: 7 = 3 mod 4
    _, fac = factor_dense(f, F49)
    assert len(fac) == 2


def test_domain_units_z12_by_gcd_scan():
    import math

    oracle = [a for a in range(12) if math.gcd(a, 12) == 1]
    units = domain_units(Zmod(12))
    assert [u for u, _ in units] == oracle == [1, 5, 7, 11]
    for u, inv in units:
        assert u * inv % 12 == 1


def test_domain_units_field_and_infinite():
    assert len(domain_units(GF(7))) == 6
    assert [u for u, _ in domain_units(Zmod(2))] == [1]
    assert domain_units(Zmod(1)) == [(0, 0)]  # the zero ring: 0 = 1 is a unit
    with pytest.raises(InfiniteDomain):
        domain_units(ZZ)


def test_frac_field_arithmetic():
    K = FracField(GF(5), "S")
    s = K.gen()
    x = K.add(s, K.from_int(1))       # S + 1
    y = K.inv(x)
    assert K.mul(x, y) == K.one()
    assert K.add(x, K.neg(x)) == K.zero()


def test_ext_field_tower_arithmetic():
    Qi = ExtField(QQ, (Fraction(1), Fraction(0), Fraction(1)), var="i")
    i = Qi.gen()
    assert Qi.mul(i, i) == Qi.from_int(-1)
    assert Qi.mul(i, Qi.inv(i)) == Qi.one()


def test_recombination_stress_cases():
    """Polynomials that split modulo every prime but are irreducible over
    the rationals force the subset-recombination path."""
    F = Fraction
    x4p1 = (F(1), F(0), F(0), F(0), F(1))
    _, fac = factor_dense(x4p1, QQ)
    assert [(up_deg(g), m) for g, m in fac] == [(4, 1)]
    swinnerton = (F(1), F(0), F(-10), F(0), F(1))  # min poly of sqrt2+sqrt3
    _, fac = factor_dense(swinnerton, QQ)
    assert [(up_deg(g), m) for g, m in fac] == [(4, 1)]
    cyclotomic7 = tuple(F(1) for _ in range(7))
    _, fac = factor_dense(cyclotomic7, QQ)
    assert [(up_deg(g), m) for g, m in fac] == [(6, 1)]
    product = up_mul(QQ, x4p1, (F(-2), F(0), F(0), F(0), F(1)))
    _, fac = factor_dense(product, QQ)
    assert sorted((up_deg(g), m) for g, m in fac) == [(4, 1), (4, 1)]


def test_random_integer_products_reassemble_over_qq():
    rng = random.Random(161803)
    for _ in range(20):
        polys = []
        for _ in range(rng.randrange(1, 4)):
            deg = rng.randrange(1, 4)
            coeffs = [Fraction(rng.randrange(-6, 7)) for _ in range(deg)]
            coeffs.append(Fraction(rng.randrange(1, 7)))
            polys.append(up_norm(QQ, tuple(coeffs)))
        product = (Fraction(1),)
        for p in polys:
            product = up_mul(QQ, product, p)
        unit, fac = factor_dense(product, QQ)
        rebuilt = (unit,)
        for g, m in fac:
            for _ in range(m):
                rebuilt = up_mul(QQ, rebuilt, g)
        assert rebuilt == product



def test_constant_domain_operations_agree_with_from_int():
    for dom in (ZZ, QQ, Zmod(12), GF(7)):
        zero, one = dom.zero(), dom.one()
        assert (zero, one) == (dom.from_int(0), dom.from_int(1))
        assert type(zero) is type(dom.from_int(0))
        assert dom.is_zero(zero) and not dom.is_zero(one)
        assert dom.sub(one, dom.from_int(3)) == dom.add(one, dom.neg(dom.from_int(3)))
    assert QQ.zero() is QQ.zero()

_DRAW_COUNTER = """
import sys
from scheme_explorer import arith, cli, dsl

draws = 0
random_elem = arith._random_elem


def counted(dom, rng):
    global draws
    draws += 1
    return random_elem(dom, rng)


arith._random_elem = counted
with open(sys.argv[1], encoding="utf-8") as handle:
    records, _ = cli.run_script(dsl.parse(handle.read()))
roots = (3, 14, 15, 92, 65, 35, 89, 79)
f = (1,)
for r in roots:
    f = arith.up_mul(arith.GF(101), f, (101 - r, 1))
sys.stdout.write(cli.render_json(records) + repr(arith.factor_dense(f, arith.GF(101))))
sys.stdout.write("\\ndraws %d\\n" % draws)
"""


def test_cantor_zassenhaus_draws_do_not_depend_on_the_hash_seed():
    """Same output bytes and the same number of random draws under two
    PYTHONHASHSEED values: the splitting RNG is seeded from coefficients."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", _DRAW_COUNTER, str(repo / "scripts" / "spec_zt_atlas.scm")],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert int(outputs[0].rsplit("draws ", 1)[1]) > 0


# ---------------------------------------------------------------------------
# Trager norms: the Bareiss determinant against a resultant over QQ(x)
# ---------------------------------------------------------------------------

def _reference_resultant(dom, a, b):
    """Resultant of a and b via the Euclidean remainder sequence."""
    if not a or not b:
        return dom.zero()
    res = dom.one()
    while True:
        if up_deg(b) == 0:
            return dom.mul(res, dom.pow(b[0], up_deg(a)))
        r = dom.dense_divmod(a, b)[1]
        if not r:
            return dom.zero() if up_deg(b) > 0 else res
        if (up_deg(a) * up_deg(b)) % 2 == 1:
            res = dom.neg(res)
        res = dom.mul(res, dom.pow(b[-1], up_deg(a) - up_deg(r)))
        a, b = b, r


def _reference_norm_to_base(dom, f):
    """Res_t(modulus(t), f) taken over the rational function field base(x)."""
    base = dom.base
    K = FracField(base, var="@x")
    modulus = up_norm(K, tuple(K.from_poly((c,)) for c in dom.modulus))
    max_t = max((len(cf) for cf in f if cf), default=0)
    poly_t = []
    for k in range(max_t):
        coeffs_x = tuple(
            (f[j][k] if k < len(f[j]) else base.zero()) for j in range(len(f))
        )
        poly_t.append(K.from_poly(coeffs_x))
    num, den = _reference_resultant(K, modulus, up_norm(K, tuple(poly_t)))
    assert up_deg(den) == 0
    inv = base.inv(den[0])
    return up_norm(base, tuple(base.mul(c, inv) for c in num))


@pytest.mark.parametrize("modulus, max_degree", [
    ((1, 0, 1), 4),          # QQ(i)
    ((-2, 0, 1), 4),         # QQ(sqrt 2)
    ((-2, 0, 0, 1), 3),      # QQ(cbrt 2)
    ((1, 0, -10, 0, 1), 1),  # QQ(sqrt 2 + sqrt 3)
], ids=["i", "sqrt2", "cbrt2", "quartic"])
def test_norm_determinant_matches_the_resultant_over_qq_x(modulus, max_degree):
    from scheme_explorer.arith import _compose_shift, _norm_to_base

    K = ExtField(QQ, tuple(Fraction(c) for c in modulus))
    rng = random.Random(sum(modulus) + 31 * len(modulus))
    samples = [(K.gen(), K.gen())]  # alpha*x + alpha: the first pivot is zero
    for _ in range(3):
        samples.append(tuple(
            up_norm(QQ, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                               for _ in range(K.degree)))
            for _ in range(rng.randint(1, max_degree))
        ) + (K.one(),))
    for f in samples:
        for shift in range(3):
            g = _compose_shift(K, f, K.mul(K.from_int(shift), K.gen()))
            assert _norm_to_base(K, g) == _reference_norm_to_base(K, g), (f, shift)


def test_number_field_factorization_builds_no_function_field(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("FracField built during factorization")

    monkeypatch.setattr(FracField, "__init__", refuse)
    F = Fraction
    Qi = ExtField(QQ, (F(1), F(0), F(1)))
    cbrt2 = ExtField(QQ, (F(-2), F(0), F(0), F(1)))
    for K, f in [(Qi, (Qi.one(), Qi.zero(), Qi.zero(), Qi.zero(), Qi.one())),
                 (cbrt2, (cbrt2.from_int(-2), cbrt2.zero(), cbrt2.zero(), cbrt2.one()))]:
        unit, fac = factor_dense(f, K)
        rebuilt = (unit,)
        for g, m in fac:
            rebuilt = up_mul(K, rebuilt, g)
        assert rebuilt == f and all(m == 1 for _, m in fac) and len(fac) == 2


# ---------------------------------------------------------------------------
# Euclidean division by a monic divisor needs no inverse
# ---------------------------------------------------------------------------

def _reference_up_divmod(dom, a, b):
    """Euclidean division that always multiplies by the inverse of lc(b)."""
    lb = dom.inv(b[-1])
    q = [dom.zero()] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b) and r:
        c = dom.mul(r[-1], lb)
        k = len(r) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] = dom.sub(r[k + i], dom.mul(c, y))
        while r and dom.is_zero(r[-1]):
            r.pop()
    return up_norm(dom, q), up_norm(dom, r)


def test_zmod_pow_matches_the_square_and_multiply_loop():
    rng = random.Random(227)
    for n in [1, 2, 30] + [rng.randrange(3, 10 ** 6) for _ in range(20)]:
        dom = Zmod(n)
        for _ in range(25):
            a = rng.randrange(n)
            for k in (0, 1, rng.randrange(2, 100), rng.randrange(10 ** 6)):
                assert dom.pow(a, k) == Domain.pow(dom, a, k), (a, k, n)


@pytest.mark.parametrize("n", [4, 9])
def test_monic_division_over_zmod_matches_the_inverting_kernel(n):
    dom, rng = Zmod(n), random.Random(n)
    for _ in range(200):
        a = up_norm(dom, tuple(rng.randrange(n) for _ in range(rng.randint(0, 8))))
        b = tuple(rng.randrange(n) for _ in range(rng.randint(0, 4))) + (1,)
        q, r = dom.dense_divmod(a, b)
        assert (q, r) == _reference_up_divmod(dom, a, b)
        assert dom.dense_add(up_mul(dom, q, b), r) == a and up_deg(r) < up_deg(b)


# ---------------------------------------------------------------------------
# size budgets: Zassenhaus recombination and the elements of an extension
# ---------------------------------------------------------------------------

def test_recombination_is_budgeted_before_subsets_are_tried(monkeypatch):
    from scheme_explorer import arith, cli

    x4p1 = tuple(Fraction(c) for c in (1, 0, 0, 0, 1))  # >= 2 factors mod every p
    monkeypatch.setattr(arith, "_RECOMBINATION_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        factor_dense(x4p1, QQ)
    assert cli.main(["exec", "ring A = ZZ[X]/(X^4+1); specialize A over QQ;"]) == 1
    monkeypatch.setattr(arith, "_RECOMBINATION_BUDGET", 2)
    assert [up_deg(g) for g, _ in factor_dense(x4p1, QQ)[1]] == [4]


def test_extension_elements_are_budgeted_before_listing(monkeypatch):
    from scheme_explorer import arith, cli

    F9 = GFq(9, (1, 0, 1))
    monkeypatch.setattr(arith, "_ELEMENTS_BUDGET", 8)
    with pytest.raises(BudgetExceeded):
        F9.elements()
    assert cli.main(["exec", "spec describe GF(9,t^2+1)[X] --bound 1;"]) == 1
    monkeypatch.setattr(arith, "_ELEMENTS_BUDGET", 9)
    assert len(F9.elements()) == 9


def test_gfq_checks_the_degree_of_the_modulus_for_every_order():
    """GF(7) with a cubic modulus was GF(7) itself; a modulus of the degree
    log_p q gives GF(p)[t]/(m), even for q = p."""
    with pytest.raises(UnsupportedDomain, match="GF\\(7\\) needs a modulus of degree 1"):
        GFq(7, (1, 1, 0, 1))
    with pytest.raises(UnsupportedDomain, match="GF\\(49\\) needs a modulus of degree 2"):
        GFq(49, (1, 1, 0, 1))
    assert GFq(7) == GF(7)
    assert GFq(7, (10, 1)) == ExtField(GF(7), (3, 1))
    assert repr(GFq(7, (10, 1))) == "GF(7,t + 3)"


def test_prime_factors_keep_only_certified_cofactors():
    """Trial division stops at its budget; the cofactor left is kept when
    it is a certified prime or prime power and refused otherwise."""
    from scheme_explorer.arith import prime_factors

    with pytest.raises(BudgetExceeded):
        prime_factors(1000003 * 1000033)
    p, m61 = 1000000007, 2 ** 61 - 1
    assert prime_factors(p * p) == [(p, 2)]
    assert prime_factors(2 ** 3 * 3 * p) == [(2, 3), (3, 1), (p, 1)]
    assert prime_factors(m61 ** 3) == [(m61, 3)]
    assert prime_factors(1) == []
    assert prime_factors(360) == [(2, 3), (3, 2), (5, 1)]


def test_prime_powers_are_decided_without_factoring():
    from scheme_explorer.arith import _prime_power

    assert [q for q in range(50) if _prime_power(q)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49]
    assert _prime_power(3 ** 40) == (3, 40) and _prime_power(2 ** 64 * 3) is None
    with pytest.raises(UnsupportedDomain, match="not a prime power"):
        GFq(1000000007 * 1000000009, (1, 1))
    assert GFq(1000000007) == GF(1000000007)


def test_newton_roots_match_the_roots_found_one_bit_at_a_time():
    """Every exponent that ``_prime_power`` tries, on seeded p^k and
    p^k +- 1, powers of 2, composites and a number of about 13,000 bits
    (a seeded sample of its exponents)."""
    from helpers_kernel import integer_root_by_bits

    from scheme_explorer.arith import _integer_root, _next_prime, _prime_power

    rng = random.Random(7575)
    ns = [2 ** k for k in range(1, 300, 7)]
    for _ in range(30):
        q = rng.choice([2, 3, 5, 7, 11, 101, 65537, 1000003]) ** rng.randrange(1, 40)
        ns += [q - 1, q, q + 1]
    ns += [rng.randrange(2, 10 ** 20) * rng.randrange(2, 10 ** 20) for _ in range(20)]
    for n in ns:
        ell = 2
        while 1 << ell <= n:
            assert _integer_root(n, ell) == integer_root_by_bits(n, ell), (n, ell)
            ell = _next_prime(ell)
    big = rng.getrandbits(13000) | 1 << 12999
    ells = [2, 3, 5, 7] + rng.sample([e for e in range(11, 13000) if is_prime(e)], 40)
    for ell in ells:
        assert _integer_root(big, ell) == integer_root_by_bits(big, ell), ell
    assert _prime_power(1000003 ** 650) == (1000003, 650)
    assert _prime_power(1000003 ** 650 + 1) is None


def test_the_least_strong_pseudoprime_to_the_primes_up_to_37_is_composite():
    """318665857834031151167461 = 399165290221 * 798330580441 passes the
    Miller-Rabin test for every prime base up to 37; base 41 exposes it, and
    the thirteen bases up to 41 certify primality below 3.3e24."""
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    assert is_prime(399165290221) and is_prime(798330580441)
