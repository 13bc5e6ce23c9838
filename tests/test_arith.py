"""Domain arithmetic and univariate factorization."""

import math
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


def _reassembled(fac):
    """The unit times each factor to its multiplicity."""
    out = fac.ring.const(fac.unit)
    for g, m in fac.factors:
        out = out * g ** m
    return out


def test_reassembly_over_qq():
    R = PolyRing(QQ, ("X",))
    X, = R.gens()
    f = (2 * X ** 2 - 2) * (X ** 2 + X + 1) * (3 * X - 5)
    fac = factor_univariate(f)
    assert _reassembled(fac) == f


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


def test_powers_of_x_by_squaring_and_shifting_match_the_modular_power():
    """``_x_pow_mod`` gives the reduced x^e mod f of ``up_pow_mod`` for
    seeded monic f over prime fields and GF(9), at e = q and other
    exponents with runs of set bits."""
    from scheme_explorer.arith import _x_pow_mod, up_pow_mod

    rng = random.Random(1403)
    for dom in (GF(2), GF(7), GF(31), GF(32003), GFq(9, (1, 0, 1))):
        x = (dom.zero(), dom.one())
        elements = [dom.from_int(k) for k in range(5)] if dom.char > 3 else dom.elements()
        for _ in range(12):
            f = tuple(rng.choice(elements) for _ in range(rng.randint(2, 9))) + (dom.one(),)
            for e in (dom.order(), 1, 2, 3, 2 ** 10 - 1, rng.randrange(2, 10 ** 6)):
                assert _x_pow_mod(dom, e, f) == up_pow_mod(dom, x, e, f), (dom, f, e)


@pytest.mark.parametrize("q, modulus", [(4, (1, 1, 1)), (9, (1, 0, 1))])
def test_every_small_monic_polynomial_over_gf4_and_gf9(q, modulus):
    """Every monic f of degree at most 3: the factors multiply back to f,
    and no factor of degree d has a monic factor of degree at most d/2
    (brute force over the field's elements)."""
    import itertools

    from helpers_kernel import ref_divmod, ref_mul

    dom = GFq(q, modulus)
    one, elements = dom.one(), dom.elements()
    monics = {d: [tail + (one,) for tail in itertools.product(elements, repeat=d)]
              for d in range(4)}
    for f in itertools.chain(*monics.values()):
        unit, fac = factor_dense(f, dom)
        product = (unit,)
        for g, m in fac:
            assert g[-1] == one
            assert not any(not ref_divmod(dom, g, h)[1]
                           for e in range(1, up_deg(g) // 2 + 1) for h in monics[e]), (f, g)
            for _ in range(m):
                product = ref_mul(dom, product, g)
        assert product == f


def test_zassenhaus_versus_structured_products():
    R = PolyRing(QQ, ("X",))
    X, = R.gens()
    f = (X ** 3 - 2) * (X ** 2 + X + 7) * (X - 1) ** 2
    fac = factor_univariate(f)
    degrees = sorted((g.total_degree(), m) for g, m in fac.factors)
    assert degrees == [(1, 2), (2, 1), (3, 1)]
    assert _reassembled(fac) == f


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
    assert int(outputs[0].rsplit("draws ", 1)[1]) == 27


@pytest.fixture
def cz_generators(monkeypatch):
    """The arguments of each ``_cz_rng`` call that ``factor_dense`` makes."""
    from scheme_explorer import arith

    seeds, real = [], arith._cz_rng

    def counted(f):
        seeds.append(f)
        return real(f)

    monkeypatch.setattr(arith, "_cz_rng", counted)
    return seeds


def test_an_irreducible_part_makes_no_splitting_generator(cz_generators):
    """Distinct-degree factorization alone proves 5 + 3x + 7x^2 + x^3
    irreducible over GF(31), and a part of one irreducible per degree (here
    (x + 1)(x^2 + 1) over GF(3)) is kept without Cantor-Zassenhaus."""
    assert factor_dense((5, 3, 7, 1), GF(31)) == (1, [((5, 3, 7, 1), 1)])
    assert factor_dense((1, 1, 1, 1), GF(3)) == (1, [((1, 1), 1), ((1, 0, 1), 1)])
    assert cz_generators == []


def test_parts_that_split_share_one_generator_seeded_from_the_input(cz_generators):
    """(x-1)^2 (x-2)(x-3) (x^2+1)(x^2+2) over GF(7): the square is no draw,
    the linears are the roots found by scanning the residues, and the
    quadratics are split on one generator, seeded from the whole input,
    made when they are split."""
    dom = GF(7)
    f = (1,)
    for g in ((6, 1), (6, 1), (5, 1), (4, 1), (1, 0, 1), (2, 0, 1)):
        f = up_mul(dom, f, g)
    _, fac = factor_dense(f, dom)
    assert fac == [((4, 1), 1), ((5, 1), 1), ((6, 1), 2), ((1, 0, 1), 1), ((2, 0, 1), 1)]
    assert cz_generators == [f]


def test_distinct_linears_make_a_generator_only_past_the_root_scan(cz_generators):
    """Five distinct linears over the largest prime the residue scan serves
    are its roots, with no draw; over the next prime they are split by
    Cantor-Zassenhaus on one generator."""
    from scheme_explorer.arith import _ROOT_SCAN_ORDER, _next_prime

    below = max(p for p in range(2, _ROOT_SCAN_ORDER + 1) if is_prime(p))
    for p in (below, _next_prime(_ROOT_SCAN_ORDER)):
        dom, f = GF(p), (1,)
        for r in (1, 2, 3, 5, 8):
            f = up_mul(dom, f, (p - r, 1))
        _, fac = factor_dense(f, dom)
        assert fac == [((p - r, 1), 1) for r in (8, 5, 3, 2, 1)]
        assert len(cz_generators) == (p > _ROOT_SCAN_ORDER)


def _seeded_gf_product(rng, p):
    """A constant times seeded factors over GF(p): linears and root-free
    quadratics, cubics and quartics, each to a power 1-3, and sometimes two
    linears at the ends of the scan, x - 1 and x + 1, so that the cofactor
    turns linear after the first root and the other is never scanned."""
    from test_factor_sympy import _root_free

    dom, f = GF(p), (rng.randrange(1, p),)
    factors = []
    for _ in range(rng.randint(1, 4)):
        degree = rng.choice((1, 1, 2, 2, 3, 4))
        g = (rng.randrange(p), 1) if degree == 1 else _root_free(rng, p, degree)
        factors += [g] * rng.choice((1, 1, 2, 3))
    if rng.random() < 0.25:
        factors += [(p - 1, 1)] * rng.randint(1, 2) + [(1, 1)] * rng.randint(1, 2)
    for g in factors:
        f = up_mul(dom, f, g)
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 31, 61, 67, 101])
def test_finite_field_factors_match_sympy_on_both_sides_of_the_root_scan(p):
    """Seeded products with repeated linear and quadratic factors, root-free
    quadratics, cubics and quartics, and cofactors that turn linear partway
    through the scan, over GF(p) at and past _ROOT_SCAN_ORDER, against
    sympy's factorization; the unit is the leading coefficient."""
    pytest.importorskip("sympy")
    from test_factor_sympy import sympy_factors_gf

    from scheme_explorer.arith import _ROOT_SCAN_ORDER

    assert 61 <= _ROOT_SCAN_ORDER < 67
    rng = random.Random(4200 + p)
    for _ in range(25):
        f = _seeded_gf_product(rng, p)
        unit, fac = factor_dense(f, GF(p))
        assert unit == f[-1]
        assert fac == sorted(fac, key=lambda gm: (len(gm[0]), gm[0]))
        assert sorted(fac) == sympy_factors_gf(f, p), f


@pytest.fixture
def finite_field_steps(monkeypatch):
    """The calls of the residue scan, the squarefree split and distinct-degree
    factorization that ``factor_dense`` makes, by name, with their
    arguments."""
    from scheme_explorer import arith

    calls = []
    for name in ("_linear_factors", "squarefree_decomposition", "_distinct_degree"):

        def counted(*args, real=getattr(arith, name), name=name):
            calls.append((name,) + args)
            return real(*args)

        monkeypatch.setattr(arith, name, counted)
    return calls


def test_roots_and_a_root_free_cofactor_of_degree_at_most_3_finish_at_the_scan(
    finite_field_steps,
):
    """A root-free cubic over GF(31) is irreducible, and (x - 3)^2 (x^2 + 1)
    over GF(7) splits into its roots with multiplicity and an irreducible
    quadratic, both with one scan and no squarefree split or
    distinct-degree factorization."""
    assert factor_dense((10, 6, 14, 2), GF(31)) == (2, [((5, 3, 7, 1), 1)])
    dom, f = GF(7), (1, 0, 1)
    for _ in range(2):
        f = up_mul(dom, f, (4, 1))
    assert factor_dense(f, dom) == (1, [((4, 1), 2), ((1, 0, 1), 1)])
    assert [call[0] for call in finite_field_steps] == ["_linear_factors"] * 2


def test_a_root_free_quartic_is_scanned_once_and_split_from_degree_2(finite_field_steps):
    """(x^2 + 1)(x^2 - 3) over GF(31) has no root: after the one scan it goes
    through the squarefree split and distinct-degree factorization, which
    start at degree 2 and scan no residue again."""
    dom = GF(31)
    f = up_mul(dom, (1, 0, 1), (28, 0, 1))
    assert factor_dense(f, dom) == (1, [((1, 0, 1), 1), ((28, 0, 1), 1)])
    assert finite_field_steps == [
        ("_linear_factors", f, 31),
        ("squarefree_decomposition", f, dom),
        ("_distinct_degree", f, dom, 1),
    ]


def test_prime_factors_match_trial_division_by_every_divisor():
    """The sieved primes in gcd blocks give the list, and the refusal, of
    one division per odd divisor: on 1, primes, prime powers, products of
    two primes near 10^6 (on both sides of the trial budget) and seeded
    composites."""
    from helpers_kernel import prime_factors_by_division

    from scheme_explorer.arith import _next_prime, prime_factors

    def outcome(factor, n):
        try:
            return factor(n)
        except BudgetExceeded as exc:
            return str(exc)

    rng = random.Random(2075)
    near = [999983, 1000003, 1000033]
    ns = [1, 2, 3, 4, 42, 168, 961, 1369, 1000003, 2 ** 64, 3 ** 40, 1000033 ** 3]
    ns += [p * q for p in near for q in near if p <= q]
    ns += [_next_prime(rng.randrange(2, 10 ** 5)) ** rng.randrange(1, 5) for _ in range(20)]
    ns += [rng.randrange(2, 10 ** 4) * rng.randrange(2, 10 ** 5) for _ in range(20)]
    refused = 0
    for n in ns:
        expected = outcome(prime_factors_by_division, n)
        refused += isinstance(expected, str)
        assert outcome(prime_factors, n) == expected, n
    assert 0 < refused < len(ns)


# ---------------------------------------------------------------------------
# number fields: no function field is built
# ---------------------------------------------------------------------------

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
# quadratic fields: Zassenhaus at a split prime, sympy as oracle
# ---------------------------------------------------------------------------

_QUADRATIC_FIELDS = {
    "i": (1, 0, 1),
    "sqrt2": (-2, 0, 1),
    "sqrt-3": (3, 0, 1),  # O_K is not Z[t]
    "sqrt5": (-5, 0, 1),  # O_K is not Z[t]
    "half": (Fraction(-1, 2), 0, 1),  # t^2 - 1/2: beta = 2t is a root of s^2 - 2
}


def _quadratic(name):
    return ExtField(QQ, tuple(Fraction(c) for c in _QUADRATIC_FIELDS[name]))


def _monic_factor(K, rng):
    """A monic factor of degree 1 to 3 over K, with small rational
    coordinates, sometimes all in QQ."""
    rational = rng.random() < 0.3
    coeffs = tuple(
        up_norm(QQ, (Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))),)
                + (() if rational else (Fraction(rng.randint(-4, 4), rng.choice((1, 2))),)))
        for _ in range(rng.choice((1, 1, 2, 2, 3))))
    return coeffs + (K.one(),)


def _product(K, factors):
    f = (K.one(),)
    for g in factors:
        f = up_mul(K, f, g)
    return f


def _ref_factors(K, f):
    """The monic irreducible factors of a squarefree f by sympy's
    ``factor_list`` over QQ<alpha>, alpha a root of the modulus."""
    pytest.importorskip("sympy")
    from test_number_field_sympy import sympy_factors

    return [g for g, _ in sympy_factors(K, f)]


@pytest.fixture
def split_prime_calls(monkeypatch):
    """Counts of the Yun runs, lifts and recombinations that factoring over
    a number field makes."""
    from scheme_explorer import arith

    seen = {"yun": 0, "lift": 0, "recombine": 0}
    for name, key in (("_yun", "yun"), ("_lift_factorization", "lift"),
                      ("_recombine", "recombine")):
        def counted(*args, real=getattr(arith, name), key=key):
            seen[key] += 1
            return real(*args)

        monkeypatch.setattr(arith, name, counted)
    return seen


@pytest.mark.parametrize("name", list(_QUADRATIC_FIELDS))
def test_split_prime_factors_match_sympy_on_seeded_squarefree_inputs(name, split_prime_calls):
    """40 seeded squarefree products of 1 to 4 factors per field, 200 in
    all, with the same factors as sympy's factorization."""
    K = _quadratic(name)
    rng = random.Random(f"split {name}")
    inputs = []
    while len(inputs) < 40:
        f = _product(K, [_monic_factor(K, rng) for _ in range(rng.randint(1, 4))])
        if up_deg(K.dense_gcd(f, K.dense_deriv(f))) == 0:
            inputs.append(K.dense_scale(f, up_norm(QQ, (Fraction(rng.randint(1, 5)),))))
    factored = [factor_dense(f, K) for f in inputs]
    for f, (unit, fac) in zip(inputs, factored):
        assert unit == f[-1] and all(m == 1 for _, m in fac)
        assert [g for g, _ in fac] == _ref_factors(K, f), f


@pytest.mark.parametrize("name", list(_QUADRATIC_FIELDS))
def test_the_lifting_modulus_passes_the_bound_in_each_complex_embedding(name, monkeypatch):
    """p^K > 4*d^2*B^2 for B = 2^n * ||s(den*g)||_2, the largest in the two
    complex embeddings s (floats, 1e-9 relative slack), and d the root of
    the largest square dividing the discriminant of beta."""
    from scheme_explorer import arith

    K = _quadratic(name)
    moduli = []
    real = arith._lift_factorization

    def recorded(p, f, leaves, final):
        moduli.append(final)
        return real(p, f, leaves, final)

    monkeypatch.setattr(arith, "_lift_factorization", recorded)
    r0, r1 = K._nf.red  # beta^2 = r0 + r1*beta
    disc = r1 * r1 + 4 * r0
    d = max(k for k in range(1, math.isqrt(abs(disc)) + 1) if disc % (k * k) == 0)
    roots = [(r1 + sign * complex(disc) ** 0.5) / 2 for sign in (1, -1)]
    rng = random.Random(f"bound {name}")
    lifted = 0
    for _ in range(12):
        g = _product(K, [_monic_factor(K, rng) for _ in range(rng.randint(2, 4))])
        if up_deg(K.dense_gcd(g, K.dense_deriv(g))) > 0:
            continue
        del moduli[:]
        factor_dense(g, K)
        if not moduli:
            continue
        flat, den = K._nf.ints(g)
        s = K._nf.s
        norms = [sum(abs(a + b * beta) ** 2 for a, b in zip(flat[0::s], flat[1::s]))
                 for beta in roots]
        bound = 4 * d * d * 4 ** up_deg(g) * max(norms)
        assert moduli[0] > bound * (1 + 1e-9), (g, moduli[0], bound)
        lifted += 1
    assert lifted >= 3


def test_hensel_lifting_stops_at_any_power_of_the_prime():
    """The quadratic field path lifts to the least p^K past its bound, not to
    a power p^(2^j): the factors multiply to f mod p^K and reduce to the
    modular factors mod p."""
    from scheme_explorer.arith import _lift_factorization

    rng = random.Random(4242)
    dom = Zmod(7)
    for _ in range(20):
        leaves = []
        while len(leaves) < 3:
            g = tuple(rng.randrange(7) for _ in range(rng.randint(1, 3))) + (1,)
            if all(up_deg(dom.dense_gcd(g, h)) == 0 for h in leaves):
                leaves.append(g)
        f = (1,)
        for g in leaves:
            f = up_mul(ZZ, f, tuple(c + 7 * rng.randint(-3, 3) for c in g[:-1]) + (1,))
        for k in (3, 5, 6, 11):
            lifted = _lift_factorization(7, f, sorted(leaves), 7 ** k)
            product = (1,)
            for g in lifted:
                product = up_mul(ZZ, product, g)
            assert all((a - b) % 7 ** k == 0 for a, b in zip(product, f))
            assert sorted(tuple(c % 7 for c in g) for g in lifted) == sorted(leaves)


def test_inputs_whose_first_split_primes_are_all_bad(split_prime_calls):
    """Over Q(i) the first split primes are 5, 13, 17 and 29.  Here the
    denominator 65 makes 5 and 13 bad, and the roots i/65 and i/65 + 493,
    493 = 17*29, meet mod the primes over 17 and 29: no squarefree
    certificate, so Yun runs, and the split runs at a later prime."""
    K = _quadratic("i")
    root = up_norm(QQ, (Fraction(0), Fraction(1, 65)))
    f = _product(K, [(K.neg(root), K.one()), (K.neg(K.add(root, K.from_int(493))), K.one())])
    factored = factor_dense(f, K)
    assert split_prime_calls["yun"] == 1
    assert factored == (K.one(), [(g, 1) for g in _ref_factors(K, f)])
    split_prime_calls["yun"] = 0
    factor_dense(_product(K, [(K.neg(root), K.one()), (K.from_int(3), K.one())]), K)
    assert split_prime_calls["yun"] == 0  # 17 certifies it


def test_an_irreducible_image_certifies_irreducibility_over_a_quadratic_field(
        split_prime_calls):
    """x^3 - 2 is irreducible mod the primes over 13 in Q(i) (2 is no cube
    mod 13), so it is irreducible over Q(i) with nothing lifted."""
    K = _quadratic("i")
    f = (K.from_int(-2), K.zero(), K.zero(), K.one())
    assert factor_dense(f, K) == (K.one(), [(f, 1)])
    assert split_prime_calls["lift"] == 0


def test_twelve_modular_factors_over_a_quadratic_field_meet_the_budget(
        monkeypatch, split_prime_calls):
    """The six x^2 - (k^2 + 6409), 6409 = 13*17*29, are irreducible over
    Q(i) and split into twelve linears mod every prime over 13, 17 and 29:
    recombination counts 172 subsets, inside the shared budget, and a
    budget of 171 refuses the input before trying them."""
    from scheme_explorer import arith

    K = _quadratic("i")
    factors = [(K.from_int(-(k * k + 6409)), K.zero(), K.one()) for k in range(1, 7)]
    f = _product(K, factors)
    assert factor_dense(f, K) == (K.one(), [(g, 1) for g in sorted(factors)])
    assert split_prime_calls["recombine"] == 1
    monkeypatch.setattr(arith, "_RECOMBINATION_BUDGET", 171)
    with pytest.raises(BudgetExceeded):
        factor_dense(f, K)
    monkeypatch.setattr(arith, "_RECOMBINATION_BUDGET", 172)
    assert len(factor_dense(f, K)[1]) == 6


@pytest.mark.parametrize("modulus",
                         [None, (-3, 1), (1, 0, 1), (-2, 0, 0, 1), (-2, 0, 0, 0, 0, 1)],
                         ids=["QQ", "deg1", "i", "cbrt2", "x5-2"])
def test_every_number_field_factors_at_split_primes(modulus, monkeypatch):
    """Over QQ itself (t = 3) and fields of degree 1, 2, 3 and 5 a reducible
    input is lifted by ``_SplitPrimes.lift``, an irreducible one is
    certified with nothing lifted, and ``squarefree_decomposition`` is never
    called."""
    from scheme_explorer import arith

    def refuse(*args):
        raise AssertionError("squarefree_decomposition was called")

    lifts = []
    real = arith._SplitPrimes.lift

    def counted(self, g, p, mods):
        lifts.append(len(mods))
        return real(self, g, p, mods)

    monkeypatch.setattr(arith, "squarefree_decomposition", refuse)
    monkeypatch.setattr(arith._SplitPrimes, "lift", counted)
    K = QQ if modulus is None else ExtField(QQ, tuple(Fraction(c) for c in modulus))
    x_minus_t = (K.neg(K.from_int(3) if modulus is None else K.gen()), K.one())
    quadratic = (K.from_int(-7), K.zero(), K.one())  # x^2 - 7, irreducible over each K
    factors = [x_minus_t, x_minus_t, (K.one(), K.one()), quadratic]
    unit, fac = factor_dense(K.dense_scale(_product(K, factors), K.from_int(3)), K)
    assert unit == K.from_int(3) and lifts
    assert fac == sorted([(x_minus_t, 2), ((K.one(), K.one()), 1), (quadratic, 1)],
                         key=lambda gm: (up_deg(gm[0]), gm[0]))
    del lifts[:]
    assert factor_dense(quadratic, K) == (K.one(), [(quadratic, 1)])
    assert lifts == []


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


def test_the_square_root_part_is_the_largest_square_divisor():
    """Below the cube of the trial budget the cofactor of the trial
    division is a prime, a product of two or a square; past it the answer
    is a multiple of the root of the largest square divisor."""
    from scheme_explorer.arith import _square_root_part

    def largest(n):
        return max(d for d in range(1, math.isqrt(n) + 1) if n % (d * d) == 0)

    rng = random.Random(3131)
    for n in list(range(1, 2000)) + [rng.randrange(1, 10 ** 6) * rng.choice((1, 4, 9, 49))
                                     for _ in range(200)]:
        assert _square_root_part(n) == largest(n), n
    p, q, r = 1000003, 1000033, 1000037
    assert _square_root_part(4 * p * q) == 2 and _square_root_part(7 * p * p) == p
    assert _square_root_part(p * p * q * q * r) % (p * q) == 0


def test_a_large_modulus_with_a_factor_past_37_is_no_field_without_miller_rabin(monkeypatch):
    """10^3999 + 9 has the least prime factor 103: the sieved primes find it
    in their first gcd block, and no witness is tried."""
    from scheme_explorer import arith

    class NoWitnesses:
        def __iter__(self):
            raise AssertionError("a Miller-Rabin witness was tried")

    monkeypatch.setattr(arith, "_MR_WITNESSES", NoWitnesses())
    assert (10 ** 3999 + 9) % 103 == 0
    assert Zmod(10 ** 3999 + 9).is_field is False
    with pytest.raises(AssertionError, match="witness"):
        is_prime(2 ** 89 - 1)  # a prime: its test reaches the witnesses


def test_the_least_strong_pseudoprime_to_the_primes_up_to_37_is_composite():
    """318665857834031151167461 = 399165290221 * 798330580441 passes the
    Miller-Rabin test for every prime base up to 37; base 41 exposes it, and
    the thirteen bases up to 41 certify primality below 3.3e24."""
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    assert is_prime(399165290221) and is_prime(798330580441)
