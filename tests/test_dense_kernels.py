"""The dense univariate kernels of the domains against the generic loops.

Every ``Domain`` subclass inherits one loop per dense operation, making a
``Domain`` call per coefficient; ``Zmod``, ``ZZ`` and ``QQ`` override them
with integer kernels, and an ``ExtField`` over a prime field multiplies
through log/antilog tables. The loops they replaced are kept in
``helpers_kernel`` and decide every answer here; so do the integer division
and Yun that ``ZZ.dense_divmod`` and ``_yun(f, ZZ)`` replaced, and sympy's
primitive gcd decides ``ZZ.dense_gcd``.
"""

import itertools
import math
import random
import threading
import time
from fractions import Fraction

import pytest

from helpers_kernel import (
    RefExtField,
    ref_add,
    ref_divmod,
    ref_ext_mul,
    ref_gcd,
    ref_monic,
    ref_mul,
    ref_norm,
    ref_scale,
    ref_sub,
    ref_try_divide_int,
    ref_yun_int,
    ref_zech_tables,
)
from scheme_explorer import arith
from scheme_explorer.arith import GF, QQ, ZZ, ExtField, GFq, Zmod, factor_dense
from scheme_explorer.errors import NotInvertible


def _zmod_poly(rng, n, degree):
    return ref_norm(Zmod(n), tuple(rng.randrange(n) for _ in range(degree + 1)))


def _int_poly(rng, degree):
    return ref_norm(ZZ, tuple(rng.randint(-50, 50) for _ in range(degree + 1)))


def _qq_poly(rng, degree):
    return ref_norm(QQ, tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 35)))
                              for _ in range(degree + 1)))


def _operands(rng, make):
    """Zero, a constant and ten polynomials of degree below 8, trimmed where
    a random leading coefficient is zero."""
    polys = [(), make(rng, 0)]
    polys += [make(rng, rng.randrange(8)) for _ in range(10)]
    return polys


def _check_ring_ops(dom, polys):
    for a, b in itertools.product(polys, repeat=2):
        assert dom.dense_add(a, b) == ref_add(dom, a, b)
        assert dom.dense_sub(a, b) == ref_sub(dom, a, b)
        assert dom.dense_mul(a, b) == ref_mul(dom, a, b)
    for a in polys:
        assert dom.dense_mul(a, a) == ref_mul(dom, a, a)
        for s in (dom.zero(), dom.one(), a[0] if a else dom.one()):
            assert dom.dense_scale(a, s) == ref_scale(dom, a, s)


def _check_divisions(dom, polys, divisors):
    for a, b in itertools.product(polys, divisors):
        assert dom.dense_divmod(a, b) == ref_divmod(dom, a, b)
        for c in polys[:4]:
            assert dom.dense_mulmod(a, c, b) == ref_divmod(dom, ref_mul(dom, a, c), b)[1]
        assert dom.dense_divmod(a, b)[1] == ref_divmod(dom, a, b)[1]


def _same_or_not_invertible(kernel, reference):
    """The kernel's answer is the reference's, or both raise NotInvertible;
    True when they answer."""
    try:
        expected = reference()
    except NotInvertible:
        with pytest.raises(NotInvertible):
            kernel()
        return False
    assert kernel() == expected
    return True


@pytest.mark.parametrize("n", [2, 7, 32003, 6, 5 ** 4, 7 ** 8, 2 ** 61 - 1])
def test_zmod_kernels_match_the_generic_loops(n):
    rng = random.Random(n)
    dom = Zmod(n)
    polys = _operands(rng, lambda r, d: _zmod_poly(r, n, d))
    _check_ring_ops(dom, polys)
    units = [a for a in polys if a and dom.is_unit(a[-1])]
    monics = [a[:-1] + (1,) for a in polys if a]
    _check_divisions(dom, polys, monics + units)
    for a in units:
        assert dom.dense_monic(a) == ref_monic(dom, a)
        assert dom.dense_deriv(a) == ref_norm(
            dom, [dom.mul(a[i], dom.from_int(i)) for i in range(1, len(a))])
    # gcds: the generic Euclid over a field; for composite n the same gcd,
    # or NotInvertible where a divisor's leading coefficient is no unit
    answered = {_same_or_not_invertible(lambda: dom.dense_gcd(a, b), lambda: ref_gcd(dom, a, b))
                for a, b in itertools.product(polys + monics, repeat=2)}
    assert answered == ({True} if dom.is_field else {True, False})
    # products mod monic moduli on both sides of the fused-loop cutoff,
    # with reduced and unreduced operands
    for length in (2, arith._FUSED_MULMOD_LENGTH - 1, arith._FUSED_MULMOD_LENGTH, 20):
        m = tuple(rng.randrange(n) for _ in range(length - 1)) + (1,)
        for la, lb in ((length - 1, length - 1), (1, length - 1), (length + 3, 2 * length)):
            a = _zmod_poly(rng, n, la - 1)
            b = _zmod_poly(rng, n, lb - 1)
            assert dom.dense_mulmod(a, b, m) == ref_divmod(dom, ref_mul(dom, a, b), m)[1]


def test_zmod_trims_what_a_composite_modulus_zeroes():
    dom = Zmod(6)
    assert dom.dense_mul((1, 2), (1, 3)) == (1, 5) == ref_mul(dom, (1, 2), (1, 3))
    assert dom.dense_mul((0, 2), (0, 3)) == ()
    assert dom.dense_mul((4, 2, 2), (3, 3)) == ()
    assert dom.dense_scale((1, 3), 2) == (2,)
    assert dom.dense_add((1, 5), (2, 1)) == (3,)
    assert dom.dense_sub((1, 5), (1, 5)) == ()
    assert dom.dense_divmod((3, 0, 2), (1, 1)) == ref_divmod(dom, (3, 0, 2), (1, 1))


@pytest.mark.parametrize("n, divisor", [(6, (1, 2)), (6, (1, 1, 3)), (5 ** 4, (1, 5)),
                                        (5 ** 4, (2, 0, 25))])
def test_a_divisor_without_a_unit_leading_coefficient_is_not_invertible(n, divisor):
    dom = Zmod(n)
    for a in ((), (1,), (1, 2, 3, 4)):
        with pytest.raises(NotInvertible):
            ref_divmod(dom, a, divisor)
        with pytest.raises(NotInvertible):
            dom.dense_divmod(a, divisor)
        with pytest.raises(NotInvertible):
            dom.dense_divmod(a, divisor)
        with pytest.raises(NotInvertible):
            dom.dense_mulmod(a, (1, 2, 3), divisor)
        with pytest.raises(NotInvertible):
            dom.dense_gcd(a, divisor)


def test_integer_kernels_match_the_generic_loops():
    rng = random.Random(11)
    polys = _operands(rng, _int_poly)
    _check_ring_ops(ZZ, polys)
    _check_divisions(ZZ, polys, [a for a in polys if a and a[-1] in (1, -1)] + [(1,), (-3, 1)])


def _int_factor(rng):
    """A seeded integer polynomial of degree 1 to 3 with lc in 1..5."""
    return tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 3))) + (rng.randint(1, 5),)


def _check_integer_division(a, b):
    """ZZ.dense_divmod gives the reference's quotient and remainder, and
    raises NotInvertible exactly where the reference gives up."""
    q, r = ref_try_divide_int(a, b)
    if q is None:
        with pytest.raises(NotInvertible):
            ZZ.dense_divmod(a, b)
    else:
        assert ZZ.dense_divmod(a, b) == (q, r)
    return q is not None


def test_integer_division_matches_the_exact_reference():
    rng = random.Random(13)
    factors = [_int_factor(rng) for _ in range(12)]
    for g, h in itertools.product(factors, repeat=2):
        # an exact divisor, with lc 1..5 or its negation
        assert ZZ.dense_divmod(ref_mul(ZZ, g, h), g) == (h, ())
        assert _check_integer_division(ref_mul(ZZ, g, h), ref_scale(ZZ, g, -1))
    dividends = _operands(rng, _int_poly)
    divisors = factors + [(-3, 1, -1), (5, -1), (2, 0, 3, 2), (4, 6)]
    outcomes = {_check_integer_division(a, b) for a in dividends for b in divisors}
    assert outcomes == {True, False}
    # a non-dividing lc raises, also when an earlier step divided
    for a, b in (((1, 0, 1), (1, 2)), ((0, 3, 2), (2, 2)), ((1, 0, 0, 3), (1, 2))):
        assert not _check_integer_division(a, b)
    # a divisor longer than the dividend, a zero dividend, lc = -1
    assert ZZ.dense_divmod((1, 2), (1, 2, 3)) == ((), (1, 2)) == ref_try_divide_int(
        (1, 2), (1, 2, 3))
    assert ZZ.dense_divmod((), (4, 6)) == ((), ()) == ref_try_divide_int((), (4, 6))
    assert ZZ.dense_divmod((3, 0, 5), (2, -1)) == ((-10, -5), (23,)) == ref_try_divide_int(
        (3, 0, 5), (2, -1))


def _int_products(rng, count):
    """Primitive products (lc > 0) of one to three seeded factors, each to a
    power of 1 to 3."""
    out = []
    while len(out) < count:
        f = (1,)
        for _ in range(rng.randint(1, 3)):
            g = _int_factor(rng)
            for _ in range(rng.randint(1, 3)):
                f = ref_mul(ZZ, f, g)
        prim = arith._int_content_primitive(f)[1]
        if len(prim) > 1:
            out.append(prim)
    return out


def test_yun_over_zz_matches_the_integer_reference():
    rng = random.Random(14)
    multiple = 0
    for f in _int_products(rng, 150):
        sqf = arith._yun(f, ZZ)
        assert sqf == ref_yun_int(f), f
        multiple += any(m > 1 for _, m in sqf)
    assert multiple > 50


def test_integer_gcd_is_the_primitive_gcd_of_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def primitive_gcd(a, b):
        g = sympy.Poly(list(reversed(a)), x, domain="ZZ").gcd(
            sympy.Poly(list(reversed(b)), x, domain="ZZ"))
        prim = tuple(int(c) for c in reversed(g.primitive()[1].all_coeffs()))
        return tuple(-c for c in prim) if prim[-1] < 0 else prim

    rng = random.Random(15)
    polys = _operands(rng, _int_poly) + _int_products(rng, 8)
    shared = _int_factor(rng)
    polys += [ref_mul(ZZ, shared, p) for p in polys[1:6]] + [(6,), (-4, -2)]
    for a, b in itertools.product(polys, repeat=2):
        if a or b:
            assert ZZ.dense_gcd(a, b) == primitive_gcd(a, b), (a, b)
    assert ZZ.dense_gcd((), ()) == ()


def test_rational_kernels_match_the_generic_loops():
    rng = random.Random(12)
    polys = _operands(rng, _qq_poly)
    _check_ring_ops(QQ, polys)
    divisors = [a for a in polys if a] + [a[:-1] + (Fraction(1),) for a in polys if a]
    divisors.append((Fraction(1, 3), Fraction(0), Fraction(1)))
    _check_divisions(QQ, polys, divisors)
    for a in polys[1:]:
        assert QQ.dense_monic(a) == ref_monic(QQ, a)
    # every coefficient stays a Fraction, zero included
    q, r = QQ.dense_divmod(polys[-1], (Fraction(2), Fraction(1)))
    assert all(type(c) is Fraction for c in q + r)
    assert all(type(c) is Fraction for c in QQ.dense_mul(polys[-1], polys[-2]))


def _tabulated(field):
    field.mul(field.one(), field.one())
    assert field._tables, f"{field!r} should multiply through tables"
    return field


@pytest.mark.parametrize("q, modulus", [(4, (1, 1, 1)), (9, (1, 0, 1)), (25, (2, 0, 1)),
                                        (8, (1, 1, 0, 1)), (3, (1, 1))])
def test_table_products_and_inverses_are_exhaustively_the_polynomial_ones(q, modulus):
    p = arith.prime_factors(q)[0][0]
    field = ExtField(GF(p), modulus)
    assert field.order() == q
    _tabulated(field)
    elems = field.elements()
    for a, b in itertools.product(elems, repeat=2):
        assert field.mul(a, b) == ref_ext_mul(field, a, b)
    for a in elems[1:]:
        assert ref_ext_mul(field, a, field.inv(a)) == field.one()
    with pytest.raises(NotInvertible):
        field.inv(())


def test_table_products_over_gf169_on_a_sample():
    field = _tabulated(GFq(169, (2, 0, 1)))
    rng = random.Random(169)
    elems = field.elements()
    for _ in range(3000):
        a, b = rng.choice(elems), rng.choice(elems)
        assert field.mul(a, b) == ref_ext_mul(field, a, b)
    for a in elems[1:]:
        assert ref_ext_mul(field, a, field.inv(a)) == field.one()


def test_fields_past_the_table_budget_multiply_by_polynomials():
    field = ExtField(GF(2), (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1))  # GF(2^11)
    assert field.order() > arith._LOG_TABLE_BUDGET
    rng = random.Random(2)
    for _ in range(200):
        a = ref_norm(field.base, tuple(rng.randrange(2) for _ in range(11)))
        b = ref_norm(field.base, tuple(rng.randrange(2) for _ in range(11)))
        assert field.mul(a, b) == ref_ext_mul(field, a, b)
    assert field._tables is False
    assert ExtField(QQ, (1, 0, 1)).mul((Fraction(1),), (Fraction(1),)) == (Fraction(1),)


def test_dense_products_over_a_tabulated_field_match_the_generic_loops():
    field = GFq(9, (1, 0, 1))
    rng = random.Random(9)
    elems = field.elements()
    polys = [(), (field.one(),)] + [
        ref_norm(field, tuple(rng.choice(elems) for _ in range(rng.randrange(1, 7))))
        for _ in range(10)
    ]
    _check_ring_ops(field, polys)
    _check_divisions(field, polys, [a for a in polys if a])


def _generic_calls(monkeypatch):
    """The names of the ``Zmod.mul``, ``add`` and ``sub`` calls made from
    now on, until ``monkeypatch.undo()``."""
    calls = []
    for name in ("mul", "add", "sub"):
        real = getattr(Zmod, name)

        def counted(self, a, b, real=real, name=name):
            calls.append(name)
            return real(self, a, b)

        monkeypatch.setattr(Zmod, name, counted)
    return calls


def test_factoring_over_gf32003_makes_no_generic_coefficient_calls(monkeypatch):
    """A guard by count, not by time: squarefree decomposition, distinct- and
    equal-degree factorization run on the integer kernels of ``Zmod``."""
    dom = GF(32003)
    rng = random.Random(8)
    f = (5,)
    for d in (1, 2, 2, 3):
        f = ref_mul(dom, f, _zmod_poly(rng, 32003, d)[:-1] + (1,))
    calls = _generic_calls(monkeypatch)
    unit, fac = factor_dense(f, dom)
    assert calls == []
    monkeypatch.undo()
    product = (unit,)
    for g, m in fac:
        for _ in range(m):
            product = ref_mul(dom, product, g)
    assert product == f and len(f) == 9 and len(fac) >= 3


def test_factoring_over_gf31_makes_no_generic_coefficient_calls(monkeypatch):
    """The same guard where the linear factors come from scanning the
    residues: a square and a cube of linears, two more linears and the
    root-free quartic (x^2 + 1)(x^2 - 3) over GF(31), split by
    Cantor-Zassenhaus."""
    dom = GF(31)
    assert 31 <= arith._ROOT_SCAN_ORDER
    f = (3,)
    for g in ((1, 1), (1, 1), (4, 1), (4, 1), (4, 1), (9, 1), (30, 1), (1, 0, 1), (28, 0, 1)):
        f = ref_mul(dom, f, g)
    calls = _generic_calls(monkeypatch)
    unit, fac = factor_dense(f, dom)
    assert calls == []
    monkeypatch.undo()
    assert unit == 3
    assert fac == [((1, 1), 2), ((4, 1), 3), ((9, 1), 1), ((30, 1), 1),
                   ((1, 0, 1), 1), ((28, 0, 1), 1)]
    product = (unit,)
    for g, m in fac:
        for _ in range(m):
            product = ref_mul(dom, product, g)
    assert product == f


# ---------------------------------------------------------------------------
# ExtField kernels: number fields on integers, GF(q) on Zech logarithms
# ---------------------------------------------------------------------------

def _ext_operands(rng, field, coordinate):
    """Zero, one, a random constant and ten polynomials of degree below 7,
    with coordinates drawn by ``coordinate``; leading coefficients are
    random elements, so most divisors are not monic."""
    def poly(degree):
        return ref_norm(field, tuple(
            ref_norm(field.base, tuple(coordinate(rng) for _ in range(field.degree)))
            for _ in range(degree + 1)))

    polys = [(), (field.one(),), poly(0)]
    return polys + [poly(rng.randrange(7)) for _ in range(10)]


def _check_field_kernels(field, polys):
    ref = RefExtField(field)
    divisors = [b for b in polys if b]
    for a, b in itertools.product(polys, repeat=2):
        assert field.dense_mul(a, b) == ref_mul(ref, a, b)
        assert field.dense_sub(a, b) == ref_sub(ref, a, b)
    for a, b in itertools.product(polys, divisors):
        assert field.dense_divmod(a, b) == ref_divmod(ref, a, b), (a, b)
        assert field.dense_gcd(a, b) == ref_gcd(ref, a, b), (a, b)
        c = polys[-1]
        assert field.dense_mulmod(a, c, b) == ref_divmod(ref, ref_mul(ref, a, c), b)[1]
    for a in polys:
        assert field.dense_gcd(a, ()) == ref_monic(ref, a)
        assert field.dense_monic(a) == ref_monic(ref, a)
        assert field.dense_deriv(a) == ref_norm(
            ref, [ref.mul(a[i], ref.from_int(i)) for i in range(1, len(a))])
        for c in a:
            assert field.dense_scale(a, c) == ref_scale(ref, a, c)
            if c:
                assert field.inv(c) == ref.inv(c)


_NUMBER_FIELDS = {
    "i": (1, 0, 1),
    "sqrt2": (-2, 0, 1),
    "cbrt2": (-2, 0, 0, 1),
    "half": (-1, 0, 2),  # t^2 - 1/2: beta = 2t is a root of s^2 - 2
}


@pytest.mark.parametrize("name", list(_NUMBER_FIELDS))
def test_number_field_kernels_match_the_generic_loops(name):
    field = ExtField(QQ, tuple(Fraction(c) for c in _NUMBER_FIELDS[name]))
    assert field._kernel() is field._nf
    rng = random.Random(name)
    polys = _ext_operands(
        rng, field, lambda r: Fraction(r.randint(-6, 6), r.choice((1, 1, 2, 3, 10))))
    _check_field_kernels(field, polys)


@pytest.mark.parametrize("q, modulus", [
    (4, (1, 1, 1)), (8, (1, 1, 0, 1)), (9, (1, 0, 1)), (25, (2, 0, 1)), (169, (2, 0, 1)),
    (1024, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
], ids=lambda v: str(v) if isinstance(v, int) else None)
def test_zech_kernels_match_the_generic_loops(q, modulus):
    p = arith.prime_factors(q)[0][0]
    field = ExtField(GF(p), modulus)
    assert field.order() == q <= arith._LOG_TABLE_BUDGET
    tables = field._kernel()
    assert tables and tables is field._tables
    assert tables.exp[tables.neg] == field.neg(field.one())
    rng = random.Random(q)
    _check_field_kernels(field, _ext_operands(rng, field, lambda r: r.randrange(p)))


def _qi_product(field, shape, rng):
    """A product like the atlas deck's: x - a - b*i for each 1 in the
    shape, a rational monic quadratic for each 2."""
    ref, f = RefExtField(field), (field.one(),)
    for d in shape:
        if d == 1:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            g = (ref_norm(QQ, (Fraction(-a), Fraction(-b))), field.one())
        else:
            g = (field.from_int(rng.choice((1, 2, 3, 4, 5, -2, -3))),
                 field.from_int(rng.randint(-2, 2)), field.one())
        f = ref_mul(ref, f, g)
    return f


@pytest.mark.parametrize("shape", [(1, 1, 2), (1, 1, 1, 1)])
def test_factoring_over_qi_makes_no_per_coefficient_field_calls(shape, monkeypatch):
    """A guard by count: Yun and the trial divisions at a split prime run
    on the integer kernel, with no ExtField product or inverse and no
    extended gcd over QQ."""
    field = ExtField(QQ, (1, 0, 1), var="i")
    rng = random.Random(len(shape))
    polys = [_qi_product(field, shape, rng) for _ in range(6)]
    calls = []
    for name in ("mul", "inv"):
        real = getattr(ExtField, name)

        def counted(self, *args, real=real, name=name):
            calls.append(name)
            return real(self, *args)

        monkeypatch.setattr(ExtField, name, counted)
    real_ext_gcd = arith.up_ext_gcd

    def counted_ext_gcd(dom, a, b):
        if dom == QQ:
            calls.append("up_ext_gcd")
        return real_ext_gcd(dom, a, b)

    monkeypatch.setattr(arith, "up_ext_gcd", counted_ext_gcd)
    factored = [factor_dense(f, field) for f in polys]
    assert calls == []
    monkeypatch.undo()
    ref = RefExtField(field)
    for f, (unit, fac) in zip(polys, factored):
        product = (unit,)
        for g, m in fac:
            for _ in range(m):
                product = ref_mul(ref, product, g)
        assert product == f


@pytest.fixture
def table_builds(monkeypatch):
    """The (p, modulus) of every _ZechTables built, with an empty cache."""
    builds, real = [], arith._ZechTables.__init__

    def counted(self, p, modulus, primes):
        builds.append((p, modulus))
        real(self, p, modulus, primes)

    monkeypatch.setattr(arith._ZechTables, "__init__", counted)
    monkeypatch.setattr(arith, "_FIELD_TABLES", {})
    return builds


def test_specialize_statements_over_one_field_build_its_tables_once(table_builds):
    from scheme_explorer import cli, dsl

    text = ("specialize ZZ[X]/(X^3 - 2) over GF(49,t^2+4); "
            "specialize ZZ[X]/(2*X^2 + X + 3) over QQ, GF(49,t^2+4);")
    records, had_error = cli.run_script(dsl.parse(text))
    assert not had_error and len(records) == 2
    assert table_builds == [(7, (4, 0, 1))]
    assert list(arith._FIELD_TABLES) == [(7, (4, 0, 1))]


def test_fields_past_the_table_budget_build_and_cache_no_tables(table_builds):
    field = ExtField(GF(2), (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1))  # GF(2^11)
    a, b = (1, 1, 0, 1), (0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1)
    assert field.mul(a, b) == ref_ext_mul(field, a, b)
    assert field.dense_mul((a, b), (b, a)) == ref_mul(RefExtField(field), (a, b), (b, a))
    assert ref_ext_mul(field, a, field.inv(a)) == field.one()
    assert field._tables is False
    assert table_builds == [] and arith._FIELD_TABLES == {}


def test_the_table_cache_stops_growing_at_its_bound(table_builds):
    fields = [ExtField(GF(p), (c, 0, 1), check=False)  # t^2 + c, -c a non-square
              for p in (11, 13, 17, 19, 23) for c in range(1, p)
              if pow(p - c, (p - 1) // 2, p) == p - 1]
    bound = arith._TABLE_CACHE_SIZE
    assert len(fields) > bound
    for k, field in enumerate(fields, 1):
        assert field.mul(field.gen(), field.gen()) == field.neg((field.modulus[0],))
        assert len(arith._FIELD_TABLES) == min(k, bound)
    assert len(table_builds) == len(fields)
    kept = [(f.base.n, f.modulus) for f in fields[-bound:]]
    assert list(arith._FIELD_TABLES) == kept
    # a field whose tables left the cache keeps them, and its equal builds anew
    first = fields[0]
    assert first.dense_mul((first.gen(), first.one()), (first.gen(),)) == (
        first.neg((first.modulus[0],)), first.gen())
    assert len(table_builds) == len(fields)
    ExtField(GF(11), first.modulus).mul(first.gen(), first.gen())
    assert len(table_builds) == len(fields) + 1


@pytest.mark.parametrize("p, modulus", [
    (2, (1, 1, 1)),                            # GF(4)
    (2, (1, 1, 0, 1)),                         # GF(8)
    (3, (1, 0, 1)),                            # GF(9): t has order 4
    (5, (2, 0, 1)),                            # GF(25)
    (3, (1, 2, 0, 1)),                         # GF(27)
    (7, (4, 0, 1)),                            # GF(49)
    (13, (11, 0, 1)),                          # GF(169)
    (31, (1, 0, 1)),                           # GF(31^2): t has order 4
    (2, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),    # GF(2^10)
], ids=["GF4", "GF8", "GF9", "GF25", "GF27", "GF49", "GF169", "GF961", "GF1024"])
def test_field_tables_match_the_reference_generator_search(monkeypatch, p, modulus):
    """The generator search runs on ``Zmod``'s products; the tables it
    leads to are those of the search with products of its own."""
    monkeypatch.setattr(arith, "_FIELD_TABLES", {})
    field = ExtField(GF(p), modulus)  # checks that the modulus is irreducible
    m = field.order() - 1
    g, exp, log, zech, neg = ref_zech_tables(p, field.modulus,
                                             [ell for ell, _ in arith.prime_factors(m)])
    tables = arith._field_tables(p, field.modulus)
    assert tables.exp[1] == g
    assert tables.exp == exp + exp and tables.log == log
    assert tables.zech == zech and tables.neg == neg and tables.m == m


def _tables_of(tables):
    return tables.exp, tables.log, tables.zech, tables.neg


class _PausingCache(dict):
    """A table cache that pauses after listing its keys, as a thread switch
    there would: two threads that both find it full then choose the same
    oldest field to drop, unless one lock covers the choice and the drop."""

    def __iter__(self):
        keys = list(dict.__iter__(self))
        time.sleep(0.001)
        return iter(keys)


def test_threads_sharing_the_table_cache_get_the_serial_tables(monkeypatch):
    """Four threads build and look up the tables of 40 fields, more than the
    cache holds, so they evict from it while others insert into it; every
    lookup returns the tables a serial build makes."""
    fields = [(p, (c, 0, 1)) for p in (11, 13, 17, 19, 23, 29) for c in range(1, p)
              if pow(p - c, (p - 1) // 2, p) == p - 1][:40]  # t^2 + c, -c a non-square
    assert len(fields) == 40 > arith._TABLE_CACHE_SIZE
    monkeypatch.setattr(arith, "_FIELD_TABLES", {})
    serial = {key: _tables_of(arith._field_tables(*key)) for key in fields}
    monkeypatch.setattr(arith, "_FIELD_TABLES", _PausingCache())
    results, errors = [], []

    def work(seed):
        order = fields * 2
        random.Random(seed).shuffle(order)
        try:
            for key in order:
                results.append((key, _tables_of(arith._field_tables(*key))))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(results) == 4 * 2 * len(fields)
    assert all(got == serial[key] for key, got in results)
    assert len(arith._FIELD_TABLES) == arith._TABLE_CACHE_SIZE


# ---------------------------------------------------------------------------
# the lattices of the primes of degree one of Z[beta]: the residue reader of
# factoring over a number field at a split prime
# ---------------------------------------------------------------------------

def _gram_schmidt(rows):
    """([|b*_j|^2], mu, [b*_j]) of the rows by Fractions."""
    stars, sizes, mu = [], [], []
    for b in rows:
        coeffs = [sum(x * y for x, y in zip(b, s)) / size for s, size in zip(stars, sizes)]
        star = [Fraction(x) for x in b]
        for c, s in zip(coeffs, stars):
            star = [x - c * y for x, y in zip(star, s)]
        stars.append(star)
        sizes.append(sum(x * x for x in star))
        mu.append(coeffs)
    return sizes, mu, stars


@pytest.mark.parametrize("red", [
    (-1, 0), (2, 0), (-3, 0), (5, 0), (1, 1), (-7, 3), (-1, -1), (2, 0, 0), (1, 2, -1),
], ids=["i", "sqrt2", "sqrt-3", "sqrt5", "golden", "disc-19", "omega", "cbrt2", "cyc7real"])
def test_the_babai_point_of_a_class_is_the_brute_force_shortest_one(red):
    """Z[beta] for beta^n = sum(red[j] * beta^j), at split primes p and
    small powers P of p: the lifted root is a root mod P, the rows of the
    reduced lattice lie in L = {v : sum(v_j * rho^j) = 0 mod P} with
    |det| = P and meet the size and Lovasz conditions of integral LLL
    (delta = 3/4), recomputed by Fractions.  ``reduce`` leaves in every
    class a point of it in the box |<w, b*_j>| <= |b*_j|^2 / 2, and the
    brute-force shortest point of every class whose shortest point is below
    the uniqueness radius min |b*_j| / 2.  Over Z[omega], omega^2 = -1 -
    omega, L is a hexagonal lattice."""
    n = len(red)
    poly = tuple(-r for r in red) + (1,)
    primes = arith._SplitPrimes(ExtField(QQ, tuple(Fraction(c) for c in poly)))
    checked = 0
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        root = primes.root(p)
        if root is None:
            continue
        for P in (p, p * p, p ** 3):
            if P > 1500:
                break
            rho, lattice = primes.lattice(p, P)

            def residue(v):
                return sum(c * rho ** j for j, c in enumerate(v)) % P

            assert residue(poly) == 0 and rho % p == root
            assert all(residue(b) == 0 for b in lattice.rows)
            sizes, mu, stars = _gram_schmidt(lattice.rows)
            assert math.prod(sizes) == P * P
            assert all(2 * abs(m) <= 1 for row in mu for m in row)
            assert all(sizes[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * sizes[k - 1]
                       for k in range(1, n))
            for r in range(P):
                w = lattice.reduce([r] + [0] * (n - 1))
                assert residue(w) == r
                assert all(2 * abs(sum(x * y for x, y in zip(w, s))) <= size
                           for s, size in zip(stars, sizes))
            radius_sq = min(sizes) / 4
            least = {}
            reach = math.isqrt(math.ceil(radius_sq)) + 1
            for v in itertools.product(range(-reach, reach + 1), repeat=n):
                size, key = sum(x * x for x in v), residue(v)
                if key not in least or size < least[key][0]:
                    least[key] = (size, list(v))
            for key, (size, point) in least.items():
                if size < radius_sq:
                    assert lattice.reduce([key] + [0] * (n - 1)) == point, (p, P, key)
                    checked += 1
    assert checked > 200
