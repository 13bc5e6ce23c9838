"""The dense univariate kernels of the domains against the generic loops.

Every ``Domain`` subclass inherits one loop per dense operation, making a
``Domain`` call per coefficient; ``Zmod``, ``ZZ`` and ``QQ`` override them
with integer kernels, and an ``ExtField`` over a prime field multiplies
through log/antilog tables. The loops they replaced are kept in
``helpers_kernel`` and decide every answer here.
"""

import itertools
import random
from fractions import Fraction

import pytest

from helpers_kernel import (
    ref_add,
    ref_divmod,
    ref_ext_mul,
    ref_monic,
    ref_mul,
    ref_norm,
    ref_scale,
    ref_sub,
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
        assert arith.up_mod(dom, a, b) == ref_divmod(dom, a, b)[1]


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
        assert arith.up_deriv(dom, a) == ref_norm(
            dom, [dom.mul(a[i], dom.from_int(i)) for i in range(1, len(a))])


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
            arith.up_divmod(dom, a, divisor)


def test_integer_kernels_match_the_generic_loops():
    rng = random.Random(11)
    polys = _operands(rng, _int_poly)
    _check_ring_ops(ZZ, polys)
    _check_divisions(ZZ, polys, [a for a in polys if a and a[-1] in (1, -1)] + [(1,), (-3, 1)])


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


def test_factoring_over_gf32003_makes_no_generic_coefficient_calls(monkeypatch):
    """A guard by count, not by time: squarefree decomposition, distinct- and
    equal-degree factorization run on the integer kernels of ``Zmod``."""
    dom = GF(32003)
    rng = random.Random(8)
    f = (5,)
    for d in (1, 2, 2, 3):
        f = ref_mul(dom, f, _zmod_poly(rng, 32003, d)[:-1] + (1,))
    calls = []
    for name in ("mul", "add", "sub"):
        real = getattr(Zmod, name)

        def counted(self, a, b, real=real, name=name):
            calls.append(name)
            return real(self, a, b)

        monkeypatch.setattr(Zmod, name, counted)
    unit, fac = factor_dense(f, dom)
    assert calls == []
    monkeypatch.undo()
    product = (unit,)
    for g, m in fac:
        for _ in range(m):
            product = ref_mul(dom, product, g)
    assert product == f and len(f) == 9 and len(fac) >= 3
