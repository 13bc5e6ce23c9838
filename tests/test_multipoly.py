"""Sparse polynomial arithmetic, grading, homogenization."""

import math
import random

import pytest

from scheme_explorer import dsl, multipoly
from scheme_explorer.arith import GF, QQ, ZZ, GFq, Zmod
from scheme_explorer.errors import ExponentOverflow, NotHomogeneous, SchemeError, ZeroPolynomial
from scheme_explorer.multipoly import (
    GREVLEX,
    LEX,
    BlockOrder,
    PolyRing,
    content_primitive,
    dehomogenize,
    exact_divide,
    homogeneous_components,
    homogenize,
    _ascending,
    _from_ascending,
    _sub_shifted,
)

from helpers_kernel import generic_sub_shifted, ref_ascending, ref_sub_shifted, ref_terms, tuple_key


@pytest.fixture
def qq_xy():
    return PolyRing(QQ, ("X", "Y"))


def rand_poly(ring, rng, max_deg=6, terms=5):
    d = {}
    for _ in range(rng.randrange(1, terms + 1)):
        exps = tuple(rng.randrange(max_deg // 2 + 1) for _ in ring.names)
        d[exps] = ring.domain.from_int(rng.randrange(-6, 7))
    return ring.from_dict(d)


def test_components_of_paper_example():
    R = PolyRing(QQ, ("tau1", "tau2"))
    t1, t2 = R.gens()
    comps = homogeneous_components(t1 ** 3 - t2 + 7)
    assert set(comps) == {0, 1, 3}
    assert comps[3] == t1 ** 3
    assert comps[1] == -t2
    assert comps[0] == R.from_int(7)


def test_components_zero_and_homogeneous():
    R = PolyRing(QQ, ("X", "Y"))
    X, Y = R.gens()
    assert homogeneous_components(R.zero()) == {}
    comps = homogeneous_components(X ** 2 * Y + X * Y ** 2)
    assert list(comps) == [3]


def test_homogenize_paper_examples():
    R = PolyRing(QQ, ("tau1", "tau2"))
    t1, t2 = R.gens()
    rename = {"tau1": "T1", "tau2": "T2"}
    h = homogenize(t1 ** 3 - t2 + 7, "T0", 0, rename=rename)
    T = h.ring
    T0, T1, T2 = T.gens()
    assert h == T1 ** 3 - T0 ** 2 * T2 + 7 * T0 ** 3
    h2 = homogenize(t1 ** 2 - 3 * t1 + t2 ** 4, "T0", 0, rename=rename)
    T0, T1, T2 = h2.ring.gens()
    assert h2 == T0 ** 2 * T1 ** 2 - 3 * T0 ** 3 * T1 + T2 ** 4


def test_homogenize_constant():
    R = PolyRing(QQ, ("tau1",))
    five = R.from_int(5)
    h = homogenize(five, "T0", 0)
    assert h.is_constant() and h.constant_value() == 5


def test_homogenize_zero_rejected():
    R = PolyRing(QQ, ("tau1",))
    with pytest.raises(ZeroPolynomial):
        homogenize(R.zero(), "T0", 0)


def test_dehomogenize_paper_example():
    R = PolyRing(QQ, ("T0", "T1", "T2"))
    T0, T1, T2 = R.gens()
    g = dehomogenize(T1 ** 3 - T0 ** 2 * T2 + 7 * T0 ** 3, "T0",
                     rename={"T1": "tau1", "T2": "tau2"})
    S = g.ring
    t1, t2 = S.gens()
    assert g == t1 ** 3 - t2 + 7


def test_dehomogenize_conic():
    R = PolyRing(QQ, ("T0", "T1", "T2"))
    T0, T1, T2 = R.gens()
    g = dehomogenize(T0 * T2 - T1 ** 2, "T0", rename={"T1": "tau1", "T2": "tau2"})
    t1, t2 = g.ring.gens()
    assert g == t2 - t1 ** 2


def test_dehomogenize_pure_power_is_one():
    R = PolyRing(QQ, ("T0", "T1"))
    T0, T1 = R.gens()
    g = dehomogenize(T0 ** 4, "T0")
    assert g.is_constant() and g.constant_value() == 1


def test_dehomogenize_requires_homogeneous():
    R = PolyRing(QQ, ("T0", "T1"))
    T0, T1 = R.gens()
    with pytest.raises(NotHomogeneous):
        dehomogenize(T0 + T1 ** 2, "T0")


def test_round_trips_random():
    rng = random.Random(4242)
    for _ in range(60):
        nv = rng.randrange(1, 5)
        names = tuple(f"x{i}" for i in range(nv))
        R = PolyRing(QQ, names)
        f = rand_poly(R, rng)
        if f.is_zero():
            continue
        h = homogenize(f, "z", 0)
        assert h.is_homogeneous()
        back = dehomogenize(h, "z")
        assert back == f
        # other direction: h homogeneous not divisible by z round-trips
        if not all(e[0] > 0 for e, _ in h.terms):
            again = homogenize(dehomogenize(h, "z"), "z", 0)
            assert again == h


def test_components_sum_to_input():
    rng = random.Random(11)
    R = PolyRing(GF(7), ("a", "b", "c"))
    for _ in range(40):
        f = rand_poly(R, rng)
        total = R.zero()
        for part in homogeneous_components(f).values():
            assert part.is_homogeneous()
            total = total + part
        assert total == f


def test_ring_axioms_random():
    rng = random.Random(5)
    R = PolyRing(GF(5), ("x", "y"))
    for _ in range(40):
        f, g, h = (rand_poly(R, rng) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f + g == g + f


def test_content_primitive_over_zz():
    R = PolyRing(ZZ, ("T",))
    T, = R.gens()
    c, p = content_primitive(2 * T - 1)
    assert c == 1 and p == 2 * T - 1
    c, p = content_primitive(6 * T + 18)
    assert c == 6 and p == T + 3
    c, p = content_primitive(T ** 3 + 2 * T)
    assert c == 1 and p == T ** 3 + 2 * T


def test_content_times_primitive_reassembles():
    R = PolyRing(ZZ, ("T",))
    T, = R.gens()
    f = -4 * T ** 2 + 8 * T - 12
    c, p = content_primitive(f)
    assert p.scale(c) == f
    assert content_primitive(p)[0] == 1


def test_term_orders_disagree_properly():
    R_g = PolyRing(QQ, ("x", "y"), GREVLEX)
    R_l = PolyRing(QQ, ("x", "y"), LEX)
    x, y = R_g.gens()
    f = x + y ** 2
    assert f.leading_monomial() == (0, 2)     # grevlex: higher total degree
    fl = f.relabel(R_l)
    assert fl.leading_monomial() == (1, 0)    # lex: x beats y^2


def test_block_order_eliminates():
    order = BlockOrder((1, 1))
    R = PolyRing(QQ, ("x", "y"), order)
    x, y = R.gens()
    f = x + y ** 5
    assert f.leading_monomial() == (1, 0)     # x-block dominates


def test_term_order_equality_is_by_class_and_blocks():
    from scheme_explorer.multipoly import GrevlexOrder, LexOrder

    assert GrevlexOrder() == GREVLEX and hash(GrevlexOrder()) == hash(GREVLEX)
    assert LexOrder() == LEX and LEX != GREVLEX
    assert hash(BlockOrder((1, 2))) == hash(BlockOrder((1, 2)))
    assert BlockOrder((1, 2)) != BlockOrder((2, 1))
    assert BlockOrder((1, 1)) != GREVLEX and GREVLEX != "grevlex"
    assert PolyRing(QQ, ("x", "y"), BlockOrder((1, 1))) == PolyRing(
        QQ, ("x", "y"), BlockOrder((1, 1)))


def test_exact_divide():
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.gens()
    f = (x + y) * (x - 2 * y) ** 2
    assert exact_divide(f, x + y) == (x - 2 * y) ** 2
    with pytest.raises(ValueError):
        exact_divide(x ** 2 + y, x + y)


def test_printing_is_canonical_and_stable():
    R = PolyRing(QQ, ("X", "Y"))
    X, Y = R.gens()
    f = Y * X ** 2 - 3
    assert str(f) == "X^2*Y - 3"
    assert str(R.zero()) == "0"


def test_scale_by_a_zero_divisor_drops_zero_terms():
    R = PolyRing(Zmod(6), ("x",))
    x, = R.gens()
    p = (2 * x + 3).scale(2)
    assert p.terms == (((1,), 4),)
    assert str(p) == "4*x"
    assert p == (2 * x + 3) * 2
    assert (2 * x + 3).scale(0) == R.zero()


# -- the merge kernel against the dict-and-sort arithmetic it replaced --------

def reference_add(f, g):
    """Reference sum: accumulate in a dict, then sort."""
    dom = f.ring.domain
    d = dict(f.terms)
    for e, c in g.terms:
        s = dom.add(d.get(e, dom.zero()), c)
        if dom.is_zero(s):
            d.pop(e, None)
        else:
            d[e] = s
    return f.ring.from_dict(d)


def reference_mul(f, g):
    """Reference product: every product of terms into one dict, then sort."""
    dom = f.ring.domain
    d = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e = tuple(a + b for a, b in zip(e1, e2))
            s = dom.add(d.get(e, dom.zero()), dom.mul(c1, c2))
            if dom.is_zero(s):
                d.pop(e, None)
            else:
                d[e] = s
    return f.ring.from_dict(d)


def reference_neg(f):
    dom = f.ring.domain
    return f.ring.from_dict({e: dom.neg(c) for e, c in f.terms})


GF4 = GFq(4, (1, 1, 1))


@pytest.mark.parametrize("order", [GREVLEX, LEX, BlockOrder((1, 2))],
                         ids=["grevlex", "lex", "block12"])
@pytest.mark.parametrize("domain", [QQ, GF(32003), ZZ, Zmod(6), Zmod(4), GF4],
                         ids=["QQ", "GF32003", "ZZ", "ZZ6", "ZZ4", "GF4"])
def test_arithmetic_matches_the_dict_and_sort_reference(domain, order):
    """Sums, differences, products, powers and exact quotients against the
    dict-and-sort reference, which shares no code with ``_product``."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ring = PolyRing(domain, ("x", "y", "z"), order)
    exps = st.tuples(*[st.integers(0, 3)] * 3)
    coeff = st.integers(-7, 7)
    if domain == QQ:
        coeff = st.fractions(min_value=-7, max_value=7, max_denominator=5)
    terms = st.dictionaries(exps, coeff, max_size=6)

    def poly(d):
        if domain == QQ:
            return ring.from_dict(d)
        if domain is GF4:
            # every element of GF(4), t and t + 1 included
            elements = GF4.elements()
            return ring.from_dict({e: elements[c % 4] for e, c in d.items()})
        return ring.from_dict({e: domain.from_int(c) for e, c in d.items()})

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(terms, terms)
    def check(fd, gd):
        f, g = poly(fd), poly(gd)
        assert f + g == reference_add(f, g)
        assert f - g == reference_add(f, reference_neg(g))
        assert f * g == reference_mul(f, g)
        power = ring.one()
        for k in range(4):
            assert f ** k == power
            power = reference_mul(power, f)
        if domain in (Zmod(6), Zmod(4)) and g.terms:
            # exact division needs a unit leading coefficient here
            g = g + ring.monomial(tuple(a + 1 for a in g.leading_monomial()))
        if g.terms:
            assert exact_divide(f * g, g) == f

    check()


def test_poly_operators_and_the_evaluator_multiply_through_one_kernel(monkeypatch):
    """``Poly.__mul__``, ``Poly.__pow__`` and ``dsl.eval_poly`` all reach
    ``multipoly._product``: there is one sparse product."""
    calls = []
    real = multipoly._product

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(multipoly, "_product", counted)
    ring = PolyRing(GF(32003), ("x", "y"))
    x, y = ring.gens()
    by_operators = (x + y + 1) ** 3 * (x - 1)
    assert len(calls) == 3  # a square, its product by the base, the last factor
    calls.clear()
    evaluated = dsl.eval_poly(dsl.parse_poly_text("(x+y+1)^3*(x-1)"), ring)
    assert len(calls) == 3
    assert evaluated == by_operators


def test_normal_form_drops_a_zero_product_over_zmod6():
    """2 * (T^2 + 3) = 2*T^2 over ZZ/6: subtracting it must leave no term,
    not a term with coefficient 0."""
    from scheme_explorer.algebra import PresentedAlgebra

    T, = PolyRing(Zmod(6), ("T",)).gens()
    A = PresentedAlgebra(Zmod(6), ("T",), [T ** 2 + 3])
    r = A.nf(2 * T ** 2)
    assert r.is_zero() and r.terms == ()


def test_block_order_must_cover_every_variable():
    from scheme_explorer.errors import InvalidArgument

    with pytest.raises(InvalidArgument):
        PolyRing(QQ, ("x", "y", "z"), BlockOrder((1, 1)))
    with pytest.raises(InvalidArgument):
        PolyRing(QQ, ("x",), BlockOrder((1, 1)))


def test_coeffs_in_reads_one_variable_at_a_time():
    R = PolyRing(ZZ, ("T", "U"))
    T, U = R.gens()
    f = T ** 2 * U + T ** 2 + 3 * U - 1
    assert f.coeffs_in("T") == [3 * U - 1, R.zero(), U + 1]
    assert f.coeffs_in("U") == [T ** 2 - 1, T ** 2 + 3]
    assert R.zero().coeffs_in("T") == []
    assert sum((c * T ** k for k, c in enumerate(f.coeffs_in("T"))), R.zero()) == f


def test_relabel_refuses_to_drop_a_variable_that_occurs():
    R = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = R.gens()
    S = PolyRing(QQ, ("b", "a"))
    a, b = S.gen("a"), S.gen("b")
    assert (x ** 2 * z + 3).relabel(S, [1, None, 0]) == a ** 2 * b + 3
    with pytest.raises(ValueError):
        (x + y).relabel(S, [1, None, 0])


# -- the packed kernel against the tuple-key kernel it replaced ---------------

def ref_sub_scaled(f, g, c):
    """The terms of f - c*g through the tuple-key kernel."""
    key = tuple_key(f.ring.order)
    rem = ref_ascending(f.terms, key)
    ref_sub_shifted(rem, g.terms, (0,) * f.ring.nvars, c, key, f.ring.domain)
    return ref_terms(rem)


def ref_product(f, g):
    dom, key = f.ring.domain, tuple_key(f.ring.order)
    rem = []
    for e, c in g.terms:
        ref_sub_shifted(rem, f.terms, e, dom.neg(c), key, dom)
    return ref_terms(rem)


def ref_exact_divide(f, g):
    dom, key = f.ring.domain, tuple_key(f.ring.order)
    (ge, gc), tail = g.terms[0], g.terms[1:]
    rem = ref_ascending(f.terms, key)
    out = []
    while rem:
        _, le, lc = rem.pop()
        exps = tuple(a - b for a, b in zip(le, ge))
        assert min(exps, default=0) >= 0
        c = dom.mul(lc, dom.inv(gc))
        out.append((exps, c))
        ref_sub_shifted(rem, tail, exps, c, key, dom)
    return tuple(out)


ORDERS = pytest.mark.parametrize("order", [GREVLEX, LEX, BlockOrder((1, 2))],
                                 ids=["grevlex", "lex", "block12"])


def term_dicts(domain, max_exp=3, max_size=6):
    st = pytest.importorskip("hypothesis.strategies")
    exps = st.tuples(*[st.integers(0, max_exp)] * 3)
    coeff = st.integers(-7, 7)
    if domain == QQ:
        coeff = st.fractions(min_value=-7, max_value=7, max_denominator=5)
    return st.dictionaries(exps, coeff, max_size=max_size)


def poly_of(ring, d):
    dom = ring.domain
    return ring.from_dict({e: c if dom == QQ else dom.from_int(c) for e, c in d.items()})


@ORDERS
@pytest.mark.parametrize("domain", [QQ, GF(32003), Zmod(6)], ids=["QQ", "GF32003", "ZZ6"])
def test_packed_arithmetic_matches_the_tuple_key_kernel(domain, order):
    hypothesis = pytest.importorskip("hypothesis")
    ring = PolyRing(domain, ("x", "y", "z"), order)
    terms = term_dicts(domain)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(terms, terms)
    def check(fd, gd):
        f, g = poly_of(ring, fd), poly_of(ring, gd)
        one = domain.one()
        assert (f + g).terms == ref_sub_scaled(f, g, domain.neg(one))
        assert (f - g).terms == ref_sub_scaled(f, g, one)
        assert (f * g).terms == ref_product(f, g)
        if g.terms and not domain.is_field:
            # exact division needs a unit leading coefficient here
            g = g + ring.monomial(tuple(a + 1 for a in g.leading_monomial()))
        if g.terms:
            fg = f * g
            assert exact_divide(fg, g).terms == ref_exact_divide(fg, g)

    check()


def test_the_packed_key_sorts_like_the_tuple_key():
    rng = random.Random(5)
    for order in (GREVLEX, LEX, BlockOrder((1, 2)), BlockOrder((2, 1))):
        monos = [tuple(rng.randrange(6) for _ in range(3)) for _ in range(200)]
        monos = sorted(set(monos))
        assert sorted(monos, key=order.packer(3).pack) == sorted(monos, key=tuple_key(order))


def test_packed_lcm_coprimality_and_divisibility_match_the_tuples():
    rng = random.Random(6)
    pk = PolyRing(QQ, ("x", "y", "z")).packer
    for _ in range(300):
        a, b = (tuple(rng.randrange(4) for _ in range(3)) for _ in range(2))
        pa, pb = pk.pack(a), pk.pack(b)
        assert pk.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
        assert pk.keyed(pk.lcm_exponents(pa, pb)) == pk.pack(tuple(map(max, a, b)))
        assert pk.coprime(pa, pb) == (not any(map(min, a, b)))


def test_packed_terms_decode_to_the_exponent_tuples():
    R = PolyRing(GF(7), ("x", "y", "z"))
    x, y, z = R.gens()
    f = (x * y ** 3 + 2 * z ** 5 - 1) * (y + z)
    assert f._terms is None  # a product is packed only
    assert f.terms == R.from_dict(dict(f.terms)).terms
    assert f == R.from_dict(dict(f.terms))
    assert hash(f) == hash(R.from_dict(dict(f.terms)))


def test_an_exponent_past_the_field_width_is_a_typed_error():
    """Exponents are packed in 31 bits: a product past them raises instead
    of carrying into the next variable's field."""
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.gens()
    big = 2 ** 30
    assert str(x ** (2 ** 31 - 1)) == "x^2147483647"
    assert (x ** big * x ** (big - 1)).terms == (((2 ** 31 - 1, 0), 1),)
    for make in (
        lambda: x ** (2 ** 40),
        lambda: R.monomial((2 ** 40, 0)),
        lambda: x ** big * x ** big,
        lambda: (x ** big * y + 1) * (x ** big + y),
        lambda: R.from_dict({(2 ** 40, 0): 1}) * R.from_dict({(2 ** 40, 0): 1}),
    ):
        with pytest.raises(ExponentOverflow) as err:
            make()
        assert isinstance(err.value, SchemeError) and err.value.code == "exponent-overflow"
    # an exponent near the limit leaves the next variable's field alone
    assert (y * x ** big).terms == (((big, 1), 1),)


# -- the int update of the kernel against its Domain calls --------------------

INT_DOMAINS = pytest.mark.parametrize("domain", [ZZ, Zmod(6), GF(2), GF(32003)],
                                      ids=["ZZ", "ZZ6", "GF2", "GF32003"])


def both_kernels(f, g, shift, c):
    """f - c*x^shift*g through ``_sub_shifted`` and ``generic_sub_shifted``."""
    ring = f.ring
    pk = ring.packer
    out = []
    for kernel in (_sub_shifted, generic_sub_shifted):
        rem = _ascending(f)
        kernel(rem, zip(*g.packed()), pk.pack(shift), c, ring.domain, pk)
        out.append(_from_ascending(ring, rem))
    return out


@INT_DOMAINS
def test_the_int_update_matches_the_domain_calls(domain):
    """Over ZZ and ZZ/n each term is one int update; seeded merges with
    overlapping supports, so terms are updated, cancelled and inserted."""
    rng = random.Random(f"int-update:{domain}")
    ring = PolyRing(domain, ("x", "y", "z"))
    for _ in range(200):
        f, g = (rand_poly(ring, rng, max_deg=4, terms=8) for _ in range(2))
        shift = tuple(rng.randrange(2) for _ in range(3))
        c = domain.from_int(rng.randrange(-6, 7) or 1)
        got, want = both_kernels(f, g, shift, c)
        assert got.packed() == want.packed()
        assert not any(domain.is_zero(v) for v in got.packed()[1])
    f = rand_poly(ring, rng, max_deg=4, terms=8)
    got, want = both_kernels(f, f, (0, 0, 0), domain.one())
    assert got.is_zero() and want.is_zero()


def test_the_int_update_over_zmod6_drops_zero_products_and_differences():
    ring = PolyRing(Zmod(6), ("x", "y"))
    x, y = ring.gens()
    # 2 * 3y = 0: no y term is added
    got, want = both_kernels(x + 1, 3 * y, (0, 0), 2)
    assert got == want == x + 1
    # 4x - 2 * 2x = 0 and 1 - 5 * 5 = -24 = 0: both terms go
    got, want = both_kernels(4 * x + 1, 2 * x, (0, 0), 2)
    assert got == want == ring.one()
    got, want = both_kernels(x + y, 5 * y, (0, 0), 5)
    assert got == want == x


@INT_DOMAINS
def test_the_int_update_refuses_an_inserted_term_past_the_exponent_width(domain):
    ring = PolyRing(domain, ("x", "y"))
    x, y = ring.gens()
    for kernel in (_sub_shifted, generic_sub_shifted):
        rem = _ascending(y)
        with pytest.raises(ExponentOverflow):
            kernel(rem, zip(*(x ** (2 ** 30)).packed()), ring.packer.pack((2 ** 30, 0)),
                   domain.one(), domain, ring.packer)


# -- the lazy remainder over ZZ and ZZ/n ---------------------------------------

def test_a_zero_product_past_the_exponent_width_adds_no_term_over_zmod6():
    """2 * 3x^(2^31) is zero mod 6: the product of a new term that sets a
    guard bit is reduced before it is refused, so it adds no term and
    raises nothing, and the remainder is still y."""
    ring = PolyRing(Zmod(6), ("x", "y"))
    x, y = ring.gens()
    for kernel in (_sub_shifted, generic_sub_shifted):
        rem = _ascending(y)
        kernel(rem, zip(*(3 * x ** (2 ** 30)).packed()), ring.packer.pack((2 ** 30, 0)),
               2, ring.domain, ring.packer)
        assert rem == _ascending(y)
        assert _from_ascending(ring, rem) == y


def test_exact_divide_skips_the_terms_that_cancel_mod_6():
    """(x + 3)(2y + 4) = 2xy + 4x + 6y + 12 = 2xy + 4x over ZZ/6: dividing
    by x + 3 leaves -6y and -12 in the remainder, which are zero and must
    be skipped, not refused as terms x + 3 does not divide."""
    ring = PolyRing(Zmod(6), ("x", "y"))
    x, y = ring.gens()
    f = (x + 3) * (2 * y + 4)
    assert f == 2 * x * y + 4 * x
    assert exact_divide(f, x + 3) == 2 * y + 4
    with pytest.raises(ValueError):
        exact_divide(f + 1, x + 3)


LAZY_DOMAINS = pytest.mark.parametrize("domain", [GF(65521), Zmod(6), ZZ],
                                       ids=["GF65521", "ZZ6", "ZZ"])


@LAZY_DOMAINS
def test_no_result_holds_a_zero_or_unreduced_coefficient(domain):
    """Every Poly made from a lazy remainder, by +, -, *, ``exact_divide``
    and the normal forms of ``algebra._reduced``, holds only nonzero
    coefficients, each reduced into [0, n) over ZZ/n. Over ZZ/6 the seeded
    coefficients are often zero divisors, so products and differences
    cancel mod 6, and f*(2x + 2)*(3y + 3) cancels to zero."""
    from scheme_explorer.algebra import normal_form_list

    n = domain.n if isinstance(domain, Zmod) else 0
    rng = random.Random(f"lazy-results:{domain}")
    ring = PolyRing(domain, ("x", "y", "z"))

    def canonical(p):
        return all(c and (not n or 0 <= c < n) for c in p.packed()[1])

    x, y, _ = ring.gens()
    for _ in range(150):
        f, g = (rand_poly(ring, rng, max_deg=4, terms=8) for _ in range(2))
        made = [f + g, f - g, g - f, f * g, f - f, f * g - g * f,
                f * (2 * x + 2) * (3 * y + 3), f * (x + 1) - (f * x + f)]
        # divisors with a unit leading coefficient over ZZ/n
        basis = [h for h in (g, f + 1)
                 if not h.is_zero() and (not n or math.gcd(h.leading_coeff(), n) == 1)]
        if basis:
            made += [exact_divide(f * basis[0], basis[0]), normal_form_list(f, basis),
                     normal_form_list(f * g + f, basis)]
        assert all(canonical(p) for p in made)
