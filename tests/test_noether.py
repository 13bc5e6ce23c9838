"""Normalization recursion, maximality decisions, common-zero tests."""

import itertools
import random

import pytest

from scheme_explorer.arith import GF, QQ
from scheme_explorer.algebra import IdealHandle, PresentedAlgebra, groebner_basis
from scheme_explorer.errors import UnitIdeal, Unsupported
from scheme_explorer.noether import (
    has_common_zero,
    is_maximal,
    noether_normalize,
)
from scheme_explorer.multipoly import PolyRing


def test_zero_ideal_keeps_all_variables():
    A = PresentedAlgebra(QQ, ("X1", "X2", "X3"))
    res = noether_normalize(IdealHandle(A, []))
    assert res.d == 3
    assert [str(y) for y in res.y] == ["X1", "X2", "X3"]
    assert res.trace == []


def test_hyperbola_normalization_matches_expected_certificate():
    A = PresentedAlgebra(QQ, ("X", "Y"))
    X, Y = A.gens()
    res = noether_normalize(IdealHandle(A, [X * Y - 1]))
    assert res.d == 1
    assert res.y == [Y + X ** 2]
    step = res.trace[0]
    assert step.p == 2 and step.r_exponents == (2,)
    # certificate X@^3 - X@ Z@2 + Z@1 + 1, monic cubic in X@
    cert = step.certificate
    assert cert.degree_in("X@") == 3
    assert res.verify()


def test_unit_ideal_rejected():
    A = PresentedAlgebra(QQ, ("X",))
    X, = A.gens()
    with pytest.raises(UnitIdeal):
        noether_normalize(IdealHandle(A, [X, X + 1]))


def test_univariate_principal_gives_d_zero():
    A = PresentedAlgebra(QQ, ("X",))
    X, = A.gens()
    res = noether_normalize(IdealHandle(A, [X ** 3 - 2 * X + 1]))
    assert res.d == 0
    assert res.verify()


def test_hypersurfaces_random_d_equals_n_minus_1():
    rng = random.Random(6021023)
    fields = [QQ, GF(5), GF(7)]
    count = 0
    while count < 25:
        k = rng.choice(fields)
        n = rng.randrange(2, 4)
        names = tuple(f"X{i}" for i in range(1, n + 1))
        R = PolyRing(k, names)
        d = {}
        for _ in range(rng.randrange(2, 5)):
            exps = tuple(rng.randrange(3) for _ in names)
            c = rng.randrange(-4, 5) if k is QQ else rng.randrange(5)
            d[exps] = k.from_int(c)
        f = R.from_dict(d)
        if f.is_zero() or f.is_constant():
            continue
        count += 1
        A = PresentedAlgebra(k, names)
        res = noether_normalize(IdealHandle(A, [f]))
        assert res.d == n - 1, (k, str(f))
        assert res.verify()


def test_weighted_degree_uniqueness_holds_per_step():
    A = PresentedAlgebra(GF(5), ("X", "Y", "Z"))
    X, Y, Z = A.gens()
    res = noether_normalize(IdealHandle(A, [X ** 2 * Y + Z ** 2 - 1]))
    for step in res.trace:
        weights = (1,) + tuple(step.r_exponents)
        seen = set()
        for e, _ in step.chosen.terms:
            w = sum(wi * ei for wi, ei in zip(weights, e))
            assert w not in seen
            seen.add(w)


def test_is_maximal_evaluation_points():
    rng = random.Random(8)
    A = PresentedAlgebra(QQ, ("X", "Y"))
    X, Y = A.gens()
    for _ in range(10):
        a, b = rng.randrange(-5, 6), rng.randrange(-5, 6)
        cert = is_maximal(IdealHandle(A, [X - a, Y - b]))
        assert cert.is_maximal and cert.dimension == 1


def test_is_maximal_quadratic_extension():
    A = PresentedAlgebra(QQ, ("X",))
    X, = A.gens()
    cert = is_maximal(IdealHandle(A, [X ** 2 + 1]))
    assert cert.is_maximal and cert.dimension == 2


def test_is_maximal_detects_unbounded_variable():
    A = PresentedAlgebra(QQ, ("X", "Y"))
    X, Y = A.gens()
    cert = is_maximal(IdealHandle(A, [X]))
    assert not cert.is_maximal
    assert "Y" in cert.witness


def test_is_maximal_detects_products_of_fields():
    A = PresentedAlgebra(QQ, ("X", "Y"))
    X, Y = A.gens()
    cert = is_maximal(IdealHandle(A, [X ** 2 + 1, Y ** 2 + 1]))
    assert not cert.is_maximal and cert.dimension == 4
    cert2 = is_maximal(IdealHandle(A, [X ** 2 + 1, Y - X]))
    assert cert2.is_maximal and cert2.dimension == 2


def test_is_maximal_detects_nilpotents():
    A = PresentedAlgebra(QQ, ("X",))
    X, = A.gens()
    cert = is_maximal(IdealHandle(A, [(X ** 2 + 1) ** 2]))
    assert not cert.is_maximal and cert.dimension == 4


def test_is_maximal_unit_ideal():
    A = PresentedAlgebra(QQ, ("X",))
    X, = A.gens()
    cert = is_maximal(IdealHandle(A, [X, X + 1]))
    assert not cert.is_maximal and cert.witness == "1 in I"


def test_is_maximal_over_finite_field_tower():
    """X^2+1 is irreducible over GF(3), but its root x is a square in GF(9)
    (b = 1 + 2x satisfies b^2 = x), so adding Y^2 - X splits the quotient."""
    A = PresentedAlgebra(GF(3), ("X", "Y"))
    X, Y = A.gens()
    handle = IdealHandle(A, [X ** 2 + 1, Y ** 2 - X])
    cert = is_maximal(handle)
    assert not cert.is_maximal and cert.dimension == 4
    gb = handle.groebner()
    left = Y - 1 - 2 * X
    right = Y + 1 + 2 * X
    assert not gb.normal_form(left).is_zero()
    assert not gb.normal_form(right).is_zero()
    assert gb.normal_form(left * right).is_zero()
    # a genuinely maximal tower: GF(9) then a degree-3 step, dimension 6
    cert3 = is_maximal(IdealHandle(A, [X ** 2 + 1, Y ** 3 - Y - 1]))
    assert cert3.is_maximal and cert3.dimension == 6


def test_has_common_zero_matches_groebner():
    A = PresentedAlgebra(QQ, ("X",))
    X, = A.gens()
    assert not has_common_zero([X ** 2 + 1, X + 2])
    assert has_common_zero([X ** 2 + 1])
    assert has_common_zero([])


def test_has_common_zero_random_consistency():
    rng = random.Random(515)
    field = GF(5)
    R = PolyRing(field, ("x", "y"))
    for _ in range(50):
        polys = []
        for _ in range(rng.randrange(1, 4)):
            d = {}
            for _ in range(rng.randrange(1, 4)):
                d[(rng.randrange(3), rng.randrange(3))] = rng.randrange(5)
            p = R.from_dict(d)
            if not p.is_zero():
                polys.append(p)
        if not polys:
            continue
        gb = groebner_basis(polys, R)
        unit = any(g.is_constant() and not g.is_zero() for g in gb)
        assert has_common_zero(polys, R) == (not unit)


def test_certificate_with_a_nonconstant_leading_coefficient_fails_to_verify():
    """Times 1 + Z@2 the certificate still vanishes under the substitution,
    and its pure power of X@ still has coefficient 1, but it is no longer
    monic in X@."""
    from scheme_explorer.noether import NormalizationStep

    A = PresentedAlgebra(QQ, ("X", "Y"))
    X, Y = A.gens()
    step = noether_normalize(IdealHandle(A, [X * Y - 1])).trace[0]
    assert step.verify()
    cert = step.certificate
    scaled = cert * (1 + cert.ring.gen("Z@2"))
    bad = NormalizationStep(step.level_names, step.chosen, step.p,
                            step.r_exponents, scaled)
    assert not bad.verify()


def test_a_tampered_certificate_verifies_false():
    """A step checks its certificate once, when it is made: with a
    coefficient changed the substitution no longer vanishes."""
    from scheme_explorer.noether import NormalizationStep

    A = PresentedAlgebra(QQ, ("X", "Y", "Z"))
    X, Y, Z = A.gens()
    res = noether_normalize(IdealHandle(A, [X * Y - Z ** 2 + 1]))
    step = res.trace[0]
    assert step.verify() and res.verify()
    tampered = NormalizationStep(step.level_names, step.chosen, step.p,
                                 step.r_exponents, step.certificate + 1)
    assert not tampered.verify()
    res.trace.append(tampered)
    assert not res.verify()


def test_normalize_refuses_a_certificate_that_does_not_verify(monkeypatch):
    from scheme_explorer import noether

    real = noether._build_certificate
    monkeypatch.setattr(noether, "_build_certificate",
                        lambda ring, moved_P, n: real(ring, moved_P, n) + 1)
    A = PresentedAlgebra(QQ, ("X", "Y"))
    X, Y = A.gens()
    with pytest.raises(Unsupported):
        noether_normalize(IdealHandle(A, [X * Y - 1]))


def _is_field_by_brute_force(handle, field, p):
    """The quotient k[x,y]/I as a table of products on the monomials under
    the staircase: a field iff it is nonzero and every nonzero element has
    an inverse among its p^dim elements."""
    ring = handle.ambient.ring
    leads = [g.leading_monomial() for g in handle.groebner()]
    basis = [(i, j) for i in range(5) for j in range(5)
             if not any(i >= a and j >= b for a, b in leads)]
    if not basis:
        return False, 0
    index = {m: k for k, m in enumerate(basis)}

    def coords(poly):
        vec = [0] * len(basis)
        for e, c in handle.normal_form(poly).terms:
            vec[index[e]] = int(c)
        return vec

    table = [[coords(ring.monomial(a) * ring.monomial(b)) for b in basis] for a in basis]

    def product(u, v):
        out = [0] * len(basis)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                if ui and vj:
                    for k, c in enumerate(table[i][j]):
                        out[k] = (out[k] + ui * vj * c) % p
        return out

    elements = [list(t) for t in itertools.product(range(p), repeat=len(basis))]
    one = coords(ring.one())
    field_ok = all(any(product(a, b) == one for b in elements) for a in elements if any(a))
    return field_ok, len(basis)


@pytest.mark.parametrize("p", [2, 3])
def test_is_maximal_matches_brute_force_quotients(p):
    """Seeded ideals of GF(p)[x,y] with quotients of dimension <= 4: the
    tower test agrees with inverses looked up in the multiplication table."""
    rng = random.Random(100 + p)
    field = GF(p)
    A = PresentedAlgebra(field, ("x", "y"))
    x, y = A.gens()

    def rand(monos):
        return sum((rng.randrange(p) * x ** i * y ** j for i, j in monos), A.ring.zero())

    verdicts = set()
    for trial in range(32):
        if trial % 2:
            gens = [x ** 2 + rand([(1, 0), (0, 1), (0, 0)]), y ** 2 + rand([(1, 0), (0, 1), (0, 0)])]
            if trial % 4 == 3:
                gens.append(rand([(1, 1), (1, 0), (0, 1), (0, 0)]))
        else:
            gens = [x ** 4 + rand([(3, 0), (2, 0), (1, 0), (0, 0)]),
                    y - rand([(3, 0), (2, 0), (1, 0), (0, 0)])]
        handle = IdealHandle(A, gens)
        field_ok, dim = _is_field_by_brute_force(handle, field, p)
        cert = is_maximal(handle)
        assert cert.is_maximal == field_ok, gens
        if field_ok:
            assert cert.dimension == dim
        verdicts.add(field_ok)
    assert verdicts == {True, False}
