"""Spec functoriality: preimages, fibers, going-up."""

from fractions import Fraction

import pytest

from scheme_explorer.arith import GF, QQ, ZZ, ExtField, FracField, Zmod, is_prime
from scheme_explorer.algebra import PresentedAlgebra
from scheme_explorer.errors import (
    IntegralityNotWitnessed,
    ResidueFieldNotRepresentable,
)
from scheme_explorer import morphism as mor
from scheme_explorer import spectrum as sp


@pytest.fixture
def zz_into_zzt():
    Az = PresentedAlgebra(ZZ, ())
    Azt = PresentedAlgebra(ZZ, ("T",))
    return mor.RingMorphism(Az, Azt, [])


def test_morphism_rejects_bad_images():
    R = PresentedAlgebra(QQ, ("X",), [PresentedAlgebra(QQ, ("X",)).ring.gen("X") ** 2 + 1])
    tgt = PresentedAlgebra(QQ, ("Y",))
    with pytest.raises(ValueError):
        mor.RingMorphism(R, tgt, [tgt.ring.gen("Y")])  # Y^2+1 != 0 in QQ[Y]


def test_preimage_of_mixed_maximal(zz_into_zzt):
    Azt = zz_into_zzt.target
    T, = Azt.gens()
    cat = sp.SpecCatalogue.recognize(Azt)
    y = sp.SpecPoint(cat, ("mixed", 7, T - 3), Zmod(7), label="y_(7,T-3)")
    assert mor.preimage_point(zz_into_zzt, y).label == "x_7"


def test_preimage_of_generic_points(zz_into_zzt):
    Azt = zz_into_zzt.target
    cat = sp.SpecCatalogue.recognize(Azt)
    eta = sp.SpecPoint(cat, ("generic",), FracField(QQ, "T"), label="xi_eta")
    assert mor.preimage_point(zz_into_zzt, eta).label == "eta"
    xi5 = sp.SpecPoint(cat, ("principal", 5), FracField(Zmod(5), "T"), label="xi_5")
    assert mor.preimage_point(zz_into_zzt, xi5).label == "x_5"


def test_identity_preimage_is_identity():
    A = PresentedAlgebra(QQ, ("T",))
    phi = mor.RingMorphism(A, A, [A.ring.gen("T")])
    cat = sp.SpecCatalogue.recognize(A)
    T, = A.gens()
    pt = sp.SpecPoint(
        cat, ("principal", T ** 2 + 1),
        ExtField(QQ, (Fraction(1), Fraction(0), Fraction(1)), check=False),
        label="x",
    )
    back = mor.preimage_point(phi, pt)
    assert back.description[1] == T ** 2 + 1


def test_identity_preimage_returns_every_zzt_point():
    """Every family of Spec ZZ[T], including height-one primes with a
    non-monic generator such as 2T - 1, comes back as the same point."""
    A = PresentedAlgebra(ZZ, ("T",))
    phi = mor.RingMorphism(A, A, [A.ring.gen("T")])
    pts = sp.enumerate_points(sp.SpecCatalogue.recognize(A), 3)
    assert {p.label for p in pts} >= {"xi_eta", "xi_2", "y_(2,T^2 + T + 1)",
                                      "y_(3,T + 1)", "y_(eta,2*T - 1)"}
    for pt in pts:
        back = mor.preimage_point(phi, pt)
        assert back == pt, pt
        assert (back.label, back.residue) == (pt.label, pt.residue)


def test_generic_to_generic_in_plane():
    src = PresentedAlgebra(QQ, ("S",))
    tgt = PresentedAlgebra(QQ, ("S", "T"))
    phi = mor.RingMorphism(src, tgt, [tgt.ring.gen("S")])
    cat_t = sp.SpecCatalogue.recognize(tgt)
    eta = sp.SpecPoint(cat_t, ("generic",), None, label="xi")
    # evaluation inside k(S,T) is opaque; the supported answer uses the
    # catalogued source shape directly
    src_cat = sp.SpecCatalogue.recognize(src)
    assert src_cat.kind == "kT"


def test_fiber_over_closed_point_is_affine_line(zz_into_zzt):
    cat = sp.SpecCatalogue.recognize(zz_into_zzt.source)
    x7 = sp.SpecPoint(cat, ("principal", 7), Zmod(7), label="x_7")
    fib = mor.fiber(zz_into_zzt, x7, bound=2)
    assert repr(fib.fiber_algebra) == "GF(7)[T]"
    labels = [p.label for p in fib.points]
    assert "eta" in labels[0]


def test_fiber_of_base_change_to_qq_i():
    """QQ[T] -> QQ(i)[T] at x_(T^2+1): two points with kappa = QQ(i)."""
    Aq = PresentedAlgebra(QQ, ("T",))
    Qi = ExtField(QQ, (Fraction(1), Fraction(0), Fraction(1)), var="i")
    Aqi = PresentedAlgebra(Qi, ("T",))
    phi = mor.RingMorphism(Aq, Aqi, [Aqi.ring.gen("T")])
    cat = sp.SpecCatalogue.recognize(Aq)
    T, = Aq.gens()
    kappa = ExtField(QQ, (Fraction(1), Fraction(0), Fraction(1)), check=False)
    x = sp.SpecPoint(cat, ("principal", T ** 2 + 1), kappa, label="x_(T^2+1)")
    fib = mor.fiber(phi, x)
    assert fib.points is not None and len(fib.points) == 2
    for pt in fib.points:
        assert pt.residue == kappa


def test_fiber_zt_demi_is_empty_at_two(zz_into_zzt):
    """V(2T-1) misses the fiber over x_2."""
    Azt = zz_into_zzt.target
    T, = Azt.gens()
    assert sp.closure_fiber_points(2 * T - 1, 2) == []
    assert len(sp.closure_fiber_points(2 * T - 1, 7)) == 1


def test_function_field_residue_raises_or_symbolic():
    src = PresentedAlgebra(QQ, ("S",))
    tgt = PresentedAlgebra(QQ, ("S", "T"))
    phi = mor.RingMorphism(src, tgt, [tgt.ring.gen("S")])
    cat = sp.SpecCatalogue.recognize(src)
    eta = sp.SpecPoint(cat, ("generic",), FracField(QQ, "S"), label="eta")
    fib = mor.fiber(phi, eta)
    # symbolic fiber: one variable over QQ(S)
    assert isinstance(fib.fiber_algebra.base, FracField)
    assert len(fib.fiber_algebra.names) == 1
    # with relations present the symbolic route declines
    T = tgt.ring.gen("T")
    tgt2 = PresentedAlgebra(QQ, ("S", "T"), [tgt.ring.gen("S") * T - 1])
    phi2 = mor.RingMorphism(src, tgt2, [tgt2.ring.gen("S")])
    with pytest.raises(ResidueFieldNotRepresentable):
        mor.fiber(phi2, eta)


def test_evaluation_commutes_with_preimage(zz_into_zzt):
    """f(preimage(q)) agrees with phi(f)(q) through the residue embedding."""
    Az, Azt = zz_into_zzt.source, zz_into_zzt.target
    T, = Azt.gens()
    cat = sp.SpecCatalogue.recognize(Azt)
    for p in (3, 5, 7):
        for shift in range(p):
            y = sp.SpecPoint(cat, ("mixed", p, T - shift), Zmod(p), label="y")
            x = mor.preimage_point(zz_into_zzt, y)
            for n in (0, 1, 6, 15):
                f = Az.ring.from_int(n)
                lhs = sp.evaluate(zz_into_zzt.apply(f), y)
                rhs = sp.evaluate(f, x)
                assert lhs == rhs


def test_preimage_of_d_f_is_d_phi_f(zz_into_zzt):
    Az, Azt = zz_into_zzt.source, zz_into_zzt.target
    T, = Azt.gens()
    cat_t = sp.SpecCatalogue.recognize(Azt)
    pts = sp.enumerate_points(cat_t, 7)
    for n in (2, 6, 15):
        f = Az.ring.from_int(n)
        phi_f = zz_into_zzt.apply(f)
        for q in pts:
            x = mor.preimage_point(zz_into_zzt, q)
            assert sp._vanishes_at(phi_f, q) == sp._vanishes_at(f, x)


def test_going_up_gaussian_integers(zz_into_zzt):
    Az = zz_into_zzt.source
    R = PresentedAlgebra(ZZ, ("T",))
    T, = R.gens()
    Ai = PresentedAlgebra(ZZ, ("T",), [T ** 2 + 1])
    phi = mor.RingMorphism(Az, Ai, [])
    Ti, = Ai.gens()
    report = mor.going_up_check(phi, [Ti ** 2 + 1], bound=50)
    assert report.all_hit()
    assert len([1 for p in range(2, 51) if is_prime(p)]) == len(report.samples)


def test_going_up_split_algebra():
    Az = PresentedAlgebra(ZZ, ())
    R = PresentedAlgebra(ZZ, ("T",))
    T, = R.gens()
    B = PresentedAlgebra(ZZ, ("T",), [T ** 2 - T])
    phi = mor.RingMorphism(Az, B, [])
    Tb, = B.gens()
    report = mor.going_up_check(phi, [Tb ** 2 - Tb], bound=30)
    assert report.all_hit()


def test_going_up_requires_monic_witness():
    Az = PresentedAlgebra(ZZ, ())
    R = PresentedAlgebra(ZZ, ("T",))
    T, = R.gens()
    B = PresentedAlgebra(ZZ, ("T",), [2 * T - 1])
    phi = mor.RingMorphism(Az, B, [])
    Tb, = B.gens()
    with pytest.raises(IntegralityNotWitnessed):
        mor.going_up_check(phi, [2 * Tb - 1], bound=10)


def test_fiber_counts_match_oracle_up_to_100():
    """Fiber sizes of ZZ[i] over x_p match direct factorization for p <= 100."""
    Az = PresentedAlgebra(ZZ, ())
    R = PresentedAlgebra(ZZ, ("T",))
    T, = R.gens()
    Ai = PresentedAlgebra(ZZ, ("T",), [T ** 2 + 1])
    phi = mor.RingMorphism(Az, Ai, [])
    cat = sp.SpecCatalogue.recognize(Az)
    for p in [q for q in range(2, 101) if is_prime(q)]:
        x = sp.SpecPoint(cat, ("principal", p), Zmod(p), label=f"x_{p}")
        fib = mor.fiber(phi, x)
        minus_one_square = any(a * a % p == p - 1 for a in range(p))
        expected = 1 if p == 2 else (2 if minus_one_square else 1)
        assert len(fib.points) == expected, p


def test_fiber_is_empty_when_the_base_change_kills_the_prime():
    """QQ[T], GF(5)[T] and ZZ/6[T] over x_p: nonempty only for ZZ/6 at 2, 3."""
    Az = PresentedAlgebra(ZZ, ())
    cat = sp.SpecCatalogue.recognize(Az)
    for base, alive in ((QQ, ()), (Zmod(5), (5,)), (Zmod(6), (2, 3))):
        target = PresentedAlgebra(base, ("T",))
        phi = mor.RingMorphism(Az, target, [])
        for p in (2, 3, 5, 7):
            x = sp.SpecPoint(cat, ("principal", p), Zmod(p), label=f"x_{p}")
            fib = mor.fiber(phi, x, bound=1)
            if p in alive:
                assert repr(fib.fiber_algebra) == f"GF({p})[T]"
            else:
                assert fib.points == []
                assert repr(fib.fiber_algebra) == f"GF({p})[T]/(1)"


def test_going_up_reads_the_leading_coefficient_in_the_variable():
    """(T^2 + 1)(U + 1) vanishes in ZZ[T,U]/(T^2+1, U^2-2), but its leading
    coefficient in T is U + 1, not the coefficient 1 of the pure power T^2."""
    Az = PresentedAlgebra(ZZ, ())
    R = PresentedAlgebra(ZZ, ("T", "U"))
    T, U = R.gens()
    B = PresentedAlgebra(ZZ, ("T", "U"), [T ** 2 + 1, U ** 2 - 2])
    phi = mor.RingMorphism(Az, B, [])
    Tb, Ub = B.gens()
    witness = Tb ** 2 * Ub + Tb ** 2 + Ub + 1
    assert B.nf(witness).is_zero()
    with pytest.raises(IntegralityNotWitnessed):
        mor.going_up_check(phi, [witness, Ub ** 2 - 2], bound=5)


def _going_up_over_gf2(fiber_relations):
    """going_up_check, bound 1, for S -> S from GF(2)[S] to
    GF(2)[S,x]/(S^2 + S, *fiber_relations(x)), witnessed by S^2 + S and the
    first relation."""
    A = PresentedAlgebra(GF(2), ("S",))
    S, x = PresentedAlgebra(GF(2), ("S", "x")).gens()
    rels = fiber_relations(x)
    B = PresentedAlgebra(GF(2), ("S", "x"), [S ** 2 + S, *rels])
    phi = mor.RingMorphism(A, B, [S])
    return mor.going_up_check(phi, [S ** 2 + S, rels[0]], bound=1).as_record()


def test_going_up_finds_no_point_above_a_zero_ring():
    """x^2 + x and x^2 + x + 1 generate the unit ideal: the target is the
    zero ring, and no point lies above either point of Spec GF(2)[S]."""
    record = _going_up_over_gf2(lambda x: [x ** 2 + x, x ** 2 + x + 1])
    assert record["samples"] == [{"base": "x_(S)", "above": None},
                                 {"base": "x_(S + 1)", "above": None}]
    assert record["surjective_on_sample"] is False


def test_going_up_exhibits_the_point_of_the_gcd_of_the_fiber_relations():
    """gcd(x^4 + x^2 + x, x^5 + x^4 + 1) = x^3 + x + 1 over GF(2): each fiber
    has that one point, of degree 3, above the fiber bound 2; x divides only
    the first relation."""
    record = _going_up_over_gf2(lambda x: [x ** 4 + x ** 2 + x, x ** 5 + x ** 4 + 1])
    assert [s["above"] for s in record["samples"]] == ["x_(x^3 + x + 1)"] * 2
    assert record["surjective_on_sample"] is True


def test_maps_to_zero_lets_an_error_of_the_normal_form_propagate(monkeypatch):
    """Only NonFieldBase falls back to the plain zero test; any other error
    from the target's normal form is a fault to report."""
    X, = PresentedAlgebra(QQ, ("X",)).gens()
    Y, = PresentedAlgebra(QQ, ("Y",)).gens()
    source = PresentedAlgebra(QQ, ("X",), [X ** 2 + 1])
    target = PresentedAlgebra(QQ, ("Y",), [Y ** 2 + 1])

    def broken(self, f):
        raise TypeError("a fault inside nf")

    monkeypatch.setattr(PresentedAlgebra, "nf", broken)
    with pytest.raises(TypeError, match="a fault inside nf"):
        mor.RingMorphism(source, target, [Y])
