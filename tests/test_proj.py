"""Projective charts, transitions, points, twists, and classical maps."""

import random
from fractions import Fraction

import pytest

from scheme_explorer.arith import GF, QQ, ZZ
from scheme_explorer.algebra import IdealHandle, PresentedAlgebra
from scheme_explorer.errors import (AllZero, DenominatorVanishes, NilpotentCoordinate,
                                    NoCanonicalMap)
from scheme_explorer.multipoly import PolyRing
from scheme_explorer import proj as pj


def test_chart_of_free_projective_space_is_affine():
    P2 = pj.projective_space(QQ, 2)
    chart = pj.proj_chart(P2, 0)
    assert chart.algebra.names == ("t1", "t2")
    assert chart.algebra.relations == ()


def test_chart_of_conic():
    R = PolyRing(QQ, ("T0", "T1", "T2"))
    T0, T1, T2 = R.gens()
    conic = pj.GradedAlgebra(QQ, ("T0", "T1", "T2"), [T0 * T2 - T1 ** 2])
    chart = pj.proj_chart(conic, 0)
    t1, t2 = chart.algebra.ring.gens()
    assert list(chart.algebra.relations) == [t2 - t1 ** 2]


def test_p0_chart_is_everything():
    P0 = pj.projective_space(QQ, 0)
    chart = pj.proj_chart(P0, 0)
    assert chart.algebra.names == ()
    assert not pj.proj_is_empty(P0)


def test_nilpotent_coordinate_rejected():
    R = PolyRing(QQ, ("T0", "T1"))
    T0, T1 = R.gens()
    B = pj.GradedAlgebra(QQ, ("T0", "T1"), [T0 ** 2])
    with pytest.raises(NilpotentCoordinate):
        pj.proj_chart(B, 0)
    chart1 = pj.proj_chart(B, 1)  # T1 is fine
    assert chart1.index == 1


def test_proj_empty_iff_all_coordinates_nilpotent():
    R = PolyRing(QQ, ("T",))
    T, = R.gens()
    for k in (1, 2, 4):
        B = pj.GradedAlgebra(QQ, ("T",), [T ** k])
        assert pj.proj_is_empty(B)
    assert not pj.proj_is_empty(pj.projective_space(QQ, 1))


def test_transition_p1_is_inversion():
    P1 = pj.projective_space(QQ, 1)
    R = PolyRing(QQ, ("t1",))
    t1, = R.gens()
    moved = pj.chart_transition(P1, 0, 1, t1)
    assert str(moved) == "(1)/(t0)"
    back = pj.chart_transition(P1, 1, 0, moved)
    assert back.num == t1.relabel(back.num.ring) and back.den.is_constant()


def test_transition_constants_stay_constant():
    P1 = pj.projective_space(QQ, 1)
    R = PolyRing(QQ, ("t1",))
    c = R.from_int(5)
    moved = pj.chart_transition(P1, 0, 1, c)
    assert moved.num.is_constant() and moved.num.constant_value() == 5
    assert moved.den.is_constant()


def test_transition_round_trip_p2():
    P2 = pj.projective_space(QQ, 2)
    R = PolyRing(QQ, ("t1", "t2"))
    t1, t2 = R.gens()
    fr = pj.ChartFraction(t2, t1)
    moved = pj.chart_transition(P2, 0, 1, fr)
    assert str(moved) == "t2"
    back = pj.chart_transition(P2, 1, 0, moved)
    assert back == fr


def test_transition_round_trip_random_fractions():
    rng = random.Random(1234)
    P2 = pj.projective_space(GF(7), 2)
    R = PolyRing(GF(7), ("t1", "t2"))
    t1, t2 = R.gens()
    for _ in range(15):
        num = R.from_dict({
            (rng.randrange(3), rng.randrange(3)): rng.randrange(1, 7)
            for _ in range(2)
        })
        den = t1 ** rng.randrange(0, 3) * t2 ** rng.randrange(0, 2)
        if num.is_zero() or den.is_zero():
            continue
        fr = pj.ChartFraction(num, den)
        j = rng.choice([1, 2])
        try:
            moved = pj.chart_transition(P2, 0, j, fr)
        except DenominatorVanishes:
            continue
        back = pj.chart_transition(P2, j, 0, moved)
        assert back == fr


def test_point_normalization():
    assert pj.point_normalize(QQ, [Fraction(2), Fraction(4)]).coords == (
        Fraction(1), Fraction(2),
    )
    assert pj.point_normalize(GF(7), [0, 3]).coords == (0, 1)
    with pytest.raises(AllZero):
        pj.point_normalize(QQ, [Fraction(0), Fraction(0)])


def test_chart_membership_iff_nonzero_coordinate():
    p = pj.point_normalize(GF(5), [0, 2, 3])
    assert p.chart_memberships() == [1, 2]


def test_point_counts_exhaustive():
    for q in (2, 3, 5):
        field = GF(q)
        for n in (1, 2):
            pts = pj.enumerate_points(field, n)
            assert len(pts) == (q ** (n + 1) - 1) // (q - 1)
            assert len(set(pts)) == len(pts)


def test_segre_example_and_quadric():
    p = pj.point_normalize(QQ, [Fraction(1), Fraction(2)])
    q = pj.point_normalize(QQ, [Fraction(3), Fraction(5)])
    image = pj.segre(p, q)
    expected = pj.point_normalize(QQ, [Fraction(3), Fraction(5), Fraction(6), Fraction(10)])
    assert image == expected
    s = image.coords
    assert s[0] * s[3] - s[1] * s[2] == 0


def test_segre_trivial_point():
    p = pj.point_normalize(QQ, [Fraction(1), Fraction(0)])
    assert pj.segre(p, p).coords == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def test_conic_example():
    p = pj.point_normalize(QQ, [Fraction(2), Fraction(3)])
    image = pj.conic_map(p)
    assert image == pj.point_normalize(QQ, [Fraction(4), Fraction(6), Fraction(9)])
    a, b, c = image.coords
    assert a * c - b * b == 0


def test_veronese_symmetric():
    p = pj.point_normalize(GF(5), [2, 3])
    image = pj.veronese(p)
    assert image.coords[1] == image.coords[2]


def test_segre_images_satisfy_ideal_exhaustively():
    for q in (2, 3, 5):
        field = GF(q)
        for p in pj.enumerate_points(field, 1):
            for r in pj.enumerate_points(field, 1):
                s = pj.segre(p, r).coords
                assert field.sub(field.mul(s[0], s[3]), field.mul(s[1], s[2])) == field.zero()
                v = pj.veronese(p).coords
                assert v[1] == v[2]
                c = pj.conic_map(p).coords
                assert field.sub(field.mul(c[0], c[2]), field.mul(c[1], c[1])) == field.zero()


def test_kernels_match_expected_ideals():
    seg = pj.segre_kernel(QQ, 1, 1)
    assert len(seg.generators) == 1
    R = seg.generators[0].ring
    Z00, Z01, Z10, Z11 = (R.gen(n) for n in ("Z00", "Z01", "Z10", "Z11"))
    expected = IdealHandle(seg.ambient, [Z00 * Z11 - Z01 * Z10])
    assert pj.ideals_equal_up_to_radical(seg, expected)

    con = pj.conic_kernel(QQ)
    Rc = con.generators[0].ring
    T0, T1, T2 = (Rc.gen(n) for n in ("T0", "T1", "T2"))
    assert pj.ideals_equal_up_to_radical(
        con, IdealHandle(con.ambient, [T0 * T2 - T1 ** 2])
    )

    ver = pj.veronese_kernel(QQ, 1)
    Rv = ver.generators[0].ring
    V00, V01, V10, V11 = (Rv.gen(n) for n in ("Z00", "Z01", "Z10", "Z11"))
    expected_v = IdealHandle(
        ver.ambient, [V01 - V10, V00 * V11 - V01 * V10]
    )
    assert pj.ideals_equal_up_to_radical(ver, expected_v)


def test_twist_section_ranks():
    import math

    for n in range(4):
        for d in range(5):
            assert pj.twist_sections(n, d, QQ).rank == math.comb(n + d, d)
        for d in (-1, -2, -5):
            assert pj.twist_sections(n, d, QQ).rank == 0
    assert pj.twist_sections(3, 0, QQ).rank == 1


def test_global_functions_are_constants():
    sections = pj.twist_sections(2, 0, QQ)
    assert sections.basis_strings() == ["1"]


def test_cocycle_identities_symbolic():
    for n in range(1, 4):
        for d in range(-3, 4):
            assert pj.twist_cocycle(n, d).check_identities()


def test_cocycle_multiplicativity():
    c1 = pj.twist_cocycle(2, 2)
    c2 = pj.twist_cocycle(2, -1)
    prod = c1 * c2
    assert prod.d == 1
    for i in range(3):
        for j in range(3):
            left = tuple(
                a + b for a, b in zip(c1.transition(i, j), c2.transition(i, j))
            )
            assert left == prod.transition(i, j)


def test_p1_twist_transition():
    c = pj.twist_cocycle(1, 1)
    assert c.transition(0, 1) == (1, -1)  # T0 / T1


def test_zero_locus_of_coordinate_section():
    P1 = pj.projective_space(GF(5), 1)
    z = pj.section_zero_locus(P1, P1.ring.gen("T0"))
    pts = z.field_points(GF(5))
    assert pts == [pj.point_normalize(GF(5), [0, 1])]
    # chart description: t0 on chart 1, unit on chart 0's complement rules
    g = z.chart_ideal(1)
    assert str(g) == "t0"


def test_zero_locus_of_conic_section():
    P2 = pj.projective_space(GF(3), 2)
    R = P2.ring
    T0, T1, T2 = R.gens()
    z = pj.section_zero_locus(P2, T0 * T2 - T1 ** 2)
    pts = z.field_points(GF(3))
    # the conic through P^2(F3) is a smooth rational curve: q + 1 points
    assert len(pts) == 4
    for p in pts:
        a, b, c = p.coords
        F = GF(3)
        assert F.sub(F.mul(a, c), F.mul(b, b)) == F.zero()


def test_zero_locus_is_taken_after_the_base_change_to_the_field():
    """T0^2 + T1^2 over ZZ has the zeros [1:2] and [1:3] in P^1(GF(5));
    over QQ there is no canonical map to GF(5)."""
    P1 = pj.projective_space(ZZ, 1)
    T0, T1 = P1.ring.gens()
    pts = pj.section_zero_locus(P1, T0 ** 2 + T1 ** 2).field_points(GF(5))
    assert [repr(p) for p in pts] == ["[1:2]", "[1:3]"]
    P1 = pj.projective_space(QQ, 1)
    T0, T1 = P1.ring.gens()
    with pytest.raises(NoCanonicalMap):
        pj.section_zero_locus(P1, T0 ** 2 + T1 ** 2).field_points(GF(5))


def test_zero_locus_constant_section_empty():
    P1 = pj.projective_space(GF(5), 1)
    z = pj.section_zero_locus(P1, P1.ring.from_int(3))
    assert z.field_points(GF(5)) == []
    assert z.chart_ideal(0) == "unit"


def test_dehomogenize_homogenize_saturation_on_random_ideals():
    """Chart-wise dehomogenization then homogenization preserves the
    radical-membership behavior of the produced generators."""
    rng = random.Random(2718)
    from scheme_explorer.algebra import radical_membership
    from scheme_explorer.multipoly import dehomogenize, homogenize

    for _ in range(10):
        R = PolyRing(GF(5), ("T0", "T1", "T2"))
        d = rng.randrange(1, 4)
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            e0 = rng.randrange(d + 1)
            e1 = rng.randrange(d + 1 - e0)
            terms[(e0, e1, d - e0 - e1)] = rng.randrange(1, 5)
        f = R.from_dict(terms)
        if f.is_zero():
            continue
        g = dehomogenize(f, "T0", rename={"T1": "t1", "T2": "t2"})
        if g.is_zero() or g.is_constant():
            continue
        h = homogenize(g, "T0", 0, rename={"t1": "T1", "t2": "T2"})
        ambient = PresentedAlgebra(GF(5), ("T0", "T1", "T2"))
        f_up = f.relabel(ambient.ring)
        h_up = h.relabel(ambient.ring)
        I = IdealHandle(ambient, [f_up])
        J = IdealHandle(ambient, [h_up])
        # f = T0^k * h: the round trip only strips the T0 content, so f
        # always lies in sqrt(J), and h lies in sqrt(I) exactly when k = 0
        assert radical_membership(f_up, J)
        t0_exponent = min(e[0] for e, _ in f.terms)
        assert radical_membership(h_up, I) == (t0_exponent == 0)
        if t0_exponent == 0:
            assert f_up.monic() == h_up.monic()


def test_base_change_commutes_with_charts():
    """Charts of the base-changed graded algebra agree with base-changing
    each chart, checked generator by generator on sample quadrics."""
    from scheme_explorer.algebra import specialize
    from scheme_explorer.arith import ZZ, ExtField

    R = PolyRing(ZZ, ("T0", "T1", "T2"))
    T0, T1, T2 = R.gens()
    samples = [
        [T0 * T2 - T1 ** 2],
        [T0 * T1 - T2 ** 2, T1 ** 2 - T0 * T2],
    ]
    targets = [
        GF(7),
        GF(11),
        ExtField(QQ, (Fraction(1), Fraction(0), Fraction(1)), var="i"),
    ]
    for rels in samples:
        B = pj.GradedAlgebra(ZZ, ("T0", "T1", "T2"), rels)
        for target in targets:
            moved = pj.GradedAlgebra(
                target,
                B.names,
                [r.map_coefficients(PolyRing(target, B.names)) for r in B.relations],
            )
            for i in range(3):
                chart_then_move = specialize(pj.proj_chart(B, i).algebra, target)
                move_then_chart = pj.proj_chart(moved, i).algebra
                assert chart_then_move.names == move_then_chart.names
                assert sorted(map(str, chart_then_move.relations)) == sorted(
                    map(str, move_then_chart.relations)
                )
