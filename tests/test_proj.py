"""Projective charts, points, twisting sheaves, and classical maps."""

import itertools
import random
from fractions import Fraction

import pytest

from scheme_explorer.arith import GF, GFq, QQ
from scheme_explorer.algebra import IdealHandle, PresentedAlgebra
from scheme_explorer.errors import AllZero, NilpotentCoordinate
from scheme_explorer.multipoly import PolyRing
from scheme_explorer import proj as pj


def test_chart_of_free_projective_space_is_affine():
    P2 = pj.GradedAlgebra(QQ, ("T0", "T1", "T2"))
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
    P0 = pj.GradedAlgebra(QQ, ("T0",))
    chart = pj.proj_chart(P0, 0)
    assert chart.algebra.names == ()
    assert chart.algebra.relations == ()


def test_nilpotent_coordinate_rejected():
    R = PolyRing(QQ, ("T0", "T1"))
    T0, T1 = R.gens()
    B = pj.GradedAlgebra(QQ, ("T0", "T1"), [T0 ** 2])
    with pytest.raises(NilpotentCoordinate):
        pj.proj_chart(B, 0)
    chart1 = pj.proj_chart(B, 1)  # T1 is fine
    assert chart1.index == 1


def test_every_chart_refused_iff_all_coordinates_nilpotent():
    R = PolyRing(QQ, ("T",))
    T, = R.gens()
    for k in (1, 2, 4):
        B = pj.GradedAlgebra(QQ, ("T",), [T ** k])
        with pytest.raises(NilpotentCoordinate):
            pj.proj_chart(B, 0)
    P1 = pj.GradedAlgebra(QQ, ("T0", "T1"))
    assert [pj.proj_chart(P1, i).index for i in (0, 1)] == [0, 1]


def test_point_normalization():
    assert pj.point_normalize(QQ, [Fraction(2), Fraction(4)]).coords == (
        Fraction(1), Fraction(2),
    )
    assert pj.point_normalize(GF(7), [0, 3]).coords == (0, 1)
    with pytest.raises(AllZero):
        pj.point_normalize(QQ, [Fraction(0), Fraction(0)])


def test_point_counts_exhaustive():
    """The count of ``proj points`` equals its ``expected`` (q^(n+1) - 1)/(q - 1),
    also over fields of prime-power order."""
    fields = [GF(2), GF(3), GF(5), GFq(4, (1, 1, 1)), GFq(8, (1, 1, 0, 1)),
              GFq(9, (1, 0, 1))]
    for field in fields:
        q = field.order()
        for n in (1, 2):
            pts = pj.enumerate_points(field, n)
            assert len(pts) == (q ** (n + 1) - 1) // (q - 1)
            assert len(set(pts)) == len(pts)


# (name, relations) over GF(p)[T0, T1, T2]: the plane, a smooth conic and
# the triangle of the three coordinate lines
_PLANE_CURVES = [
    ("plane", lambda T0, T1, T2: []),
    ("conic", lambda T0, T1, T2: [T0 * T2 - T1 ** 2]),
    ("triangle", lambda T0, T1, T2: [T0 * T1 * T2]),
]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name, relations", _PLANE_CURVES, ids=[c[0] for c in _PLANE_CURVES])
def test_chart_points_are_the_points_off_the_hyperplane(p, name, relations):
    """The GF(p)-points of chart i are the points of Proj B with T_i != 0,
    read in the ratios T_j/T_i: both sides counted by brute force."""
    field = GF(p)
    R = PolyRing(field, ("T0", "T1", "T2"))
    B = pj.GradedAlgebra(field, R.names, relations(*R.gens()))
    on_b = [x for x in pj.enumerate_points(field, 2)
            if all(r.evaluate(dict(zip(R.names, x.coords))) == field.zero()
                   for r in B.relations)]
    for i in range(3):
        chart = pj.proj_chart(B, i).algebra
        affine = {t for t in itertools.product(field.elements(), repeat=2)
                  if all(r.evaluate(dict(zip(chart.names, t))) == field.zero()
                         for r in chart.relations)}
        ratios = {tuple(field.mul(c, field.inv(x.coords[i]))
                        for j, c in enumerate(x.coords) if j != i)
                  for x in on_b if x.coords[i] != field.zero()}
        assert ratios == affine


_MAPS = {
    "segre": (lambda k: pj.segre_kernel(k, 1, 1), 1,
              lambda x, y: pj.segre(x, y), 3),
    "veronese": (lambda k: pj.veronese_kernel(k, 1), 0,
                 lambda x, y: pj.veronese(x), 3),
    "conic": (pj.conic_kernel, 0, lambda x, y: pj.conic_map(x), 2),
}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("which", sorted(_MAPS))
def test_kernel_vanishes_exactly_on_the_image(which, p):
    """Over GF(p) the values ``kernel_values`` reads are all zero exactly at
    the normalized images of the map, among all points of the target."""
    kernel_of, second, image_of, target = _MAPS[which]
    field = GF(p)
    kernel = kernel_of(field)
    line = pj.enumerate_points(field, 1)
    pairs = list(itertools.product(line, line) if second else zip(line, line))
    raw = [image_of(x, y) for x, y in pairs]
    for r in raw:
        assert set(pj.kernel_values(kernel, r).values()) == {field.zero()}
    # the maps are injective on points
    image = {pj.point_normalize(field, r.coords) for r in raw}
    assert len(image) == len(pairs)
    zeros = {x for x in pj.enumerate_points(field, target)
             if set(pj.kernel_values(kernel, x).values()) == {field.zero()}}
    assert zeros == image
    assert len(pj.kernel_values(kernel, next(iter(image)))) == len(kernel.generators)


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
