"""Points as records: the listed points of a spectrum against points built
eagerly, the work that describing Spec ZZ[T] leaves undone, and equality
across spectra."""

import random
from fractions import Fraction

import pytest

from scheme_explorer import algebra as alg
from scheme_explorer import arith, dsl
from scheme_explorer import morphism as mor
from scheme_explorer import spectrum as sp
from scheme_explorer.arith import QQ, ZZ, ExtField, Zmod, dense_to_poly, up_deg
from scheme_explorer.cli import Environment, render_json, run_script
from scheme_explorer.errors import Undecidable


# ---------------------------------------------------------------------------
# reference constructors: every point built with its Poly and residue field
# ---------------------------------------------------------------------------

def eager_closed_point(cat, g):
    k = cat.data["field"]
    P = dense_to_poly(cat.algebra.ring, g)
    if up_deg(g) == 1:
        kappa = k
    else:
        taken, field = set(), k
        while isinstance(field, ExtField):
            taken.add(field.var)
            field = field.base
        kappa = ExtField(k, g, var=alg._fresh_name("t", taken), check=False)
    return sp.SpecPoint(cat, ("principal", P), kappa, label=f"x_({P})")


def eager_mixed_point(cat, p, g, _k):
    k = Zmod(p)
    lift = dense_to_poly(cat.algebra.ring, [int(c) for c in g])
    kappa = k if up_deg(g) == 1 else ExtField(k, g, check=False)
    return sp.SpecPoint(cat, ("mixed", p, lift), kappa, label=f"y_({p},{lift})")


def eager_height_one_point(cat, coeffs):
    P = dense_to_poly(cat.algebra.ring, coeffs)
    kappa = ExtField(QQ, tuple(Fraction(c) for c in coeffs), check=False)
    return sp.SpecPoint(cat, ("principal", P), kappa, label=f"y_(eta,{P})")


def listed_both_ways(monkeypatch, make):
    """``make()`` with the package's constructors, then with the eager ones."""
    new = make()
    with monkeypatch.context() as m:
        m.setattr(sp, "closed_point", eager_closed_point)
        m.setattr(sp, "mixed_point", eager_mixed_point)
        m.setattr(sp, "height_one_point", eager_height_one_point)
        old = make()
    return new, old


def probes(ring, rng, count=3):
    dom = ring.domain
    pool = list(range(-9, 10)) if dom == ZZ else dom.elements()
    return [
        ring.from_dict({(k,): rng.choice(pool) for k in range(rng.randint(1, 5))})
        for _ in range(count)
    ]


def assert_same_points(new, old, seed=7):
    assert len(new) == len(old) > 0
    rng = random.Random(seed)
    fs = {}
    for a, b in zip(new, old):
        # the printed forms first, while nothing of a has been built
        assert a.as_record() == b.as_record()
        assert (a.label, a.key(), repr(a)) == (b.label, b.key(), repr(b))
        assert a == b and hash(a) == hash(b)
        assert a.description == b.description
        assert a.residue == b.residue and repr(a.residue) == repr(b.residue)
        if isinstance(b.residue, ExtField):
            assert list(map(type, a.residue.modulus)) == list(map(type, b.residue.modulus))
        ring = b.owner.algebra.ring
        if ring not in fs:
            fs[ring] = probes(ring, rng)
        for f in fs[ring]:
            assert sp.evaluate(f, a) == sp.evaluate(f, b), (a, f)


def catalogue(text):
    return sp.SpecCatalogue.recognize(Environment().ring_from_text(text))


@pytest.mark.parametrize("ring, bound", [
    ("ZZ[T]", 10), ("GF(7)[X]", 3), ("GF(4,t^2+t+1)[X]", 4), ("GF(9,t^2+1)[X]", 2),
])
def test_listed_points_match_the_eager_reference(monkeypatch, ring, bound):
    cat = catalogue(ring)
    new, old = listed_both_ways(monkeypatch, lambda: sp.enumerate_points(cat, bound))
    assert_same_points(new, old)


def test_closure_fiber_points_match_the_eager_reference(monkeypatch):
    T = alg.PresentedAlgebra(ZZ, ("T",)).ring.gen("T")
    rng = random.Random(7)
    for _ in range(8):
        P0 = sum((rng.randint(-9, 9) * T ** k for k in range(rng.randint(2, 3))),
                 rng.randint(1, 3) * T ** 3)
        for p in sp._primes_upto(30):
            try:
                new, old = listed_both_ways(monkeypatch, lambda: sp.closure_fiber_points(P0, p))
            except Undecidable:
                continue
            if new:
                assert [m for _, m in new] == [m for _, m in old]
                assert_same_points([pt for pt, _ in new], [pt for pt, _ in old])


@pytest.mark.parametrize("p", [2, 3])
def test_fiber_points_match_the_eager_reference(monkeypatch, p):
    env = Environment()
    phi = mor.inclusion(env.ring_from_text("ZZ"), env.ring_from_text("ZZ[T]"))
    x = sp.prime_point(sp.SpecCatalogue.recognize(phi.source), p)
    new, old = listed_both_ways(monkeypatch, lambda: mor.fiber(phi, x, bound=6))
    assert new.as_record() == old.as_record()
    assert_same_points(new.points, old.points)


def test_describing_zzt_builds_no_poly_and_no_number_field(monkeypatch):
    """Its 3,266 height-one points are printed from their coefficients."""
    built = []
    ext_init, to_poly = arith.ExtField.__init__, sp.dense_to_poly

    def counting_ext_init(self, base, *args, **kwargs):
        if base == QQ:
            built.append("ExtField over QQ")
        ext_init(self, base, *args, **kwargs)

    def counting_to_poly(*args, **kwargs):
        built.append("dense_to_poly")
        return to_poly(*args, **kwargs)

    monkeypatch.setattr(arith.ExtField, "__init__", counting_ext_init)
    monkeypatch.setattr(sp, "dense_to_poly", counting_to_poly)
    records, had_error = run_script(dsl.parse("spec describe ZZ[T] --bound 10;"))
    assert not had_error
    assert render_json(records)
    labels = [pt["description"] for pt in records[0]["data"]["points"]]
    assert sum(label.startswith("y_(eta,") for label in labels) == 3_266
    assert built == []


def test_printing_embedded_points_builds_no_residue_field(monkeypatch):
    """The points of ZZ[T] x GF(2)[X] print the residue-field text of their
    inner points; a residue field is built only when one is asked for."""
    built = []
    ext_init = arith.ExtField.__init__

    def counting_ext_init(self, base, *args, **kwargs):
        built.append(base)
        ext_init(self, base, *args, **kwargs)

    monkeypatch.setattr(arith.ExtField, "__init__", counting_ext_init)
    product = sp.SpecCatalogue.product(catalogue("ZZ[T]"), catalogue("GF(2)[X]"))
    points = sp.enumerate_points(product, 2)
    records = [pt.as_record() for pt in points] + [repr(pt) for pt in points]
    assert built == []
    quadratic = next(pt for pt in points if pt.label == "left:y_(eta,T^2 + 1)")
    assert quadratic.as_record()["residue_field"] == "QQ[t]/(t^2 + 1)"
    assert repr(quadratic.residue) == "QQ[t]/(t^2 + 1)" and built == [QQ]
    assert quadratic.residue is quadratic.description[2].residue
    assert records == [pt.as_record() for pt in points] + [repr(pt) for pt in points]


# ---------------------------------------------------------------------------
# equality: the same key on the same ring
# ---------------------------------------------------------------------------

def test_points_of_different_rings_are_different():
    x2, x3 = (sp.closed_point(catalogue(f"GF({p})[X]"), (0, 1)) for p in (2, 3))
    assert x2.label == x3.label == "x_(X)" and x2.key() == x3.key()
    assert x2 != x3 and len({x2, x3}) == 2
    z6, z10 = (sp.prime_point(catalogue(f"ZZ/{n}"), 2) for n in (6, 10))
    assert z6.label == z10.label == "x_2"
    assert z6 != z10 and len({z6, z10}) == 2


def test_points_of_two_catalogues_of_one_ring_are_equal():
    a, b = (sp.closed_point(catalogue("GF(2)[X]"), (1, 1)) for _ in range(2))
    assert a.owner is not b.owner
    assert a == b and hash(a) == hash(b)
    assert sp.enumerate_points(catalogue("ZZ[T]"), 3) == sp.enumerate_points(
        catalogue("ZZ[T]"), 3)


def test_embedded_points_compare_their_rings():
    def left_x(right):
        product = sp.SpecCatalogue.product(catalogue("GF(2)[X]"), catalogue(right))
        return sp.enumerate_points(product, 1)[1]

    a, b, c = left_x("GF(3)[X]"), left_x("GF(3)[X]"), left_x("GF(5)[X]")
    assert a.label == c.label == "left:x_(X)"
    assert a == b and hash(a) == hash(b)
    assert a != c and len({a, c}) == 2
