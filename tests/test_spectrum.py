"""Catalogued spectra: points, evaluation, closures, components, dimension."""

import itertools
import random

import pytest

from scheme_explorer.arith import (
    GF,
    GFq,
    QQ,
    ZZ,
    Zmod,
    factor_dense,
    poly_to_dense,
    up_deg,
    up_norm,
)
from scheme_explorer.algebra import PresentedAlgebra, localize, unit_partition
from scheme_explorer.errors import BudgetExceeded, FactorizationUnavailable, NotCatalogued, Undecidable
from scheme_explorer.multipoly import PolyRing
from scheme_explorer import spectrum as sp


@pytest.fixture
def spec_zz():
    return sp.SpecCatalogue.recognize(PresentedAlgebra(ZZ, ()))


def test_spec_of_field_is_singleton():
    cat = sp.SpecCatalogue.recognize(PresentedAlgebra(GF(7), ()))
    pts = sp.enumerate_points(cat)
    assert len(pts) == 1
    assert repr(pts[0].residue) == "GF(7)"


def test_spec_zz_bound_10(spec_zz):
    pts = sp.enumerate_points(spec_zz, 10)
    assert [p.label for p in pts] == ["eta", "x_2", "x_3", "x_5", "x_7"]
    assert pts[0].residue == QQ
    assert pts[1].residue == Zmod(2)


def test_spec_z12_two_points():
    cat = sp.SpecCatalogue.recognize(PresentedAlgebra(Zmod(12), ()))
    pts = sp.enumerate_points(cat)
    assert [p.label for p in pts] == ["x_2", "x_3"]


def test_evaluate_examples(spec_zz):
    pts = sp.enumerate_points(spec_zz, 10)
    x7 = next(p for p in pts if p.label == "x_7")
    ring = PresentedAlgebra(ZZ, ()).ring
    assert sp.evaluate(ring.from_int(15), x7) == 1
    eta = pts[0]
    from fractions import Fraction

    assert sp.evaluate(ring.from_int(15), eta) == Fraction(15)


def test_evaluate_vanishing_iff_in_prime(spec_zz):
    pts = sp.enumerate_points(spec_zz, 20)
    ring = PresentedAlgebra(ZZ, ()).ring
    for p in pts:
        if p.is_generic():
            continue
        prime = p.description[1]
        for n in (0, 2, 7, 30, prime):
            assert sp._vanishes_at(ring.from_int(n), p) == (n % prime == 0)


def test_evaluate_zzt_closed_point():
    """P at y_(7, T-3) is the class of P(3) mod 7."""
    A = PresentedAlgebra(ZZ, ("T",))
    T, = A.gens()
    cat = sp.SpecCatalogue.recognize(A)
    pt = sp.SpecPoint(cat, ("mixed", 7, T - 3), Zmod(7), label="y_(7,T-3)")
    P = T ** 2 + 5 * T + 1
    assert sp.evaluate(P, pt) == (3 ** 2 + 5 * 3 + 1) % 7


def test_closure_of_generic_is_everything(spec_zz):
    pts = sp.enumerate_points(spec_zz, 10)
    eta = pts[0]
    z = sp.closure(eta)
    assert all(z.contains(p) for p in pts)


def test_closure_of_closed_point_is_itself(spec_zz):
    pts = sp.enumerate_points(spec_zz, 10)
    x5 = next(p for p in pts if p.label == "x_5")
    z = sp.closure(x5)
    assert [p.label for p in pts if z.contains(p)] == ["x_5"]


def test_closure_of_height_one_in_zzt():
    A = PresentedAlgebra(ZZ, ("T",))
    T, = A.gens()
    cat = sp.SpecCatalogue.recognize(A)
    from scheme_explorer.arith import ExtField
    from fractions import Fraction

    kappa = ExtField(QQ, (Fraction(-1, 2), Fraction(1)), check=False)
    y = sp.SpecPoint(cat, ("principal", 2 * T - 1), kappa, label="y_(eta,2T-1)")
    z = sp.closure(y)
    assert [str(g) for g in z.generators] == ["2*T - 1"]


def test_v_equal_iff_mutual_radical_membership():
    rng = random.Random(73)
    A = PresentedAlgebra(QQ, ("x",))
    x, = A.gens()
    cat = sp.SpecCatalogue.recognize(A)
    for _ in range(12):
        e1 = rng.randrange(1, 3)
        e2 = rng.randrange(1, 3)
        shift = rng.randrange(-2, 3)
        f = (x - shift) ** e1
        g = (x - shift) ** e2
        assert sp.ZariskiClosed(cat, [f]).equals(sp.ZariskiClosed(cat, [g]))
        h = (x - shift - 1) * (x - shift)
        same = sp.ZariskiClosed(cat, [f]).equals(sp.ZariskiClosed(cat, [h]))
        assert not same


def test_nilradical_is_intersection_of_primes_small():
    for n in range(2, 120):
        assert sp.nilpotents_by_scan(n) == sp.vanishing_everywhere(n), n


def test_spec_product_is_disjoint_union():
    left = sp.SpecCatalogue.recognize(PresentedAlgebra(GF(7), ()))
    right = sp.SpecCatalogue.recognize(PresentedAlgebra(GF(5), ()))
    product = sp.SpecCatalogue.product(left, right)
    pts = sp.enumerate_points(product)
    assert len(pts) == 2
    labels = [p.label for p in pts]
    assert labels[0].startswith("left:") and labels[1].startswith("right:")


def test_d_fg_is_intersection_on_zmod():
    ring = PresentedAlgebra(Zmod(30), ())
    cat = sp.SpecCatalogue.recognize(ring)
    pts = sp.enumerate_points(cat)
    R = ring.ring
    for f in range(30):
        for g in range(0, 30, 7):
            for p in pts:
                left = not sp._vanishes_at(R.from_int(f * g), p)
                right = (not sp._vanishes_at(R.from_int(f), p)) and (
                    not sp._vanishes_at(R.from_int(g), p)
                )
                assert left == right


def test_localization_spectrum_is_the_basic_open():
    A = PresentedAlgebra(Zmod(12), ())
    L = localize(A, A.ring.from_int(2))
    cat = sp.SpecCatalogue.recognize(L)
    assert [p.label for p in sp.enumerate_points(cat)] == ["x_3"]


def test_quotient_spectrum_is_v_of_ideal():
    A = PresentedAlgebra(Zmod(12), ())
    # quotient by (4): V(4) = {x_2}
    Aq = PresentedAlgebra(Zmod(12), (), [])
    quot = PresentedAlgebra(Zmod(12), ())
    cat = sp.SpecCatalogue(
        "quotient",
        quot,
        {"inner": sp.SpecCatalogue.recognize(A), "ideal": (A.ring.from_int(4),)},
    )
    assert [p.label for p in sp.enumerate_points(cat)] == ["x_2"]


def test_closure_fiber_points_2t_minus_1():
    A = PresentedAlgebra(ZZ, ("T",))
    T, = A.gens()
    P0 = 2 * T - 1
    assert sp.closure_fiber_points(P0, 2) == []
    for p in (3, 5, 7, 11, 13):
        pts = sp.closure_fiber_points(P0, p)
        assert len(pts) == 1 and pts[0][1] == 1
        # the point is the naive root of 2T = 1
        lift = pts[0][0].description[2]
        root = (-lift.coeff((0,))) % p
        assert 2 * root % p == 1


def test_closure_fiber_points_t2_plus_1_oracle():
    """Brute-force factorization oracle drives the fiber counts; the split
    happens exactly when -1 is a square mod p (p = 1 mod 4)."""
    A = PresentedAlgebra(ZZ, ("T",))
    T, = A.gens()
    P0 = T ** 2 + 1
    from scheme_explorer.arith import is_prime

    for p in [q for q in range(3, 60) if is_prime(q)]:
        pts = sp.closure_fiber_points(P0, p)
        minus_one_square = any(a * a % p == (p - 1) for a in range(1, p))
        assert minus_one_square == (p % 4 == 1)
        assert len(pts) == (2 if minus_one_square else 1)
    at2 = sp.closure_fiber_points(P0, 2)
    assert len(at2) == 1 and at2[0][1] == 2  # (T+1)^2 over GF(2)


def _closure_polys():
    """Seeded P0 of degree 1 to 4, the leading coefficient 1 or a multiple
    of small primes, then three with a known shape mod small primes."""
    T = PresentedAlgebra(ZZ, ("T",)).ring.gen("T")
    rng = random.Random(41)
    polys = [sum((rng.randint(-12, 12) * T ** k for k in range(degree)), lead * T ** degree)
             for degree in (1, 2, 3, 4) for lead in (1, 2, 6, 30, rng.randint(-40, 40) or 1)]
    return polys + [
        6 * T ** 2 + 1,              # the constant 1 mod 2 and mod 3
        3 * T ** 3 + 9,              # T^3 + 1 mod 2, zero mod 3
        35 * T ** 4 - 7 * T + 14,    # zero mod 7
    ]


def _fiber_by_itself(P0, p):
    """The fiber over x_p computed from scratch for this prime alone: P0
    read into GF(p), a catalogue of its own; None when P0 vanishes mod p."""
    k = Zmod(p)
    dense = poly_to_dense(P0, k)
    if not dense:
        return None
    cat = sp.SpecCatalogue.recognize(PresentedAlgebra(ZZ, P0.ring.names))
    fac = factor_dense(dense, k)[1] if up_deg(dense) > 0 else []
    return [(sp.mixed_point(cat, p, g, k), m) for g, m in fac]


def _records(points):
    return [(pt, pt.label, pt.residue_text, m) for pt, m in points]


@pytest.mark.parametrize("P0", _closure_polys(), ids=str)
def test_closure_fibers_in_one_pass_match_the_per_prime_calls(P0):
    primes = sp._primes_upto(30)
    alone = []
    for p in primes:
        fiber = _fiber_by_itself(P0, p)
        if fiber is None:
            break
        alone.append((p, fiber))
    passed = sp.closure_fibers(P0, primes[:len(alone)])
    assert [p for p, _ in passed] == [p for p, _ in alone]
    for (p, points), (_, reference) in zip(passed, alone):
        assert _records(points) == _records(reference)
        assert _records(points) == _records(sp.closure_fiber_points(P0, p))
        if up_deg(up_norm(Zmod(p), [c % p for c in poly_to_dense(P0)])) == 0:
            assert points == []
    if len(alone) < len(primes):
        p = primes[len(alone)]
        with pytest.raises(Undecidable) as whole:
            sp.closure_fibers(P0, primes)
        with pytest.raises(Undecidable) as one:
            sp.closure_fiber_points(P0, p)
        assert str(whole.value) == str(one.value) == f"{P0} vanishes mod {p}: the whole fiber"


def test_closure_fibers_shapes_of_the_known_polynomials():
    *_, constant, zero_mod_3, zero_mod_7 = _closure_polys()
    assert [pts for _, pts in sp.closure_fibers(constant, (2, 3))] == [[], []]
    [(_, at2)] = sp.closure_fibers(zero_mod_3, (2,))
    assert [m for _, m in at2] == [1, 1]  # T^3 + 1 = (T + 1)(T^2 + T + 1)
    with pytest.raises(Undecidable, match="mod 3"):
        sp.closure_fibers(zero_mod_3, (2, 3))
    with pytest.raises(Undecidable, match="mod 7"):
        sp.closure_fibers(zero_mod_7, sp._primes_upto(30))


def test_irreducible_components_univariate():
    A = PresentedAlgebra(QQ, ("T",))
    T, = A.gens()
    cat = sp.SpecCatalogue.recognize(A)
    z = sp.ZariskiClosed(cat, [(T - 1) ** 2 * (T + 2)])
    comps = sp.irreducible_components(z)
    assert sorted(str(c.generators[0]) for c in comps) == ["T + 2", "T - 1"]


def test_irreducible_components_bivariate():
    A = PresentedAlgebra(GF(5), ("S", "T"))
    S, T = A.gens()
    cat = sp.SpecCatalogue.recognize(A)
    z = sp.ZariskiClosed(cat, [S * (S * T - 1)])
    comps = sp.irreducible_components(z)
    gens = sorted(str(c.generators[0]) for c in comps)
    assert gens == ["S", "S*T + 4"]
    # verified supplied factorization also accepted
    comps2 = sp.irreducible_components(z, supplied_factors=[S, S * T - 1])
    assert len(comps2) == 2
    with pytest.raises(FactorizationUnavailable):
        sp.irreducible_components(z, supplied_factors=[S, S * T + 1])


def test_the_bivariate_root_search_refuses_past_its_budget(monkeypatch):
    """Ten distinct linear factors in the leading and in the trailing
    T-coefficient make 2^20 pairs of candidate divisors: refused at once,
    before any candidate is tried."""
    A = PresentedAlgebra(GF(101), ("S", "T"))
    S, T = A.gens()
    lead = trail = A.ring.one()
    for i in range(1, 11):
        lead, trail = lead * (S - i), trail * (S - 50 - i)
    z = sp.ZariskiClosed(sp.SpecCatalogue.recognize(A), [lead * T ** 2 + (S + 7) * T + trail])
    tried = []
    monkeypatch.setattr(sp, "_solve_scalar", lambda *args: tried.append(args) or [])
    with pytest.raises(BudgetExceeded, match="1048576 pairs"):
        sp.irreducible_components(z)
    assert tried == []


def _reference_rational_function_root(f, main, other):
    """The root search with every power formed again for each pair of
    candidate divisors and every S-coefficient read as a polynomial."""
    ring, k = f.ring, f.ring.domain
    coeffs = f.coeffs_in(main)
    d = len(coeffs) - 1
    if coeffs[0].is_zero():
        return ring.zero(), ring.one()
    lead_fac, trail_fac = (factor_dense(poly_to_dense(c, var=other), k)[1]
                           for c in (coeffs[-1], coeffs[0]))
    for den in sp._monic_divisors(ring, lead_fac, other):
        for num in sp._monic_divisors(ring, trail_fac, other):
            columns = [(cj * num ** j * den ** (d - j)).coeffs_in(other)
                       for j, cj in enumerate(coeffs)]
            g = ()
            for s in range(max(map(len, columns))):
                row = up_norm(k, tuple(col[s].constant_value() if s < len(col) else k.zero()
                                       for col in columns))
                if row:
                    g = k.dense_gcd(g, row) if g else row
            if g and up_deg(g) > 0:
                for h, _ in factor_dense(g, k)[1]:
                    if up_deg(h) == 1 and not k.is_zero(h[0]):
                        return num.scale(k.neg(h[0])), den
    return None


def test_the_root_search_finds_the_roots_of_the_pair_by_pair_search():
    rng = random.Random(76)
    found = missed = 0
    for k in (GF(7), GF(101), QQ):
        A = PresentedAlgebra(k, ("S", "T"))
        S, T = A.gens()

        def in_s(deg):
            return sum((rng.randrange(-3, 4) * S ** i for i in range(deg + 1)), A.ring.zero())

        for _ in range(12):
            f = T ** 2 * in_s(1) + T * in_s(2) + in_s(2) + S ** 3
            for _ in range(rng.randrange(3)):
                f = f * (in_s(rng.randrange(2)) * T - in_s(2))
            if f.degree_in("T") == 0:
                continue
            root = sp._rational_function_root(f, "T", "S")
            assert root == _reference_rational_function_root(f, "T", "S"), (k, f)
            found, missed = found + (root is not None), missed + (root is None)
    assert found > 5 and missed > 5


def test_irreducible_single_factor():
    A = PresentedAlgebra(QQ, ("T",))
    T, = A.gens()
    cat = sp.SpecCatalogue.recognize(A)
    ok, gen = sp.is_irreducible_closed(sp.ZariskiClosed(cat, [T ** 2 + 1]))
    assert ok and gen.description[0] == "principal"
    ok2, _ = sp.is_irreducible_closed(sp.ZariskiClosed(cat, [(T - 1) * (T + 1)]))
    assert not ok2


def test_hyperbola_is_irreducible():
    A = PresentedAlgebra(GF(5), ("S", "T"))
    S, T = A.gens()
    cat = sp.SpecCatalogue.recognize(A)
    ok, _ = sp.is_irreducible_closed(sp.ZariskiClosed(cat, [S * T - 1]))
    assert ok


def test_v_zero_irreducible_in_domain():
    A = PresentedAlgebra(QQ, ("T",))
    cat = sp.SpecCatalogue.recognize(A)
    ok, gen = sp.is_irreducible_closed(sp.ZariskiClosed(cat, []))
    assert ok and gen.is_generic()


def test_krull_dimensions():
    assert sp.krull_dimension(PresentedAlgebra(QQ, ("X1", "X2", "X3"))) == 3
    for n in range(1, 5):
        names = tuple(f"X{i}" for i in range(n))
        assert sp.krull_dimension(PresentedAlgebra(QQ, names)) == n
    A = PresentedAlgebra(QQ, ("X", "Y"))
    X, Y = A.gens()
    assert sp.krull_dimension(PresentedAlgebra(QQ, ("X", "Y"), [X * Y - 1])) == 1
    one = PolyRing(QQ, ("X",)).one()
    assert sp.krull_dimension(PresentedAlgebra(QQ, ("X",), [one])) == float("-inf")
    assert sp.krull_dimension(PresentedAlgebra(GF(7), ())) == 0
    assert sp.krull_dimension(PresentedAlgebra(ZZ, ())) == 1
    assert sp.krull_dimension(PresentedAlgebra(ZZ, ("T",))) == 2


def test_quasicompactness_partition_of_unity():
    # ZZ: Bezout for coprime integers
    import math

    for pair in [(6, 35), (10, 21), (4, 9)]:
        g, u, v = math.gcd(pair[0], pair[1]), *_ext_gcd(pair[0], pair[1])
        assert u * pair[0] + v * pair[1] == g == 1
    # field-based polynomial ring: produced combination sums to 1
    R = PolyRing(GF(7), ("x", "y"))
    x, y = R.gens()
    elems = [x - 1, x]
    coeffs = unit_partition(elems)
    total = R.zero()
    for a, f in zip(coeffs, elems):
        total = total + a * f
    assert total == R.one()


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


def test_uncatalogued_rings_rejected():
    with pytest.raises(NotCatalogued):
        sp.SpecCatalogue.recognize(PresentedAlgebra(ZZ, ("X", "Y", "Z")))


def test_partition_of_unity_over_field_polynomial_rings():
    # over k[T]
    Ak = PresentedAlgebra(GF(7), ("T",))
    T, = Ak.gens()
    coeffs = unit_partition([T, T - 1])
    total = Ak.ring.zero()
    for c, f in zip(coeffs, (T, T - 1)):
        total = total + c * f
    assert total == Ak.ring.one()
    # over k[X,Y]
    Axy = PresentedAlgebra(GF(5), ("X", "Y"))
    X, Y = Axy.gens()
    coeffs = unit_partition([X, 1 - X * Y])
    total = Axy.ring.zero()
    for c, f in zip(coeffs, (X, 1 - X * Y)):
        total = total + c * f
    assert total == Axy.ring.one()


def _catalogue(name):
    if name == "product":
        return sp.SpecCatalogue.product(_catalogue("ZZ"), _catalogue("GF(2)[T]"))
    T = PolyRing(ZZ, ("T",)).gen("T")
    gf4 = GFq(4, (1, 1, 1))
    algebra = {
        "field": PresentedAlgebra(gf4, ()),
        "ZZ": PresentedAlgebra(ZZ, ()),
        "ZZ/n": PresentedAlgebra(Zmod(360), ()),
        "GF(2)[T]": PresentedAlgebra(GF(2), ("T",)),
        "GF(4)[T]": PresentedAlgebra(gf4, ("T",)),
        "ZZ[T]": PresentedAlgebra(ZZ, ("T",)),
        "quotient": PresentedAlgebra(ZZ, ("T",), [T ** 2 + 1]),
        "localization": localize(PresentedAlgebra(ZZ, ("T",)), 2 * T + 2),
    }[name]
    return sp.SpecCatalogue.recognize(algebra)


def _innermost(pt):
    while pt.description[0] == "embedded":
        pt = pt.description[2]
    return pt


@pytest.mark.parametrize("name", [
    "field", "ZZ", "ZZ/n", "GF(2)[T]", "GF(4)[T]", "ZZ[T]", "quotient",
    "localization", "product",
])
def test_points_lie_on_their_closure_with_canonical_values(name):
    cat = _catalogue(name)
    pts = sp.enumerate_points(cat, 3)
    assert pts
    for pt in pts:
        kappa = pt.residue
        ring = _innermost(pt).owner.algebra.ring
        probes = list(sp.closure(pt).generators)
        probes += [ring.from_int(6), sum(ring.gens(), ring.from_int(-5))]
        for g in probes:
            v = sp.evaluate(g, pt)
            assert kappa.add(v, kappa.zero()) == v, (pt, g)
        for g in sp.closure(pt).generators:
            assert kappa.is_zero(sp.evaluate(g, pt)), (pt, g)
        assert sp.closure(pt).contains(pt)


def test_partition_of_unity_of_the_empty_family_is_none():
    """The empty family generates the zero ideal, so no partition exists."""
    assert unit_partition([]) is None


def test_residue_field_over_an_extension_gets_a_fresh_generator():
    from scheme_explorer import dsl
    from scheme_explorer.cli import run_script

    records, had_error = run_script(dsl.parse("spec describe GF(9,t^2+1)[X] --bound 2;"))
    assert not had_error
    residues = {pt["residue_field"] for pt in records[0]["data"]["points"]}
    assert "GF(9,t^2 + 1)[t2]/(t2^2 + t*t2 + t)" in residues
    assert not any("[t]" in r for r in residues)


# ---------------------------------------------------------------------------
# closed points of k[T]: the product sieve against a test per candidate
# ---------------------------------------------------------------------------

def _reference_monic_irreducibles(field, max_degree):
    """Every monic candidate in order, kept when the Rabin test accepts it."""
    from scheme_explorer.arith import _is_irreducible_dense

    out = []
    for d in range(1, max_degree + 1):
        for tail in itertools.product(field.elements(), repeat=d):
            poly = tuple(tail) + (field.one(),)
            if _is_irreducible_dense(poly, field):
                out.append(poly)
    return out


def _gauss_count(q, d):
    """(1/d) sum over k | d of mu(d/k) q^k, the monic irreducibles of degree d."""
    def mobius(n):
        sign, p = 1, 2
        while n > 1:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                sign = -sign
            p += 1
        return sign

    return sum(mobius(d // k) * q ** k for k in range(1, d + 1) if d % k == 0) // d


_SIEVE_FIELDS = [
    (GF(2), 8), (GF(3), 5), (GF(7), 3), (GFq(4, (1, 1, 1)), 3), (GFq(9, (1, 0, 1)), 2),
]


@pytest.mark.parametrize("field, max_degree", _SIEVE_FIELDS, ids=repr)
def test_sieve_lists_the_reference_irreducibles_in_order(field, max_degree):
    assert sp._monic_irreducibles(field, max_degree) == (
        _reference_monic_irreducibles(field, max_degree)
    )


@pytest.mark.parametrize("field, max_degree", [
    (GF(2), 11), (GF(3), 7), (GF(5), 5), (GF(7), 4), (GFq(4, (1, 1, 1)), 5),
    (GFq(25, (2, 0, 1)), 2),
], ids=repr)
def test_sieve_counts_match_gauss(field, max_degree):
    polys = sp._monic_irreducibles(field, max_degree)
    degrees = [len(f) - 1 for f in polys]
    assert degrees == sorted(degrees)
    for d in range(1, max_degree + 1):
        assert degrees.count(d) == _gauss_count(field.order(), d), d


def _reference_product_sieve(field, max_degree):
    """The sieve that preceded the least-factor one: every product of an
    irreducible of degree k <= d/2 and a monic of degree d - k is formed,
    so a reducible candidate is formed once per distinct small factor."""
    elems, one = field.elements(), (field.one(),)
    monic, irreducible = {}, {}
    for d in range(1, max_degree + 1):
        monic[d] = [tail + one for tail in itertools.product(elems, repeat=d)]
        reducible = {
            field.dense_mul(f, g)
            for k in range(1, d // 2 + 1) for f in irreducible[k] for g in monic[d - k]
        }
        irreducible[d] = [f for f in monic[d] if f not in reducible]
    return [f for d in range(1, max_degree + 1) for f in irreducible[d]]


@pytest.mark.parametrize("field, max_degree", [
    (GF(2), 9), (GF(3), 6), (GFq(4, (1, 1, 1)), 4), (GF(7), 4), (GFq(9, (1, 0, 1)), 3),
], ids=repr)
def test_sieve_forms_each_reducible_candidate_once(field, max_degree, monkeypatch):
    expected = _reference_product_sieve(field, max_degree)
    products = []
    real = type(field).dense_mul

    def counted(self, a, b):
        products.append(1)
        return real(self, a, b)

    monkeypatch.setattr(type(field), "dense_mul", counted)
    assert sp._monic_irreducibles(field, max_degree) == expected
    candidates = sum(field.order() ** d for d in range(1, max_degree + 1))
    assert len(products) == candidates - len(expected)


def test_the_prime_sieve_matches_trial_primality():
    from scheme_explorer.arith import is_prime

    primes = sp._primes_upto(10 ** 4)
    assert len(primes) == 1229
    assert primes == [p for p in range(10 ** 4 + 1) if is_prime(p)]
    assert sp._primes_upto(1) == [] and sp._primes_upto(2) == [2]


# ---------------------------------------------------------------------------
# height-one primes of ZZ[T]: the product sieve against a test per candidate
# ---------------------------------------------------------------------------

def _reference_enumerate_zzt(cat, bound):
    """Every content-one candidate of degree <= 2 with lc > 0, in order, kept
    when factorization over QQ finds it irreducible."""
    from fractions import Fraction
    from math import gcd

    from scheme_explorer.arith import _is_irreducible_dense, up_deg, up_norm

    pts = [sp.generic_point(cat)]
    for p in sp._primes_upto(bound):
        pts.append(sp.prime_point(cat, p))
        for g in sp._monic_irreducibles(Zmod(p), 2):
            pts.append(sp.mixed_point(cat, p, g, Zmod(p)))
    for deg in (1, 2):
        for coeffs in itertools.product(range(-bound, bound + 1), repeat=deg + 1):
            if coeffs[-1] <= 0:
                continue
            g = 0
            for c in coeffs:
                g = gcd(g, abs(c))
            if g != 1:
                continue
            dense = tuple(Fraction(c) for c in coeffs)
            if up_deg(up_norm(QQ, dense)) != deg:
                continue
            if not _is_irreducible_dense(dense, QQ):
                continue
            pts.append(sp.height_one_point(cat, coeffs))
    return pts


@pytest.fixture
def spec_zzt():
    return sp.SpecCatalogue.recognize(PresentedAlgebra(ZZ, ("T",)))


def test_zzt_sieve_lists_the_reference_points_in_order(spec_zzt, monkeypatch):
    import functools

    from scheme_explorer import arith

    # each candidate is tested once, though it lies in the box of many bounds
    monkeypatch.setattr(arith, "_is_irreducible_dense",
                        functools.cache(arith._is_irreducible_dense))
    for bound in range(11):
        new = [pt.as_record() for pt in sp._enumerate_zzt(spec_zzt, bound)]
        assert new == [pt.as_record() for pt in _reference_enumerate_zzt(spec_zzt, bound)]


def test_zzt_height_one_quadratics_are_the_non_square_discriminants(spec_zzt):
    """Gauss: a content-one quadratic is irreducible over QQ iff its
    discriminant is not a square."""
    import math

    bound = 10
    box = range(-bound, bound + 1)
    expected = [c for c in itertools.product(box, repeat=2) if c[1] > 0 and math.gcd(*c) == 1]
    for a0, a1, a2 in itertools.product(box, repeat=3):
        disc = a1 * a1 - 4 * a2 * a0
        square = disc >= 0 and math.isqrt(disc) ** 2 == disc
        if a2 > 0 and math.gcd(a0, a1, a2) == 1 and not square:
            expected.append((a0, a1, a2))
    height_one = [
        pt.description[1] for pt in sp._enumerate_zzt(spec_zzt, bound)
        if pt.label.startswith("y_(eta,")
    ]
    assert [
        tuple(int(c) for c in sp.poly_to_dense(P, ZZ)) for P in height_one
    ] == expected


def test_zzt_describe_factors_nothing(monkeypatch):
    """No height-one candidate goes through factorization any more."""
    import sys

    from scheme_explorer import arith, dsl
    from scheme_explorer.cli import run_script

    calls = []
    original = arith.factor_dense

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("scheme_explorer") and getattr(module, "factor_dense", None) is original:
            monkeypatch.setattr(module, "factor_dense", counted)
    records, had_error = run_script(dsl.parse("spec describe ZZ[T] --bound 10;"))
    assert not had_error and len(records[0]["data"]["points"]) > 3000
    assert calls == []


@pytest.mark.parametrize("ring, bound, labels", [
    ("GF(2)[x]/(x^4+x^2+x, x^5+x^4+1)", 2, ["x_(x^3 + x + 1)"]),
    ("QQ[x]/(x^2-1, x^3-1)", 10, ["x_(x - 1)"]),
    ("QQ[x]/(x^2+1, 0, x^4-1)", 10, ["x_(x^2 + 1)"]),
    ("QQ[x]/(x^2+1, x+1)", 10, []),
])
def test_a_quotient_of_kt_by_several_relations_lists_the_points_of_their_gcd(
        ring, bound, labels):
    """V(f1, ..., fr) = V(gcd) in k[T], whatever the field and the bound:
    x^3 + x + 1 lies above the bound 2, and QQ is infinite."""
    from scheme_explorer import dsl
    from scheme_explorer.cli import run_script

    records, had_error = run_script(dsl.parse(f'spec describe "{ring}" --bound {bound};'))
    assert not had_error, records
    assert [pt["description"] for pt in records[0]["data"]["points"]] == labels


def test_several_relations_of_kt_can_cut_out_one_irreducible_closed_set():
    A = PresentedAlgebra(QQ, ("T",))
    T, = A.gens()
    cat = sp.SpecCatalogue.recognize(A)
    ok, pt = sp.is_irreducible_closed(sp.ZariskiClosed(cat, [T ** 2 - 1, T ** 3 - 1]))
    assert ok and pt.label == "x_(T - 1)"
    ok, pt = sp.is_irreducible_closed(sp.ZariskiClosed(cat, [T ** 2 - 1, T ** 2 + 1]))
    assert (ok, pt) == (False, None)


def _reference_closed_points(inner, relations, bound):
    """V(I) in Spec k[T] as listed before the gcd: the enumeration under the
    bound, filtered by the vanishing of every relation."""
    return [pt for pt in sp.enumerate_points(inner, bound)
            if all(sp._vanishes_at(f, pt) for f in relations)]


@pytest.mark.parametrize("p", [2, 3])
def test_the_gcd_listing_matches_the_filtered_enumeration(p):
    """Relations c*a and c*b, and sometimes a third or a zero one, drawn as
    products of polynomials of degree at most the bound, so that every point
    of V(I) lies under it; the listing does not read the bound at all."""
    rng = random.Random(2300 + p)
    field, bound = GF(p), 3
    ring = PolyRing(field, ("T",))
    T = ring.gen("T")
    inner = sp.SpecCatalogue.recognize(PresentedAlgebra(field, ("T",)))

    def factor():
        d = rng.randint(1, bound)
        return sum((rng.randrange(p) * T ** k for k in range(d)), T ** d)

    def product(count):
        out = ring.from_int(rng.randrange(1, p))
        for _ in range(count):
            out = out * factor()
        return out

    for _ in range(60):
        common = product(rng.randint(0, 2))
        relations = [common * product(rng.randint(0, 2)) for _ in range(2)]
        if rng.random() < 0.3:
            relations.append(rng.choice([ring.zero(), common * product(1)]))
        expected = [pt.label for pt in _reference_closed_points(inner, relations, bound)]
        closed = sp.ZariskiClosed(inner, relations)
        assert [pt.label for pt in closed.points(bound)] == expected, relations
        assert [pt.label for pt in closed.points(0)] == expected, relations
        quotient = sp.SpecCatalogue.recognize(PresentedAlgebra(field, ("T",), relations))
        assert [pt.label for pt in sp.enumerate_points(quotient, bound)] == expected


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF(7)"])
def test_partition_of_unity_past_cofactor_degree_8(field):
    """1 = -(x^9*y - 1) + x^9*y: a cofactor of degree 9, past the degree 8
    where a capped search would stop and answer None."""
    A = PresentedAlgebra(field, ("x", "y"))
    x, y = A.gens()
    elems = [x ** 9 * y - 1, y]
    coeffs = unit_partition(elems)
    assert coeffs is not None
    assert sum((a * f for a, f in zip(coeffs, elems)), A.ring.zero()) == A.ring.one()
