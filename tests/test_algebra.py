"""Presented algebras: Groebner engine, quotients, tensors, localization."""

import heapq
import itertools
import math
import random
import time
from fractions import Fraction
from operator import le, sub

import pytest

from scheme_explorer.arith import GF, QQ, ZZ, FracField, RationalField, Zmod
from scheme_explorer import algebra, sheaf
from scheme_explorer.algebra import (
    GroebnerBasis,
    IdealHandle,
    PresentedAlgebra,
    elimination_ideal,
    groebner_basis,
    localize,
    morphism_kernel,
    normal_form_list,
    radical_membership,
    specialize,
    tensor_product,
    unit_partition,
)
from scheme_explorer.errors import (
    ExponentOverflow,
    InvalidArgument,
    NonFieldBase,
)
from scheme_explorer.multipoly import GREVLEX, LEX, BlockOrder, Poly, PolyRing

from helpers_kernel import (
    gm_update,
    ref_ascending,
    ref_sub_shifted,
    ref_terms,
    s_polynomial,
    scan_reduced,
    tuple_key,
    verify_basis,
    verify_isomorphism,
)


def test_groebner_single_linear():
    R = PolyRing(QQ, ("X", "Y"), LEX)
    X, Y = R.gens()
    gb = groebner_basis([X - Y], R)
    assert gb == [X - Y]


def test_groebner_unit_ideal_by_bezout():
    R = PolyRing(QQ, ("X",))
    X, = R.gens()
    gb = groebner_basis([X ** 2 + 1, X + 2], R)
    assert [str(g) for g in gb] == ["1"]
    # the Bezout combination equals 5: X^2+1 - (X-2)(X+2) = 5
    assert (X ** 2 + 1) - (X - 2) * (X + 2) == R.from_int(5)


def test_groebner_conic_is_its_own_basis():
    R = PolyRing(QQ, ("T0", "T1", "T2"))
    T0, T1, T2 = R.gens()
    gb = groebner_basis([T0 * T2 - T1 ** 2], R)
    assert len(gb) == 1 and gb[0].monic() == (T1 ** 2 - T0 * T2).monic()


def test_normal_form_examples():
    R = PolyRing(QQ, ("X",))
    X, = R.gens()
    gb = groebner_basis([X ** 2 + 1], R)
    assert normal_form_list(X ** 2, gb) == R.from_int(-1)
    R2 = PolyRing(QQ, ("X", "Y"), LEX)
    X2, Y2 = R2.gens()
    gb2 = groebner_basis([X2 - Y2], R2)
    assert normal_form_list(X2, gb2) == Y2


def test_normal_form_relation_factorization_gf5():
    A = PresentedAlgebra(GF(5), ("X",))
    X, = A.gens()
    quotient = PresentedAlgebra(GF(5), ("X",), [X ** 2 - 2 * X + 2])
    assert quotient.nf((X + 1) * (X + 2)).is_zero()


def test_nf_respects_ring_operations():
    rng = random.Random(31)
    A = PresentedAlgebra(GF(7), ("x", "y"),
                         [PolyRing(GF(7), ("x", "y")).from_dict({(2, 0): 1, (0, 1): 6})])
    R = A.ring

    def rand_poly():
        return R.from_dict({
            (rng.randrange(3), rng.randrange(3)): rng.randrange(1, 7)
            for _ in range(3)
        })

    for _ in range(25):
        f, g = rand_poly(), rand_poly()
        assert A.nf(f + g) == A.nf(A.nf(f) + A.nf(g))
        assert A.nf(f * g) == A.nf(A.nf(f) * A.nf(g))


def test_membership_matches_linear_algebra_oracle():
    """Ideal membership versus brute-force linear algebra on bounded-degree
    coefficients over GF(5)."""
    rng = random.Random(17)
    field = GF(5)
    R = PolyRing(field, ("x", "y"))
    x, y = R.gens()
    gens = [x ** 2 + y, x * y - 1]
    handle = IdealHandle(PresentedAlgebra(field, ("x", "y")), gens)

    def monomials(bound):
        return [
            (i, j) for i in range(bound + 1) for j in range(bound + 1) if i + j <= bound
        ]

    def in_ideal_bruteforce(f, deg_cap=4):
        # solve f = a*g1 + b*g2 with deg a, deg b <= deg_cap - 2
        cols = []
        for g in gens:
            for m in monomials(deg_cap - 2):
                cols.append(R.monomial(m) * g)
        all_monos = sorted({e for c in cols for e, _ in c.terms}
                           | {e for e, _ in f.terms})
        idx = {m: i for i, m in enumerate(all_monos)}
        matrix = [[field.zero()] * len(cols) for _ in all_monos]
        for j, c in enumerate(cols):
            for e, coeff in c.terms:
                matrix[idx[e]][j] = coeff
        rhs = [field.zero()] * len(all_monos)
        for e, coeff in f.terms:
            rhs[idx[e]] = coeff
        from helpers_kernel import _solve_field

        return _solve_field(matrix, rhs, field) is not None

    for _ in range(12):
        f = R.from_dict({
            (rng.randrange(3), rng.randrange(3)): rng.randrange(5) for _ in range(3)
        })
        if f.is_zero() or f.total_degree() > 2:
            continue
        assert handle.contains(f) == in_ideal_bruteforce(f)
    # known members
    assert handle.contains((x ** 2 + y) * x + (x * y - 1) * 2)


def test_is_zero_ring_cases():
    R2 = PolyRing(GF(2), ("X",))
    assert PresentedAlgebra(GF(2), ("X",), [R2.from_int(3)]).is_zero_ring()
    assert not PresentedAlgebra(GF(3), ("X",)).is_zero_ring()
    Rq = PolyRing(QQ, ("X",))
    X, = Rq.gens()
    assert PresentedAlgebra(QQ, ("X",), [X ** 2 + 1, X + 2]).is_zero_ring()


def test_zero_ring_over_zz_paths():
    Rz = PolyRing(ZZ, ("X",))
    X, = Rz.gens()
    # (2, X): nonzero ring ZZ/2? no: contains X and 2: quotient = F2, not zero
    A = PresentedAlgebra(ZZ, ("X",), [Rz.from_int(2), X])
    assert not A.is_zero_ring()
    # (2, 3) = (1): zero ring
    B = PresentedAlgebra(ZZ, (), [PolyRing(ZZ, ()).from_int(2),
                                  PolyRing(ZZ, ()).from_int(3)])
    assert B.is_zero_ring()


def test_tensor_product_variable_renaming_and_insertions():
    R = PolyRing(QQ, ("I1",))
    A = PresentedAlgebra(QQ, ("I1",), [R.gen("I1") ** 2 + 1])
    result = tensor_product(A, A)
    assert result.renamed == {"I1": "I12"}
    T = result.algebra
    assert len(T.relations) == 2
    assert [str(v) for v in result.left_images] == ["I1"]
    assert [str(v) for v in result.right_images] == ["I12"]


def test_tensor_of_polynomial_rings_is_polynomial_ring():
    A = PresentedAlgebra(QQ, ("S",))
    B = PresentedAlgebra(QQ, ("T",))
    result = tensor_product(A, B)
    assert result.algebra.names == ("S", "T")
    assert result.algebra.relations == ()


def test_tensor_commutative_up_to_certified_isomorphism():
    RA = PolyRing(GF(5), ("a",))
    RB = PolyRing(GF(5), ("b",))
    A = PresentedAlgebra(GF(5), ("a",), [RA.gen("a") ** 2 - 2])
    B = PresentedAlgebra(GF(5), ("b",), [RB.gen("b") ** 3 - RB.gen("b")])
    AB = tensor_product(A, B).algebra
    BA = tensor_product(B, A).algebra
    fwd = [BA.ring.gen(n) for n in AB.names]
    bwd = [AB.ring.gen(n) for n in BA.names]
    assert verify_isomorphism(AB, BA, fwd, bwd)


def test_tensor_associative_up_to_certified_isomorphism():
    def make(name, power):
        R = PolyRing(GF(7), (name,))
        return PresentedAlgebra(GF(7), (name,), [R.gen(name) ** power - 1])

    A, B, C = make("u", 2), make("v", 3), make("w", 4)
    left = tensor_product(tensor_product(A, B).algebra, C).algebra
    right = tensor_product(A, tensor_product(B, C).algebra).algebra
    fwd = [right.ring.gen(n) for n in left.names]
    bwd = [left.ring.gen(n) for n in right.names]
    assert verify_isomorphism(left, right, fwd, bwd)


def test_frobenius_tensor_contains_nilpotent():
    """k = F2(t), L = k[X]/(X^2 - t): L tensor L has (x1 + x2)^2 = 0."""
    k = FracField(GF(2), "t")
    R = PolyRing(k, ("X1",))
    t = k.gen()
    rel1 = R.from_dict({(2,): k.one(), (0,): k.neg(t)})
    L = PresentedAlgebra(k, ("X1",), [rel1])
    T = tensor_product(L, L).algebra
    x1 = T.ring.gen("X1")
    x2 = T.ring.gen(T.names[1])
    nilpotent = x1 + x2
    assert not T.nf(nilpotent).is_zero()
    assert T.nf(nilpotent * nilpotent).is_zero()


def test_specialize_zx_modp_table():
    Rz = PolyRing(ZZ, ("X",))
    X, = Rz.gens()
    A = PresentedAlgebra(ZZ, ("X",), [6 * X ** 2 + 18 * X - 3])
    assert specialize(A, QQ).classify_univariate() == {"kind": "field", "degree": 2}
    assert specialize(A, GF(2)).classify_univariate() == {"kind": "zero-ring"}
    assert specialize(A, GF(3)).classify_univariate() == {"kind": "polynomial-ring"}
    assert specialize(A, GF(5)).classify_univariate() == {
        "kind": "product-of-fields", "count": 2,
    }
    assert specialize(A, GF(11)).classify_univariate() == {
        "kind": "local-non-reduced", "nilpotent_order": 2, "radical_degree": 1,
    }


def _brute_verdict(p, modulus):
    """The verdict of GF(p)[X]/(f), f the monic ``modulus`` (low degree
    first), read off the finite ring ``sheaf.QuotientPolyRing``: its primes
    from ``finite_spectrum_points``, its nilpotents by powers, and "field"
    when every nonzero element is a unit."""
    ring = sheaf.QuotientPolyRing(GF(p), modulus)
    elems, zero = ring.elements(), ring.zero()
    if len(elems) == 1:
        return {"kind": "zero-ring"}
    primes = sheaf.finite_spectrum_points(ring)
    nilpotents = [a for a in elems if ring.pow(a, len(elems)) == zero]
    if all(ring.is_unit(a) for a in elems if a != zero):
        return {"kind": "field", "degree": ring.deg}
    if len(nilpotents) == 1:
        return {"kind": "product-of-fields", "count": len(primes)}
    if len(primes) == 1:
        order = max(next(k for k in range(1, len(elems) + 1) if ring.pow(a, k) == zero)
                    for a in nilpotents)
        residue = len(elems) // len(nilpotents)  # A/N, N the one prime
        return {"kind": "local-non-reduced", "nilpotent_order": order,
                "radical_degree": round(math.log(residue, p))}
    return {"kind": "non-reduced", "factors": len(primes)}


def test_univariate_verdicts_match_the_finite_ring():
    """Every monic f of degree 1 to 3 over GF(2), GF(3) and GF(5), of degree
    4 over GF(2) and GF(3) (so a nilpotent radical of degree 2 and three
    factors of a non-reduced ring occur), and f = 1: ``classify_univariate``
    of GF(p)[X]/(f) against the ring itself.  All six verdicts occur,
    X^3 - X^2 over GF(5) giving "non-reduced"."""
    seen = set()
    for p, top in ((2, 4), (3, 4), (5, 3)):
        R = PolyRing(GF(p), ("X",))
        assert PresentedAlgebra(GF(p), ("X",)).classify_univariate() == {
            "kind": "polynomial-ring"}
        seen.add("polynomial-ring")
        for deg in range(top + 1):
            for low in itertools.product(range(p), repeat=deg):
                modulus = low + (1,)
                f = R.from_dict({(i,): c for i, c in enumerate(modulus)})
                verdict = PresentedAlgebra(GF(p), ("X",), [f]).classify_univariate()
                assert verdict == _brute_verdict(p, modulus), (p, modulus)
                seen.add(verdict["kind"])
    assert seen == {"polynomial-ring", "zero-ring", "field", "product-of-fields",
                    "local-non-reduced", "non-reduced"}
    X = PolyRing(GF(5), ("X",)).gen("X")
    assert PresentedAlgebra(GF(5), ("X",), [X ** 3 - X ** 2]).classify_univariate() == {
        "kind": "non-reduced", "factors": 2}


def test_specialize_commutes_with_tensor():
    rng = random.Random(23)
    for _ in range(10):
        RA = PolyRing(ZZ, ("a",))
        RB = PolyRing(ZZ, ("b",))
        fa = RA.from_dict({(2,): rng.randrange(1, 9), (0,): rng.randrange(-9, 9)})
        fb = RB.from_dict({(3,): rng.randrange(1, 9), (1,): rng.randrange(-9, 9)})
        A = PresentedAlgebra(ZZ, ("a",), [fa])
        B = PresentedAlgebra(ZZ, ("b",), [fb])
        p = rng.choice([2, 3, 5, 7])
        left = specialize(tensor_product(A, B).algebra, GF(p))
        right = tensor_product(specialize(A, GF(p)), specialize(B, GF(p))).algebra
        assert left.names == right.names
        assert sorted(map(str, left.relations)) == sorted(map(str, right.relations))


def test_localize_adds_inverse_relation():
    A = PresentedAlgebra(ZZ, ())
    L = localize(A, A.ring.from_int(6))
    assert len(L.relations) == 1
    assert str(L.relations[0]) == "6*T_inv - 1"
    assert not L.is_zero_ring()


def test_presented_algebra_keeps_the_ring_of_its_relations():
    A = PresentedAlgebra(QQ, ("x", "y"), order=LEX)
    B = PresentedAlgebra(Zmod(12), ())
    for alg in (localize(A, A.ring.gen("x")), localize(B, B.ring.from_int(5)),
                specialize(localize(B, B.ring.from_int(5)), GF(3))):
        assert alg.relations and all(alg.ring is rel.ring for rel in alg.relations)


def test_localize_zero_ring_iff_nilpotent_over_zmod():
    for n in range(2, 201):
        ring = PresentedAlgebra(Zmod(n), ())
        bits = n.bit_length()
        for f in range(n):
            loc = localize(ring, ring.ring.from_int(f))
            nilpotent = pow(f, bits, n) == 0
            assert loc.is_zero_ring() == nilpotent, (n, f)


def test_localize_at_one_is_isomorphic():
    A = PresentedAlgebra(QQ, ("X",))
    L = localize(A, A.ring.one())
    # inverse variable pins to 1: certified by mutual maps
    fwd = [L.ring.gen("X")]
    bwd = [A.ring.gen("X"), A.ring.one()]
    assert verify_isomorphism(A, L, fwd, bwd)


def test_radical_membership_examples():
    A = PresentedAlgebra(QQ, ("X",))
    X, = A.gens()
    assert radical_membership(X, IdealHandle(A, [X ** 2]))
    assert not radical_membership(X + 1, IdealHandle(A, [X ** 2]))
    # integer special case: 2 in sqrt((4))
    Z = PresentedAlgebra(ZZ, ())
    four = IdealHandle(Z, [Z.ring.from_int(4)])
    assert radical_membership(Z.ring.from_int(2), four)
    assert not radical_membership(Z.ring.from_int(3), four)


def test_radical_membership_rabinowitsch_on_conic():
    A = PresentedAlgebra(QQ, ("T0", "T1", "T2"))
    T0, T1, T2 = A.gens()
    I = IdealHandle(A, [T0 * T2 - T1 ** 2, T0 - 1])
    assert radical_membership(T2 - T1 ** 2, I)


def test_elimination_examples():
    A = PresentedAlgebra(QQ, ("X", "Y"))
    X, Y = A.gens()
    kept = elimination_ideal(IdealHandle(A, [X - Y]), ["Y"])
    assert kept.generators == ()
    # kernel of the squaring map: (T0 T2 - T1^2)
    tgt = PresentedAlgebra(QQ, ("S0", "S1"))
    S0, S1 = tgt.gens()
    ker = morphism_kernel(("T0", "T1", "T2"), [S0 ** 2, S0 * S1, S1 ** 2], tgt)
    assert len(ker.generators) == 1
    g = ker.generators[0]
    T_ring = g.ring
    T0, T1, T2 = (T_ring.gen(n) for n in ("T0", "T1", "T2"))
    assert g.monic() == (T0 * T2 - T1 ** 2).monic()


def test_segre_kernel_p1_p1():
    tgt = PresentedAlgebra(QQ, ("S0", "S1", "U0", "U1"))
    S0, S1, U0, U1 = tgt.gens()
    ker = morphism_kernel(
        ("Z00", "Z01", "Z10", "Z11"),
        [S0 * U0, S0 * U1, S1 * U0, S1 * U1],
        tgt,
    )
    assert len(ker.generators) == 1
    g = ker.generators[0]
    R = g.ring
    Z00, Z01, Z10, Z11 = (R.gen(n) for n in ("Z00", "Z01", "Z10", "Z11"))
    assert g.monic() == (Z00 * Z11 - Z01 * Z10).monic()


def _katsura(ring, n):
    x = ring.gens()

    def u(i):
        return x[abs(i)] if abs(i) <= n else ring.zero()

    eqs = [
        sum((u(l) * u(m - l) for l in range(-n, n + 1)), ring.zero()) - x[m]
        for m in range(n)
    ]
    return eqs + [x[0] + 2 * sum(x[1:], ring.zero()) - 1]


def _cyclic(ring, n):
    x = ring.gens()
    eqs = []
    for d in range(1, n):
        eqs.append(sum((math.prod(x[(i + j) % n] for j in range(d)) for i in range(n)),
                       ring.zero()))
    return eqs + [math.prod(x) - 1]


def test_verify_reduces_each_element_once(monkeypatch):
    """One auto-reduction per element plus one reduction per S-pair that the
    Gebauer–Möller update keeps: 26 of the 78 pairs on katsura-4."""
    ring = PolyRing(GF(32003), tuple(f"x{i}" for i in range(5)))
    gb = GroebnerBasis(ring, groebner_basis(_katsura(ring, 4), ring))
    calls = []
    real = algebra.normal_form_list

    def counted(f, basis):
        calls.append(f)
        return real(f, basis)

    monkeypatch.setattr(algebra, "normal_form_list", counted)
    assert verify_basis(gb)
    k = len(gb)
    pairs, live = [], []
    lms = [g.packed()[0][0] for g in gb]
    for new in range(k):
        gm_update(pairs, live, lms, new, ring.packer)
    assert k == 13 and len(pairs) == 26 and len(calls) == k + len(pairs) == 39


def test_verify_rejects_a_basis_that_is_not_auto_reduced():
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.gens()
    assert verify_basis(GroebnerBasis(R, [x, y]))
    # same leading terms and S-pairs, but the tail y of x + y reduces
    assert not verify_basis(GroebnerBasis(R, [x + y, y]))


def test_verify_rejects_a_basis_holding_the_zero_polynomial():
    R = PolyRing(QQ, ("x", "y"))
    x, _ = R.gens()
    assert not verify_basis(GroebnerBasis(R, [R.zero(), x]))
    assert not verify_basis(GroebnerBasis(R, [x, R.zero()]))


def test_groebner_requires_field():
    R = PolyRing(ZZ, ("X",))
    X, = R.gens()
    with pytest.raises(NonFieldBase):
        groebner_basis([2 * X], R)


def test_unit_partition_produces_certificate():
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.gens()
    elems = [x, 1 - x * y, y ** 2]
    coeffs = unit_partition(elems)
    assert coeffs is not None
    total = R.zero()
    for a, f in zip(coeffs, elems):
        total = total + a * f
    assert total == R.one()


def test_groebner_basis_self_verification():
    R = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = R.gens()
    handle = IdealHandle(
        PresentedAlgebra(QQ, ("x", "y", "z")),
        [x * y - z ** 2, y ** 2 - x * z, x ** 2 - y * z],
    )
    gb = handle.groebner()
    assert verify_basis(gb)


def test_normal_form_is_idempotent():
    A = PresentedAlgebra(GF(7), ("x", "y"))
    x, y = A.gens()
    handle = IdealHandle(A, [x ** 2 + y, x * y - 1])
    for f in (x ** 3, x * y + y ** 2 + 3, (x + y) ** 2):
        nf = handle.normal_form(f)
        assert handle.normal_form(nf) == nf


def test_specialize_without_canonical_map_raises():
    from scheme_explorer.errors import NoCanonicalMap

    A = PresentedAlgebra(QQ, ("X",))
    X, = A.gens()
    B = PresentedAlgebra(QQ, ("X",), [X ** 2 - X - 1])
    with pytest.raises(NoCanonicalMap):
        specialize(B, GF(7))


def test_frobenius_tensor_nilpotency_order_p3():
    """Char 3: in L tensor L for L = F3(t)[X]/(X^3 - t), the difference of
    the two roots is nilpotent of order exactly 3."""
    k = FracField(GF(3), "t")
    R = PolyRing(k, ("X1",))
    rel = R.from_dict({(3,): k.one(), (0,): k.neg(k.gen())})
    L = PresentedAlgebra(k, ("X1",), [rel])
    T = tensor_product(L, L).algebra
    x1 = T.ring.gen(T.names[0])
    x2 = T.ring.gen(T.names[1])
    nu = x1 - x2
    assert not T.nf(nu).is_zero()
    assert not T.nf(nu * nu).is_zero()
    assert T.nf(nu * nu * nu).is_zero()


def test_localizing_a_block_ordered_algebra_needs_a_covering_order():
    """The block order (1, 1) has no room for T_inv: an order key that
    ignores T_inv would merge x*T_inv and x into 2*x."""
    from scheme_explorer.multipoly import BlockOrder

    A = PresentedAlgebra(QQ, ("x", "y"), order=BlockOrder((1, 1)))
    x, y = A.gens()
    with pytest.raises(InvalidArgument):
        localize(A, x)


# -- packed normal forms and bases against the tuple-key ones they replaced ----

def ref_normal_form(f, basis):
    """The terms of the tuple-key normal form of f against ``basis``."""
    ring = f.ring
    dom, key = ring.domain, tuple_key(ring.order)
    reducers = [(g.terms[0][0], dom.inv(g.terms[0][1]), g.terms[1:])
                for g in basis if g.terms]
    rem = ref_ascending(f.terms, key)
    out = []
    while rem:
        _, lead, lc = rem.pop()
        for ge, ginv, tail in reducers:
            if all(map(le, ge, lead)):
                ref_sub_shifted(rem, tail, tuple(map(sub, lead, ge)),
                                dom.mul(lc, ginv), key, dom)
                break
        else:
            out.append((lead, lc))
    return tuple(out)


def ref_s_polynomial(gi, gj):
    ring = gi.ring
    dom, key = ring.domain, tuple_key(ring.order)
    lcm = tuple(map(max, gi.terms[0][0], gj.terms[0][0]))
    rem = []
    for g, c in ((gi, dom.neg(dom.one())), (gj, dom.one())):
        ref_sub_shifted(rem, g.terms[1:], tuple(map(sub, lcm, g.terms[0][0])), c, key, dom)
    return ring.from_dict(dict(ref_terms(rem)))


def ref_reduced_basis(gens, ring):
    """The terms of the reduced basis by Buchberger's algorithm on every
    pair, with no criterion, in the tuple-key kernel."""
    dom, key = ring.domain, tuple_key(ring.order)

    def monic(terms):
        inv = dom.inv(terms[0][1])
        return ring.from_dict({e: dom.mul(c, inv) for e, c in terms})

    basis = []
    for g in gens:
        h = ref_normal_form(g, basis)
        if h:
            basis.append(monic(h))
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        h = ref_normal_form(ref_s_polynomial(basis[i], basis[j]), basis)
        if h:
            basis.append(monic(h))
            pairs += [(k, len(basis) - 1) for k in range(len(basis) - 1)]
    basis.sort(key=lambda g: key(g.terms[0][0]))
    minimal = []
    for g in basis:
        if not any(all(map(le, h.terms[0][0], g.terms[0][0])) for h in minimal):
            minimal.append(g)
    return [ref_normal_form(g, minimal[:k] + minimal[k + 1:]) for k, g in enumerate(minimal)]


ORDERS = pytest.mark.parametrize("order", [GREVLEX, LEX, BlockOrder((1, 2))],
                                 ids=["grevlex", "lex", "block12"])
FIELDS = pytest.mark.parametrize("domain", [QQ, GF(32003)], ids=["QQ", "GF32003"])


def polys(ring, max_exp, max_size):
    st = pytest.importorskip("hypothesis.strategies")
    dom = ring.domain
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    if dom == QQ:
        coeff = st.fractions(min_value=-7, max_value=7, max_denominator=5)
    else:
        coeff = st.integers(-7, 7).map(dom.from_int)
    return st.dictionaries(exps, coeff, max_size=max_size).map(ring.from_dict)


@ORDERS
@FIELDS
def test_packed_normal_forms_match_the_tuple_key_ones(domain, order):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ring = PolyRing(domain, ("x", "y", "z"), order)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(polys(ring, 4, 8), st.lists(polys(ring, 2, 3), max_size=3))
    def check(f, basis):
        assert normal_form_list(f, basis).terms == ref_normal_form(f, basis)

    check()


@ORDERS
def test_monic_reduction_over_zmod6_matches_the_tuple_key_one(order):
    """ZZ/6 has no Gröbner engine: relations monic in a variable each reduce
    through ``_reduce_by_monic``."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    dom = Zmod(6)
    ring = PolyRing(dom, ("x", "y", "z"), order)
    x, _, z = ring.gens()

    def monic_in(v):
        return st.lists(st.integers(0, 5), min_size=1, max_size=3).map(
            lambda cs: v ** len(cs) + sum((dom.from_int(c) * v ** k for k, c in enumerate(cs)),
                                          ring.zero()))

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(polys(ring, 4, 8), monic_in(x), monic_in(z))
    def check(f, rx, rz):
        reduced = algebra._reduce_by_monic(f, [rx, rz])
        assert reduced.terms == ref_normal_form(f, [rx, rz])

    check()


@ORDERS
@FIELDS
def test_packed_reduced_bases_match_the_tuple_key_ones(domain, order):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ring = PolyRing(domain, ("x", "y", "z"), order)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(st.lists(polys(ring, 2, 3), max_size=3))
    def check(gens):
        got = [g.terms for g in groebner_basis(gens, ring)]
        assert got == ref_reduced_basis(gens, ring)

    check()


def verify_on_every_pair(gb):
    """``verify_basis`` with every S-pair reduced, in the tuple-key
    kernel."""
    dom = gb.ring.domain
    polys = gb.polys
    for i, g in enumerate(polys):
        others = polys[:i] + polys[i + 1:]
        lead = g.terms[0][0]
        if not dom.is_one(g.terms[0][1]):
            return False
        if any(all(map(le, h.terms[0][0], lead)) for h in others):
            return False
        if ref_normal_form(g, others) != g.terms:
            return False
    return all(
        not ref_normal_form(ref_s_polynomial(polys[i], polys[j]), polys)
        for i in range(len(polys)) for j in range(i)
    )


def test_kept_pair_verification_agrees_with_every_pair():
    """On correct bases, on bases with a tail coefficient changed and on
    bases with an element dropped, reducing only the pairs the
    Gebauer–Möller update keeps gives the verdict of reducing all."""
    rng = random.Random(2024)
    verdicts = []
    for domain in (GF(32003), QQ):
        for trial in range(12):
            nvars = rng.choice((3, 4))
            ring = PolyRing(domain, tuple(f"x{i}" for i in range(nvars)))
            gens = [
                ring.from_dict({
                    tuple(rng.randrange(3) for _ in range(nvars)): domain.from_int(rng.randint(-5, 5))
                    for _ in range(rng.randint(2, 4))
                })
                for _ in range(rng.randint(2, 3))
            ]
            basis = groebner_basis(gens, ring)
            variants = [basis]
            if len(basis) > 1:
                variants.append(basis[:-1])
            for k, g in enumerate(basis):
                if len(g.terms) > 1:
                    (lead, lc), (te, tc), *rest = g.terms
                    bent = ring.from_dict({lead: lc, te: domain.add(tc, domain.one()),
                                           **dict(rest)})
                    variants.append(basis[:k] + [bent] + basis[k + 1:])
                    break
            for polys in variants:
                full = verify_on_every_pair(GroebnerBasis(ring, polys))
                assert verify_basis(GroebnerBasis(ring, polys)) == full
                verdicts.append(full)
    assert True in verdicts and False in verdicts


# -- the signature engine against the pair-heap Buchberger it replaced --------

def buchberger_reference(gens, ring):
    """Reduced basis by the pair-heap Buchberger engine that the signature
    engine replaced: the pair of smallest lcm first, the Gebauer–Möller
    update, and reductions against the live basis."""
    gens = [g for g in gens if not g.is_zero()]
    pk = ring.packer
    basis, lms, live, pairs, reducers = [], [], [], [], []

    def insert(h):
        basis.append(h.monic())
        lms.append(h.packed()[0][0])
        gm_update(pairs, live, lms, len(basis) - 1, pk)
        reducers[:] = [basis[k] for k in live]

    for g in gens:
        h = normal_form_list(g, reducers)
        if not h.is_zero():
            insert(h)
    while pairs:
        lcm, i, j = heapq.heappop(pairs)
        h = normal_form_list(s_polynomial(basis[i], basis[j], lcm), reducers)
        if not h.is_zero():
            insert(h)
    reduced = [normal_form_list(g, reducers[:k] + reducers[k + 1:])
               for k, g in enumerate(reducers)]
    return sorted(reduced, key=lambda g: g.packed()[0][0])


def assert_matches_reference(gens, ring):
    got = groebner_basis(gens, ring)
    assert [g.terms for g in got] == [g.terms for g in buchberger_reference(gens, ring)]
    assert verify_basis(GroebnerBasis(ring, got))


@pytest.mark.parametrize("domain", [QQ, GF(2), GF(7), GF(32003)],
                         ids=["QQ", "GF2", "GF7", "GF32003"])
@pytest.mark.parametrize("order", ["grevlex", "lex", "block"])
def test_signature_engine_matches_buchberger_on_seeded_ideals(domain, order):
    """Exponents below 3 and at most 4 generators of at most 3 terms keep
    every example small, lex included."""
    rng = random.Random(f"signature-oracle:{domain}:{order}")
    for _ in range(60):
        nvars = rng.choice((2, 3, 4))
        term_order = {"grevlex": GREVLEX, "lex": LEX, "block": BlockOrder((1, nvars - 1))}[order]
        ring = PolyRing(domain, tuple(f"x{i}" for i in range(nvars)), term_order)
        gens = [
            ring.from_dict({
                tuple(rng.randrange(3) for _ in range(nvars)): domain.from_int(rng.randint(-4, 4))
                for _ in range(rng.randint(1, 3))
            })
            for _ in range(rng.randint(1, 4))
        ]
        assert_matches_reference(gens, ring)


@pytest.mark.parametrize("system", ["katsura5", "cyclic5"])
@pytest.mark.parametrize("domain", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_signature_engine_matches_buchberger_on_standard_systems(system, domain):
    nvars = 6 if system == "katsura5" else 5
    ring = PolyRing(domain, tuple(f"x{i}" for i in range(nvars)))
    gens = _katsura(ring, 5) if system == "katsura5" else _cyclic(ring, 5)
    assert_matches_reference(gens, ring)


@pytest.mark.parametrize("order", ["grevlex", "lex", "block"])
def test_signature_engine_over_qq_returns_the_basis_over_qq(order):
    """The engine reduces over QQ on integers: on fractional generators
    (denominators 2 to 6, both signs) it returns the reference's basis, in
    the ring asked for, with every coefficient a ``Fraction``."""
    rng = random.Random(f"signature-oracle:fractions:{order}")
    for _ in range(40):
        nvars = rng.choice((2, 3, 4))
        term_order = {"grevlex": GREVLEX, "lex": LEX, "block": BlockOrder((1, nvars - 1))}[order]
        ring = PolyRing(QQ, tuple(f"x{i}" for i in range(nvars)), term_order)
        gens = [
            ring.from_dict({
                tuple(rng.randrange(3) for _ in range(nvars)):
                    Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 6))
                for _ in range(rng.randint(1, 3))
            })
            for _ in range(rng.randint(1, 4))
        ]
        got = groebner_basis(gens, ring)
        assert [g.terms for g in got] == [g.terms for g in buchberger_reference(gens, ring)]
        assert verify_basis(GroebnerBasis(ring, got))
        assert all(g.ring is ring for g in got)
        assert all(type(c) is Fraction for g in got for c in g.packed()[1])


def test_integer_pseudo_reduction_matches_the_normal_form_over_qq():
    """Over ZZ a reduction step is rem <- a*rem - b*x^m*g, so the remainder
    is a nonzero rational multiple of the normal form over QQ, whatever the
    signs and sizes of the leading coefficients. ``_regular_reduce`` with a
    signature above every term's may use every reducer, in ratio order, and
    then reduces as ``normal_form_list`` does."""
    rng = random.Random("pseudo-reduction")
    names = ("x", "y", "z")

    def rand_int_poly(ring, max_exp, size):
        return ring.from_dict({
            tuple(rng.randrange(max_exp) for _ in names): rng.choice((-1, 1)) * rng.randint(1, 9)
            for _ in range(rng.randint(1, size))
        })

    for order in (GREVLEX, LEX, BlockOrder((1, 2))):
        zring, qring = PolyRing(ZZ, names, order), PolyRing(QQ, names, order)
        for _ in range(60):
            f = rand_int_poly(zring, 4, 8)
            basis = [rand_int_poly(zring, 3, 3) for _ in range(rng.randint(1, 3))]
            want = normal_form_list(f.map_coefficients(qring),
                                    [g.map_coefficients(qring) for g in basis])
            got = normal_form_list(f, basis)
            assert got.is_zero() == want.is_zero()
            if not want.is_zero():
                ratio = Fraction(got.leading_coeff()) / want.leading_coeff()
                assert got.map_coefficients(qring) == want.scale(ratio)
            regular = algebra._regular_reduce(f, 1 << 512, 0, list(range(len(basis))),
                                              [g.reducer() for g in basis], 1)
            assert regular == got


def test_katsura4_over_qq_makes_no_rational_arithmetic_in_its_reductions(monkeypatch):
    """A guard by count, not by time: the reductions run on integers, so
    ``RationalField.mul`` and ``sub`` run at most once per term of the
    result, for the final monic scaling."""
    ring = PolyRing(QQ, tuple(f"x{i}" for i in range(5)))
    gens = _katsura(ring, 4)
    calls = []
    for name in ("mul", "sub"):
        real = getattr(RationalField, name)

        def counted(self, a, b, real=real, name=name):
            calls.append(name)
            return real(self, a, b)

        monkeypatch.setattr(RationalField, name, counted)
    gb = groebner_basis(gens, ring)
    assert len(gb) == 13
    assert len(calls) <= sum(len(g.packed()[0]) for g in gb)


# -- the first-divisor memo against the scan it replaced ----------------------

def _seeded_gens(rng, domain, order):
    """At most 4 generators of at most 3 terms, exponents below 3."""
    nvars = rng.choice((2, 3, 4))
    term_order = {"grevlex": GREVLEX, "lex": LEX, "block": BlockOrder((1, nvars - 1))}[order]
    ring = PolyRing(domain, tuple(f"x{i}" for i in range(nvars)), term_order)
    gens = [
        ring.from_dict({
            tuple(rng.randrange(3) for _ in range(nvars)): domain.from_int(rng.randint(-4, 4))
            for _ in range(rng.randint(1, 3))
        })
        for _ in range(rng.randint(2, 4))
    ]
    return ring, gens


@pytest.mark.parametrize("domain", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_memo_remainders_match_the_scan_term_for_term(monkeypatch, domain):
    """Every regular reduction and every reduction of the final
    inter-reduction leaves the remainder of ``scan_reduced``, coefficient
    by coefficient (over QQ the integer pseudo-remainders), in grevlex, lex
    and block orders. The seeded ideals reach both ways of updating an
    entry after an insertion: a dividing newcomer of smaller ratio replaces
    it, one of equal ratio, placed after it, does not; and every element
    of the inter-reduction meets itself as the memo's hit at its leading
    monomial, which it keeps."""
    seen = {"regular": 0, "replaced": 0, "tied": 0, "self": 0}
    real_reduce, real_nf = algebra._regular_reduce, algebra.normal_form_list
    real_insert = algebra._Divisors.insert

    def regular(f, skey, sidx, ratios, reducers, width, divisors=None):
        want = scan_reduced(f, list(reducers), list(ratios), skey * width + sidx, width)
        got = real_reduce(f, skey, sidx, ratios, reducers, width, divisors)
        assert got.packed() == want.packed()
        seen["regular"] += 1
        return got

    def inter(f, basis, divisors=None):
        got = real_nf(f, basis, divisors)
        if divisors is not None and basis:
            k, reds = len(basis), divisors.reducers
            assert reds[k] is f.reducer()
            assert got.packed() == scan_reduced(f, reds[:k] + reds[k + 1:]).packed()
            assert divisors.first[f.packed()[0][0]][1] is reds[k]
            seen["self"] += 1
        return got

    def insert(self, ratio, reducer, guard):
        for m, (r, red) in self.first.items():
            if red is not None and ratio <= r and not (m - reducer[0]) & guard:
                seen["replaced" if ratio < r else "tied"] += 1
        real_insert(self, ratio, reducer, guard)

    monkeypatch.setattr(algebra, "_regular_reduce", regular)
    monkeypatch.setattr(algebra, "normal_form_list", inter)
    monkeypatch.setattr(algebra._Divisors, "insert", insert)
    for order in ("grevlex", "lex", "block"):
        rng = random.Random(f"first-divisor-memo:{domain}:{order}")
        for _ in range(30):
            ring, gens = _seeded_gens(rng, domain, order)
            groebner_basis(gens, ring)
    ring = PolyRing(domain, tuple(f"x{i}" for i in range(5)))
    assert len(groebner_basis(_katsura(ring, 4), ring)) == 13
    assert all(seen.values()), seen


@pytest.mark.parametrize("domain", [GF(65521), Zmod(6), ZZ], ids=["GF65521", "ZZ6", "ZZ"])
def test_lazy_remainders_match_the_scan_term_for_term(monkeypatch, domain):
    """Over ZZ and ZZ/n the kernel leaves unreduced ints in the remainder,
    and ``scan_reduced`` reduces after every update; normal forms and
    regular reductions must still agree coefficient by coefficient. Each f
    is a combination of its basis plus a few terms, so remainder entries
    are updated many times, and some cancel to 0 mod n while they are
    still in the remainder (counted through the kernel)."""
    n = domain.n if isinstance(domain, Zmod) else 0
    lazy = {"zero": 0, "unreduced": 0}
    real = algebra._sub_shifted

    def counted(rem, *args):
        real(rem, *args)
        lazy["zero"] += sum(1 for v in rem[1] if not (v % n if n else v))
        lazy["unreduced"] += sum(1 for v in rem[1] if n and not 0 <= v < n)

    monkeypatch.setattr(algebra, "_sub_shifted", counted)
    rng = random.Random(f"lazy-remainders:{domain}")
    ring = PolyRing(domain, ("x", "y", "z"))
    pk = ring.packer

    def monomial(degree):
        e = [0, 0, 0]
        for _ in range(degree):
            e[rng.randrange(3)] += 1
        return tuple(e)

    def poly(degree, size, lead=None):
        d = {monomial(rng.randrange(degree)): domain.from_int(rng.randint(-9, 9))
             for _ in range(size)}
        if lead is not None:
            d[monomial(degree)] = domain.from_int(lead)
        return ring.from_dict(d)

    for _ in range(40):
        # unit leading coefficients, but for the fraction-free steps over ZZ
        basis = [poly(3, 5, rng.choice((1, 2, -3) if n == 0 else (1, -1)))
                 for _ in range(rng.randint(2, 3))]
        f = sum((poly(3, 4) * g for g in basis), poly(4, 3))
        reducers = [g.reducer() for g in basis]
        assert normal_form_list(f, basis).packed() == scan_reduced(f, reducers).packed()
        # the signature bound of a regular reduction allows each reducer on
        # the terms of small enough key only
        width = len(basis) + 1
        ratios = sorted(pk.key(monomial(rng.randrange(3))) * width + k
                        for k in range(len(basis)))
        skey = pk.key(f.leading_monomial()) + pk.key(monomial(rng.randrange(3)))
        got = algebra._regular_reduce(f, skey, len(basis), list(ratios), list(reducers), width)
        want = scan_reduced(f, reducers, ratios, skey * width + len(basis), width)
        assert got.packed() == want.packed()
    assert lazy["zero"] and (lazy["unreduced"] or not n)


@pytest.mark.parametrize("domain", [QQ, GF(32003)], ids=["QQ", "GF32003"])
def test_repeated_normal_forms_match_the_scan(domain):
    """A ``GroebnerBasis`` keeps one memo for its lifetime: normal forms
    asked twice, interleaved, equal the scan's each time."""
    rng = random.Random(f"first-divisor-memo:normal-forms:{domain}")
    for order in ("grevlex", "lex", "block"):
        for _ in range(10):
            ring, gens = _seeded_gens(rng, domain, order)
            gb = GroebnerBasis(ring, groebner_basis(gens, ring))
            reducers = [g.reducer() for g in gb]
            fs = [ring.from_dict({
                tuple(rng.randrange(4) for _ in ring.names): domain.from_int(rng.randint(-9, 9))
                for _ in range(rng.randint(1, 8))
            }) for _ in range(4)]
            for f in fs + fs:
                assert gb.normal_form(f).packed() == scan_reduced(f, reducers).packed()


def test_katsura5_reads_each_leading_monomial_once_per_monomial(monkeypatch):
    """A guard by count, not by time: a memo entry scans the elements once,
    when its monomial first comes up, and an insertion reads only the
    newcomer's leading monomial, so the leading monomials read stay within
    (monomials met) x (elements) per memo: 2,161 reads against a bound of
    4,644 on katsura-5 mod 32003, where the scan per term made 27,596. A
    second normal form of one polynomial on one ``GroebnerBasis`` reads
    none."""
    reads = [0]

    class Counted(tuple):
        def __getitem__(self, i):
            if i == 0:
                reads[0] += 1
            return tuple.__getitem__(self, i)

    real_reducer, real_init = Poly.reducer, algebra._Divisors.__init__
    memos = []

    def reducer(self):
        red = real_reducer(self)
        if type(red) is not Counted:
            red = self._reducer = Counted(red)
        return red

    def init(self, *args):
        real_init(self, *args)
        memos.append(self)

    monkeypatch.setattr(Poly, "reducer", reducer)
    monkeypatch.setattr(algebra._Divisors, "__init__", init)
    ring = PolyRing(GF(32003), tuple(f"x{i}" for i in range(6)))
    gb = GroebnerBasis(ring, groebner_basis(_katsura(ring, 5), ring))
    # the memos of the regular reductions and of the inter-reduction
    assert len(memos) == 2 and len(gb) == 22
    assert reads[0] <= sum(len(d.first) * len(d.reducers) for d in memos)
    f = sum(ring.gens(), ring.zero()) ** 3
    once = gb.normal_form(f)
    before = reads[0]
    assert gb.normal_form(f) == once and reads[0] == before


def test_signature_engine_keeps_singularly_top_reducible_elements():
    """Two lex ideals on which dropping an element that is only singularly
    top-reducible, under the rewrite-by-latest-addition criterion, returns
    a set that is not a Gröbner basis."""
    ring = PolyRing(GF(32003), ("x0", "x1", "x2"), LEX)
    x0, x1, x2 = ring.gens()
    assert_matches_reference([
        4 * x0 * x1 * x2 ** 2 + 5 * x0 * x1 * x2 + 2 * x1 + 31998 * x2 ** 2,
        31998 * x0 ** 2 * x1 ** 2 * x2 ** 2 + 32001 * x0 * x1 * x2 + 31999 * x2 ** 2,
    ], ring)
    ring = PolyRing(QQ, ("x0", "x1", "x2", "x3"), LEX)
    x0, x1, x2, x3 = ring.gens()
    assert_matches_reference([
        -4 * x0 ** 2 * x1 * x2 * x3 ** 2 + 4 * x1 * x2 ** 2,
        2 * x0 ** 2 * x1 ** 2 * x2 * x3 + 2 * x0 ** 2 - x0 * x3 - 4 * x1 * x2,
        -x0 * x2 ** 2,
        3 * x0 ** 2 * x1 ** 2 * x2 ** 2 * x3 ** 2 + 2 * x0 ** 2 * x1 - 3 * x0 * x1 * x3
        + 4 * x2 * x3 ** 2,
    ], ring)


@pytest.mark.parametrize("n, most", [(4, 4), (5, 7)])
def test_few_regular_reductions_reach_zero_on_katsura(monkeypatch, n, most):
    """The pair-heap engine reduced 20 of 35 generators and S-pairs to zero
    on katsura-4 and 50 of 74 on katsura-5 mod 32003."""
    ring = PolyRing(GF(32003), tuple(f"x{i}" for i in range(n + 1)))
    results = []
    real = algebra._regular_reduce

    def counted(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(algebra, "_regular_reduce", counted)
    assert_matches_reference(_katsura(ring, n), ring)
    zeros = sum(h.is_zero() for h in results)
    assert 0 < len(results) and zeros <= most


def test_signature_monomials_are_checked_for_overflow():
    """Exponents near 2^30: a signature monomial x^u*lm(f_i) may pass 2^31
    though no polynomial does; that is ``exponent-overflow``, never a
    signature whose key field carried into the next row."""
    big = 1 << 30
    for order in (LEX, GREVLEX):
        ring = PolyRing(GF(32003), ("x", "y", "z"), order)
        x, y, z = ring.gens()
        # the signatures stay below 2^31: the reference's basis
        assert_matches_reference([x ** (big - 1) * y - z, y ** 2 - z], ring)
        # y^2, the second generator reduced by the first, keeps the
        # signature x^(2^30 + 1)*e_1; its pair with x^(2^30 - 1)*y has the
        # signature x^(2^30 - 1) * x^(2^30 + 1)*e_1, though every
        # S-polynomial of the reference divides x^(2^30 + 1)*y^2
        gens = [x ** (big + 1), x ** (big + 1) + y ** 2, x ** (big - 1) * y]
        assert len(buchberger_reference(gens, ring)) == 3
        with pytest.raises(ExponentOverflow) as err:
            groebner_basis(gens, ring)
        assert err.value.code == "exponent-overflow"
    ring = PolyRing(GF(32003), ("x", "y", "z"), GREVLEX)
    x, y, z = ring.gens()
    assert_matches_reference([x ** big + y ** 2, x ** big, y * z - x], ring)


def test_groebner_edge_cases_keep_their_answers():
    ring = PolyRing(GF(3), ("x",))
    x, = ring.gens()
    assert groebner_basis([ring.zero()], ring) == []
    assert groebner_basis([], ring) == []
    assert [str(g) for g in groebner_basis([ring.one()], ring)] == ["1"]
    assert [str(g) for g in groebner_basis([x, x, 2 * x], ring)] == ["x"]
    assert groebner_basis([3 * x], ring) == []
    with pytest.raises(ValueError):
        groebner_basis([])
    zmod6 = PolyRing(Zmod(6), ("x",))
    with pytest.raises(NonFieldBase):
        groebner_basis([zmod6.gen("x")], zmod6)


# ---------------------------------------------------------------------------
# unit certificates: decided by the Gröbner basis, found with no degree cap
# ---------------------------------------------------------------------------

def _combination(coeffs, elems, ring):
    return sum((a * f for a, f in zip(coeffs, elems)), ring.zero())


@pytest.mark.parametrize("rels, zero", [
    (lambda x, y: [x ** 9 * y - 1, y], True),
    (lambda x, y: [x ** 9 * y - 1, 2 * y], False),
    (lambda x, y: [x ** 9 * y - 1, 6 * y, x - 1], False),
], ids=["unit", "nonzero-mod-2", "nonzero-mod-2-and-3"])
def test_zero_ring_over_zz_needs_no_degree_cap(rels, zero):
    """Over QQ each ideal is the unit ideal, with a cofactor x^9 of y;
    over ZZ it holds 1, 2 or 6, and the ring vanishes iff it also vanishes
    modulo each prime of that integer."""
    ring = PolyRing(ZZ, ("x", "y"))
    algebra_ = PresentedAlgebra(ZZ, ("x", "y"), rels(*ring.gens()))
    assert algebra_.is_zero_ring() is zero


def test_unit_partition_past_its_budget_is_refused_quickly():
    """1 = -(x^100*y - 1) + x^100*y needs the multiples of degree 100:
    about 10,000 of them, past the budget, so the search refuses."""
    from scheme_explorer.errors import BudgetExceeded

    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.gens()
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as err:
        unit_partition([x ** 100 * y - 1, y])
    assert err.value.code == "budget-exceeded"
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("field", [GF(5), QQ], ids=["GF(5)", "QQ"])
def test_unit_partition_is_none_exactly_off_the_unit_ideal(field):
    """Seeded families of two or three polynomials of degree <= 2 in x, y:
    a certificate summing to 1 exactly when the Gröbner basis holds 1."""
    rng = random.Random(24)
    ring = PolyRing(field, ("x", "y"))
    algebra_ = PresentedAlgebra(field, ("x", "y"))
    monos = [(i, j) for i in range(3) for j in range(3) if i + j <= 2]
    verdicts = set()
    for _ in range(40):
        elems = [
            ring.from_dict({m: field.from_int(rng.randrange(-2, 3)) for m in rng.sample(monos, 3)})
            for _ in range(rng.randrange(2, 4))
        ]
        coeffs = unit_partition(elems)
        unit = IdealHandle(algebra_, elems).is_unit_ideal()
        assert (coeffs is not None) == unit, elems
        if coeffs is not None:
            assert _combination(coeffs, elems, ring) == ring.one()
        verdicts.add(unit)
    assert verdicts == {True, False}


_CERTIFICATES = """
from scheme_explorer import morphism as mor, spectrum as sp
from scheme_explorer.algebra import IdealHandle, PresentedAlgebra, unit_partition
from scheme_explorer.arith import GF, QQ
from scheme_explorer.noether import is_maximal

for field in (QQ, GF(7)):
    A = PresentedAlgebra(field, ("x", "y", "z"))
    x, y, z = A.gens()
    for elems in ([x * y - 1, y * z - 1, x - z - 1], [x, 1 - x * y, y ** 2]):
        print([str(a) for a in unit_partition(elems)])
A = PresentedAlgebra(GF(3), ("x", "y"))
x, y = A.gens()
print(is_maximal(IdealHandle(A, [x ** 2 + 1, y ** 2 + 1])).as_record())
src = PresentedAlgebra(QQ, ("T",))
tgt = PresentedAlgebra(QQ, ("X",))
phi = mor.RingMorphism(src, tgt, [tgt.ring.gen("X") ** 2 + tgt.ring.gen("X")])
cube_root_of_2 = (QQ.from_int(-2), QQ.zero(), QQ.zero(), QQ.one())
pt = sp.closed_point(sp.SpecCatalogue.recognize(tgt), cube_root_of_2)
print(mor.preimage_point(phi, pt).description)
"""


def test_certificates_do_not_depend_on_the_hash_seed():
    """Unit partitions over QQ and GF(7), a maximality witness and the
    minimal polynomial of a preimage point print the same bytes under two
    PYTHONHASHSEED values."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", _CERTIFICATES],
                              capture_output=True, env=env, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 6
