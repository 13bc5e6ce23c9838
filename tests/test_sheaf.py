"""Sheaves on finite spaces: gluing, sheafification, structure sheaves,
cocycle twisting."""

import itertools
import random
import re
from collections import Counter

import pytest

from scheme_explorer import sheaf as sh
from scheme_explorer.arith import Zmod, domain_units


def constant_presheaf(space, values):
    sections = {u: list(values) for u in space.opens}
    restrictions = {}
    for u in space.opens:
        for v in space.opens:
            if v < u:
                restrictions[(u, v)] = {s: s for s in values}
    return sh.FinitePresheaf(space, sections, restrictions)


from helpers_sheaf import (
    covers_of,
    eager_presheaf,
    eager_structure_sheaf,
    random_projection_presheaf,
    random_space,
    sub_presheaf,
    tagged_presheaf,
)


def test_topology_axioms_enforced():
    with pytest.raises(ValueError):
        sh.FiniteSpace(["a"], [frozenset()])
    with pytest.raises(ValueError):
        sh.FiniteSpace(
            ["a", "b", "c"],
            [frozenset(), frozenset("ab"), frozenset("bc"), frozenset("abc")],
        )


def test_presheaf_axioms_enforced():
    space = sh.discrete_space(["a", "b"])
    sections = {u: [0, 1] for u in space.opens}
    bad = {}
    for u in space.opens:
        for v in space.opens:
            if v < u:
                bad[(u, v)] = {0: 1, 1: 0}  # breaks composition to empty? no:
    # swapping twice composes to identity on two-step chains but the chain
    # U -> V -> W with both swaps != U -> W swap, so composition fails
    with pytest.raises(ValueError):
        sh.FinitePresheaf(space, sections, bad)


def test_constant_presheaf_on_disconnected_space_is_not_a_sheaf():
    space = sh.discrete_space(["a", "b"])
    F = constant_presheaf(space, [0, 1, 2])
    assert not F.is_sheaf()  # gluing fails over the two-point cover
    G, pi = sh.sheafify(F)
    assert G.is_sheaf()
    whole = frozenset(["a", "b"])
    assert len(G.sections[whole]) == 9  # locally constant pairs
    assert sh.stalks_preserved(F, G, pi)


def test_constant_presheaf_on_irreducible_space_is_a_sheaf():
    # two-point space with a generic point: opens are {}, {eta}, {eta, s}
    space = sh.FiniteSpace(
        ["eta", "s"],
        [frozenset(), frozenset(["eta"]), frozenset(["eta", "s"])],
    )
    F = constant_presheaf(space, [0, 1])
    # the empty open must carry exactly one section for the sheaf condition
    sections = {u: ([0, 1] if u else [0]) for u in space.opens}
    restrictions = {}
    for u in space.opens:
        for v in space.opens:
            if v < u:
                restrictions[(u, v)] = {s: (s if v else 0) for s in sections[u]}
    F2 = sh.FinitePresheaf(space, sections, restrictions)
    assert F2.is_sheaf()


def test_idiot_presheaf_sheafifies_to_skyscraper():
    """Z on the whole space and 0 elsewhere, over the two-point chain:
    sheafification moves the group to the closed point."""
    space = sh.FiniteSpace(
        ["eta", "s"],
        [frozenset(), frozenset(["eta"]), frozenset(["eta", "s"])],
    )
    values = list(range(4))
    whole = frozenset(["eta", "s"])
    sections = {frozenset(): [0], frozenset(["eta"]): [0], whole: values}
    restrictions = {
        (whole, frozenset(["eta"])): {v: 0 for v in values},
        (whole, frozenset()): {v: 0 for v in values},
        (frozenset(["eta"]), frozenset()): {0: 0},
    }
    F = sh.FinitePresheaf(space, sections, restrictions)
    # on this space the only cover of X keeping private points is {X}, so
    # the presheaf is already a sheaf and sheafification fixes it
    assert F.is_sheaf()
    G, pi = sh.sheafify(F)
    assert G.is_sheaf()
    assert len(G.sections[whole]) == 4      # Gamma(X) = stalk at s = Z/4
    assert len(G.sections[frozenset(["eta"])]) == 1  # Gamma(eta) = 0
    assert sh.stalks_preserved(F, G, pi)


def test_idiot_presheaf_on_discrete_space_is_not_a_sheaf():
    """On a discrete two-point space the strict opens cover, and the idiot
    presheaf fails uniqueness in the gluing axiom."""
    space = sh.discrete_space(["a", "b"])
    whole = frozenset(["a", "b"])
    values = list(range(4))
    sections = {
        frozenset(): [0],
        frozenset(["a"]): [0],
        frozenset(["b"]): [0],
        whole: values,
    }
    restrictions = {}
    for u in space.opens:
        for v in space.opens:
            if v < u:
                restrictions[(u, v)] = {s: 0 for s in sections[u]}
    restrictions[(whole, frozenset(["a"]))] = {v: 0 for v in values}
    restrictions[(whole, frozenset(["b"]))] = {v: 0 for v in values}
    F = sh.FinitePresheaf(space, sections, restrictions)
    assert not F.is_sheaf()
    G, pi = sh.sheafify(F)
    assert G.is_sheaf()
    assert len(G.sections[whole]) == 1
    assert sh.stalks_preserved(F, G, pi)


def test_sheafify_fixes_sheaves():
    space = sh.discrete_space(["a", "b"])
    F = constant_presheaf(space, [0])
    G, pi = sh.sheafify(F)
    for u in space.opens:
        assert len(G.sections[u]) == len(F.sections[u]) or not u
    assert sh.stalks_preserved(F, G, pi)


def test_sheafification_preserves_stalks_randomized():
    rng = random.Random(90125)
    for _ in range(100):
        space = random_space(rng)
        F = random_projection_presheaf(space, rng)
        G, pi = sh.sheafify(F)
        assert sh.stalks_preserved(F, G, pi)
        assert len(G.sections[frozenset()]) == 1


def test_sheafified_output_satisfies_gluing_exhaustively():
    rng = random.Random(777)
    for _ in range(12):
        space = random_space(rng, max_points=4)
        F = random_projection_presheaf(space, rng)
        G, _ = sh.sheafify(F)
        assert G.is_sheaf()


def test_injective_morphism_image_is_presheaf_image():
    """For injective maps between sheaves, the naive image is already a
    sheaf, so no closure happens."""
    space = sh.discrete_space(["a", "b"])
    F, _ = sh.sheafify(constant_presheaf(space, [0, 1]))
    G, _ = sh.sheafify(constant_presheaf(space, [0, 1, 2]))
    maps = {}
    for u in space.opens:
        maps[u] = {s: s for s in F.sections[u]}
    phi = sh.PresheafMorphism(F, G, maps)
    assert phi.is_injective()
    naive = sh.presheaf_image(phi)
    closed = sh.sheaf_image(phi)
    for u in space.opens:
        assert set(naive.sections[u]) == set(closed.sections[u])


def test_surjective_on_stalks_but_not_on_sections():
    """Locally-constant sheaf morphism on a disconnected space: the sum map
    hits everything locally, yet a global section is missed naively."""
    space = sh.discrete_space(["a", "b"])
    # F: pairs with equal coordinates only over the whole space (constant)
    whole = frozenset(["a", "b"])
    Fa = frozenset(["a"])
    Fb = frozenset(["b"])
    F_sections = {frozenset(): [()], Fa: [0, 1], Fb: [0, 1], whole: [0, 1]}
    F_restr = {
        (whole, Fa): {0: 0, 1: 1},
        (whole, Fb): {0: 0, 1: 1},
        (whole, frozenset()): {0: (), 1: ()},
        (Fa, frozenset()): {0: (), 1: ()},
        (Fb, frozenset()): {0: (), 1: ()},
    }
    F = sh.FinitePresheaf(space, F_sections, F_restr)
    # G: the locally-constant sheaf with values {0,1}
    G_sections = {
        frozenset(): [()],
        Fa: [0, 1],
        Fb: [0, 1],
        whole: [(0, 0), (0, 1), (1, 0), (1, 1)],
    }
    G_restr = {
        (whole, Fa): {p: p[0] for p in G_sections[whole]},
        (whole, Fb): {p: p[1] for p in G_sections[whole]},
        (whole, frozenset()): {p: () for p in G_sections[whole]},
        (Fa, frozenset()): {0: (), 1: ()},
        (Fb, frozenset()): {0: (), 1: ()},
    }
    G = sh.FinitePresheaf(space, G_sections, G_restr)
    maps = {
        frozenset(): {(): ()},
        Fa: {0: 0, 1: 1},
        Fb: {0: 0, 1: 1},
        whole: {0: (0, 0), 1: (1, 1)},
    }
    phi = sh.PresheafMorphism(F, G, maps)
    naive = sh.presheaf_image(phi)
    closed = sh.sheaf_image(phi)
    assert len(naive.sections[whole]) == 2
    assert len(closed.sections[whole]) == 4  # locally hit: the full target


def test_structure_sheaf_z12():
    R = Zmod(12)
    rep = sh.structure_sheaf(R)
    assert len(rep.primes) == 2
    assert rep.sheaf.is_sheaf()
    for f in range(12):
        assert rep.compare_gamma_with_localization(f), f
    # D(2) leaves only the prime over 3: sections there form Z/3
    assert len(rep.gamma(rep.basic_open(2))) == 3
    # global sections recover the ring
    assert len(rep.gamma(frozenset(rep.space.points))) == 12


def test_structure_sheaf_single_point_ring():
    F5 = Zmod(5)
    E = sh.QuotientPolyRing(F5, (0, 0, 1))  # F5[e]/(e^2)
    rep = sh.structure_sheaf(E)
    assert len(rep.primes) == 1
    assert len(rep.gamma(frozenset(rep.space.points))) == 25


def test_quotient_ring_elements_print_with_parenthesized_sums():
    """A coefficient that prints as a sum is parenthesized, as in the
    dense printer of ``arith``; a zero element prints as 0."""
    E = sh.QuotientPolyRing(Zmod(5), (0, 0, 1))  # F5[e]/(e^2)
    nested = sh.QuotientPolyRing(E, ((0, 0), (0, 0), (1, 0)), var="f")  # E[f]/(f^2)
    e_plus_one = (1, 1)
    assert E.format(e_plus_one) == "e + 1"
    assert nested.format((e_plus_one, e_plus_one)) == "(e + 1)*f + (e + 1)"
    assert nested.format(((0, 0), (0, 1))) == "e*f"
    assert E.format(E.zero()) == "0" and nested.format(nested.zero()) == "0"


def test_structure_sheaf_product_splits():
    P = sh.ProductRing(Zmod(7), Zmod(5))
    rep = sh.structure_sheaf(P)
    assert len(rep.primes) == 2
    sizes = sorted(
        len(rep.gamma(frozenset([x]))) for x in rep.space.points
    )
    assert sizes == [5, 7]
    for f in P.elements():
        assert rep.compare_gamma_with_localization(f)


def test_stalks_are_local_rings():
    R = Zmod(12)
    rep = sh.structure_sheaf(R)
    sizes = sorted(len(rep.stalk_ring(x).elements()) for x in rep.space.points)
    assert sizes == [3, 4]  # Z/12 localized at (3) and at (2)


def z12_modules(ring):
    """2*Z/12, Z/12 and Z/12 / (2) = Z/2 as modules over ``ring`` = Z/12."""

    def module_from_subset(elements):
        return sh.FiniteModule(
            ring, elements,
            add=lambda a, b: (a + b) % 12,
            smul=lambda r, a: (r * a) % 12,
            zero=0,
        )

    sub = module_from_subset([0, 2, 4, 6, 8, 10])
    total = module_from_subset(list(range(12)))
    quot = sh.FiniteModule(
        ring, [0, 1],
        add=lambda a, b: (a + b) % 2,
        smul=lambda r, a: (r * a) % 2,
        zero=0,
    )
    return sub, total, quot


def test_module_sheaf_exactness_matches_stalks():
    """0 -> 2*Z/12 -> Z/12 -> Z/12 / (2) -> 0 is exact on stalks and on the
    sheaf level; dropping the kernel breaks exactness in the same places."""
    ring = Zmod(12)
    rep = sh.structure_sheaf(ring)
    sub, total, quot = z12_modules(ring)
    F_sub, loc_sub = sh.module_presheaf(ring, sub, rep)
    F_tot, loc_tot = sh.module_presheaf(ring, total, rep)
    F_quot, loc_quot = sh.module_presheaf(ring, quot, rep)
    for x in rep.space.points:
        u = rep.space.minimal_open(x)
        ls = len(F_sub.sections[u])
        lt = len(F_tot.sections[u])
        lq = len(F_quot.sections[u])
        # short exactness of localized modules: |sub| * |quot| = |total|
        assert ls * lq == lt, (sorted(rep.primes[x]), ls, lt, lq)


def test_trivial_cocycle_twist_is_identity():
    R = Zmod(12)
    rep = sh.structure_sheaf(R)
    X = frozenset(rep.space.points)
    cover = [X, rep.basic_open(2)]
    triv = sh.trivial_cocycle(rep, cover)
    L = sh.twist_structure_sheaf(triv)
    for u in rep.space.opens:
        assert len(L.sections[u]) == len(rep.sheaf.sections[u])


def test_coboundary_is_trivial_class():
    R = Zmod(36)
    rep = sh.structure_sheaf(R)
    X = frozenset(rep.space.points)
    cover = [X, rep.basic_open(2)]
    ring_x = rep.local_rings[X]
    ring_d2 = rep.local_rings[cover[1]]
    cob = sh.coboundary_cocycle(
        rep, cover, [ring_x.neg(ring_x.one()), ring_d2.one()]
    )
    assert sh.is_coboundary(rep, cover, cob)
    # the -1 transition on the overlap is exactly such a coboundary
    w = cover[0] & cover[1]
    rw = rep.local_rings[w]
    assert rw.make(*cob.units[(0, 1)]) == rw.neg(rw.one())


def test_cocycle_round_trip_exhaustive():
    """h(l(c)) = c as classes, for every unit cocycle on 2-element covers of
    the acceptance rings."""
    rings = [Zmod(12), sh.ProductRing(Zmod(7), Zmod(5))]
    for ring in rings:
        rep = sh.structure_sheaf(ring)
        X = frozenset(rep.space.points)
        opens = [u for u in rep.space.opens_sorted() if u]
        for u0, u1 in itertools.combinations(opens, 2):
            if u0 | u1 != X:
                continue
            cover = [u0, u1]
            for c in sh.cocycles_on_cover(rep, cover):
                L = sh.twist_structure_sheaf(c)
                rec = sh.recover_cocycle(L, rep, cover)
                assert sh.cocycles_equal_mod_coboundary(rep, cover, c, rec)


def test_twisting_is_a_group_action_on_classes():
    R = Zmod(36)
    rep = sh.structure_sheaf(R)
    X = frozenset(rep.space.points)
    cover = [X, rep.basic_open(2)]
    cocycles = sh.cocycles_on_cover(rep, cover)
    for c1 in cocycles[:3]:
        for c2 in cocycles[:3]:
            prod = c1.multiply(c2)
            L_prod = sh.twist_structure_sheaf(prod)
            rec = sh.recover_cocycle(L_prod, rep, cover)
            assert sh.cocycles_equal_mod_coboundary(rep, cover, prod, rec)


def test_gamma_empty_is_terminal():
    rng = random.Random(31337)
    for _ in range(20):
        space = random_space(rng, max_points=4)
        F = random_projection_presheaf(space, rng)
        G, _ = sh.sheafify(F)
        assert len(G.sections[frozenset()]) == 1


def test_structure_sheaf_of_localized_finite_ring():
    base = Zmod(12)
    localized = sh.LocalizedFiniteRing(base, [2])  # kills the 2-part
    rep = sh.structure_sheaf(localized)
    assert len(rep.primes) == 1
    assert len(rep.gamma(frozenset(rep.space.points))) == 3


def test_domain_units_of_a_localization():
    loc = sh.LocalizedFiniteRing(Zmod(12), [2])  # Z/12[1/2] = Z/3
    units = domain_units(loc)
    assert len(loc.elements()) == 3 and len(units) == 2
    for u, v in units:
        assert loc.mul(u, v) == loc.one()
    assert not loc.is_unit(loc.zero())


def test_product_identification_d_e_is_one_factor():
    P = sh.ProductRing(Zmod(7), Zmod(5))
    rep = sh.structure_sheaf(P)
    e = (1, 0)
    f = (0, 1)
    de = rep.basic_open(e)
    df = rep.basic_open(f)
    assert len(de) == 1 and len(df) == 1 and de != df
    # D(e) and V(f) agree: the prime not containing e is the one containing f
    x_e = next(iter(de))
    assert f in rep.primes[x_e]
    assert len(rep.gamma(de)) == 7
    assert len(rep.gamma(df)) == 5


def _brute_family(ring, gens):
    family = {ring.one()}
    while True:
        grown = family | {ring.mul(x, g) for x in family for g in gens}
        if grown == family:
            return family
        family = grown


def assert_fraction_classes(loc, ring, gens, elements, scale, cross, zero):
    """Oracle for a localization built from ``gens``: the classes are those
    of the rule r * cross(p, q) = 0 for some r in S, and each class is
    represented by its first pair (S sorted by str, then ``elements``)."""
    family = _brute_family(ring, gens)
    assert loc.family == sorted(family, key=str)

    def equiv(p, q):
        d = cross(p, q)
        return any(scale(r, d) == zero for r in family)

    firsts = []
    for s in loc.family:
        for x in elements:
            pair = (x, s)
            rep = loc.make(x, s)
            assert equiv(pair, rep), (pair, rep)
            if rep not in firsts:
                assert rep == pair, (pair, rep)
                firsts.append(rep)
    assert list(loc.elements()) == firsts
    for p, q in itertools.combinations(firsts, 2):
        assert not equiv(p, q), (p, q)


def _oracle_rings():
    F5, F3, F2 = Zmod(5), Zmod(3), Zmod(2)
    yield from (Zmod(n) for n in range(1, 61))
    yield sh.QuotientPolyRing(F5, (0, 0, 1))     # e^2: non-reduced
    yield sh.QuotientPolyRing(F5, (4, 0, 1))     # e^2 - 1: two points
    yield sh.QuotientPolyRing(F5, (2, 0, 1))     # e^2 + 2: GF(25)
    yield sh.QuotientPolyRing(F3, (0, 0, 0, 1))  # e^3
    yield sh.QuotientPolyRing(F2, (0, 1, 0, 1))  # e^3 + e = e(e + 1)^2
    yield sh.ProductRing(Zmod(4), Zmod(6))
    yield sh.ProductRing(sh.QuotientPolyRing(F2, (0, 0, 1)), F3)


def _oracle_seed(ring):
    """str(ring) with prime moduli written ZZ/p, so the sampled generator
    sets do not depend on how Zmod prints a prime field."""
    return re.sub(r"GF\((\d+)\)", r"ZZ/\1", str(ring))


def test_localization_matches_brute_force_oracle():
    for ring in _oracle_rings():
        rng = random.Random(_oracle_seed(ring))
        elems = ring.elements()
        gen_sets = [[], list(elems)] + [
            rng.sample(elems, rng.randrange(1, min(3, len(elems)) + 1))
            for _ in range(3)
        ]
        zero = ring.zero()
        for gens in gen_sets:
            loc = sh.LocalizedFiniteRing(ring, gens)
            family = _brute_family(ring, gens)
            assert loc.kernel == {
                a for a in elems if any(ring.mul(r, a) == zero for r in family)
            }
            assert_fraction_classes(
                loc, ring, gens, elems, ring.mul,
                lambda p, q: ring.sub(ring.mul(p[0], q[1]), ring.mul(q[0], p[1])),
                zero,
            )


def test_module_localization_matches_brute_force_oracle():
    ring = Zmod(12)
    rep = sh.structure_sheaf(ring)
    for module in z12_modules(ring):

        def cross(p, q, module=module):
            (m, s), (m2, s2) = p, q
            return module.add(module.smul(s2, m), module.smul(ring.neg(s), m2))

        _, localized = sh.module_presheaf(ring, module, rep)
        for u, loc in localized.items():
            gens = [
                f for f in ring.elements()
                if all(f not in rep.primes[x] for x in u)
            ]
            assert_fraction_classes(
                loc, ring, gens, module.elements(), module.smul, cross,
                module.zero(),
            )


def _brute_ideals(ring):
    """Every ideal, as the sums of principal ideals closed under sums."""
    elems = ring.elements()
    ideals = {frozenset(ring.mul(r, a) for r in elems) for a in elems}
    fresh = ideals
    while fresh:
        sums = {
            frozenset(ring.add(i, j) for i in a for j in b)
            for a in fresh for b in ideals
            if not (a <= b or b <= a)
        }
        fresh = sums - ideals
        ideals |= fresh
    return ideals


def _brute_primes(ring):
    """The definition: proper ideals whose complement is multiplicatively
    closed."""
    out = []
    for p in _brute_ideals(ring):
        comp = [a for a in ring.elements() if a not in p]
        if comp and all(ring.mul(a, b) not in p for a in comp for b in comp):
            out.append(p)
    return sorted(out, key=lambda p: sorted(map(str, p)))


def _brute_opens(primes):
    """The definition: subsets of Spec closed under generization."""
    idx = range(len(primes))
    return {
        frozenset(s)
        for r in range(len(primes) + 1)
        for s in itertools.combinations(idx, r)
        if all(x in s for y in s for x in idx if primes[x] <= primes[y])
    }


def test_spectrum_matches_brute_force_oracle():
    for ring in _oracle_rings():
        primes = _brute_primes(ring)
        assert sh.finite_spectrum_points(ring) == primes, ring
        space, space_primes = sh.zariski_space(ring)
        assert space_primes == primes
        assert space.opens == _brute_opens(primes), ring


def _two_point_presheaf(global_sections, to_a, to_b, local=(0, 1)):
    """Presheaf on the discrete space {a, b} with the given global sections
    and their restrictions to {a} and {b}; {a} and {b} carry ``local``."""
    space = sh.discrete_space(["a", "b"])
    empty, a, b = frozenset(), frozenset(["a"]), frozenset(["b"])
    whole = a | b
    sections = {empty: [()], a: list(local), b: list(local), whole: global_sections}
    restrictions = {
        (whole, a): {s: to_a(s) for s in global_sections},
        (whole, b): {s: to_b(s) for s in global_sections},
        (whole, empty): {s: () for s in global_sections},
        (a, empty): {s: () for s in local},
        (b, empty): {s: () for s in local},
    }
    return sh.FinitePresheaf(space, sections, restrictions)


@pytest.mark.parametrize(
    "global_sections, to_a, to_b, expected",
    [
        # the compatible family (1, 1) has no gluing
        ([(0, 0), (0, 1), (1, 0)], lambda s: s[0], lambda s: s[1], False),
        # every compatible family has two gluings
        ([(x, y, t) for x in (0, 1) for y in (0, 1) for t in "uv"],
         lambda s: s[0], lambda s: s[1], False),
        # pairs of local sections: exactly one gluing each
        ([(x, y) for x in (0, 1) for y in (0, 1)],
         lambda s: s[0], lambda s: s[1], True),
        # the same pairs with (0, 0) listed twice: it counts as two gluings
        ([(0, 0)] + [(x, y) for x in (0, 1) for y in (0, 1)],
         lambda s: s[0], lambda s: s[1], False),
    ],
    ids=["no-gluing", "two-gluings", "sheaf", "listed-twice"],
)
def test_gluing_check_counts_gluings(global_sections, to_a, to_b, expected):
    F = _two_point_presheaf(global_sections, to_a, to_b)
    assert F.is_sheaf() is expected


@pytest.mark.parametrize("ring", [
    sh.QuotientPolyRing(Zmod(5), (0,) * 8 + (1,)),  # GF(5)[e]/(e^8): 5^8 elements
    sh.ProductRing(Zmod(70), Zmod(70)),
], ids=["quotient", "product"])
def test_structure_sheaf_refuses_a_large_ring_before_listing_it(ring):
    from scheme_explorer.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded, match=f"{ring.order()} elements"):
        sh.structure_sheaf(ring)
    assert ring._elements is None


# ---------------------------------------------------------------------------
# one-pass localizations and the unit table against the earlier algorithms
# ---------------------------------------------------------------------------

def _reference_fractions(ring, family, elements, scale):
    """The |A|·|S| construction: t_s by a search of the ring for each s in
    S, then a key for every pair; returns the class list and every pair's
    class."""
    prod = ring.one()
    for s in family:
        prod = ring.mul(prod, s)
    e = prod
    while ring.mul(e, e) != e:
        e = ring.mul(e, prod)
    reps, canon = {}, {}
    for s in family:
        es = ring.mul(e, s)
        et = ring.mul(e, next(t for t in ring.elements() if ring.mul(es, t) == e))
        for x in elements:
            canon[(x, s)] = reps.setdefault(scale(et, x), (x, s))
    return list(reps.values()), canon


def _reference_units(dom):
    """Each unit with the first element of ``dom`` that inverts it."""
    one = dom.one()
    units = []
    for a in dom.elements():
        inverse = next((b for b in dom.elements() if dom.mul(a, b) == one), None)
        if inverse is not None:
            units.append((a, inverse))
    return units


def _assert_matches_reference(loc, ring, elements, scale):
    classes, canon = _reference_fractions(ring, loc.family, elements, scale)
    assert loc.elements() == classes
    for (x, s), rep in canon.items():
        assert loc.make(x, s) == rep, (x, s)


def test_one_pass_localization_matches_the_reference():
    for ring in _oracle_rings():
        rng = random.Random(_oracle_seed(ring))
        elems = ring.elements()
        gen_sets = [[], list(elems)] + [
            rng.sample(elems, rng.randrange(1, min(3, len(elems)) + 1))
            for _ in range(3)
        ]
        for gens in gen_sets:
            loc = sh.LocalizedFiniteRing(ring, gens)
            units = domain_units(loc)  # on a fresh instance, before any make
            _assert_matches_reference(loc, ring, elems, ring.mul)
            assert units == _reference_units(loc), (ring, gens)
        assert domain_units(ring) == _reference_units(ring), ring


def test_one_pass_module_localization_matches_the_reference():
    ring = Zmod(12)
    rep = sh.structure_sheaf(ring)
    for module in z12_modules(ring):
        _, localized = sh.module_presheaf(ring, module, rep)
        for loc in localized.values():
            _assert_matches_reference(loc, ring, module.elements(), module.smul)


def test_localization_lists_the_ring_once():
    ring = sh.QuotientPolyRing(Zmod(3), (1, 0, 0, 1))  # e^3 + 1 = (e + 1)^3
    calls = []
    listed = ring.elements

    def counted():
        calls.append(1)
        return listed()

    ring.elements = counted
    loc = sh.LocalizedFiniteRing(ring, [(2, 1, 0), (0, 1, 1)])
    assert len(loc.family) > 1 and len(calls) == 1


@pytest.mark.parametrize("ring, unit, non_unit", [
    (sh.QuotientPolyRing(Zmod(5), (0, 0, 1)), (2, 1), (0, 3)),
    (sh.ProductRing(Zmod(4), Zmod(6)), (3, 5), (2, 1)),
], ids=["quotient", "product"])
def test_unit_table_inverts_units_and_refuses_non_units(ring, unit, non_unit):
    from scheme_explorer.errors import NotInvertible

    inverse = ring.inv(unit)
    assert ring.mul(unit, inverse) == ring.one()
    assert (unit, inverse) in _reference_units(ring)
    with pytest.raises(NotInvertible):
        ring.inv(non_unit)
    assert ring.is_unit(unit) and not ring.is_unit(non_unit)


def test_unit_table_is_built_once_per_ring(monkeypatch):
    from scheme_explorer import arith

    built = []
    real = arith._unit_table
    monkeypatch.setattr(arith, "_unit_table", lambda dom: built.append(dom) or real(dom))
    first, second = sh.ProductRing(Zmod(4), Zmod(6)), sh.ProductRing(Zmod(4), Zmod(6))
    for ring in (first, second, first):
        domain_units(ring)
        ring.is_unit((2, 1))
    assert built == [first, second]


def test_unit_table_needs_a_finite_domain():
    from scheme_explorer.arith import Domain
    from scheme_explorer.errors import InfiniteDomain

    class Integers(Domain):
        def from_int(self, n):
            return n

        def mul(self, a, b):
            return a * b

    with pytest.raises(InfiniteDomain):
        Integers().inv(3)


def test_localized_inverse_canonicalizes_its_argument():
    from scheme_explorer.errors import NotInvertible

    loc = sh.LocalizedFiniteRing(Zmod(12), [2])  # Z/12[1/2] = Z/3
    half = (1, 2)
    assert half not in loc.elements()
    assert loc.inv(half) == loc.make(2)
    assert loc.mul(loc.inv(half), loc.make(*half)) == loc.one()
    assert loc.inv((5, 4)) == loc.inv(loc.make(5, 4))
    for non_unit in ((3, 1), (6, 4), (0, 2)):  # 3 = 0 in Z/3
        with pytest.raises(NotInvertible):
            loc.inv(non_unit)


# ---------------------------------------------------------------------------
# size budgets of the exhaustive enumerations
# ---------------------------------------------------------------------------

def test_localization_refuses_a_large_ring_before_listing_it():
    from scheme_explorer.algebra import LocalizationContext
    from scheme_explorer.errors import BudgetExceeded

    ring = sh.QuotientPolyRing(Zmod(5), (0,) * 8 + (1,))  # 5^8 elements
    with pytest.raises(BudgetExceeded, match="390625 elements"):
        sh.LocalizedFiniteRing(ring, [(1,) + (0,) * 7])
    assert ring._elements is None
    with pytest.raises(BudgetExceeded):
        LocalizationContext.over_zmod(10 ** 12, [2])


def test_sheafify_refuses_too_many_germ_families():
    from scheme_explorer.errors import BudgetExceeded

    F = constant_presheaf(sh.discrete_space(["a", "b", "c"]), range(101))
    with pytest.raises(BudgetExceeded, match="1030301 germ families"):
        sh.sheafify(F)


def test_twist_refuses_too_many_section_families():
    from scheme_explorer import dsl
    from scheme_explorer.cli import run_script

    records, had_error = run_script(dsl.parse(
        'sheaf twist --space "spec(ZZ/1009)" --cover "X,X" --cocycle 1;'
    ))
    assert had_error
    assert records[0]["error"]["code"] == "budget-exceeded"
    assert "1018081 section families" in records[0]["error"]["message"]


# ---------------------------------------------------------------------------
# the gluing search against the product filters it replaced
# ---------------------------------------------------------------------------

def _reference_sheafify_sections(F):
    """Filter the whole product of stalks on each open, pair by pair."""
    space = F.space
    sections = {}
    for u in space.opens:
        pts = sorted(u, key=str)
        families = []
        for combo in itertools.product(*(F.stalk(x) for x in pts)):
            ok = True
            for i, x in enumerate(pts):
                ux = space.minimal_open(x)
                for j, y in enumerate(pts):
                    if y != x and y in ux:
                        if combo[j] != F.restrict(combo[i], ux, space.minimal_open(y)):
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                families.append(combo)
        sections[u] = families
    return sections


def _reference_is_sheaf(F):
    """The gluing axiom checked on every cover with private points: each
    compatible family of sections has exactly one gluing."""
    if len(F.sections[frozenset()]) != 1:
        return False
    for u in F.space.opens:
        for cover in covers_of(F.space, u):
            maps = [F.restrict_map(u, v) for v in cover]
            gluings = Counter(tuple(m[s] for m in maps) for s in F.sections[u])
            for family in itertools.product(*(F.sections[v] for v in cover)):
                ok = all(
                    F.restrict(si, vi, vi & vj) == F.restrict(sj, vj, vi & vj)
                    for (vi, si), (vj, sj) in itertools.combinations(zip(cover, family), 2)
                )
                if ok and gluings[family] != 1:
                    return False
    return True


def _reference_twist_sections(cocycle):
    report, cover = cocycle.report, cocycle.cover
    n = len(cover)
    sections = {}
    for u in report.space.opens:
        pieces = [report.local_rings[u & c].elements() for c in cover]
        families = []
        for combo in itertools.product(*pieces):
            ok = True
            for i in range(n):
                for j in range(i + 1, n):
                    w = u & cover[i] & cover[j]
                    rw = report.local_rings[w]
                    si, sj = rw.make(*combo[i]), rw.make(*combo[j])
                    if si != rw.mul(cocycle.restricted(i, j, w), sj):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                families.append(combo)
        sections[u] = families
    return sections


def _reference_equal_mod_coboundary(report, cover, c1, c2):
    """Scan every family of units, testing every ordered pair of opens."""
    unit_lists = [[a for a, _ in domain_units(report.local_rings[u])] for u in cover]
    n = len(cover)
    for combo in itertools.product(*unit_lists):
        ok = True
        for i in range(n):
            for j in range(n):
                rw = report.local_rings[cover[i] & cover[j]]
                ai, aj = rw.make(*combo[i]), rw.make(*combo[j])
                lhs = rw.mul(rw.make(*c1.units[(i, j)]), aj)
                rhs = rw.mul(rw.make(*c2.units[(i, j)]), ai)
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def _two_open_covers(rep):
    whole = frozenset(rep.space.points)
    opens = [u for u in rep.space.opens_sorted() if u]
    return [[u0, u1] for u0 in opens for u1 in opens if u0 | u1 == whole]


def test_sheafify_lists_the_reference_families_in_order():
    rng = random.Random(2024)
    for _ in range(60):
        space = random_space(rng, max_points=4)
        F = random_projection_presheaf(space, rng)
        G, _ = sh.sheafify(F)
        assert G.sections == {
            u: tuple(fams) for u, fams in _reference_sheafify_sections(F).items()
        }
        assert F.is_sheaf() == _reference_is_sheaf(F)


@pytest.mark.parametrize("kind", [
    lambda F, rng: F, sub_presheaf, tagged_presheaf,
], ids=["projection", "dropped-sections", "tagged-twice"])
def test_germ_family_criterion_matches_the_gluing_oracle(kind):
    """Projection presheaves, sub-presheaves (which lose gluings) and
    sections listed twice under a forgotten tag (which glue twice): in each
    kind ``is_sheaf`` agrees with the search over every cover, and both
    verdicts occur."""
    rng = random.Random(29)
    verdicts = Counter()
    for _ in range(80):
        F = kind(random_projection_presheaf(random_space(rng, max_points=4), rng), rng)
        expected = _reference_is_sheaf(F)
        assert F.is_sheaf() == expected
        verdicts[expected] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_twist_lists_the_reference_families_in_order():
    for ring in _oracle_rings():
        rep = sh.structure_sheaf(ring)
        for cover in _two_open_covers(rep):
            c = sh.cocycles_on_cover(rep, cover)[-1]
            assert sh.twist_structure_sheaf(c).sections == {
                u: tuple(fams) for u, fams in _reference_twist_sections(c).items()
            }, (ring, cover)


def test_coboundary_search_matches_the_reference():
    for ring in (Zmod(12), Zmod(30), sh.ProductRing(Zmod(7), Zmod(5)),
                 sh.QuotientPolyRing(Zmod(2), (0, 1, 0, 1))):
        rep = sh.structure_sheaf(ring)
        for cover in _two_open_covers(rep):
            cocycles = sh.cocycles_on_cover(rep, cover)
            for c1, c2 in itertools.product(cocycles[:6], repeat=2):
                assert sh.cocycles_equal_mod_coboundary(rep, cover, c1, c2) == (
                    _reference_equal_mod_coboundary(rep, cover, c1, c2)
                ), (ring, cover)


def test_coboundary_search_refuses_too_many_unit_families():
    from scheme_explorer.errors import BudgetExceeded

    rep = sh.structure_sheaf(Zmod(1009))
    X = frozenset(rep.space.points)
    c = sh.trivial_cocycle(rep, [X, X])
    with pytest.raises(BudgetExceeded, match="1016064 unit families"):
        sh.cocycles_equal_mod_coboundary(rep, [X, X], c, c)


def test_gluing_check_refuses_too_many_gluing_families():
    from scheme_explorer.errors import BudgetExceeded

    F = _two_point_presheaf([(0, 0)], lambda s: s[0], lambda s: s[1], range(1001))
    with pytest.raises(BudgetExceeded, match="1002001 germ families"):
        F.is_sheaf()


_FIRST_BUDGET_ERROR = """
import random
import sys

sys.path.insert(0, sys.argv[1])
from helpers_sheaf import random_projection_presheaf, random_space
from scheme_explorer import sheaf as sh
from scheme_explorer.errors import BudgetExceeded

rng = random.Random(31337)
for _ in range(56):
    space = random_space(rng)
    presheaf = random_projection_presheaf(space, rng)
try:
    sh.sheafify(presheaf)
except BudgetExceeded as err:
    sys.stdout.write(str(err))
"""


def test_the_first_budget_error_does_not_depend_on_the_hash_seed():
    """The 56th random space of the seed (5 points): its opens are walked in
    ``opens_sorted`` order, so the same open trips the germ-family budget
    under every PYTHONHASHSEED."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    tests = Path(__file__).resolve().parent
    messages = []
    for hash_seed in ("1", "4"):
        env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", _FIRST_BUDGET_ERROR, str(tests)],
                              capture_output=True, text=True, env=env, check=True)
        messages.append(proc.stdout)
    assert messages[0] == messages[1]
    assert "germ families exceed the budget" in messages[0]


# ---------------------------------------------------------------------------
# restriction maps built on first read against the maps built up front
# ---------------------------------------------------------------------------

def _derived_presheaves(ring, rng):
    """The structure presheaf, the structure sheaf and a twist of it by a
    seeded cocycle on a seeded two-open cover, none with a map read yet."""
    rep = sh.structure_sheaf(ring)
    cover = rng.choice(_two_open_covers(rep))
    cocycle = rng.choice(sh.cocycles_on_cover(rep, cover))
    return [sh.structure_presheaf(ring)[0], rep.sheaf, sh.twist_structure_sheaf(cocycle)]


def test_restriction_maps_built_on_first_read_equal_the_eager_ones():
    rng = random.Random(2026)
    rings = [Zmod(n) for n in rng.sample(range(2, 61), 2) + [rng.choice([30, 42, 60])]] + [
        sh.QuotientPolyRing(Zmod(5), tuple(rng.randrange(5) for _ in range(d)) + (1,))
        for d in (2, 3)
    ] + [sh.ProductRing(Zmod(rng.randrange(2, 9)), Zmod(rng.randrange(2, 9)))]
    for ring in rings:
        for F in _derived_presheaves(ring, rng):
            eager = eager_presheaf(F)
            opens = F.space.opens_sorted()
            pairs = [(u, v) for u in opens for v in opens if v < u]
            rng.shuffle(pairs)
            for u, v in pairs:
                first = F.restrict_map(u, v)
                assert first == eager.restrict_map(u, v), (ring, u, v)
                assert F.restrict_map(u, v) is first
            for u in opens:
                assert all(F.restrict(s, u, u) is s for s in F.sections[u])
                for v in opens:
                    if not v <= u:
                        with pytest.raises(KeyError):
                            F.restrict_map(u, v)


def _statement_sheaves(monkeypatch, text):
    """The records of one statement, and the structure sheaf report, then
    the twisted sheaf if any, that it builds."""
    from scheme_explorer import dsl
    from scheme_explorer.cli import run_script

    built = []
    for name in ("structure_sheaf", "twist_structure_sheaf"):
        make = getattr(sh, name)
        monkeypatch.setattr(sh, name, lambda *a, make=make: built.append(make(*a)) or built[-1])
    records, had_error = run_script(dsl.parse(text))
    assert not had_error, records
    return records, built


def test_a_twist_statement_builds_no_map_of_the_twisted_sheaf(monkeypatch):
    """Of the 19 pairs V < U on spec(ZZ/30), a twist reads no map of the
    structure presheaf, of its sheafification or of the twisted sheaf, and
    it makes no germ family and no comparison map pi."""
    records, (report, twisted) = _statement_sheaves(
        monkeypatch, 'sheaf twist --space "spec(ZZ/30)" --cover "X,D(2)" --cocycle -1;')
    assert records[0]["data"]["round_trip_class_ok"]
    assert report.presheaf.restrictions == {}
    assert report.sheaf.restrictions == {} and twisted.restrictions == {}
    assert report.sheaf.sections.made == {} and report.pi.made == {}


# ---------------------------------------------------------------------------
# per-open data made on first read against the data built up front
# ---------------------------------------------------------------------------

def test_an_on_read_mapping_runs_over_every_open_but_makes_only_what_is_read():
    space = sh.discrete_space(["a", "b"])
    made = []
    m = sh.OnRead(space, lambda u: made.append(u) or len(u))
    assert list(m) == list(space.opens_sorted()) and len(m) == 4
    assert frozenset("ab") in m and frozenset("c") not in m and made == []
    assert m[frozenset("ab")] == 2 and m[frozenset("ab")] == 2
    assert made == [frozenset("ab")] and m.made == {frozenset("ab"): 2}
    with pytest.raises(KeyError):
        m[frozenset("c")]
    assert m == {u: len(u) for u in space.opens} and m != {u: 0 for u in space.opens}
    assert len(made) == 4


def _ring_key(loc):
    return loc.family, loc.elements()


def test_per_open_data_made_on_first_read_equal_the_eager_data():
    """Local rings, presheaf sections, germ families, pi and twisted section
    families read open by open in shuffled order equal the ones built up
    front; before the first read only the stalks, whose sizes bound the germ
    families, are made."""
    rng = random.Random(2027)
    rings = [Zmod(n) for n in rng.sample(range(2, 61), 3) + [rng.choice([30, 42, 60])]] + [
        sh.QuotientPolyRing(Zmod(5), tuple(rng.randrange(5) for _ in range(d)) + (1,))
        for d in (2, 2, 3)
    ] + [sh.ProductRing(Zmod(rng.randrange(2, 9)), Zmod(rng.randrange(2, 9)))]
    for ring in rings:
        eager, lazy = eager_structure_sheaf(ring), sh.structure_sheaf(ring)
        stalks = {lazy.space.minimal_open(x) for x in lazy.space.points}
        assert set(lazy.local_rings.made) == set(lazy.presheaf.sections.made) == stalks
        assert lazy.sheaf.sections.made == {} and lazy.pi.made == {}
        cover = rng.choice(_two_open_covers(lazy))
        eager_cocycles = sh.cocycles_on_cover(eager, cover)
        pick = rng.randrange(len(eager_cocycles))
        eager_twist = eager_presheaf(sh.twist_structure_sheaf(eager_cocycles[pick]))
        twist = sh.twist_structure_sheaf(sh.cocycles_on_cover(lazy, cover)[pick])
        assert twist.sections.made == {}
        pairs = [
            (lazy.local_rings, eager.local_rings, _ring_key),
            (lazy.presheaf.sections, eager.presheaf.sections, None),
            (lazy.sheaf.sections, eager.sheaf.sections, None),
            (lazy.pi, eager.pi, None),
            (twist.sections, eager_twist.sections, None),
        ]
        for lazy_data, eager_data, key in pairs:
            key = key or (lambda value: value)
            opens = list(lazy.space.opens_sorted())
            rng.shuffle(opens)
            for u in opens:
                first = lazy_data[u]
                assert lazy_data[u] is first and u in lazy_data.made
                assert key(first) == key(eager_data[u]), (ring, u)


@pytest.mark.parametrize("text, local, sections, germs, pi, twisted", [
    ('sheaf check --space "spec(ZZ/42)";', 8, 8, 8, 8, None),
    ('sheaf sections --space "spec(ZZ/30)" --at 2;', 3, 3, 1, 0, None),
    ('sheaf twist --space "spec(ZZ/30)" --cover "X,D(2)" --cocycle -1;', 5, 3, 0, 0, 2),
], ids=["check", "sections", "twist"])
def test_a_statement_makes_only_the_per_open_data_it_reads(monkeypatch, text, local, sections,
                                                            germs, pi, twisted):
    """Of the 8 opens of a three-point spectrum: a check decides the axiom
    of the structure presheaf, so it reads every open's local ring, sections,
    germ families and pi; a sections statement reads the germ families on
    D(2); a twist reads the local rings of the stalks, X and D(2), and the
    twisted families on X and D(2).  Every statement makes the stalks, which
    bound the germ families."""
    _, (report, *rest) = _statement_sheaves(monkeypatch, text)
    stalks = {report.space.minimal_open(x) for x in report.space.points}
    assert len(report.local_rings.made) == local and stalks <= set(report.local_rings.made)
    made = set(report.presheaf.sections.made)
    assert len(made) == sections and stalks <= made
    assert len(report.sheaf.sections.made) == germs and len(report.pi.made) == pi
    assert [len(t.sections.made) for t in rest] == ([] if twisted is None else [twisted])


# ---------------------------------------------------------------------------
# verdicts that can be false: the axiom of the structure presheaf, stalks,
# Gamma(D(f)) = A_f and the coboundary tests
# ---------------------------------------------------------------------------

def _listed_twice(F, u):
    """F with its first section on the open u listed a second time."""
    sections = {v: F.sections[v] + F.sections[v][:1] if v == u else F.sections[v]
                for v in F.space.opens_sorted()}
    return sh.FinitePresheaf(F.space, sections, {}, check=False, restriction=F._restriction)


def _report_of(presheaf, report):
    """A structure sheaf report of ``report``'s ring whose presheaf, and so
    whose sheafification and pi, are ``presheaf``'s."""
    return sh.StructureSheafReport(report.ring, report.space, report.primes, presheaf,
                                   *sh.sheafify(presheaf), report.local_rings)


def test_the_axiom_read_from_a_sheafification_matches_the_gluing_oracle():
    """``sheaf_axiom_holds`` on a sheafification that is already made, as
    ``sheaf check`` reads it from the report, agrees with the search over
    every cover on seeded sub-presheaves, and both verdicts occur."""
    rng = random.Random(31)
    verdicts = Counter()
    for _ in range(80):
        F = sub_presheaf(random_projection_presheaf(random_space(rng, max_points=4), rng), rng)
        expected = _reference_is_sheaf(F)
        assert sh.sheaf_axiom_holds(F, *sh.sheafify(F)) == expected
        verdicts[expected] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_sheaf_check_decides_the_axiom_of_the_presheaf_it_reports(monkeypatch):
    """A report whose presheaf lists a global section twice: its
    sheafification is a sheaf, but the presheaf is not, and that is what
    ``is_sheaf`` states; the stalks are untouched."""
    from scheme_explorer import dsl
    from scheme_explorer.cli import run_script

    report = sh.structure_sheaf(Zmod(12))
    X = frozenset(report.space.points)
    doubled = _report_of(_listed_twice(report.presheaf, X), report)
    assert doubled.sheaf.is_sheaf()
    monkeypatch.setattr(sh, "structure_sheaf", lambda ring: doubled)
    records, had_error = run_script(dsl.parse('sheaf check --space "spec(ZZ/12)";'))
    assert not had_error
    data = records[0]["data"]
    assert (data["is_sheaf"], data["stalks_preserved"]) == (False, True)


def test_a_sheaf_check_sheafifies_once(monkeypatch):
    calls = []
    sheafify = sh.sheafify
    monkeypatch.setattr(sh, "sheafify", lambda F: calls.append(F) or sheafify(F))
    records, _ = _statement_sheaves(monkeypatch, 'sheaf check --space "spec(ZZ/42)";')
    assert records[0]["data"]["is_sheaf"] is True
    assert len(calls) == 1


def test_a_section_listed_twice_on_a_stalk_is_not_preserved():
    report = sh.structure_sheaf(Zmod(12))
    stalk = report.space.minimal_open(report.space.points[0])
    F = _listed_twice(report.presheaf, stalk)
    sheaf, pi = sh.sheafify(F)
    assert sh.stalks_preserved(report.presheaf, report.sheaf, report.pi)
    assert not sh.stalks_preserved(F, sheaf, pi)
    assert not sh.sheaf_axiom_holds(F, sheaf, pi) and not F.is_sheaf()


def test_gamma_compared_with_the_wrong_localization_is_not_isomorphic():
    """Gamma(D(f)) = A_f is a theorem; comparing Gamma(D(3)) on spec(ZZ/12),
    four germ families, with the localization at 2, three classes, fails."""
    report = sh.structure_sheaf(Zmod(12))
    assert report.compare_gamma_with_localization(3)
    report.localization = lambda f: sh.LocalizedFiniteRing(report.ring, [2])
    assert not report.compare_gamma_with_localization(3)


def test_cocycles_that_break_the_cocycle_identity_are_not_cohomologous(monkeypatch):
    """On a discrete spectrum every unit cocycle is a coboundary, so the
    tests can only fail on a mutated cocycle: f_10 = f_01 = 3 in ZZ/7, where
    3 * 3 = 2 is not 1.  Then a_0 = 3 a_1 and a_1 = 3 a_0 force 8 a_0 = 0,
    and against the true cocycle a_0 = a_1 and 5 a_0 = 3 a_1 force 2 a_0 = 0:
    no units solve either."""
    report = sh.structure_sheaf(Zmod(7))
    X = frozenset(report.space.points)
    cover = [X, X]
    ring = report.local_rings[X]
    three = ring.from_int(3)
    true = sh.two_open_cocycle(report, cover, three)
    assert sh.is_coboundary(report, cover, true)
    monkeypatch.setattr(sh.UnitCocycle, "_check", lambda self: None)
    broken = sh.UnitCocycle(report, cover, {(0, 0): ring.one(), (1, 1): ring.one(),
                                            (0, 1): three, (1, 0): three})
    assert not sh.is_coboundary(report, cover, broken)
    assert not sh.cocycles_equal_mod_coboundary(report, cover, true, broken)
    assert not _reference_equal_mod_coboundary(report, cover, true, broken)
