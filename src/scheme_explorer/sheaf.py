"""Presheaves and sheaves on finite topological spaces.

Everything here is exhaustively checkable: spaces are finite, section
objects are finite sets (or finite rings / modules), and restriction maps
are dictionaries.  A presheaf may be given them up front; the derived ones
(structure presheaves, sheafifications, twists, images) build each map on
its first read from a restriction function, so a statement builds only the
maps it reads.  The per-open data of the structure sheaf (local rings,
section lists, germ families, the comparison map and twisted section
families) are likewise made on first read, open by open.  Sheafification
is the compatible-germ-family construction, which on a finite space only
needs the minimal open neighborhood of each point; the stalk at x is the
value on that minimal open.  Its comparison pi also decides the sheaf
axiom, in ``sheaf_axiom_holds``: F is a sheaf iff F(empty) is one point
and pi maps each F(U) one-to-one onto the germ families on U.  A
structure sheaf report carries its presheaf, sheafification and pi, so
the axiom of the structure presheaf is read from them, with no second
sheafification.

A finite ring A is the product of the local rings eA over its primitive
idempotents e (Atiyah-Macdonald, Thm 8.7).  So its primes are the
p_e = {a : ae nilpotent}, all of them maximal, and Spec A is discrete.  The
structure sheaf takes each open U to the localization at S(U), the elements
vanishing nowhere on U, so the classical comparison Gamma(D(f)) = A_f can be
checked element by element.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping

from .arith import Domain, Zmod, _dense_str, domain_units
from .errors import (
    BudgetExceeded,
    NonInvertibleUnit,
    NotInvertible,
    Unsupported,
)

# Sizes of the exhaustive enumerations, checked before each one starts.  The
# shipped scripts and the benchmark decks localize rings of at most 36
# elements and search at most 42 germ, 1,156 section and 576 unit
# families in one ``_glued`` call; the test suite goes up to 60
# elements and 314,928 germ families.  A structure sheaf lists its ring
# once per open, so it takes rings of at most 4,000 elements.
_RING_BUDGET = 100_000
_SHEAF_RING_BUDGET = 4_000
_FAMILY_BUDGET = 1_000_000


def _check_budget(size, budget, what):
    if size > budget:
        raise BudgetExceeded(f"{size} {what} exceed the budget of {budget}")


def _glued(choices, pair, what):
    """The tuples of ``itertools.product(*choices)`` whose entries pass every
    pairwise test, lazily and in the product's order.  ``pair(j, i)`` for
    j < i is None or a test (s_j, s_i) -> bool; it runs as soon as s_i is
    chosen, so a prefix that fails it is never extended."""
    _check_budget(math.prod(map(len, choices)), _FAMILY_BUDGET, what)
    families = iter([()])
    for i, here in enumerate(choices):
        tests = [(j, t) for j in range(i) if (t := pair(j, i)) is not None]
        families = _extend(families, here, tests)
    return families


def _extend(families, here, tests):
    # a function of its own, so that each level binds its own here and tests
    for family in families:
        for s in here:
            for j, test in tests:
                if not test(family[j], s):
                    break
            else:
                yield family + (s,)


class FiniteSpace:
    """A finite topological space with explicitly listed opens."""

    def __init__(self, points, opens):
        self.points = tuple(points)
        self.opens = frozenset(frozenset(u) for u in opens)
        pointset = frozenset(self.points)
        if frozenset() not in self.opens or pointset not in self.opens:
            raise ValueError("a topology contains the empty set and the space")
        for u in self.opens:
            for v in self.opens:
                if u | v not in self.opens or u & v not in self.opens:
                    raise ValueError("opens must be closed under union and meet")
        self._minimal = {}
        for x in self.points:
            m = frozenset(self.points)
            for u in self.opens:
                if x in u:
                    m = m & u
            if m not in self.opens:
                raise ValueError(f"minimal neighborhood of {x} is not open")
            self._minimal[x] = m
        self._sorted = tuple(sorted(self.opens, key=lambda u: (len(u), sorted(map(str, u)))))

    def minimal_open(self, x):
        return self._minimal[x]

    def opens_sorted(self):
        """The opens by size, then by their points' names: the order every
        walk over the opens takes, so no result depends on the hash seed."""
        return self._sorted

    def __repr__(self):
        return f"FiniteSpace({list(self.points)}, {len(self.opens)} opens)"


def discrete_space(points):
    pts = list(points)
    opens = []
    for r in range(len(pts) + 1):
        for combo in itertools.combinations(pts, r):
            opens.append(frozenset(combo))
    return FiniteSpace(pts, opens)


class OnRead(Mapping):
    """A mapping from the opens of a space to ``make(u)``, made on the first
    read of u and kept in ``made``.  Membership, iteration (in
    ``opens_sorted`` order) and length run over all the opens; a key that is
    not an open is a KeyError."""

    def __init__(self, space: FiniteSpace, make):
        self._space = space
        self._make = make
        self.made = {}

    def __getitem__(self, u):
        try:
            return self.made[u]
        except KeyError:
            if u not in self._space.opens:
                raise
        value = self.made[u] = self._make(u)
        return value

    def __contains__(self, u):
        return u in self._space.opens

    def __iter__(self):
        return iter(self._space.opens_sorted())

    def __len__(self):
        return len(self._space.opens)


class FinitePresheaf:
    """Section lists per open and dict restriction maps.  The sections are
    given in a dict, or in an ``OnRead`` mapping with tuple values that
    makes each list on its first read.  The maps are given in
    ``restrictions``, or ``restriction(u, v)`` is the function on sections
    from u to an open v < u, and ``restrict_map`` builds and keeps the map
    of a pair the first time it is read."""

    def __init__(self, space: FiniteSpace, sections, restrictions, check=True,
                 restriction=None):
        self.space = space
        if isinstance(sections, OnRead):
            self.sections = sections
        else:
            self.sections = {frozenset(u): tuple(s) for u, s in sections.items()}
        self.restrictions = {
            (frozenset(u), frozenset(v)): dict(m)
            for (u, v), m in restrictions.items()
        }
        self._restriction = restriction
        if check:
            self._check_axioms()

    def _check_axioms(self):
        for u in self.space.opens:
            if u not in self.sections:
                raise ValueError(f"missing sections over {set(u)}")
        opens = self.space.opens_sorted()
        for u in opens:
            ru = self.restrict_map(u, u)
            for s in self.sections[u]:
                if ru[s] != s:
                    raise ValueError("restriction U->U must be the identity")
        for u in opens:
            for v in opens:
                if not v < u:
                    continue
                for w in opens:
                    if not w < v:
                        continue
                    uv = self.restrict_map(u, v)
                    vw = self.restrict_map(v, w)
                    uw = self.restrict_map(u, w)
                    for s in self.sections[u]:
                        if vw[uv[s]] != uw[s]:
                            raise ValueError("restrictions fail to compose")

    def restrict_map(self, u, v):
        """The map from sections on u to sections on v; a KeyError unless
        v is an open inside the open u."""
        u, v = frozenset(u), frozenset(v)
        if u == v:
            return {s: s for s in self.sections[u]}
        m = self.restrictions.get((u, v))
        if m is None:
            if self._restriction is None or not v < u or v not in self.sections:
                raise KeyError((u, v))
            r = self._restriction(u, v)
            m = self.restrictions[(u, v)] = {s: r(s) for s in self.sections[u]}
        return m

    def restrict(self, s, u, v):
        if u == v:
            return s
        return self.restrict_map(u, v)[s]

    def stalk(self, x):
        """Sections on the minimal open: the stalk on a finite space."""
        return self.sections[self.space.minimal_open(x)]

    def is_sheaf(self):
        """Whether F is a sheaf: ``sheaf_axiom_holds`` on its sheafification
        (F(empty) of other than one point answers before any germ family
        is counted)."""
        if len(self.sections[frozenset()]) != 1:
            return False
        return sheaf_axiom_holds(self, *sheafify(self))


def _presheaf(space, sections, restriction, check=False):
    """The presheaf with ``sections`` whose map from U to an open V < U is
    the function ``restriction(u, v)`` on sections, built on first read."""
    return FinitePresheaf(space, sections, {}, check, restriction)


def sheafify(F: FinitePresheaf):
    """Compatible-germ-family sheaf plus the comparison morphism.

    A section over U picks a germ g_x in the stalk at x for every x in U
    such that g_y is the restriction of g_x whenever y lies in the minimal
    open of x.  Returns (sheaf, pi) with pi a per-open dict s -> germ tuple.
    The germ families and pi are made per open on first read; the budget of
    every open is checked here, from the stalk sizes, in ``opens_sorted``
    order.
    """
    space = F.space
    for u in space.opens_sorted():
        _check_budget(math.prod(len(F.stalk(x)) for x in u), _FAMILY_BUDGET,
                      "germ families")

    def germ_test(x, y):
        # x in U_y and y in U_x make U_x = U_y: then one test covers both
        ux, uy = space.minimal_open(x), space.minimal_open(y)
        if x in uy:
            down = F.restrict_map(uy, ux)
            return lambda gx, gy: down[gy] == gx
        if y in ux:
            down = F.restrict_map(ux, uy)
            return lambda gx, gy: down[gx] == gy

    def germ_families(u):
        pts = sorted(u, key=str)
        return tuple(_glued([F.stalk(x) for x in pts],
                            lambda j, i: germ_test(pts[j], pts[i]), "germ families"))

    def comparison(u):
        germs = [F.restrict_map(u, space.minimal_open(x)) for x in sorted(u, key=str)]
        return {s: tuple(g[s] for g in germs) for s in F.sections[u]}

    def restriction(u, v):
        ptsu = sorted(u, key=str)
        pick = [ptsu.index(y) for y in sorted(v, key=str)]
        return lambda fam: tuple(fam[i] for i in pick)

    return _presheaf(space, OnRead(space, germ_families), restriction), OnRead(space, comparison)


def _bijective_on(F, sheaf, pi, u):
    """pi maps the sections of F on u, each listing counted, one-to-one onto
    the germ families on u."""
    images = [pi[u][s] for s in F.sections[u]]
    found = set(images)
    return len(found) == len(images) and found == set(sheaf.sections[u])


def sheaf_axiom_holds(F: FinitePresheaf, sheaf, pi):
    """Whether F is a sheaf, given its sheafification and comparison pi:
    on every open U, pi maps the sections of F one-to-one onto the germ
    families on U.  On the empty open that says F(empty) is one point.

    The minimal opens U_x form a basis, and every cover of U_x contains
    U_x itself, so a sheaf is determined by its sections on the U_x and
    F is a sheaf iff F(U) -> {compatible germ families on U} is a
    bijection for every U (Stacks Project, Tag 009H; Curry 2014,
    arXiv:1303.3255).  The germ families form a sheaf, and pi is a
    morphism of presheaves; conversely, a compatible family of germs
    agrees on each U_z of an overlap, so in a sheaf it glues to one
    section.  A section listed twice counts twice.
    """
    return all(_bijective_on(F, sheaf, pi, u) for u in F.space.opens_sorted())


def stalks_preserved(F: FinitePresheaf, sheaf, pi):
    """pi induces a bijection on every stalk (minimal-open comparison)."""
    return all(_bijective_on(F, sheaf, pi, F.space.minimal_open(x)) for x in F.space.points)


# ---------------------------------------------------------------------------
# morphisms and images
# ---------------------------------------------------------------------------

class PresheafMorphism:
    def __init__(self, source, target, maps):
        self.source = source
        self.target = target
        self.maps = {frozenset(u): dict(m) for u, m in maps.items()}
        for u in source.space.opens:
            for v in source.space.opens:
                if not v < u:
                    continue
                for s in source.sections[u]:
                    left = self.maps[v][source.restrict(s, u, v)]
                    right = target.restrict(self.maps[u][s], u, v)
                    if left != right:
                        raise ValueError("morphism does not commute with restrictions")

    def is_injective(self):
        return all(
            len(set(self.maps[u].values())) == len(self.source.sections[u])
            for u in self.source.space.opens
        )


def presheaf_image(phi: PresheafMorphism):
    """The naive open-by-open image, as a presheaf."""
    src, tgt = phi.source, phi.target
    space = tgt.space
    sections = {
        u: sorted({phi.maps[u][s] for s in src.sections[u]}, key=str)
        for u in space.opens
    }
    return _presheaf(
        space, sections, lambda u, v: tgt.restrict_map(u, v).__getitem__, check=True
    )


def sheaf_image(phi: PresheafMorphism):
    """Sections of the target that locally admit preimages."""
    src, tgt = phi.source, phi.target
    space = tgt.space
    sections = {}
    for u in space.opens:
        out = []
        for t in tgt.sections[u]:
            ok = True
            for x in u:
                ux = space.minimal_open(x)
                local = tgt.restrict(t, u, ux)
                if local not in {phi.maps[ux][s] for s in src.sections[ux]}:
                    ok = False
                    break
            if ok:
                out.append(t)
        sections[u] = out
    return _presheaf(
        space, sections, lambda u, v: tgt.restrict_map(u, v).__getitem__, check=True
    )


# ---------------------------------------------------------------------------
# finite rings
# ---------------------------------------------------------------------------

ZmodFinite = Zmod  # the older name of the integers mod n, kept for callers


class QuotientPolyRing(Domain):
    """k[T]/(f) for a finite coefficient ring k, f monic.

    Elements are coefficient tuples of length deg(f), low degree first.
    """

    _elements = None

    def __init__(self, coeff_ring, modulus, var="e"):
        self.k = coeff_ring
        self.modulus = tuple(modulus)
        if self.modulus[-1:] != (self.k.one(),):
            raise Unsupported("modulus must be monic")
        self.deg = len(self.modulus) - 1
        self.var = var

    def elements(self):
        if self._elements is None:
            self._elements = list(
                itertools.product(self.k.elements(), repeat=self.deg)
            )
        return self._elements

    def order(self):
        return self.k.order() ** self.deg

    def from_int(self, n):
        return tuple(
            self.k.from_int(n) if i == 0 else self.k.zero() for i in range(self.deg)
        )

    def add(self, a, b):
        return tuple(self.k.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.k.neg(x) for x in a)

    def mul(self, a, b):
        size = 2 * self.deg - 1 if self.deg else 0
        prod = [self.k.zero()] * size
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = self.k.add(prod[i + j], self.k.mul(x, y))
        for top in range(size - 1, self.deg - 1, -1):
            c = prod[top]
            if c == self.k.zero():
                continue
            prod[top] = self.k.zero()
            for i in range(self.deg):
                prod[top - self.deg + i] = self.k.sub(
                    prod[top - self.deg + i], self.k.mul(c, self.modulus[i])
                )
        return tuple(prod[: self.deg])

    def format(self, a):
        return _dense_str(self.k, a, self.var) or "0"

    def __repr__(self):
        return f"{self.k}[{self.var}]/(deg {self.deg})"


class ProductRing(Domain):
    _elements = None

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def elements(self):
        if self._elements is None:
            self._elements = [
                (a, b) for a in self.left.elements() for b in self.right.elements()
            ]
        return self._elements

    def order(self):
        return self.left.order() * self.right.order()

    def from_int(self, n):
        return (self.left.from_int(n), self.right.from_int(n))

    def add(self, a, b):
        return (self.left.add(a[0], b[0]), self.right.add(a[1], b[1]))

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def neg(self, a):
        return (self.left.neg(a[0]), self.right.neg(a[1]))

    def format(self, a):
        return f"({self.left.format(a[0])}, {self.right.format(a[1])})"

    def __repr__(self):
        return f"{self.left} x {self.right}"


def multiplicative_closure(ring, gens):
    """The multiplicative family generated by ``gens`` and 1, sorted by str."""
    one = ring.one()
    fam = {one}
    frontier = [one]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ring.mul(x, g)
            if y not in fam:
                fam.add(y)
                frontier.append(y)
    return sorted(fam, key=str)


def _orbit_inverse(ring, e, u):
    """The inverse of u in eA.  The powers u, u^2, ... of a unit of eA return
    to its identity e within |A| steps, and u^k = e gives the inverse
    u^(k-1) (with u^0 = e); they never return if u is no unit."""
    prev, power = e, u
    for _ in range(ring.order()):
        if power == e:
            return prev
        prev, power = power, ring.mul(power, u)
    raise NotInvertible(f"{ring.format(u)} is not a unit of eA")


class _Fractions:
    """Fraction classes (x, s) for x in ``elements``, s in a multiplicative
    family S that is closed and sorted by str, with ``scale(r, x)`` the
    action of the ring.

    Some power e of the product of S is idempotent, every s in S divides
    it, and S^{-1}A = eA (Atiyah-Macdonald, ch. 3): r x = 0 for some r in
    S iff e x = 0, and e s has an inverse e t_s in eA.  So x/s = y/t iff
    e t_s x = e t_t y, and ``scale(e t_s, x)`` is a canonical key.  A class
    is represented by its first pair when pairs are visited in the order of
    S, then ``elements`` in order.  As e t_s is a unit of eA, the pairs over
    the first s0 of S already meet every key, so one pass over ``elements``
    lists the classes, each as some (x, s0).  ``make`` finds e t_s from the
    powers of e s the first time it meets s, and remembers each pair's class.
    """

    def __init__(self, ring, family, elements, scale):
        self.ring = ring
        self.family = family
        self._scale = scale
        prod = ring.one()
        for s in family:
            prod = ring.mul(prod, s)
        e = prod
        while ring.mul(e, e) != e:
            e = ring.mul(e, prod)
        self._e = e
        self._units = dict.fromkeys(family)  # s -> e t_s, filled on demand
        s0 = family[0]
        unit = self._unit(s0)
        reps = {}
        for x in elements:
            reps.setdefault(scale(unit, x), (x, s0))
        self._reps = reps
        self._class_list = list(reps.values())
        self._canon = {}

    def _unit(self, s):
        """e t_s; a KeyError for s outside S."""
        unit = self._units[s]
        if unit is None:
            es = self.ring.mul(self._e, s)
            unit = self._units[s] = _orbit_inverse(self.ring, self._e, es)
        return unit

    def make(self, x, s=None):
        pair = (x, self.ring.one() if s is None else s)
        rep = self._canon.get(pair)
        if rep is None:
            rep = self._reps[self._scale(self._unit(pair[1]), x)]
            self._canon[pair] = rep
        return rep

    def elements(self):
        return self._class_list


class LocalizedFiniteRing(_Fractions, Domain):
    """S^{-1}A for a finite ring A, S the family generated by given elems.

    Fraction equality is the quantified rule r(at - bs) = 0 for some r in
    S.  With e the idempotent power of the product of S, S^{-1}A = eA: the
    kernel K = {a : ra = 0 for some r in S} is Ann(e), and a/s has the
    canonical key e t_s a, where e s t_s = e (see ``_Fractions``).  Every
    operation returns a canonical class; ``inv`` looks its argument up in
    the unit table of ``Domain`` after canonicalizing it.
    """

    def __init__(self, ring: Domain, gens):
        _check_budget(ring.order(), _RING_BUDGET, f"elements of {ring} to localize")
        super().__init__(
            ring, multiplicative_closure(ring, gens), ring.elements(), ring.mul
        )

    @classmethod
    def of_family(cls, ring: Domain, family):
        """S^{-1}A for a family S that is already closed and sorted by str."""
        loc = cls.__new__(cls)
        _Fractions.__init__(loc, ring, family, ring.elements(), ring.mul)
        return loc

    @property
    def kernel(self):
        zero = self.ring.zero()
        return frozenset(
            a for a in self.ring.elements() if self.ring.mul(self._e, a) == zero
        )

    def from_int(self, n):
        return self.make(self.ring.from_int(n))

    def add(self, x, y):
        (a, s), (b, t) = x, y
        num = self.ring.add(self.ring.mul(a, t), self.ring.mul(b, s))
        return self.make(num, self.ring.mul(s, t))

    def mul(self, x, y):
        (a, s), (b, t) = x, y
        return self.make(self.ring.mul(a, b), self.ring.mul(s, t))

    def neg(self, x):
        return self.make(self.ring.neg(x[0]), x[1])

    def inv(self, x):
        return super().inv(self.make(*x))

    def format(self, x):
        a, s = x
        if s == self.ring.one():
            return self.ring.format(a)
        return f"{self.ring.format(a)}/{self.ring.format(s)}"

    def __repr__(self):
        return f"Localized({self.ring}; |S|={len(self.family)})"


# ---------------------------------------------------------------------------
# Spec of a finite ring and its structure sheaf
# ---------------------------------------------------------------------------

def finite_spectrum_points(ring: Domain):
    """Prime ideals of a finite commutative ring, as frozensets of elements.

    A finite ring is the product of the local rings eA over its primitive
    idempotents e, the nonzero idempotents with no other nonzero idempotent
    f where ef = f (Atiyah-Macdonald, Thm 8.7).  So its primes are the
    p_e = {a : a*e nilpotent}, one for each primitive e, all maximal.
    """
    elems = ring.elements()
    zero = ring.zero()
    # the nonzero powers of a nilpotent element are distinct, so a^|A| = 0
    nilradical = frozenset(a for a in elems if ring.pow(a, len(elems)) == zero)
    idempotents = [a for a in elems if a != zero and ring.mul(a, a) == a]
    primes = [
        frozenset(a for a in elems if ring.mul(a, e) in nilradical)
        for e in idempotents
        if not any(f != e and ring.mul(e, f) == f for f in idempotents)
    ]
    return sorted(primes, key=lambda p: sorted(map(str, p)))


def zariski_space(ring: Domain):
    """Spec of a finite ring as a FiniteSpace over prime indices.

    Every prime of a finite ring is maximal, so no prime generizes another:
    Spec is discrete and every subset is open.
    """
    primes = finite_spectrum_points(ring)
    return discrete_space(range(len(primes))), primes


def _nowhere_vanishing(ring, primes, u):
    """S(U), the elements outside every prime of U, sorted by str.  As the
    complement of a union of primes it is multiplicatively closed."""
    return sorted(
        (f for f in ring.elements() if not any(f in primes[x] for x in u)),
        key=str,
    )


def _localized_presheaf(ring, space, primes, localize):
    """U -> localize(S(U)), restricting a fraction by the ``make`` of the
    smaller open; returns the presheaf and the localization on each open,
    both made per open on first read."""
    local = OnRead(space, lambda u: localize(_nowhere_vanishing(ring, primes, u)))
    sections = OnRead(space, lambda u: tuple(local[u].elements()))
    presheaf = _presheaf(space, sections, lambda u, v: lambda x: local[v].make(*x))
    return presheaf, local


def structure_presheaf(ring: Domain):
    """U -> S(U)^{-1}A with S(U) the elements vanishing nowhere on U."""
    space, primes = zariski_space(ring)
    presheaf, local_rings = _localized_presheaf(
        ring, space, primes, lambda fam: LocalizedFiniteRing.of_family(ring, fam)
    )
    return presheaf, space, primes, local_rings


class StructureSheafReport:
    def __init__(self, ring, space, primes, presheaf, sheaf, pi, local_rings):
        self.ring = ring
        self.space = space
        self.primes = primes
        self.presheaf = presheaf
        self.sheaf = sheaf
        self.pi = pi
        self.local_rings = local_rings

    def basic_open(self, f):
        return frozenset(x for x in self.space.points if f not in self.primes[x])

    def gamma(self, open_set):
        return self.sheaf.sections[frozenset(open_set)]

    def localization(self, f):
        return LocalizedFiniteRing(self.ring, [f])

    def stalk_ring(self, x):
        return self.local_rings[self.space.minimal_open(x)]

    def compare_gamma_with_localization(self, f):
        """Bijectivity of A_f -> Gamma(D(f)) through germ families."""
        d = self.basic_open(f)
        loc = self.localization(f)
        pts = sorted(d, key=str)
        images = set()
        for a, s in loc.elements():
            germs = tuple(
                self.local_rings[self.space.minimal_open(x)].make(a, s) for x in pts
            )
            images.add(germs)
        gamma = set(self.sheaf.sections[d])
        return len(images) == len(loc.elements()) and images == gamma

    def __repr__(self):
        return f"StructureSheaf({self.ring}; {len(self.primes)} points)"


def structure_sheaf(ring: Domain):
    """The structure sheaf of a finite ring with all comparison data."""
    _check_budget(ring.order(), _SHEAF_RING_BUDGET,
                  f"elements of {ring} for a structure sheaf")
    presheaf, space, primes, local_rings = structure_presheaf(ring)
    sheaf, pi = sheafify(presheaf)
    return StructureSheafReport(ring, space, primes, presheaf, sheaf, pi, local_rings)


# ---------------------------------------------------------------------------
# unit cocycles and rank-one twisting
# ---------------------------------------------------------------------------

class UnitCocycle:
    """Units f[i][j] on overlaps of a finite open cover, with the cocycle
    identities verified at construction."""

    def __init__(self, report: StructureSheafReport, cover, units):
        self.report = report
        self.cover = [frozenset(u) for u in cover]
        self.units = {k: v for k, v in units.items()}
        self._check()

    def ring_on(self, u):
        return self.report.local_rings[frozenset(u)]

    def restricted(self, i, j, w):
        """The unit f_ij seen in the ring of the smaller open w."""
        val = self.units[(i, j)]
        return self.ring_on(w).make(val[0], val[1])

    def _check(self):
        n = len(self.cover)
        for i in range(n):
            if self.units[(i, i)] != self.ring_on(self.cover[i]).one():
                raise NonInvertibleUnit("f_ii must be 1")
        for i in range(n):
            for j in range(n):
                w = self.cover[i] & self.cover[j]
                rw = self.ring_on(w)
                fij = self.restricted(i, j, w)
                if not rw.is_unit(fij):
                    raise NonInvertibleUnit(f"f_{i}{j} is not a unit")
                if rw.mul(fij, self.restricted(j, i, w)) != rw.one():
                    raise NonInvertibleUnit("f_ij * f_ji must be 1")
                for k in range(n):
                    t = w & self.cover[k]
                    rt = self.ring_on(t)
                    lhs = rt.mul(
                        self.restricted(i, j, t), self.restricted(j, k, t)
                    )
                    if lhs != self.restricted(i, k, t):
                        raise NonInvertibleUnit("cocycle identity fails")

    def multiply(self, other):
        """Pointwise product cocycle on the same cover."""
        if [set(u) for u in self.cover] != [set(u) for u in other.cover]:
            raise Unsupported("cocycles live on different covers")
        return _cocycle(self.report, self.cover, lambda i, j, w, rw: rw.mul(
            rw.make(*self.units[i, j]), rw.make(*other.units[i, j])))

    def __repr__(self):
        return f"UnitCocycle(on {len(self.cover)} opens)"


def _cocycle(report, cover, unit):
    """The UnitCocycle on ``cover`` with f_ij = unit(i, j, w, rw), w the
    overlap U_i & U_j and rw its local ring."""
    cover = [frozenset(u) for u in cover]
    units = {}
    for i in range(len(cover)):
        for j in range(len(cover)):
            w = cover[i] & cover[j]
            units[(i, j)] = unit(i, j, w, report.local_rings[w])
    return UnitCocycle(report, cover, units)


def trivial_cocycle(report, cover):
    return _cocycle(report, cover, lambda i, j, w, rw: rw.one())


def coboundary_cocycle(report, cover, unit_choices):
    """The coboundary (a_i / a_j) of a family of units on the cover opens."""
    return _cocycle(report, cover, lambda i, j, w, rw: rw.mul(
        rw.make(*unit_choices[i]), rw.inv(rw.make(*unit_choices[j]))))


def twist_structure_sheaf(cocycle: UnitCocycle):
    """Twist the structure sheaf by a unit cocycle on the given cover.

    Sections over U are families (s_i in O(U cap U_i)) with s_i = f_ij s_j
    on U cap U_i cap U_j, made per open on first read (and the budget of an
    open checked then).
    """
    report = cocycle.report
    space = report.space
    cover = cocycle.cover

    def transition_test(u, pieces, j, i):
        # s_j = f_ji s_i on u & U_j & U_i, each side computed once
        w = u & cover[j] & cover[i]
        rw = report.local_rings[w]
        fji = cocycle.restricted(j, i, w)
        left = {s: rw.make(*s) for s in pieces[j]}
        right = {s: rw.mul(fji, rw.make(*s)) for s in pieces[i]}
        return lambda sj, si: left[sj] == right[si]

    def families(u):
        pieces = [report.local_rings[u & c].elements() for c in cover]
        return tuple(_glued(pieces, lambda j, i: transition_test(u, pieces, j, i),
                            "section families"))

    def restriction(u, v):
        makes = [report.local_rings[v & c].make for c in cover]
        return lambda fam: tuple(make(*x) for make, x in zip(makes, fam))

    return _presheaf(space, OnRead(space, families), restriction)


def recover_cocycle(twisted: FinitePresheaf, report, cover):
    """Read the transition units back off a twisted sheaf.

    On each overlap the canonical chart-j trivialization is the unique
    section family whose j-th component is 1; its i-th component is the
    recovered unit f_ij.
    """
    def unit(i, j, w, rw):
        if not w:
            return rw.one()
        candidates = [fam for fam in twisted.sections[w] if rw.make(*fam[j]) == rw.one()]
        if len(candidates) != 1:
            raise Unsupported("trivializing section is not unique")
        return rw.make(*candidates[0][i])

    return _cocycle(report, cover, unit)


def cocycles_equal_mod_coboundary(report, cover, c1: UnitCocycle, c2: UnitCocycle):
    """Whether c1 and c2 differ by a coboundary (a_i / a_j), by a search for
    units with c1_ij a_j = c2_ij a_i; f_ii = 1 settles the diagonal."""
    cover = [frozenset(u) for u in cover]
    unit_lists = [[a for a, _ in domain_units(report.local_rings[u])] for u in cover]

    def scaled(c, i, j):
        # a -> c_ij a on U_i & U_j, each product formed once
        rw = report.local_rings[cover[i] & cover[j]]
        cij = rw.make(*c.units[(i, j)])
        return functools.cache(lambda a: rw.mul(cij, rw.make(*a)))

    def pair(j, i):
        lij, rij, lji, rji = (scaled(c1, i, j), scaled(c2, i, j),
                              scaled(c1, j, i), scaled(c2, j, i))
        return lambda aj, ai: lij(aj) == rij(ai) and lji(ai) == rji(aj)

    return next(_glued(unit_lists, pair, "unit families"), None) is not None


def is_coboundary(report, cover, cocycle: UnitCocycle):
    return cocycles_equal_mod_coboundary(
        report, cover, cocycle, trivial_cocycle(report, cover)
    )


def two_open_cocycle(report, cover, unit):
    """The cocycle on a cover (U_0, U_1) with f_01 = unit and f_10 = unit^-1."""
    try:
        inverse = report.local_rings[frozenset(cover[0]) & frozenset(cover[1])].inv(unit)
    except NotInvertible as err:
        raise NonInvertibleUnit(str(err)) from None
    units = {(0, 1): unit, (1, 0): inverse}
    return _cocycle(report, cover[:2], lambda i, j, w, rw: units[i, j] if i != j else rw.one())


def cocycles_on_cover(report, cover):
    """All unit cocycles on a 2-element cover (exhaustive)."""
    if len(cover) != 2:
        raise Unsupported("exhaustive cocycles only for 2-element covers")
    rw = report.local_rings[frozenset(cover[0]) & frozenset(cover[1])]
    return [two_open_cocycle(report, cover, a) for a in rw.elements() if rw.is_unit(a)]


# ---------------------------------------------------------------------------
# finite modules and module sheaves (for exactness statements)
# ---------------------------------------------------------------------------

class FiniteModule:
    """A finite module over a finite ring: explicit elements and actions."""

    def __init__(self, ring, elements, add, smul, zero):
        self.ring = ring
        self._elems = list(elements)
        self._add = add
        self._smul = smul
        self._zero = zero

    def elements(self):
        return list(self._elems)

    def add(self, a, b):
        return self._add(a, b)

    def smul(self, r, a):
        return self._smul(r, a)

    def zero(self):
        return self._zero


def module_presheaf(ring, module, report=None):
    """U -> S(U)^{-1}M over the spectrum of the ring.

    Fractions m/s with m/s = m'/s' iff r(s'm - sm') = 0 for some r in S.
    """
    report = report or structure_sheaf(ring)
    return _localized_presheaf(
        ring, report.space, report.primes,
        lambda fam: _Fractions(ring, fam, module.elements(), module.smul),
    )
