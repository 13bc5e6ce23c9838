"""Graded algebras, projective space charts, twists, and classical maps.

Projective objects are handled through their standard affine chart atlas:
chart i of Proj base[T_0..T_n]/I is Spec of the dehomogenized presentation
in the ratio coordinates t_j = T_j/T_i.  Points over a field are normalized
coordinate tuples.  The Segre, Veronese, and squaring (conic) maps are
computed here and nowhere else: each returns the raw image of a point,
which ``point_normalize`` scales.  Their image ideals are computed by one
elimination and certified by mutual radical membership; ``kernel_values``
evaluates a kernel's generators at a raw image, so a wrong map or a wrong
kernel shows as a nonzero value.  The zero locus of a section in P^n of a
finite field is taken after mapping the section's coefficients into it.
"""

from __future__ import annotations

import itertools
import math

from . import algebra as alg
from .arith import ZZ, Domain
from .errors import (
    AllZero,
    BudgetExceeded,
    DenominatorVanishes,
    NilpotentCoordinate,
    NonFieldBase,
    NotHomogeneous,
)
from .multipoly import Poly, PolyRing, dehomogenize, exact_divide, format_terms, homogenize


class GradedAlgebra:
    """base[T_0..T_n]/I with I generated by certified homogeneous elements."""

    def __init__(self, base: Domain, names, relations=()):
        self.base = base
        self.ring = PolyRing(base, tuple(names))
        rels = []
        for r in relations:
            r = r if r.ring == self.ring else r.relabel(self.ring)
            if r.is_zero():
                continue
            if not r.is_homogeneous():
                raise NotHomogeneous(f"{r} is not homogeneous")
            rels.append(r)
        self.relations = tuple(rels)

    @property
    def names(self):
        return self.ring.names

    def presented(self):
        return alg.PresentedAlgebra(self.base, self.names, self.relations)

    def __repr__(self):
        return f"Proj {self.presented()!r}"


def projective_space(base, n, var_stem="T"):
    """P^n over the base, coordinates T0..Tn."""
    return GradedAlgebra(base, tuple(f"{var_stem}{i}" for i in range(n + 1)))


def proj_is_empty(B: GradedAlgebra):
    """Proj B is empty iff every coordinate is nilpotent in B."""
    if not B.base.is_field:
        raise NonFieldBase("emptiness test needs a field base")
    free = presented_free(B)
    handle = alg.IdealHandle(free, list(B.relations))
    return all(
        alg.radical_membership(free.ring.gen(n), handle) for n in B.names
    )


def presented_free(B: GradedAlgebra):
    return alg.PresentedAlgebra(B.base, B.names)


def chart_names(B: GradedAlgebra, i):
    """Affine coordinate names t_j (j != i) for chart i."""
    return tuple(f"t{j}" for j in range(len(B.names)) if j != i)


class ProjChart:
    """Chart i of Proj B: Spec base[t_j]/(dehomogenized relations)."""

    def __init__(self, graded, index, algebra, rename):
        self.graded = graded
        self.index = index
        self.algebra = algebra
        self.rename = rename  # {T name: t name}

    def __repr__(self):
        return f"Chart {self.index} of {self.graded}: Spec {self.algebra}"


def proj_chart(B: GradedAlgebra, i):
    """Chart i with dehomogenized generators; fails for nilpotent T_i."""
    if B.base.is_field and B.relations:
        free = presented_free(B)
        handle = alg.IdealHandle(free, list(B.relations))
        if alg.radical_membership(free.ring.gen(B.names[i]), handle):
            raise NilpotentCoordinate(f"{B.names[i]} is nilpotent in {B}")
    rename = {}
    names = chart_names(B, i)
    k = 0
    for j, n in enumerate(B.names):
        if j == i:
            continue
        rename[n] = names[k]
        k += 1
    rels = []
    for r in B.relations:
        rels.append(dehomogenize(r, B.names[i], rename=rename))
    algebra = alg.PresentedAlgebra(B.base, names, rels)
    return ProjChart(B, i, algebra, rename)


# ---------------------------------------------------------------------------
# chart transitions through homogeneous fraction lifts
# ---------------------------------------------------------------------------

class ChartFraction:
    """num/den with den a monomial in the chart coordinates."""

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise DenominatorVanishes("zero denominator")
        self.num = num
        self.den = den

    def __eq__(self, other):
        return (
            isinstance(other, ChartFraction)
            and (self.num * other.den - other.num * self.den).is_zero()
        )

    def __repr__(self):
        if self.den.is_constant() and self.den.ring.domain.is_one(
            self.den.constant_value()
        ):
            return str(self.num)
        return f"({self.num})/({self.den})"


def chart_transition(B: GradedAlgebra, i, j, fraction):
    """Move a chart-i fraction to chart j through the homogeneous lift.

    A chart-i element num/den lifts to a degree-zero homogeneous fraction
    F/T^e; re-expressing over chart j divides by the appropriate T_j power.
    Raises DenominatorVanishes when the result needs coordinates outside
    D(t_i) of chart j.
    """
    if isinstance(fraction, Poly):
        fraction = ChartFraction(fraction, fraction.ring.one())
    num_h, den_h = _lift_to_homogeneous(B, i, fraction)
    return _express_on_chart(B, j, num_h, den_h)


def _lift_to_homogeneous(B, i, fraction):
    """Lift num/den on chart i to homogeneous (F, G) of equal degree."""
    names = B.names
    rename_back = {f"t{j}": names[j] for j in range(len(names)) if j != i}
    ti = names[i]

    def lift(p):
        if p.is_constant():
            ring = B.ring
            return ring.const(ring.domain.coerce(p.ring.domain, p.constant_value()))
        return homogenize(p, ti, position=min(i, len(p.ring.names)), rename=rename_back)

    fnum = lift(fraction.num).relabel(B.ring)
    fden = lift(fraction.den).relabel(B.ring)
    # equalize degrees with powers of T_i
    dn = fnum.total_degree() if not fnum.is_zero() else 0
    dd = fden.total_degree()
    t = B.ring.gen(ti)
    if dn < dd:
        fnum = fnum * t ** (dd - dn)
    elif dd < dn:
        fden = fden * t ** (dn - dd)
    return fnum, fden


def _express_on_chart(B, j, num_h, den_h):
    """Write a degree-zero homogeneous fraction in chart-j coordinates.

    The denominator dehomogenizes to a monomial in the chart coordinates, so
    the result is defined on the complement of its vanishing locus.
    """
    names = B.names
    tj = names[j]
    rename = {n: f"t{idx}" for idx, n in enumerate(names) if idx != j}
    num_h, den_h = _cancel_monomials(num_h, den_h)
    if len(den_h.terms) != 1:
        raise DenominatorVanishes(f"denominator {den_h} is not a monomial")
    exps, coeff = den_h.terms[0]
    ring = B.ring
    dehom_num = dehomogenize(num_h, tj, rename=rename) if not num_h.is_zero() else None
    dehom_den = dehomogenize(ring.monomial(exps, coeff), tj, rename=rename)
    chart_ring = PolyRing(B.base, tuple(rename[n] for n in names if n != tj))
    if dehom_num is None:
        dehom_num = chart_ring.zero()
    return ChartFraction(
        dehom_num.relabel(chart_ring), dehom_den.relabel(chart_ring)
    )


def _cancel_monomials(num, den):
    """Cancel the common monomial factor of two homogeneous polynomials."""
    ring = num.ring
    if num.is_zero():
        return num, den
    mins = [min(col) for col in zip(*(e for e, _ in num.terms + den.terms))]
    if not any(mins):
        return num, den
    mono = ring.monomial(mins)
    return exact_divide(num, mono), exact_divide(den, mono)


# ---------------------------------------------------------------------------
# points over a field
# ---------------------------------------------------------------------------

class ProjPoint:
    """Point of P^n(k): coordinates with first nonzero entry scaled to 1."""

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(coords)

    def chart_memberships(self):
        return [i for i, c in enumerate(self.coords) if not self.field.is_zero(c)]

    def __eq__(self, other):
        return (
            isinstance(other, ProjPoint)
            and other.field == self.field
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((self.field, self.coords))

    def __repr__(self):
        return "[" + ":".join(self.field.format(c) for c in self.coords) + "]"


def point_normalize(field, coords):
    """Canonical representative: first nonzero coordinate becomes 1."""
    coords = list(coords)
    pivot = next((c for c in coords if not field.is_zero(c)), None)
    if pivot is None:
        raise AllZero("projective points need a nonzero coordinate")
    inv = field.inv(pivot)
    return ProjPoint(field, tuple(field.mul(c, inv) for c in coords))


# Coordinate tuples ``enumerate_points`` may normalize.  The scripts, the
# benchmark decks and the tests list at most P^2(GF(5)), 125 tuples.
_TUPLE_BUDGET = 150_000


def enumerate_points(field, n):
    """All points of P^n over a finite field, by exhaustive normalization;
    raises BudgetExceeded, before listing any, when there are too many
    coordinate tuples."""
    q, size = field.order(), 1
    for _ in range(n + 1):
        size *= q
        if size > _TUPLE_BUDGET:
            raise BudgetExceeded(f"{q}^{n + 1} coordinate tuples of P^{n}({field}) "
                                 f"exceed the budget of {_TUPLE_BUDGET}")
    pts = set()
    elems = field.elements()
    for coords in itertools.product(elems, repeat=n + 1):
        if all(field.is_zero(c) for c in coords):
            continue
        pts.add(point_normalize(field, coords))
    return sorted(pts, key=lambda p: str(p))


def segre(p: ProjPoint, q: ProjPoint):
    """The raw image [s_i t_j], in row-major (i, j) order; the image of
    normalized points is normalized."""
    if p.field != q.field:
        raise ValueError("points must share a field")
    k = p.field
    return ProjPoint(k, [k.mul(a, b) for a in p.coords for b in q.coords])


def veronese(p: ProjPoint):
    """The raw degree-two Veronese image of P^1: [s0^2 : s0 s1 : s1 s0 : s1^2]."""
    return segre(p, p)


def conic_map(p: ProjPoint):
    """P^1 -> P^2, the raw image [s0^2 : s0 s1 : s1^2]."""
    k = p.field
    s0, s1 = p.coords
    return ProjPoint(k, [k.mul(s0, s0), k.mul(s0, s1), k.mul(s1, s1)])


def kernel_values(kernel: alg.IdealHandle, point: ProjPoint):
    """{degree: value} of the kernel's generators at the point's coordinates,
    zero on the image of the kernel's map.  The kernels of the three maps
    have one generator of each degree."""
    return {g.total_degree(): g.evaluate(dict(zip(g.ring.names, point.coords)))
            for g in kernel.generators}


def _monomial_kernel(base, names, target_names, pairs):
    """The kernel of base[names] -> base[target_names] sending names[k] to
    the product of the variables at pairs[k] = (a, b), by elimination: the
    vanishing ideal of the image of a map by degree-two monomials."""
    target = alg.PresentedAlgebra(base, target_names)
    s = target.gens()
    return alg.morphism_kernel(names, [s[a] * s[b] for a, b in pairs], target)


def segre_kernel(base, n, m):
    """Vanishing ideal of the Segre image, by elimination."""
    s_names = tuple(f"S{i}" for i in range(n + 1)) + tuple(f"U{j}" for j in range(m + 1))
    ij = list(itertools.product(range(n + 1), range(m + 1)))
    return _monomial_kernel(base, tuple(f"Z{i}{j}" for i, j in ij), s_names,
                            [(i, n + 1 + j) for i, j in ij])


def veronese_kernel(base, n):
    """Vanishing ideal of the Veronese image of P^n (degree 2)."""
    pairs = list(itertools.product(range(n + 1), repeat=2))
    return _monomial_kernel(base, tuple(f"Z{i}{j}" for i, j in pairs),
                            tuple(f"S{i}" for i in range(n + 1)), pairs)


def conic_kernel(base):
    """Vanishing ideal of [s0^2 : s0 s1 : s1^2] in P^2."""
    return _monomial_kernel(base, ("T0", "T1", "T2"), ("S0", "S1"), [(0, 0), (0, 1), (1, 1)])


def ideals_equal_up_to_radical(I: alg.IdealHandle, J: alg.IdealHandle):
    """Mutual radical membership of the generators."""
    return all(alg.radical_membership(g, J) for g in I.generators) and all(
        alg.radical_membership(g, I) for g in J.generators
    )


# ---------------------------------------------------------------------------
# twisting sheaves O(d)
# ---------------------------------------------------------------------------

class TwistSections:
    """Global sections of O(d) on P^n: the degree-d monomial module."""

    def __init__(self, n, d, base):
        self.n = n
        self.d = d
        self.base = base
        if d < 0:
            self.monomials = []
        else:
            self.monomials = [
                exps
                for exps in _compositions(d, n + 1)
            ]

    @property
    def rank(self):
        return len(self.monomials)

    def basis_strings(self, var_stem="T"):
        names = [f"{var_stem}{i}" for i in range(self.n + 1)]
        return [format_terms(names, ZZ, [(exps, 1)]) for exps in self.monomials]

    def __repr__(self):
        return f"O({self.d})(P^{self.n}) rank {self.rank}"


def _compositions(d, parts):
    if parts == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _compositions(d - first, parts - 1):
            yield (first,) + rest


def twist_sections(n, d, base):
    """Basis description of O(d)(P^n); rank binomial(n+d, d), zero for d < 0."""
    sections = TwistSections(n, d, base)
    if d >= 0:
        assert sections.rank == math.comb(n + d, d)
    return sections


class TwistCocycle:
    """Transition data (T_i/T_j)^d on the standard chart cover, symbolically.

    A transition is an integer exponent vector e with sum zero: the Laurent
    monomial prod T_k^(e_k)."""

    def __init__(self, n, d):
        self.n = n
        self.d = d

    def transition(self, i, j):
        e = [0] * (self.n + 1)
        e[i] += self.d
        e[j] -= self.d
        return tuple(e)

    def check_identities(self):
        n = self.n
        for i in range(n + 1):
            if any(self.transition(i, i)):
                return False
        for i in range(n + 1):
            for j in range(n + 1):
                if tuple(-x for x in self.transition(i, j)) != self.transition(j, i):
                    return False
                for k in range(n + 1):
                    combined = tuple(
                        a + b
                        for a, b in zip(self.transition(i, j), self.transition(j, k))
                    )
                    if combined != self.transition(i, k):
                        return False
        return True

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("cocycles on different spaces")
        return TwistCocycle(self.n, self.d + other.d)

    def __repr__(self):
        return f"O({self.d})-cocycle on P^{self.n}"


def twist_cocycle(n, d):
    return TwistCocycle(n, d)


# ---------------------------------------------------------------------------
# zero loci of sections
# ---------------------------------------------------------------------------

class ProjZeroLocus:
    """V(f) of a degree-d global section, chart by chart."""

    def __init__(self, graded: GradedAlgebra, section: Poly):
        if not section.is_homogeneous():
            raise NotHomogeneous(f"{section} is not homogeneous")
        self.graded = graded
        self.section = section

    def chart_ideal(self, i):
        """The dehomogenized equation on chart i ("unit" when invertible)."""
        B = self.graded
        rename = {n: f"t{j}" for j, n in enumerate(B.names) if j != i}
        if self.section.is_zero():
            return None
        if self.section.is_constant():
            return "unit"
        return dehomogenize(self.section, B.names[i], rename=rename)

    def field_points(self, field):
        """Zero locus inside P^n(field) for a finite field, exhaustively.

        The section is first mapped into field[T0..Tn] along the canonical
        map of coefficients (NoCanonicalMap where there is none, as from QQ
        to GF(p)), so a section over ZZ has its zeros mod p.
        """
        names = self.graded.names
        section = self.section.map_coefficients(PolyRing(field, names))
        return [pt for pt in enumerate_points(field, len(names) - 1)
                if field.is_zero(section.evaluate(dict(zip(names, pt.coords))))]

    def __repr__(self):
        return f"V({self.section}) in {self.graded}"


def section_zero_locus(graded, section):
    return ProjZeroLocus(graded, section)
