"""Graded algebras, projective space charts, twists, and classical maps.

Projective objects are handled through their standard affine chart atlas:
chart i of Proj base[T_0..T_n]/I is Spec of the dehomogenized presentation
in the ratio coordinates t_j = T_j/T_i.  Points over a field are normalized
coordinate tuples.  The Segre, Veronese, and squaring (conic) maps are
computed here and nowhere else: each returns the raw image of a point,
which ``point_normalize`` scales.  Their image ideals are computed by one
elimination and certified by mutual radical membership; ``kernel_values``
evaluates a kernel's generators at a raw image, so a wrong map or a wrong
kernel shows as a nonzero value.
"""

from __future__ import annotations

import itertools
import math

from . import algebra as alg
from .arith import ZZ, Domain
from .errors import (
    AllZero,
    BudgetExceeded,
    NilpotentCoordinate,
    NonFieldBase,
    NotHomogeneous,
)
from .multipoly import PolyRing, dehomogenize, format_terms


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
        free = alg.PresentedAlgebra(B.base, B.names)
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
# points over a field
# ---------------------------------------------------------------------------

class ProjPoint:
    """Point of P^n(k): coordinates with first nonzero entry scaled to 1."""

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(coords)

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
    raises NonFieldBase off a field and BudgetExceeded when there are too
    many coordinate tuples, both before listing any."""
    q, size = field.order(), 1
    if not field.is_field:
        raise NonFieldBase(f"projective points need a field, got {field}")
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
