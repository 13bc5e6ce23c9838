"""Catalogue-driven prime spectra with Zariski topology.

Points are descriptions, never element enumerations: a prime of a
catalogued ring is stored as its normal-form data (a prime number, a monic
irreducible polynomial, a (p, lift) pair, ...) together with a residue
field descriptor.  The catalogue covers the rings the workbench can fully
answer for: fields, ZZ, ZZ/n, k[T], ZZ[T], k[S,T], plus quotients,
localizations, and binary products of catalogued rings.  A closed set V(I)
is carried by generators of I; in k[T] its points are the irreducible
factors of their gcd, and a quotient of k[T] lists its points from them.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import cached_property, reduce
from operator import itemgetter

from . import algebra as alg
from . import proj as pj
from .arith import (
    QQ,
    ZZ,
    ExtField,
    FracField,
    Zmod,
    _primes_upto,
    dense_to_poly,
    ext_field_text,
    factor_dense,
    poly_to_dense,
    prime_factors,
    up_deg,
    up_eval,
    up_norm,
)
from .errors import (
    BudgetExceeded,
    FactorizationUnavailable,
    InvalidArgument,
    NotCatalogued,
    Undecidable,
    Unsupported,
    UnsupportedDomain,
)
from .multipoly import Poly, content_primitive, exact_divide, format_dense


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

class SpecCatalogue:
    """Recognized ring shape for which the spectrum is fully described.

    kind is one of: "field", "ZZ", "Zmod", "kT", "ZZT", "kST", "quotient",
    "localization", "product".
    """

    def __init__(self, kind, algebra=None, data=None):
        self.kind = kind
        self.algebra = algebra
        self.data = data or {}

    @classmethod
    def recognize(cls, algebra: alg.PresentedAlgebra):
        base = algebra.base
        nvars = len(algebra.names)
        if algebra.localized_from is not None:
            inner, f = algebra.localized_from
            return cls(
                "localization",
                algebra,
                {"inner": cls.recognize(inner), "element": f},
            )
        if algebra.relations:
            plain = alg.PresentedAlgebra(base, algebra.names, (), algebra.ring.order)
            return cls(
                "quotient",
                algebra,
                {"inner": cls.recognize(plain), "ideal": algebra.relations},
            )
        if nvars == 0:
            if base.is_field:
                return cls("field", algebra, {"field": base})
            if base == ZZ:
                return cls("ZZ", algebra)
            if isinstance(base, Zmod):
                return cls("Zmod", algebra, {"n": base.n})
            raise NotCatalogued(f"base ring {base} is not catalogued")
        if nvars == 1:
            if base.is_field:
                return cls("kT", algebra, {"field": base, "var": algebra.names[0]})
            if base == ZZ:
                return cls("ZZT", algebra, {"var": algebra.names[0]})
            raise NotCatalogued(f"{algebra} is not catalogued")
        if nvars == 2 and base.is_field:
            return cls("kST", algebra, {"field": base, "vars": algebra.names})
        raise NotCatalogued(f"{algebra} is not catalogued")

    @classmethod
    def product(cls, left, right):
        return cls("product", None, {"left": left, "right": right})

    def __repr__(self):
        return f"SpecCatalogue({self.kind}, {self.algebra!r})"


class SpecPoint:
    """A prime of a catalogued ring, as a description with residue field.

    description kinds:
        ("generic",)                      the zero ideal in a domain
        ("principal", data)               (p) for a prime p, or a monic
                                          irreducible polynomial
        ("mixed", p, lift)                (p, P#) in ZZ[T], lift monic with
                                          coefficients in [0, p)
        ("embedded", tag, inner_point)    catalogue point seen through a
                                          quotient/localization/product

    The constructors below (``generic_point``, ``prime_point``,
    ``closed_point``, ``mixed_point``, ``height_one_point``) are the one
    place that pairs each description with its label and residue field.

    A point that ``closed_point``, ``mixed_point`` or ``height_one_point``
    makes is a record of its generator's dense coefficients: its label,
    ideal-generator texts and residue-field text are formatted once from
    them, and the Poly of its description and its residue field are built
    on first access, since most listed points are only printed.

    Two points are equal when they have the same key on the same ring: the
    same ring text, and for embedded points the same inner point.
    """

    def __init__(self, owner, description, residue, label=""):
        self.owner = owner
        self.description = description
        self.residue = residue
        self.label = label

    @classmethod
    def _from_dense(cls, owner, head, coeffs, text, field, var, label):
        """The point ``head + (P,)`` of the univariate ring of ``owner``,
        P = sum(coeffs[k] * T^k) printed as ``text``, with residue field
        field[var]/(P), or ``field`` itself when ``var`` is None; ``coeffs``
        lie in the ring's domain and map into ``field`` along its canonical
        arrow."""
        pt = cls.__new__(cls)
        pt.owner, pt.label = owner, label
        pt._dense = (head, coeffs, field, var)
        pt._key = head + (text,)
        pt.generator_texts = (*map(str, head[1:]), text)
        pt.residue_text = repr(field) if var is None else ext_field_text(field, coeffs, var)
        return pt

    @cached_property
    def description(self):
        head, coeffs, _, _ = self._dense
        return head + (dense_to_poly(self.owner.algebra.ring, coeffs),)

    @cached_property
    def residue(self):
        _, coeffs, field, var = self._dense
        if var is None:
            return field
        dom = self.owner.algebra.ring.domain
        modulus = tuple(field.coerce(dom, c) for c in coeffs)
        return ExtField(field, modulus, var=var, check=False)

    @cached_property
    def residue_text(self):
        """``repr`` of the residue field."""
        return repr(self.residue)

    @cached_property
    def generator_texts(self):
        """The printed generators of the prime ideal."""
        return _ideal_generator_strings(self.description)

    @cached_property
    def _key(self):
        return _description_key(self.description)

    @cached_property
    def _identity(self):
        key = self.key()
        inner = self.description[2]._identity if key[0] == "embedded" else None
        return self.owner.kind, _ring_text(self.owner), key, inner

    def is_generic(self):
        return self.key() == ("generic",)

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, SpecPoint) and other._identity == self._identity

    def __hash__(self):
        return hash(self._identity)

    def __repr__(self):
        return f"SpecPoint({self.label or self.description!r}; kappa={self.residue_text})"

    def as_record(self):
        return {
            "description": self.label or str(self.description),
            "residue_field": self.residue_text,
            "ideal_generators": list(self.generator_texts),
        }


def _description_key(desc):
    kind = desc[0]
    if kind in ("generic",):
        return ("generic",)
    if kind == "principal":
        data = desc[1]
        if isinstance(data, Poly):
            return ("principal", str(data))
        return ("principal", data)
    if kind == "mixed":
        return ("mixed", desc[1], str(desc[2]))
    if kind == "embedded":
        return ("embedded", desc[1], desc[2].key())
    raise NotCatalogued(f"unknown description {desc!r}")


def _ideal_generator_strings(desc):
    if desc[0] == "generic":
        return ("0",)
    if desc[0] == "principal":
        return (str(desc[1]),)
    if desc[0] == "mixed":
        return (str(desc[1]), str(desc[2]))
    if desc[0] == "embedded":
        return desc[2].generator_texts
    return ()


def _ring_text(cat):
    """The ring of a catalogue as text; a product, which has no algebra,
    by its factors."""
    if cat.algebra is None:
        return cat.kind, _ring_text(cat.data["left"]), _ring_text(cat.data["right"])
    return repr(cat.algebra)


def _dense_text(cat, coeffs):
    """The printed form of the Poly sum(coeffs[k] * T^k) of the univariate
    ring of ``cat``, without building it."""
    ring = cat.algebra.ring
    return format_dense(ring.names[0], ring.domain, coeffs)


# ---------------------------------------------------------------------------
# point enumeration
# ---------------------------------------------------------------------------

# Candidates _monic_irreducibles may list.  The largest enumeration the README
# shows, `fiber --map "ZZ->ZZ[T]" --at p=7` under the default --bound 6, has
# 7 + 7^2 + ... + 7^6 = 137,256 of them.
_CANDIDATE_BUDGET = 150_000


def _monic_irreducibles(field, max_degree):
    """All monic irreducible dense polynomials over a finite field, by degree
    and then in the order of their coefficient tuples; raises BudgetExceeded,
    before listing any, when there are too many candidates.

    A sieve: a monic polynomial of degree d is reducible iff it is f*g with f
    its least monic irreducible factor, of degree k <= d/2 (irreducibles are
    ranked in the order listed), and g monic of degree d - k with no factor
    of lower rank than f.  So each reducible candidate is formed once: g
    runs over the monic polynomials of degree d - k sorted by the rank of
    their least factor, from the first of rank >= rank(f)."""
    candidates = 0
    for d in range(1, max_degree + 1):
        candidates += field.order() ** d
        if candidates > _CANDIDATE_BUDGET:
            raise BudgetExceeded(f"monic candidates of degree <= {max_degree} over {field} "
                                 f"exceed the budget of {_CANDIDATE_BUDGET}")
    elems, one = field.elements(), (field.one(),)
    irreducible, spans, cofactors = [], {}, {}
    for d in range(1, max_degree + 1):
        least = {}  # reducible candidate -> rank of its least irreducible factor
        for k in range(1, d // 2 + 1):
            ranks, polys = cofactors[d - k]
            for rank in range(*spans[k]):
                f = irreducible[rank]
                for g in itertools.islice(polys, bisect_left(ranks, rank), None):
                    least[field.dense_mul(f, g)] = rank
        start = len(irreducible)
        monic = (tail + one for tail in itertools.product(elems, repeat=d))
        irreducible.extend(f for f in monic if f not in least)
        spans[d] = (start, len(irreducible))
        if d < max_degree:  # cofactors of the candidates of larger degree
            pairs = [(r, h) for h, r in least.items()]
            pairs += [(r, irreducible[r]) for r in range(start, len(irreducible))]
            pairs.sort(key=itemgetter(0))
            cofactors[d] = ([r for r, _ in pairs], [h for _, h in pairs])
    return irreducible


def generic_point(cat: SpecCatalogue):
    """The zero ideal of a catalogued domain; k(S,T) has no residue object."""
    kind = cat.kind
    if kind == "field":
        return SpecPoint(cat, ("generic",), cat.data["field"], label="point")
    if kind == "ZZ":
        return SpecPoint(cat, ("generic",), QQ, label="eta")
    if kind == "kT":
        kappa = FracField(cat.data["field"], cat.data["var"])
        return SpecPoint(cat, ("generic",), kappa, label="eta")
    if kind == "ZZT":
        kappa = FracField(QQ, cat.data["var"])
        return SpecPoint(cat, ("generic",), kappa, label="xi_eta")
    if kind == "kST":
        return SpecPoint(cat, ("generic",), None, label="eta")
    raise NotCatalogued(f"no generic point catalogued for {kind}")


def prime_point(cat: SpecCatalogue, p):
    """The point over the prime number p.

    (p) itself in ZZ, in ZZ/n for p | n, and in a field of characteristic p;
    the generic point xi_p of the fiber over p in ZZ[T]; the generic point of
    k[T] or k[S,T] when char k = p, where (p) = 0.  Where p is a unit no point
    lies over it, and that is an InvalidArgument.
    """
    kind = cat.kind
    if kind == "ZZT":
        kappa = FracField(Zmod(p), cat.data["var"])
        return SpecPoint(cat, ("principal", p), kappa, label=f"xi_{p}")
    if kind == "ZZ":
        return SpecPoint(cat, ("principal", p), Zmod(p), label=f"x_{p}")
    if kind not in ("Zmod", "field", "kT", "kST"):
        raise NotCatalogued(f"the point over p={p} is not catalogued for {kind}")
    base = cat.algebra.base
    if base.char == 0 or base.char % p:
        ring = cat.algebra if cat.algebra.names else base
        raise InvalidArgument(f"{p} is a unit in {ring!r}: no point lies over p={p}")
    if kind in ("kT", "kST"):
        return generic_point(cat)
    kappa = base if kind == "field" else Zmod(p)
    return SpecPoint(cat, ("principal", p), kappa, label=f"x_{p}")


def closed_point(cat: SpecCatalogue, g):
    """The closed point (g) of k[T], g monic irreducible dense over k."""
    k = cat.data["field"]
    var = None
    if up_deg(g) > 1:
        # a generator name that no field of k's tower already uses
        taken, field = set(), k
        while isinstance(field, ExtField):
            taken.add(field.var)
            field = field.base
        var = alg._fresh_name("t", taken)
    text = _dense_text(cat, g)
    return SpecPoint._from_dense(cat, ("principal",), g, text, k, var, f"x_({text})")


def mixed_point(cat: SpecCatalogue, p, g, k):
    """The closed point (p, g) of ZZ[T], g monic irreducible dense over
    k = GF(p), whose residues are the ints in [0, p) that lift them."""
    text = _dense_text(cat, g)
    var = "t" if up_deg(g) > 1 else None
    return SpecPoint._from_dense(cat, ("mixed", p), g, text, k, var, f"y_({p},{text})")


def height_one_point(cat: SpecCatalogue, coeffs):
    """The height-one prime (P) of ZZ[T] over the generic point of Spec ZZ.

    ``coeffs`` are P's integer coefficients, low degree first; P has content
    one and is irreducible over QQ, and its residue field is QQ[t]/(P).
    """
    coeffs = tuple(coeffs)
    text = _dense_text(cat, coeffs)
    return SpecPoint._from_dense(cat, ("principal",), coeffs, text, QQ, "t",
                                 f"y_(eta,{text})")


class _EmbeddedPoint(SpecPoint):
    """A point of an inner catalogue seen through a quotient, a localization
    or one side of a product: its residue field and that field's text are
    the inner point's, read on first access, so printing it builds no
    residue field."""

    def __init__(self, owner, description, label):
        self.owner, self.description, self.label = owner, description, label

    @cached_property
    def residue(self):
        return self.description[2].residue

    @cached_property
    def residue_text(self):
        return self.description[2].residue_text


def _embedded_point(cat: SpecCatalogue, tag, pt):
    """``pt`` of an inner catalogue seen through a quotient, a localization
    or one side ("left"/"right") of a product."""
    label = f"{tag}:{pt.label}" if tag in ("left", "right") else pt.label
    return _EmbeddedPoint(cat, ("embedded", tag, pt), label)


def enumerate_points(cat: SpecCatalogue, bound=10):
    """Complete list of points whose invariants fall under ``bound``.

    The bound limits prime sizes and polynomial degrees per family:
      field: the single point;  ZZ: generic + (p) for p <= bound;
      Zmod: images of (p) for p | n;  kT (finite k): generic + monic
      irreducibles of degree <= bound;  ZZT: generic, (p), mixed maximals
      (p, P) with p <= bound and deg P <= 2, and content-one height-one
      primes of degree <= 2 with coefficients bounded by ``bound``.

    Neither closed points of k[T] nor height-one primes of ZZ[T] are tested
    one by one: both come from product sieves that drop the products of
    smaller candidates (``_monic_irreducibles``, ``_enumerate_zzt``).
    """
    kind = cat.kind
    if kind == "field":
        return [generic_point(cat)]
    if kind == "ZZ":
        return [generic_point(cat)] + [prime_point(cat, p) for p in _primes_upto(bound)]
    if kind == "Zmod":
        return [prime_point(cat, p) for p, _ in prime_factors(cat.data["n"])]
    if kind == "kT":
        k = cat.data["field"]
        if isinstance(k, Zmod) or (isinstance(k, ExtField) and k.char > 0):
            return [generic_point(cat)] + [
                closed_point(cat, g) for g in _monic_irreducibles(k, bound)
            ]
        raise NotCatalogued(
            "closed points of k[T] are only enumerable over a finite field"
        )
    if kind == "ZZT":
        return _enumerate_zzt(cat, bound)
    if kind == "quotient":
        return _enumerate_quotient(cat, bound)
    if kind == "localization":
        return _enumerate_localization(cat, bound)
    if kind == "product":
        return [
            _embedded_point(cat, side, pt)
            for side in ("left", "right")
            for pt in enumerate_points(cat.data[side], bound)
        ]
    raise NotCatalogued(f"cannot enumerate {kind}")


# Height-one candidates of ZZ[T], coefficient tuples of degree 1 and 2 with
# entries in [-bound, bound].  The scripts, the benchmark decks and the tests
# go up to the default bound 10: 21^2 + 21^3 = 9,702 of them.
_HEIGHT_ONE_BUDGET = 20_000


def _enumerate_zzt(cat, bound):
    """The points of Spec ZZ[T] that ``enumerate_points`` lists; raises
    BudgetExceeded, before listing any, past _HEIGHT_ONE_BUDGET height-one
    candidates.

    The height-one primes are listed in the order of their coefficient
    tuples, linears first, by a product sieve.  Every content-one linear with
    lc > 0 is kept.  A content-one quadratic a2*T^2 + a1*T + a0 with a2 > 0 is
    reducible over QQ iff it is u*v for content-one linears u, v with
    u1, v1 > 0 (Gauss's lemma), and then u and v lie in the same box:
    u1*v1 = a2 <= bound bounds u1 and v1; if a0 != 0, then |u0| and |v0| are
    at most |a0| <= bound; if a0 = 0, one factor is T and the other is
    a2*T + a1.  So the quadratics dropped are exactly the products of two
    listed linears.  The argument fails in degree 3:
    (T - 1)(T^2 + 2T + 1) = T^3 + T^2 - T - 1 at bound 1 needs the factor
    coefficient 2.
    """
    width = 2 * bound + 1
    candidates = width ** 2 + width ** 3
    if candidates > _HEIGHT_ONE_BUDGET:
        raise BudgetExceeded(f"{candidates} height-one candidates of ZZ[T] under bound "
                             f"{bound} exceed the budget of {_HEIGHT_ONE_BUDGET}")
    pts = [generic_point(cat)]
    for p in _primes_upto(bound):
        pts.append(prime_point(cat, p))
        k = Zmod(p)
        pts.extend(mixed_point(cat, p, g, k) for g in _monic_irreducibles(k, 2))
    box = range(-bound, bound + 1)
    linears = [c for c in itertools.product(box, repeat=2) if c[1] > 0 and math.gcd(*c) == 1]
    reducible = {
        (u0 * v0, u0 * v1 + u1 * v0, u1 * v1)
        for (u0, u1), (v0, v1) in itertools.combinations_with_replacement(linears, 2)
    }
    quadratics = [
        c for c in itertools.product(box, repeat=3)
        if c[2] > 0 and math.gcd(*c) == 1 and c not in reducible
    ]
    pts.extend(height_one_point(cat, c) for c in linears + quadratics)
    return pts


def _enumerate_quotient(cat, bound):
    """Points of Spec A/I = V(I) inside Spec A (same residue fields)."""
    closed = ZariskiClosed(cat.data["inner"], cat.data["ideal"])
    return [_embedded_point(cat, "quotient", pt) for pt in closed.points(bound)]


def _enumerate_localization(cat, bound):
    """Points of S^{-1}A: the points where the inverted element survives."""
    f = cat.data["element"]
    return [
        _embedded_point(cat, "localization", pt)
        for pt in enumerate_points(cat.data["inner"], bound)
        if not _vanishes_at(f, pt)
    ]


# ---------------------------------------------------------------------------
# evaluation f(x) in kappa(x)
# ---------------------------------------------------------------------------

def evaluate(f: Poly, point: SpecPoint):
    """Image of a ring element under A -> kappa(x), an element of the residue.

    The residue field decides: a constant maps along the canonical arrow; a
    rational function field takes f as a fraction; a simple extension
    generated by the class of T reduces f modulo its modulus; the coefficient
    field itself receives f at the root of the point's linear generator.
    """
    if point.description[0] == "embedded":
        return evaluate(f, point.description[2])
    kappa = point.residue
    if kappa is None:
        raise NotCatalogued(f"evaluation not catalogued for {point.owner.kind}")
    if not f.ring.names:
        return kappa.coerce(f.ring.domain, f.constant_value())
    if isinstance(kappa, FracField):
        return kappa.from_poly(poly_to_dense(f, kappa.base))
    if isinstance(kappa, ExtField) and kappa != f.ring.domain:
        return kappa.base.dense_divmod(poly_to_dense(f, kappa.base), kappa.modulus)[1]
    root = kappa.neg(poly_to_dense(point.description[-1], kappa)[0])
    return up_eval(kappa, poly_to_dense(f, kappa), root)


def _vanishes_at(f, point):
    return point.residue.is_zero(evaluate(f, point))


# ---------------------------------------------------------------------------
# closed sets
# ---------------------------------------------------------------------------

class ZariskiClosed:
    """V(I) of a catalogued ring, carried by generator representatives."""

    def __init__(self, owner: SpecCatalogue, generators):
        self.owner = owner
        self.generators = tuple(generators)

    def contains(self, point: SpecPoint):
        return all(_vanishes_at(g, point) for g in self.generators)

    def points(self, bound=10):
        """The points of V(I) that ``enumerate_points`` lists under ``bound``.

        k[T] is a principal ideal domain, so there V(f1, ..., fr) is
        V(gcd(f1, ..., fr)), the closed points of the irreducible factors of
        the gcd: listed over every field that ``factor_dense`` supports,
        whatever the bound.  Zero generators are ignored, and V(0) is the
        whole enumeration.
        """
        owner = self.owner
        if owner.kind == "kT":
            dense = [f for f in map(poly_to_dense, self.generators) if f]
            if dense:
                k = owner.data["field"]
                _, fac = factor_dense(reduce(k.dense_gcd, dense), k)
                return [closed_point(owner, g) for g, _ in fac]
        return [pt for pt in enumerate_points(owner, bound) if self.contains(pt)]

    def equals(self, other):
        """V(I) = V(J) iff the generators are mutually radical members."""
        mine = self.owner.algebra
        if mine is None or not mine.base.is_field:
            raise Undecidable("closed-set equality needs a field-based ambient")
        return pj.ideals_equal_up_to_radical(
            alg.IdealHandle(mine, list(self.generators)),
            alg.IdealHandle(mine, list(other.generators)),
        )

    def __repr__(self):
        return f"V({', '.join(str(g) for g in self.generators)})"


def closure(point: SpecPoint):
    """The closure of a point: V of its prime ideal."""
    owner = point.owner
    desc = point.description
    ring = owner.algebra.ring if owner.algebra is not None else None
    if desc[0] == "generic":
        return ZariskiClosed(owner, [])
    if desc[0] == "principal":
        gen = desc[1]
        if isinstance(gen, int) and ring is not None:
            gen = ring.from_int(gen)
        return ZariskiClosed(owner, [gen])
    if desc[0] == "mixed":
        p, lift = desc[1], desc[2]
        return ZariskiClosed(owner, [ring.from_int(p), lift])
    if desc[0] == "embedded":
        inner = closure(desc[2])
        return ZariskiClosed(owner, inner.generators)
    raise NotCatalogued(f"closure of {desc!r}")


def is_irreducible_closed(z: ZariskiClosed):
    """(irreducible?, generic point or None) for supported closed sets."""
    owner = z.owner
    if not z.generators:
        if owner.kind in ("field", "ZZ", "kT", "ZZT", "kST"):
            return True, generic_point(owner)
        raise Undecidable(f"V(0) irreducibility not catalogued for {owner.kind}")
    if owner.kind == "kT" and any(not g.is_zero() for g in z.generators):
        pts = z.points()
        return (True, pts[0]) if len(pts) == 1 else (False, None)
    if len(z.generators) == 1:
        comps = irreducible_components(z)
        if len(comps) != 1:
            return False, None
        return True, _hypersurface_point(owner, comps[0].generators[0])
    raise Undecidable("irreducibility beyond principal closed sets")


def _hypersurface_point(cat: SpecCatalogue, g):
    """The prime (g) for an irreducible g in two or more variables; its
    residue field, the function field of V(g), has no domain object."""
    return SpecPoint(cat, ("principal", g), None)


def irreducible_components(z: ZariskiClosed, supplied_factors=None):
    """Components of a hypersurface V(f), via available factorizations.

    In k[T]: the closures of the points of V(f).  Bivariate over a field:
    content in the second variable splits off, then the primitive part is
    handled when its main-variable degree stays within root-finding reach.
    Otherwise a supplied factorization is verified by multiplication and
    used.
    """
    owner = z.owner
    if len(z.generators) != 1:
        raise FactorizationUnavailable("components need a single equation")
    f = z.generators[0]
    if f.is_zero():
        raise FactorizationUnavailable("V(0) is not a hypersurface")
    if supplied_factors is not None:
        prod = f.ring.one()
        for g in supplied_factors:
            prod = prod * g
        if not _associated(prod, f):
            raise FactorizationUnavailable("supplied factorization is wrong")
        return [ZariskiClosed(owner, [g]) for g in _dedupe(supplied_factors)]
    ring = f.ring
    if owner.kind == "kT":
        return [closure(pt) for pt in z.points()]
    if ring.nvars == 2 and ring.domain.is_field:
        return [
            ZariskiClosed(owner, [g]) for g in _factor_bivariate(f)
        ]
    raise FactorizationUnavailable(f"no factorization path for {ring}")


def _associated(a, b):
    """Equal up to a unit of the coefficient field (or sign over ZZ)."""
    if a.ring != b.ring:
        return False
    dom = a.ring.domain
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    ca, cb = a.leading_coeff(), b.leading_coeff()
    if dom.is_field:
        return a.scale(dom.inv(ca)) == b.scale(dom.inv(cb))
    return a == b or a == -b


def _dedupe(polys):
    seen = []
    for p in polys:
        if not any(_associated(p, q) for q in seen):
            seen.append(p)
    return seen


def _factor_bivariate(f):
    """Distinct irreducible factors of f in k[S,T], via content and roots."""
    ring = f.ring
    main = ring.names[1]
    other = ring.names[0]
    if f.degree_in(main) == 0:
        main, other = other, main
    content, primitive = content_primitive(f, main_var=main)
    out = []
    if not content.is_constant():
        _, fac = factor_dense(poly_to_dense(content, var=other), ring.domain)
        out.extend(dense_to_poly(ring, g, other) for g, _ in fac)
    out.extend(_factor_primitive_bivariate(primitive, main, other))
    return _dedupe(out)


def _factor_primitive_bivariate(f, main, other):
    """Split a primitive f in k[S][T]: linear T-factors via root search in
    k(S); degree 2 or 3 leftovers are irreducible iff they have no root."""
    ring = f.ring
    out = []
    current = f
    while current.degree_in(main) > 0:
        root = _rational_function_root(current, main, other)
        if root is None:
            break
        num, den = root
        lin = content_primitive(den * ring.gen(main) - num, main_var=main)[1]
        try:
            current = exact_divide(current, lin)
        except (ValueError, ZeroDivisionError):
            break
        out.append(lin)
    d = current.degree_in(main)
    if d == 0:
        if not current.is_constant():
            raise FactorizationUnavailable("leftover content after splitting")
        return out
    if d == 1 or (d in (2, 3) and _rational_function_root(current, main, other) is None):
        out.append(current)
        return out
    raise FactorizationUnavailable(
        f"primitive part of degree {d} needs a supplied factorization"
    )


# Pairs of monic divisors _rational_function_root may try, each one exact
# solve for the scalar. The tests try at most 2; over GF(101), six distinct
# linear factors in each of the leading and trailing T-coefficients make
# the budget's 4,096 pairs, tried in about 0.3 s (Python 3.11 on one Xeon
# core), and each further factor doubles the pairs.
_ROOT_PAIR_BUDGET = 4096


def _rational_function_root(f, main, other):
    """A root of f in k(S), as (numerator, denominator) polynomials in S.

    Candidates come from monic divisors of the leading and trailing
    T-coefficients; the scalar is solved for exactly. Raises
    BudgetExceeded, before trying any, past _ROOT_PAIR_BUDGET pairs.
    """
    ring = f.ring
    k = ring.domain
    coeffs = f.coeffs_in(main)
    lead, trail = coeffs[-1], coeffs[0]
    if trail.is_zero():
        return ring.zero(), ring.one()  # T divides f
    lead_fac, trail_fac = (factor_dense(poly_to_dense(c, var=other), k)[1]
                           for c in (lead, trail))
    pairs = math.prod(m + 1 for _, m in lead_fac + trail_fac)
    if pairs > _ROOT_PAIR_BUDGET:
        raise BudgetExceeded(f"{pairs} pairs of candidate numerators and denominators "
                             f"exceed the budget of {_ROOT_PAIR_BUDGET}")
    # f_j den^(d-j) once per denominator and num^j once per numerator
    d = len(coeffs) - 1
    trail_divs = [(num, [num ** j for j in range(d + 1)])
                  for num in _monic_divisors(ring, trail_fac, other)]
    for den in _monic_divisors(ring, lead_fac, other):
        scaled = [cj * den ** (d - j) for j, cj in enumerate(coeffs)]
        for num, num_powers in trail_divs:
            for c in _solve_scalar(scaled, num_powers, other):
                if k.is_zero(c):
                    continue
                return num.scale(c), den
    return None


def _monic_divisors(ring, fac, var):
    """The monic divisors in k[var] of a polynomial whose factorization
    over k is ``fac``, distinct (irreducible factor, multiplicity) pairs."""
    divisors = [ring.one()]
    for g, mult in fac:
        lifted = dense_to_poly(ring, g, var)
        divisors = [d0 * lifted ** e for d0 in divisors for e in range(mult + 1)]
    return divisors


def _solve_scalar(scaled, num_powers, other):
    """Scalars c in k with f(T = c*num/den) = 0, exactly, for f of degree d
    in T with coefficients f_j; ``scaled`` holds the f_j den^(d-j) and
    ``num_powers`` the num^j."""
    k = num_powers[0].ring.domain
    # P(c, S) = sum_j f_j(S) (c*num)^j den^(d-j) must vanish identically in
    # S; column j holds the S-coefficients of its j-th summand
    columns = [poly_to_dense(a * b, var=other) for a, b in zip(scaled, num_powers)]
    # each S-degree gives a univariate condition in c; intersect via gcd
    g = ()
    for s in range(max(map(len, columns))):
        row = up_norm(k, tuple(col[s] if s < len(col) else k.zero() for col in columns))
        if not row:
            continue
        g = k.dense_gcd(g, row) if g else row
        if g == (k.one(),):
            return []
    if not g or up_deg(g) == 0:
        return []
    _, fac = factor_dense(g, k)
    return [k.neg(h[0]) for h, _ in fac if up_deg(h) == 1]


# ---------------------------------------------------------------------------
# Krull dimension
# ---------------------------------------------------------------------------

NEG_INFINITY = float("-inf")


def krull_dimension(algebra: alg.PresentedAlgebra):
    """Dimension for the catalogued shapes; -inf sentinel for the zero ring."""
    base = algebra.base
    names = algebra.names
    rels = algebra.relations
    try:
        zero = algebra.is_zero_ring()
    except Undecidable:
        zero = None
    if zero:
        return NEG_INFINITY
    if not names:
        if base.is_field:
            return 0
        if base == ZZ:
            return 1
        if isinstance(base, Zmod):
            return 0
        raise Unsupported(f"dimension of Spec {base}")
    if not rels:
        if base.is_field:
            return len(names)
        if base == ZZ:
            return len(names) + 1
        raise Unsupported(f"dimension of {algebra}")
    if base.is_field and len(rels) == 1:
        f = rels[0]
        if f.is_constant():
            return NEG_INFINITY if not f.is_zero() else len(names)
        return len(names) - 1
    raise Unsupported("dimension beyond hypersurfaces is not implemented")


# ---------------------------------------------------------------------------
# fibers of V(P0) in Spec ZZ[T] over closed points of Spec ZZ
# ---------------------------------------------------------------------------

def closure_fibers(P0: Poly, primes):
    """[(p, [(point, mult)])] for each p of ``primes``: the points of V(P0)
    in the fiber over x_p, with multiplicities.

    One pass: P0's integer coefficients and the catalogue of ZZ[T] are read
    once, before the first prime, so a P0 outside ZZ[T] is refused even when
    ``primes`` is empty; each prime only reduces the coefficients mod p and
    factors over GF(p).  A fiber is empty iff the reduction is a nonzero
    constant; a reduction to zero raises Undecidable at its prime.
    """
    if P0.ring.domain != ZZ:
        raise UnsupportedDomain(f"closure fibers need a point of ZZ[T], got {P0.ring}")
    coeffs = poly_to_dense(P0)
    cat = SpecCatalogue.recognize(
        alg.PresentedAlgebra(ZZ, P0.ring.names, (), P0.ring.order)
    )
    fibers = []
    for p in primes:
        k = Zmod(p)
        dense = up_norm(k, [c % p for c in coeffs])
        if not dense:
            raise Undecidable(f"{P0} vanishes mod {p}: the whole fiber")
        fac = factor_dense(dense, k)[1] if len(dense) > 1 else ()
        fibers.append((p, [(mixed_point(cat, p, g, k), mult) for g, mult in fac]))
    return fibers


def closure_fiber_points(P0: Poly, p: int):
    """Points of V(P0) inside the fiber over x_p, with multiplicities: the
    one-prime case of ``closure_fibers``."""
    return closure_fibers(P0, (p,))[0][1]


def nilpotents_by_scan(n):
    """Nilpotent elements of ZZ/n by bounded power iteration (oracle path)."""
    k = n.bit_length()
    return sorted(f for f in range(n) if pow(f, k, n) == 0)


def vanishing_everywhere(n):
    """Elements of ZZ/n vanishing at every point of the spectrum."""
    cat = SpecCatalogue.recognize(alg.PresentedAlgebra(Zmod(n), ()))
    pts = enumerate_points(cat)
    ring = alg.PresentedAlgebra(Zmod(n), ()).ring
    out = []
    for f in range(n):
        poly = ring.from_int(f)
        if all(_vanishes_at(poly, pt) for pt in pts):
            out.append(f)
    return sorted(out)
