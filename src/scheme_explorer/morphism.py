"""Ring morphisms between presented algebras and the induced Spec maps.

A morphism is stored as one image per source variable plus a coercion on
coefficients; relations are checked to map to zero at construction.  Fibers
are computed as base changes to the residue field of the chosen point, and
point sets of univariate fibers come from factorization.
"""

from __future__ import annotations

import math

from . import algebra as alg
from . import spectrum as sp
from .arith import (
    QQ,
    ExtField,
    FracField,
    Zmod,
    dense_to_poly,
    up_deg,
)
from .errors import (
    IntegralityNotWitnessed,
    InvalidArgument,
    NonFieldBase,
    NotCatalogued,
    ResidueFieldNotRepresentable,
)
from .multipoly import Poly, PolyRing


class RingMorphism:
    """phi: source -> target, given by images of the source variables."""

    def __init__(self, source: alg.PresentedAlgebra, target: alg.PresentedAlgebra,
                 images):
        self.source = source
        self.target = target
        self.images = list(images)
        if len(self.images) != len(source.names):
            raise InvalidArgument("one image per source variable required")
        for rel in source.relations:
            if not self._maps_to_zero(rel):
                raise InvalidArgument(f"relation {rel} does not map to zero")

    def _maps_to_zero(self, rel):
        image = self.apply(rel)
        try:
            return self.target.nf(image).is_zero()
        except NonFieldBase:
            return image.is_zero()

    def apply(self, f: Poly):
        """Push a source element through the morphism."""
        assignment = dict(zip(self.source.names, self.images))
        return f.substitute(assignment, self.target.ring)

    def __repr__(self):
        ims = ", ".join(f"{n} -> {img}" for n, img in zip(self.source.names, self.images))
        return f"RingMorphism({self.source} -> {self.target}; {ims})"


def inclusion(source, target):
    """The coefficient-wise inclusion when source variables persist."""
    images = [target.ring.gen(n) for n in source.names]
    return RingMorphism(source, target, images)


# ---------------------------------------------------------------------------
# Spec functoriality
# ---------------------------------------------------------------------------

def preimage_point(phi: RingMorphism, q: sp.SpecPoint):
    """The point phi^{-1}(q) of the source spectrum.

    Decided by evaluating the source generators' images in kappa(q) and
    recognizing the kernel for the catalogued source shapes.
    """
    src_cat = sp.SpecCatalogue.recognize(phi.source)
    kind = src_cat.kind
    kappa = q.residue
    if kind in ("field",):
        return sp.generic_point(src_cat)
    if kind == "ZZ":
        char = _residue_characteristic(kappa)
        if char == 0:
            return sp.generic_point(src_cat)
        return sp.prime_point(src_cat, char)
    if kind in ("kT", "ZZT"):
        return _preimage_in_poly_ring(phi, q, src_cat)
    if kind == "kST":
        # only the generic-to-generic case is catalogued here
        if q.is_generic():
            return sp.generic_point(src_cat)
        raise NotCatalogued("closed-point preimages in k[S,T] are not catalogued")
    raise NotCatalogued(f"preimages for source {kind}")


def _residue_characteristic(kappa):
    if kappa is None:
        raise NotCatalogued("opaque residue field")
    return kappa.char


def _preimage_in_poly_ring(phi, q, src_cat):
    """Kernel of k[T] (or ZZ[T]) -> kappa(q) through the image of T."""
    var = src_cat.data["var"]
    t_image = phi.apply(phi.source.ring.gen(var))
    value = sp.evaluate(t_image, q)
    kappa = q.residue
    kind = src_cat.kind
    if kind == "ZZT":
        char = kappa.char
        if isinstance(kappa, FracField):
            # value is a fraction of polynomials: transcendental unless the
            # fraction is constant
            num, den = value
            if up_deg(num) <= 0 and up_deg(den) == 0:
                raise NotCatalogued("algebraic value inside a function field")
            if char == 0:
                return sp.generic_point(src_cat)
            return sp.prime_point(src_cat, char)
        if char > 0:
            k = Zmod(char)
            return sp.mixed_point(src_cat, char, _min_poly_of_value(value, kappa, k), k)
        # the kernel is generated by the primitive integer multiple of minpoly
        minpoly = _min_poly_of_value(value, kappa, QQ)
        d = math.lcm(*(c.denominator for c in minpoly))
        return sp.height_one_point(src_cat, [int(c * d) for c in minpoly])
    # kT over a field k
    k = src_cat.data["field"]
    if isinstance(kappa, FracField) and kappa.base == k:
        num, den = value
        if up_deg(num) > 0 or up_deg(den) > 0:
            return sp.generic_point(src_cat)
        value = num[0] if num else k.zero()
        kappa = k
    return sp.closed_point(src_cat, _min_poly_of_value(value, kappa, k))


def _min_poly_of_value(value, kappa, k):
    """Monic minimal polynomial over k of an element of a finite extension."""
    if kappa == k:
        return (k.neg(value), k.one())
    if isinstance(kappa, ExtField) and kappa.base == k:
        return alg._minimal_polynomial(k, value, kappa.one(), kappa.mul,
                                       lambda p: dict(enumerate(p)))
    raise NotCatalogued(f"cannot take minimal polynomials inside {kappa!r}")


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

class FiberDescription:
    def __init__(self, base_point, fiber_algebra, points=None):
        self.base_point = base_point
        self.fiber_algebra = fiber_algebra
        self.points = points

    def as_record(self):
        return {
            "base_point": self.base_point.as_record(),
            "fiber_ring": repr(self.fiber_algebra),
            "points": [p.as_record() for p in (self.points or [])],
        }

    def __repr__(self):
        return f"Fiber({self.fiber_algebra} over {self.base_point.label})"


def fiber(phi: RingMorphism, x: sp.SpecPoint, bound=10):
    """Spec of target ⊗_source kappa(x), with points when catalogued.

    Residue fields must be representable coefficient domains; a rational
    function field raises ResidueFieldNotRepresentable unless the morphism
    is a catalogued polynomial inclusion handled symbolically.
    """
    kappa = x.residue
    if kappa is None:
        raise ResidueFieldNotRepresentable("opaque residue field")
    if _tensor_vanishes(phi.target.base, kappa):
        ring = PolyRing(kappa, phi.target.names, phi.target.ring.order)
        zero_ring = alg.PresentedAlgebra(kappa, ring.names, [ring.one()], ring.order)
        return FiberDescription(x, zero_ring, [])
    if isinstance(kappa, FracField):
        return _symbolic_fiber(phi, x, bound)
    fiber_algebra = _base_change_to_residue(phi, x, kappa)
    try:
        cat = sp.SpecCatalogue.recognize(fiber_algebra)
        points = sp.enumerate_points(cat, bound)
    except NotCatalogued:
        points = None
    return FiberDescription(x, fiber_algebra, points)


def _tensor_vanishes(base, kappa):
    """True when base ⊗_ZZ kappa = 0, so every fiber over kappa is empty.

    A field of characteristic 0 (QQ, a number field, QQ(S)) inverts the
    residue characteristic p > 0; ZZ/n becomes ZZ/gcd(n, p) over a field of
    characteristic p, and 0 over one of characteristic 0.
    """
    if base.char == 0:
        return base.is_field and kappa.char > 0
    return kappa.char == 0 or base.char % kappa.char != 0


def _flatten_extension(algebra: alg.PresentedAlgebra):
    """Rewrite an algebra over ExtField(k, pi) as an algebra over k.

    The extension generator becomes a fresh variable with pi as a relation,
    and extension coefficients are expanded as polynomials in it.  Returns
    (flattened algebra, name of the adjoined variable or None).
    """
    base = algebra.base
    if not isinstance(base, ExtField):
        return algebra, None
    k0 = base.base
    aux = alg._fresh_name(base.var if base.var not in algebra.names else "w", algebra.names)
    names = (aux,) + algebra.names
    ring = PolyRing(k0, names, algebra.ring.order)
    rels = [dense_to_poly(ring, base.modulus, aux)]
    for rel in algebra.relations:
        rels.append(_expand_ext_coeffs(rel, ring))
    flat = alg.PresentedAlgebra(k0, names, rels, algebra.ring.order)
    if isinstance(k0, ExtField):
        raise ResidueFieldNotRepresentable("towers of extensions in fibers")
    return flat, aux


def _expand_ext_coeffs(poly, ring):
    """Transport a polynomial with ExtField coefficients into ring, writing
    each coefficient tuple as a polynomial in the adjoined first variable."""
    return ring.from_dict({
        (i,) + e: ci for e, c in poly.terms for i, ci in enumerate(c)
    })


def _base_change_to_residue(phi, x, kappa):
    """target ⊗ kappa(x): flatten the target over the prime base, coerce
    coefficients into kappa, and pin each source variable to its value."""
    target, aux = _flatten_extension(phi.target)
    ring = PolyRing(kappa, target.names, target.ring.order)
    rels = [rel.map_coefficients(ring) for rel in target.relations]
    if aux is not None and phi.source.base == phi.target.base:
        # the source's coefficient extension is pinned in kappa like a variable
        ext = phi.target.base
        rels.append(ring.gen(aux) - ring.const(kappa.coerce(ext, ext.gen())))
    for name, image in zip(phi.source.names, phi.images):
        value = sp.evaluate(phi.source.ring.gen(name), x)
        if aux is None:
            image_flat = image.relabel(target.ring)
        else:
            image_flat = _expand_ext_coeffs(image, target.ring)
        rels.append(image_flat.map_coefficients(ring) - ring.const(value))
    fiber_algebra = alg.PresentedAlgebra(kappa, target.names, rels, target.ring.order)
    return _substitute_pinned(fiber_algebra)


def _substitute_pinned(algebra):
    """Remove variables pinned by a relation of the form var - constant."""
    changed = True
    current = algebra
    while changed:
        changed = False
        for rel in current.relations:
            pin = _pinned_form(rel)
            if pin is None:
                continue
            name, const = pin
            names = tuple(n for n in current.names if n != name)
            ring = PolyRing(current.base, names, current.ring.order)
            assignment = {name: ring.const(const)}
            for n in names:
                assignment[n] = ring.gen(n)
            rels = [other.substitute(assignment, ring)
                    for other in current.relations if other is not rel]
            current = alg.PresentedAlgebra(current.base, names, rels, ring.order)
            changed = True
            break
    return current


def _pinned_form(rel):
    """(name, constant) when rel = var - constant, else None."""
    ring = rel.ring
    used = rel.variables_used()
    if len(used) != 1:
        return None
    name = used.pop()
    coeffs = rel.coeffs_in(name)
    if len(coeffs) != 2 or coeffs[1] != 1:
        return None
    return name, ring.domain.neg(coeffs[0].constant_value())


def _symbolic_fiber(phi, x, bound):
    """Fiber over a function-field point for the inclusion k[S] -> k[S,T]."""
    src = phi.source
    tgt = phi.target
    kappa = x.residue
    if len(src.names) + 1 != len(tgt.names) or src.relations or tgt.relations:
        raise ResidueFieldNotRepresentable(
            f"kappa = {kappa!r} is a function field; only polynomial "
            "inclusions are handled symbolically"
        )
    new_var = [n for n in tgt.names if n not in src.names]
    if len(new_var) != 1:
        raise ResidueFieldNotRepresentable("not a one-variable extension")
    return FiberDescription(x, alg.PresentedAlgebra(kappa, (new_var[0],)))


# ---------------------------------------------------------------------------
# going-up surjectivity evidence
# ---------------------------------------------------------------------------

class GoingUpReport:
    def __init__(self, witnessed, samples):
        self.witnessed = witnessed    # monic equations per target generator
        self.samples = samples        # list of (base point, fiber point)

    def all_hit(self):
        return all(pt is not None for _, pt in self.samples)

    def as_record(self):
        return {
            "integral_witnesses": [str(w) for w in self.witnessed],
            "samples": [
                {"base": bp.label, "above": (fp.label if fp else None)}
                for bp, fp in self.samples
            ],
            "surjective_on_sample": self.all_hit(),
        }


def going_up_check(phi: RingMorphism, witnesses, bound=50):
    """Sample-based surjectivity of Spec(target) -> Spec(source).

    ``witnesses``: for each target variable, a monic polynomial over the
    source that the variable satisfies; verified by normal form.  For every
    enumerated prime of the source under the bound, one point above it is
    exhibited via fiber factorization.
    """
    tgt = phi.target
    if len(witnesses) != len(tgt.names):
        raise IntegralityNotWitnessed("need one monic equation per generator")
    for name, wit in zip(tgt.names, witnesses):
        if not _is_monic_in(wit, name):
            raise IntegralityNotWitnessed(f"{wit} is not monic in {name}")
        if not tgt.nf(wit).is_zero():
            raise IntegralityNotWitnessed(f"{wit} does not vanish in the target")
    src_cat = sp.SpecCatalogue.recognize(phi.source)
    samples = []
    for pt in sp.enumerate_points(src_cat, bound):
        if pt.is_generic():
            continue
        points = fiber(phi, pt, bound=2).points
        samples.append((pt, points[0] if points else None))
    return GoingUpReport(list(witnesses), samples)


def _is_monic_in(poly, name):
    coeffs = poly.coeffs_in(name)
    return len(coeffs) > 1 and coeffs[-1] == 1

