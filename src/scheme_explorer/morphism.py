"""Ring morphisms between presented algebras and the induced Spec maps.

A morphism is stored as one image per source variable plus a coercion on
coefficients; relations are checked to map to zero at construction.  Fibers
are computed as base changes to the residue field of the chosen point, and
point sets of univariate fibers come from factorization.
"""

from __future__ import annotations

from . import algebra as alg
from . import spectrum as sp
from .arith import (
    QQ,
    ExtField,
    FracField,
    Zmod,
    factor_dense,
    poly_to_dense,
    up_deg,
    up_norm,
)
from .errors import (
    IntegralityNotWitnessed,
    NotCatalogued,
    ResidueFieldNotRepresentable,
    Undecidable,
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
            raise ValueError("one image per source variable required")
        for rel in source.relations:
            if not self._maps_to_zero(rel):
                raise ValueError(f"relation {rel} does not map to zero")

    def _maps_to_zero(self, rel):
        image = self.apply(rel)
        try:
            return self.target.nf(image).is_zero()
        except Exception:
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
        return sp.enumerate_points(src_cat)[0]
    if kind == "ZZ":
        char = _residue_characteristic(kappa)
        if char == 0:
            return sp.SpecPoint(src_cat, ("generic",), QQ, label="eta")
        return sp.SpecPoint(src_cat, ("principal", char), Zmod(char),
                            label=f"x_{char}")
    if kind in ("kT", "ZZT"):
        return _preimage_in_poly_ring(phi, q, src_cat)
    if kind == "kST":
        # only the generic-to-generic case is catalogued here
        if q.is_generic():
            return sp.SpecPoint(src_cat, ("generic",), None, label="eta")
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
                return sp.SpecPoint(src_cat, ("generic",), FracField(QQ, var),
                                    label="xi_eta")
            return sp.SpecPoint(src_cat, ("principal", char),
                                FracField(Zmod(char), var), label=f"xi_{char}")
        if char > 0:
            minpoly = _min_poly_of_value(value, kappa, Zmod(char))
            lift = phi.source.ring.from_dict(
                {(i,): int(c) for i, c in enumerate(minpoly)}
            )
            res = Zmod(char) if up_deg(minpoly) == 1 else ExtField(
                Zmod(char), minpoly, check=False
            )
            return sp.SpecPoint(src_cat, ("mixed", char, lift), res,
                                label=f"y_({char},{lift})")
        minpoly = _min_poly_of_value(value, kappa, QQ)
        lift = phi.source.ring.from_dict(
            {(i,): _frac_to_int(c) for i, c in enumerate(minpoly)}
        )
        res = ExtField(QQ, minpoly, check=False)
        return sp.SpecPoint(src_cat, ("principal", lift), res, label=f"y_(eta,{lift})")
    # kT over a field k
    k = src_cat.data["field"]
    if isinstance(kappa, FracField) and kappa.base == k:
        num, den = value
        if up_deg(num) > 0 or up_deg(den) > 0:
            return sp.SpecPoint(src_cat, ("generic",), FracField(k, var), label="eta")
        value = num[0] if num else k.zero()
        kappa = k
    minpoly = _min_poly_of_value(value, kappa, k)
    P = phi.source.ring.from_dict({(i,): c for i, c in enumerate(minpoly)})
    res = k if up_deg(minpoly) == 1 else ExtField(k, minpoly, check=False)
    return sp.SpecPoint(src_cat, ("principal", P), res, label=f"x_({P})")


def _frac_to_int(c):
    if c.denominator != 1:
        raise NotCatalogued("kernel lift has true denominators")
    return int(c)


def _min_poly_of_value(value, kappa, k):
    """Monic minimal polynomial over k of an element of a finite extension."""
    if kappa == k:
        return up_norm(k, (k.neg(value), k.one()))
    if isinstance(kappa, ExtField) and kappa.base == k:
        # linear algebra in the extension seen as a k-vector space
        dim = kappa.degree
        rows = []
        power = kappa.one()
        for i in range(dim + 1):
            vec = list(power) + [k.zero()] * (dim - len(power))
            rows.append(vec)
            power = kappa.mul(power, value)
        for d in range(1, dim + 1):
            matrix = [[rows[j][i] for j in range(d)] for i in range(dim)]
            rhs = [k.neg(rows[d][i]) for i in range(dim)]
            sol = alg._solve_field(matrix, rhs, k)
            if sol is not None:
                return up_norm(k, tuple(sol) + (k.one(),))
        raise Undecidable("no minimal polynomial found (not algebraic?)")
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
    points = None
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
    rels = [ring.from_dict({
        tuple([i] + [0] * len(algebra.names)): c
        for i, c in enumerate(base.modulus)
    })]
    for rel in algebra.relations:
        rels.append(_expand_ext_coeffs(rel, ring, base))
    flat = alg.PresentedAlgebra(k0, names, rels, algebra.ring.order)
    if isinstance(k0, ExtField):
        raise ResidueFieldNotRepresentable("towers of extensions in fibers")
    return flat, aux


def _expand_ext_coeffs(poly, ring, ext):
    """Transport a polynomial with ExtField coefficients into ring, writing
    each coefficient tuple as a polynomial in the adjoined first variable."""
    d = {}
    zero = ring.domain.zero()
    for e, c in poly.terms:
        for i, ci in enumerate(c):
            if ring.domain.is_zero(ci):
                continue
            key = (i,) + tuple(e)
            d[key] = ring.domain.add(d[key], ci) if key in d else ci
    return ring.from_dict({k: v for k, v in d.items() if v != zero})


def _base_change_to_residue(phi, x, kappa):
    """target ⊗ kappa(x): flatten the target over the prime base, coerce
    coefficients into kappa, and pin each source variable to its value."""
    target, aux = _flatten_extension(phi.target)
    ring = PolyRing(kappa, target.names, target.ring.order)
    rels = [_push_coeffs(rel, ring, kappa) for rel in target.relations]
    for name, image in zip(phi.source.names, phi.images):
        value = sp.evaluate(phi.source.ring.gen(name), x)
        if aux is None:
            image_flat = image.relabel(target.ring)
        else:
            image_flat = _expand_ext_coeffs(image, target.ring, phi.target.base)
        image_up = _push_coeffs(image_flat, ring, kappa)
        rels.append(image_up - ring.const(_into(kappa, value)))
    rels = [r for r in rels if not r.is_zero()]
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
            rels = []
            for other in current.relations:
                if other is rel:
                    continue
                moved = other.substitute(assignment, ring)
                if not moved.is_zero():
                    rels.append(moved)
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
    if rel.degree_in(name) != 1:
        return None
    i = ring._index[name]
    lin = tuple(1 if j == i else 0 for j in range(ring.nvars))
    lc = rel.coeff(lin)
    if not ring.domain.is_one(lc):
        return None
    const = ring.domain.neg(rel.coeff((0,) * ring.nvars))
    if len(rel.terms) > 2:
        return None
    return name, const


def _push_coeffs(poly, ring, kappa):
    d = {}
    for e, c in poly.terms:
        v = kappa.coerce(poly.ring.domain, c)
        if not kappa.is_zero(v):
            d[e] = v
    return ring.from_dict(d)


def _into(kappa, value):
    """Normalize an evaluation result into a kappa element."""
    if isinstance(kappa, Zmod):
        return value % kappa.n
    if isinstance(kappa, ExtField):
        if isinstance(value, tuple):
            return value
        return kappa.from_base(value)
    return value


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
    fiber_algebra = alg.PresentedAlgebra(kappa, (new_var[0],))
    points = None
    return FiberDescription(x, fiber_algebra, points)


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
        desc = fiber(phi, pt, bound=2)
        above = None
        if desc.points:
            above = desc.points[0]
        else:
            # fall back: a univariate fiber with relations factors directly
            above = _first_point_of_univariate_quotient(desc.fiber_algebra)
        samples.append((pt, above))
    return GoingUpReport(list(witnesses), samples)


def _is_monic_in(poly, name):
    d = poly.degree_in(name)
    if d <= 0:
        return False
    ring = poly.ring
    i = ring._index[name]
    lead = poly.coeff(tuple(d if j == i else 0 for j in range(ring.nvars)))
    return ring.domain.is_one(lead)


def _first_point_of_univariate_quotient(algebra):
    """A closed point of k[T]/(f): the first irreducible factor of f."""
    if len(algebra.names) != 1 or not algebra.base.is_field:
        return None
    if not algebra.relations:
        return None
    dense = poly_to_dense(algebra.relations[0])
    if up_deg(dense) < 1:
        return None
    _, fac = factor_dense(dense, algebra.base)
    if not fac:
        return None
    g = fac[0][0]
    cat = sp.SpecCatalogue.recognize(
        alg.PresentedAlgebra(algebra.base, algebra.names)
    )
    P = cat.algebra.ring.from_dict({(i,): c for i, c in enumerate(g)})
    kappa = algebra.base if up_deg(g) == 1 else ExtField(algebra.base, g, check=False)
    return sp.SpecPoint(cat, ("principal", P), kappa, label=f"x_({P})")
