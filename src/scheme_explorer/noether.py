"""Constructive normalization of affine algebras and zero-set decisions.

``noether_normalize`` runs the textbook recursion: pick a nonzero relation
P, substitute Z_i = X_i + X_1^(r_i) with r_i = p^(i-1) for p exceeding every
exponent in P, extract a monic equation for X_1, eliminate X_1, and recurse.
Every step carries a certificate polynomial that is verified once, by
exact substitution, when the step is made, and p escalates automatically
if the weighted degrees of P's monomials collide.

``is_maximal`` decides maximality of an ideal of k[X_1..X_n] through the
finite-dimensionality of the quotient A plus a field test by linear algebra
on A that factors over k alone and names a zero-divisor witness.
"""

from __future__ import annotations

import functools
import itertools
import math

from .algebra import GroebnerBasis, IdealHandle, _minimal_polynomial, _Span, groebner_basis
from .arith import factor_dense, factoring_kind, up_deg
from .errors import (BudgetExceeded, NonFieldBase, Undecidable, UnitIdeal, Unsupported,
                     UnsupportedDomain)
from .multipoly import GREVLEX, BlockOrder, Poly, PolyRing


class NormalizationStep:
    """One recursion level: chosen relation, substitution data, certificate."""

    def __init__(self, level_names, chosen, p, r_exponents, certificate):
        self.level_names = level_names        # variables at this level
        self.chosen = chosen                  # the relation P picked
        self.p = p                            # exponent base
        self.r_exponents = r_exponents        # (r_2 .. r_n) = (p, p^2, ...)
        self.certificate = certificate        # monic in X@, over Z@1..Z@n
        self.verified = self._check()         # the one check, made here

    def verify(self):
        """Whether the certificate checks, as found when the step was made."""
        return self.verified

    def _check(self):
        """Substitute Z@1 = P and Z@i = X_i + X_1^(r_i); must vanish."""
        ring = self.chosen.ring
        names = self.level_names
        x1 = ring.gen(names[0])
        assignment = {"X@": x1, "Z@1": self.chosen}
        for idx, r in enumerate(self.r_exponents, start=2):
            assignment[f"Z@{idx}"] = ring.gen(names[idx - 1]) + x1 ** r
        if not self.certificate.substitute(assignment, ring).is_zero():
            return False
        coeffs = self.certificate.coeffs_in("X@")
        return len(coeffs) > 1 and coeffs[-1] == 1

    def as_record(self):
        return {
            "variables": list(self.level_names),
            "chosen": str(self.chosen),
            "p": self.p,
            "r": list(self.r_exponents),
            "certificate": str(self.certificate),
        }


class NormalizationResult:
    """d independent elements plus the per-level certificates."""

    def __init__(self, ring, d, y, trace):
        self.ring = ring
        self.d = d
        self.y = y            # list of d polynomials in the original ring
        self.trace = trace    # list of NormalizationStep

    def verify(self):
        """Whether every step's certificate checked, read from the steps."""
        return all(step.verify() for step in self.trace)

    def as_record(self):
        return {
            "d": self.d,
            "y": [str(p) for p in self.y],
            "steps": [s.as_record() for s in self.trace],
        }


def _max_exponent(f: Poly):
    return max((k for e, _ in f.terms for k in e), default=0)


def _weighted_degrees_distinct(f: Poly, weights):
    seen = set()
    for e, _ in f.terms:
        w = sum(wi * ei for wi, ei in zip(weights, e))
        if w in seen:
            return False
        seen.add(w)
    return True


def _pick_relation(gens):
    """First generator of minimal total degree, canonical order tie-break."""
    best = None
    for g in gens:
        key = (g.total_degree(), g.packed()[0][0])
        if best is None or key < best[0]:
            best = (key, g)
    return best[1]


def noether_normalize(ideal: IdealHandle):
    """Normalize k[X_1..X_n]/I: algebraically independent y's, certificates.

    Raises UnitIdeal when 1 ∈ I and NonFieldBase off a field.
    """
    ambient = ideal.ambient
    if not ambient.base.is_field:
        raise NonFieldBase("normalization needs a field base")
    if ambient.relations:
        raise Unsupported("normalize ideals of a free polynomial ring")
    gb = ideal.groebner()
    if gb.is_unit_ideal():
        raise UnitIdeal("the ideal is the unit ideal")
    ring = ambient.ring
    y_polys, steps = _normalize_level(ring, list(gb))
    return NormalizationResult(ring, len(y_polys), y_polys, steps)


def _normalize_level(ring: PolyRing, gens):
    """Return (y polynomials in this level's ring, steps at and below)."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return list(ring.gens()), []
    names = ring.names
    n = len(names)
    P = _pick_relation(gens)
    p = _max_exponent(P) + 1
    while True:
        weights = (1,) + tuple(p ** i for i in range(1, n))
        if _weighted_degrees_distinct(P, weights):
            break
        p += 1
    r_exponents = tuple(p ** i for i in range(1, n))

    # new coordinates: X_1 kept, X_i (i >= 2) replaced by Z_i - X_1^(r_i)
    z_names = tuple(f"{names[i]}@z" for i in range(1, n))
    mixed = PolyRing(ring.domain, (names[0],) + z_names, ring.order)
    x1m = mixed.gen(names[0])
    subst = {names[0]: x1m}
    for i in range(1, n):
        subst[names[i]] = mixed.gen(z_names[i - 1]) - x1m ** r_exponents[i - 1]
    moved = [g.substitute(subst, mixed) for g in gens]

    certificate = _build_certificate(ring, P.substitute(subst, mixed), n)
    step = NormalizationStep(names, P, p, r_exponents, certificate)
    if not step.verify():
        raise Unsupported("normalization certificate failed to verify")

    if n == 1:
        return [], [step]

    elim_ring = PolyRing(ring.domain, (names[0],) + z_names, BlockOrder((1, n - 1)))
    gb = groebner_basis([g.relabel(elim_ring) for g in moved], elim_ring)
    sub_ring = PolyRing(ring.domain, z_names, ring.order)
    pos = [None] + list(range(n - 1))
    lowered = [g.relabel(sub_ring, pos) for g in gb if names[0] not in g.variables_used()]
    sub_y, sub_steps = _normalize_level(sub_ring, lowered)

    lift = {}
    x1 = ring.gen(names[0])
    for i in range(1, n):
        lift[z_names[i - 1]] = ring.gen(names[i]) + x1 ** r_exponents[i - 1]
    y_here = [y.substitute(lift, ring) for y in sub_y]
    return y_here, [step] + sub_steps


def _build_certificate(ring, moved_P, n):
    """Monic equation for X_1 over k[Z_1..Z_n], with Z_1 standing for P.

    ``moved_P`` is P in the mixed coordinates (X_1, Z_2..Z_n); the output
    lives in k[X@, Z@1..Z@n] and equals inv(alpha) * (moved_P - Z@1).
    """
    cert_names = ("X@",) + tuple(f"Z@{i}" for i in range(1, n + 1))
    cring = PolyRing(ring.domain, cert_names, GREVLEX)
    moved_cert = moved_P.relabel(cring, [0] + list(range(2, n + 1)))
    # distinct weighted degrees make the leading coefficient in X@ a constant
    alpha = moved_cert.coeffs_in("X@")[-1].constant_value()
    return (moved_cert - cring.gen("Z@1")).scale(ring.domain.inv(alpha))


# ---------------------------------------------------------------------------
# maximality and common zeros
# ---------------------------------------------------------------------------

class MaximalityCertificate:
    def __init__(self, verdict, dimension=None, witness=None):
        self.verdict = verdict          # "maximal" | "not-maximal"
        self.dimension = dimension      # dim_k of the residue field
        self.witness = witness

    @property
    def is_maximal(self):
        return self.verdict == "maximal"

    def as_record(self):
        out = {"verdict": self.verdict}
        if self.dimension is not None:
            out["dimension"] = self.dimension
        if self.witness is not None:
            out["witness"] = str(self.witness)
        return out

    def __repr__(self):
        return f"MaximalityCertificate({self.as_record()})"


_QUOTIENT_BUDGET = 512  # monomials in the box under the least pure powers, enumerated


def _quotient_basis(gb: GroebnerBasis, ring: PolyRing):
    """Monomials under the staircase, in lex order; (None, variable) if infinite."""
    pk = ring.packer
    leads = [g.packed()[0][0] for g in gb]
    caps = [None] * ring.nvars  # the least pure power of each variable
    for e in map(pk.unpack, leads):
        support = [i for i, k in enumerate(e) if k]
        if len(support) == 1:
            i = support[0]
            caps[i] = e[i] if caps[i] is None else min(caps[i], e[i])
    if None in caps:
        return None, ring.names[caps.index(None)]
    if math.prod(caps) > _QUOTIENT_BUDGET:
        raise BudgetExceeded(f"the quotient's box exceeds {_QUOTIENT_BUDGET} monomials")
    basis = []
    for exps in itertools.product(*(range(c) for c in caps)):
        m = pk.pack(exps)
        if not any(pk.divides(lead, m) for lead in leads):
            basis.append(exps)
    return basis, None


def is_maximal(ideal: IdealHandle):
    """Maximality of an ideal of k[X_1..X_n] with an explicit certificate."""
    ambient = ideal.ambient
    if not ambient.base.is_field:
        raise NonFieldBase("maximality test needs a field base")
    if factoring_kind(ambient.base) is None:
        raise UnsupportedDomain(f"maximality over {ambient.base!r} is not supported")
    gb = ideal.groebner()
    if gb.is_unit_ideal():
        return MaximalityCertificate("not-maximal", witness="1 in I")
    basis, offender = _quotient_basis(gb, ambient.ring)
    if basis is None:
        return MaximalityCertificate(
            "not-maximal", witness=f"powers of {offender} are independent"
        )
    witness = _zero_divisor(gb, ambient.ring, basis)
    verdict = "maximal" if witness is None else "not-maximal"
    return MaximalityCertificate(verdict, dimension=len(basis), witness=witness)


def _zero_divisor(gb, ring, basis):
    """None when A = k[X]/I, with the monomials ``basis`` as a k-basis, is a
    field; else a nonzero non-unit f(a). A candidate a has the minimal
    polynomial m over k, factored over k alone. If m is reducible or has a
    repeated factor, its first irreducible factor f gives f(a) != 0 (deg f <
    deg m), nilpotent if m = f^e, else with f(a)*(m/f)(a) = 0. If m is
    irreducible of degree d = dim A, then A = k[a] is a field.

    Over QQ or a number field the candidates are a_t = sum of t^i*x_i, and
    t < (n - 1)*d*(d - 1)/2 + n suffices: a reduced A has d geometric
    points, which a_t fails to separate only at the roots of C(d, 2) nonzero
    polynomials in t of degree < n; in a nonreduced A, were a_t semisimple
    for n values of t, so would be each x_i (Vandermonde) and so A."""
    dom, nf, d = ring.domain, gb.normal_form, len(basis)
    finite = factoring_kind(dom) == "finite"
    if finite:
        candidates = _frobenius_candidates(gb, ring, basis)
    else:
        candidates = (nf(sum((t ** i * x for i, x in enumerate(ring.gens())), ring.zero()))
                      for t in range((ring.nvars - 1) * d * (d - 1) // 2 + ring.nvars))
    for a in candidates:
        m = _minimal_polynomial(dom, a, ring.one(), lambda p, b: nf(p * b), _vector)
        _, fac = factor_dense(m, dom)
        f, e = fac[0]
        if len(fac) > 1 or e > 1:  # f(a), by Horner's rule
            return functools.reduce(lambda w, c: nf(w * a + ring.const(c)), reversed(f), 0)
        if up_deg(f) == d:
            return None
    if not finite:
        raise Undecidable("no primitive element below the proven bound")


def _frobenius_candidates(gb, ring, basis):
    """The first kernel vector of the F_q-linear F(a) = a^q on A, nilpotent,
    then its first nonconstant fixed vector, whose minimal polynomial divides
    X^q - X. With neither, A is reduced with one field factor per fixed
    dimension (Berlekamp): a field. F(x^e) is F(x^(e - e_i))*F(x_i), with
    x^(e - e_i) earlier in ``basis``: d + n*log2(q) products in all."""
    dom, nf, powered = ring.domain, gb.normal_form, []
    for x in ring.gens():
        image = ring.one()
        for bit in bin(dom.order())[2:]:  # square, and times x at a 1
            image = nf(image * image * x) if bit == "1" else nf(image * image)
        powered.append(image)
    images = {basis[0]: ring.one()}
    for e in basis[1:]:
        i = next(i for i, k in enumerate(e) if k)
        images[e] = nf(images[e[:i] + (e[i] - 1,) + e[i + 1:]] * powered[i])
    for monos, imgs in ((basis, list(images.values())),
                        (basis[1:], [images[e] - ring.monomial(e) for e in basis[1:]])):
        span = _Span(dom)
        for j, vec in enumerate(map(_vector, imgs)):
            if not span.add(vec, j):
                lower = {monos[t]: dom.neg(c) for t, c in span.express(vec).items()}
                yield ring.from_dict({monos[j]: dom.one(), **lower})
                break


def _vector(poly):
    """The coefficients of poly under their monomials: a ``_Span`` vector."""
    return dict(zip(*poly.packed()))


def has_common_zero(polys, ring=None):
    """True iff the system has a zero in some field extension (1 not in I)."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return True
    ring = ring or polys[0].ring
    if not ring.domain.is_field:
        raise NonFieldBase("common-zero test needs a field base")
    return not GroebnerBasis(ring, groebner_basis(polys, ring)).is_unit_ideal()
