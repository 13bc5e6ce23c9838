"""Finitely presented algebras: quotients, localization, tensor products.

The Gröbner engine is signature-based (Gao, Volny & Wang 2016; Eder &
Faugère 2017), so it reduces few S-pairs to zero. Every element g of the
basis carries a signature u*e_i, the leading term of some sum a_1*f_1 +
... + a_m*f_m = g of the generators, in the Schreyer order: first key(u) +
key(lm f_i), then the index i. A monomial is one int with its key on top
(``multipoly``), so a signature is the monomial u*lm(f_i) and an index,
and that int decides divisibility; it is checked against the guard bits
like any product.
Pairs are taken in increasing signature, and a J-pair (the element of
larger signature, times lcm/lm) is dropped unreduced when

- a syzygy signature of its index divides its signature (syzygy
  criterion); each index keeps a minimal set of them, from reductions to
  zero and from the Koszul syzygies lm(g_j)*s_n - lm(g_n)*s_j whose two
  terms differ;
- an element added later has a signature dividing its signature (rewrite
  criterion, the later element being the one that rewrites).

A pair that survives is reduced regularly: a term is reduced by x^m*g only
when the signature of x^m*g is smaller, so the remainder keeps the
signature. A nonzero remainder is always added, even when it is only
singularly top-reducible (by some x^m*g of the same signature): under the
rewrite-by-latest-addition criterion that element is what rewrites the
later multiples of its signature, and discarding it returns sets that are
not Gröbner bases (two such lex ideals are pinned in the tests). The
minimal basis among the elements is then inter-reduced.

Over QQ the engine works fraction-free, on integer polynomials in the ring
over ZZ with the same names and order. Each generator is cleared of
denominators and content, with a positive leading coefficient. A reduction
step is rem <- a*rem - b*x^m*g, where a*c = b*lc(g) for the coefficient c
it cancels: over ZZ, a and b are lc(g) and c divided by their gcd; over a
field every reducer is monic, so a = 1 and b = c. Each remainder loses its
content once, after its reduction. A nonzero constant factor keeps a
signature, so the criteria drop the same pairs as over QQ. The final
inter-reduction also runs on integers; only then is the reduced basis made
monic over QQ.

Normal forms keep their remainder sorted and merge in each reducer's
shifted tail through ``multipoly._sub_shifted``, so no step re-sorts;
over ZZ and ZZ/n a remainder holds unreduced ints, each reduced when its
term is popped. Everything works on packed terms (``multipoly``): a
divisibility test, an lcm and a coprimality test are a few integer
operations, and no intermediate polynomial is decoded. Which
leading monomial divides a term is asked once per monomial, not once per
term: a first-divisor memo (``_Divisors``) keeps, for each monomial met,
the first element in ratio order whose leading monomial divides it, and
an element added later replaces only the entries it divides with a
smaller ratio. A run keeps one for its regular reductions and one for its
final inter-reduction, a ``GroebnerBasis`` one for its lifetime. A term
is reduced when that element lies below the term's bound; it is then the
element that a scan of the usable reducers picks, so every remainder is
the scan's. The engine produces the unique reduced basis for the ring's
term order, so normal forms decide equality in the quotient; the tests
check the bases against Buchberger's criterion, reducing the S-pairs that
the Gebauer–Möller update keeps. Ideal arithmetic over a non-field base
is deliberately restricted: over ZZ only the moves the workbench can
certify are offered, and everything else raises rather than silently
answering over QQ.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_right
from fractions import Fraction

from .arith import QQ, ZZ, Domain, Zmod, factor_dense, poly_to_dense, prime_factors, up_deg
from .errors import (
    BudgetExceeded,
    ExponentOverflow,
    NoCanonicalMap,
    NonFieldBase,
    Undecidable,
    UndecidableContext,
)
from .multipoly import (
    GREVLEX,
    BlockOrder,
    Poly,
    PolyRing,
    _ascending,
    _int_modulus,
    _shifted,
    _sub_shifted,
    content_primitive,
)


# ---------------------------------------------------------------------------
# Gröbner bases
# ---------------------------------------------------------------------------

def normal_form_list(f: Poly, basis, divisors=None):
    """Fully reduce f against a list of polynomials (``_reduced``, every
    reducer usable on every term).

    ``divisors`` is a first-divisor memo (``_Divisors``) that the caller
    keeps across calls, made over a list of reducers whose first len(basis)
    are those of ``basis``; without it a fresh one is made. The leading
    coefficients must be units, except over ZZ, where the result is then a
    nonzero integer multiple of the normal form over QQ, a positive one
    when every leading coefficient is positive.
    """
    if not basis:
        return f
    if divisors is None:
        divisors = _Divisors([g.reducer() for g in basis if not g.is_zero()])
    return _reduced(f, divisors, len(basis), 0)


_NO_DIVISOR = (math.inf, None)


class _Divisors:
    """A first-divisor memo over ``reducers``, ``Poly.reducer`` tuples in
    ascending order of ``ratios`` (their positions when no ratios are
    given): ``first`` maps each monomial met to (ratio, reducer) of the
    first of them whose leading monomial divides it, or to
    ``_NO_DIVISOR``.

    ``_reduced`` makes an entry the first time its monomial comes up, by
    one scan of the list. ``insert`` puts an element after those of equal
    ratio, as ``bisect_right`` does, so it replaces an entry only when it
    divides the monomial with a strictly smaller ratio.
    """

    __slots__ = ("ratios", "reducers", "first")

    def __init__(self, reducers, ratios=None):
        self.reducers = reducers
        self.ratios = list(range(len(reducers))) if ratios is None else ratios
        self.first = {}

    def insert(self, ratio, reducer, guard):
        pos = bisect_right(self.ratios, ratio)
        self.ratios.insert(pos, ratio)
        self.reducers.insert(pos, reducer)
        lm, first = reducer[0], self.first
        for m, (r, _) in first.items():  # values change, keys do not
            if ratio < r and not (m - lm) & guard:
                first[m] = ratio, reducer


def _reduced(f, divisors, top, width):
    """The one remainder loop: pop the leading term of the remainder and
    cancel it by its first divisor in ``divisors`` when that element's
    ratio is below top - k*width, k = m >> shift the key of the term's
    monomial m, or else move it to the result. Over ZZ and ZZ/n the
    remainder is lazy (``multipoly._sub_shifted``): a popped coefficient is
    reduced here, and skipped if it is zero.

    A step is rem <- a*rem - b*x^u*g with a*c = b*gc, for the popped term
    c*x^u*lm(g) and the reducer g of leading coefficient gc: over a field
    a = 1 and b = c/gc; over ZZ, a and b are gc and c over their gcd, and
    an a other than 1 also scales the terms moved to the result so far.

    The memo answers each monomial once; the bound decides for each term
    whether the answer may be used. Normal forms (``normal_form_list``)
    pass a position in the list and width 0, regular reductions
    (``_regular_reduce``) their signature bound. Either way the usable
    reducers are a prefix of the list, so the first divisor is usable
    exactly when one of them divides the term, and it is the one a scan of
    that prefix picks.
    """
    ring = f.ring
    dom, pk = ring.domain, ring.packer
    n = _int_modulus(dom)
    guard, shift = pk.guard, pk.shift
    first, ratios, reducers = divisors.first, divisors.ratios, divisors.reducers
    rem = _ascending(f)
    mons, coeffs = rem
    om, oc = [], []
    while mons:
        m, c = mons.pop(), coeffs.pop()
        if n is not None:
            if n:
                c %= n
            if not c:
                continue
        hit = first.get(m)
        if hit is None:
            hit = _NO_DIVISOR
            for k, red in enumerate(reducers):
                if not (m - red[0]) & guard:
                    hit = ratios[k], red
                    break
            first[m] = hit
        if hit[0] < top - (m >> shift) * width:
            gm, gc, tail = hit[1]
            if not dom.is_one(gc):
                if n == 0:  # over ZZ, fraction-free
                    d = math.gcd(c, gc)
                    a, c = gc // d, c // d
                    if a != 1:
                        coeffs[:] = [a * v for v in coeffs]
                        oc[:] = [a * v for v in oc]
                else:
                    c = dom.div(c, gc)
            _sub_shifted(rem, tail, m - gm, c, dom, pk, n)
        else:
            om.append(m)
            oc.append(c)
    return Poly(ring, (tuple(om), tuple(oc)))


def _regular_reduce(f, skey, sidx, ratios, reducers, width, divisors=None):
    """Reduce f, whose signature has the key ``skey`` and the index
    ``sidx``, by multiples x^u*g of smaller signature only; the remainder
    keeps the signature of f.

    ``reducers`` holds the basis elements as ``Poly.reducer`` tuples, in
    ascending order of ``ratios``: (signature key - leading key) * width +
    index, with ``width`` above every index. x^u*g has the signature key of
    the term it reduces plus the ratio of g, so the regular reducers of a
    term of key k are the prefix of ratio below (skey - k) * width + sidx,
    and its first divisor (``_Divisors``) reduces it only when that ratio
    is below the bound. A Gröbner run passes the memo it keeps over
    ``reducers`` as ``divisors``; without it a fresh one is made.
    """
    if not reducers:
        return f
    if divisors is None:
        divisors = _Divisors(reducers, ratios)
    return _reduced(f, divisors, skey * width + sidx, width)


def groebner_basis(gens, ring=None):
    """Reduced Gröbner basis for the ring's term order; deterministic.

    The signature-based engine of the module docstring: pairs are taken in
    increasing signature, and no pair whose signature a syzygy or a later
    element accounts for is reduced. Over QQ it runs on primitive integer
    polynomials, and only the reduced basis is made monic over QQ.
    """
    gens = [g for g in gens if not g.is_zero()]
    if ring is None:
        if not gens:
            raise ValueError("need a ring for the empty generating set")
        ring = gens[0].ring
    if not ring.domain.is_field:
        raise NonFieldBase(f"Gröbner bases need a field base, got {ring.domain}")
    work = ring
    if ring.domain == QQ:
        work = PolyRing(ZZ, ring.names, ring.order)
        gens = [_integral(g, work) for g in gens]
    pk = ring.packer
    guard, shift, coprime, lcm_of, keyed = (
        pk.guard, pk.shift, pk.coprime, pk.lcm_exponents, pk.keyed)
    one = work.domain.one()
    width = len(gens)
    # element n: polys[n], and in els[n] its leading monomial, signature
    # index and monomial, and ratio
    polys, els = [], []
    ratios, reducers = [], []  # ascending ratio, for ``_regular_reduce``
    divisors = _Divisors(reducers, ratios)  # its first-divisor memo
    by_index = [[] for _ in gens]  # (element, signature monomial) per index
    syz = [[] for _ in gens]  # minimal syzygy signature monomials per index
    # a pair is (signature monomial, index, 1 for the generator itself or
    # -n for element n, the monomial that element is multiplied by): of two
    # pairs of one signature the one from the later element comes first
    pairs = [(g.packed()[0][0], i, 1, 0) for i, g in enumerate(gens)]
    heapq.heapify(pairs)

    def survivors():
        # the pairs in increasing signature that neither criterion drops,
        # tested against the syzygies and elements of the moment
        while pairs:
            sig, i, src, t = heapq.heappop(pairs)
            for z in syz[i]:
                if not (sig - z) & guard:
                    break
            else:
                for l, s in by_index[i] if src < 0 else ():
                    if l > -src and not (sig - s) & guard:
                        break
                else:
                    yield sig, i, src, t

    for sig, i, src, t in survivors():
        f = gens[i] if src > 0 else _shifted(polys[-src], t, one)
        h = _regular_reduce(f, sig >> shift, i, ratios, reducers, width, divisors)
        if h.is_zero():
            syz[i] = [z for z in syz[i] if (z - sig) & guard] + [sig]
            continue
        if h.is_constant():
            return [ring.one()]  # a unit: the reduced basis of (1)
        h = content_primitive(h)[1] if work.domain == ZZ else h.monic()
        n = len(polys)
        lm = h.packed()[0][0]
        rat = ((sig >> shift) - (lm >> shift)) * width + i
        new = []
        for j, (lj, ij, sj, rj) in enumerate(els):
            if rat == rj:
                continue
            # the syzygy lm(g_j)*s_n - lm(g_n)*s_j leads with the signature
            # from the element of larger ratio; the J-pair of n and j is that
            # element times lcm/lm
            if rat > rj:
                z, source = lj + sig, (n, i, lm, sig)
            else:
                z, source = lm + sj, (j, ij, lj, sj)
            idx = source[1]
            if not z & guard:
                for y in syz[idx]:
                    if not (z - y) & guard:
                        break
                else:
                    syz[idx] = [y for y in syz[idx] if (y - z) & guard] + [z]
            # coprime leading monomials: that syzygy divides the J-pair
            if not coprime(lm, lj):
                new.append((lcm_of(lm, lj), source))
        polys.append(h)
        els.append((lm, i, sig, rat))
        by_index[i].append((n, sig))
        divisors.insert(rat, h.reducer(), guard)
        for e, (src, idx, ls, s) in new:
            # e is the lcm's exponents: the criteria read only the low
            # ``shift`` bits of sm, which do not depend on the keys
            sm = e - ls + s
            if sm & guard:
                raise ExponentOverflow("a signature has an exponent of 2^31 or more")
            for z in syz[idx]:
                if not (sm - z) & guard:
                    break
            else:
                for l, sl in by_index[idx] if src < n else ():
                    if l > src and not (sm - sl) & guard:
                        break
                else:
                    t = keyed(e) - ls
                    heapq.heappush(pairs, (t + s, idx, -src, t))
    # a minimal basis: no leading monomial divides another, or equals an
    # earlier one; reducing each element by the others reduces its tail.
    # Every term of that remainder is at most lm(g), so only the elements
    # before g, of smaller leading monomial, divide one; the memo's hit on g
    # itself, at lm(g), lies past that prefix and keeps the term
    minimal = []
    for g in sorted(polys, key=lambda g: g.packed()[0][0]):
        m = g.packed()[0][0]
        if not any(not (m - h.packed()[0][0]) & guard for h in minimal):
            minimal.append(g)
    divisors = _Divisors([g.reducer() for g in minimal])
    basis = [normal_form_list(g, minimal[:k], divisors) for k, g in enumerate(minimal)]
    if work is not ring:
        basis = [_monic_over_qq(g, ring) for g in basis]
    return basis


def _integral(f, zring):
    """The primitive integer multiple of f over QQ with a positive leading
    coefficient, in ``zring``, the ring over ZZ with the same packer."""
    mons, coeffs = f.packed()
    d = math.lcm(*[c.denominator for c in coeffs])
    ints = tuple([c.numerator * (d // c.denominator) for c in coeffs])
    return content_primitive(Poly(zring, (mons, ints)))[1]


def _monic_over_qq(f, qring):
    """The monic polynomial over QQ in ``qring`` of the integer f."""
    mons, coeffs = f.packed()
    lc = coeffs[0]
    return Poly(qring, (mons, tuple([Fraction(c, lc) for c in coeffs])))


class GroebnerBasis:
    """Reduced basis plus the order descriptor."""

    def __init__(self, ring, polys):
        self.ring = ring
        self.polys = list(polys)
        self._divisors = None  # the first-divisor memo of every normal form

    def normal_form(self, f):
        if self._divisors is None:
            self._divisors = _Divisors([g.reducer() for g in self.polys if not g.is_zero()])
        return normal_form_list(f, self.polys, self._divisors)

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self):
        return any(p.is_constant() and not p.is_zero() for p in self.polys)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __repr__(self):
        return "GroebnerBasis[" + "; ".join(str(p) for p in self.polys) + "]"


# ---------------------------------------------------------------------------
# presented algebras
# ---------------------------------------------------------------------------

class PresentedAlgebra:
    """base[vars]/(relations); the presentation may present the zero ring."""

    def __init__(self, base: Domain, names, relations=(), order=GREVLEX,
                 localized_from=None):
        self.base = base
        names, relations = tuple(names), tuple(relations)
        ring = None  # the relations' own ring object when it is this ring
        for r in relations:
            if not isinstance(r, Poly):
                raise TypeError("relations must be Poly values")
            if ring is None and (r.ring.names, r.ring.domain, r.ring.order) == (names, base, order):
                ring = r.ring
        self.ring = ring if ring is not None else PolyRing(base, names, order)
        rels = [r if r.ring == self.ring else r.relabel(self.ring) for r in relations]
        self.relations = tuple(r for r in rels if not r.is_zero())
        self.localized_from = localized_from  # (algebra, element) marker
        self._gb = None

    # -- helpers -------------------------------------------------------------

    @property
    def names(self):
        return self.ring.names

    def gens(self):
        return self.ring.gens()

    def groebner(self):
        if self._gb is None:
            self._gb = GroebnerBasis(
                self.ring, groebner_basis(list(self.relations), self.ring)
            )
        return self._gb

    def nf(self, f: Poly):
        """Normal form modulo the relations (field base)."""
        if not self.base.is_field:
            reduced = _reduce_by_monic(f, self.relations)
            if reduced is not None:
                return reduced
            raise NonFieldBase(f"normal forms need a field base, got {self.base}")
        return self.groebner().normal_form(f)

    def is_zero_ring(self):
        """Whether 1 belongs to the relation ideal; exact for the supported bases."""
        if self.base.is_field:
            return self.groebner().is_unit_ideal()
        if isinstance(self.base, Zmod):
            # reduce modulo each prime divisor: the ring vanishes iff it
            # vanishes modulo every prime of the modulus
            for p, _ in prime_factors(self.base.n):
                spec = specialize(self, Zmod(p))
                if not spec.is_zero_ring():
                    return False
            return True
        if self.base == ZZ:
            return self._is_zero_ring_over_zz()
        raise Undecidable(f"zero-ring test unsupported over {self.base}")

    def _is_zero_ring_over_zz(self):
        """Empty over ZZ iff empty over QQ and modulo every prime p of d,
        the positive integer in the ideal that clears the denominators of a
        unit partition over QQ."""
        coeffs = unit_partition(specialize(self, QQ).relations)
        if coeffs is None:
            return False
        d = math.lcm(*(c.denominator for a in coeffs for _, c in a.terms))
        for p, _ in prime_factors(d):
            if not specialize(self, Zmod(p)).is_zero_ring():
                return False
        return True

    def classify_univariate(self):
        """Shape of base[X]/(f) over a field: the six possible verdicts."""
        if len(self.names) != 1 or len(self.relations) > 1 or not self.base.is_field:
            raise UndecidableContext("classification needs one variable, one relation")
        if not self.relations:
            return {"kind": "polynomial-ring"}
        dense = poly_to_dense(self.relations[0])
        if up_deg(dense) == 0:
            return {"kind": "zero-ring"}
        unit, fac = factor_dense(dense, self.base)
        if len(fac) == 1 and fac[0][1] == 1:
            return {"kind": "field", "degree": up_deg(fac[0][0])}
        if all(m == 1 for _, m in fac):
            return {"kind": "product-of-fields", "count": len(fac)}
        if len(fac) == 1:
            return {
                "kind": "local-non-reduced",
                "nilpotent_order": fac[0][1],
                "radical_degree": up_deg(fac[0][0]),
            }
        return {"kind": "non-reduced", "factors": len(fac)}

    def __repr__(self):
        rels = ", ".join(str(r) for r in self.relations)
        body = f"{self.base}[{','.join(self.names)}]"
        return f"{body}/({rels})" if rels else body


def _reduce_by_monic(f, relations):
    """Normal form when every relation is monic in a variable of its own.

    Such relations have pairwise coprime leading monomials, so they form a
    Gröbner basis over any base ring (Buchberger's first criterion) and the
    remainder is unique.  This covers quotients such as ZZ[T]/(T^2+1);
    returns None when not applicable.
    """
    names = []
    for r in relations:
        used = r.variables_used()
        # a relation in one variable leads with its top power
        if len(used) != 1 or not f.ring.domain.is_one(r.leading_coeff()):
            return None
        names += used
    if len(set(names)) != len(names):
        return None
    return normal_form_list(f, relations)


class _Span:
    """Vectors over the field ``dom``, dicts {int key: coefficient}, added
    one at a time and kept in echelon form: the elimination behind every
    linear certificate. A row lies under its pivot, its largest key, with
    coefficient 1 there, and records the tag of the vector it came from and
    the multiples of earlier rows subtracted from it. A vector is reduced
    in one pass over its keys in decreasing order, each pivot cancelled by
    its row, so no step solves again what an earlier one solved.
    """

    def __init__(self, dom):
        self.dom = dom
        self.rows = {}  # pivot -> (the other (key, coefficient) pairs, row number)
        self.recipes = []  # row number -> (tag, scale, [(earlier row, multiple)])

    def _reduce(self, vec):
        """The remainder of ``vec`` and the multiples (row, c) subtracted."""
        dom, vec, rest, used = self.dom, dict(vec), {}, []
        todo = [-k for k in vec]
        heapq.heapify(todo)
        while todo:
            k = -heapq.heappop(todo)
            c = vec.pop(k)
            if dom.is_zero(c):
                continue
            if k not in self.rows:
                rest[k] = c
                continue
            entries, r = self.rows[k]
            used.append((r, c))
            for j, v in entries:  # all below k
                if j not in vec:
                    heapq.heappush(todo, -j)
                vec[j] = dom.sub(vec.get(j, dom.zero()), dom.mul(c, v))
        return rest, used

    def add(self, vec, tag):
        """Add ``vec`` under a tag of its own; False if it lies in the span."""
        rest, used = self._reduce(vec)
        if not rest:
            return False
        pivot = max(rest)
        scale = self.dom.inv(rest.pop(pivot))
        self.rows[pivot] = ([(k, self.dom.mul(scale, v)) for k, v in rest.items()],
                            len(self.recipes))
        self.recipes.append((tag, scale, used))
        return True

    def express(self, vec):
        """{tag: c} with sum(c * added vector) = ``vec``, or None off the span."""
        rest, used = self._reduce(vec)
        if rest:
            return None
        dom, weight, out = self.dom, dict(used), {}
        for r in reversed(range(len(self.recipes))):  # unwind the rows, latest first
            a = weight.get(r)
            if a is not None and not dom.is_zero(a):
                tag, scale, earlier = self.recipes[r]
                a = out[tag] = dom.mul(a, scale)
                for q, c in earlier:
                    weight[q] = dom.sub(weight.get(q, dom.zero()), dom.mul(a, c))
        return out


def _minimal_polynomial(dom, a, one, mul, vector):
    """Monic least-degree m over the field ``dom`` with m(a) = 0, for a in a finite-dimensional
    algebra with ``one`` and ``mul``: the first power in the span of the lower ones."""
    span = _Span(dom)
    for d, power in enumerate(itertools.accumulate(itertools.repeat(a), mul, initial=one)):
        vec = vector(power)
        if not span.add(vec, d):
            comb = span.express(vec)
            return tuple(dom.neg(comb.get(i, dom.zero())) for i in range(d)) + (dom.one(),)


_UNIT_PARTITION_BUDGET = 2500  # multiples m*f_i; x^40*y - 1, y over QQ takes 1,642


def unit_partition(elems):
    """Certify 1 in (elems): coefficients a_i with sum(a_i * f_i) = 1, or
    None when the f_i, Poly values over a field, generate a proper ideal
    (a Gröbner basis decides; the empty family generates the zero ideal).

    The multiples m*f_i, m a monomial, go into one ``_Span`` in increasing
    degree of m until 1 lies in their span, so the certificate has least
    cofactor degree. That degree can grow like d^n, so no degree cap is
    complete: past _UNIT_PARTITION_BUDGET multiples, BudgetExceeded.
    """
    if not elems:
        return None
    ring = elems[0].ring
    if not GroebnerBasis(ring, groebner_basis(elems, ring)).is_unit_ideal():
        return None
    n, one, span = ring.nvars, {0: ring.domain.one()}, _Span(ring.domain)
    multiples = ((tuple(map(combo.count, range(n))), i, g)
                 for degree in itertools.count()
                 for combo in itertools.combinations_with_replacement(range(n), degree)
                 for i, g in enumerate(elems))
    for added, (m, i, g) in enumerate(multiples):
        if added == _UNIT_PARTITION_BUDGET:
            raise BudgetExceeded(f"no unit certificate within {added} multiples m*f_i")
        mons, coeffs = g.packed()
        u = ring.packer.pack(m)
        if span.add({v + u: c for v, c in zip(mons, coeffs)}, (i, m)):
            comb = span.express(one)  # the constant monomial is 0
            if comb is not None:
                out = [ring.zero()] * len(elems)
                for (j, e), c in comb.items():
                    out[j] += ring.monomial(e, c)
                return out


class IdealHandle:
    """An ideal of a presented algebra, given by generator representatives."""

    def __init__(self, ambient: PresentedAlgebra, generators):
        self.ambient = ambient
        gens = []
        for g in generators:
            g = g if g.ring == ambient.ring else g.relabel(ambient.ring)
            if ambient.base.is_field:
                g = ambient.nf(g)
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._gb = None

    def groebner(self):
        """Reduced basis of (relations + generators) in the ambient ring."""
        if not self.ambient.base.is_field:
            raise NonFieldBase("Gröbner bases need a field base")
        if self._gb is None:
            self._gb = GroebnerBasis(
                self.ambient.ring,
                groebner_basis(
                    list(self.ambient.relations) + list(self.generators),
                    self.ambient.ring,
                ),
            )
        return self._gb

    def normal_form(self, f):
        return self.groebner().normal_form(f)

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self):
        return self.groebner().is_unit_ideal()

    def __repr__(self):
        return f"({', '.join(str(g) for g in self.generators)}) in {self.ambient}"


def radical_membership(f: Poly, ideal: IdealHandle):
    """f in sqrt(I), decided by adjoining an inverse of f (Rabinowitsch)."""
    ambient = ideal.ambient
    if not ambient.base.is_field:
        return _radical_membership_nonfield(f, ideal)
    fresh = _fresh_name("y", ambient.names)
    names = ambient.names + (fresh,)
    ring = PolyRing(ambient.base, names, GREVLEX)
    pos = list(range(len(ambient.names)))
    gens = [g.relabel(ring, pos) for g in ambient.relations]
    gens += [g.relabel(ring, pos) for g in ideal.generators]
    gens.append(ring.one() - ring.gen(fresh) * f.relabel(ring, pos))
    return GroebnerBasis(ring, groebner_basis(gens, ring)).is_unit_ideal()


def _radical_membership_nonfield(f, ideal):
    ambient = ideal.ambient
    if ambient.base == ZZ and not ambient.names and not ideal.ambient.relations:
        # integer arithmetic: n in sqrt((m)) iff every prime of m divides n
        gens = [g.constant_value() for g in ideal.generators]
        if len(gens) != 1:
            raise UndecidableContext("integer radical test needs a principal ideal")
        m = abs(gens[0])
        n = f.constant_value()
        if m == 0:
            return n == 0
        return all(n % p == 0 for p, _ in prime_factors(m))
    raise UndecidableContext(f"radical membership unsupported over {ambient.base}")


def _fresh_name(stem, taken):
    if stem not in taken:
        return stem
    k = 2
    while f"{stem}{k}" in taken:
        k += 1
    return f"{stem}{k}"


def _kept_part(ring, gb, keep):
    """(gb) ∩ base[keep] for a basis ``gb`` under an order that eliminates
    the other variables of ``ring``: its elements that use only ``keep``,
    re-indexed into base[keep]."""
    keep = tuple(keep)
    kept = PolyRing(ring.domain, keep, GREVLEX)
    pos = [keep.index(n) if n in keep else None for n in ring.names]
    out = [g.relabel(kept, pos) for g in gb if g.variables_used() <= set(keep)]
    return IdealHandle(PresentedAlgebra(ring.domain, keep), out)


def elimination_ideal(ideal: IdealHandle, keep):
    """Generators of I ∩ base[keep], via a block elimination order."""
    ambient = ideal.ambient
    if not ambient.base.is_field:
        raise NonFieldBase("elimination needs a field base")
    keep = [n for n in ambient.names if n in set(keep)]
    drop = [n for n in ambient.names if n not in set(keep)]
    names = tuple(drop + keep)
    order = BlockOrder((len(drop), len(keep)))
    ring = PolyRing(ambient.base, names, order)
    pos = [names.index(n) for n in ambient.names]
    gens = [g.relabel(ring, pos) for g in ambient.relations]
    gens += [g.relabel(ring, pos) for g in ideal.generators]
    return _kept_part(ring, groebner_basis(gens, ring), keep)


def morphism_kernel(source_names, images, target_algebra):
    """Kernel of base[source_names] -> target, v_i -> images[i].

    Standard elimination: in base[targets + sources] form the ideal of the
    target relations together with v_i - image_i, then eliminate the target
    variables.
    """
    tgt = target_algebra
    base = tgt.base
    out_names = []
    rename = {}
    taken = set(source_names)
    for n in tgt.names:
        nn = _fresh_name(n, taken)
        taken.add(nn)
        out_names.append(nn)
        rename[n] = nn
    names = tuple(out_names) + tuple(source_names)
    ring = PolyRing(base, names, BlockOrder((len(out_names), len(source_names))))
    pos_t = [names.index(rename[n]) for n in tgt.names]
    gens = [g.relabel(ring, pos_t) for g in tgt.relations]
    for v, img in zip(source_names, images):
        gens.append(ring.gen(v) - img.relabel(ring, pos_t))
    return _kept_part(ring, groebner_basis(gens, ring), source_names)


# ---------------------------------------------------------------------------
# tensor product, specialization, localization
# ---------------------------------------------------------------------------

class TensorProduct:
    """Presentation of B ⊗_A C with the two insertion maps."""

    def __init__(self, algebra, left_images, right_images, renamed):
        self.algebra = algebra
        self.left_images = left_images
        self.right_images = right_images
        self.renamed = renamed  # {original name: new name} for clashes

    def __repr__(self):
        return f"TensorProduct({self.algebra})"


def tensor_product(B: PresentedAlgebra, C: PresentedAlgebra):
    """B ⊗_A C over the common base: concatenate variables, unite relations.

    Variable clashes on the right factor are renamed deterministically and
    reported in the result.
    """
    if B.base != C.base:
        raise NoCanonicalMap(f"tensor factors live over {B.base} and {C.base}")
    names = list(B.names)
    renamed = {}
    for n in C.names:
        nn = _fresh_name(n, names)
        if nn != n:
            renamed[n] = nn
        names.append(nn)
    algebra_names = tuple(names)
    ring = PolyRing(B.base, algebra_names, GREVLEX)
    pos_b = [ring._index[n] for n in B.names]
    pos_c = [ring._index[renamed.get(n, n)] for n in C.names]
    rels = [g.relabel(ring, pos_b) for g in B.relations]
    rels += [g.relabel(ring, pos_c) for g in C.relations]
    algebra = PresentedAlgebra(B.base, algebra_names, rels)
    left = [algebra.ring.gen(n) for n in B.names]
    right = [algebra.ring.gen(renamed.get(n, n)) for n in C.names]
    return TensorProduct(algebra, left, right, renamed)


def specialize(B: PresentedAlgebra, target: Domain):
    """Base change along the canonical map base -> target."""
    ring = PolyRing(target, B.names, B.ring.order)
    rels = [g.map_coefficients(ring) for g in B.relations]
    return PresentedAlgebra(target, B.names, rels, B.ring.order)


def localize(A: PresentedAlgebra, f: Poly):
    """A_f presented by one fresh variable and the relation f*T - 1."""
    fresh = _fresh_name("T_inv", A.names)
    names = A.names + (fresh,)
    ring = PolyRing(A.base, names, A.ring.order)
    pos = list(range(len(A.names)))
    rels = [g.relabel(ring, pos) for g in A.relations]
    f_up = f.relabel(ring, pos)
    rels.append(f_up * ring.gen(fresh) - ring.one())
    return PresentedAlgebra(
        A.base, names, rels, A.ring.order, localized_from=(A, f)
    )
