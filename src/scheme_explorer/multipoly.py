"""Sparse multivariate polynomials over an exact coefficient domain.

A PolyRing fixes the domain, an ordered variable list, and a term order
(graded reverse lexicographic by default; lex and block orders are available
for elimination).  Polynomials are immutable; terms are kept sorted in
descending order, leading term first, so printing is canonical.

This module owns the term format.  Every sum, difference, product and
quotient merges through one kernel, ``_sub_shifted``, which subtracts a
scaled, shifted copy of a sorted term list from a sorted remainder; since
multiplying by a monomial keeps every term order, nothing is re-sorted.
The kernel finds terms by their order key, so the key must be injective on
exponent vectors: a block order must cover every variable.  Other modules
read a polynomial one variable at a time through ``Poly.coeffs_in`` and
``arith.dense_to_poly``, and move it between rings through
``Poly.relabel`` or ``Poly.substitute``, never implicitly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from operator import add, itemgetter, neg, sub

from .arith import QQ, ZZ, Domain, dense_to_poly, poly_to_dense, up_gcd
from .errors import InvalidArgument, NotHomogeneous, ZeroPolynomial


class TermOrder:
    """Monomial order as a sort key on exponent tuples (larger = leading)."""

    name = "?"

    def key(self, exps):
        raise NotImplementedError

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(type(self))


class GrevlexOrder(TermOrder):
    name = "grevlex"

    def key(self, exps):
        return (sum(exps), tuple(map(neg, exps[::-1])))


class LexOrder(TermOrder):
    name = "lex"

    def key(self, exps):
        return tuple(exps)


class BlockOrder(TermOrder):
    """Block (elimination) order: compare the first block, then the rest.

    ``sizes`` splits the exponent tuple; earlier blocks dominate, so placing
    the variables to eliminate in the first block yields an elimination
    order for the remaining ones.
    """

    def __init__(self, sizes, inner=None):
        self.sizes = tuple(sizes)
        self.inner = tuple(inner) if inner else tuple(GrevlexOrder() for _ in sizes)
        self.name = f"block{self.sizes}"

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.sizes == self.sizes
            and other.inner == self.inner
        )

    def __hash__(self):
        return hash((type(self), self.sizes, self.inner))

    def key(self, exps):
        parts = []
        pos = 0
        for size, order in zip(self.sizes, self.inner):
            parts.append(order.key(tuple(exps[pos:pos + size])))
            pos += size
        return tuple(parts)


GREVLEX = GrevlexOrder()
LEX = LexOrder()


class PolyRing:
    """domain[names] with a fixed term order."""

    def __init__(self, domain: Domain, names, order: TermOrder = GREVLEX):
        self.domain = domain
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise InvalidArgument(f"duplicate variable names in {self.names}")
        if isinstance(order, BlockOrder) and sum(order.sizes) != len(self.names):
            raise InvalidArgument(
                f"{order} orders {sum(order.sizes)} variables, not {len(self.names)}"
            )
        self.order = order
        self._index = {n: i for i, n in enumerate(self.names)}

    @property
    def nvars(self):
        return len(self.names)

    def zero(self):
        return Poly(self, ())

    def one(self):
        return self.const(self.domain.one())

    def const(self, c):
        if self.domain.is_zero(c):
            return self.zero()
        return Poly(self, (((0,) * self.nvars, c),))

    def from_int(self, n):
        return self.const(self.domain.from_int(n))

    def gen(self, name):
        if name not in self._index:
            raise InvalidArgument(f"{self} has no variable {name!r}")
        i = self._index[name]
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, ((exps, self.domain.one()),))

    def gens(self):
        return [self.gen(n) for n in self.names]

    def from_dict(self, d):
        terms = []
        for exps, c in d.items():
            if not self.domain.is_zero(c):
                terms.append((tuple(exps), c))
        return Poly(self, self._sorted(terms))

    def _sorted(self, terms):
        return tuple(sorted(terms, key=lambda t: self.order.key(t[0]), reverse=True))

    def with_order(self, order):
        return PolyRing(self.domain, self.names, order)

    def monomial(self, exps, c=None):
        c = self.domain.one() if c is None else c
        if self.domain.is_zero(c):
            return self.zero()
        return Poly(self, ((tuple(exps), c),))

    def __eq__(self, other):
        return other is self or (
            isinstance(other, PolyRing)
            and other.domain == self.domain
            and other.names == self.names
            and other.order == self.order
        )

    def __hash__(self):
        return hash((self.domain, self.names, self.order))

    def __repr__(self):
        return f"{self.domain}[{','.join(self.names)}]"


class Poly:
    """Immutable sparse polynomial; terms sorted descending, leading first."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # tuple of (exps, coeff), order-descending

    # -- basic structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and sum(self.terms[0][0]) == 0)

    def constant_value(self):
        if not self.terms:
            return self.ring.domain.zero()
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms[0][1]

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def degree_in(self, name):
        i = self.ring._index[name]
        if not self.terms:
            return -1
        return max(e[i] for e, _ in self.terms)

    def leading_term(self):
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        return self.terms[0]

    def leading_monomial(self):
        return self.leading_term()[0]

    def leading_coeff(self):
        return self.leading_term()[1]

    def coeff(self, exps):
        exps = tuple(exps)
        for e, c in self.terms:
            if e == exps:
                return c
        return self.ring.domain.zero()

    def variables_used(self):
        used = set()
        for e, _ in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(self.ring.names[i])
        return used

    def is_homogeneous(self):
        if not self.terms:
            return True
        d = sum(self.terms[0][0])
        return all(sum(e) == d for e, _ in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError(
                    f"cannot mix polynomials from {other.ring} and {self.ring}"
                )
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, Fraction):
            return self.ring.const(self.ring.domain.coerce(QQ, other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # merge the shorter operand into the longer
        big, small = (other, self) if len(other.terms) > len(self.terms) else (self, other)
        return big._sub_scaled(small, self.ring.domain.neg(self.ring.domain.one()))

    __radd__ = __add__

    def __neg__(self):
        dom = self.ring.domain
        return Poly(self.ring, tuple((e, dom.neg(c)) for e, c in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._sub_scaled(other, self.ring.domain.one())

    def __rsub__(self, other):
        return (-self) + other

    def _sub_scaled(self, other, c):
        """self - c*other, merged by the kernel."""
        ring = self.ring
        rem = _ascending(self)
        _sub_shifted(rem, other.terms, (0,) * ring.nvars, c, ring.order.key, ring.domain)
        return _from_ascending(ring, rem)

    def __mul__(self, other):
        """The sum of the longer factor shifted by each term of the shorter."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        dom, key = ring.domain, ring.order.key
        big, small = (other, self) if len(other.terms) > len(self.terms) else (self, other)
        rem = []
        for e, c in small.terms:
            _sub_shifted(rem, big.terms, e, dom.neg(c), key, dom)
        return _from_ascending(ring, rem)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        r = self.ring.one()
        a = self
        while n:
            if n & 1:
                r = r * a
            a = a * a
            n >>= 1
        return r

    def scale(self, c):
        dom = self.ring.domain
        terms = ((e, dom.mul(k, c)) for e, k in self.terms)
        return Poly(self.ring, tuple(t for t in terms if not dom.is_zero(t[1])))

    def monic(self):
        return self.scale(self.ring.domain.inv(self.leading_coeff()))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return (
            isinstance(other, Poly)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    # -- substitution and transport ------------------------------------------

    def substitute(self, assignment, target_ring=None):
        """Map variables to polynomials of ``target_ring``.

        ``assignment`` maps variable names to Poly values (missing names must
        exist in the target ring under the same name).  Coefficients travel
        through the target domain's coercion.
        """
        ring = target_ring or next(iter(assignment.values())).ring
        out = ring.zero()
        images = []
        for n in self.ring.names:
            if n in assignment:
                images.append(assignment[n])
            else:
                images.append(ring.gen(n))
        for e, c in self.terms:
            term = ring.const(ring.domain.coerce(self.ring.domain, c))
            for i, k in enumerate(e):
                if k:
                    term = term * images[i] ** k
            out = out + term
        return out

    def map_coefficients(self, target_ring):
        """Same monomials, coefficients coerced into the target domain."""
        if target_ring.nvars != self.ring.nvars:
            raise ValueError("coefficient maps keep the variable count")
        dom = target_ring.domain
        d = {}
        for e, c in self.terms:
            v = dom.coerce(self.ring.domain, c)
            if not dom.is_zero(v):
                d[e] = v
        return target_ring.from_dict(d)

    def coeffs_in(self, name):
        """The coefficients of self in ``name``, low degree first: polynomials
        c_k free of ``name`` with self = sum(c_k * name^k); [] for zero."""
        i = self.ring._index[name]
        parts = [[] for _ in range(self.degree_in(name) + 1)]
        for e, c in self.terms:
            # dividing by name^k keeps the order of the terms that have it
            parts[e[i]].append((e[:i] + (0,) + e[i + 1:], c))
        return [Poly(self.ring, tuple(p)) for p in parts]

    def relabel(self, target_ring, position_map=None):
        """Transport by variable position: variable i becomes variable
        ``position_map[i]`` of ``target_ring`` (the same position by default).

        A None position marks a variable that must not occur: ValueError if
        it does, so nothing is dropped silently.
        """
        if position_map is None:
            position_map = range(self.ring.nvars)
        moved = [(i, j) for i, j in enumerate(position_map) if j is not None]
        dropped = [i for i, j in enumerate(position_map) if j is None]
        src, dom = self.ring.domain, target_ring.domain
        d = {}
        for e, c in self.terms:
            if any(e[i] for i in dropped):
                raise ValueError(f"{self} uses a variable that {target_ring} lacks")
            exps = [0] * target_ring.nvars
            for i, j in moved:
                exps[j] = e[i]
            d[tuple(exps)] = dom.coerce(src, c)
        return target_ring.from_dict(d)

    def resort(self, order):
        ring = self.ring.with_order(order)
        return Poly(ring, ring._sorted(self.terms))

    def evaluate(self, values):
        """Full evaluation: values is a name -> domain element map."""
        dom = self.ring.domain
        out = dom.zero()
        for e, c in self.terms:
            term = c
            for i, k in enumerate(e):
                if k:
                    term = dom.mul(term, dom.pow(values[self.ring.names[i]], k))
            out = dom.add(out, term)
        return out

    # -- printing --------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        dom = self.ring.domain
        parts = []
        for e, c in self.terms:
            mono = "*".join(
                f"{self.ring.names[i]}^{k}" if k > 1 else self.ring.names[i]
                for i, k in enumerate(e)
                if k
            )
            cs = dom.format(c)
            neg = cs.startswith("-")
            body = cs[1:] if neg else cs
            if mono:
                if body == "1":
                    text = mono
                else:
                    body = body if _atomic_coeff(body) else f"({body})"
                    text = f"{body}*{mono}"
            else:
                text = body if _atomic_coeff(body) else f"({body})"
            if not parts:
                parts.append(f"-{text}" if neg else text)
            else:
                parts.append(f"- {text}" if neg else f"+ {text}")
        return " ".join(parts)

    def __repr__(self):
        return f"<{self} in {self.ring}>"


def _atomic_coeff(body):
    return all(ch not in body for ch in "+- ")


# ---------------------------------------------------------------------------
# grading, homogenization, content
# ---------------------------------------------------------------------------

def homogeneous_components(f: Poly):
    """Map total degree -> homogeneous part; empty for the zero polynomial."""
    buckets = {}
    for e, c in f.terms:
        buckets.setdefault(sum(e), []).append((e, c))
    return {d: Poly(f.ring, tuple(ts)) for d, ts in buckets.items()}


def homogenize(f: Poly, new_var: str, position: int = 0, rename=None):
    """Degree-complete f with a fresh variable inserted at ``position``.

    ``rename`` optionally maps old variable names to new ones (the usual
    move from affine tau-coordinates to projective T-coordinates).
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot homogenize the zero polynomial")
    rename = rename or {}
    names = [rename.get(n, n) for n in f.ring.names]
    names.insert(position, new_var)
    ring = PolyRing(f.ring.domain, names, f.ring.order)
    d = f.total_degree()
    out = {}
    for e, c in f.terms:
        exps = list(e)
        exps.insert(position, d - sum(e))
        out[tuple(exps)] = c
    return ring.from_dict(out)


def dehomogenize(f: Poly, var: str, rename=None):
    """Substitute 1 for ``var`` in a homogeneous polynomial.

    The remaining variables are renamed through ``rename`` when given
    (projective T-coordinates back to affine tau-coordinates).
    """
    if not f.is_homogeneous():
        raise NotHomogeneous(f"{f} is not homogeneous")
    rename = rename or {}
    i = f.ring._index[var]
    names = [rename.get(n, n) for n in f.ring.names if n != var]
    ring = PolyRing(f.ring.domain, names, f.ring.order)
    out = {}
    dom = ring.domain
    for e, c in f.terms:
        exps = tuple(k for j, k in enumerate(e) if j != i)
        out[exps] = dom.add(out[exps], c) if exps in out else c
    return ring.from_dict(out)


def content_primitive(f: Poly, main_var=None):
    """Content and primitive part.

    Over ZZ the content is the integer gcd of all coefficients (sign fixed
    so the primitive part has positive leading coefficient).  With a
    ``main_var`` the polynomial is read as univariate in that variable over
    the polynomial ring in the others, and the content is the univariate gcd
    of the coefficient polynomials (requires exactly two variables and a
    field domain).
    """
    if f.is_zero():
        raise ZeroPolynomial("content of the zero polynomial")
    if main_var is None:
        if f.ring.domain != ZZ:
            raise ValueError("plain content is defined over ZZ")
        g = 0
        for _, c in f.terms:
            g = math.gcd(g, abs(c))
        if f.leading_coeff() < 0:
            g = -g
        prim = Poly(f.ring, tuple((e, c // g) for e, c in f.terms))
        return g, prim
    return _content_primitive_bivariate(f, main_var)


def _content_primitive_bivariate(f, main_var):
    ring = f.ring
    if ring.nvars != 2 or not ring.domain.is_field:
        raise ValueError("coefficient content needs 2 variables over a field")
    other = [n for n in ring.names if n != main_var][0]
    dom = ring.domain
    g = ()
    for c in f.coeffs_in(main_var):
        if c.terms:
            vec = poly_to_dense(c, var=other)
            g = up_gcd(dom, g, vec) if g else vec
    content = dense_to_poly(ring, g, other)
    prim = exact_divide(f, content)
    return content, prim


def exact_divide(f: Poly, g: Poly):
    """Exact polynomial division; raises if g does not divide f."""
    ring = f.ring
    dom = ring.domain
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    (ge, gc), tail = g.terms[0], g.terms[1:]
    key = ring.order.key
    rem = _ascending(f)
    out = []
    while rem:
        _, le, lc = rem.pop()
        exps = tuple(map(sub, le, ge))
        if any(e < 0 for e in exps):
            raise ValueError(f"{g} does not divide {f}")
        c = dom.div(lc, gc) if dom.is_field else _exact_coeff_div(dom, lc, gc)
        # quotient terms come out in descending order, like the remainder's
        out.append((exps, c))
        _sub_shifted(rem, tail, exps, c, key, dom)
    return Poly(ring, tuple(out))


def _exact_coeff_div(dom, a, b):
    if dom == ZZ:
        if a % b != 0:
            raise ValueError("coefficient division is not exact")
        return a // b
    return dom.mul(a, dom.inv(b))


# ---------------------------------------------------------------------------
# the merge kernel
# ---------------------------------------------------------------------------

def _ascending(f):
    """The terms of f as a remainder for ``_sub_shifted``."""
    key = f.ring.order.key
    return [(key(e), e, c) for e, c in reversed(f.terms)]


def _from_ascending(ring, rem):
    return Poly(ring, tuple((e, c) for _, e, c in reversed(rem)))


def _sub_shifted(rem, tail, shift, c, key, dom):
    """rem -= c * x^shift * tail, in place and without sorting.

    ``rem`` is a list of (order key, exps, coeff) in ascending key order, so
    its leading term is last, and ``tail`` a descending tuple of
    (exps, coeff). Multiplying by a monomial keeps every term order: each
    shifted term costs one order key and one binary search below the
    position of the previous one. A product c * gc that is zero (ZZ/n has
    zero divisors) adds no term.
    """
    mul, dsub, is_zero = dom.mul, dom.sub, dom.is_zero
    hi = len(rem)
    for e, gc in tail:
        e = tuple(map(add, e, shift))
        k = key(e)
        i = bisect_left(rem, k, 0, hi, key=itemgetter(0))
        p = mul(c, gc)
        if i < hi and rem[i][0] == k:
            v = dsub(rem[i][2], p)
            if is_zero(v):
                del rem[i]
            else:
                rem[i] = (k, e, v)
        elif not is_zero(p):
            rem.insert(i, (k, e, dom.neg(p)))
        hi = i
