"""Sparse multivariate polynomials over an exact coefficient domain.

A PolyRing fixes the domain, an ordered variable list, and a term order
(graded reverse lexicographic by default; lex and block orders are available
for elimination).  Polynomials are immutable; terms are kept sorted in
descending order, leading term first, so printing is canonical.

This module owns the term format.  A monomial is one int, its order key
above its packed exponents, m = key << 32*nvars | exps, and a term is a
monomial and a coefficient.

- Every order is a nonnegative integer weight matrix: grevlex is the total
  degree followed by the prefix sums x1+...+x_{n-1}, ..., x1, lex is the
  identity, and a block order is the block-diagonal of its blocks' matrices.
  The key holds the rows of the matrix times the exponent vector, first row
  most significant, so comparing monomials compares terms, and the
  monomial is the one sort key.  A block order must cover every variable.
- The exponents hold one 32-bit field per variable.  The top bit of each
  field is a guard bit, clear in every valid monomial, so an exponent is
  below 2^31.  A product adds two monomials, a quotient subtracts them,
  and a monomial divides another iff their difference has no guard bit set.
- A product whose exponent reaches 2^31 sets a guard bit; the arithmetic
  checks each new term and raises ``ExponentOverflow`` instead of carrying
  into the next field.  Key fields are wide enough for the sum of two valid
  monomials, and an exponent field never carries into the key, so a term
  that overflows never matches an existing monomial.

Every sum, difference and quotient merges through one kernel,
``_sub_shifted``, which subtracts a scaled, shifted copy of a sorted term
list from a sorted remainder; since multiplying by a monomial keeps every
term order, nothing is re-sorted, and the binary search runs on plain ints.
Over ZZ and ZZ/n the remainder is lazy: it holds unreduced ints, and each
coefficient is reduced mod n, and dropped if zero, once, when its term
leaves the remainder.
Products and powers are made on packed terms, with no Poly built, by
``_product`` and ``_power``, the one product and power of both ``Poly``'s
operators and ``dsl.eval_poly``.  A product by one term is ``_shift``,
which keeps the term order; any other sums its term products in one dict
and sorts once, since a merge inserts each new term into a list and a
product of n terms each way makes up to n^2 of them.
``Poly.packed()``, the monomials and the coefficients, is the view the
arithmetic uses; ``Poly.terms``, the (exps tuple, coeff) pairs, is decoded
from it on first read and cached.
Other modules read a polynomial one variable at a time through
``Poly.coeffs_in`` and ``arith.dense_to_poly``, and move it between rings
through ``Poly.relabel`` or ``Poly.substitute``, never implicitly.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from operator import add, itemgetter, mul, or_

from .arith import QQ, ZZ, Domain, IntegerRing, RationalField, Zmod, dense_to_poly, poly_to_dense
from .errors import ExponentOverflow, InvalidArgument, NotHomogeneous, ZeroPolynomial


# Exponents live in 32-bit fields of one int; the top bit of each field is
# its guard bit, clear in every valid monomial.
_FIELD = 32


class TermOrder:
    """Monomial order given by a nonnegative integer weight matrix: the rows
    are compared in turn, larger = leading.

    The monomials of each variable count, ints that compare as the terms
    do, are packed by one ``_Packer`` per order (``packer``).
    """

    name = "?"

    def __init__(self):
        self._packers = {}

    def rows(self, n):
        """The weight matrix on n variables, one tuple per row."""
        raise NotImplementedError

    def packer(self, n):
        pk = self._packers.get(n)
        if pk is None:
            pk = self._packers[n] = _Packer(self.rows(n), n)
        return pk

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(type(self))


class GrevlexOrder(TermOrder):
    """Total degree, then the prefix sums x1+...+x_{n-1}, ..., x1: of two
    terms of one degree the one with the smaller last exponent leads."""

    name = "grevlex"

    def rows(self, n):
        return [(1,) * (n - r) + (0,) * r for r in range(n)]


class LexOrder(TermOrder):
    name = "lex"

    def rows(self, n):
        return [tuple(int(i == r) for i in range(n)) for r in range(n)]


class BlockOrder(TermOrder):
    """Block (elimination) order: compare the first block, then the rest.

    ``sizes`` splits the exponent tuple; earlier blocks dominate, so placing
    the variables to eliminate in the first block yields an elimination
    order for the remaining ones. Each block is ordered by grevlex, so the
    weight matrix is block-diagonal with grevlex blocks.
    """

    def __init__(self, sizes):
        super().__init__()
        self.sizes = tuple(sizes)
        self.name = f"block{self.sizes}"

    def __eq__(self, other):
        return type(other) is type(self) and other.sizes == self.sizes

    def __hash__(self):
        return hash((type(self), self.sizes))

    def rows(self, n):
        if sum(self.sizes) != n:
            raise InvalidArgument(f"{self} orders {sum(self.sizes)} variables, not {n}")
        out = []
        pos = 0
        for size in self.sizes:
            out += [(0,) * pos + r + (0,) * (n - pos - size) for r in GREVLEX.rows(size)]
            pos += size
        return out


class _Packer:
    """The monomials of one term order on n variables.

    The exponents of a monomial are E = sum(e_i << 32*i), one 32-bit field
    per variable whose top bit (``guard``) is clear: every exponent is below
    2^31. The order key is a dot product with the columns of the weight
    matrix; its fields hold a row of a sum of two valid monomials without
    carrying, so key(x^a * x^b) = key(a) + key(b). The monomial is
    key << ``shift`` | E, with ``shift`` = 32*n: products add, quotients
    subtract, and m1 divides m2 iff ``(m2 - m1) & guard == 0``, as the low
    ``shift`` bits of a difference are the difference of the exponents.
    ``gens`` holds the monomials of the variables.
    """

    __slots__ = ("nvars", "weights", "shift", "guard", "gens", "_pack", "_unpack",
                 "_nbytes", "_lows", "_exps")

    def __init__(self, rows, n):
        width = (max((sum(r) for r in rows), default=1) << _FIELD).bit_length()
        top = len(rows) - 1
        self.nvars = n
        self.weights = tuple(
            sum(r[i] << (width * (top - j)) for j, r in enumerate(rows))
            for i in range(n)
        )
        self.shift = _FIELD * n
        self._exps = (1 << self.shift) - 1
        self._lows = sum(1 << (_FIELD * i) for i in range(n))
        self.guard = self._lows << (_FIELD - 1)
        self.gens = tuple(w << self.shift | 1 << (_FIELD * i)
                          for i, w in enumerate(self.weights))
        fields = struct.Struct(f"<{n}I")
        self._pack, self._unpack = fields.pack, fields.unpack
        self._nbytes = 4 * n

    def key(self, exps):
        return sum(map(mul, exps, self.weights))

    def pack(self, exps):
        try:
            e = int.from_bytes(self._pack(*exps), "little")
        except struct.error:
            e = None
        if e is None or e & self.guard:
            if len(exps) != self.nvars or not all(isinstance(k, int) and k >= 0 for k in exps):
                raise InvalidArgument(f"{exps} is not a monomial in {self.nvars} variables")
            raise ExponentOverflow(f"{exps} has an exponent of 2^31 or more")
        return self.key(exps) << self.shift | e

    def unpack(self, m):
        return self._unpack((m & self._exps).to_bytes(self._nbytes, "little"))

    def divides(self, a, b):
        """Whether the monomial a divides b."""
        return not (b - a) & self.guard

    def lcm_exponents(self, a, b):
        """The exponents of the lcm of the monomials a and b, without its
        key: all that ``divides``, ``coprime`` and equality of lcms read."""
        # the guard bit of a field of (a | guard) - b survives iff a_i >= b_i
        mask = (((a | self.guard) - b) & self.guard) >> (_FIELD - 1)
        mask *= (1 << _FIELD) - 1
        return (b ^ ((a ^ b) & mask)) & self._exps

    def keyed(self, e):
        """The monomial of the exponents e."""
        return self.key(self.unpack(e)) << self.shift | e

    def coprime(self, a, b):
        # (x | guard) - lows keeps the guard bit of exactly the fields x_i > 0
        guard, lows = self.guard, self._lows
        return not ((a | guard) - lows) & ((b | guard) - lows) & guard


GREVLEX = GrevlexOrder()
LEX = LexOrder()


class PolyRing:
    """domain[names] with a fixed term order."""

    def __init__(self, domain: Domain, names, order: TermOrder = GREVLEX):
        self.domain = domain
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise InvalidArgument(f"duplicate variable names in {self.names}")
        self.order = order
        self.packer = order.packer(len(self.names))
        self._index = {n: i for i, n in enumerate(self.names)}

    @property
    def nvars(self):
        return len(self.names)

    def zero(self):
        return Poly(self, ((), ()), ())

    def one(self):
        return self.const(self.domain.one())

    def const(self, c):
        if self.domain.is_zero(c):
            return self.zero()
        return Poly(self, ((0,), (c,)), (((0,) * self.nvars, c),))

    def from_int(self, n):
        return self.const(self.domain.from_int(n))

    def gen(self, name):
        if name not in self._index:
            raise InvalidArgument(f"{self} has no variable {name!r}")
        i = self._index[name]
        one = self.domain.one()
        exps = tuple(int(j == i) for j in range(self.nvars))
        return Poly(self, ((self.packer.gens[i],), (one,)), ((exps, one),))

    def gens(self):
        return [self.gen(n) for n in self.names]

    def from_dict(self, d):
        is_zero = self.domain.is_zero
        return self._from_terms([(tuple(e), c) for e, c in d.items() if not is_zero(c)])

    def _from_terms(self, terms):
        """The polynomial of distinct (exps, coeff) terms in any order,
        packed and sorted by their monomials.

        The terms are kept as the decoded view. Packing checks every
        exponent against the field width (``_Packer.pack``).
        """
        if not terms:
            return self.zero()
        rows = zip(map(self.packer.pack, [e for e, _ in terms]), terms)
        mons, terms = zip(*sorted(rows, key=itemgetter(0), reverse=True))
        return Poly(self, (mons, tuple([c for _, c in terms])), terms)

    def monomial(self, exps, c=None):
        c = self.domain.one() if c is None else c
        if self.domain.is_zero(c):
            return self.zero()
        return self._from_terms(((tuple(exps), c),))

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
    """Immutable sparse polynomial; terms sorted descending, leading first.

    The terms are packed (``packed()``): two parallel tuples of monomials
    and coefficients, which the arithmetic reads and writes. ``terms``, the
    (exps tuple, coeff) pairs that everything else reads, is decoded from
    them on first read and cached, and so is the printed form.
    """

    __slots__ = ("ring", "_packed", "_terms", "_reducer", "_str")

    def __init__(self, ring, packed, terms=None):
        self.ring = ring
        self._packed = packed  # (monomials, coeffs), order-descending
        self._terms = terms  # the decoded (exps, coeff) pairs, once read
        self._reducer = None
        self._str = None

    @property
    def terms(self):
        terms = self._terms
        if terms is None:
            mons, coeffs = self._packed
            terms = self._terms = tuple(zip(map(self.ring.packer.unpack, mons), coeffs))
        return terms

    def packed(self):
        return self._packed

    def reducer(self):
        """(leading monomial, leading coefficient, tail), the tail as
        (monomial, coefficient) pairs, made once for every normal form it
        reduces."""
        red = self._reducer
        if red is None:
            mons, coeffs = self.packed()
            red = self._reducer = (mons[0], coeffs[0], tuple(zip(mons[1:], coeffs[1:])))
        return red

    # -- basic structure ----------------------------------------------------

    def is_zero(self):
        return not self._packed[0]

    def is_constant(self):
        return self._packed[0] in ((), (0,))

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
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading term")
        mons, coeffs = self._packed
        return self.ring.packer.unpack(mons[0]), coeffs[0]

    def leading_monomial(self):
        return self.leading_term()[0]

    def leading_coeff(self):
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading term")
        return self._packed[1][0]

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
        big, small = self, other
        if len(other._packed[0]) > len(self._packed[0]):
            big, small = other, self
        return big._sub_scaled(small, self.ring.domain.neg(self.ring.domain.one()))

    __radd__ = __add__

    def __neg__(self):
        return self._map_coeffs(self.ring.domain.neg)

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
        n = _int_modulus(ring.domain)
        rem = _ascending(self)
        _sub_shifted(rem, zip(*other._packed), 0, c, ring.domain, ring.packer, n)
        return _from_ascending(ring, rem, n)

    def __mul__(self, other):
        """The product by ``_product``; a factor 1 returns the other."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        dom = ring.domain
        packed = _product(self._packed, other._packed, dom, ring.packer, _int_modulus(dom))
        if packed is self._packed:
            return self
        return other if packed is other._packed else Poly(ring, packed)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, self.ring.one(), mul)

    def _map_coeffs(self, fn):
        """The terms with coefficients fn(c), zeros dropped."""
        mons, coeffs = self._packed
        return Poly(self.ring, _nonzero(mons, tuple(map(fn, coeffs)), self.ring.domain.is_zero))

    def scale(self, c):
        mul = self.ring.domain.mul
        return self._map_coeffs(lambda k: mul(k, c))

    def monic(self):
        dom = self.ring.domain
        lc = self.leading_coeff()
        return self if dom.is_one(lc) else self.scale(dom.inv(lc))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, Poly) or other.ring != self.ring:
            return False
        return other._packed == self._packed

    def __hash__(self):
        return hash((self.ring, self._packed))

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
            parts[e[i]].append((e[:i] + (0,) + e[i + 1:], c))
        return [self.ring._from_terms(p) for p in parts]

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
        if self._str is None:
            self._str = format_terms(self.ring.names, self.ring.domain, self.terms)
        return self._str

    def __repr__(self):
        return f"<{self} in {self.ring}>"


def format_terms(names, dom, terms):
    """The printed form of a polynomial from its (exps tuple, coeff) terms,
    leading term first, coefficients nonzero in ``dom``: the one printer of
    ``Poly.__str__`` and, through ``format_dense``, of the point labels of
    ``spectrum``.  Over ZZ, ZZ/n and QQ each coefficient is printed by str,
    its sign read from the text; elsewhere by ``dom.format``, a compound
    coefficient put in parentheses."""
    number = isinstance(dom, _NUMBER_DOMAINS)
    parts = []
    for e, c in terms:
        mono = "*".join([f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(e) if k])
        cs, sign = str(c) if number else dom.format(c), "+ "
        if cs[0] == "-":
            cs, sign = cs[1:], "- "
        if not number and ("+" in cs or "-" in cs or " " in cs):
            cs = f"({cs})"
        parts.append(sign + (cs if not mono else mono if cs == "1" else f"{cs}*{mono}"))
    return _signed_join(parts)


def format_dense(var, dom, coeffs):
    """``format_terms`` of sum(coeffs[k] * var^k), from the dense
    coefficients, low degree first; over ZZ, ZZ/n and QQ with no term
    tuples."""
    if not isinstance(dom, _NUMBER_DOMAINS):
        return format_terms([var], dom, [((k,), coeffs[k]) for k in range(len(coeffs) - 1, -1, -1)
                                         if not dom.is_zero(coeffs[k])])
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            cs, sign = str(c), "+ "
            if cs[0] == "-":
                cs, sign = cs[1:], "- "
            mono = f"{var}^{k}" if k > 1 else var if k else ""
            parts.append(sign + (cs if not mono else mono if cs == "1" else f"{cs}*{mono}"))
    return _signed_join(parts)


# Domains whose elements are ints or Fractions, printed by str
_NUMBER_DOMAINS = (IntegerRing, RationalField, Zmod)


def _signed_join(parts):
    """Terms that each start with "+ " or "- ", joined; the first sign is
    dropped or kept as "-"."""
    if not parts:
        return "0"
    first = parts[0]
    parts[0] = first[2:] if first[0] == "+" else "-" + first[2:]
    return " ".join(parts)


# ---------------------------------------------------------------------------
# grading, homogenization, content
# ---------------------------------------------------------------------------

def homogeneous_components(f: Poly):
    """Map total degree -> homogeneous part; empty for the zero polynomial."""
    buckets = {}
    for e, c in f.terms:
        buckets.setdefault(sum(e), []).append((e, c))
    return {d: f.ring._from_terms(ts) for d, ts in buckets.items()}


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
        mons, coeffs = f._packed
        g = math.gcd(*coeffs)
        if coeffs[0] < 0:
            g = -g
        if g == 1:
            return g, f
        return g, Poly(f.ring, (mons, tuple([c // g for c in coeffs])))
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
            g = dom.dense_gcd(g, vec) if g else vec
    content = dense_to_poly(ring, g, other)
    prim = exact_divide(f, content)
    return content, prim


def exact_divide(f: Poly, g: Poly):
    """Exact polynomial division; raises if g does not divide f."""
    ring = f.ring
    dom = ring.domain
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    gm, gc, tail = g.reducer()
    pk = ring.packer
    n = _int_modulus(dom)
    rem = _ascending(f)
    mons, coeffs = rem
    qm, qc = [], []
    while mons:
        m, lc = mons.pop() - gm, coeffs.pop()
        if n is not None:  # a lazy remainder (``_sub_shifted``)
            if n:
                lc %= n
            if not lc:
                continue
        if m & pk.guard:
            raise ValueError(f"{g} does not divide {f}")
        if n == 0:
            c, r = divmod(lc, gc)
            if r:
                raise ValueError("coefficient division is not exact")
        else:
            c = dom.div(lc, gc)
        # quotient terms come out in descending order, like the remainder's
        qm.append(m)
        qc.append(c)
        _sub_shifted(rem, tail, m, c, dom, pk, n)
    return Poly(ring, (tuple(qm), tuple(qc)))


# ---------------------------------------------------------------------------
# the merge kernel
# ---------------------------------------------------------------------------

def _ascending(f):
    """The packed terms of f as a remainder for ``_sub_shifted``."""
    return [list(reversed(v)) for v in f._packed]


def _from_ascending(ring, rem, n=None):
    """The polynomial of a remainder of ``_sub_shifted`` (``_descending``)."""
    return Poly(ring, _descending(rem, _int_modulus(ring.domain) if n is None else n))


def _descending(rem, n):
    """The packed terms of a remainder of ``_sub_shifted``, leading term
    first; over ZZ and ZZ/n each coefficient is reduced and the zeros are
    dropped (``n`` as there)."""
    mons, coeffs = rem
    if n:
        coeffs = [c % n for c in coeffs]
    if n is not None and 0 in coeffs:
        keep = [i for i, c in enumerate(coeffs) if c]
        mons, coeffs = [mons[i] for i in keep], [coeffs[i] for i in keep]
    return tuple(reversed(mons)), tuple(reversed(coeffs))


def _product(a, b, dom, pk, n):
    """The packed terms of a * b, no Poly built.  A product by one term is
    ``_shift``; any other sums its term products in one dict and sorts once,
    over ZZ and ZZ/n on ints reduced at the end (``n`` is
    ``_int_modulus(dom)``).  A zero factor absorbs the other unchecked, a
    one-term factor checks every exponent, and two longer factors raise
    ExponentOverflow only for a nonzero term product past 2^31."""
    if len(b[0]) > len(a[0]):
        a, b = b, a
    if len(b[0]) == 1:
        return _shift(a, b[0][0], b[1][0], dom, pk.guard)
    times, plus = (mul, add) if n is not None else (dom.mul, dom.add)
    d = {}
    for m, c in zip(*b):
        for k, x in zip(*a):
            k += m
            p = times(c, x)
            d[k] = plus(d[k], p) if k in d else p
    guard, is_zero = pk.guard, dom.is_zero
    if reduce(or_, d, 0) & guard and any((k + m) & guard and not is_zero(dom.mul(c, x))
                                         for m, c in zip(*b) for k, x in zip(*a)):
        raise ExponentOverflow("a product has an exponent of 2^31 or more")
    mons = sorted(d, reverse=True)
    coeffs = [d[k] % n for k in mons] if n else [d[k] for k in mons]
    return _nonzero(tuple(mons), tuple(coeffs), is_zero)


def _power(a, n, one, times):
    """a^n by repeated squaring, ``times`` the product and ``one`` the
    empty product: the one power loop of ``Poly`` and ``dsl.eval_poly``."""
    r = one
    while n:
        if n & 1:
            r = a if r is one else times(r, a)
        n >>= 1
        if n:
            a = times(a, a)
    return r


def _shifted(f, shift, c):
    """c * x^shift * f (``_shift``); f itself when that is f."""
    ring = f.ring
    packed = _shift(f._packed, shift, c, ring.domain, ring.packer.guard)
    return f if packed is f._packed else Poly(ring, packed)


def _shift(a, shift, c, dom, guard):
    """The packed terms of c * x^shift * a, the monomial x^shift given as one
    int: the product by a monomial keeps the term order, so the terms stay
    where they are.  Every exponent is checked before the zero products
    drop out."""
    one = dom.is_one(c)
    if not shift and one:
        return a
    mons, coeffs = a
    mons = tuple([m + shift for m in mons])
    if reduce(or_, mons, 0) & guard:
        raise ExponentOverflow("a product has an exponent of 2^31 or more")
    if one:
        return mons, coeffs
    mul = dom.mul
    return _nonzero(mons, tuple([mul(c, x) for x in coeffs]), dom.is_zero)


def _nonzero(mons, coeffs, is_zero):
    """Packed terms without those of a zero coefficient (ZZ/n has zero
    divisors)."""
    if any(map(is_zero, coeffs)):
        keep = [i for i, c in enumerate(coeffs) if not is_zero(c)]
        mons, coeffs = (tuple([v[i] for i in keep]) for v in (mons, coeffs))
    return mons, coeffs


def _int_modulus(dom):
    """n over ZZ/n and 0 over ZZ, whose elements are plain ints; None over
    every other domain."""
    return dom.n if isinstance(dom, Zmod) else 0 if isinstance(dom, IntegerRing) else None


def _sub_shifted(rem, tail, shift, c, dom, pk, n=None):
    """rem -= c * x^shift * tail, in place and without sorting.

    ``rem`` is two lists, the monomials and coefficients of a remainder in
    ascending order, so its leading term is last; ``tail`` iterates over
    (monomial, coeff) in descending order, and the shift x^shift is one
    monomial int of the packer ``pk``. Multiplying by a monomial adds to
    each monomial and keeps every term order: each shifted term costs one
    binary search on plain ints below the position of the previous one. A
    monomial already present is valid (``_Packer``), so only a new term is
    checked against the guard bits.

    Over ZZ and ZZ/n, whose elements are plain ints, the remainder is lazy:
    it holds unreduced ints, and a term is one update coeffs[i] -= c*gc,
    with no reduction mod n, no zero test and no deletion. A coefficient is
    reduced, and dropped if it is zero, once, when its term leaves the
    remainder: when ``algebra._reduced`` or ``exact_divide`` pops it, or
    when ``_from_ascending`` freezes the remainder. A product c * gc that
    is zero mod n (ZZ/n has zero divisors) still adds no term, so it is
    reduced on the one path where that matters: a new term that sets a
    guard bit raises only when its product is nonzero. ``n`` is
    ``_int_modulus(dom)``, given by a caller that makes many calls.

    Every other domain (``ExtField``, ``FracField``, the finite rings of
    ``sheaf``) goes through its ``Domain`` methods, and its remainder holds
    only nonzero terms: a zero product adds no term, and a difference that
    is zero deletes one. Over QQ the Gröbner engine runs on integer
    polynomials in a ZZ ring, so its reductions take the int update too.
    """
    mons, coeffs = rem
    guard = pk.guard
    hi = len(mons)
    if n is None:
        n = _int_modulus(dom)
    if n is None:
        mul, dsub, is_zero = dom.mul, dom.sub, dom.is_zero
        for m, gc in tail:
            m += shift
            i = bisect_left(mons, m, 0, hi)
            p = mul(c, gc)
            if i < hi and mons[i] == m:
                v = dsub(coeffs[i], p)
                if is_zero(v):
                    del mons[i], coeffs[i]
                else:
                    coeffs[i] = v
            elif not is_zero(p):
                if m & guard:
                    raise ExponentOverflow("a product has an exponent of 2^31 or more")
                mons.insert(i, m)
                coeffs.insert(i, dom.neg(p))
            hi = i
        return
    for m, gc in tail:
        m += shift
        i = bisect_left(mons, m, 0, hi)
        if i < hi and mons[i] == m:
            coeffs[i] -= c * gc
        elif not m & guard:
            mons.insert(i, m)
            coeffs.insert(i, -c * gc)
        elif c * gc % n if n else c * gc:
            raise ExponentOverflow("a product has an exponent of 2^31 or more")
        hi = i
