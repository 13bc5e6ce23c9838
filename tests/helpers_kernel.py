"""The tuple-key merge kernel that preceded packed monomials, kept as a
reference for the packed one; the packed kernel with a ``Domain`` call
per coefficient operation, kept as a reference for its int update; the
dense univariate loops with a ``Domain`` call per coefficient operation,
kept as references for the integer and table kernels of the domains, with
``RefExtField``, an extension field's element operations without a
kernel; the integer-polynomial division and Yun that preceded
``ZZ.dense_divmod`` and ``_yun(f, ZZ)``, kept as references for them;
the generator search that ``_ZechTables`` made with products of its own,
kept as a reference for its tables; and ``_solve_field``, the dense
Gauss-Jordan solve that preceded ``algebra._Span``, kept as the oracle of
ideal membership by bounded-degree linear algebra; and the integer root
one bit at a time that preceded ``arith._integer_root``, kept as its
oracle; the trial division by every odd divisor that preceded the sieved
gcd blocks of ``arith.prime_factors``, kept as their oracle; and
``verify_basis`` with ``gm_update`` and ``s_polynomial``, the
Buchberger-criterion check of a Gröbner basis, kept as the oracle of the
engine's bases; and ``scan_reduced``, the remainder loop that scanned the
reducers for every term before ``algebra._Divisors`` kept each monomial's
first divisor, kept as the oracle of its remainders, with its own
reduction step (``ref_reduce_term``) on ``generic_sub_shifted``, so it
shares no code with the lazy kernel it checks; and the printers
with one ``Domain.format`` call per coefficient that preceded the number
paths of ``multipoly.format_terms`` and ``Domain.dense_text``
(``ref_format_terms``, ``ref_dense_str``, ``ref_ext_field_text``), kept
as their oracles; and ``ref_quotient_mul``, the product of
``sheaf.QuotientPolyRing`` with a ``Domain`` call per coefficient
operation, kept as the oracle of its products on ints over Z/n; and
``verify_isomorphism``, which checks a pair of mutually inverse maps of
presented algebras by normal forms, the oracle of the tensor and
localization isomorphisms."""

import heapq
import itertools
import math
from bisect import bisect_left
from operator import add, itemgetter

from scheme_explorer import algebra, arith
from scheme_explorer.arith import QQ, ZZ, Domain, Zmod, up_ext_gcd
from scheme_explorer.errors import BudgetExceeded, ExponentOverflow
from scheme_explorer.multipoly import (
    GREVLEX,
    LEX,
    BlockOrder,
    Poly,
    PolyRing,
    _ascending,
    _shifted,
)


def tuple_key(order):
    """The tuple sort keys that preceded the packed ones: grevlex compares
    the degree and then the negated exponents from the last, lex the
    exponents, a block order the grevlex keys of its blocks in turn."""
    if isinstance(order, BlockOrder):
        inner = tuple_key(GREVLEX)

        def key(exps):
            parts, pos = [], 0
            for size in order.sizes:
                parts.append(inner(tuple(exps[pos:pos + size])))
                pos += size
            return tuple(parts)
        return key
    if order == LEX:
        return tuple
    return lambda exps: (sum(exps), tuple(-e for e in reversed(exps)))


def ref_sub_shifted(rem, tail, shift, c, key, dom):
    """rem -= c * x^shift * tail on (key, exps, coeff) triples, ascending."""
    hi = len(rem)
    for e, gc in tail:
        e = tuple(map(add, e, shift))
        k = key(e)
        i = bisect_left(rem, k, 0, hi, key=itemgetter(0))
        p = dom.mul(c, gc)
        if i < hi and rem[i][0] == k:
            v = dom.sub(rem[i][2], p)
            if dom.is_zero(v):
                del rem[i]
            else:
                rem[i] = (k, e, v)
        elif not dom.is_zero(p):
            rem.insert(i, (k, e, dom.neg(p)))
        hi = i


def ref_ascending(terms, key):
    return [(key(e), e, c) for e, c in reversed(terms)]


def ref_terms(rem):
    return tuple((e, c) for _, e, c in reversed(rem))


def generic_sub_shifted(rem, tail, shift, c, dom, pk):
    """``multipoly._sub_shifted`` with ``dom.mul``, ``dom.sub`` and
    ``dom.is_zero`` for every term, whatever the domain."""
    mons, coeffs = rem
    hi = len(mons)
    for m, gc in tail:
        m += shift
        i = bisect_left(mons, m, 0, hi)
        p = dom.mul(c, gc)
        if i < hi and mons[i] == m:
            v = dom.sub(coeffs[i], p)
            if dom.is_zero(v):
                del mons[i], coeffs[i]
            else:
                coeffs[i] = v
        elif not dom.is_zero(p):
            if m & pk.guard:
                raise ExponentOverflow("a product has an exponent of 2^31 or more")
            mons.insert(i, m)
            coeffs.insert(i, dom.neg(p))
        hi = i


def ref_norm(dom, c):
    c = list(c)
    while c and dom.is_zero(c[-1]):
        c.pop()
    return tuple(c)


def ref_add(dom, a, b):
    out = []
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else dom.zero()
        y = b[i] if i < len(b) else dom.zero()
        out.append(dom.add(x, y))
    return ref_norm(dom, out)


def ref_sub(dom, a, b):
    return ref_add(dom, a, tuple(dom.neg(x) for x in b))


def ref_scale(dom, a, s):
    if dom.is_zero(s):
        return ()
    return ref_norm(dom, [dom.mul(x, s) for x in a])


def ref_monic(dom, a):
    if not a:
        return a
    return ref_scale(dom, a, dom.inv(a[-1]))


def ref_mul(dom, a, b):
    if not a or not b:
        return ()
    out = [dom.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if dom.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = dom.add(out[i + j], dom.mul(x, y))
    return ref_norm(dom, out)


def ref_divmod(dom, a, b):
    """Euclidean division; needs the leading coefficient of b invertible."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    lb = None if dom.is_one(b[-1]) else dom.inv(b[-1])
    q = [dom.zero()] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b) and r:
        c = r[-1] if lb is None else dom.mul(r[-1], lb)
        k = len(r) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] = dom.sub(r[k + i], dom.mul(c, y))
        while r and dom.is_zero(r[-1]):
            r.pop()
    return ref_norm(dom, q), ref_norm(dom, r)


def ref_ext_mul(field, a, b):
    """The product of an ExtField by polynomial product and remainder."""
    return ref_divmod(field.base, ref_mul(field.base, a, b), field.modulus)[1]


def ref_gcd(dom, a, b):
    """The monic gcd over a field by Euclid's algorithm on ``ref_divmod``."""
    while b:
        a, b = b, ref_divmod(dom, a, b)[1]
    return ref_monic(dom, a)


class RefExtField(Domain):
    """The elements of an ExtField with no kernel: sums on the base
    coordinates, products by ``ref_ext_mul``, inverses by ``up_ext_gcd``
    over the base.  The ``ref_*`` loops over it are the generic dense
    arithmetic of the field."""

    is_field = True

    def __init__(self, field):
        self.field, self.base = field, field.base

    def from_int(self, n):
        return ref_norm(self.base, (self.base.from_int(n),))

    def is_zero(self, a):
        return not a

    def add(self, a, b):
        return ref_add(self.base, a, b)

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        return ref_ext_mul(self.field, a, b)

    def inv(self, a):
        g, u, _ = up_ext_gcd(self.base, a, self.field.modulus)
        assert len(g) == 1
        return ref_scale(self.base, u, self.base.inv(g[0]))


def ref_zech_tables(p, modulus, primes):
    """(g, exp, log, zech, neg) of GF(p)[t]/(modulus), the way the tables
    were made before their generator search moved onto ``Zmod``: the first
    of t, t + 1, ..., then 1, ..., p - 1 with g^(m/l) != 1 for each prime l
    in ``primes`` (those dividing m = p^r - 1), by products of coordinate
    lists; exp lists g^k for k < m once, and neg is looked up as the log of
    -1."""
    r, low = len(modulus) - 1, modulus[:-1]
    m = p ** r - 1

    def product(x, y):
        # x*y mod modulus for coordinate lists of length r
        out = [0] * (2 * r - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y, i):
                    out[j] += a * b
        for k in range(2 * r - 2, r - 1, -1):
            top = out[k] % p
            if top:
                for j, w in enumerate(low, k - r):
                    out[j] -= top * w
        return [c % p for c in out[:r]]

    def power(x, e):
        out = one
        while e:
            if e & 1:
                out = product(out, x)
            x = product(x, x)
            e >>= 1
        return out

    def trimmed(x):
        x = list(x)
        while x and not x[-1]:
            x.pop()
        return tuple(x)

    one = [1] + [0] * (r - 1)
    for i in itertools.chain(range(p, m + 1), range(1, p)):
        g = [i // p ** j % p for j in range(r)]
        if all(power(g, m // ell) != one for ell in primes):
            break
    exp, x = [], one
    for _ in range(m):
        exp.append(trimmed(x))
        x = product(x, g)
    log = {e: k for k, e in enumerate(exp)}
    zech = [log.get(trimmed([(e[0] + 1) % p, *e[1:]])) for e in exp]
    return trimmed(g), exp, log, zech, log[trimmed([p - 1])]


def ref_try_divide_int(a, b):
    """Exact division of integer polynomials; (None, None) on failure."""
    if not b:
        return None, None
    q = {}
    r = list(a)
    while len(r) >= len(b) and r:
        if r[-1] % b[-1] != 0:
            return None, None
        c = r[-1] // b[-1]
        k = len(r) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
        while r and r[-1] == 0:
            r.pop()
    qq = [0] * (max(q) + 1 if q else 0)
    for k, c in q.items():
        qq[k] = c
    return ref_norm(ZZ, tuple(qq)), ref_norm(ZZ, tuple(r))


def _ref_primitive(a):
    """a over its content, lc > 0."""
    g = math.gcd(*a)
    return tuple(c // g for c in a) if a[-1] > 0 else tuple(-c // g for c in a)


def _ref_int_prem(a, b):
    """Pseudo-remainder of integer polynomials: lc(b)^k * a mod b."""
    r = list(a)
    lb, nb = b[-1], len(b)
    while len(r) >= nb:
        c, k = r[-1], len(r) - nb
        r = [x * lb for x in r]
        for i, y in enumerate(b):
            r[k + i] -= c * y
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def _ref_int_gcd(a, b):
    """Primitive gcd (lc > 0) of integer polynomials, a nonzero, by the
    primitive remainder sequence."""
    while b:
        b = _ref_primitive(b)
        a, b = b, _ref_int_prem(a, b)
    return _ref_primitive(a)


def _ref_int_exact_div(a, b):
    q, r = ref_try_divide_int(a, b)
    assert r == ()
    return q


def _ref_int_deriv(a):
    return ref_norm(ZZ, [a[i] * i for i in range(1, len(a))])


def ref_yun_int(f):
    """Yun's squarefree decomposition of a primitive integer polynomial:
    gcds are primitive and every division is exact over ZZ (Gauss's
    lemma); the factors come back primitive with lc > 0."""
    out = []
    df = _ref_int_deriv(f)
    a = _ref_int_gcd(f, df)
    b = _ref_int_exact_div(f, a)
    c = _ref_int_exact_div(df, a)
    d = ref_sub(ZZ, c, _ref_int_deriv(b))
    i = 1
    while len(b) > 1:
        g = _ref_int_gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b = _ref_int_exact_div(b, g)
        c = _ref_int_exact_div(d, g)
        d = ref_sub(ZZ, c, _ref_int_deriv(b))
        i += 1
    return out


def _solve_field(matrix, rhs, dom):
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [list(matrix[r]) + [rhs[r]] for r in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not dom.is_zero(aug[i][c])), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = dom.inv(aug[r][c])
        aug[r] = [dom.mul(x, inv) for x in aug[r]]
        for i in range(rows):
            if i != r and not dom.is_zero(aug[i][c]):
                factor = aug[i][c]
                aug[i] = [dom.sub(x, dom.mul(factor, y)) for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if not dom.is_zero(aug[i][cols]):
            return None
    sol = [dom.zero()] * cols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][cols]
    return sol


def integer_root_by_bits(n, ell):
    """The integer ell-th root of n >= 1, one bit at a time from the top."""
    r = 0
    for b in reversed(range(n.bit_length() // ell + 1)):
        if (r | 1 << b) ** ell <= n:
            r |= 1 << b
    return r


def prime_factors_by_division(n):
    """``arith.prime_factors`` by one division per divisor: 2 and the odd
    d up to the trial budget while d^2 <= n, then the cofactor through
    ``arith._prime_power``, with the same refusal."""
    out = []
    d = 2
    while d * d <= n and d <= arith._FACTOR_TRIAL_BUDGET:
        if n % d == 0:
            m = 0
            while n % d == 0:
                n //= d
                m += 1
            out.append((d, m))
        d += 1 if d == 2 else 2
    if n > 1:
        root = arith._prime_power(n)
        if root is None:
            raise BudgetExceeded(
                f"a cofactor of {n.bit_length()} bits has no prime factor "
                f"up to {arith._FACTOR_TRIAL_BUDGET} and is no prime power")
        out.append(root)
    return out


def ref_reduce_term(rem, kept, m, c, reducer, dom, pk):
    """One reduction step of ``scan_reduced`` and ``s_polynomial``, rem <-
    a*rem - b*x^u*g with a*c = b*gc, through ``generic_sub_shifted``: it
    cancels the term c*x^u*lm(g), of monomial m, just popped from ``rem``,
    by g, given as its ``Poly.reducer``. Over a field a = 1 and b = c/gc;
    over ZZ, a and b are gc and c divided by their gcd, and an a other
    than 1 also scales ``kept``, the coefficients taken out so far."""
    gm, gc, tail = reducer
    if not dom.is_one(gc):
        if dom != ZZ:
            c = dom.div(c, gc)
        else:
            d = math.gcd(c, gc)
            a, c = gc // d, c // d
            if a != 1:
                rem[1][:] = [a * v for v in rem[1]]
                kept[:] = [a * v for v in kept]
    generic_sub_shifted(rem, tail, m - gm, c, dom, pk)


def scan_reduced(f, reducers, ratios=None, top=0, width=0):
    """``algebra._reduced`` as it was before the first-divisor memo: for
    each popped term, cancel it by the first of ``reducers`` whose leading
    monomial divides it, scanning the list. With ``ratios``, a term of key
    k = m >> shift may use only the prefix of ratio below top - k*width.
    Its remainder holds reduced nonzero terms only (``ref_reduce_term``)."""
    ring = f.ring
    dom, pk = ring.domain, ring.packer
    guard, shift = pk.guard, pk.shift
    rem = _ascending(f)
    mons, coeffs = rem
    om, oc = [], []
    usable = reducers
    while mons:
        m, c = mons.pop(), coeffs.pop()
        if ratios is not None:
            usable = reducers[:bisect_left(ratios, top - (m >> shift) * width)]
        for red in usable:
            if not (m - red[0]) & guard:
                ref_reduce_term(rem, oc, m, c, red, dom, pk)
                break
        else:
            om.append(m)
            oc.append(c)
    return Poly(ring, (tuple(om), tuple(oc)))


def s_polynomial(gi, gj, lcm):
    """x^u*gi with its leading term cancelled by one ``ref_reduce_term``
    step against gj, where x^u*lm(gi) is the monomial ``lcm``: the
    S-polynomial a*x^u*gi - b*x^v*gj, with a = b = 1 for monic gi and gj,
    and over ZZ a and b are lc(gj) and lc(gi) divided by their gcd."""
    ring = gi.ring
    rem = _ascending(_shifted(gi, lcm - gi.packed()[0][0], ring.domain.one()))
    m, c = (v.pop() for v in rem)
    ref_reduce_term(rem, [], m, c, gj.reducer(), ring.domain, ring.packer)
    return Poly(ring, tuple(tuple(reversed(v)) for v in rem))


def gm_update(pairs, live, lms, new, pk):
    """Gebauer–Möller update of the pair heap and the live basis for ``new``,
    for the pairs that ``verify_basis`` reduces.

    ``pairs`` is a heap of (lcm, i, j); ``live`` lists the basis indices
    whose leading monomial no newer element divides. Leading monomials and
    lcms are monomial ints (``multipoly._Packer``); the criteria read only
    their exponents, so a pair's lcm gets its key when the pair is kept.
    """
    divides, lcm_of, coprime, keyed = pk.divides, pk.lcm_exponents, pk.coprime, pk.keyed
    mask = (1 << pk.shift) - 1
    h = lms[new]
    cands = [(lcm_of(h, lms[g]), g) for g in live]
    # M and F: drop (new, g) when the lcm of another new pair divides its
    # lcm (of pairs with equal lcms one stays); coprime pairs stay for now,
    # as witnesses that drop the pairs they dominate
    kept = []
    for idx, (lcm, g) in enumerate(cands):
        if coprime(h, lms[g]) or not (
            any(divides(other, lcm) for other, _ in cands[idx + 1:])
            or any(divides(other, lcm) for other, _ in kept)
        ):
            kept.append((lcm, g))
    # B: an old pair (i, j) goes when lm(new) divides its lcm and neither
    # lcm(i, new) nor lcm(j, new) equals it
    pairs[:] = [
        p for p in pairs
        if not divides(h, p[0])
        or lcm_of(lms[p[1]], h) == p[0] & mask
        or lcm_of(lms[p[2]], h) == p[0] & mask
    ]
    # Buchberger's first criterion: coprime pairs reduce to zero
    pairs += [(keyed(lcm), new, g) for lcm, g in kept if not coprime(h, lms[g])]
    heapq.heapify(pairs)
    live[:] = [g for g in live if not divides(h, lms[g])] + [new]


def verify_basis(gb):
    """Re-check the defining invariants of the ``GroebnerBasis`` gb:
    pairwise non-divisible leading terms, auto-reduction, and vanishing
    S-polynomial reductions.

    Only the pairs that the Gebauer–Möller update keeps are reduced:
    Buchberger's criterion with the chain and product criteria is a
    theorem, so the check stays complete.

    Over QQ the checks run on the primitive integer multiples of the
    elements (``algebra._integral``), as ``groebner_basis`` computes: a zero
    or nonzero verdict is all they need, and integer pseudo-reduction gives
    a nonzero multiple of the normal form over QQ.  On an auto-reduced
    basis the auto-reduction check is a divisibility test per term and
    makes no arithmetic.
    """
    dom = gb.ring.domain
    pk = gb.ring.packer
    polys = gb.polys
    if any(g.is_zero() or not dom.is_one(g.leading_coeff()) for g in polys):
        return False
    if dom == QQ:
        work = PolyRing(ZZ, gb.ring.names, gb.ring.order)
        polys = [algebra._integral(g, work) for g in polys]
    lms = [g.packed()[0][0] for g in polys]
    for i, g in enumerate(polys):
        if any(pk.divides(h, lms[i]) for h in lms[:i] + lms[i + 1:]):
            return False
        if algebra.normal_form_list(g, polys[:i] + polys[i + 1:]) != g:
            return False
    pairs, live = [], []
    for new in range(len(lms)):
        gm_update(pairs, live, lms, new, pk)
    for lcm, i, j in pairs:
        s = s_polynomial(polys[i], polys[j], lcm)
        if not algebra.normal_form_list(s, polys).is_zero():
            return False
    return True


def ref_format_terms(names, dom, terms):
    """The printed form of a polynomial from its (exps tuple, coeff) terms,
    one ``dom.format`` call per coefficient."""
    if not terms:
        return "0"
    parts = []
    for e, c in terms:
        mono = "*".join([
            f"{names[i]}^{k}" if k > 1 else names[i]
            for i, k in enumerate(e)
            if k
        ])
        cs = dom.format(c)
        neg = cs.startswith("-")
        body = cs[1:] if neg else cs
        atomic = "+" not in body and "-" not in body and " " not in body
        if mono:
            if body == "1":
                text = mono
            else:
                body = body if atomic else f"({body})"
                text = f"{body}*{mono}"
        else:
            text = body if atomic else f"({body})"
        if not parts:
            parts.append(f"-{text}" if neg else text)
        else:
            parts.append(f"- {text}" if neg else f"+ {text}")
    return " ".join(parts)


def ref_dense_str(dom, coeffs, var):
    """The printed form of a dense polynomial, one ``dom.is_zero`` and one
    ``dom.format`` call per coefficient."""
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if dom.is_zero(c):
            continue
        cs = dom.format(c)
        if " + " in cs:
            cs = f"({cs})"
        if i == 0:
            parts.append(cs)
        elif cs == "1":
            parts.append(var + (f"^{i}" if i > 1 else ""))
        else:
            parts.append(f"{cs}*{var}" + (f"^{i}" if i > 1 else ""))
    return " + ".join(parts)


def ref_ext_field_text(base, modulus, var):
    """The printed form of base[var]/(modulus) for a monic modulus, through
    ``ref_dense_str``."""
    mod = ref_dense_str(base, modulus, var)
    if isinstance(base, Zmod) and base.is_field:
        return f"GF({base.n ** (len(modulus) - 1)},{mod})"
    return f"{base}[{var}]/({mod})"


def ref_quotient_mul(ring, a, b):
    """a*b in ``ring`` = k[T]/(f), a ``sheaf.QuotientPolyRing``, with a
    ``Domain`` call per coefficient operation: the schoolbook product, then
    each coefficient above deg(f) cancelled by a multiple of f, top first."""
    k, deg, modulus = ring.k, ring.deg, ring.modulus
    size = 2 * deg - 1 if deg else 0
    prod = [k.zero()] * size
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = k.add(prod[i + j], k.mul(x, y))
    for top in range(size - 1, deg - 1, -1):
        c = prod[top]
        if c == k.zero():
            continue
        prod[top] = k.zero()
        for i in range(deg):
            prod[top - deg + i] = k.sub(prod[top - deg + i], k.mul(c, modulus[i]))
    return tuple(prod[:deg])


def verify_isomorphism(A, B, images_ab, images_ba):
    """Check a proposed pair of mutually inverse maps by normal forms.

    ``images_ab`` sends each variable of A to a Poly over B's ring (and
    symmetrically).  Relations must map to zero and round trips must be the
    identity modulo relations.
    """
    sub_ab = dict(zip(A.names, images_ab))
    sub_ba = dict(zip(B.names, images_ba))
    for rel in A.relations:
        if not B.nf(rel.substitute(sub_ab, B.ring)).is_zero():
            return False
    for rel in B.relations:
        if not A.nf(rel.substitute(sub_ba, A.ring)).is_zero():
            return False
    for n in A.names:
        round_trip = sub_ab[n].substitute(sub_ba, A.ring)
        if not A.nf(round_trip - A.ring.gen(n)).is_zero():
            return False
    for n in B.names:
        round_trip = sub_ba[n].substitute(sub_ab, B.ring)
        if not B.nf(round_trip - B.ring.gen(n)).is_zero():
            return False
    return True
