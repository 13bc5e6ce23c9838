"""Integer kernels of the dense univariate arithmetic of ``arith``.

Polynomials here are coefficient lists or tuples, low degree first; the
``Domain`` classes of ``arith`` convert their elements to and from these
forms around each call:

    * ints: products (schoolbook, or by Kronecker substitution mod n),
      remainders by a monic polynomial mod n and pseudo-remainders, for ZZ
      and Z/n;
    * Fractions over one common denominator, for QQ;
    * ``_NumberFieldArith``: integer coefficient matrices over one
      denominator, for number fields QQ[t]/(m) with any monic m;
    * ``_ZechTables``: logarithms with log, antilog and Zech tables, for
      GF(q) over a prime field.
"""

from __future__ import annotations

import math
from fractions import Fraction

_QQ_ZERO = Fraction(0)


def _trimmed(c):
    """The list c of ints or Fractions as a tuple without trailing zeros."""
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _int_product(a, b):
    """The coefficients of a*b for int sequences a and b, both nonempty."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _int_rem_monic(r, tail, n):
    """Reduce the int list r in place modulo the monic polynomial whose
    coefficients below the leading 1 are ``tail``, over Z/n: each top
    coefficient is taken mod n and cancelled, and the entries left stay
    unreduced."""
    for k in range(len(r) - len(tail) - 1, -1, -1):
        c = r.pop() % n
        if c:
            for i, y in enumerate(tail, k):
                r[i] -= c * y


def _int_prem(a, b):
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


def _kronecker_product(a, b, n):
    """The coefficients of a*b mod n for a and b with entries in [0, n), by
    Kronecker substitution (Harvey 2009, J. Symb. Comp. 44): each factor is
    packed into one int, a slot per coefficient wide enough for every sum
    of products, and one int product holds all the sums."""
    bits = (min(len(a), len(b)) * (n - 1) ** 2).bit_length() or 1
    x = 0
    for c in reversed(a):
        x = (x << bits) | c
    if a is b:
        y = x
    else:
        y = 0
        for c in reversed(b):
            y = (y << bits) | c
    z, mask, out = x * y, (1 << bits) - 1, []
    for _ in range(len(a) + len(b) - 1):
        out.append((z & mask) % n)
        z >>= bits
    return out


def _common_denominator(a):
    """(numerators, d) with a[i] = numerators[i] / d for Fractions a."""
    d = math.lcm(*[c.denominator for c in a])
    return [c.numerator * (d // c.denominator) for c in a], d


def _qq_product(a, b):
    """(numerators, d) of a*b for nonempty Fraction tuples a and b."""
    na, da = _common_denominator(a)
    nb, db = (na, da) if a is b else _common_denominator(b)
    return _int_product(na, nb), da * db


def _qq_divmod(num, den, b, want_quotient=True):
    """(q, r) over QQ for the polynomial num/den, num a list of ints, and a
    nonzero b = bnum/bden.  The steps run on integer numerators over one
    common denominator: a step that cancels c/den times x^k needs
    q_k = c*bden/(den*lc(bnum)) and multiplies the remainder and den by
    lc(bnum) (by nothing when b is monic with integer coefficients).  Each
    output coefficient is one Fraction."""
    bnum, bden = _common_denominator(b)
    db, lead = len(b) - 1, bnum[-1]
    tail, q = bnum[:-1], []
    for k in range(len(num) - db - 1, -1, -1):
        c = num.pop()
        if want_quotient:
            q.append(Fraction(c * bden, den * lead) if c else _QQ_ZERO)
        if c:
            if lead != 1:
                num = [x * lead for x in num]
                den *= lead
            for i, y in enumerate(tail, k):
                num[i] -= c * y
    r = _trimmed(num)
    return tuple(reversed(q)), tuple([Fraction(x, den) for x in r])


class _NumberFieldArith:
    """Dense arithmetic over QQ[t]/(m), m monic, on integers.

    For the least common denominator c of m, beta = c*t is a root of the
    integral monic M(s) = c^n m(s/c), so Z[beta] is closed under products
    and beta^n = sum(red[j] * beta^j) reduces a product by integer steps.
    A polynomial over the field is a flat list of ints, one row of stride
    2n - 1 per power of x holding the beta-coordinates of its coefficient
    (entries n.. of a row are zero between operations), over one common
    denominator; the coordinate of beta^j is the t-coordinate over c^j.  A
    product is one integer product and a reduction of each row; divisions
    and gcds make the leading coefficient an integer through the adjugate
    of its multiplication matrix and then run integer pseudo-divisions.
    """

    def __init__(self, modulus):
        n = len(modulus) - 1
        c = math.lcm(*[x.denominator for x in modulus])
        self.n, self.s = n, 2 * n - 1
        self.cpow = [c ** j for j in range(n)]
        self.red = [-(x * c ** (n - j)).numerator for j, x in enumerate(modulus[:-1])]

    def ints(self, a):
        """(flat, den): the rows of the polynomial a over one denominator."""
        cpow, s = self.cpow, self.s
        den = math.lcm(*[x.denominator * cpow[j] for e in a for j, x in enumerate(e)])
        flat = []
        for e in a:
            flat += [x.numerator * (den // (x.denominator * cpow[j]))
                     for j, x in enumerate(e)]
            flat += [0] * (s - len(e))
        return flat, den

    def coordinates(self, a):
        """([A_0, ..., A_(n-1)], den): a = sum(A_j * beta^j) / den with each
        A_j a trimmed integer polynomial in x."""
        flat, den = self.ints(a)
        return [_trimmed(flat[j::self.s]) for j in range(self.n)], den

    def element(self, row, den):
        """The field element of the beta-coordinates row over den."""
        row = _trimmed(row[:self.n])
        cpow = self.cpow
        return tuple([Fraction(x * cpow[j], den) if x else _QQ_ZERO
                      for j, x in enumerate(row)])

    def fractions(self, flat, den):
        s = self.s
        return _trimmed([self.element(flat[i:i + s], den) for i in range(0, len(flat), s)])

    def _product(self, a, b):
        """The product of two flat polynomials, each row reduced mod M."""
        if not a or not b:
            return []
        out = _int_product(a, b)
        n, s, red = self.n, self.s, self.red
        del out[len(out) - s + 1:]
        for start in range(0, len(out), s):
            for k in range(start + s - 1, start + n - 1, -1):
                top = out[k]
                if top:
                    out[k] = 0
                    for j, r in enumerate(red, k - n):
                        out[j] += top * r
        return out

    def _adjugate(self, x):
        """(y, d) with x*y = d, d a nonzero int, for a nonzero element given
        by its n beta-coordinates: y is the first column of the adjugate of
        the matrix of multiplication by x, from fraction-free Gauss-Jordan
        elimination (Bareiss 1968), whose divisions are exact."""
        n, red = self.n, self.red
        cols = [list(x)]
        for _ in range(n - 1):
            v = cols[-1]
            cols.append([(v[j - 1] if j else 0) + v[-1] * red[j] for j in range(n)])
        m = [[col[i] for col in cols] + [int(i == 0)] for i in range(n)]
        prev = 1
        for k in range(n):
            if not m[k][k]:
                i = next(i for i in range(k + 1, n) if m[i][k])
                m[k], m[i] = m[i], m[k]
            pivot, row = m[k][k], m[k]
            for i in range(n):
                if i != k:
                    f = m[i][k]
                    m[i] = [(pivot * u - f * v) // prev for u, v in zip(m[i], row)]
            prev = pivot
        return [r[n] for r in m], prev

    def _integral_lead(self, a):
        """(y*a, d, y) for the flat polynomial a, where the element y (None
        for 1) makes the leading row (d, 0, ...)."""
        lead = a[-self.s:self.n - self.s or None]
        if not any(lead[1:]):
            return a, lead[0], None
        y, d = self._adjugate(lead)
        return self._product(y + [0] * (self.n - 1), a), d, y

    def _pseudo_divide(self, r, b, d, den, want_quotient):
        """Divide r/den by b with leading row (d, 0, ...): each step that
        cancels a top row T multiplies the rest by d and subtracts T times
        the tail of b.  Returns ([(T, den at that step)], r, den)."""
        s = self.s
        tail, q = b[:-s], []
        while len(r) >= len(b):
            top = r[-s:]
            del r[-s:]
            if want_quotient:
                q.append((top, den))
            if any(top):
                if d != 1:
                    r = [x * d for x in r]
                    den *= d
                for i, y in enumerate(self._product(top, tail), len(r) - len(tail)):
                    r[i] -= y
        while r and not any(r[-s:]):
            del r[-s:]
        q.reverse()
        return q, r, den

    def _divide(self, r, den, b, want_quotient):
        """(q, r) for the flat r over den and the polynomial b: b is made to
        have an integer leading coefficient d, so q_k = T_k*y*bden/(den_k*d)
        for the adjugate y of lc(b)."""
        b, bden = self.ints(b)
        b, d, y = self._integral_lead(b)
        q, r, den = self._pseudo_divide(r, b, d, den, want_quotient)
        quotient = []
        for top, qden in q:
            if y:
                top = self._product(top, y + [0] * (self.n - 1))
            quotient.append(self.element([x * bden for x in top], qden * d))
        return _trimmed(quotient), self.fractions(r, den)

    def mul(self, a, b):
        a, da = self.ints(a)
        b, db = self.ints(b)
        return self.fractions(self._product(a, b), da * db)

    def scale(self, a, c):
        return self.mul(a, (c,))

    def divmod(self, a, b):
        return self._divide(*self.ints(a), b, True)

    def mulmod(self, a, b, m):
        a, da = self.ints(a)
        b, db = self.ints(b)
        return self._divide(self._product(a, b), da * db, m, False)[1]

    def gcd(self, a, b):
        """The monic gcd, by the primitive pseudo-remainder sequence over
        Z[beta], each divisor first made to have a positive integer leading
        coefficient and integer content 1."""
        if not b:
            return self.monic(a) if a else ()
        a, b = self.ints(a)[0], self.ints(b)[0]
        while b:
            b = self._integral_lead(b)[0]
            g = math.gcd(*b)
            b = [x // g for x in b] if b[-self.s] > 0 else [-x // g for x in b]
            r = self._pseudo_divide(a, b, b[-self.s], 1, False)[1]
            a, b = b, r
        return self.fractions(a, a[-self.s])

    def monic(self, a):
        flat, _ = self.ints(a)
        flat, d, _ = self._integral_lead(flat)
        return self.fractions(flat, d)

    def inv(self, a):
        flat, den = self.ints((a,))
        y, d = self._adjugate(flat[:self.n])
        return self.element([x * den for x in y], d)

    def shift(self, f, c):
        """f(x + c) by Horner's rule: for c = C/dc, the integer polynomial
        sum(F_k * dc^(deg f - k) * (dc*x + C)^k) over den * dc^deg(f)."""
        if not c or not f:
            return tuple(f)
        flat, den = self.ints(f)
        row, dc = self.ints((c,))
        step = row + [dc] + [0] * (self.s - 1)
        s, top = self.s, len(flat) // self.s - 1
        res = []
        for k in range(top, -1, -1):
            res = self._product(res, step) or [0] * s
            w = dc ** (top - k)
            for i in range(s):
                res[i] += flat[k * s + i] * w
        return self.fractions(res, den * dc ** top)


class _ZechTables:
    """Dense arithmetic over GF(q) = GF(p)[t]/(modulus) on logarithms.

    For a generator g of the multiplicative group (order m = q - 1), exp[k]
    is g^k for 0 <= k < 2m, log maps each nonzero element to its exponent
    below m, and zech[k] is the log of 1 + g^k, None where that is zero
    (Huber 1990, IEEE Trans. Inf. Theory 36).  A polynomial is a list of
    logs, None for a zero coefficient: a product of coefficients adds logs,
    and a sum g^a + g^b = g^(a + zech[b - a]) is one lookup (a negative
    index wraps around the m entries of zech).  neg is the log of -1, and
    ``g`` is the generator's coefficient tuple (``arith._field_tables``).
    """

    def __init__(self, p, modulus, g):
        r, low = len(modulus) - 1, modulus[:-1]
        m = p ** r - 1
        g = list(g) + [0] * (r - len(g))
        # the coordinates of g*t^j, j < r: the powers of g, one column each
        cols = [g]
        for _ in range(r - 1):
            top = cols[-1][-1]
            cols.append([((cols[-1][j - 1] if j else 0) - top * low[j]) % p
                         for j in range(r)])
        exp, x = [], [1] + [0] * (r - 1)
        for _ in range(m):
            exp.append(x)
            y = [0] * r
            for xj, c in zip(x, cols):
                if xj:
                    y = [u + xj * v for u, v in zip(y, c)]
            x = [u % p for u in y]
        exp = [_trimmed(x) for x in exp]
        log = {e: k for k, e in enumerate(exp)}
        self.zech = [log.get(_trimmed([(e[0] + 1) % p, *e[1:]])) for e in exp]
        self.log, self.exp, self.m = log, exp + exp, m
        self.neg = m // 2 if p != 2 else 0

    def logs(self, a):
        log = self.log
        return [log[c] if c else None for c in a]

    def elements(self, la):
        while la and la[-1] is None:
            la.pop()
        exp = self.exp
        return tuple([() if x is None else exp[x] for x in la])

    def _product(self, la, lb):
        zech, m = self.zech, self.m
        out = [None] * (len(la) + len(lb) - 1)
        for i, x in enumerate(la):
            if x is None:
                continue
            for j, y in enumerate(lb, i):
                if y is None:
                    continue
                y += x
                if y >= m:
                    y -= m
                acc = out[j]
                if acc is None:
                    out[j] = y
                else:
                    z = zech[y - acc]
                    if z is not None:
                        z += acc
                        out[j] = z - m if z >= m else z
                    else:
                        out[j] = None
        return out

    def _divmod(self, r, lb, want_quotient=True):
        """(q, r) for log lists: a step's quotient log is the top log minus
        log lc(b), and the tail of b is subtracted through its logs plus
        neg."""
        zech, m, neg = self.zech, self.m, self.neg
        db = len(lb) - 1
        inv = -lb[-1] % m
        tail = [None if y is None else (y + neg) % m for y in lb[:-1]]
        q = []
        for k in range(len(r) - db - 1, -1, -1):
            c = r.pop()
            if c is not None:
                c += inv
                if c >= m:
                    c -= m
                for i, y in enumerate(tail, k):
                    if y is None:
                        continue
                    y += c
                    if y >= m:
                        y -= m
                    acc = r[i]
                    if acc is None:
                        r[i] = y
                    else:
                        z = zech[y - acc]
                        if z is not None:
                            z += acc
                            r[i] = z - m if z >= m else z
                        else:
                            r[i] = None
            if want_quotient:
                q.append(c)
        while r and r[-1] is None:
            r.pop()
        q.reverse()
        return q, r

    def _monic(self, la):
        m, lead = self.m, la[-1]
        return [None if x is None else (x - lead) % m for x in la]

    def mul(self, a, b):
        return self.elements(self._product(self.logs(a), self.logs(b)))

    def divmod(self, a, b):
        q, r = self._divmod(self.logs(a), self.logs(b))
        return self.elements(q), self.elements(r)

    def mulmod(self, a, b, mod):
        product = self._product(self.logs(a), self.logs(b))
        return self.elements(self._divmod(product, self.logs(mod), False)[1])

    def gcd(self, a, b):
        la, lb = self.logs(a), self.logs(b)
        while lb:
            la, lb = lb, self._divmod(la, lb, False)[1]
        return self.elements(self._monic(la)) if la else ()

    def monic(self, a):
        return self.elements(self._monic(self.logs(a)))

    def scale(self, a, c):
        lc, exp = self.log[c], self.exp
        return tuple([() if x is None else exp[x + lc] for x in self.logs(a)])

    def inv(self, a):
        return self.exp[self.m - self.log[a]]
