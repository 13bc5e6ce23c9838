"""Integer kernels of the dense univariate arithmetic of ``arith``.

Polynomials here are coefficient lists or tuples, low degree first; the
``Domain`` classes of ``arith`` convert their elements to and from these
forms around each call:

    * ints: products (schoolbook, or by Kronecker substitution mod n),
      remainders by a monic polynomial mod n and pseudo-remainders, for ZZ
      and Z/n;
    * Fractions over one common denominator, for QQ;
    * ``_NumberFieldArith``: integer coefficient matrices over one
      denominator, for number fields QQ[t]/(m) with any monic m, and
      ``_RationalArith``, QQ as the one of degree 1, for factoring;
    * ``_ReducedLattice``: an LLL-reduced lattice in Z^n on exact integer
      Gram-Schmidt data, and Babai's nearest plane in it, for reading
      factors over a number field back from a p-adic lift;
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


def _int_divmod(a, b):
    """(q, r) of int sequences a by nonzero b over ZZ by exact integer
    quotients: each quotient coefficient is a step's leading coefficient
    over lc(b).  None at the first step that lc(b) does not divide."""
    db, lead = len(b) - 1, b[-1]
    if len(a) <= db:
        return (), tuple(a)
    r, q, tail = list(a), [], b[:-1]
    for k in range(len(r) - db - 1, -1, -1):
        c, rem = divmod(r.pop(), lead)
        if rem:
            return None
        q.append(c)
        if c:
            for i, y in enumerate(tail, k):
                r[i] -= c * y
    q.reverse()
    return tuple(q), _trimmed(r)


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

    # Zassenhaus (``arith._SplitPrimes``) on integral forms: a monic h over
    # the field as the flat rows of D*h in Z[beta][x] for an int D > 0, its
    # leading row (D, 0, ..., 0); ``ints(g)[0]`` is one for a monic g.

    def residues(self, flat, rho, m):
        """Each coefficient of the flat polynomial at beta = rho, mod m."""
        n = self.n
        powers = [pow(rho, j, m) for j in range(n)]
        return [sum([x * y for x, y in zip(flat[i:i + n], powers)]) % m
                for i in range(0, len(flat), self.s)]

    def monic_of(self, h):
        """The monic polynomial over the field of the integral form h."""
        return self.fractions(list(h), h[-self.s])

    def reader(self, lattice, modulus, scale):
        """read(product): the integral form, led by ``scale``, of the factor
        lifted to the monic ``product``, each lower coefficient times scale
        read as the Babai point of its class mod ``lattice``."""
        zeros, pad = [0] * (self.n - 1), [0] * (self.s - self.n)
        lead = [scale] + [0] * (self.s - 1)

        def read(product):
            out = []
            for x in product[:-1]:
                out += lattice.reduce([scale * x % modulus] + zeros)
                out += pad
            return out + lead

        return read

    def exact_quotient(self, a, b):
        """The integral form of a/b (deg b < deg a), or None when b does not
        divide a: pseudo-division by the leading int of b, the quotient rows
        over the last step's denominator, divided by their content."""
        q, r, _ = self._pseudo_divide(list(a), b, b[-self.s], 1, True)
        if r:
            return None
        last = q[0][1]
        flat = [x * (last // den) for top, den in q for x in top]
        g = math.gcd(*flat)
        return [x // g for x in flat]


class _RationalArith(_NumberFieldArith):
    """QQ as the number field QQ[t]/(t) of degree 1, for
    ``arith._SplitPrimes``: red = [0], so beta = 0 is the root at every
    prime, and a polynomial is its int numerators over one denominator.
    The integral form den*g of a monic g is primitive (a prime dividing it
    would divide lc = den and leave den/p a common denominator).  The
    lattice of p^K is p^K*Z, whose Babai point of a class is the symmetric
    residue, and a candidate made primitive divides by exact integer
    quotients (Gauss's lemma), stopping at the first step that its leading
    coefficient does not divide."""

    def __init__(self):
        super().__init__((_QQ_ZERO, Fraction(1)))

    def ints(self, a):
        return _common_denominator(a)

    def residues(self, flat, rho, m):
        return [x % m for x in flat]

    def monic_of(self, h):
        lead = h[-1]
        return tuple([Fraction(c, lead) for c in h])

    def reader(self, lattice, modulus, scale):
        half = modulus // 2

        def read(product):
            cand = [scale * x % modulus for x in product[:-1]]
            cand = [x - modulus if x > half else x for x in cand] + [scale]
            g = math.gcd(*cand)
            return [x // g for x in cand]

        return read

    def exact_quotient(self, a, b):
        qr = _int_divmod(a, b)
        return None if qr is None or qr[1] else qr[0]


class _ReducedLattice:
    """A lattice of Z^n from a basis of integer rows, made LLL-reduced for
    the Euclidean form by Cohen's integral LLL (Cohen 1993, A Course in
    Computational Algebraic Number Theory, Algorithm 2.6.7, delta = 3/4),
    and the Babai point of a class mod the lattice.

    The Gram-Schmidt data are exact integers: d[i] is the Gram determinant
    of rows 0..i-1 (d[0] = 1, so |b*_i|^2 = d[i+1]/d[i]), and lam[k][j] =
    d[j+1] * mu[k][j] for j < k, mu the Gram-Schmidt coefficients; every
    division of the updates is exact.  After reduction each row is size
    reduced, 2|lam[k][j]| <= d[j+1], and each pair of neighbours meets
    Lovasz's condition 4*d[k+1]*d[k-1] >= 3*d[k]^2 - 4*lam[k][k-1]^2.
    """

    def __init__(self, rows):
        b = self.rows = [list(r) for r in rows]
        n = len(b)
        d = self.d = [1] + [0] * n
        lam = self.lam = [[0] * n for _ in range(n)]
        k, top = 1, 0
        self._gram(b[0], lam[0], 1)
        d[1] = lam[0][0]
        while k < n:
            if k > top:
                top = k
                self._gram(b[k], lam[k], k + 1)
                d[k + 1] = lam[k][k]
            self._size_reduce(b[k], lam[k], k - 1)
            if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
                self._swap(k, top)
                k = max(1, k - 1)
            else:
                for j in range(k - 2, -1, -1):
                    self._size_reduce(b[k], lam[k], j)
                k += 1

    def _gram(self, v, lv, count):
        """lv[j] = d[j] * <v, b*_j> = d[j+1] * mu_j for j < count, from the
        data of the rows below count - 1; for v the row count - 1 itself (lv
        its lam row) the last, d[count - 1] * |b*_(count-1)|^2, is d[count]."""
        b, d, lam = self.rows, self.d, self.lam
        for j in range(count):
            u = sum(x * y for x, y in zip(v, b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lv[i] * lam[j][i]) // d[i]
            lv[j] = u

    def _size_reduce(self, v, lv, j):
        """Subtract from v, whose Gram-Schmidt data are lv, the multiple of
        row j nearest to mu_j = lv[j] / d[j+1], when |mu_j| > 1/2."""
        dj = self.d[j + 1]
        if 2 * abs(lv[j]) > dj:
            q = (2 * lv[j] + dj) // (2 * dj)
            for i, y in enumerate(self.rows[j]):
                v[i] -= q * y
            lv[j] -= q * dj
            for i in range(j):
                lv[i] -= q * self.lam[j][i]

    def _swap(self, k, top):
        """Exchange rows k - 1 and k, updating d and lam (Cohen's SWAPI)."""
        b, d, lam = self.rows, self.d, self.lam
        b[k - 1], b[k] = b[k], b[k - 1]
        lam[k - 1][:k - 1], lam[k][:k - 1] = lam[k][:k - 1], lam[k - 1][:k - 1]
        m = lam[k][k - 1]
        new = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, top + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (new * t + m * lam[i][k]) // d[k + 1]
        d[k] = new

    def reduce(self, t):
        """The point t - u of the class of the integer vector t, for the
        lattice point u of Babai's nearest plane (Babai 1986, Combinatorica
        6): t size reduced against the rows from the last to the first, so
        |<t - u, b*_j>| <= |b*_j|^2 / 2 for every j."""
        n = len(self.rows)
        w, lw = list(t), [0] * n
        self._gram(w, lw, n)
        for j in range(n - 1, -1, -1):
            self._size_reduce(w, lw, j)
        return w


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
