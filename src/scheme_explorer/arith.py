"""Exact coefficient domains and univariate polynomial factorization.

Domains are immutable descriptor objects; elements are plain hashable Python
values (int, Fraction, tuple) in a canonical form, so ``==`` is structural
equality.  Supported domains:

    ZZ              integers
    QQ              rationals
    Zmod(n)         integers mod n (field iff n prime, zero ring for n = 1)
    GF(p)           prime field, primality certified
    ExtField(k, f)  k[t]/(f) for a field k and monic irreducible f
                    (finite fields GF(p^r) and number fields like QQ(i))
    FracField(k, S) rational function field k(S)

Univariate polynomials at this level are dense coefficient tuples, low degree
first, with no trailing zeros.  Their arithmetic and printing are the
Domain's ``dense_*`` methods (add, sub, scale, monic, derivative, product,
division with remainder, product mod m, gcd, text), which callers use
directly.  The defaults are loops with one domain call per coefficient, and
the domains override them with the kernels of ``kernels``:

    * Zmod(n), prime or composite n: ints with one reduction per output
      coefficient, products by Kronecker substitution, no inverse for a
      monic divisor; a product mod a short monic modulus as one fused
      schoolbook product and reduction (_FUSED_MULMOD_LENGTH), and a gcd
      by Euclid on monic divisors, each remainder made monic as it is
      reduced (NotInvertible at a non-unit leading coefficient, as the
      generic loop raises it);
    * ZZ: int products, division by exact integer quotients (NotInvertible
      at the first step that lc(b) does not divide), and a primitive gcd
      with lc > 0 by the primitive remainder sequence;
    * QQ: products and divisions on integer numerators over one common
      denominator, one Fraction per output coefficient;
    * ZZ, Zmod(n) and QQ: text, each coefficient printed by ``str``; over QQ
      the monic associate printed from the coefficients, c/lc in lowest
      terms by one gcd of ints;
    * ExtField over QQ, any monic modulus: products, divisions, monic forms
      and gcds (a primitive pseudo-remainder sequence) on integer
      coefficient matrices over one denominator, and element inverses by
      fraction-free elimination (``_NumberFieldArith``);
    * ExtField over a prime field of order q <= _LOG_TABLE_BUDGET (1,024):
      products, divisions, monic forms, gcds and inverses on logarithms,
      a sum being one Zech lookup (``_ZechTables``); the tables are built on
      the first product and shared by equal fields (_FIELD_TABLES).
    Elements stay coefficient tuples on both sides of a kernel; towers and
    larger finite fields keep the generic loops.

Factorization:

    * finite fields: over GF(p) with p <= _ROOT_SCAN_ORDER (64) first the
      residue scan, which evaluates f at every residue and divides out
      x - r at each root r as often as it divides, so every linear factor
      comes with its multiplicity.  A root-free cofactor of degree 2 or 3
      is irreducible: over a field, a polynomial of degree 2 or 3 with no
      root there has no proper factor.  Only one of degree >= 4 goes on,
      as any input does over a larger field: squarefree split (f itself at
      once when gcd(f, f') = 1), distinct degree (from degree 2 after the
      scan, else from the first Frobenius x^q mod f, by squaring and
      shifting), then Cantor-Zassenhaus equal-degree splitting, only of
      the parts with more than one irreducible, on a generator seeded from
      the coefficients alone and made on the first draw;
    * number fields over QQ of any degree n, QQ the one of degree 1, at
      split primes (``_SplitPrimes``): the monic input's images at primes
      (p, beta - rho) of degree one give a squarefree certificate (Yun
      only without one), an irreducibility certificate, else Zassenhaus:
      quadratic Hensel lifting mod p^K, each coefficient read back as the
      Babai point of its class in the LLL-reduced n-dimensional lattice of
      the prime's K-th power (``kernels._ReducedLattice``; over QQ the
      symmetric residue), and subset recombination with exact trial
      divisions, on integral forms over Z[beta] (over QQ primitive ints).

One Yun (``_yun``) serves QQ and fields of degree 1 on the primitive
integral form over ZZ, with primitive gcds and exact quotients, and the
larger number fields, with monic gcds.

Primes: ``is_prime`` by trial division (past _TRIAL_LIMIT by the sieved
primes in gcd blocks, as far as one witness would cost) and Miller-Rabin;
``_primes_upto``, the one sieve of Eratosthenes of the package;
``prime_factors`` by trial division by the sieved primes up to sqrt(n),
with one gcd per block of _TRIAL_BLOCK primes.

Exhaustive paths check their size first and raise BudgetExceeded: subset
recombination (_RECOMBINATION_BUDGET), ExtField.elements (_ELEMENTS_BUDGET),
the sieve (_SIEVE_BUDGET) and the trial division of prime_factors
(_FACTOR_TRIAL_BUDGET).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import threading
import zlib
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    ConstantPolynomial,
    InfiniteDomain,
    NoCanonicalMap,
    NotInvertible,
    UnsupportedDomain,
    ZeroPolynomial,
)
from .kernels import (
    _QQ_ZERO,
    _common_denominator,
    _int_divmod,
    _int_prem,
    _int_product,
    _int_rem_monic,
    _kronecker_product,
    _NumberFieldArith,
    _qq_divmod,
    _qq_product,
    _RationalArith,
    _ReducedLattice,
    _trimmed,
    _ZechTables,
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
_MR_WITNESSES = _SMALL_PRIMES + (37, 41)
_MR_CERTIFIED_BELOW = 3317044064679887385961981  # the least strong pseudoprime to them all
_TRIAL_LIMIT = 10 ** 6
_FACTOR_TRIAL_BUDGET = 10 ** 6  # the primes prime_factors trial-divides by, at most
# Primes per gcd of prime_factors: the trial division of a 13,281-bit
# number took 0.09 s at 256 or 512, 0.12 s at 128 and 0.14 s at 2,048.
_TRIAL_BLOCK = 512
# Past _TRIAL_LIMIT, is_prime trial-divides n of b bits by the sieved primes
# up to b^3 / _TRIAL_BITS_CUBED before Miller-Rabin, about what one witness's
# pow costs: the sieve and the gcd blocks took 0.07 us per integer up to the
# bound, and one pow took 0.7 ms at 500 bits, 4.1 ms at 1,000 and 6.6 s at
# 13,281; the bound is below 37 (nothing to add) up to 84 bits and reaches
# 10^6 at 2,540.
_TRIAL_BITS_CUBED = 1 << 14

# Integers _primes_upto may sieve. The scripts, decks and tests go up to
# --fibers 50; at the budget `spec describe ZZ` lists 78,498 primes in
# about 3 s, and the trial division of prime_factors sieves at most this far.
_SIEVE_BUDGET = 1_000_000


def _primes_upto(n):
    """The primes p <= n, by the sieve of Eratosthenes; raises
    BudgetExceeded, before sieving, past _SIEVE_BUDGET integers."""
    if n > _SIEVE_BUDGET:
        raise BudgetExceeded(f"the primes up to {n} exceed the sieve budget of "
                             f"{_SIEVE_BUDGET} integers")
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(itertools.compress(range(n + 1), sieve))


def is_prime(n):
    """Primality by trial division, then Miller-Rabin.

    False on a divisor or a witness; True only where the witnesses certify
    it, below _MR_CERTIFIED_BELOW. A larger n that passes them all is not
    certified, and raises BudgetExceeded.  Past _TRIAL_LIMIT the divisors
    are the sieved primes up to a bound that grows with the cost of a
    witness (_TRIAL_BITS_CUBED), one gcd per block of _TRIAL_BLOCK of them,
    as in ``prime_factors``.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_LIMIT:
        d = 37
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    limit = min(math.isqrt(n), _FACTOR_TRIAL_BUDGET, n.bit_length() ** 3 // _TRIAL_BITS_CUBED)
    primes = _primes_upto(limit)[len(_SMALL_PRIMES):]
    for start in range(0, len(primes), _TRIAL_BLOCK):
        if math.gcd(n, math.prod(primes[start:start + _TRIAL_BLOCK])) > 1:
            return False  # a prime below sqrt(n) divides it
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_CERTIFIED_BELOW:
        raise BudgetExceeded(f"no primality certificate for {n.bit_length()} bits")
    return True


def prime_factors(n):
    """Sorted list of (prime, multiplicity) for n >= 2, by trial division by
    the primes up to min(_FACTOR_TRIAL_BUDGET, sqrt(n)), a block of
    _TRIAL_BLOCK of them at a time: one gcd of n with the block's product
    finds the block's divisors of n.  The cofactor left must be a prime or
    a prime power whose root ``is_prime`` certifies, or BudgetExceeded is
    raised.  A root at or past _MR_CERTIFIED_BELOW is refused before the
    test, which certifies nothing there and so could change only the
    message."""
    if n < 2:
        return []
    out, limit = [], min(_FACTOR_TRIAL_BUDGET, math.isqrt(n))
    # below 37^2 the table holds every prime up to sqrt(n), without a sieve
    primes = _SMALL_PRIMES if limit <= _SMALL_PRIMES[-1] else _primes_upto(limit)
    for start in range(0, len(primes), _TRIAL_BLOCK):
        if primes[start] ** 2 > n:
            break
        block = primes[start:start + _TRIAL_BLOCK]
        g = math.gcd(n, math.prod(block))
        for p in block:
            if g % p == 0:
                m = 0
                while n % p == 0:
                    n //= p
                    m += 1
                out.append((p, m))
    if 1 < n and math.isqrt(n) <= limit:
        out.append((n, 1))  # no prime factor up to its square root
    elif n > 1:
        root, k = _highest_power(n)
        unfactored = (f"a cofactor of {n.bit_length()} bits has no prime factor "
                      f"up to {_FACTOR_TRIAL_BUDGET}")
        if root >= _MR_CERTIFIED_BELOW:
            raise BudgetExceeded(f"{unfactored} and no primality certificate for its "
                                 f"root of {root.bit_length()} bits")
        if not is_prime(root):
            raise BudgetExceeded(f"{unfactored} and is no prime power")
        out.append((root, k))
    return out


def _highest_power(n):
    """(r, k) with n = r^k and k as large as possible."""
    root, k, ell = n, 1, 2
    while 1 << ell <= root:
        r = _integer_root(root, ell)
        if r ** ell == root:
            root, k = r, k * ell
        else:
            ell = _next_prime(ell)
    return root, k


def _square_root_part(n):
    """The largest d with d^2 | n for n >= 1, below _FACTOR_TRIAL_BUDGET^3;
    past it a multiple of that d.  After trial division by the primes up to
    the cube root of n, the cofactor has at most two prime factors, so it
    holds a square factor only when it is a square; past the budget the
    cofactor is kept whole."""
    root, d = _integer_root(n, 3), 1
    for ell in _primes_upto(min(root, _FACTOR_TRIAL_BUDGET)):
        k = 0
        while n % ell == 0:
            n //= ell
            k += 1
        d *= ell ** (k // 2)
    if root > _FACTOR_TRIAL_BUDGET:
        return d * n
    r = math.isqrt(n)
    return d * r if r * r == n else d


def _prime_power(n):
    """(p, k) with n = p^k for a prime p, or None: only the root of the
    highest perfect power of n can be p, and ``is_prime`` decides it (a
    root it cannot certify raises BudgetExceeded)."""
    root, k = _highest_power(n)
    return (root, k) if is_prime(root) else None


def _integer_root(n, ell):
    """The integer ell-th root of n >= 1 by Newton's iteration.  It starts
    just above the root, at a float estimate of its top 33 bits rounded up:
    from below, or from far above, one step would overshoot or creep when
    ell is large.  From at or above the root each step falls until the next
    would not, and the first such x is the root."""
    e = math.log2(n) / ell
    shift = max(int(e) - 32, 0)
    x = int(2 ** (e - shift)) + 1 << shift
    while True:
        y = ((ell - 1) * x + n // x ** (ell - 1)) // ell
        if y >= x:
            return x
        x = y


class Domain:
    """Base class for exact rings; elements are opaque hashable values.

    A subclass defines ``from_int``, ``add``, ``neg`` and ``mul``; a finite
    one also defines ``elements``, which gives it ``order``, ``inv``,
    ``is_unit`` and ``domain_units`` (lookups in a table of units that the
    first of them builds from power orbits, see ``_unit_table``).  The
    ``dense_*`` methods, ``dense_add`` to ``dense_gcd`` and ``dense_text``,
    are generic loops that the domains with kernels override.
    """

    is_field = False
    char = 0
    _inverses = None

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def is_zero(self, a):
        return a == self.zero()

    def is_one(self, a):
        return a == self.one()

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        r = self.one()
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def inv(self, a):
        if self._inverses is None:
            self._inverses = _unit_table(self)
        b = self._inverses.get(a)
        if b is None:
            raise NotInvertible(f"{self.format(a)} is not invertible")
        return b

    def is_unit(self, a):
        if self.is_field:
            return not self.is_zero(a)
        if self._inverses is None:
            self._inverses = _unit_table(self)
        return a in self._inverses

    def elements(self):
        raise InfiniteDomain(f"{self} is not finite")

    def order(self):
        """Number of elements; subclasses that know it avoid listing them."""
        return len(self.elements())

    def coerce(self, other, a):
        """Map an element of ``other`` into self along the canonical arrow."""
        if other == self:
            return a
        raise NoCanonicalMap(f"no canonical map {other} -> {self}")

    def format(self, a):
        return str(a)

    def __ne__(self, other):
        return not self.__eq__(other)

    # -- dense univariate arithmetic ------------------------------------------
    # Coefficient tuples, low degree first, without trailing zeros.  These
    # are the generic loops, one domain call per coefficient operation, and
    # the one interface to dense arithmetic; a domain whose elements are
    # ints or Fractions overrides them with integer kernels.

    def dense_add(self, a, b):
        zero = self.zero()
        return up_norm(self, [
            self.add(a[i] if i < len(a) else zero, b[i] if i < len(b) else zero)
            for i in range(max(len(a), len(b)))
        ])

    def dense_sub(self, a, b):
        return self.dense_add(a, up_neg(self, b))

    def dense_scale(self, a, s):
        if self.is_zero(s):
            return ()
        return up_norm(self, [self.mul(x, s) for x in a])

    def dense_monic(self, a):
        if not a or self.is_one(a[-1]):
            return tuple(a)
        return self.dense_scale(a, self.inv(a[-1]))

    def dense_mul(self, a, b):
        if not a or not b:
            return ()
        out = [self.zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if self.is_zero(x):
                continue
            for j, y in enumerate(b):
                out[i + j] = self.add(out[i + j], self.mul(x, y))
        return up_norm(self, out)

    def dense_divmod(self, a, b):
        """Euclidean division; needs the leading coefficient of b invertible,
        and inverts it only when b is not monic."""
        if not b:
            raise ZeroDivisionError("division by zero polynomial")
        lb = None if self.is_one(b[-1]) else self.inv(b[-1])
        q = [self.zero()] * max(len(a) - len(b) + 1, 0)
        r = list(a)
        while len(r) >= len(b) and r:
            c = r[-1] if lb is None else self.mul(r[-1], lb)
            k = len(r) - len(b)
            q[k] = c
            for i, y in enumerate(b):
                r[k + i] = self.sub(r[k + i], self.mul(c, y))
            while r and self.is_zero(r[-1]):
                r.pop()
        return up_norm(self, q), up_norm(self, r)

    def dense_mulmod(self, a, b, m):
        """a*b mod m."""
        return self.dense_divmod(self.dense_mul(a, b), m)[1]

    def dense_deriv(self, a):
        return up_norm(self, [self.mul(a[i], self.from_int(i)) for i in range(1, len(a))])

    def dense_gcd(self, a, b):
        """Monic gcd over a field, by Euclid's algorithm."""
        while b:
            a, b = b, self.dense_divmod(a, b)[1]
        return self.dense_monic(a)

    def dense_text(self, a, var):
        """a in ``var``, c*var^k terms joined by " + ": "0" for (), "" for zeros."""
        parts = []
        for k in range(len(a) - 1, -1, -1):
            if not self.is_zero(a[k]):
                cs = self.format(a[k])
                cs = f"({cs})" if " + " in cs else cs
                if k:
                    mono = var if k == 1 else f"{var}^{k}"
                    cs = mono if cs == "1" else f"{cs}*{mono}"
                parts.append(cs)
        return " + ".join(parts) if a else "0"


def _unit_table(dom):
    """{unit: inverse} for a finite domain, one power orbit at a time.

    The powers 1, a, a^2, ... of a repeat within |A| steps, and they return
    to 1 iff a is a unit; then a^k = 1 for the orbit length k, and a^i has
    the inverse a^(k-i).  Every power a^i (i >= 1) of a non-unit is a
    non-unit.  So each orbit classifies all of its members, and a later
    orbit skips them or stops on meeting a known non-unit.
    """
    one = dom.one()
    inverses, nonunits = {}, set()
    for a in dom.elements():
        if a in inverses or a in nonunits:
            continue
        orbit, seen, p = [one], {one}, a
        while p not in seen and p not in nonunits:
            orbit.append(p)
            seen.add(p)
            p = dom.mul(p, a)
        if p == one:
            for i, b in enumerate(orbit):
                inverses[b] = orbit[-i]
        else:
            nonunits.update(orbit[1:])
    return inverses


class _NumberDense:
    """Dense linear operations for domains whose elements are Python
    numbers (int or Fraction) in canonical form."""

    def dense_add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        return _trimmed([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def dense_sub(self, a, b):
        out = [x - y for x, y in zip(a, b)]
        if len(a) >= len(b):
            out += a[len(b):]
        else:
            out += [-y for y in b[len(a):]]
        return _trimmed(out)

    def dense_scale(self, a, s):
        return _trimmed([x * s for x in a]) if s else ()

    def dense_deriv(self, a):
        return _trimmed([a[i] * i for i in range(1, len(a))])

    def dense_text(self, a, var, lc=1):
        """``Domain.dense_text`` of a/lc by str; for lc != 1 (over QQ) each
        c/lc in lowest terms by one gcd of ints, with no Fraction made."""
        plain, n, d = lc == 1, lc.numerator, lc.denominator
        parts = []
        for k in range(len(a) - 1, -1, -1):
            if c := a[k]:
                if plain:
                    cs = str(c)
                else:
                    num, den = c.numerator * d, c.denominator * n
                    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
                    cs = str(num // g) if den == g else f"{num // g}/{den // g}"
                if k:
                    mono = var if k == 1 else f"{var}^{k}"
                    cs = mono if cs == "1" else f"{cs}*{mono}"
                parts.append(cs)
        return " + ".join(parts) if a else "0"


class IntegerRing(_NumberDense, Domain):
    char = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def is_zero(self, a):
        return a == 0

    def sub(self, a, b):
        return a - b

    def from_int(self, n):
        return n

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a in (1, -1):
            return a
        raise NotInvertible(f"{a} is not a unit in ZZ")

    def is_unit(self, a):
        return a in (1, -1)

    def dense_mul(self, a, b):
        return _trimmed(_int_product(a, b)) if a and b else ()

    def dense_divmod(self, a, b):
        """Division with remainder by exact integer quotients
        (``kernels._int_divmod``); NotInvertible at the first step that
        lc(b) does not divide."""
        if not b:
            raise ZeroDivisionError("division by zero polynomial")
        qr = _int_divmod(a, b)
        if qr is None:
            raise NotInvertible(f"{b[-1]} does not divide a quotient step in ZZ")
        return qr

    def dense_gcd(self, a, b):
        """Primitive gcd with lc > 0, by the primitive remainder sequence;
        the zero polynomial for a = b = 0."""
        while b:
            b = _int_content_primitive(b)[1]
            a, b = b, _int_prem(a, b)
        return _int_content_primitive(a)[1] if a else ()

    def coerce(self, other, a):
        if isinstance(other, IntegerRing):
            return a
        raise NoCanonicalMap(f"no canonical map {other} -> ZZ")

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")

    def __repr__(self):
        return "ZZ"


_QQ_ONE = Fraction(1)


class RationalField(_NumberDense, Domain):
    is_field = True
    char = 0
    _nf = _RationalArith()  # QQ as the number field of degree 1, for _SplitPrimes
    _split_primes = None  # made by the first factor_dense over the field

    def zero(self):
        return _QQ_ZERO

    def one(self):
        return _QQ_ONE

    def is_zero(self, a):
        return a == 0

    def sub(self, a, b):
        return a - b

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 is not invertible")
        return 1 / Fraction(a)

    def dense_mul(self, a, b):
        if not a or not b:
            return ()
        num, den = _qq_product(a, b)
        return tuple([Fraction(c, den) for c in num])

    def dense_monic(self, a):
        if not a or a[-1] == 1:
            return tuple(a)
        nums = _common_denominator(a)[0]
        return tuple([Fraction(c, nums[-1]) for c in nums])

    def dense_divmod(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero polynomial")
        return _qq_divmod(*_common_denominator(a), b)

    def dense_mulmod(self, a, b, m):
        if not m:
            raise ZeroDivisionError("division by zero polynomial")
        if not a or not b:
            return ()
        return _qq_divmod(*_qq_product(a, b), m, want_quotient=False)[1]

    def coerce(self, other, a):
        if isinstance(other, RationalField):
            return a
        if isinstance(other, IntegerRing):
            return Fraction(a)
        raise NoCanonicalMap(f"no canonical map {other} -> QQ")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


# Length of a monic modulus from which Zmod.dense_mulmod multiplies by
# Kronecker substitution instead of one fused schoolbook product and
# reduction.  Paired micro-timings of both on reduced operands, n in
# {7, 31, 101, 32003}: the fused loop won 6 or 7 of 7 pairs up to length 6
# (4.9 against 6.1 us at length 6 mod 7), they tied at length 7, and
# Kronecker won from length 8 (23.0 against 26.1 us at length 10 mod 32003).
_FUSED_MULMOD_LENGTH = 8


class Zmod(Domain):
    """Integers modulo n; a field exactly when n is prime, the zero ring
    when n = 1."""

    _elements = None

    def __init__(self, n):
        if n < 1:
            raise UnsupportedDomain("modulus must be >= 1")
        self.n = n
        self.is_field = is_prime(n)
        self.char = n
        self._one = 1 % n

    def zero(self):
        return 0

    def one(self):
        return self._one

    def is_zero(self, a):
        return a == 0

    def sub(self, a, b):
        return (a - b) % self.n

    def from_int(self, k):
        return k % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def pow(self, a, k):
        return pow(a, k, self.n)

    def inv(self, a):
        if math.gcd(a, self.n) != 1:
            raise NotInvertible(f"{a} is not a unit mod {self.n}")
        return pow(a, -1, self.n)

    def is_unit(self, a):
        return math.gcd(a, self.n) == 1

    # dense arithmetic on ints in [0, n): one reduction per output
    # coefficient, for prime and composite n alike

    def dense_add(self, a, b):
        n = self.n
        if len(a) < len(b):
            a, b = b, a
        return _trimmed([(x + y) % n for x, y in zip(a, b)] + list(a[len(b):]))

    def dense_sub(self, a, b):
        n = self.n
        out = [(x - y) % n for x, y in zip(a, b)]
        if len(a) >= len(b):
            out += a[len(b):]
        else:
            out += [-y % n for y in b[len(a):]]
        return _trimmed(out)

    def dense_scale(self, a, s):
        n = self.n
        return _trimmed([x * s % n for x in a]) if s else ()

    def dense_deriv(self, a):
        n = self.n
        return _trimmed([a[i] * i % n for i in range(1, len(a))])

    dense_text = _NumberDense.dense_text

    def dense_mul(self, a, b):
        if not a or not b:
            return ()
        if len(a) == 1 or len(b) == 1:
            n = self.n
            return _trimmed([c % n for c in _int_product(a, b)])
        return _trimmed(_kronecker_product(a, b, self.n))

    def dense_monic(self, a):
        if not a or a[-1] == self._one:
            return tuple(a)
        n, inv = self.n, self.inv(a[-1])
        return tuple([x * inv % n for x in a])

    def dense_divmod(self, a, b):
        """Euclidean division, the remainder kept unreduced until the end;
        the leading coefficient of b is inverted only when it is not 1."""
        if not b:
            raise ZeroDivisionError("division by zero polynomial")
        n, db = self.n, len(b) - 1
        inv = None if b[-1] == self._one else self.inv(b[-1])
        if len(a) <= db:
            return (), tuple(a)
        r, q, tail = list(a), [], b[:-1]
        for k in range(len(r) - db - 1, -1, -1):
            c = r.pop() % n
            if c and inv is not None:
                c = c * inv % n
            q.append(c)
            if c:
                for i, y in enumerate(tail, k):
                    r[i] -= c * y
        q.reverse()
        return tuple(q), _trimmed([x % n for x in r])

    def dense_mulmod(self, a, b, m):
        """a*b mod m.  For a monic m shorter than _FUSED_MULMOD_LENGTH the
        schoolbook product and the reduction by m run on one unreduced int
        list, with one reduction per output coefficient; otherwise a
        Kronecker product, then ``dense_divmod`` (which raises NotInvertible
        for a non-unit leading coefficient of m)."""
        if not m or m[-1] != self._one or len(m) >= _FUSED_MULMOD_LENGTH:
            return self.dense_divmod(self.dense_mul(a, b), m)[1]
        if not a or not b:
            return ()
        n, r = self.n, _int_product(a, b)
        _int_rem_monic(r, m[:-1], n)
        return _trimmed([x % n for x in r])

    def dense_gcd(self, a, b):
        """Monic gcd by Euclid's algorithm on monic divisors.  Each
        remainder is made monic as it is reduced, one reduction per
        coefficient; a divisor whose leading coefficient is no unit (n
        composite) raises NotInvertible, as ``Domain.dense_gcd`` does."""
        if not b:
            return self.dense_monic(a)
        n, b = self.n, self.dense_monic(b)
        while True:
            r = list(a)
            _int_rem_monic(r, b[:-1], n)
            while r and not r[-1] % n:
                r.pop()
            if not r:
                return b
            inv = self.inv(r.pop() % n)
            r = [x * inv % n for x in r]
            r.append(1)
            a, b = b, tuple(r)

    def elements(self):
        if self._elements is None:
            self._elements = list(range(self.n))
        return self._elements

    def order(self):
        return self.n

    def coerce(self, other, a):
        if isinstance(other, Zmod) and other.n == self.n:
            return a
        if isinstance(other, IntegerRing):
            return a % self.n
        if isinstance(other, Zmod) and other.n % self.n == 0:
            return a % self.n  # quotient map
        raise NoCanonicalMap(f"no canonical map {other} -> {self}")

    def __eq__(self, other):
        return isinstance(other, Zmod) and other.n == self.n

    def __hash__(self):
        return hash(("Zmod", self.n))

    def __repr__(self):
        if self.is_field:
            return f"GF({self.n})"
        return f"ZZ/{self.n}"


def GF(p):
    """Prime field of order p; raises if p is not prime."""
    if p < 1 or not (field := Zmod(p)).is_field:
        raise UnsupportedDomain(f"GF({p}): {p} is not prime")
    return field


# ---------------------------------------------------------------------------
# dense univariate arithmetic over a Domain
# coefficients low degree first, canonical form has no trailing zeros
# ---------------------------------------------------------------------------

def up_norm(dom, c):
    c = list(c)
    while c and dom.is_zero(c[-1]):
        c.pop()
    return tuple(c)


def up_deg(c):
    return len(c) - 1  # -1 for the zero polynomial


def up_const(dom, v):
    return (v,) if not dom.is_zero(v) else ()


def up_neg(dom, a):
    return tuple(dom.neg(x) for x in a)


def up_mul(dom, a, b):
    # kept as a public name for the dense product, which the arithmetic and
    # sympy oracle tests import; the package itself calls dom.dense_mul
    return dom.dense_mul(a, b)


def up_ext_gcd(dom, a, b):
    """Return (g, u, v) with u*a + v*b = g, g monic, over a field."""
    r0, r1 = a, b
    s0, s1 = (dom.one(),), ()
    t0, t1 = (), (dom.one(),)
    while r1:
        q, r = dom.dense_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, dom.dense_sub(s0, dom.dense_mul(q, s1))
        t0, t1 = t1, dom.dense_sub(t0, dom.dense_mul(q, t1))
    if not r0:
        return (), s0, t0
    c = dom.inv(r0[-1])
    return dom.dense_scale(r0, c), dom.dense_scale(s0, c), dom.dense_scale(t0, c)


def up_eval(dom, a, x):
    r = dom.zero()
    for c in reversed(a):
        r = dom.add(dom.mul(r, x), c)
    return r


def up_pow_mod(dom, a, n, m):
    r = (dom.one(),)
    a = dom.dense_divmod(a, m)[1]
    while n:
        if n & 1:
            r = dom.dense_mulmod(r, a, m)
        n >>= 1
        if n:
            a = dom.dense_mulmod(a, a, m)
    return r


# Elements ExtField.elements may list.  The scripts, the benchmark decks and
# the tests list at most GF(49); the k[T] candidate budget of ``spectrum``
# and the coordinate-tuple budget of ``proj`` are the same size.
_ELEMENTS_BUDGET = 150_000


# Order up to which an ExtField over a prime field runs its dense products,
# divisions and gcds on logarithms: log, antilog and Zech tables, built on
# its first multiplication and shared by equal fields through
# _FIELD_TABLES.  They keep 0.023 MB for GF(13^2), 0.14 MB for GF(31^2) and
# 0.20 MB for GF(2^10) (tracemalloc, the Zech table included).  The
# benchmark decks and the tests multiply in GF(4) to GF(169).
_LOG_TABLE_BUDGET = 1024

# Fields whose tables _FIELD_TABLES keeps, the oldest dropped first: the
# atlas deck specializes to 17 distinct fields GF(q^2) with q <= 13.  The
# cache is shared by every thread of the process; _FIELD_TABLES_LOCK makes
# its lookup, build, eviction and insertion one step.
_TABLE_CACHE_SIZE = 32
_FIELD_TABLES = {}
_FIELD_TABLES_LOCK = threading.Lock()


def _field_tables(p, modulus):
    """The _ZechTables of GF(p)[t]/(modulus), from the cache or new.

    The generator is the first of t, t + 1, ..., then 1, ..., p - 1 (a
    constant generates GF(q) only when q = p) whose power g^(m/l) is not 1
    for any prime l dividing the group order m = p^r - 1.
    """
    key = (p, modulus)
    with _FIELD_TABLES_LOCK:
        tables = _FIELD_TABLES.get(key)
        if tables is None:
            r = len(modulus) - 1
            m = p ** r - 1
            primes = [ell for ell, _ in prime_factors(m)] if m > 1 else []
            base = Zmod(p)
            for i in itertools.chain(range(p, m + 1), range(1, p)):
                g = _trimmed([i // p ** j % p for j in range(r)])
                if all(up_pow_mod(base, g, m // ell, modulus) != (1,) for ell in primes):
                    break
            tables = _ZechTables(p, modulus, g)
            if len(_FIELD_TABLES) >= _TABLE_CACHE_SIZE:
                del _FIELD_TABLES[next(iter(_FIELD_TABLES))]
            _FIELD_TABLES[key] = tables
    return tables


class ExtField(Domain):
    """Simple field extension base[t]/(modulus), modulus monic irreducible.

    Elements are trimmed coefficient tuples of length <= deg(modulus) over
    the base field.  Covers GF(p^r) over GF(p) and number fields over QQ.

    Dense products, divisions, gcds and monic forms run on a kernel where
    the field has one, and elements stay tuples on both sides of it:
    a number field over QQ (any monic modulus) on integer coefficient
    matrices over one denominator (``_NumberFieldArith``); GF(q) over a
    prime field with q <= _LOG_TABLE_BUDGET on log/exp/Zech tables
    (``_ZechTables``), shared by equal fields.  Towers and larger finite
    fields use the generic loops, one ExtField call per coefficient.
    """

    is_field = True
    _nf = None  # the _NumberFieldArith of a number field over QQ
    _split_primes = None  # made by the first factor_dense over a number field
    _tables = None  # see _kernel

    def __init__(self, base, modulus, var="t", check=True):
        if not base.is_field:
            raise UnsupportedDomain("extension base must be a field")
        modulus = up_norm(base, tuple(modulus))
        if up_deg(modulus) < 1:
            raise UnsupportedDomain("extension modulus must be nonconstant")
        modulus = base.dense_monic(modulus)
        self.base = base
        self.modulus = modulus
        self.degree = up_deg(modulus)
        self.var = var
        self.char = base.char
        self._one = (base.one(),)
        if isinstance(base, RationalField):
            self._nf = _NumberFieldArith(modulus)
        if check and self.degree > 1 and not _is_irreducible_dense(modulus, base):
            raise UnsupportedDomain("extension modulus must be irreducible")

    def zero(self):
        return ()

    def one(self):
        return self._one

    def is_zero(self, a):
        return not a

    def from_int(self, n):
        return up_const(self.base, self.base.from_int(n))

    def from_base(self, a):
        return up_const(self.base, a)

    def gen(self):
        if self.degree == 1:
            return up_const(self.base, self.base.neg(self.modulus[0]))
        return (self.base.zero(), self.base.one())

    def add(self, a, b):
        return self.base.dense_add(a, b)

    def sub(self, a, b):
        return self.base.dense_sub(a, b)

    def neg(self, a):
        return up_neg(self.base, a)

    def mul(self, a, b):
        tables = self._kernel()
        if not isinstance(tables, _ZechTables):
            return self.base.dense_mulmod(a, b, self.modulus)
        return tables.exp[tables.log[a] + tables.log[b]] if a and b else ()

    def inv(self, a):
        if not a:
            raise NotInvertible("0 is not invertible")
        kernel = self._kernel()
        if kernel:
            return kernel.inv(a)
        g, u, _ = up_ext_gcd(self.base, a, self.modulus)
        if up_deg(g) != 0:
            raise NotInvertible("element shares a factor with the modulus")
        return self.base.dense_scale(u, self.base.inv(g[0]))

    def _kernel(self):
        """The field's ``_NumberFieldArith`` or ``_ZechTables``, else False
        (towers, and finite fields past _LOG_TABLE_BUDGET)."""
        if self._nf:
            return self._nf
        if self._tables is None:
            base = self.base
            tabulated = isinstance(base, Zmod) and self.order() <= _LOG_TABLE_BUDGET
            self._tables = tabulated and _field_tables(base.n, self.modulus)
        return self._tables

    # dense arithmetic: the additive operations act on the base coordinates,
    # the rest runs on the field's kernel where it has one

    def dense_add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        add = self.base.dense_add
        return up_norm(self, [add(x, y) for x, y in zip(a, b)] + list(a[len(b):]))

    def dense_sub(self, a, b):
        sub = self.base.dense_sub
        out = [sub(x, y) for x, y in zip(a, b)]
        if len(a) >= len(b):
            out += a[len(b):]
        else:
            out += [self.neg(y) for y in b[len(a):]]
        return up_norm(self, out)

    def dense_deriv(self, a):
        base = self.base
        return up_norm(self, [base.dense_scale(a[i], base.from_int(i))
                              for i in range(1, len(a))])

    def dense_scale(self, a, s):
        kernel = self._kernel()
        if not s or not kernel:
            return Domain.dense_scale(self, a, s)
        return kernel.scale(a, s)

    def dense_mul(self, a, b):
        kernel = self._kernel()
        if not kernel:
            return Domain.dense_mul(self, a, b)
        return kernel.mul(a, b) if a and b else ()

    def dense_divmod(self, a, b):
        kernel = self._kernel()
        if not b or not kernel:
            return Domain.dense_divmod(self, a, b)
        return kernel.divmod(a, b)

    def dense_mulmod(self, a, b, m):
        kernel = self._kernel()
        if not m or not kernel:
            return Domain.dense_mulmod(self, a, b, m)
        return kernel.mulmod(a, b, m) if a and b else ()

    def dense_monic(self, a):
        kernel = self._kernel()
        if not a or a[-1] == self._one or not kernel:
            return Domain.dense_monic(self, a)
        return kernel.monic(a)

    def dense_gcd(self, a, b):
        kernel = self._kernel()
        if not kernel:
            return Domain.dense_gcd(self, a, b)
        return kernel.gcd(a, b)

    def order(self):
        return self.base.order() ** self.degree

    def elements(self):
        size = self.order()
        if size > _ELEMENTS_BUDGET:
            raise BudgetExceeded(f"the {size} elements of {self!r} exceed the budget "
                                 f"of {_ELEMENTS_BUDGET}")
        base_elems = self.base.elements()
        out = []
        for tup in itertools.product(base_elems, repeat=self.degree):
            out.append(up_norm(self.base, tup))
        return sorted(set(out))

    def coerce(self, other, a):
        if self == other:
            return a
        if other == self.base:
            return self.from_base(a)
        if isinstance(other, IntegerRing):
            return self.from_int(a)
        return self.from_base(self.base.coerce(other, a))

    def format(self, a):
        return self.base.dense_text(a, self.var)

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtField", self.base, self.modulus))

    def __repr__(self):
        return ext_field_text(self.base, self.modulus, self.var)


class FracField(Domain):
    """Rational function field k(S) over a field k.

    Elements are (numerator, denominator) pairs of dense tuples over k with
    monic denominator and gcd one.
    """

    is_field = True

    def __init__(self, base, var="S"):
        if not base.is_field:
            raise UnsupportedDomain("function field base must be a field")
        self.base = base
        self.var = var
        self.char = base.char

    def _make(self, num, den):
        if not num:
            return ((), (self.base.one(),))
        g = self.base.dense_gcd(num, den)
        if up_deg(g) > 0:
            num = self.base.dense_divmod(num, g)[0]
            den = self.base.dense_divmod(den, g)[0]
        lc = den[-1]
        if not self.base.is_one(lc):
            c = self.base.inv(lc)
            num = self.base.dense_scale(num, c)
            den = self.base.dense_scale(den, c)
        return (num, den)

    def from_int(self, n):
        return (up_const(self.base, self.base.from_int(n)), (self.base.one(),))

    def from_poly(self, coeffs):
        return self._make(up_norm(self.base, tuple(coeffs)), (self.base.one(),))

    def gen(self):
        return self.from_poly((self.base.zero(), self.base.one()))

    def add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        num = self.base.dense_add(self.base.dense_mul(n1, d2), self.base.dense_mul(n2, d1))
        return self._make(num, self.base.dense_mul(d1, d2))

    def neg(self, a):
        return (up_neg(self.base, a[0]), a[1])

    def mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        return self._make(self.base.dense_mul(n1, n2), self.base.dense_mul(d1, d2))

    def inv(self, a):
        num, den = a
        if not num:
            raise NotInvertible("0 is not invertible")
        return self._make(den, num)

    def coerce(self, other, a):
        if self == other:
            return a
        if other == self.base:
            return self.from_poly((a,))
        if isinstance(other, IntegerRing):
            return self.from_int(a)
        return self.from_poly((self.base.coerce(other, a),))

    def format(self, a):
        num, den = a
        ns = self.base.dense_text(num, self.var)
        if den == (self.base.one(),):
            return ns
        ds = self.base.dense_text(den, self.var)
        return f"({ns})/({ds})"

    def __eq__(self, other):
        return (
            isinstance(other, FracField)
            and other.base == self.base
            and other.var == self.var
        )

    def __hash__(self):
        return hash(("FracField", self.base, self.var))

    def __repr__(self):
        return f"{self.base}({self.var})"


def ext_field_text(base, modulus, var):
    """The printed form of the field base[var]/(m), m the monic associate
    of ``modulus`` (nonconstant, lc a unit), GF(q,m) over a prime field:
    ``ExtField.__repr__``, and the residue fields that ``spectrum`` prints
    without building them.  Over QQ, m is printed straight from modulus."""
    if isinstance(base, RationalField):
        mod = base.dense_text(modulus, var, modulus[-1])
    else:
        mod = base.dense_text(base.dense_monic(modulus), var)
    if isinstance(base, Zmod) and base.is_field:
        return f"GF({base.n ** (len(modulus) - 1)},{mod})"
    return f"{base}[{var}]/({mod})"


ZZ = IntegerRing()
QQ = RationalField()


def GFq(q, modulus_coeffs=None, var="t"):
    """Finite field of order q = p^r: GF(p) without a modulus, else
    GF(p)[var]/(modulus) for integer coefficients of degree exactly r,
    low degree first (an ExtField even when r = 1)."""
    fac = _prime_power(q)
    if fac is None:
        raise UnsupportedDomain(f"{q} is not a prime power")
    p, r = fac
    if modulus_coeffs is None and r == 1:
        return GF(p)
    if modulus_coeffs is None:
        raise UnsupportedDomain("GF(p^r) with r > 1 needs an explicit modulus")
    base = GF(p)
    mod = up_norm(base, tuple(base.from_int(c) for c in modulus_coeffs))
    if up_deg(mod) != r:
        raise UnsupportedDomain(f"GF({q}) needs a modulus of degree {r}")
    return ExtField(base, mod, var=var)


# ---------------------------------------------------------------------------
# squarefree decomposition
# ---------------------------------------------------------------------------

def _pth_root_dense(f, dom):
    """p-th root of f(x) = g(x^p) over a finite field (inverse Frobenius)."""
    p = dom.char
    q = dom.order()
    out = [dom.pow(f[i], q // p) for i in range(0, len(f), p)]
    return up_norm(dom, out)


def squarefree_decomposition(f, dom):
    """List of (squarefree monic factor, multiplicity) of f over a finite
    field, unit dropped."""
    f = dom.dense_monic(f)
    if up_deg(f) < 1:
        return []
    return sorted(_sqf_char_p(f, dom, 1), key=lambda gm: (gm[1], gm[0]))


def _yun(f, dom):
    """Yun's squarefree decomposition [(g_i, i)] of f over ZZ or a field of
    characteristic 0 (Yun 1976).

    The gcds are ``dom.dense_gcd``: monic over a field, primitive with
    lc > 0 over ZZ, where f is primitive.  Every division is exact (over ZZ
    by Gauss's lemma, so ``ZZ.dense_divmod`` needs no rational arithmetic),
    and each is checked to leave no remainder.
    """

    def exact(a, b):
        q, r = dom.dense_divmod(a, b)
        assert not r, "an inexact division in Yun's algorithm"
        return q

    out = []
    df = dom.dense_deriv(f)
    a = dom.dense_gcd(f, df)
    b = exact(f, a)
    c = exact(df, a)
    d = dom.dense_sub(c, dom.dense_deriv(b))
    i = 1
    while up_deg(b) > 0:
        g = dom.dense_gcd(b, d)
        if up_deg(g) > 0:
            out.append((g, i))
        b = exact(b, g)
        c = exact(d, g)
        d = dom.dense_sub(c, dom.dense_deriv(b))
        i += 1
    return out


def _sqf_char_p(f, dom, mult):
    """[(squarefree monic factor, multiplicity)] of monic f over a finite
    field, each multiplicity times ``mult``; f itself at once when
    gcd(f, f') = 1."""
    out = []
    df = dom.dense_deriv(f)
    if not df:
        root = _pth_root_dense(f, dom)
        return _sqf_char_p(root, dom, mult * dom.char)
    a = dom.dense_gcd(f, df)
    if up_deg(a) == 0:
        return [(f, mult)]
    b = dom.dense_divmod(f, a)[0]
    i = 1
    while up_deg(b) > 0:
        c = dom.dense_gcd(a, b)
        g = dom.dense_divmod(b, c)[0]
        if up_deg(g) > 0:
            out.append((g, i * mult))
        b = c
        a = dom.dense_divmod(a, c)[0]
        i += 1
    if up_deg(a) > 0:
        out.extend(_sqf_char_p(a, dom, mult))
    return out


# ---------------------------------------------------------------------------
# factorization over finite fields
# ---------------------------------------------------------------------------

def _x_pow_mod(dom, e, f):
    """x^e mod f for monic f of degree >= 2 and e >= 1, left to right over
    the bits of e: square, and where the bit is set multiply by x, a shift
    and at most one reduction step."""
    r, top, tail = (dom.zero(), dom.one()), len(f) - 1, f[:-1]
    for bit in bin(e)[3:]:
        r = dom.dense_mulmod(r, r, f)
        if bit == "1":
            r = (dom.zero(),) + r
            if len(r) > top:
                r = dom.dense_sub(r[:-1], dom.dense_scale(tail, r[-1]))
    return r


def _distinct_degree(f, dom, d=0):
    """Split squarefree monic f, with no irreducible factor of degree <= d,
    into (product of its irreducibles of degree e, e) for e > d.

    At d = 0 over GF(p) with p <= _ROOT_SCAN_ORDER the degree-1 step is the
    residue scan (``_linear_factors``), which gives each linear factor as a
    part of its own, so equal-degree splitting never sees degree 1 there;
    the cofactor, linear or root-free, goes on at degree 2.  The first
    Frobenius image taken, x^(q^(d+1)) mod f, is ``_x_pow_mod``; each later
    one is the previous image raised to the q-th power mod the cofactor left
    (von zur Gathen & Gerhard, Modern Computer Algebra, Alg. 14.3)."""
    q = dom.order()
    out = []
    x = (dom.zero(), dom.one())
    h = None
    if not d and isinstance(dom, Zmod) and q <= _ROOT_SCAN_ORDER:
        linears, f = _linear_factors(f, q)
        out = [(g, 1) for g, _ in linears]
        d = 1
    while up_deg(f) > 0:
        d += 1
        if 2 * d > up_deg(f):
            out.append((f, up_deg(f)))
            break
        h = _x_pow_mod(dom, q ** d, f) if h is None else up_pow_mod(dom, h, q, f)
        g = dom.dense_gcd(dom.dense_sub(h, x), f)
        if up_deg(g) > 0:
            out.append((g, d))
            f = dom.dense_divmod(f, g)[0]
            h = dom.dense_divmod(h, f)[1]
    return out


# Prime order up to which the linear factors are found by the residue scan
# (``_linear_factors``, the first step of ``factor_dense`` and the degree-1
# step of ``_distinct_degree``) instead of taking gcd(x^p - x, f) and
# splitting the linears by Cantor-Zassenhaus.  Paired timings of
# factor_dense on 40 random monic polynomials per cell, primes 2-257 and
# degrees 2-10; scan time over gcd time, the median of 11 alternating pairs:
#
#     p \ degree   2     3     4     6     8     10
#     2          0.48  0.81  0.66  0.78  0.85  0.88
#     5          0.33  0.48  0.62  0.81  0.88  0.88
#     31         0.23  0.39  0.58  0.72  0.87  0.84
#     61         0.29  0.39  0.80  0.85  0.87  0.85
#     67         0.40  0.41  0.72  0.88  0.93  1.00
#     101        0.39  0.51  0.82  0.96  0.99  0.96
#     127        0.36  0.53  0.67  0.79  0.96  0.94
#     163        0.47  0.76  0.92  1.03  0.94  0.96
#     197        0.45  1.13  0.98  1.10  1.13  1.04
#     257        0.57  0.92  1.17  1.16  1.32  1.06
#
# Up to p = 61 the scan saved at least 12 % at every degree (p = 31: 18
# against 47 us at degree 3, 397 against 462 us at degree 10); from p = 67
# it tied at degree >= 8, and from p = 197 it lost (257 against 229 us at
# degree 6).
_ROOT_SCAN_ORDER = 64


def _linear_factors(f, p):
    """([(x - r, multiplicity) for the roots r found], the cofactor) of
    monic f on ints in [0, p).  At each residue r in turn f(r) is Horner's
    rule on exact ints, reduced mod p once; at a root, x - r is divided out
    (synthetic division, high degree first, the last entry the remainder)
    for as long as the remainder is 0.  The scan stops when the cofactor is
    linear (its root not reached yet) or every residue has been tried, when
    the cofactor has no root."""
    linears, rev = [], f[::-1]
    for r in range(p):
        if len(rev) < 3:
            break
        v = 0
        for c in rev:
            v = v * r + c
        if v % p:
            continue
        mult = 0
        while True:
            quo = [rev[0]]
            for c in rev[1:]:
                quo.append((quo[-1] * r + c) % p)
            if quo[-1]:
                break
            rev, mult = tuple(quo[:-1]), mult + 1
        linears.append(((-r % p, 1), mult))
    return linears, rev[::-1]


def _equal_degree(f, d, dom, rng):
    """Cantor-Zassenhaus split of f (product of degree-d irreducibles).
    Over GF(p) with p <= _ROOT_SCAN_ORDER, d = 1 comes here only as one
    linear factor, returned at once."""
    n = up_deg(f)
    if n == d:
        return [f]
    q = dom.order()
    while True:
        h = up_norm(dom, tuple(_random_elem(dom, rng) for _ in range(n)))
        if up_deg(h) < 1:
            continue
        g = dom.dense_gcd(h, f)
        if not 0 < up_deg(g) < n:
            if q % 2 == 1:
                e = (q ** d - 1) // 2
                g = dom.dense_gcd(dom.dense_sub(up_pow_mod(dom, h, e, f), (dom.one(),)), f)
            else:
                t = dom.dense_divmod(h, f)[1]
                acc = t
                k = q.bit_length() - 1  # q = 2^k
                for _ in range(k * d - 1):
                    t = dom.dense_mulmod(t, t, f)
                    acc = dom.dense_add(acc, t)
                g = dom.dense_gcd(acc, f)
        if 0 < up_deg(g) < n:
            rest = dom.dense_divmod(f, g)[0]
            return _equal_degree(g, d, dom, rng) + _equal_degree(rest, d, dom, rng)


def _random_elem(dom, rng):
    if isinstance(dom, Zmod):
        return rng.randrange(dom.n)
    if isinstance(dom, ExtField):
        return up_norm(
            dom.base, tuple(_random_elem(dom.base, rng) for _ in range(dom.degree))
        )
    raise UnsupportedDomain(f"cannot sample from {dom}")


def _cz_rng(f):
    """Cantor-Zassenhaus generator seeded from the coefficient tuple of f.

    The seed does not depend on ``PYTHONHASHSEED``, so the random draws, and
    with them the work done, are the same in every process.
    """
    return random.Random(zlib.crc32(repr(tuple(f)).encode()))


def _factor_finite_field(f, dom):
    """[(monic irreducible, multiplicity)] of f of degree >= 1 over a finite
    field (see ``factor_dense``): over GF(p) with p <= _ROOT_SCAN_ORDER the
    residue scan, and a root-free cofactor of degree <= 3 is irreducible;
    a larger cofactor, or f over a larger field, is split into squarefree
    parts, each by distinct degree (from degree 2 after the scan), then
    Cantor-Zassenhaus on the draws of ``_cz_rng(f)``.  A distinct-degree
    part of one irreducible is kept as it is, and the generator is made on
    the first part that needs draws, so the draws and their order are those
    of a generator made up front."""
    g, out, done = dom.dense_monic(f), [], 0
    if isinstance(dom, Zmod) and dom.n <= _ROOT_SCAN_ORDER:
        out, g = _linear_factors(g, dom.n)
        if up_deg(g) < 4:  # linear, or root-free of degree 2 or 3: irreducible
            return out + [(g, 1)] if up_deg(g) else out
        done = 1
    rng = None
    for s, mult in squarefree_decomposition(g, dom):
        for h, d in _distinct_degree(s, dom, done):
            if up_deg(h) == d:
                parts = [h]
            else:
                if rng is None:
                    rng = _cz_rng(f)
                parts = _equal_degree(h, d, dom, rng)
            out += [(dom.dense_monic(irr), mult) for irr in parts]
    return out


# ---------------------------------------------------------------------------
# factorization over QQ and number fields: Zassenhaus with quadratic
# Hensel lifting
# ---------------------------------------------------------------------------

def _int_content_primitive(coeffs):
    """(content, primitive) for an integer tuple, primitive lc > 0."""
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    if g == 0:
        raise ZeroPolynomial("zero polynomial")
    prim = tuple(c // g for c in coeffs)
    if prim[-1] < 0:
        prim = tuple(-c for c in prim)
        g = -g
    return g, prim


def _sym_tuple(c, m):
    out = []
    for x in c:
        x = x % m
        if x > m // 2:
            x -= m
        out.append(x)
    return up_norm(ZZ, tuple(out))


def _hensel_step(m, m2, f, g, h, s, t):
    """One quadratic Hensel step: inputs mod m, outputs mod m2, a divisor
    of m*m.

    Requires f = g*h (mod m), s*g + t*h = 1 (mod m), h monic.
    """
    D = Zmod(m2)

    def red(poly):
        return up_norm(D, tuple(c % m2 for c in poly))

    fD, gD, hD, sD, tD = red(f), red(g), red(h), red(s), red(t)
    e = D.dense_sub(fD, D.dense_mul(gD, hD))
    q, r = D.dense_divmod(D.dense_mul(sD, e), hD)
    g1 = D.dense_add(gD, D.dense_add(D.dense_mul(tD, e), D.dense_mul(q, gD)))
    h1 = D.dense_add(hD, r)
    b = D.dense_sub(D.dense_add(D.dense_mul(sD, g1), D.dense_mul(tD, h1)), (D.one(),))
    c, d = D.dense_divmod(D.dense_mul(sD, b), h1)
    s1 = D.dense_sub(sD, d)
    t1 = D.dense_sub(tD, D.dense_add(D.dense_mul(tD, b), D.dense_mul(c, g1)))
    return (
        _sym_tuple(g1, m2),
        _sym_tuple(h1, m2),
        _sym_tuple(s1, m2),
        _sym_tuple(t1, m2),
    )


def _hensel_lift_pair(p, f, gp, hp, final):
    """Lift f = gp*hp (mod p), gp and hp over GF(p), hp monic, to modulus
    ``final``, a power of p: squaring the modulus, the last step only up to
    ``final``."""
    Dp = Zmod(p)
    _, s_raw, _ = up_ext_gcd(Dp, gp, hp)
    s = Dp.dense_divmod(s_raw, hp)[1]
    # t = (1 - s*g)/h exactly over GF(p)
    num = Dp.dense_sub((Dp.one(),), Dp.dense_mul(s, gp))
    t, rem = Dp.dense_divmod(num, hp)
    assert not rem
    g, h = _sym_tuple(gp, p), _sym_tuple(hp, p)
    s, t = _sym_tuple(s, p), _sym_tuple(t, p)
    m = p
    while m < final:
        m2 = min(m * m, final)
        g, h, s, t = _hensel_step(m, m2, f, g, h, s, t)
        m = m2
    return g, h


def _lift_factorization(p, f, leaves, final):
    """Lift the pairwise-coprime monic factors ``leaves`` (at least two) of
    the monic f mod p to monic factors mod ``final``, symmetric residues,
    by a tree of pair lifts: each half of the leaves lifts to one monic
    factor of its node, as f is monic."""
    Dp = Zmod(p)

    def rec(f_node, node_leaves):
        if len(node_leaves) == 1:
            return [f_node]
        half = len(node_leaves) // 2
        left, right = node_leaves[:half], node_leaves[half:]
        G, H = _hensel_lift_pair(p, f_node, functools.reduce(Dp.dense_mul, left),
                                 functools.reduce(Dp.dense_mul, right), final)
        return rec(G, left) + rec(H, right)

    return rec(f, leaves)


# Subsets _recombine may try.  A degree-24 input that stays irreducible with
# 12 modular factors needs 2,509; the Swinnerton-Dyer polynomial of degree
# 16 (8 factors) needs 162.
_RECOMBINATION_BUDGET = 1 << 16


def _recombine(g, lifted, read, divide):
    """Search subsets of the lifted modular factors for true factors of g.

    ``read(product)`` makes a candidate factor from the product of a
    subset's lifted factors, and ``divide(current, candidate)`` is the
    exact quotient of what is left of g, or None when the candidate does
    not divide.  Each size of subset is counted before its subsets are
    tried (in full, though a hit ends the round early), and BudgetExceeded
    is raised when the count would pass _RECOMBINATION_BUDGET: with r
    factors and no hit the search tries about 2^(r-1) subsets.  A hit
    takes at most half of the factors left, so what is left at the end is
    a factor too.
    """
    factors = []
    remaining = list(range(len(lifted)))
    current = g
    size, tried = 1, 0
    while 2 * size <= len(remaining):
        tried += math.comb(len(remaining), size)
        if tried > _RECOMBINATION_BUDGET:
            raise BudgetExceeded(f"{tried} recombination subsets of {len(lifted)} modular "
                                 f"factors exceed the budget of {_RECOMBINATION_BUDGET}")
        hit = False
        for combo in itertools.combinations(remaining, size):
            cand = read(functools.reduce(ZZ.dense_mul, [lifted[i] for i in combo]))
            quo = divide(current, cand)
            if quo:
                factors.append(cand)
                current = quo
                remaining = [i for i in remaining if i not in combo]
                hit = True
                break
        if not hit:
            size += 1
    factors.append(current)
    return factors


def _next_prime(p):
    p += 2 if p % 2 == 1 else 1
    while not is_prime(p):
        p += 2
    return p


_SQUAREFREE_TRIES = 4  # split primes tried for a squarefree certificate: 5, 7, 11, 13 over QQ
_CERTIFICATE_PRIMES = 3  # good primes given distinct-degree factorization


def _squarefree_image(g, p):
    """g over GF(p), nonzero lc, made monic if it is squarefree, else None."""
    Dp = Zmod(p)
    gp = Dp.dense_monic(g)
    return gp if up_deg(Dp.dense_gcd(gp, Dp.dense_deriv(gp))) == 0 else None


def _residue(coeffs, x, m):
    """sum(coeffs[j] * x^j) mod m for ints, by Horner's rule."""
    v = 0
    for c in reversed(coeffs):
        v = (v * x + c) % m
    return v


class _SplitPrimes:
    """Zassenhaus over a number field K = QQ[t]/(m) of any degree n >= 1,
    QQ itself the field of degree 1, at primes of degree one.

    The field's ``_NumberFieldArith`` (for QQ its ``_RationalArith``) writes
    a monic g over K as G/den with G in Z[beta][x], lc(G) = den, for
    beta = c*t, a root of its integral monic m~(s) = s^n - sum(red[j] * s^j)
    of degree n.  A prime p >= 5 that divides neither disc(m~) nor den, and
    at which m~ has a root mod p (rho, the least, found by scanning the
    residues), gives the residue map Z[beta] -> GF(p), beta -> rho, of the
    prime (p, beta - rho) of degree one, and so an image of g over GF(p).
    Over QQ (m~ = s, rho = 0, disc = 1) every p >= 5 is such a prime, and G
    is the primitive integer form of g.  Lifting and reading are here, on
    the lattices of ``kernels._ReducedLattice``; the field's arithmetic
    reads candidates and divides them on integral forms.
    """

    def __init__(self, dom):
        self.dom, self.nf = dom, dom._nf
        n, red = self.nf.n, self.nf.red
        self.poly = [-r for r in red] + [1]  # m~, low degree first
        # |disc(m~)| = |N(m~'(beta))|, the determinant of multiplication by
        # m~'(beta); d*O_K lies in Z[beta] for the d with d^2 | disc(m~), as
        # the square of the index of Z[beta] divides disc(m~)
        deriv = [-(j + 1) * r for j, r in enumerate(red[1:])] + [n]
        self.disc = abs(self.nf._adjugate(deriv)[1])
        self.index = _square_root_part(self.disc)
        self.roots = {}

    def root(self, p):
        """The least root of m~ mod p, or None when p divides disc(m~) or
        m~ has no root mod p; each p scanned once per field."""
        if p not in self.roots:
            self.roots[p] = next((r for r in range(p) if not _residue(self.poly, r, p)),
                                 None) if self.disc % p else None
        return self.roots[p]

    def lattice(self, p, modulus):
        """(rho_K, L): the root rho of m~ mod p lifted mod the power
        ``modulus`` of p by Newton's method, and the LLL-reduced lattice
        L = {v in Z^n : sum(v_j * rho_K^j) = 0 mod p^K}, the kernel of
        Z[beta] -> Z/p^K, beta -> rho_K, from its rows p^K*e_0 and
        e_j - (rho_K^j mod p^K)*e_0."""
        rho, m, poly = self.root(p), p, self.poly
        while m < modulus:
            m = min(m * m, modulus)
            f = df = 0
            for c in reversed(poly):
                df = (df * rho + f) % m
                f = (f * rho + c) % m
            rho = (rho - f * pow(df, -1, m)) % m
        n = self.nf.n
        rows = [[modulus] + [0] * (n - 1)]
        for j in range(1, n):
            rows.append([-pow(rho, j, modulus)] + [0] * (j - 1) + [1] + [0] * (n - 1 - j))
        return rho, _ReducedLattice(rows)

    def images(self, g):
        """Yield (p, image) for the primes p = 5, 7, 11, ... at which m~ has
        a simple root rho: g at beta = rho over GF(p), monic and squarefree,
        or None when p divides den or the image is not squarefree."""
        flat, den = self.nf.ints(g)
        p = 3
        while True:
            p = _next_prime(p)
            rho = self.root(p)
            if rho is None:
                continue
            image = None
            if den % p:
                image = _squarefree_image(tuple(self.nf.residues(flat, rho, p)), p)
            yield p, image

    def lift(self, g, p, mods):
        """(lifted factors of g, their reader), lifted mod p^K for the
        least K with p^(2K) > (2^(n+2) * C * W)^n, where, for deg g = e,
        M = 1 + max|red[j]|, W = sum(M^(2j) for j < n), d the ``index``
        (d^2 | disc(m~), d*O_K in Z[beta]),
        A = d^2 * 4^e * sum_k(sum_j |G_kj| * M^j)^2 and
        C = ceil(n^(n+1) * A * M^(n(n-1)) / |disc(m~)|).

        Why K suffices.  A monic factor h of g has den*h in O_K[x] (Gauss's
        lemma on the content ideals of O_K, as den*g = G is integral), so
        each coefficient of d*den*h is some y = sum(y_j * beta^j) with an
        integer vector y.  In each complex embedding s, |s(beta)| < M
        (Cauchy's bound), so |s(G_k)| <= sum_j |G_kj| * M^j, and Mignotte's
        bound |s(den*h_j)| <= 2^e * ||s(G)||_2 gives |s(y)|^2 <= A.  The
        vector y solves V*y = (s(y))_s for the Vandermonde matrix V of the
        embeddings of beta, |det V|^2 = |disc(m~)|; by Cramer's rule and
        Hadamard's bound, the columns of V having norms at most
        sqrt(n) * M^j, y_j^2 <= n^n * A * M^(n(n-1)) / |disc(m~)|, so
        |y|^2 <= C.  The product of the lifted factors of h is h at
        beta = rho_K mod p^K, so y lies in the class of
        (d*den*r mod p^K, 0, ..., 0) mod L for its coefficient r there (L
        of ``lattice``).  A nonzero v in L gives an element of the K-th
        power of the prime (p, beta - rho) (Z[beta] is maximal at p, as p
        does not divide disc(m~)), so p^K divides its norm, which is not 0,
        and p^K <= prod_s |s(v)| <= (|v|^2 * W)^(n/2) by Cauchy-Schwarz.
        Babai's nearest plane in the LLL-reduced L leaves a point w of the
        class with |w| <= 2^(n/2) * |y| (Babai 1986), so v = y - w has
        |v|^2 <= (1 + 2^(n/2))^2 * C <= 2^(n+2) * C, and
        (|v|^2 * W)^n < p^(2K) makes v = 0: the reader returns y.  A
        candidate is still kept only on an exact division over K.
        """
        flat, den = self.nf.ints(g)
        n, s = self.nf.n, self.nf.s
        rows = [flat[i:i + n] for i in range(0, len(flat), s)]
        m = 1 + max(map(abs, self.nf.red))  # M, A, C and W of the bound
        a = self.index ** 2 * 4 ** (len(rows) - 1) * sum(
            sum(abs(x) * m ** j for j, x in enumerate(row)) ** 2 for row in rows)
        c = -(-n ** (n + 1) * a * m ** (n * (n - 1)) // self.disc)
        w = sum(m ** (2 * j) for j in range(n))
        bound = (2 ** (n + 2) * c * w) ** n
        modulus = p
        while modulus * modulus <= bound:
            modulus *= p
        rho, lattice = self.lattice(p, modulus)
        inv = pow(den, -1, modulus)
        image = tuple([x * inv % modulus for x in self.nf.residues(flat, rho, modulus)])
        read = self.nf.reader(lattice, modulus, self.index * den)
        return _lift_factorization(p, image, mods, modulus), read

    def squarefree(self, g):
        """Yun's [(monic squarefree part, multiplicity)] of the monic g: at
        n = 1, Z[beta] = ZZ, over ZZ on the primitive integral form of g
        (Gauss's lemma); over a larger K on g, with monic gcds."""
        if self.nf.n > 1:
            return _yun(g, self.dom)
        return [(self.nf.monic_of(h), m) for h, m in _yun(self.nf.ints(g)[0], ZZ)]


def _zassenhaus(g, images, ring):
    """Factor a squarefree monic g over a number field, QQ the one of degree
    1, whose images over GF(p) the search ``images`` of its
    ``_SplitPrimes`` ``ring`` yields, possibly already begun.

    Distinct-degree factorization runs on the images of up to
    _CERTIFICATE_PRIMES good primes.  Irreducibility certificate: if some
    image is irreducible, g is irreducible, since a factorization of g would
    reduce to one of the image with the same degrees (the image keeps the
    degree of g); then [g] is returned with no lifting.  Otherwise only the
    image with the fewest modular factors is split (Cantor-Zassenhaus),
    Hensel-lifted and recombined: the candidates, their trial divisions and
    the quotients stay integral forms of the field's arithmetic
    (``kernels._NumberFieldArith``), and only the factors found are made
    monic.
    """
    n = up_deg(g)
    if n == 1:
        return [g]
    best = None
    good = ((p, gp) for p, gp in images if gp is not None)
    for p, gp in itertools.islice(good, _CERTIFICATE_PRIMES):
        by_degree = _distinct_degree(gp, Zmod(p))
        count = sum(up_deg(h) // d for h, d in by_degree)
        if count == 1:
            return [g]
        if best is None or count < best[0]:
            best = (count, p, gp, by_degree)
    _, p, gp, by_degree = best
    Dp = Zmod(p)
    rng = _cz_rng(gp)
    mods = sorted(irr for h, d in by_degree for irr in _equal_degree(h, d, Dp, rng))
    lifted, read = ring.lift(g, p, mods)
    nf = ring.nf
    return [nf.monic_of(h) for h in _recombine(nf.ints(g)[0], lifted, read, nf.exact_quotient)]


def _zassenhaus_factors(g, ring):
    """[(irreducible factor, multiplicity)] of the monic g over QQ or a
    number field, whose ``_SplitPrimes`` is ``ring``.

    A good prime among the first _SQUAREFREE_TRIES of ``ring.images(g)``
    certifies g squarefree (see ``factor_dense``) and starts the search that
    ``_zassenhaus`` continues; only without one does Yun run
    (``ring.squarefree``).
    """
    images = ring.images(g)
    first = next((pg for pg in itertools.islice(images, _SQUAREFREE_TRIES) if pg[1]), None)
    if first is None:
        parts = [(h, m, ring.images(h)) for h, m in ring.squarefree(g)]
    else:
        parts = [(g, 1, itertools.chain([first], images))]
    return [(h, m) for sqf, m, sqf_images in parts for h in _zassenhaus(sqf, sqf_images, ring)]


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def factor_dense(f, dom):
    """Factor a dense univariate polynomial over a supported field.

    Returns (unit, [(monic irreducible tuple, multiplicity)]) with factors
    sorted by (degree, printed form), so the output order is deterministic.

    Over a number field K of any degree, QQ the one of degree 1, the work
    runs on the monic input at good primes of degree one, (p, beta - rho)
    with p not dividing disc(m~) nor the input's denominator, whose residue
    field is GF(p) (``_SplitPrimes``; over QQ every p >= 5 not dividing
    the denominator, at which the image is squarefree).  A monic factor
    over K has coefficients integral at such a prime (O_K is integrally
    closed), so it reduces mod the prime with its degree, and a good prime
    decides as much as it can:

    * squarefree certificate: a good prime proves the input squarefree, as
      a square factor keeps its degree mod the prime and stays a square
      there; only without one does Yun run, over QQ on the primitive
      integer form with ``ZZ.dense_gcd`` and ``ZZ.dense_divmod``, over a
      larger field with its monic gcds;
    * irreducibility certificate: an image irreducible mod a good prime
      proves the factor irreducible, as a factorization reduces to one mod
      the prime with the same degrees;
    * otherwise Zassenhaus: Hensel lifting of the modular factors of the
      best good prime, then recombination of subsets on integral forms.

    Over GF(p) with p <= _ROOT_SCAN_ORDER the first step is the residue
    scan: the linear factors are the roots found by evaluating at every
    residue, each divided out as often as it divides, so no random draw
    splits them.  Certificate: over a field, a polynomial of degree 2 or 3
    with no root there is irreducible, as a proper factor would be linear;
    so a root-free cofactor of degree <= 3 ends the work, with no
    squarefree split or distinct-degree pass.  Otherwise each squarefree
    part is split by distinct-degree factorization (from degree 2 after the
    scan), then Cantor-Zassenhaus; the squarefree modular images of the
    Zassenhaus steps above start their distinct-degree step with the scan.
    """
    f = up_norm(dom, tuple(f))
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    kind = factoring_kind(dom)
    if kind is None:
        raise UnsupportedDomain(f"factorization over {dom} is not supported")
    if up_deg(f) == 0:
        return f[0], []
    unit = f[-1]
    if kind == "number":
        if dom._split_primes is None:
            dom._split_primes = _SplitPrimes(dom)
        fac = _zassenhaus_factors(dom.dense_monic(f), dom._split_primes)
    else:
        fac = _factor_finite_field(f, dom)
    fac.sort(key=lambda fm: (up_deg(fm[0]), fm[0]))
    return unit, fac


def factoring_kind(dom):
    """"finite" for GF(q), "number" for QQ or a number field over QQ, None
    for any other domain: the fields that ``factor_dense`` factors over."""
    if isinstance(dom, RationalField) or isinstance(dom, ExtField) and dom.base == QQ:
        return "number"
    while isinstance(dom, ExtField):
        dom = dom.base
    return "finite" if isinstance(dom, Zmod) and dom.is_field else None


def _is_irreducible_dense(f, dom):
    if up_deg(f) == 1:
        return True
    _, fac = factor_dense(f, dom)
    return len(fac) == 1 and fac[0][1] == 1


class UniFactorization:
    """unit * prod(factor^mult) == input, factors monic irreducible."""

    def __init__(self, unit, factors, poly_ring):
        self.unit = unit
        self.factors = list(factors)  # [(Poly, mult)]
        self.ring = poly_ring

    def __repr__(self):
        ps = ", ".join(f"({f})^{m}" for f, m in self.factors)
        return f"UniFactorization(unit={self.ring.domain.format(self.unit)}, {ps})"


def poly_to_dense(f, dom=None, var=None):
    """Dense coefficients of f in ``var``, mapped into ``dom``.

    ``dom`` defaults to the domain of f.  Without ``var`` the ring of f must
    be univariate; with it, f must involve no other variable.
    """
    ring = f.ring
    var = _dense_var(ring, var)
    src = ring.domain
    dom = src if dom is None else dom
    i = ring._index[var]
    dense = [dom.zero()] * (f.degree_in(var) + 1)
    for exps, c in f.terms:
        dense[exps[i]] = c if dom is src else dom.coerce(src, c)
    return up_norm(dom, tuple(dense))


def dense_to_poly(ring, coeffs, var=None):
    """sum(coeffs[k] * var^k) in ``ring``: the inverse of ``poly_to_dense``."""
    unit = ring.gen(_dense_var(ring, var)).leading_monomial()
    return ring.from_dict({tuple(k * a for a in unit): c for k, c in enumerate(coeffs)})


def _dense_var(ring, var):
    if var is not None:
        return var
    if len(ring.names) != 1:
        raise UnsupportedDomain("expected a univariate polynomial")
    return ring.names[0]


def factor_univariate(f):
    """Complete irreducible factorization of a univariate polynomial.

    The coefficient domain must be QQ, a finite field, or a number field
    over QQ; factors come back monic in a deterministic order.
    """
    dense = poly_to_dense(f)
    if not dense:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    unit, fac = factor_dense(dense, f.ring.domain)
    return UniFactorization(
        unit, [(dense_to_poly(f.ring, c), m) for c, m in fac], f.ring
    )


def is_irreducible(f):
    """True iff a nonconstant univariate polynomial is irreducible."""
    dense = poly_to_dense(f)
    if up_deg(dense) < 1:
        raise ConstantPolynomial("irreducibility needs a nonconstant input")
    return _is_irreducible_dense(dense, f.ring.domain)


def domain_units(dom):
    """Invertible elements of a finite domain, paired with their inverses."""
    return [(a, dom.inv(a)) for a in dom.elements() if dom.is_unit(a)]
