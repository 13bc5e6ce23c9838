"""The tuple-key merge kernel that preceded packed monomials, kept as a
reference for the packed one, and the packed kernel with a ``Domain`` call
per coefficient operation, kept as a reference for its int update."""

from bisect import bisect_left
from operator import add, itemgetter

from scheme_explorer.errors import ExponentOverflow
from scheme_explorer.multipoly import LEX, BlockOrder


def tuple_key(order):
    """The tuple sort keys that preceded the packed ones: grevlex compares
    the degree and then the negated exponents from the last, lex the
    exponents, a block order the keys of its blocks in turn."""
    if isinstance(order, BlockOrder):
        inner = [tuple_key(o) for o in order.inner]

        def key(exps):
            parts, pos = [], 0
            for size, k in zip(order.sizes, inner):
                parts.append(k(tuple(exps[pos:pos + size])))
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


def generic_sub_shifted(rem, tail, kshift, eshift, c, dom, pk):
    """``multipoly._sub_shifted`` with ``dom.mul``, ``dom.sub`` and
    ``dom.is_zero`` for every term, whatever the domain."""
    keys, exps, coeffs = rem
    hi = len(keys)
    for k, e, gc in tail:
        k += kshift
        i = bisect_left(keys, k, 0, hi)
        p = dom.mul(c, gc)
        if i < hi and keys[i] == k:
            v = dom.sub(coeffs[i], p)
            if dom.is_zero(v):
                del keys[i], exps[i], coeffs[i]
            else:
                coeffs[i] = v
        elif not dom.is_zero(p):
            e += eshift
            if e & pk.guard:
                raise ExponentOverflow("a product has an exponent of 2^31 or more")
            keys.insert(i, k)
            exps.insert(i, e)
            coeffs.insert(i, dom.neg(p))
        hi = i
