"""Seeded operation decks for the three benchmark workloads.

A deck is a list of rounds; a round is a list of operations with a fixed
template of operation kinds, so every round costs about the same. The heavy
operations of each template are fixed inputs (standard Gröbner systems, the
``ZZ[T]`` atlas, an anchor ring for the sheaf engine), so the tail percentile
lands on the same work from seed to seed; the seed chooses the many light
operations and every parameter that does not set the cost class of an
operation.

This module imports nothing from the package: the generator must not
depend on the code it measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd, isqrt

WORKLOADS = ("atlas", "groebner", "sheaf")

# A run makes PASSES passes over its deck, each in a fresh process, so each
# operation is timed that many times at moments seconds apart. The deck
# holds as many rounds as fit in the run at these per-round costs (mean wall
# time of a round in a fresh process, Python 3.11, one x86-64 core),
# measured when the benchmark was defined; a pass holds at least 100
# operations so that ten or more lie above the 90th percentile.
PASSES = {"atlas": 10, "groebner": 6, "sheaf": 10}
ROUND_SECONDS = {"atlas": 0.6, "groebner": 2.75, "sheaf": 0.45}

GB_PRIME = 32003


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``kind`` selects the oracle; ``text`` is the statement sent through the
    statement language, or a readable description of a library call;
    ``params`` holds what the oracle and the library call need.
    """

    kind: str
    text: str
    params: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def is_statement(self):
        return self.kind not in ("qi_factor", "kernel")


def _rng(workload, seed):
    # Seeding with a string goes through SHA-512, so the deck does not
    # depend on PYTHONHASHSEED.
    return random.Random(f"scheme-explorer-bench:{workload}:{seed}")


def deck_rounds(workload, seconds):
    """Rounds in a deck so that its passes take about ``seconds``."""
    return max(1, round(seconds / (PASSES[workload] * ROUND_SECONDS[workload])))


def make_deck(workload, seed, rounds):
    """The deck of ``workload`` for ``seed``: ``rounds`` rounds of Ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(workload, seed)
    build = {"atlas": _atlas_round, "groebner": _groebner_round, "sheaf": _sheaf_round}
    return [build[workload](rng) for _ in range(rounds)]


# ---------------------------------------------------------------------------
# polynomial text
# ---------------------------------------------------------------------------

def poly_text(coeffs, var):
    """Dense integer coefficients (low to high) as statement-language text."""
    terms = [((k,), c) for k, c in reversed(list(enumerate(coeffs))) if c]
    return monomial_poly_text(terms, [var])


def monomial_poly_text(terms, names):
    """Sparse integer polynomial [(exponent tuple, nonzero coeff)] as text."""
    parts = []
    for exps, c in terms:
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts) or "0"


def primes_upto(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, isqrt(p) + 1))]


# ---------------------------------------------------------------------------
# atlas: Spec ZZ[T], closures, fibers, specialization tables, Q(i) factoring
# ---------------------------------------------------------------------------

def _irreducible_over_qq(coeffs):
    """Degree 2 or 3 integer polynomial without a rational root (and, in
    degree 2, with a non-square discriminant)."""
    d = len(coeffs) - 1
    if d == 2:
        c, b, a = coeffs
        disc = b * b - 4 * a * c
        return disc < 0 or isqrt(disc) ** 2 != disc
    # degree 3: irreducible iff no rational root p/q, p | c0, q | c3
    c0, c3 = coeffs[0], coeffs[-1]
    if c0 == 0:
        return False
    for p in range(1, abs(c0) + 1):
        if c0 % p:
            continue
        for q in range(1, abs(c3) + 1):
            if c3 % q:
                continue
            for s in (p, -p):
                # q^3 f(s/q) == 0 with integer arithmetic
                if sum(c * s ** k * q ** (d - k) for k, c in enumerate(coeffs)) == 0:
                    return False
    return True


def _random_irreducible(rng, d):
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(d)] + [rng.randint(1, 9)]
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        if g == 1 and _irreducible_over_qq(coeffs):
            return coeffs


def _nonresidue(q, rng):
    return rng.choice([a for a in range(2, q) if pow(a, (q - 1) // 2, q) == q - 1])


def _gauss_mul(a, b):
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, (ar, ai) in enumerate(a):
        for j, (br, bi) in enumerate(b):
            r, m = out[i + j]
            out[i + j] = (r + ar * br - ai * bi, m + ar * bi + ai * br)
    return out


def _gaussian_linear(rng):
    return [(rng.randint(-3, 3), rng.randint(-3, 3)), (1, 0)]


def _rational_quadratic(rng):
    """Monic x^2 + b x + c: irreducible over Q(i) or split by it."""
    return [(rng.choice((1, 2, 3, 4, 5, -2, -3)), 0), (rng.randint(-2, 2), 0), (1, 0)]


def _qi_poly_text(coeffs):
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        re, im = coeffs[k]
        if re == 0 and im == 0:
            continue
        c = f"({re}{'+' if im >= 0 else '-'}{abs(im)}i)"
        terms.append(c + ("" if k == 0 else f"*X^{k}"))
    return " + ".join(terms)


# Per round: (degree of P, --fibers N) of the closures, (p, --bound) of the
# fibers, degrees of the specialized polynomials, and the factor degrees of
# the Q(i) products. The seed picks the polynomials and primes.
_CLOSURES = ((2, 20), (2, 28), (2, 36), (2, 50), (3, 24), (3, 32), (3, 40), (3, 46))
_FIBERS = ((2, 3), (3, 3), (5, 2), (7, 2))
_SPECIALIZE_DEGREES = (2, 3, 3, 4)
_QI_SHAPES = ((1, 1, 2), (1, 1, 1, 1), (2, 2))


def _atlas_round(rng):
    ops = []
    for b in (4, 3, 3):
        ops.append(Op("describe", f"spec describe ZZ[T] --bound {b};", {"bound": b}))
    for d, n in _CLOSURES:
        coeffs = _random_irreducible(rng, d)
        text = (
            f'spec closure --ring "ZZ[T]" --point "eta,({poly_text(coeffs, "T")})"'
            f" --fibers {n};"
        )
        ops.append(Op("closure", text, {"coeffs": coeffs, "fibers": n}))
    for p, bound in _FIBERS:
        text = f'fiber --map "ZZ->ZZ[T]" --at p={p} --bound {bound};'
        ops.append(Op("fiber", text, {"p": p, "bound": bound}))
    for d in _SPECIALIZE_DEGREES:
        coeffs = [rng.randint(-9, 9) for _ in range(d)] + [rng.choice((1, 2, 3, 6, -1, -2))]
        primes = rng.sample(primes_upto(31), 2)
        q = rng.choice((3, 5, 7, 11, 13))
        c = q - _nonresidue(q, rng)  # t^2 + c = t^2 - nonresidue
        text = (
            f"specialize ZZ[X]/({poly_text(coeffs, 'X')}) over QQ, "
            f"GF({primes[0]}), GF({primes[1]}), GF({q * q},t^2+{c});"
        )
        domains = [("QQ", 0, 1), ("GF", primes[0], 1), ("GF", primes[1], 1), ("GF", q, 2)]
        ops.append(Op("specialize", text, {"coeffs": coeffs, "domains": domains}))
    for shape in _QI_SHAPES:
        factors = [_gaussian_linear(rng) if d == 1 else _rational_quadratic(rng) for d in shape]
        f = [(1, 0)]
        for g in factors:
            f = _gauss_mul(f, g)
        text = f"arith.factor_univariate({_qi_poly_text(f)} over QQ[i]/(i^2+1))"
        ops.append(Op("qi_factor", text, {"coeffs": f, "factors": factors}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# groebner: standard systems, small seeded ideals, normalization, charts,
# elimination kernels
# ---------------------------------------------------------------------------

def katsura(n):
    """katsura-n: n+1 variables x0..xn."""
    names = [f"x{i}" for i in range(n + 1)]
    polys = []
    for m in range(n):
        terms = {}
        for l in range(-n, n + 1):
            a, b = abs(l), abs(m - l)
            if b <= n:
                e = [0] * (n + 1)
                e[a] += 1
                e[b] += 1
                terms[tuple(e)] = terms.get(tuple(e), 0) + 1
        e = [0] * (n + 1)
        e[m] = 1
        terms[tuple(e)] = terms.get(tuple(e), 0) - 1
        polys.append(sorted(terms.items(), reverse=True))
    lin = {}
    for i in range(n + 1):
        e = [0] * (n + 1)
        e[i] = 1
        lin[tuple(e)] = 1 if i == 0 else 2
    lin[(0,) * (n + 1)] = -1
    polys.append(sorted(lin.items(), reverse=True))
    return names, polys


def cyclic(n):
    """cyclic-n: n variables x0..x(n-1)."""
    names = [f"x{i}" for i in range(n)]
    polys = []
    for d in range(1, n):
        terms = {}
        for i in range(n):
            e = [0] * n
            for j in range(d):
                e[(i + j) % n] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + 1
        polys.append(sorted(terms.items(), reverse=True))
    polys.append([((1,) * n, 1), ((0,) * n, -1)])
    return names, polys


STANDARD_SYSTEMS = {
    "katsura4": lambda: katsura(4),
    "katsura5": lambda: katsura(5),
    "cyclic5": lambda: cyclic(5),
}


def field_text(p):
    return "QQ" if p is None else f"GF({p})"


def _ideal_op(names, polys, p, extra=None):
    gens = ", ".join(monomial_poly_text(t, names) for t in polys)
    text = f"ideal I = ({gens}) in {field_text(p)}[{','.join(names)}];"
    return Op("ideal", text, {"names": names, "polys": polys, "p": p, **(extra or {})})


def _random_support(rng, nvars, max_deg, nterms):
    """Distinct exponent tuples, at least one of positive degree."""
    while True:
        support = set()
        while len(support) < nterms:
            e = [0] * nvars
            for _ in range(rng.randint(0, max_deg)):
                e[rng.randrange(nvars)] += 1
            support.add(tuple(e))
        if any(sum(e) for e in support):
            return sorted(support, reverse=True)


def _small_ideal_shapes():
    """(variables, generator supports, field) of the small ideals of a round.

    The shapes are the same for every seed, so a round costs about the same
    whatever the seed; the seed draws the coefficients."""
    rng = random.Random("scheme-explorer-bench:groebner-shapes")
    shapes = []
    for i in range(40):
        nvars = rng.choice((2, 3))
        max_deg = 3 if nvars == 2 else 2
        gens = [_random_support(rng, nvars, max_deg, rng.randint(2, 3))
                for _ in range(rng.choice((2, 3)))]
        shapes.append((["x", "y", "z"][:nvars], gens, GB_PRIME if i % 2 == 0 else None))
    return shapes


_SMALL_IDEALS = _small_ideal_shapes()
_NORMALIZE_SHAPES = (
    (["X", "Y"], [(2, 1), (1, 0), (0, 0)], None),
    (["X", "Y", "Z"], [(2, 1, 0), (0, 0, 3), (1, 0, 1), (0, 0, 0)], None),
    (["U", "V", "W"], [(2, 1, 0), (0, 0, 3), (1, 0, 1), (0, 0, 0)], 5),
)
_CHART_SHAPES = (
    [[(2, 0, 0), (1, 0, 1), (0, 1, 1)]],
    [[(1, 1, 0), (0, 2, 0), (0, 0, 2)]],
    [[(1, 0, 0, 1), (0, 1, 1, 0)], [(0, 2, 0, 0), (1, 0, 1, 0)]],
)
_KERNELS = (("segre", (1, 2), None), ("segre", (1, 2), GB_PRIME), ("segre", (1, 1), 101),
            ("veronese", (1,), None), ("conic", (), GB_PRIME))


# The fixed tail of every groebner round. katsura-4 over five primes makes
# a block of equal-cost operations (ranks 7-16 from the top of a two-round
# deck) with the 90th percentile in its middle.
STANDARD_OPS = (
    ("cyclic5", GB_PRIME), ("katsura5", GB_PRIME), ("katsura4", None),
    ("katsura4", GB_PRIME), ("katsura4", 32719), ("katsura4", 32749),
    ("katsura4", 65519), ("katsura4", 65521),
)


def _coefficients(rng, support, choices=(-4, -3, -2, -1, 1, 2, 3, 4)):
    return [(e, rng.choice(choices)) for e in support]


def _groebner_round(rng):
    ops = []
    for key, p in STANDARD_OPS:
        names, polys = STANDARD_SYSTEMS[key]()
        ops.append(_ideal_op(names, polys, p, {"system": key}))
    for names, gens, p in _SMALL_IDEALS:
        ops.append(_ideal_op(names, [_coefficients(rng, g) for g in gens], p))
    for names, support, p in _NORMALIZE_SHAPES:
        poly = _coefficients(rng, support)
        text = (
            f'normalize --ring "{field_text(p)}[{",".join(names)}]" '
            f'--ideal "({monomial_poly_text(poly, names)})";'
        )
        ops.append(Op("normalize", text, {"names": names, "poly": poly, "p": p}))
    for supports in _CHART_SHAPES:
        names = [f"T{i}" for i in range(len(supports[0][0]))]
        rels = [_coefficients(rng, sup, (-3, -2, -1, 1, 2, 3)) for sup in supports]
        graded = f"QQ[{','.join(names)}]/({', '.join(monomial_poly_text(r, names) for r in rels)})"
        ops.append(Op("charts", f'proj charts --graded "{graded}";', {"names": names, "rels": rels}))
    for which, args, p in _KERNELS:
        text = f"proj.{which}_kernel({field_text(p)}, {', '.join(map(str, args))})"
        ops.append(Op("kernel", text, {"which": which, "args": list(args), "p": p}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# sheaf: structure sheaves on spec(ZZ/n) and spec(GF(p)[e]/(r))
# ---------------------------------------------------------------------------

def prime_divisors(n):
    return [p for p in primes_upto(n) if n % p == 0]


# n <= 36 with two or three distinct prime factors: every round has one
# operation on each, so rounds cost the same whatever the seed.
_LIGHT_MODULI = [n for n in range(6, 37) if 2 <= len(prime_divisors(n)) <= 3]
# Every round checks this ring twice. With the quotient-ring operation above
# them, the checks fill the ranks where the 90th percentile falls.
_ANCHOR_MODULUS = 42


def _sheaf_round(rng):
    ops = [_zmod_op(rng, _ANCHOR_MODULUS, "check") for _ in range(2)]
    ops.append(_quotient_op(rng))
    actions = ("check", "sections", "twist")
    ops.extend(_zmod_op(rng, n, actions[j % 3]) for j, n in enumerate(_LIGHT_MODULI))
    rng.shuffle(ops)
    return ops


def _zmod_op(rng, n, action):
    space = f'"spec(ZZ/{n})"'
    if action == "check":
        return Op("sheaf_check", f"sheaf check --space {space};", {"n": n})
    if action == "sections":
        f = rng.randrange(1, n)
        return Op("sheaf_sections", f"sheaf sections --space {space} --at {f};",
                  {"n": n, "f": f})
    primes = prime_divisors(n)
    cocycle = rng.choice((1, -1))
    if rng.random() < 0.5:
        a, b = rng.sample(primes, 2)
        cover = f"D({a}),D({b})"
    else:
        cover = f"X,D({rng.randrange(1, n)})"
    text = f'sheaf twist --space {space} --cover "{cover}" --cocycle {cocycle};'
    return Op("sheaf_twist", text, {"n": n, "cover": cover, "cocycle": cocycle})


def _quotient_op(rng):
    """An operation on spec(GF(5)[e]/(r)) for a seeded monic quadratic r."""
    p = 5
    rel = [rng.randrange(p), rng.randrange(p), 1]
    space = f'"spec(GF({p})[e]/({poly_text(rel, "e")}))"'
    if rng.random() < 0.5:
        return Op("sheaf_check", f"sheaf check --space {space};", {"p": p, "rel": rel})
    cocycle = rng.choice((1, -1))
    text = f'sheaf twist --space {space} --cover "X,X" --cocycle {cocycle};'
    return Op("sheaf_twist", text, {"p": p, "rel": rel, "cover": "X,X", "cocycle": cocycle})
