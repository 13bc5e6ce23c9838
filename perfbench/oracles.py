"""Independent oracles for every benchmark operation.

No check here uses an answer of scheme-explorer as its reference. The
references are closed forms (Gauss's count of monic irreducibles over F_p,
the discriminant test over QQ, |Gamma(U)| = prod p^v_p(n) on spec(ZZ/n)),
brute force (roots mod p), and sympy (factorizations, reduced Gröbner
bases). Reduced bases of the fixed standard systems are precomputed by
``make_data.py`` into ``data/standard_bases.json``.

``check(op, answer)`` returns None when the answer is right and a short
reason when it is not. ``answer`` is the text the operation produced: the
JSON report of a statement, or the JSON form of a library call's result.
"""

from __future__ import annotations

import json
import re
import warnings
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt, prod
from pathlib import Path

import sympy as sp

from workloads import STANDARD_OPS, STANDARD_SYSTEMS, prime_divisors, primes_upto, field_text

# sympy warns about ordered comparisons of modular integers when it sorts
# factors over GF(p); the factors are still right.
warnings.filterwarnings("ignore", category=DeprecationWarning, module="sympy")
warnings.filterwarnings("ignore", message=".*modular integers.*")

DATA = Path(__file__).resolve().parent / "data" / "standard_bases.json"


class OracleError(Exception):
    """The answer disagrees with the oracle."""


def check(op, answer):
    """None if ``answer`` is right for ``op``, else the reason it is not."""
    try:
        if op.is_statement:
            data = _statement_data(answer)
        else:
            data = json.loads(answer)
        _CHECKS[op.kind](op.params, data)
    except OracleError as err:
        return f"oracle: {err}"
    return None


def _statement_data(answer):
    report = json.loads(answer)
    results = report.get("results", [])
    if len(results) != 1:
        raise OracleError(f"expected one result, got {len(results)}")
    rec = results[0]
    if not rec["ok"]:
        err = rec["error"]
        raise OracleError(f"SchemeError[{err['code']}]: {err['message']}")
    return rec["data"]


def _expect(cond, message):
    if not cond:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# polynomial helpers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _symbols(names):
    return tuple(sp.Symbol(n) for n in names)


def _parse_terms(text, names):
    """A printed polynomial ('3*x^2*y - 2/3*x + 1') as {exponents: Fraction}."""
    index = {n: i for i, n in enumerate(names)}
    out = {}
    for term in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        sign = -1 if term[0] == "-" else 1
        coeff = Fraction(sign)
        exps = [0] * len(names)
        for factor in term.lstrip("+-").split("*"):
            name, _, power = factor.partition("^")
            if name in index:
                exps[index[name]] += int(power) if power else 1
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
    return {e: c for e, c in out.items() if c}


def _int_coeffs(text, var):
    """Dense integer coefficients (low to high) of a printed univariate poly."""
    terms = _parse_terms(text, (var,))
    deg = max(e[0] for e in terms) if terms else 0
    coeffs = [terms.get((k,), 0) for k in range(deg + 1)]
    if any(c.denominator != 1 for c in coeffs):
        raise OracleError(f"{text} has non-integer coefficients")
    return [int(c) for c in coeffs]


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _canonical(terms, p):
    """Monic form of {exps: coefficient} (grevlex lead), reduced mod p."""
    out = {}
    for exps, c in terms:
        c = Fraction(int(c.p), int(c.q)) if hasattr(c, "q") else Fraction(c)
        if p is not None:
            c = c.numerator * pow(c.denominator, -1, p) % p
        if c:
            out[tuple(exps)] = c
    if not out:
        return ()
    lead = out[max(out, key=_grevlex_key)]
    inv = pow(lead, -1, p) if p is not None else 1 / lead
    return tuple(sorted(
        (e, (c * inv) % p if p is not None else c * inv) for e, c in out.items()
    ))


def _canonical_texts(texts, names, p):
    return frozenset(_canonical(_parse_terms(t, names).items(), p) for t in texts)


def _reduced_basis(polys, names, p):
    """Reduced grevlex Gröbner basis from sympy, in canonical form."""
    gens = _symbols(tuple(names))
    exprs = [
        sum(sp.Rational(Fraction(c).numerator, Fraction(c).denominator)
            * sp.Mul(*[g ** e for g, e in zip(gens, exps)])
            for exps, c in poly)
        for poly in polys
    ]
    opts = {"modulus": p} if p is not None else {"domain": "QQ"}
    basis = sp.groebner(exprs, *gens, order="grevlex", **opts)
    return frozenset(
        _canonical(sp.Poly(g, *gens, domain="QQ").terms(), p) for g in basis.exprs
    )


@lru_cache(maxsize=None)
def _standard_bases():
    with open(DATA, encoding="utf-8") as handle:
        raw = json.load(handle)
    out = {}
    for key, entry in raw.items():
        p = entry["p"]
        out[key] = frozenset(
            tuple(sorted(
                (tuple(e), Fraction(c) if p is None else int(c)) for e, c in poly
            ))
            for poly in entry["basis"]
        )
    return out


def standard_key(system, p):
    return f"{system}/{'QQ' if p is None else p}"


def _factor_pattern(coeffs, p):
    """Sorted (degree, multiplicity) of the factorization of an integer
    polynomial over QQ (p is None) or GF(p); None if it vanishes."""
    if p is not None:
        coeffs = [c % p for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        return None
    if len(coeffs) == 1:
        return []
    x = sp.Symbol("x")
    expr = sum(c * x ** k for k, c in enumerate(coeffs))
    opts = {"modulus": p} if p is not None else {}
    _, factors = sp.factor_list(expr, x, **opts)
    return sorted((sp.degree(f, x), m) for f, m in factors)


def _roots_mod_p(coeffs, p):
    """({root: multiplicity}, degree of what is left) for an integer
    polynomial over GF(p), by brute force; None if it vanishes mod p."""
    f = [c % p for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    if not f:
        return None
    roots = {}
    for r in range(p):
        while len(f) > 1 and sum(c * pow(r, k, p) for k, c in enumerate(f)) % p == 0:
            # synthetic division by (x - r)
            q = [0] * (len(f) - 1)
            acc = 0
            for k in range(len(f) - 1, 0, -1):
                acc = (acc * r + f[k]) % p
                q[k - 1] = acc
            f = q
            roots[r] = roots.get(r, 0) + 1
    return roots, len(f) - 1


def _pattern_mod_p(coeffs, p):
    """Sorted (degree, multiplicity) of the factorization over GF(p) of an
    integer polynomial of degree <= 3; None if it vanishes mod p. Once the
    roots are divided out, what is left has degree 0, 2 or 3 and no root,
    so it is irreducible."""
    if len(coeffs) > 4:
        raise ValueError("brute-force pattern needs degree <= 3")
    found = _roots_mod_p(coeffs, p)
    if found is None:
        return None
    roots, rest = found
    return sorted([(1, m) for m in roots.values()] + ([(rest, 1)] if rest else []))


def _is_monic_irreducible_mod_p(coeffs, p):
    return coeffs[-1] % p == 1 and _pattern_mod_p(list(coeffs), p) == [(len(coeffs) - 1, 1)]


def _gauss_count(p, d):
    """Monic irreducible polynomials of degree d over F_p."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _mobius(e) * p ** (d // e)
    return total // d


def _mobius(n):
    out = 1
    for q in prime_divisors(n):
        if n % (q * q) == 0:
            return 0
        out = -out
    return out


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------

def _check_describe(params, data):
    b = params["bound"]
    primes = primes_upto(b)
    generic = 0
    xi = []
    closed = {p: [] for p in primes}
    height_one = set()
    for pt in data["points"]:
        label, gens = pt["description"], pt["ideal_generators"]
        if label == "xi_eta":
            generic += 1
        elif label.startswith("xi_"):
            xi.append(int(gens[0]))
        elif label.startswith("y_(eta,"):
            coeffs = tuple(_int_coeffs(gens[0], "T"))
            _expect(coeffs not in height_one, f"duplicate point {label}")
            height_one.add(coeffs)
        elif label.startswith("y_("):
            p = int(gens[0])
            _expect(p in closed, f"closed point over unexpected prime {p}")
            closed[p].append(tuple(c % p for c in _int_coeffs(gens[1], "T")))
        else:
            raise OracleError(f"unexpected point {label}")
    _expect(generic == 1, "expected exactly one generic point")
    _expect(sorted(xi) == primes, f"fiber generic points {sorted(xi)} != {primes}")
    for p, polys in closed.items():
        _expect(len(set(polys)) == len(polys), f"duplicate closed point over {p}")
        want = _gauss_count(p, 1) + _gauss_count(p, 2)
        _expect(len(polys) == want, f"{len(polys)} closed points over {p}, Gauss says {want}")
        for c in polys:
            _expect(_is_monic_irreducible_mod_p(c, p), f"{c} is not monic irreducible mod {p}")
    _expect(height_one == _height_one_points(b),
            "height-one primes differ from the content/discriminant count")


@lru_cache(maxsize=None)
def _height_one_points(b):
    """Content-one integer polynomials of degree 1 or 2 with coefficients in
    [-b, b] and positive lead that are irreducible over QQ."""
    out = set()
    rng = range(-b, b + 1)
    for c0 in rng:
        for c1 in range(1, b + 1):
            if gcd(c0, c1) == 1:
                out.add((c0, c1))
    for c0 in rng:
        for c1 in rng:
            for c2 in range(1, b + 1):
                if gcd(gcd(c0, c1), c2) != 1:
                    continue
                disc = c1 * c1 - 4 * c0 * c2
                if disc < 0 or isqrt(disc) ** 2 != disc:
                    out.add((c0, c1, c2))
    return frozenset(out)


def _label_poly(label):
    """'y_(p,G)' -> G."""
    return label[label.index(",") + 1:-1]


def _check_closure(params, data):
    coeffs, n = params["coeffs"], params["fibers"]
    table = data["fibers"]
    _expect([row["p"] for row in table] == primes_upto(n), "wrong list of primes")
    for row in table:
        p = row["p"]
        roots, rest = _roots_mod_p(coeffs, p)
        got_roots = {}
        got_rest = []
        for pt in row["points"]:
            g = [c % p for c in _int_coeffs(_label_poly(pt["point"]), "T")]
            if len(g) == 2:
                got_roots[(-g[0] * pow(g[1], -1, p)) % p] = pt["multiplicity"]
            else:
                got_rest.append((len(g) - 1, pt["multiplicity"]))
        _expect(got_roots == roots, f"roots mod {p}: {got_roots} != {roots}")
        _expect(got_rest == ([(rest, 1)] if rest else []),
                f"non-linear part mod {p}: {got_rest}, expected degree {rest}")


def _check_fiber(params, data):
    p, bound = params["p"], params["bound"]
    _expect(data["fiber_ring"] == f"GF({p})[T]", f"fiber ring {data['fiber_ring']}")
    points = data["points"]
    _expect(points[0]["description"] == "eta", "missing the generic point of the fiber")
    seen = set()
    counts = {}
    for pt in points[1:]:
        g = tuple(c % p for c in _int_coeffs(pt["ideal_generators"][0], "T"))
        _expect(g not in seen, f"duplicate fiber point {g}")
        seen.add(g)
        _expect(_is_monic_irreducible_mod_p(g, p), f"{g} is not monic irreducible mod {p}")
        counts[len(g) - 1] = counts.get(len(g) - 1, 0) + 1
    want = {d: _gauss_count(p, d) for d in range(1, bound + 1)}
    _expect(counts == want, f"points per degree {counts} != Gauss {want}")


def _verdict(pattern):
    if pattern is None:
        return {"kind": "polynomial-ring"}
    if not pattern:
        return {"kind": "zero-ring"}
    if len(pattern) == 1 and pattern[0][1] == 1:
        return {"kind": "field", "degree": pattern[0][0]}
    if all(m == 1 for _, m in pattern):
        return {"kind": "product-of-fields", "count": len(pattern)}
    if len(pattern) == 1:
        return {"kind": "local-non-reduced", "nilpotent_order": pattern[0][1],
                "radical_degree": pattern[0][0]}
    return {"kind": "non-reduced", "factors": len(pattern)}


def _check_specialize(params, data):
    coeffs = params["coeffs"]
    table = data["table"]
    _expect(len(table) == len(params["domains"]), "wrong number of rows")
    for row, (kind, p, r) in zip(table, params["domains"]):
        pattern = _factor_pattern(coeffs, None if kind == "QQ" else p)
        if r == 2 and pattern:
            # a degree-d irreducible over F_p splits over F_{p^2} into
            # gcd(d, 2) factors of degree d / gcd(d, 2)
            split = []
            for d, m in pattern:
                k = gcd(d, 2)
                split.extend([(d // k, m)] * k)
            pattern = sorted(split)
        want = _verdict(pattern)
        _expect(row["verdict"] == want, f"over {row['over']}: {row['verdict']} != {want}")


def _rational_sqrt(q):
    if q < 0:
        return None
    num, den = isqrt(q.numerator), isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _gaussian_sqrt(z):
    """A square root of z = (u, v) = u + v*i in Q(i), or None."""
    u, v = z
    norm = _rational_sqrt(u * u + v * v)
    if norm is None:
        return None
    a = _rational_sqrt((u + norm) / 2)
    if a is None:
        return None
    if a:
        b = v / (2 * a)
    else:
        b = _rational_sqrt(-u)
        if b is None:
            return None
    return (a, b) if (a * a - b * b, 2 * a * b) == (u, v) else None


def _qi_expected(factors):
    """Monic irreducible factors over Q(i) of the product of the generating
    factors: linear ones as they are, and each rational monic quadratic
    x^2 + b x + c split by the square root of its discriminant in Q(i)
    when that exists."""
    out = Counter()
    for g in factors:
        g = tuple((Fraction(a), Fraction(b)) for a, b in g)
        if len(g) == 3:
            (c, _), (b, _) = g[0], g[1]
            root = _gaussian_sqrt((b * b - 4 * c, Fraction(0)))
            if root is not None:
                for sign in (1, -1):
                    # x - r with r = (-b + sign * root) / 2
                    r = ((-b + sign * root[0]) / 2, sign * root[1] / 2)
                    out[((-r[0], -r[1]), (Fraction(1), Fraction(0)))] += 1
                continue
        out[g] += 1
    return sorted(out.items())


def _check_qi_factor(params, data):
    got = sorted(
        (tuple((Fraction(a), Fraction(b)) for a, b in coeffs), m)
        for coeffs, m in data["factors"]
    )
    _expect(got == _qi_expected(params["factors"]),
            "factors over Q(i) differ from the constructed factorization")
    lead = params["coeffs"][-1]
    _expect(tuple(Fraction(c) for c in data["unit"]) == tuple(map(Fraction, lead)),
            "unit is not the leading coefficient")


# ---------------------------------------------------------------------------
# groebner
# ---------------------------------------------------------------------------

def _check_ideal(params, data):
    names, p = params["names"], params["p"]
    _expect(data["ambient"] == f"{field_text(p)}[{','.join(names)}]",
            f"ambient {data['ambient']}")
    got = _canonical_texts(data["groebner_basis"], names, p)
    if "system" in params:
        want = _standard_bases()[standard_key(params["system"], p)]
    else:
        want = _reduced_basis(params["polys"], names, p)
    _expect(got == want, "reduced basis differs from sympy's")


def _mod(terms, p):
    """{exponents: coefficient} with coefficients reduced mod p (if p)."""
    if p is None:
        return {e: Fraction(c) for e, c in terms.items() if c}
    out = {}
    for e, c in terms.items():
        c = Fraction(c)
        c = c.numerator * pow(c.denominator, -1, p) % p
        if c:
            out[e] = c
    return out


def _check_normalize(params, data):
    """One Noether step on a hypersurface f in X_1..X_n: Z_i = X_i + X_1^r_i
    (i >= 2) must make the chosen multiple P of f monic in X_1 up to a
    unit alpha, and the certificate must be (P(X_1, Z - X_1^r) - Z_1) / alpha
    in k[X@, Z@1..Z@n]. The substitution is redone in sympy."""
    names, p = params["names"], params["p"]
    n = len(names)
    _expect(data["d"] == n - 1, f"dimension {data['d']} != {n - 1}")
    _expect(data["verified"] is True, "certificate not verified")
    _expect(len(data["steps"]) == 1, "a hypersurface needs one normalization step")
    step = data["steps"][0]
    _expect(step["variables"] == names, f"step variables {step['variables']}")
    r = step["r"]
    _expect(len(r) == n - 1 and all(isinstance(e, int) and e > 0 for e in r),
            f"bad exponents {r}")
    chosen = _mod(_parse_terms(step["chosen"], names), p)
    f = _mod(dict((tuple(e), c) for e, c in params["poly"]), p)
    _expect(_canonical(chosen.items(), p) == _canonical(f.items(), p),
            "chosen relation is not a unit multiple of the input")
    _expect(len(data["y"]) == n - 1, "wrong number of parameters")
    for i, (text, e) in enumerate(zip(data["y"], r), start=1):
        want = {tuple(int(k == i) for k in range(n)): Fraction(1),
                tuple(e if k == 0 else 0 for k in range(n)): Fraction(1)}
        _expect(_mod(_parse_terms(text, names), p) == want,
                f"parameter {text} is not {names[i]} + {names[0]}^{e}")

    x1, *rest = _symbols(tuple(names))
    zs = _symbols(tuple(f"Z{i}" for i in range(2, n + 1)))
    expr = sum(_sympy_number(c) * x1 ** e[0] * sp.Mul(*[g ** k for g, k in zip(rest, e[1:])])
               for e, c in chosen.items())
    moved = sp.Poly(
        sp.expand(expr.subs({g: z - x1 ** k for g, z, k in zip(rest, zs, r)},
                            simultaneous=True)),
        x1, *zs, **({"modulus": p} if p is not None else {"domain": "QQ"}))
    moved = _mod({e: _fraction(c) for e, c in moved.terms()}, p)
    top = max(e[0] for e in moved)
    lead = [e for e in moved if e[0] == top]
    _expect(lead == [(top,) + (0,) * (n - 1)],
            f"substitution does not make the relation monic in {names[0]}")
    alpha = moved[lead[0]]
    inv = Fraction(1) / alpha if p is None else pow(int(alpha), -1, p)
    want = {(e[0], 0) + e[1:]: c * inv for e, c in moved.items()}
    z1 = (0, 1) + (0,) * (n - 1)
    want[z1] = want.get(z1, 0) - inv
    cert_names = ("X@",) + tuple(f"Z@{i}" for i in range(1, n + 1))
    _expect(_mod(_parse_terms(step["certificate"], cert_names), p) == _mod(want, p),
            "certificate differs from the substituted relation")


def _sympy_number(c):
    c = Fraction(c)
    return sp.Rational(c.numerator, c.denominator)


def _fraction(c):
    return Fraction(int(c.p), int(c.q)) if hasattr(c, "q") else Fraction(int(c))


def _split_ring(text):
    """'QQ[t1,t2]/(r1, r2)' -> (['t1', 't2'], ['r1', 'r2'])."""
    head, _, rels = text.partition("/(")
    names = head[head.index("[") + 1:head.index("]")].split(",")
    return names, [r.strip() for r in rels[:-1].split(",")] if rels else []


def _check_charts(params, data):
    names, rels = params["names"], params["rels"]
    charts = data["charts"]
    _expect([c["index"] for c in charts] == list(range(len(names))), "wrong chart indices")
    for chart in charts:
        i = chart["index"]
        got_names, got_rels = _split_ring(chart["ring"])
        want_names = [n.lower() for k, n in enumerate(names) if k != i]
        _expect(got_names == want_names, f"chart {i} variables {got_names}")
        dehom = []
        for rel in rels:
            terms = {}
            for exps, c in rel:
                e = tuple(v for k, v in enumerate(exps) if k != i)
                terms[e] = terms.get(e, 0) + c
            dehom.append([(e, c) for e, c in terms.items() if c])
        want = _reduced_basis(dehom, want_names, None)
        got_polys = [list(_parse_terms(r, got_names).items()) for r in got_rels]
        got = _reduced_basis(got_polys, got_names, None)
        _expect(got == want, f"chart {i} ideal differs from the dehomogenized relations")


def _kernel_generators(which, args):
    """The classical generators: 2x2 minors of the matrix of Z variables,
    plus symmetry Z_ij = Z_ji for the Veronese map."""
    if which == "conic":
        return ["T0", "T1", "T2"], [[((0, 2, 0), 1), ((1, 0, 1), -1)]]
    rows, cols = (args[0] + 1, args[1] + 1) if which == "segre" else (args[0] + 1,) * 2
    names = [f"Z{i}{j}" for i in range(rows) for j in range(cols)]
    idx = {(i, j): i * cols + j for i in range(rows) for j in range(cols)}

    def mono(*cells):
        e = [0] * len(names)
        for cell in cells:
            e[idx[cell]] += 1
        return tuple(e)

    polys = []
    for i, k in combinations(range(rows), 2):
        for j, l in combinations(range(cols), 2):
            polys.append([(mono((i, j), (k, l)), 1), (mono((i, l), (k, j)), -1)])
    if which == "veronese":
        for i, j in combinations(range(rows), 2):
            polys.append([(mono((i, j)), 1), (mono((j, i)), -1)])
    return names, polys


def _check_kernel(params, data):
    names, polys = _kernel_generators(params["which"], params["args"])
    p = params["p"]
    _expect(data["names"] == names, f"kernel variables {data['names']}")
    got = _canonical_texts(data["generators"], names, p)
    _expect(got == _reduced_basis(polys, names, p), "kernel differs from the minors ideal")


# ---------------------------------------------------------------------------
# sheaf
# ---------------------------------------------------------------------------

def _local_sizes(params):
    """Sizes of the local factors of the ring, one per point of its Spec."""
    if "n" in params:
        n = params["n"]
        return sorted(p ** _valuation(n, p) for p in prime_divisors(n))
    p = params["p"]
    return sorted(p ** (d * m) for d, m in _pattern_mod_p(params["rel"], p))


def _check_sheaf_check(params, data):
    sizes = _local_sizes(params)
    _expect(data["is_sheaf"] is True, "structure sheaf fails the gluing check")
    _expect(data["stalks_preserved"] is True, "sheafification changed a stalk")
    points = data["topology"]["points"]
    _expect(len(points) == len(sizes), f"{len(points)} points, expected {len(sizes)}")
    counts = {tuple(row["open"]): row["count"] for row in data["sections_per_open"]}
    _expect(len(counts) == 2 ** len(points), "spec of a finite ring is discrete: "
            "every subset is open")
    single = {x: counts.get((x,)) for x in points}
    _expect(sorted(single.values()) == sizes, f"stalk sizes {sorted(single.values())} != {sizes}")
    for u, count in counts.items():
        want = prod(single[x] for x in u)
        _expect(count == want, f"|Gamma({list(u)})| = {count}, expected {want}")


def _check_sheaf_sections(params, data):
    n, f = params["n"], params["f"]
    kept = [p for p in prime_divisors(n) if f % p]
    want = prod(p ** _valuation(n, p) for p in kept)
    _expect(len(data["basic_open"]) == len(kept), "wrong basic open")
    _expect(data["gamma_size"] == want, f"|Gamma(D(f))| = {data['gamma_size']} != {want}")
    _expect(data["localization_size"] == want, f"|A_f| = {data['localization_size']} != {want}")
    _expect(data["isomorphic"] is True, "A_f -> Gamma(D(f)) is not a bijection")


def _check_sheaf_twist(params, data):
    # Spec of a finite ring is a finite discrete space of local rings, so
    # every unit cocycle is a coboundary and the twist has |A| sections.
    order = params["n"] if "n" in params else params["p"] ** (len(params["rel"]) - 1)
    _expect(data["sections_global"] == order,
            f"{data['sections_global']} global sections, expected {order}")
    _expect(data["is_coboundary"] is True, "cocycle reported as not a coboundary")
    _expect(data["round_trip_class_ok"] is True, "cocycle round trip failed")


_CHECKS = {
    "describe": _check_describe,
    "closure": _check_closure,
    "fiber": _check_fiber,
    "specialize": _check_specialize,
    "qi_factor": _check_qi_factor,
    "ideal": _check_ideal,
    "normalize": _check_normalize,
    "charts": _check_charts,
    "kernel": _check_kernel,
    "sheaf_check": _check_sheaf_check,
    "sheaf_sections": _check_sheaf_sections,
    "sheaf_twist": _check_sheaf_twist,
}


def make_standard_bases():
    """Reduced bases of the fixed systems of the groebner workload."""
    out = {}
    for system, p in STANDARD_OPS:
        names, polys = STANDARD_SYSTEMS[system]()
        basis = _reduced_basis(polys, names, p)
        out[standard_key(system, p)] = {
            "names": names,
            "p": p,
            "basis": sorted([[list(e), str(c)] for e, c in poly] for poly in basis),
        }
    return out
