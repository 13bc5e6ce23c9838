"""Shared generators for randomized finite-space presheaf tests, the cover
enumeration of the exhaustive gluing oracle, and the up-front sections,
restriction maps and per-open data that the derived presheaves and
structure sheaves once built, coboundary cocycles, the units 1 that make
the trivial one, and the cocycle check over every triple of opens."""

import itertools

from scheme_explorer import sheaf as sh


def random_space(rng, max_points=5):
    """A random finite topology from a random preorder on <= max_points."""
    n = rng.randrange(1, max_points + 1)
    pts = [f"p{i}" for i in range(n)]
    rel = {(x, x) for x in pts}
    for _ in range(rng.randrange(0, n * 2)):
        rel.add((rng.choice(pts), rng.choice(pts)))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return space_from_preorder(pts, lambda x, y: (x, y) in rel)


def space_from_preorder(points, leq):
    """Alexandrov topology: opens are the down-closed sets of ``leq``.

    An open U satisfies: y in U whenever x in U and leq(y, x).
    """
    pts = list(points)
    opens = []
    for r in range(len(pts) + 1):
        for combo in itertools.combinations(pts, r):
            s = frozenset(combo)
            if all(
                not (x in s and leq(y, x) and y not in s) for x in pts for y in pts
            ):
                opens.append(s)
    return sh.FiniteSpace(pts, opens)


def random_projection_presheaf(space, rng):
    """F(U) = product of per-point alphabets over a monotone support set;
    restrictions are projections, so the presheaf axioms hold by design."""
    weights = {x: rng.randrange(1, len(space.points) + 2) for x in space.points}
    alphabet = {x: list(range(rng.randrange(1, 4))) for x in space.points}

    def support(u):
        return tuple(sorted((x for x in u if weights[x] <= len(u)), key=str))

    sections = {}
    for u in space.opens:
        sup = support(u)
        sections[u] = list(itertools.product(*(alphabet[x] for x in sup))) or [()]
    restrictions = {}
    for u in space.opens:
        for v in space.opens:
            if not v < u:
                continue
            sup_u, sup_v = support(u), support(v)
            pick = [sup_u.index(x) for x in sup_v]
            restrictions[(u, v)] = {
                s: tuple(s[i] for i in pick) for s in sections[u]
            }
    return sh.FinitePresheaf(space, sections, restrictions)


def sub_presheaf(F, rng):
    """F with random sections dropped on the nonempty opens, and with them
    every section that restricts to a dropped one: a sub-presheaf, whose
    compatible families often lose their gluing."""
    kept = {}
    for u in F.space.opens_sorted():  # by size, so every v < u comes first
        kept[u] = [s for s in F.sections[u]
                   if (not u or rng.random() < 0.8)
                   and all(F.restrict(s, u, v) in kept[v] for v in kept if v < u)]
    restrictions = {(u, v): {s: F.restrict(s, u, v) for s in kept[u]}
                    for u in kept for v in kept if v < u}
    return sh.FinitePresheaf(F.space, kept, restrictions)


def tagged_presheaf(F, rng):
    """F with the sections on one random nonempty open u0 tagged 0 and some
    of them listed again tagged 1.  Restriction from u0 forgets the tag and
    restriction to u0 tags 0, so the two copies of a section have the same
    restrictions: when u0 is covered by smaller opens, gluings are not
    unique."""
    opens = F.space.opens_sorted()
    u0 = rng.choice([u for u in opens if u])
    base = F.sections[u0]
    twice = [s for s in base if rng.random() < 0.5] or list(base[:1])
    sections = {u: F.sections[u] for u in opens}
    sections[u0] = [(s, 0) for s in base] + [(s, 1) for s in twice]
    restrictions = {}
    for u in opens:
        for v in opens:
            if not v < u:
                continue
            if u == u0:
                m = {(s, tag): F.restrict(s, u, v) for s, tag in sections[u]}
            elif v == u0:
                m = {s: (F.restrict(s, u, v), 0) for s in sections[u]}
            else:
                m = {s: F.restrict(s, u, v) for s in sections[u]}
            restrictions[(u, v)] = m
    return sh.FinitePresheaf(F.space, sections, restrictions)


def covers_of(space, u):
    """Covers of u where every member keeps a private point.

    Gluing for arbitrary covers reduces to these: discarding a member
    without a private point leaves a cover, and a glued section agrees
    on the discarded member by separatedness.
    """
    candidates = [v for v in space.opens_sorted() if v and v <= u]
    out = []
    for r in range(1, min(len(candidates), max(len(u), 1)) + 1):
        for combo in itertools.combinations(candidates, r):
            if frozenset().union(*combo) != u:
                continue
            if all(not v <= frozenset().union(*combo[:i], *combo[i + 1:])
                   for i, v in enumerate(combo)):
                out.append(combo)
    return out


def eager_presheaf(F):
    """F with every open's sections and every map built up front, in plain
    dicts, from F's sections and restriction function, as the derived
    presheaves built them before both were made on first read; the presheaf
    axioms are checked on the result."""
    sections = {u: F.sections[u] for u in F.space.opens_sorted()}
    restrictions = {}
    for u in F.space.opens:
        for v in F.space.opens:
            if v < u:
                r = F._restriction(u, v)
                restrictions[(u, v)] = {s: r(s) for s in sections[u]}
    return sh.FinitePresheaf(F.space, sections, restrictions)


def eager_structure_sheaf(ring):
    """The structure sheaf of ``ring`` with every open's local ring and
    comparison map in plain dicts, and its presheaf and sheafification
    through ``eager_presheaf``: all of it built up front in ``opens_sorted``
    order, as ``structure_sheaf`` built it before the per-open data were
    made on first read."""
    rep = sh.structure_sheaf(ring)
    opens = rep.space.opens_sorted()
    local_rings = {u: rep.local_rings[u] for u in opens}
    pi = {u: rep.pi[u] for u in opens}
    return sh.StructureSheafReport(ring, rep.space, rep.primes, eager_presheaf(rep.presheaf),
                                   eager_presheaf(rep.sheaf), pi, local_rings)


def coboundary_cocycle(report, cover, unit_choices):
    """The coboundary (a_i / a_j) of a family of units on the cover opens."""
    return sh._cocycle(report, cover, lambda i, j, w, rw: rw.mul(
        rw.make(*unit_choices[i]), rw.inv(rw.make(*unit_choices[j]))))


def ones(report, cover):
    """The unit 1 on each cover open: its coboundary is the trivial cocycle."""
    return [report.local_rings[frozenset(u)].one() for u in cover]


def reference_cocycle_failure(report, cover, units):
    """The message ``UnitCocycle`` raises for ``units`` on ``cover``, by the
    check it made before skipping the triples that f_ii = 1 settles: f_ii = 1
    on every open, then f_ij f_jk = f_ik on the overlap of every one of the
    n^3 triples, in ``itertools.product`` order.  None if every identity
    holds."""
    cover = [frozenset(u) for u in cover]
    rings = report.local_rings
    if any(units[i, i] != rings[u].one() for i, u in enumerate(cover)):
        return "f_ii must be 1"
    for i, j, k in itertools.product(range(len(cover)), repeat=3):
        rt = rings[cover[i] & cover[j] & cover[k]]
        if rt.mul(rt.make(*units[i, j]), rt.make(*units[j, k])) != rt.make(*units[i, k]):
            return "f_ij * f_ji must be 1" if k == i else "cocycle identity fails"
    return None
