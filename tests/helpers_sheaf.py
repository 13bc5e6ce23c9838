"""Shared generators for randomized finite-space presheaf tests, and the
up-front restriction maps that the derived presheaves once built."""

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


def eager_presheaf(F):
    """F with every map built up front from F's restriction function, as
    the derived presheaves built them before their maps were built on first
    read; the presheaf axioms are checked on the result."""
    restrictions = {}
    for u in F.space.opens:
        for v in F.space.opens:
            if v < u:
                r = F._restriction(u, v)
                restrictions[(u, v)] = {s: r(s) for s in F.sections[u]}
    return sh.FinitePresheaf(F.space, F.sections, restrictions)
