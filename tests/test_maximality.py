"""The field test of ``noether.is_maximal`` on A = k[X]/I, checked against
oracles that share no code with it: sympy's eliminants and factorizations,
Gröbner bases of I + (w) for each witness w, and inverses looked up in the
multiplication table of A."""

import itertools
import random
from fractions import Fraction

import pytest

from scheme_explorer.algebra import IdealHandle, PresentedAlgebra
from scheme_explorer.arith import GF, QQ, ExtField, FracField, GFq
from scheme_explorer.errors import BudgetExceeded, UnsupportedDomain
from scheme_explorer.multipoly import Poly
from scheme_explorer.noether import _QUOTIENT_BUDGET, is_maximal

QI = ExtField(QQ, (Fraction(1), Fraction(0), Fraction(1)), var="i")
GF4 = GFq(4, (1, 1, 1))

# maximal ideals of k[x,y,z] whose residue field is a tower of two or three
# steps, with its degree over k
TOWERS = {
    "cubic-then-two-squares": (QQ, ["x**3 - x - 1", "y**2 - x", "z**2 + y"], 12),
    "three-square-roots": (QQ, ["x**2 - 2", "y**2 - 3", "z**2 - 5"], 8),
    "cube-root-and-cube-root-of-unity": (QQ, ["x**3 - 2", "y**2 + y + 1", "z - x*y"], 6),
    "eighth-root-of-i-and-root-3": (QI, ["x**2 - i", "y**2 - x", "z**2 - 3"], 8),
}


def _handle(field, texts):
    A = PresentedAlgebra(field, ("x", "y", "z"))
    names = dict(zip(("x", "y", "z"), A.gens()))
    if field == QI:
        names["i"] = A.ring.const(QI.gen())
    return IdealHandle(A, [eval(t, {}, names) for t in texts])


@pytest.mark.parametrize("case", sorted(TOWERS))
def test_towers_over_qq_and_qi_are_maximal(case):
    field, texts, degree = TOWERS[case]
    cert = is_maximal(_handle(field, texts))
    assert cert.is_maximal and cert.dimension == degree


@pytest.mark.parametrize("case", sorted(TOWERS))
def test_tower_eliminants_are_irreducible_in_sympy(case):
    """The eliminant in w of I + (w - (x + 2y + 4z)), in a lex basis, is
    irreducible over k of degree dim A: w generates A, and A is a field."""
    sympy = pytest.importorskip("sympy")
    field, texts, degree = TOWERS[case]
    x, y, z, w = sympy.symbols("x y z w")
    extension = {"extension": sympy.I} if field == QI else {}
    gens = [sympy.sympify(t, locals={"i": sympy.I}) for t in texts]
    basis = sympy.groebner(gens + [w - (x + 2 * y + 4 * z)], x, y, z, w, order="lex",
                           **extension)
    eliminant, = [g for g in basis.exprs if g.free_symbols <= {w}]
    _, factors = sympy.factor_list(eliminant, w, **extension)
    assert [(sympy.degree(f, w), m) for f, m in factors] == [(degree, 1)]
    assert is_maximal(_handle(field, texts)).dimension == degree


# quotients of k[x,y,z] where x generates a proper subfield, so that the
# first candidate decides nothing, with the verdict and dimension
SUBFIELDS = [
    (QQ, ["x**2 - 2", "y**2 - 2", "z"], False, 4),  # y = +-x
    (QQ, ["x**2 + 1", "y**2 + 1", "z"], False, 4),
    (QQ, ["x**2 - 2", "y**2", "z"], False, 4),  # y is nilpotent
    (QQ, ["x**2 - 2", "y**2 - 3", "z**2 - x*y"], True, 8),
    (QI, ["x**2 - 2", "y**2 + 2", "z"], False, 4),  # y = +-i*x
    (QI, ["x**2 - 2", "y**2 - 3", "z"], True, 4),
]


@pytest.mark.parametrize("field, texts, verdict, dimension", SUBFIELDS,
                         ids=["QQ-y=+-x", "QQ-two-roots-of-minus-1", "QQ-nilpotent-y",
                              "QQ-fourth-root-of-6", "Qi-y=+-ix", "Qi-root-6"])
def test_a_candidate_that_generates_a_subfield_decides_nothing(field, texts, verdict, dimension):
    cert = is_maximal(_handle(field, texts))
    assert (cert.is_maximal, cert.dimension) == (verdict, dimension)


def _random_elem(field, rng):
    if field == QQ:
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
    if field == QI:
        return QI.add(QI.from_int(rng.randint(-2, 2)),
                      QI.mul(QI.from_int(rng.randint(-2, 2)), QI.gen()))
    return rng.choice(field.elements())


def _random_ideals(field, rng, count):
    """Ideals of k[x,y] with quotients of dimension at most 4: two random
    quadrics, a product of two factors in x, a square in x."""
    A = PresentedAlgebra(field, ("x", "y"))
    x, y = A.gens()

    def rand(monos):
        return A.ring.from_dict({m: _random_elem(field, rng) for m in monos})

    low = [(1, 0), (0, 1), (0, 0)]
    for trial in range(count):
        if trial % 3 == 0:
            yield A, [x ** 2 + rand(low), y ** 2 + rand(low)]
        elif trial % 3 == 1:
            f = (x + rand([(0, 0)])) * (x ** 2 + rand([(1, 0), (0, 0)]))
            yield A, [f, y - rand([(1, 0), (0, 0)])]
        else:
            yield A, [(x + rand([(0, 0)])) ** 2, y ** 2 + rand(low)]


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF4, QQ, QI],
                         ids=["GF2", "GF3", "GF5", "GF4", "QQ", "Qi"])
def test_every_witness_is_a_nonzero_non_unit(field):
    """A not-maximal verdict on a quotient of finite dimension names w with
    a nonzero normal form such that I + (w) is still a proper ideal."""
    rng = random.Random(f"witness:{field!r}")
    witnesses = 0
    for A, gens in _random_ideals(field, rng, 30):
        handle = IdealHandle(A, gens)
        cert = is_maximal(handle)
        if cert.is_maximal or cert.dimension is None:
            continue
        w = cert.witness
        assert isinstance(w, Poly) and not handle.normal_form(w).is_zero(), gens
        assert not IdealHandle(A, gens + [w]).groebner().is_unit_ideal(), (gens, str(w))
        witnesses += 1
    assert witnesses >= 10


def _is_field_by_brute_force(handle, field):
    """A as a table of products on the monomials under the staircase: a
    field iff it is nonzero and every nonzero element has an inverse among
    its |k|^dim elements."""
    dom, ring = field, handle.ambient.ring
    leads = [g.leading_monomial() for g in handle.groebner()]
    basis = [(i, j) for i in range(4) for j in range(4)
             if not any(i >= a and j >= b for a, b in leads)]
    if not basis:
        return False, 0
    index = {m: k for k, m in enumerate(basis)}

    def coords(poly):
        vec = [dom.zero()] * len(basis)
        for e, c in handle.normal_form(poly).terms:
            vec[index[e]] = c
        return vec

    table = [[coords(ring.monomial(a) * ring.monomial(b)) for b in basis] for a in basis]

    def product(u, v):
        out = [dom.zero()] * len(basis)
        for (i, ui), (j, vj) in itertools.product(enumerate(u), enumerate(v)):
            if not dom.is_zero(ui) and not dom.is_zero(vj):
                uv = dom.mul(ui, vj)
                out = [dom.add(o, dom.mul(uv, c)) for o, c in zip(out, table[i][j])]
        return out

    elements = [list(t) for t in itertools.product(dom.elements(), repeat=len(basis))]
    one = coords(ring.one())
    nonzero = [a for a in elements if any(not dom.is_zero(c) for c in a)]
    return all(any(product(a, b) == one for b in nonzero) for a in nonzero), len(basis)


@pytest.mark.parametrize("field", [GF4, GF(5)], ids=["GF4", "GF5"])
def test_is_maximal_matches_brute_force_quotients(field):
    """Seeded ideals of k[x,y] with quotients of dimension at most 3."""
    rng = random.Random(f"brute:{field!r}")
    A = PresentedAlgebra(field, ("x", "y"))
    x, y = A.gens()

    def rand(monos):
        return A.ring.from_dict({m: _random_elem(field, rng) for m in monos})

    verdicts = set()
    for trial in range(16):
        if trial % 2:
            gens = [x ** 2 + rand([(1, 0), (0, 1), (0, 0)]), x * y + rand([(1, 0), (0, 1), (0, 0)]),
                    y ** 2 + rand([(1, 0), (0, 1), (0, 0)])]
        else:
            gens = [x ** 3 + rand([(2, 0), (1, 0), (0, 0)]), y - rand([(1, 0), (0, 0)])]
        handle = IdealHandle(A, gens)
        field_ok, dim = _is_field_by_brute_force(handle, field)
        cert = is_maximal(handle)
        assert cert.is_maximal == field_ok, [str(g) for g in gens]
        if dim:
            assert cert.dimension == dim
        verdicts.add(field_ok)
    assert verdicts == {True, False}


def test_frobenius_images_of_a_large_sparse_quotient():
    """x^100 - 3 over GF(32003): the image of each staircase monomial is
    the image of the one below it times the image of x, and the verdict
    agrees with the irreducibility of x^100 - 3 in sympy."""
    sympy = pytest.importorskip("sympy")
    A = PresentedAlgebra(GF(32003), ("x", "y"))
    x, y = A.gens()
    cert = is_maximal(IdealHandle(A, [x ** 100 - 3, y - x]))
    t = sympy.symbols("t")
    assert cert.dimension == 100
    assert cert.is_maximal == sympy.Poly(t ** 100 - 3, t, modulus=32003).is_irreducible


def test_the_quotient_box_has_a_budget():
    """The box under the pure powers is sized before it is enumerated: a
    box of _QUOTIENT_BUDGET monomials is answered, one more is refused."""
    A = PresentedAlgebra(GF(2), ("x", "y"))
    x, y = A.gens()
    cert = is_maximal(IdealHandle(A, [x ** _QUOTIENT_BUDGET, y]))
    assert not cert.is_maximal and cert.dimension == _QUOTIENT_BUDGET
    for n in (_QUOTIENT_BUDGET + 1, 10 ** 6):
        with pytest.raises(BudgetExceeded) as err:
            is_maximal(IdealHandle(A, [x ** n, y]))
        assert err.value.code == "budget-exceeded"


@pytest.mark.parametrize("field", [FracField(GF(2), "S"), FracField(QQ, "S")],
                         ids=["GF2(S)", "QQ(S)"])
def test_function_field_bases_are_unsupported(field):
    """Only finite fields, QQ and number fields are decided; the refusal
    comes before any Gröbner basis, whatever the ideal."""
    A = PresentedAlgebra(field, ("x",))
    x, = A.gens()
    for gens in ([x], [x ** 2 + 1], [x, x + 1]):
        with pytest.raises(UnsupportedDomain) as err:
            is_maximal(IdealHandle(A, gens))
        assert err.value.code == "unsupported-domain"
