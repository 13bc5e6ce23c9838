"""The packed-term evaluator against Poly arithmetic.

``reference_eval_poly`` is the evaluator that ``dsl.eval_poly`` replaced: it
builds a Poly for every node through ``PolyRing.gen``/``const`` and Poly's
operators.  Seeded random ASTs must give the same packed terms, or the
same ``SchemeError`` code, in every ring below.
"""

import random
import time

import pytest

from scheme_explorer import arith, cli, dsl, multipoly
from scheme_explorer.dsl import BinOp, FracLit, IntLit, Neg, Pow, Var
from scheme_explorer.errors import DslSyntaxError, SchemeError
from scheme_explorer.multipoly import LEX, BlockOrder, PolyRing


def reference_eval_poly(node, ring):
    """Evaluate a polynomial AST inside a PolyRing, one Poly per node."""
    if isinstance(node, IntLit):
        return ring.from_int(node.value)
    if isinstance(node, FracLit):
        dom = ring.domain
        num = dom.from_int(node.numerator)
        return ring.const(dom.mul(num, dom.inv(dom.from_int(node.denominator))))
    if isinstance(node, Var):
        if node.name not in ring.names:
            raise DslSyntaxError(f"unknown variable {node.name!r} in {ring}")
        return ring.gen(node.name)
    if isinstance(node, Neg):
        return -reference_eval_poly(node.body, ring)
    if isinstance(node, Pow):
        return reference_eval_poly(node.base, ring) ** node.exponent
    if isinstance(node, BinOp):
        left = reference_eval_poly(node.left, ring)
        right = reference_eval_poly(node.right, ring)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        return left * right
    raise DslSyntaxError(f"bad polynomial node {node!r}")


def domain(text):
    return dsl.build_domain(dsl.parse_ring_text(text).domain)


DOMAINS = ["ZZ", "QQ", "GF(7)", "GF(32003)", "ZZ/6", "ZZ/12", "GF(25,t^2+2)",
           "GF(4,t^2+t+1)"]
ORDERS = [multipoly.GREVLEX, LEX, BlockOrder((1, 2))]
NAMES = ("x", "y", "z")
MAX_DEGREE = 20


def degree(node):
    """A bound on the total degree, counting the huge powers of atoms as 0."""
    if isinstance(node, Var):
        return 1
    if isinstance(node, (IntLit, FracLit)):
        return 0
    if isinstance(node, Neg):
        return degree(node.body)
    if isinstance(node, Pow):
        if node.exponent > 6:
            return 0
        return degree(node.base) * node.exponent
    if node.op == "*":
        return degree(node.left) + degree(node.right)
    return max(degree(node.left), degree(node.right))


def random_atom(rng):
    r = rng.random()
    if r < 0.55:
        return Var(rng.choice(NAMES))
    if r < 0.88:
        return IntLit(rng.choice([0, 1, 2, 3, 4, 5, 6, 7, 12, 25, 32003, 10 ** 20]))
    if r < 0.94:
        return FracLit(rng.randrange(0, 10), rng.randrange(0, 7))
    if r < 0.98:
        # monomials next to the exponent limit 2^31, and unit powers past it
        base = rng.choice([Var(rng.choice(NAMES)), IntLit(0), IntLit(1)])
        return Pow(base, rng.choice([2 ** 30, 2 ** 31 - 1, 2 ** 31]))
    return Var("w")


def random_ast(rng, depth):
    """Sums of two to four terms, products, powers up to 6 and negations."""
    if depth == 0 or rng.random() < 0.2:
        return random_atom(rng)
    r = rng.random()
    if r < 0.4:
        node = random_ast(rng, depth - 1)
        for _ in range(rng.randrange(1, 4)):
            node = BinOp(rng.choice("+-"), node, random_ast(rng, depth - 1))
        return node
    if r < 0.7:
        return BinOp("*", random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if r < 0.9:
        return Pow(random_ast(rng, depth - 1), rng.randrange(0, 7))
    return Neg(random_ast(rng, depth - 1))


def outcome(evaluate, node, ring):
    try:
        poly = evaluate(node, ring)
    except SchemeError as err:
        return err.code
    mons, coeffs = poly.packed()
    return mons, coeffs, [type(c) for c in coeffs]


@pytest.mark.parametrize("text", DOMAINS)
def test_the_evaluator_matches_poly_arithmetic_on_random_asts(text):
    rng = random.Random(f"eval-poly:{text}")
    dom = domain(text)
    rings = [PolyRing(dom, NAMES, order) for order in ORDERS]
    checked = 0
    while checked < 300:
        node = random_ast(rng, 4)
        if degree(node) > MAX_DEGREE:
            continue
        ring = rng.choice(rings)
        assert outcome(dsl.eval_poly, node, ring) == outcome(reference_eval_poly, node, ring), \
            (node.to_text(), ring)
        checked += 1


def test_the_random_asts_reach_every_outcome():
    """The differential test sees errors of each kind and long answers."""
    rng = random.Random("eval-poly:ZZ/6")
    ring = PolyRing(domain("ZZ/6"), NAMES)
    seen, most_terms = set(), 0
    for _ in range(400):
        node = random_ast(rng, 4)
        if degree(node) <= MAX_DEGREE:
            result = outcome(dsl.eval_poly, node, ring)
            seen.add(result if isinstance(result, str) else "poly")
            most_terms = max(most_terms, 0 if isinstance(result, str) else len(result[0]))
    assert seen == {"poly", "exponent-overflow", "not-invertible", "syntax-error"}
    assert most_terms >= 20


@pytest.mark.parametrize("evaluate", [dsl.eval_poly, reference_eval_poly])
@pytest.mark.parametrize("ring_text, poly_text, answer", [
    ("ZZ", "0*x^2147483648", "exponent-overflow"),
    ("QQ", "x^2147483648*0", "exponent-overflow"),
    ("ZZ/2", "(2*x)^2147483648", "0"),
    ("ZZ/6", "(2*x+1)*(3*x)", "3*x"),
    ("ZZ/6", "1/2", "not-invertible"),
    ("ZZ/4", "(2*x)^2", "0"),
    ("QQ", "x^0", "1"),
    ("QQ", "0^0", "1"),
    ("QQ", "x - x", "0"),
    ("QQ", "x^2147483647", "x^2147483647"),
    ("QQ", "x*y^2147483647*y", "exponent-overflow"),
    ("QQ", "x + w", "syntax-error"),
    # a zero term product is checked against the exponent limit when a
    # factor has one term, and not when both have more
    ("ZZ/6", "(2*x^1073741824 + 1)*(3*x^1073741824)", "exponent-overflow"),
    ("ZZ/6", "(2*x^1073741824 + 1)*(3*x^1073741824 + 1)", "5*x^1073741824 + 1"),
])
def test_pinned_edge_cases(evaluate, ring_text, poly_text, answer):
    ring = PolyRing(domain(ring_text), ("x", "y"))
    node = dsl.parse_poly_text(poly_text)
    try:
        result = str(evaluate(node, ring))
    except SchemeError as err:
        result = err.code
    assert result == answer


KATSURA5 = ["x0^2-x0+2*x1^2+2*x2^2+2*x3^2+2*x4^2+2*x5^2",
            "2*x0*x1+2*x1*x2-x1+2*x2*x3+2*x3*x4+2*x4*x5",
            "2*x0*x2+x1^2+2*x1*x3+2*x2*x4-x2+2*x3*x5",
            "2*x0*x3+2*x1*x2+2*x1*x4+2*x2*x5-x3",
            "2*x0*x4+2*x1*x3+2*x1*x5+x2^2-x4",
            "x0+2*x1+2*x2+2*x3+2*x4+2*x5-1"]


@pytest.fixture
def poly_constructions(monkeypatch):
    """The number of Polys built since the fixture started."""
    count = [0]
    init = multipoly.Poly.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(multipoly.Poly, "__init__", counting_init)
    return count


def test_evaluation_builds_one_poly_per_polynomial(poly_constructions):
    ring = PolyRing(arith.QQ, [f"x{i}" for i in range(6)])
    nodes = [dsl.parse_poly_text(text) for text in KATSURA5]
    polys = [dsl.eval_poly(node, ring) for node in nodes]
    assert poly_constructions[0] == 6
    assert polys == [reference_eval_poly(node, ring) for node in nodes]

    ring = PolyRing(arith.GF(32003), ("x", "y"))
    node = dsl.parse_poly_text("(x+y+1)^3*(x-1)")
    poly_constructions[0] = 0
    poly = dsl.eval_poly(node, ring)
    assert poly_constructions[0] == 1
    assert poly == reference_eval_poly(node, ring)


def run_poly_statement(text):
    records, _ = cli.run_script(dsl.parse(text))
    (record,) = records
    return record["data"]["printed"] if record["ok"] else record["error"]["code"]


@pytest.mark.parametrize("text", ["poly QQ[x,y] : (x+y)^100000;", "poly QQ[x] : 2^40000000000;",
                                  "poly ZZ[x] : 3^600000*3^600000*3^600000;"])
def test_a_runaway_expansion_is_refused_within_a_second(text):
    start = time.perf_counter()
    assert run_poly_statement(text) == "budget-exceeded"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text, printed", [
    ("poly GF(7)[x] : 7^40000000000;", "0"),
    ("poly GF(7)[x] : 3^40000000000;", "4"),
    ("poly ZZ[x] : (-1)^40000000001*x;", "-x"),
    ("poly ZZ/4[x] : (2*x)^40000000000;", "0"),
])
def test_powers_that_stay_small_are_not_refused(text, printed):
    assert run_poly_statement(text) == printed
