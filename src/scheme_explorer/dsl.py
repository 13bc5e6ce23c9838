"""Statement language for the command-line workbench.

Statements end with ';' and come in a fixed set of shapes:

    ring A = ZZ[X]/(6*X^2+18*X-3);
    ideal I = (X*Y-1) in QQ[X,Y];
    poly QQ[X,Y] : X^2*Y - 3;
    specialize A over QQ, GF(2), GF(3), GF(5), GF(11);
    spec describe ZZ[T] --bound 7;
    spec closure --ring ZZ[T] --point "eta,(2*T-1)" --fibers 50;
    fiber --map "ZZ->ZZ[T]" --at p=7;
    normalize --ring QQ[X,Y] --ideal "(X*Y-1)";
    proj charts --graded "QQ[T0,T1,T2]/(T0*T2-T1^2)";
    proj points --space "P^2(GF(5))";
    proj segre --p "[1:2]" --q "[3:5]";
    proj conic --p "[2:3]";
    proj veronese --p "[2:3]";
    proj sections --n 2 --d 2;
    sheaf check --space "spec(ZZ/12)";
    sheaf sections --space "spec(ZZ/12)" --at 2;
    sheaf twist --space "spec(ZZ/36)" --cover "X,D(2)" --cocycle -1;

Domain literals: ZZ, QQ, ZZ/12, GF(7), GF(49,t^2+1).  Projective points
are written [a:b:c].  Parsing is total on this grammar and printing a parsed
script reparses to the same abstract syntax.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DslSyntaxError, UnsupportedDomain

_SYMBOLS = ("->", "--", "=", ";", ",", "(", ")", "[", "]", ":", "^", "*", "+", "-", "/")
_KEYWORDS = {
    "ring", "ideal", "poly", "in", "over", "specialize",
    "spec", "fiber", "normalize", "proj", "sheaf",
}


@dataclass(frozen=True)
class Token:
    kind: str   # NAME INT STRING SYM FLAG EOF
    text: str
    line: int
    column: int


def tokenize(source):
    tokens = []
    i = 0
    line, col = 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                j += 1
            if j >= n:
                raise DslSyntaxError("unterminated string", line, col)
            tokens.append(Token("STRING", source[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if source.startswith("--", i) and i + 2 < n and source[i + 2].isalpha():
            j = i + 2
            while j < n and (source[j].isalnum() or source[j] in "_-"):
                j += 1
            tokens.append(Token("FLAG", source[i + 2:j], line, col))
            col += j - i
            i = j
            continue
        if source.startswith("->", i):
            tokens.append(Token("SYM", "->", line, col))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("INT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("NAME", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "=;,()[]:^*+-/":
            tokens.append(Token("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# abstract syntax
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int

    def to_text(self):
        return str(self.value)


@dataclass(frozen=True)
class FracLit:
    numerator: int
    denominator: int

    def to_text(self):
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class Var:
    name: str

    def to_text(self):
        return self.name


@dataclass(frozen=True)
class Neg:
    body: object

    def to_text(self):
        return f"-{_wrap(self.body)}"


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int

    def to_text(self):
        return f"{_wrap(self.base)}^{self.exponent}"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object

    def to_text(self):
        if self.op in "+-":
            return f"{self.left.to_text()} {self.op} {_wrap_add(self.right)}"
        return f"{_wrap(self.left)}*{_wrap(self.right)}"


def _wrap(node):
    if isinstance(node, BinOp):
        return f"({node.to_text()})"
    if isinstance(node, Neg):
        return f"({node.to_text()})"
    return node.to_text()


def _wrap_add(node):
    if isinstance(node, BinOp) and node.op in "+-":
        return f"({node.to_text()})"
    if isinstance(node, Neg):
        return f"({node.to_text()})"
    return node.to_text()


@dataclass(frozen=True)
class DomainExpr:
    kind: str            # "ZZ" | "QQ" | "Zmod" | "GF" | "GFext"
    modulus: int = 0
    poly: object = None  # polynomial AST over variable t (GFext)

    def to_text(self):
        if self.kind == "ZZ":
            return "ZZ"
        if self.kind == "QQ":
            return "QQ"
        if self.kind == "Zmod":
            return f"ZZ/{self.modulus}"
        if self.kind == "GF":
            return f"GF({self.modulus})"
        return f"GF({self.modulus},{self.poly.to_text()})"


@dataclass(frozen=True)
class RingExpr:
    domain: DomainExpr
    names: tuple = ()
    relations: tuple = ()

    def to_text(self):
        out = self.domain.to_text()
        if self.names:
            out += f"[{','.join(self.names)}]"
        if self.relations:
            out += "/(" + ", ".join(r.to_text() for r in self.relations) + ")"
        return out


@dataclass(frozen=True)
class RingDef:
    name: str
    ring: RingExpr

    def to_text(self):
        return f"ring {self.name} = {self.ring.to_text()};"


@dataclass(frozen=True)
class IdealDef:
    name: str
    generators: tuple
    ring: object  # RingExpr or str (a defined ring name)

    def to_text(self):
        gens = ", ".join(g.to_text() for g in self.generators)
        ring = self.ring if isinstance(self.ring, str) else self.ring.to_text()
        return f"ideal {self.name} = ({gens}) in {ring};"


@dataclass(frozen=True)
class PolyStmt:
    ring: object
    poly: object

    def to_text(self):
        ring = self.ring if isinstance(self.ring, str) else self.ring.to_text()
        return f"poly {ring} : {self.poly.to_text()};"


@dataclass(frozen=True)
class SpecializeCmd:
    ring: object
    domains: tuple

    def to_text(self):
        ring = self.ring if isinstance(self.ring, str) else self.ring.to_text()
        doms = ", ".join(d.to_text() for d in self.domains)
        return f"specialize {ring} over {doms};"


@dataclass(frozen=True)
class Command:
    group: str
    action: str
    positional: tuple = ()
    flags: tuple = ()  # sorted (name, value) pairs; values str or int

    def flag(self, name, default=None):
        for k, v in self.flags:
            if k == name:
                return v
        return default

    def to_text(self):
        parts = [self.group]
        if self.action:
            parts.append(self.action)
        for pos in self.positional:
            parts.append(pos.to_text() if hasattr(pos, "to_text") else str(pos))
        for k, v in self.flags:
            if isinstance(v, int):
                parts.append(f"--{k} {v}")
            else:
                parts.append(f'--{k} "{v}"')
        return " ".join(parts) + ";"


@dataclass(frozen=True)
class Script:
    statements: tuple

    def to_text(self):
        return "\n".join(s.to_text() for s in self.statements)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class Parser:
    def __init__(self, source):
        self.tokens = tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, text=None):
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            expected = [text or kind]
            raise DslSyntaxError(
                f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.column, expected
            )
        return self.advance()

    def at_sym(self, text):
        tok = self.peek()
        return tok.kind == "SYM" and tok.text == text

    def parse_script(self):
        statements = []
        while self.peek().kind != "EOF":
            statements.append(self.parse_statement())
        return Script(tuple(statements))

    def parse_statement(self):
        tok = self.peek()
        if tok.kind != "NAME":
            raise DslSyntaxError(
                f"expected a statement keyword, got {tok.text!r}",
                tok.line, tok.column, sorted(_KEYWORDS),
            )
        if tok.text == "ring":
            return self.parse_ring_def()
        if tok.text == "ideal":
            return self.parse_ideal_def()
        if tok.text == "poly":
            return self.parse_poly_stmt()
        if tok.text == "specialize":
            return self.parse_specialize()
        if tok.text in ("spec", "fiber", "normalize", "proj", "sheaf"):
            return self.parse_command()
        raise DslSyntaxError(
            f"unknown statement {tok.text!r}", tok.line, tok.column,
            sorted(_KEYWORDS),
        )

    def parse_ring_def(self):
        self.expect("NAME", "ring")
        name = self.expect("NAME").text
        self.expect("SYM", "=")
        ring = self.parse_ring_expr()
        self.expect("SYM", ";")
        return RingDef(name, ring)

    def parse_ideal_def(self):
        self.expect("NAME", "ideal")
        name = self.expect("NAME").text
        self.expect("SYM", "=")
        self.expect("SYM", "(")
        gens = [self.parse_poly_expr()]
        while self.at_sym(","):
            self.advance()
            gens.append(self.parse_poly_expr())
        self.expect("SYM", ")")
        self.expect("NAME", "in")
        ring = self.parse_ring_ref()
        self.expect("SYM", ";")
        return IdealDef(name, tuple(gens), ring)

    def parse_poly_stmt(self):
        self.expect("NAME", "poly")
        ring = self.parse_ring_ref()
        self.expect("SYM", ":")
        poly = self.parse_poly_expr()
        self.expect("SYM", ";")
        return PolyStmt(ring, poly)

    def parse_specialize(self):
        self.expect("NAME", "specialize")
        ring = self.parse_ring_ref()
        self.expect("NAME", "over")
        domains = [self.parse_domain_expr()]
        while self.at_sym(","):
            self.advance()
            domains.append(self.parse_domain_expr())
        self.expect("SYM", ";")
        return SpecializeCmd(ring, tuple(domains))

    def parse_command(self):
        group = self.expect("NAME").text
        action = ""
        positional = []
        if self.peek().kind == "NAME" and group in ("spec", "proj", "sheaf"):
            action = self.advance().text
        # optional one positional ring reference (spec describe ZZ[T] ...),
        # bare or quoted
        if self.peek().kind == "NAME":
            positional.append(self.parse_ring_ref())
        elif self.peek().kind == "STRING":
            text = self.advance().text
            if text.isidentifier():
                positional.append(text)
            else:
                positional.append(parse_ring_text(text))
        flags = []
        while self.peek().kind == "FLAG":
            fname = self.advance().text
            tok = self.peek()
            if tok.kind == "INT":
                self.advance()
                flags.append((fname, int(tok.text)))
            elif tok.kind == "SYM" and tok.text == "-":
                self.advance()
                val = self.expect("INT")
                flags.append((fname, -int(val.text)))
            elif tok.kind == "STRING":
                self.advance()
                flags.append((fname, tok.text))
            elif tok.kind == "NAME":
                # bare word or key=value
                word = self.advance().text
                if self.at_sym("="):
                    self.advance()
                    val = self.expect("INT")
                    flags.append((fname, f"{word}={val.text}"))
                else:
                    flags.append((fname, word))
            else:
                flags.append((fname, ""))
        self.expect("SYM", ";")
        return Command(group, action, tuple(positional), tuple(flags))

    def parse_ring_ref(self):
        tok = self.peek()
        if tok.kind == "NAME" and tok.text not in ("ZZ", "QQ", "GF"):
            self.advance()
            return tok.text
        return self.parse_ring_expr()

    def parse_ring_expr(self):
        domain = self.parse_domain_expr()
        names = ()
        relations = ()
        if self.at_sym("["):
            self.advance()
            out = [self.expect("NAME").text]
            while self.at_sym(","):
                self.advance()
                out.append(self.expect("NAME").text)
            self.expect("SYM", "]")
            names = tuple(out)
        if self.at_sym("/") and names:
            self.advance()
            self.expect("SYM", "(")
            rels = [self.parse_poly_expr()]
            while self.at_sym(","):
                self.advance()
                rels.append(self.parse_poly_expr())
            self.expect("SYM", ")")
            relations = tuple(rels)
        return RingExpr(domain, names, relations)

    def parse_domain_expr(self):
        tok = self.expect("NAME")
        if tok.text == "ZZ":
            if self.at_sym("/"):
                save = self.pos
                self.advance()
                if self.peek().kind == "INT":
                    n = int(self.advance().text)
                    return DomainExpr("Zmod", n)
                self.pos = save
            return DomainExpr("ZZ")
        if tok.text == "QQ":
            return DomainExpr("QQ")
        if tok.text == "GF":
            self.expect("SYM", "(")
            q = int(self.expect("INT").text)
            poly = None
            if self.at_sym(","):
                self.advance()
                poly = self.parse_poly_expr()
            self.expect("SYM", ")")
            if poly is None:
                return DomainExpr("GF", q)
            return DomainExpr("GFext", q, poly)
        raise DslSyntaxError(
            f"unknown domain {tok.text!r}", tok.line, tok.column,
            ["ZZ", "QQ", "ZZ/n", "GF(q)"],
        )

    # polynomial expressions -------------------------------------------------

    def parse_poly_expr(self):
        node = self.parse_term()
        while self.at_sym("+") or self.at_sym("-"):
            op = self.advance().text
            right = self.parse_term()
            node = BinOp(op, node, right)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            if self.at_sym("*"):
                self.advance()
                node = BinOp("*", node, self.parse_factor())
                continue
            # juxtaposition: 2T, 3(T+1), T(T-1) read as products
            tok = self.peek()
            if tok.kind == "NAME" or (tok.kind == "SYM" and tok.text == "("):
                node = BinOp("*", node, self.parse_factor())
                continue
            break
        return node

    def parse_factor(self):
        if self.at_sym("-"):
            self.advance()
            return Neg(self.parse_factor())
        atom = self.parse_atom()
        if self.at_sym("^"):
            self.advance()
            exp = int(self.expect("INT").text)
            return Pow(atom, exp)
        return atom

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            if self.at_sym("/"):
                save = self.pos
                self.advance()
                if self.peek().kind == "INT":
                    den = int(self.advance().text)
                    return FracLit(int(tok.text), den)
                self.pos = save
            return IntLit(int(tok.text))
        if tok.kind == "NAME":
            self.advance()
            return Var(tok.text)
        if tok.kind == "SYM" and tok.text == "(":
            self.advance()
            inner = self.parse_poly_expr()
            self.expect("SYM", ")")
            return inner
        raise DslSyntaxError(
            f"unexpected {tok.text!r} in a polynomial", tok.line, tok.column,
            ["integer", "variable", "("],
        )


def parse(source):
    """Parse a script; raises DslSyntaxError with position on bad input."""
    return Parser(source).parse_script()


def parse_poly_text(text):
    """Parse a standalone polynomial expression."""
    p = Parser(text)
    node = p.parse_poly_expr()
    if p.peek().kind != "EOF":
        tok = p.peek()
        raise DslSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return node


def parse_ring_text(text):
    p = Parser(text)
    ring = p.parse_ring_expr()
    if p.peek().kind != "EOF":
        tok = p.peek()
        raise DslSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return ring


# ---------------------------------------------------------------------------
# evaluation into algebra objects
# ---------------------------------------------------------------------------

def build_domain(expr: DomainExpr):
    from . import arith

    if expr.kind == "ZZ":
        return arith.ZZ
    if expr.kind == "QQ":
        return arith.QQ
    if expr.kind == "Zmod":
        if expr.modulus < 2:
            # Zmod(1) is the zero ring; ring expressions keep it and ZZ/0 out
            raise UnsupportedDomain("modulus must be >= 2")
        return arith.Zmod(expr.modulus)
    if expr.kind == "GF":
        return arith.GF(expr.modulus)
    # GF(q, pi(t)): read the modulus as a dense polynomial in one variable
    fac = arith.prime_factors(expr.modulus)
    if len(fac) != 1:
        raise DslSyntaxError(f"{expr.modulus} is not a prime power")
    p, r = fac[0]
    base = arith.GF(p)
    names = sorted(_poly_vars(expr.poly)) or ["t"]
    if len(names) != 1:
        raise DslSyntaxError("extension modulus must be univariate")
    from .multipoly import PolyRing

    ring = PolyRing(base, (names[0],))
    dense = arith.poly_to_dense(eval_poly(expr.poly, ring))
    return arith.ExtField(base, dense, var=names[0])


def _poly_vars(node):
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, (IntLit, FracLit)):
        return set()
    if isinstance(node, Neg):
        return _poly_vars(node.body)
    if isinstance(node, Pow):
        return _poly_vars(node.base)
    if isinstance(node, BinOp):
        return _poly_vars(node.left) | _poly_vars(node.right)
    return set()


def eval_poly(node, ring):
    """Evaluate a polynomial AST inside a PolyRing."""
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
        return -eval_poly(node.body, ring)
    if isinstance(node, Pow):
        return eval_poly(node.base, ring) ** node.exponent
    if isinstance(node, BinOp):
        left = eval_poly(node.left, ring)
        right = eval_poly(node.right, ring)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        return left * right
    raise DslSyntaxError(f"bad polynomial node {node!r}")


def build_ring(expr: RingExpr):
    """A PresentedAlgebra from a ring expression."""
    from .algebra import PresentedAlgebra
    from .multipoly import PolyRing

    domain = build_domain(expr.domain)
    ring = PolyRing(domain, expr.names)
    rels = [eval_poly(r, ring) for r in expr.relations]
    return PresentedAlgebra(domain, expr.names, rels)
