"""Statement language for the command-line workbench.

Statements end with ';' and come in a fixed set of shapes:

    ring A = ZZ[X]/(6*X^2+18*X-3);
    ideal I = (X*Y-1) in QQ[X,Y];
    poly QQ[X,Y] : X^2*Y - 3;
    specialize A over QQ, GF(2), GF(3), GF(5), GF(11);

The commands are ``COMMANDS``.  A flag's value is a COUNT (a nonnegative
integer), an INT or TEXT; a flag shown without a default is required:

    spec describe RING --bound COUNT 10
    spec closure   --ring TEXT "ZZ[T]" --point TEXT --fibers COUNT 0
    fiber          --map TEXT --at TEXT "p=2" --bound COUNT 6
    normalize      --ring TEXT --ideal TEXT
    proj charts    --graded TEXT
    proj points    --space TEXT "P^1(GF(2))"
    proj segre     --field TEXT "QQ" --p TEXT "[1:0]" --q TEXT "[1:0]"
    proj conic     --field TEXT "QQ" --p TEXT "[1:0]"
    proj veronese  --field TEXT "QQ" --p TEXT "[1:0]"
    proj sections  --field TEXT "QQ" --n COUNT 1 --d INT 1
    sheaf check    --space TEXT "spec(ZZ/12)"
    sheaf sections --space TEXT "spec(ZZ/12)" --at INT 1
    sheaf twist    --space TEXT "spec(ZZ/12)" --cover TEXT "X,X" --cocycle INT 1

The parser rejects an unknown action, an unknown or repeated flag, and a
positional argument anywhere but after ``spec describe``, which needs its
ring.  ``Command.flag`` checks a value's kind when the command reads it.

Domain literals: ZZ, QQ, ZZ/12, GF(7), GF(49,t^2+1).  Projective points
are written [a:b:c].  Parsing is total on this grammar and printing a parsed
script reparses to the same abstract syntax.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import arith
from .algebra import PresentedAlgebra
from .errors import DslSyntaxError, InvalidArgument, UnsupportedDomain
from .multipoly import PolyRing

# flag kinds, each named by the phrase its error message uses
COUNT = "a nonnegative integer"
INT = "an integer"
TEXT = "text"
_FIELD = {"field": (TEXT, "QQ")}
_POINT = {"p": (TEXT, "[1:0]")}
_SPACE = {"space": (TEXT, "spec(ZZ/12)")}

# group -> action word ("" for a group without one) -> flag -> (kind, default);
# a default of None makes the flag required.
COMMANDS = {
    "spec": {
        "describe": {"bound": (COUNT, 10)},
        "closure": {"ring": (TEXT, "ZZ[T]"), "point": (TEXT, None), "fibers": (COUNT, 0)},
    },
    "fiber": {"": {"map": (TEXT, None), "at": (TEXT, "p=2"), "bound": (COUNT, 6)}},
    "normalize": {"": {"ring": (TEXT, None), "ideal": (TEXT, None)}},
    "proj": {
        "charts": {"graded": (TEXT, None)},
        "points": {"space": (TEXT, "P^1(GF(2))")},
        "segre": {**_FIELD, **_POINT, "q": (TEXT, "[1:0]")},
        "conic": {**_FIELD, **_POINT},
        "veronese": {**_FIELD, **_POINT},
        "sections": {**_FIELD, "n": (COUNT, 1), "d": (INT, 1)},
    },
    "sheaf": {
        "check": _SPACE,
        "sections": {**_SPACE, "at": (INT, 1)},
        "twist": {**_SPACE, "cover": (TEXT, "X,X"), "cocycle": (INT, 1)},
    },
}
# the one command that takes a positional argument, a ring it cannot do without
_RING_POSITIONAL = ("spec", "describe")

# One alternative per token kind, tried in order.  \d is the decimal digits
# that int() reads; \w is str.isalnum() plus "_".
_TOKEN = re.compile(r"""
    (?P<NEWLINE>\n)
  | (?P<SKIP>[ \t\r]+|\#[^\n]*)
  | "(?P<STRING>[^"]*)"
  | --(?P<FLAG>[^\W\d_][\w-]*)
  | (?P<INT>\d+)
  | (?P<NAME>[^\W\d]\w*)
  | (?P<SYM>->|[=;,()\[\]:^*+\-/])
  | (?P<ERROR>.)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str   # NAME INT STRING SYM FLAG EOF
    text: str
    line: int
    column: int


def tokenize(source):
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind, text = m.lastgroup, m.group(m.lastgroup)
        column = m.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind == "ERROR" or kind in ("NAME", "FLAG") and not (
                text[0].isalpha() or text[0].isdigit() or text[0] == "_"):
            # a word may not start with a numeric character that is not a digit,
            # such as '½', though \w matches one
            bad = m.start(kind)
            message = ("unterminated string" if text == '"'
                       else f"unexpected character {source[bad]!r}")
            raise DslSyntaxError(message, line, bad - line_start + 1)
        elif kind != "SKIP":
            tokens.append(Token(kind, text, line, column))
    tokens.append(Token("EOF", "", line, len(source) - line_start + 1))
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
    flags: tuple = ()  # (name, value) pairs in source order; values str or int

    def flag(self, name):
        """The value of --name, or its default in ``COMMANDS``.

        Raises InvalidArgument when a required flag is missing or a value
        is not of the flag's kind.
        """
        kind, default = COMMANDS[self.group][self.action][name]
        value = dict(self.flags).get(name, default)
        if value is None:
            raise InvalidArgument(f"{self.group} {self.action}".rstrip() + f" needs --{name}")
        if isinstance(value, str) != (kind == TEXT) or (kind == COUNT and value < 0):
            raise InvalidArgument(f"--{name} expects {kind}, got {value!r}")
        return value

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

    def expect(self, kind, text=None, expected=None):
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            expected = expected or [text or kind]
            raise DslSyntaxError(
                f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.column, expected
            )
        return self.advance()

    def at_sym(self, text):
        tok = self.peek()
        return tok.kind == "SYM" and tok.text == text

    def slash_int(self):
        """The n of a following '/ n', consumed only when n is an integer."""
        if self.at_sym("/") and self.tokens[self.pos + 1].kind == "INT":
            self.pos += 2
            return int(self.tokens[self.pos - 1].text)
        return None

    def comma_list(self, rule):
        """One or more of ``rule``, separated by commas."""
        items = [rule()]
        while self.at_sym(","):
            self.advance()
            items.append(rule())
        return tuple(items)

    def parse_script(self):
        statements = []
        while self.peek().kind != "EOF":
            statements.append(self.parse_statement())
        return Script(tuple(statements))

    def parse_statement(self):
        tok = self.peek()
        rule = _STATEMENTS.get(tok.text) if tok.kind == "NAME" else None
        if rule is None:
            raise DslSyntaxError(f"unknown statement {tok.text!r}", tok.line, tok.column,
                                 sorted(_STATEMENTS))
        return rule(self)

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
        gens = self.comma_list(self.parse_poly_expr)
        self.expect("SYM", ")")
        self.expect("NAME", "in")
        ring = self.parse_ring_ref()
        self.expect("SYM", ";")
        return IdealDef(name, gens, ring)

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
        domains = self.comma_list(self.parse_domain_expr)
        self.expect("SYM", ";")
        return SpecializeCmd(ring, domains)

    def parse_command(self):
        group = self.advance().text
        actions = COMMANDS[group]
        action = ""
        if "" not in actions:
            tok = self.peek()
            if tok.kind != "NAME" or tok.text not in actions:
                raise DslSyntaxError(f"unknown {group} action {tok.text!r}",
                                     tok.line, tok.column, sorted(actions))
            action = self.advance().text
        allowed = actions[action]
        label = f"{group} {action}".rstrip()
        positional = ()
        tok = self.peek()
        if (group, action) == _RING_POSITIONAL:
            if tok.kind == "STRING":
                text = self.advance().text
                positional = (text if text.isidentifier() else parse_ring_text(text),)
            elif tok.kind == "NAME":
                positional = (self.parse_ring_ref(),)
            else:
                raise DslSyntaxError(f"{label} needs a ring", tok.line, tok.column, ["ring"])
        flags = {}
        while self.peek().kind == "FLAG":
            tok = self.advance()
            if tok.text not in allowed or tok.text in flags:
                problem = "repeated" if tok.text in flags else "unknown"
                raise DslSyntaxError(f"{problem} flag --{tok.text} for {label}",
                                     tok.line, tok.column, [f"--{n}" for n in sorted(allowed)])
            flags[tok.text] = self.parse_flag_value()
        # a positional argument fails here too: only spec describe takes one
        self.expect("SYM", ";", [";", *(f"--{n}" for n in sorted(allowed))])
        return Command(group, action, positional, tuple(flags.items()))

    def parse_flag_value(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return int(tok.text)
        if tok.kind == "SYM" and tok.text == "-":
            self.advance()
            return -int(self.expect("INT").text)
        if tok.kind == "STRING":
            self.advance()
            return tok.text
        if tok.kind == "NAME":
            # bare word or key=value
            word = self.advance().text
            if self.at_sym("="):
                self.advance()
                return f"{word}={self.expect('INT').text}"
            return word
        return ""

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
            names = self.comma_list(lambda: self.expect("NAME").text)
            self.expect("SYM", "]")
        if self.at_sym("/") and names:
            self.advance()
            self.expect("SYM", "(")
            relations = self.comma_list(self.parse_poly_expr)
            self.expect("SYM", ")")
        return RingExpr(domain, names, relations)

    def parse_domain_expr(self):
        tok = self.expect("NAME")
        if tok.text == "ZZ":
            n = self.slash_int()
            return DomainExpr("ZZ") if n is None else DomainExpr("Zmod", n)
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
            den = self.slash_int()
            return IntLit(int(tok.text)) if den is None else FracLit(int(tok.text), den)
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


_STATEMENTS = {
    "ring": Parser.parse_ring_def,
    "ideal": Parser.parse_ideal_def,
    "poly": Parser.parse_poly_stmt,
    "specialize": Parser.parse_specialize,
    **dict.fromkeys(COMMANDS, Parser.parse_command),
}


def parse(source):
    """Parse a script; raises DslSyntaxError with position on bad input."""
    return Parser(source).parse_script()


def _parse_whole(text, rule):
    p = Parser(text)
    node = rule(p)
    tok = p.peek()
    if tok.kind != "EOF":
        raise DslSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return node


def parse_poly_text(text):
    """Parse a standalone polynomial expression."""
    return _parse_whole(text, Parser.parse_poly_expr)


def parse_ring_text(text):
    return _parse_whole(text, Parser.parse_ring_expr)


# ---------------------------------------------------------------------------
# evaluation into algebra objects
# ---------------------------------------------------------------------------

def build_domain(expr: DomainExpr):
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
    domain = build_domain(expr.domain)
    ring = PolyRing(domain, expr.names)
    rels = [eval_poly(r, ring) for r in expr.relations]
    return PresentedAlgebra(domain, expr.names, rels)
