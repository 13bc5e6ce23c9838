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
script reparses to the same abstract syntax.  An integer of more digits
than ``int`` reads, and a polynomial that nests parentheses and signs past
``_NESTING_BUDGET``, are syntax errors.

Tokens are tuples (``Token``, a NamedTuple) read from one ``findall`` of
the token pattern; the syntax nodes of polynomials are slotted dataclasses
that compare and hash by value.  ``eval_poly`` walks a polynomial's syntax
on packed terms, one int per monomial (the order key above the packed
exponents of ``multipoly``): it multiplies atoms and merges sums itself, and
takes every other product and power from ``multipoly._product`` and
``multipoly._power``, the kernels of Poly arithmetic, building one Poly at
the end; a counted budget of term products and coefficient bits refuses a
runaway power with BudgetExceeded.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import add, mul, neg, not_, sub
from typing import NamedTuple

from . import arith, multipoly
from .algebra import PresentedAlgebra
from .errors import (BudgetExceeded, DslSyntaxError, ExponentOverflow, InvalidArgument,
                     UnsupportedDomain)
from .multipoly import Poly, PolyRing

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

# One match per token: the blanks before it, then the token, its
# alternatives tried in order (the last one matches only at the end).  \d is
# the decimal digits that int() reads; \w is str.isalnum() plus "_".
_TOKEN = re.compile(r"""([ \t\r]*)(
    \n | \#[^\n]* | "[^"]*" | --[^\W\d_][\w-]* | \d+ | [^\W\d]\w*
  | -> | [=;,()\[\]:^*+\-/] | . | \Z)""", re.VERBOSE)


class Token(NamedTuple):
    kind: str   # NAME INT STRING SYM FLAG EOF
    text: str
    line: int
    column: int


def _kind_of(first):
    r"""The kind of a token by its first character: a word may not start
    with a numeric character that is not a digit, such as '½', though \w
    matches one."""
    if first == "-":
        return "DASH"  # '-', '->' or a flag
    if first.isdecimal():
        return "INT"
    if first.isalpha() or first.isdigit() or first == "_":
        return "NAME"
    return "SYM" if first in "=;,()[]:^*+/" else "ERROR"


_KINDS = {chr(c): _kind_of(chr(c)) for c in range(128)}
_KINDS.update({"\n": "NEWLINE", "#": "SKIP", "": "SKIP", '"': "STRING"})
# a Token made without the Python frame of NamedTuple.__new__
_new_token = partial(tuple.__new__, Token)


def tokenize(source):
    tokens = []
    line, line_start, pos = 1, 0, 0
    for blanks, text in _TOKEN.findall(source):
        start = pos + len(blanks)
        pos = start + len(text)
        kind = _KINDS.get(text[:1]) or _kind_of(text[0])
        if kind == "DASH":
            if len(text) > 2 and text[1] == "-":
                if _kind_of(text[2]) != "NAME":
                    raise DslSyntaxError(f"unexpected character {text[2]!r}", line,
                                         start - line_start + 3)
                kind, text = "FLAG", text[2:]
            else:
                kind = "SYM"
        elif kind == "NEWLINE":
            line, line_start = line + 1, pos
            continue
        elif kind == "SKIP":
            continue
        elif kind == "STRING":
            if len(text) == 1:
                raise DslSyntaxError("unterminated string", line, start - line_start + 1)
            text = text[1:-1]
        elif kind == "ERROR":
            raise DslSyntaxError(f"unexpected character {text[0]!r}", line,
                                 start - line_start + 1)
        elif kind == "INT" and 0 < sys.get_int_max_str_digits() < len(text):
            raise DslSyntaxError(f"an integer of {len(text)} digits is too long", line,
                                 start - line_start + 1)
        tokens.append(_new_token((kind, text, line, start - line_start + 1)))
    tokens.append(Token("EOF", "", line, len(source) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# abstract syntax
# ---------------------------------------------------------------------------

# The nodes of a polynomial compare and hash by value; they are slotted, not
# frozen, since a frozen dataclass pays an object.__setattr__ per field in
# every construction.
_node = dataclass(slots=True, unsafe_hash=True)


@_node
class IntLit:
    value: int

    def to_text(self):
        return str(self.value)


@_node
class FracLit:
    numerator: int
    denominator: int

    def to_text(self):
        return f"{self.numerator}/{self.denominator}"


@_node
class Var:
    name: str

    def to_text(self):
        return self.name


@_node
class Neg:
    body: object

    def to_text(self):
        return f"-{_wrap(self.body)}"


@_node
class Pow:
    base: object
    exponent: int

    def to_text(self):
        return f"{_wrap(self.base)}^{self.exponent}"


@_node
class BinOp:
    op: str
    left: object
    right: object

    def to_text(self):
        # the operations of one precedence down the left operands, in a loop:
        # a sum or product of thousands of terms prints without recursion
        chain, node = _left_chain(self)
        if self.op == "*":
            return "*".join([_wrap(node)] + [_wrap(n.right) for n in chain])
        return node.to_text() + "".join(f" {n.op} {_wrap(n.right, '+-')}" for n in chain)


def _left_chain(node):
    """The BinOps of ``node``'s precedence down its left operands, innermost
    first, and the left operand below them."""
    ops = "*" if node.op == "*" else "+-"
    chain = []
    while type(node) is BinOp and node.op in ops:
        chain.append(node)
        node = node.left
    chain.reverse()
    return chain, node


def _wrap(node, ops="+-*"):
    """The text of an operand, parenthesized when it is a negation or an
    operation in ``ops``."""
    if type(node) is Neg or type(node) is BinOp and node.op in ops:
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

# Parentheses and signs that one polynomial may nest, each a level of the
# parser's, the printer's and the evaluator's recursion; a sum or product
# of any length is walked in a loop.  The scripts, the benchmark decks and
# the tests nest at most 2 deep; at 250 nested parentheses the parser
# would pass Python's recursion limit.
_NESTING_BUDGET = 200


class Parser:
    def __init__(self, source):
        self.tokens = tokenize(source)
        # the text of each SYM token, None for the others: what most
        # decisions of the polynomial rules read
        self.syms = [t.text if t.kind == "SYM" else None for t in self.tokens]
        self.pos = 0
        self.nesting = 0

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
        return self.syms[self.pos] == text

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
        gens = self.parse_poly_list()
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
            relations = self.parse_poly_list()
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

    def parse_poly_list(self):
        """'(' P, ... ')': the generators of an ideal or the relations of a ring."""
        self.expect("SYM", "(")
        polys = self.comma_list(self.parse_poly_expr)
        self.expect("SYM", ")")
        return polys

    def parse_poly_expr(self):
        node = self.parse_term()
        syms = self.syms
        while (op := syms[self.pos]) == "+" or op == "-":
            self.pos += 1
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        syms, tokens = self.syms, self.tokens
        while True:
            sym = syms[self.pos]
            if sym == "*":
                self.pos += 1
            # juxtaposition: 2T, 3(T+1), T(T-1) read as products
            elif sym != "(" and tokens[self.pos].kind != "NAME":
                return node
            node = BinOp("*", node, self.parse_factor())

    def parse_factor(self):
        if self.nesting > _NESTING_BUDGET:
            tok = self.tokens[self.pos - 1]
            raise DslSyntaxError(f"a polynomial nests more than {_NESTING_BUDGET} "
                                 "parentheses and signs", tok.line, tok.column)
        if self.syms[self.pos] == "-":
            self.pos += 1
            self.nesting += 1
            node = Neg(self.parse_factor())
            self.nesting -= 1
            return node
        atom = self.parse_atom()
        if self.syms[self.pos] == "^":
            self.pos += 1
            return Pow(atom, int(self.expect("INT").text))
        return atom

    def parse_atom(self):
        tok = self.tokens[self.pos]
        if tok.kind == "INT":
            self.pos += 1
            den = self.slash_int()
            return IntLit(int(tok.text)) if den is None else FracLit(int(tok.text), den)
        if tok.kind == "NAME":
            self.pos += 1
            return Var(tok.text)
        if self.syms[self.pos] == "(":
            self.pos += 1
            self.nesting += 1
            inner = self.parse_poly_expr()
            self.expect("SYM", ")")
            self.nesting -= 1
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


def parse_ideal_text(text):
    """Parse the generators '(P, ...)' of an ideal."""
    return _parse_whole(text, Parser.parse_poly_list)


def parse_domain_text(text):
    return _parse_whole(text, Parser.parse_domain_expr)


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
    # GF(q, pi(t)): pi is read in (ZZ/q)[t], which maps onto GF(p)[t] for
    # the prime p | q, and GFq checks q and the degree of pi; the variables
    # of pi are the words of its printed form
    names = sorted({tok.text for tok in tokenize(expr.poly.to_text())
                    if tok.kind == "NAME"}) or ["t"]
    if len(names) != 1:
        raise DslSyntaxError("extension modulus must be univariate")
    ring = PolyRing(arith.Zmod(expr.modulus), tuple(names))
    modulus = arith.poly_to_dense(eval_poly(expr.poly, ring))
    return arith.GFq(expr.modulus, modulus, var=names[0])


# The work that one eval_poly may do, counted rather than timed, before each
# product that ``multipoly._product`` makes: its term products, len(a) *
# len(b), and over ZZ and QQ the bits of a coefficient product, estimated as
# the sum of the factors' largest bit lengths; a product of two terms counts
# its bits alone.  The scripts and benchmark decks take no term products and
# at most 6 bits; the largest test input, a sixth power of a product of sums
# over QQ, takes 5,549 term products and 493 bits.  Near the bounds, on a
# 2-core Intel Xeon, a product of two 1,000-term sums in x and in y (10^6
# term products and terms) takes about 0.7 s over ZZ and over ZZ/6, and
# (x/2 + 2*y/3 + 5*z/7 + 1)^40 over QQ, whose Fraction products cost more,
# is refused after about 4 s.
TERM_PRODUCTS = 1 << 20
COEFF_BITS = 1 << 20
_OVERFLOW = "a product has an exponent of 2^31 or more"
_TOO_MANY_BITS = f"expanding the polynomial makes a coefficient of more than {COEFF_BITS} bits"


def eval_poly(node, ring):
    """Evaluate a polynomial AST inside a PolyRing (``_Walk``), building one
    Poly.  Raises DslSyntaxError for an unknown variable, ExponentOverflow
    for an exponent of 2^31 or more, and BudgetExceeded past TERM_PRODUCTS
    term products or COEFF_BITS bits.
    """
    v = _Walk(ring).value(node)
    if v is None:
        return ring.zero()
    mons, coeffs = _packed(v)
    if isinstance(ring.domain, arith.RationalField):
        coeffs = tuple([c if type(c) is Fraction else Fraction(c) for c in coeffs])
    return Poly(ring, (mons, coeffs))


def _packed(v):
    """The packed terms of a nonzero value of ``_Walk``."""
    return ((v[0],), (v[1],)) if type(v) is tuple else v


class _Walk:
    """The walk over a polynomial's syntax, on the packed terms of one
    PolyRing: a monomial is one int of ``multipoly._Packer``, the order key
    above the packed exponents.  A value is None (zero), one term, a tuple
    (m, c, bits), or a list [monomials, coefficients] of two terms or more,
    leading term first; bits is the bit length of c over ZZ and QQ
    (``_bits``) and 0 elsewhere.

    A product of atoms is made here, one term from two, and a sum merges
    into one dict, sorted once.  Every other product and power is
    ``multipoly._product`` and ``multipoly._power``, the kernels of Poly
    arithmetic, so the same inputs raise ExponentOverflow; the budget is
    counted before each product.  Over ZZ and QQ coefficients are ints and
    Fractions under the operators, and become Fractions over QQ at the end.
    """

    def __init__(self, ring):
        dom = ring.domain
        pk = ring.packer
        self.ring, self.dom, self.pk = ring, dom, pk
        self.gens, self.guard = pk.gens, pk.guard
        self.work = 0
        if isinstance(dom, (arith.IntegerRing, arith.RationalField)):
            self.add, self.sub, self.mul, self.neg = add, sub, mul, neg
            self.is_zero, self.from_int, self.bits = not_, int, _bits
        else:
            self.add, self.sub, self.mul, self.neg = dom.add, dom.sub, dom.mul, dom.neg
            self.is_zero, self.from_int, self.bits = dom.is_zero, dom.from_int, _no_bits
        self.one = self.term(0, self.from_int(1))

    def term(self, m, c):
        return None if self.is_zero(c) else (m, c, self.bits(c))

    def value(self, node):
        t = type(node)
        if t is BinOp:
            if node.op != "*":
                return self.sum(node)
            chain, node = _left_chain(node)
            v = self.value(node)
            for n in chain:
                v = self.times(v, self.value(n.right))
            return v
        if t is Var:
            i = self.ring._index.get(node.name)
            if i is None:
                raise DslSyntaxError(f"unknown variable {node.name!r} in {self.ring}")
            one = self.one
            return one and (self.gens[i], one[1], one[2])
        if t is IntLit:
            return self.term(0, self.from_int(node.value))
        if t is Pow:
            return multipoly._power(self.value(node.base), node.exponent, self.one, self.times)
        if t is Neg:
            v = self.value(node.body)
            if type(v) is tuple:
                return (v[0], self.neg(v[1]), v[2])
            return v and [v[0], tuple(map(self.neg, v[1]))]
        if t is FracLit:
            dom = self.dom
            num = dom.from_int(node.numerator)
            return self.term(0, dom.mul(num, dom.inv(dom.from_int(node.denominator))))
        raise DslSyntaxError(f"bad polynomial node {node!r}")

    def sum(self, node):
        """The terms of a sum, merged into one dict, left operands first;
        the zeros dropped, and sorted once."""
        add, sub, neg, is_zero = self.add, self.sub, self.neg, self.is_zero
        d = {}
        stack = [(node, False)]
        while stack:
            node, negate = stack.pop()
            t = type(node)
            if t is BinOp and node.op != "*":
                stack.append((node.right, negate != (node.op == "-")))
                stack.append((node.left, negate))
            elif t is Neg:
                stack.append((node.body, not negate))
            elif (v := self.value(node)) is not None:
                for m, c in (v[:2],) if type(v) is tuple else zip(*v):
                    if m in d:
                        d[m] = sub(d[m], c) if negate else add(d[m], c)
                    else:
                        d[m] = neg(c) if negate else c
        for m in [m for m, c in d.items() if is_zero(c)]:
            del d[m]
        if len(d) > 1:
            mons = sorted(d, reverse=True)
            return [tuple(mons), tuple([d[m] for m in mons])]
        return self.term(*d.popitem()) if d else None

    def times(self, a, b):
        if a is None or b is None:
            return None
        if type(a) is tuple and type(b) is tuple:
            m = a[0] + b[0]
            if m & self.guard:
                raise ExponentOverflow(_OVERFLOW)
            if a[2] + b[2] > COEFF_BITS:
                raise BudgetExceeded(_TOO_MANY_BITS)
            return self.term(m, self.mul(a[1], b[1]))
        a, b = _packed(a), _packed(b)
        bits = self.bits
        self.work += len(a[0]) * len(b[0])
        if self.work > TERM_PRODUCTS:
            raise BudgetExceeded(f"expanding the polynomial takes more than "
                                 f"{TERM_PRODUCTS} term products")
        if max(map(bits, a[1])) + max(map(bits, b[1])) > COEFF_BITS:
            raise BudgetExceeded(_TOO_MANY_BITS)
        dom = self.dom
        mons, coeffs = multipoly._product(a, b, dom, self.pk, multipoly._int_modulus(dom))
        if len(mons) > 1:
            return [mons, coeffs]
        return self.term(mons[0], coeffs[0]) if mons else None


def _bits(c):
    """The bit length of an int or a Fraction."""
    if type(c) is int:
        return c.bit_length()
    return c.numerator.bit_length() + c.denominator.bit_length()


def _no_bits(c):
    """The bits counted for an element of a finite domain: none."""
    return 0


def build_ring(expr: RingExpr):
    """A PresentedAlgebra from a ring expression."""
    domain = build_domain(expr.domain)
    ring = PolyRing(domain, expr.names)
    rels = [eval_poly(r, ring) for r in expr.relations]
    return PresentedAlgebra(domain, expr.names, rels)
