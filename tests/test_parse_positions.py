"""Syntax errors keep their message, position and expected list.

The fragments are the malformed ones of ``test_grammar_fuzz.py``, inside a
statement and as the ring and polynomial texts that flags carry.
"""

import pytest

from scheme_explorer import dsl
from scheme_explorer.errors import DslSyntaxError

CASES = [
    ('parse', 'poly QQ[X] : X^;',
     "unexpected SYM ';' at line 1, column 16 (expected INT)", 1, 16, ['INT']),
    ('parse', 'poly QQ[X] : (X;',
     "unexpected SYM ';' at line 1, column 16 (expected ))", 1, 16, [')']),
    ('parse', 'poly QQ[X] : X**2;',
     "unexpected '*' in a polynomial at line 1, column 16 (expected integer, variable, ()",
     1, 16, ['integer', 'variable', '(']),
    ('parse', 'poly QQ[X] : X^-1;',
     "unexpected SYM '-' at line 1, column 16 (expected INT)", 1, 16, ['INT']),
    ('parse', 'ring A = ZZ[X;',
     "unexpected SYM ';' at line 1, column 14 (expected ])", 1, 14, [']']),
    ('parse', 'ideal I = (X, X^) in QQ[X];',
     "unexpected SYM ')' at line 1, column 17 (expected INT)", 1, 17, ['INT']),
    ('parse', 'sheaf check --space spec(ZZ/12;',
     "unexpected SYM '(' at line 1, column 25 (expected ;, --space)", 1, 25, [';', '--space']),
    ('parse', 'proj points --space P^2GF(2));',
     "unexpected SYM '^' at line 1, column 22 (expected ;, --space)", 1, 22, [';', '--space']),
    ('parse', 'sheaf check --space "spec(ZZ/12);',
     'unterminated string at line 1, column 21', 1, 21, []),
    ('parse', 'poly QQ[X] : ½;',
     "unexpected character '½' at line 1, column 14", 1, 14, []),
    ('parse', 'spec describe ZZ --½ 3;',
     "unexpected character '½' at line 1, column 20", 1, 20, []),
    ('parse', 'ring A = ZZ[X];\n\npoly A :\n  X^;',
     "unexpected SYM ';' at line 4, column 5 (expected INT)", 4, 5, ['INT']),
    ('parse', 'ring A = ZZ[X]; # comment\nsheaf check --space "spec(ZZ/12)\n  \nring B = QQ[X',
     'unterminated string at line 2, column 21', 2, 21, []),
    ('parse', 'ring A = ZZ[X];\r\n\tpoly A : (X\n',
     "unexpected EOF '' at line 3, column 1 (expected ))", 3, 1, [')']),
    ('parse_ring_text', 'ZZ[X',
     "unexpected EOF '' at line 1, column 5 (expected ])", 1, 5, [']']),
    ('parse_ring_text', 'spec(ZZ/12',
     "unknown domain 'spec' at line 1, column 1 (expected ZZ, QQ, ZZ/n, GF(q))",
     1, 1, ['ZZ', 'QQ', 'ZZ/n', 'GF(q)']),
    ('parse_ring_text', 'P^2GF(2))',
     "unknown domain 'P' at line 1, column 1 (expected ZZ, QQ, ZZ/n, GF(q))",
     1, 1, ['ZZ', 'QQ', 'ZZ/n', 'GF(q)']),
    ('parse_poly_text', 'X^',
     "unexpected EOF '' at line 1, column 3 (expected INT)", 1, 3, ['INT']),
    ('parse_poly_text', '(X',
     "unexpected EOF '' at line 1, column 3 (expected ))", 1, 3, [')']),
    ('parse_poly_text', 'X**2',
     "unexpected '*' in a polynomial at line 1, column 3 (expected integer, variable, ()",
     1, 3, ['integer', 'variable', '(']),
    ('parse_poly_text', 'X^-1',
     "unexpected SYM '-' at line 1, column 3 (expected INT)", 1, 3, ['INT']),
    ('parse_poly_text', 'X Y)',
     "trailing input ')' at line 1, column 4", 1, 4, []),
]


@pytest.mark.parametrize("entry, source, message, line, column, expected", CASES)
def test_a_syntax_error_keeps_its_message_and_position(entry, source, message, line, column,
                                                        expected):
    with pytest.raises(DslSyntaxError) as info:
        getattr(dsl, entry)(source)
    err = info.value
    assert (str(err), err.line, err.column, err.expected) == (message, line, column, expected)
