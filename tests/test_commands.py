"""The command table: the parser enforces names, Command.flag checks values.

Also the token pattern against the hand-written scanner it replaced, the
argv failures of ``main``, and that the README and the CLI's dispatch agree
with ``dsl.COMMANDS``.
"""

import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from scheme_explorer import cli, dsl
from scheme_explorer.cli import run_script
from scheme_explorer.errors import DslSyntaxError

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "scheme_explorer.cli", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "PYTHONDONTWRITEBYTECODE": "1"},
    )


def run_json(statement, capsys):
    """The exit status of ``main`` on one statement, and its stderr (status 2)
    or its first JSON record; any other exception fails the test."""
    status = cli.main(["exec", statement, "--format", "json"])
    out, err = capsys.readouterr()
    if status == 2:
        return 2, err
    return status, json.loads(out)["results"][0]


# ---------------------------------------------------------------------------
# names are grammar: exit 2 with the names the table allows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("statement, names", [
    ("spec describe ZZ[T] --boud 3;", ["--bound"]),
    ("spec describe ZZ[T] --bound 3 --bound 4;", ["--bound"]),
    ("proj foo;", ["charts", "conic", "points", "sections", "segre", "veronese"]),
    ('fiber A --map "ZZ->ZZ[T]";', [";", "--at", "--bound", "--map"]),
    ('proj charts --graded "QQ[T0,T1]" --field "GF(5)";', ["--graded"]),
    ('proj points --field "GF(5)";', ["--space"]),
    ('sheaf check "spec(ZZ/12)";', [";", "--space"]),
    ("spec describe --bound 3;", ["ring"]),
])
def test_unknown_names_are_parse_errors_listing_the_allowed_ones(statement, names, capsys):
    status, stderr = run_json(statement, capsys)
    assert status == 2
    assert "parse error" in stderr and "column" in stderr
    assert f"(expected {', '.join(names)})" in stderr


def test_parse_errors_carry_the_position_of_the_offending_token():
    with pytest.raises(DslSyntaxError) as err:
        dsl.parse("ring A = ZZ[T];\nspec describe A --bound 3 --boud 4;")
    assert (err.value.line, err.value.column) == (2, 27)
    assert err.value.expected == ["--bound"]
    with pytest.raises(DslSyntaxError) as err:
        dsl.parse("spec describe ZZ[T] --bound 3 --bound 4;")
    assert "repeated flag --bound" in str(err.value)


def test_a_typo_no_longer_answers_a_different_question():
    """--boud used to run with the default bound 10 and exit 0."""
    proc = run_cli(["spec", "describe", "ZZ[T]", "--boud", "3"])
    assert proc.returncode == 2
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# values are semantics: invalid-argument records, exit 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("statement", [
    "proj segre --p 5;",
    "spec closure --point 5;",
    "fiber --map 5;",
    'fiber --map "ZZ->ZZ[T]" --at 5;',
    "normalize --ring 5 --ideal 1;",
    "proj points --space 3;",
    "sheaf check --space 3;",
])
def test_an_integer_where_text_is_expected_is_an_invalid_argument(statement, capsys):
    status, record = run_json(statement, capsys)
    assert status == 1
    assert record["error"]["code"] == "invalid-argument"
    assert "expects text" in record["error"]["message"]


@pytest.mark.parametrize("statement, message", [
    ('spec closure --ring "ZZ[T]" --fibers 3;', "spec closure needs --point"),
    ('fiber --at p=3;', "fiber needs --map"),
    ('normalize --ring "QQ[X]";', "normalize needs --ideal"),
    ('proj charts;', "proj charts needs --graded"),
    ('sheaf sections --space "spec(ZZ/12)" --at "x";', "--at expects an integer, got 'x'"),
    ('sheaf twist --cover "X,D(2)" --cocycle "u";', "--cocycle expects an integer, got 'u'"),
    ("proj sections --n 2 --d x;", "--d expects an integer, got 'x'"),
    ("spec describe ZZ[T] --bound ²;", "--bound expects a nonnegative integer, got '²'"),
    ("spec describe ZZ[T] --bound;", "--bound expects a nonnegative integer, got ''"),
])
def test_missing_and_wrongly_typed_values_are_invalid_arguments(statement, message, capsys):
    status, record = run_json(statement, capsys)
    assert status == 1
    assert record["error"] == {"code": "invalid-argument", "message": message}


def test_a_non_decimal_digit_is_not_an_integer(capsys):
    """str.isdigit('²') is true, but int('²') raises ValueError."""
    status, stderr = run_json("poly QQ[X] : X^²;", capsys)
    assert status == 2 and "unexpected NAME '²'" in stderr
    assert [t.kind for t in dsl.tokenize("٣ ² x²")] == ["INT", "NAME", "NAME", "EOF"]
    assert dsl.parse("spec describe ZZ[T] --bound ٣;").statements[0].flag("bound") == 3


def test_defaults_are_not_written_into_the_statement():
    cmd = dsl.parse("fiber --map \"ZZ->ZZ[T]\";").statements[0]
    assert cmd.flags == (("map", "ZZ->ZZ[T]"),)
    assert (cmd.flag("at"), cmd.flag("bound")) == ("p=2", 6)
    assert cmd.to_text() == 'fiber --map "ZZ->ZZ[T]";'


def test_k_t_enumeration_has_a_budget():
    """With the default --bound 10, GF(25)[X] had 25 + ... + 25^10 candidates."""
    start = time.perf_counter()
    records, had_error = run_script(dsl.parse("spec describe GF(25,t^2+2)[X];"))
    assert time.perf_counter() - start < 1.0
    assert had_error
    assert records[0]["error"]["code"] == "budget-exceeded"


def test_budget_is_checked_before_summing_every_degree():
    """2 + 4 + ... + 2^(10^9) is never formed: the sum stops at the budget."""
    start = time.perf_counter()
    records, _ = run_script(dsl.parse("spec describe GF(2)[X] --bound 1000000000;"))
    assert time.perf_counter() - start < 1.0
    assert records[0]["error"]["code"] == "budget-exceeded"


@pytest.mark.parametrize("statement", [
    'proj points --space "P^3(GF(31))";',  # 31^4 coordinate tuples
    "spec describe ZZ[T] --bound 40;",  # 81^2 + 81^3 height-one candidates
    "spec describe ZZ --bound 1000000000;",  # 10^9 integers to sieve
], ids=["proj-points", "zzt-height-one", "zz-primes"])
def test_exhaustive_enumerations_refuse_before_listing(statement):
    start = time.perf_counter()
    records, had_error = run_script(dsl.parse(statement))
    assert time.perf_counter() - start < 1.0
    assert had_error
    assert records[0]["error"]["code"] == "budget-exceeded"


def test_spec_zz_past_the_sieve_budget_exits_1(capsys):
    start = time.perf_counter()
    status, record = run_json("spec describe ZZ --bound 1000000000;", capsys)
    assert time.perf_counter() - start < 1.0
    assert status == 1 and record["error"]["code"] == "budget-exceeded"


def test_the_readme_fiber_example_is_within_the_budget():
    """Its default --bound 6 gives 137,256 candidates over GF(7): the generic
    point and, by Gauss's count, 7 + 21 + 112 + 588 + 3,360 + 19,544 closed
    points."""
    statement = 'fiber --map "ZZ->ZZ[T]" --at p=7;'
    assert statement in (REPO / "README.md").read_text(encoding="utf-8")
    records, had_error = run_script(dsl.parse(statement))
    assert not had_error, records
    assert len(records[0]["data"]["points"]) == 23_633


def test_the_gf4_line_at_bound_7_lists_gauss_count():
    """The generic point and, by Gauss's count, 4 + 6 + 20 + 60 + 204 + 670 +
    2,340 closed points: one per monic irreducible of degree <= 7 over
    GF(4), each listed once, by degree."""
    records, had_error = run_script(dsl.parse("spec describe GF(4,t^2+t+1)[X] --bound 7;"))
    assert not had_error, records
    points = records[0]["data"]["points"]
    assert len(points) == 3_305
    assert points[0]["description"] == "eta"
    gens = [pt["ideal_generators"][0] for pt in points[1:]]
    assert len(set(gens)) == len(gens)
    degrees = [1 if g.split(" ")[0] == "X" else int(g.split(" ")[0][2:]) for g in gens]
    assert degrees == sorted(degrees)
    assert [degrees.count(d) for d in range(1, 8)] == [4, 6, 20, 60, 204, 670, 2_340]


# ---------------------------------------------------------------------------
# argv failures of main
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ["--format", "jsn", "exec", "poly QQ[X] : X;"],
    ["run", "--script", "scripts/no_such_script.scm"],
    ["run", "--script", "scripts"],
])
def test_argv_failures_exit_2_with_a_diagnostic(args):
    proc = run_cli(args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip()
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# docs and dispatch cannot drift from the table
# ---------------------------------------------------------------------------

def table_rows():
    kind_names = {dsl.COUNT: "COUNT", dsl.INT: "INT", dsl.TEXT: "TEXT"}
    return {
        (group, action): {
            name: (kind_names[kind], None if default is None else str(default))
            for name, (kind, default) in flags.items()
        }
        for group, actions in dsl.COMMANDS.items()
        for action, flags in actions.items()
    }


def test_readme_lists_exactly_the_commands_and_flags_of_the_table():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Statement language", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for row in re.findall(r"^\| `([a-z ]+?)(?: RING)?` \|(.*)\|$", section, re.M):
        words, cells = row
        group, _, action = words.partition(" ")
        flags = re.findall(r"`--(\w+)` (COUNT|INT|TEXT) (?:`([^`]*)`|required)", cells)
        assert len(flags) == cells.count("`--"), cells
        documented[group, action] = {name: (kind, default or None)
                                     for name, kind, default in flags}
    assert documented == table_rows()


def test_dsl_docstring_lists_exactly_the_commands_and_flags_of_the_table():
    documented = {}
    for group, action, rest in re.findall(
            r"^    ([a-z]+)(?: ([a-z]+))?(?: RING)? +(--.*)$", dsl.__doc__, re.M):
        flags = re.findall(r'--(\w+) (COUNT|INT|TEXT)(?: "([^"]*)"| (\d+))?', rest)
        assert len(flags) == rest.count("--"), rest
        documented[group, action] = {name: (kind, quoted or number or None)
                                     for name, kind, quoted, number in flags}
    assert documented == table_rows()


def test_cli_dispatches_exactly_the_commands_of_the_table():
    assert set(cli._COMMANDS) == set(table_rows())


# ---------------------------------------------------------------------------
# the token pattern against the hand-written scanner it replaced
# ---------------------------------------------------------------------------

def hand_tokenize(source):
    """The character-at-a-time scanner that ``dsl.tokenize`` replaced."""
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
            tokens.append(("STRING", source[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if source.startswith("--", i) and i + 2 < n and source[i + 2].isalpha():
            j = i + 2
            while j < n and (source[j].isalnum() or source[j] in "_-"):
                j += 1
            tokens.append(("FLAG", source[i + 2:j], line, col))
            col += j - i
            i = j
            continue
        if source.startswith("->", i):
            tokens.append(("SYM", "->", line, col))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(("INT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("NAME", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "=;,()[]:^*+-/":
            tokens.append(("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


def scan(tokenizer, source):
    try:
        return [tuple(t) if isinstance(t, tuple) else (t.kind, t.text, t.line, t.column)
                for t in tokenizer(source)]
    except DslSyntaxError as err:
        return ("error", str(err), err.line, err.column)


def assert_same_scan(source):
    new, old = scan(dsl.tokenize, source), scan(hand_tokenize, source)
    if any(ch.isdigit() and not ch.isdecimal() for ch in source):
        return  # '²' was an INT that int() cannot read; it is now a NAME
    if new != old and new[0] != "error" and "#" in source.rsplit("\n", 1)[-1]:
        # the hand scanner did not advance the column over a comment, which
        # shows only in the column of the EOF after a comment on the last line
        assert new[:-1] == old[:-1] and new[-1][:3] == old[-1][:3], source
        return
    assert new == old, source


ALPHABET = (list("aXT_0129 =;,()[]:^*+-/>\"#\n\t") + ["--", "->", "--b", "²", "٣", "é",
                                                    "½", "\r", "\f", "ZZ", "GF"])


def test_token_pattern_matches_the_hand_scanner_on_random_strings():
    rng = random.Random(20261018)
    for _ in range(20000):
        assert_same_scan("".join(rng.choices(ALPHABET, k=rng.randrange(12))))


@pytest.mark.parametrize("script_path", sorted(SCRIPTS.glob("*.scm")))
def test_token_pattern_matches_the_hand_scanner_on_the_scripts(script_path):
    source = script_path.read_text(encoding="utf-8")
    assert scan(dsl.tokenize, source) == scan(hand_tokenize, source)


@pytest.mark.parametrize("source", [
    "", "x", "# only a comment", "x # trailing", "\"open", "a\n\"two\nlines\" b",
    "--bound 3", "--_x", "--½", "½", "x½", "-->", "3²", "2T", "é--é-", "\f",
])
def test_token_pattern_matches_the_hand_scanner_on_edge_cases(source):
    assert_same_scan(source)
