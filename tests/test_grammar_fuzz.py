"""Seeded fuzzing of the statement grammar.

Scripts are assembled from fixed fragments: the domains, rings and
polynomials of the documented corpus, some malformed variants of them, and
every statement shape.  Whatever the script, parsing either succeeds or
raises ``DslSyntaxError``, and running it yields one record per statement,
each failure carrying the code of an ``errors.SchemeError`` subclass; any
other exception escapes ``run_script`` and fails the test.

Enumerations are kept small: ``--bound`` <= 3, ``--fibers`` <= 5, finite
rings of at most 36 elements, and no polynomial ring over a field with more
than 11 elements.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scheme_explorer import dsl, errors
from scheme_explorer.cli import render_json, run_script

REPO = Path(__file__).resolve().parent.parent

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

CODES = {
    cls.code for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.SchemeError)
}

DOMAINS = ["ZZ", "QQ", "GF(2)", "GF(3)", "GF(5)", "GF(11)", "GF(25,t^2+2)",
           "ZZ/6", "ZZ/12", "ZZ/1", "ZZ/0", "GF(4)", "GF(6)", "GF(25,t^2+1)"]
RINGS = ["ZZ", "QQ", "GF(5)", "ZZ/10", "GF(25,t^2+2)", "ZZ[T]", "QQ[T]", "QQ[X]",
         "ZZ[X]/(6*X^2+18*X-3)", "QQ[X,Y]", "GF(5)[X]", "GF(5)[X]/(X)",
         "QQ[T0,T1,T2]/(T0*T2-T1^2)", "ZZ/6[T]", "ZZ[T]/(T^2+1)", "GF(5)[T,U]",
         "ZZ[S,T]", "ZZ[T,U]", "GF(5)[U,V,W]", "QQ[X,X]", "ZZ[X", "A", "B"]
POLYS = ["X", "X^2*Y - 3", "X*Y-1", "2*T-1", "T^2+1", "0", "1", "T+30*S", "X^2",
         "Y", "T0*T2-T1^2", "U^2*V+W^3-U*W+1", "T^2-T", "S*T-1", "X^3-X", "X^",
         "(X", "X**2", "X^-1"]
POINT_LABELS = ["eta", "xi", "x_5", ""]
FINITE = ["spec(ZZ/12)", "spec(ZZ/36)", "spec(ZZ/1)", "spec(ZZ/0)", "spec(ZZ/7)",
          "spec(ZZ/30)", "spec(GF(5)[e]/(e^2))", "spec(GF(5)[e]/(e^2+2))",
          "spec(GF(2)[e]/(e^2+e))", "spec(GF(5)[e]/(0))", "spec(GF(3)[e]/(e^3))",
          "ZZ/6", "spec(QQ)", "spec(ZZ[T])", "spec(ZZ/12"]
PROJ_POINTS = ["[1:2]", "[3:5]", "[2:3]", "[0:0]", "[2:3:1]", "[1/2:3]", "[0:1]",
               "[x:1]", "[01]", "[1:0]"]
SPACES = ["P^2(GF(5))", "P^1(GF(3))", "P^0(GF(2))", "P^1(ZZ/6)", "P^1(QQ)",
          "P^x(GF(2))", "P^2GF(2))"]
PRIMES = ["2", "3", "4", "5", "7", "x", "0"]


def fragment(options):
    return st.sampled_from(options)


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def shape(template, **parts):
    return st.fixed_dictionaries(parts).map(lambda d: template.format(**d))


STATEMENTS = st.one_of(
    shape("ring {name} = {ring};", name=fragment(["A", "B"]), ring=fragment(RINGS)),
    shape("ideal I = ({f}, {g}) in {ring};",
          f=fragment(POLYS), g=fragment(POLYS), ring=fragment(RINGS)),
    shape("poly {ring} : {f};", ring=fragment(RINGS), f=fragment(POLYS)),
    shape("specialize {ring} over {d1}, {d2};",
          ring=fragment(RINGS), d1=fragment(DOMAINS), d2=fragment(DOMAINS)),
    shape("spec describe {ring} --bound {b};", ring=fragment(RINGS), b=ints(-1, 3)),
    shape('spec closure --ring "{ring}" --point "{label},({f})" --fibers {n};',
          ring=fragment(RINGS), label=fragment(POINT_LABELS), f=fragment(POLYS),
          n=ints(-1, 5)),
    shape('fiber --map "{src}->{tgt}" --at p={p} --bound {b};',
          src=fragment(RINGS), tgt=fragment(RINGS), p=fragment(PRIMES),
          b=ints(0, 3)),
    shape('normalize --ring "{ring}" --ideal "({f})";',
          ring=fragment(RINGS), f=fragment(POLYS)),
    shape('proj charts --graded "{ring}";', ring=fragment(RINGS)),
    shape('proj points --space "{space}";', space=fragment(SPACES)),
    shape('proj segre --p "{p}" --q "{q}";',
          p=fragment(PROJ_POINTS), q=fragment(PROJ_POINTS)),
    shape('proj {map} --p "{p}";',
          map=fragment(["conic", "veronese"]), p=fragment(PROJ_POINTS)),
    shape("proj sections --n {n} --d {d};", n=ints(-1, 3), d=ints(-1, 3)),
    shape('sheaf check --space "{space}";', space=fragment(FINITE)),
    shape('sheaf sections --space "{space}" --at {a};',
          space=fragment(FINITE), a=ints(-2, 5)),
    shape('sheaf twist --space "{space}" --cover "X,D({f})" --cocycle {c};',
          space=fragment(FINITE), f=ints(0, 4), c=ints(-1, 2)),
)

SCRIPTS = st.lists(STATEMENTS, min_size=1, max_size=3).map(" ".join)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(SCRIPTS)
def test_every_failure_is_a_typed_error(source):
    try:
        script = dsl.parse(source)
    except errors.DslSyntaxError:
        return
    records, had_error = run_script(script)
    assert len(records) == len(script.statements)
    failures = [r["error"]["code"] for r in records if not r["ok"]]
    assert had_error == bool(failures)
    assert set(failures) <= CODES, source


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(SCRIPTS)
def test_the_json_writer_matches_json_dumps(source):
    try:
        script = dsl.parse(source)
    except errors.DslSyntaxError:
        return
    records, _ = run_script(script)
    oracle = json.dumps({"schema": 1, "results": records}, indent=2, sort_keys=True)
    assert render_json(records) == oracle + "\n", source


# Well-formed commands as (head, flags); the mutations below drop, misspell,
# repeat or retype one flag.  Dropping a flag brings in its default, so each
# base keeps enumerations small even then (GF(2)[T] under the default bound
# 10 has 2,046 candidates).
COMMANDS = [
    ("spec describe GF(2)[T]", [("bound", "2")]),
    ("spec closure", [("ring", '"ZZ[T]"'), ("point", '"eta,(2*T-1)"'), ("fibers", "3")]),
    ("fiber", [("map", '"ZZ->ZZ[T]"'), ("at", "p=3"), ("bound", "1")]),
    ("normalize", [("ring", '"QQ[X,Y]"'), ("ideal", '"(X*Y-1)"')]),
    ("proj charts", [("graded", '"QQ[T0,T1,T2]/(T0*T2-T1^2)"')]),
    ("proj points", [("space", '"P^1(GF(3))"')]),
    ("proj segre", [("field", '"GF(5)"'), ("p", '"[1:2]"'), ("q", '"[3:1]"')]),
    ("proj conic", [("p", '"[2:3]"')]),
    ("proj veronese", [("field", "QQ"), ("p", '"[1:2]"')]),
    ("proj sections", [("n", "2"), ("d", "2")]),
    ("sheaf check", [("space", '"spec(ZZ/12)"')]),
    ("sheaf sections", [("space", '"spec(ZZ/12)"'), ("at", "2")]),
    ("sheaf twist", [("space", '"spec(ZZ/12)"'), ("cover", '"X,D(2)"'), ("cocycle", "-1")]),
]


def misspell(name, k):
    i = k % len(name)
    edits = [name[:i] + name[i + 1:], name[:i] + name[i] + name[i:],
             name[:i] + "x" + name[i + 1:], name + "s"]
    return edits[k % len(edits)] or "x"


def retype(value, k):
    if value.lstrip("-").isdigit():
        return ['"' + value + '"', "word", "p=3", "-" + value.lstrip("-") + "1"][k % 4]
    return ["5", "-2", "0", '""'][k % 4]


def mutate(base, how, k):
    head, flags = base
    flags = list(flags)
    i = k % len(flags)
    name, value = flags[i]
    if how == "drop":
        del flags[i]
    elif how == "misspell":
        flags[i] = (misspell(name, k), value)
    elif how == "repeat":
        flags.insert(i + 1, (name, value))
    else:
        flags[i] = (name, retype(value, k))
    return head + "".join(f" --{n} {v}" for n, v in flags) + ";"


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(st.sampled_from(COMMANDS),
                  st.sampled_from(["drop", "misspell", "repeat", "retype"]),
                  st.integers(0, 11))
def test_mutated_flags_are_parse_errors_or_typed_errors(base, how, k):
    source = mutate(base, how, k)
    try:
        script = dsl.parse(source)
    except errors.DslSyntaxError:
        return
    cmd = script.statements[0]
    assert how != "repeat", source
    # a misspelling parses only when it is another flag of the same command
    if how == "misspell":
        assert misspell(base[1][k % len(base[1])][0], k) in dict(cmd.flags), source
    records, had_error = run_script(script)
    assert len(records) == 1
    failures = [r["error"]["code"] for r in records if not r["ok"]]
    assert had_error == bool(failures)
    assert set(failures) <= CODES, source


# Each example starts a process (about 0.15 s), so there are few of them.
@hypothesis.settings(max_examples=10, deadline=None, derandomize=True)
@hypothesis.given(st.lists(STATEMENTS, min_size=3, max_size=5).map(" ".join))
def test_the_cli_process_exits_0_1_or_2_without_a_traceback(tmp_path_factory, source):
    path = tmp_path_factory.mktemp("fuzz") / "script.scm"
    path.write_text(source, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "scheme_explorer.cli", "--format", "json",
         "run", "--script", str(path)],
        capture_output=True, text=True, cwd=REPO, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
    )
    assert "Traceback" not in proc.stderr, source
    try:
        script = dsl.parse(source)
    except errors.DslSyntaxError:
        assert (proc.returncode, proc.stdout) == (2, ""), source
        return
    records = json.loads(proc.stdout)["results"]
    assert len(records) == len(script.statements)
    assert proc.returncode == (0 if all(r["ok"] for r in records) else 1), source
