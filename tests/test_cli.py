"""DSL parsing, report generation, exit codes, golden-file stability."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from scheme_explorer import dsl
from scheme_explorer.cli import render_json, run_script
from scheme_explorer.errors import DslSyntaxError

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "scheme_explorer.cli", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return proc


def test_parse_counts_statements():
    script = dsl.parse("ring A = ZZ[T]; spec describe A --bound 5;")
    assert len(script.statements) == 2


def test_parse_ideal_definition():
    script = dsl.parse("ideal I = (6*X^2+18*X-3) in ZZ[X];")
    stmt = script.statements[0]
    assert isinstance(stmt, dsl.IdealDef)
    assert stmt.name == "I"


def test_parse_error_position():
    with pytest.raises(DslSyntaxError) as err:
        dsl.parse("ring = ;")
    assert err.value.column == 6
    assert err.value.line == 1


def test_round_trip_on_documented_corpus():
    corpus = [
        'ring A = ZZ[X]/(6*X^2+18*X-3);',
        'specialize A over QQ, GF(2), GF(3), GF(5), GF(11);',
        'spec describe ZZ[T] --bound 7;',
        'spec closure --ring "ZZ[T]" --point "eta,(2*T-1)" --fibers 20;',
        'ideal I = (X^2, Y) in QQ[X,Y];',
        'poly QQ[X,Y] : X^2*Y - 3;',
        'fiber --map "ZZ->ZZ[T]" --at p=7;',
        'normalize --ring "QQ[X,Y]" --ideal "(X*Y-1)";',
        'proj charts --graded "QQ[T0,T1,T2]/(T0*T2-T1^2)";',
        'proj points --space "P^2(GF(5))";',
        'proj segre --p "[1:2]" --q "[3:5]";',
        'proj sections --n 2 --d 2;',
        'sheaf check --space "spec(ZZ/12)";',
        'sheaf sections --space "spec(ZZ/12)" --at 2;',
        'ring B = GF(49,t^2+1)[X];',
    ]
    for line in corpus:
        script = dsl.parse(line)
        assert dsl.parse(script.to_text()) == script, line


def test_empty_script_gives_empty_report():
    records, had_error = run_script(dsl.parse(""))
    assert records == [] and not had_error


def test_run_reports_module_errors_and_continues():
    script = dsl.parse(
        'ring A = QQ[X]; normalize --ring "ZZ[X]" --ideal "(X)"; poly A : X;'
    )
    records, had_error = run_script(script)
    assert had_error
    assert [r["ok"] for r in records] == [True, False, True]
    assert records[1]["error"]["code"] == "non-field-base"


def test_cli_exit_codes():
    ok = run_cli(["exec", "poly QQ[X] : X;"])
    assert ok.returncode == 0
    query_error = run_cli(["exec", 'normalize --ring "ZZ[X]" --ideal "(X)";'])
    assert query_error.returncode == 1
    parse_error = run_cli(["exec", "ring = ;"])
    assert parse_error.returncode == 2
    assert "column 6" in parse_error.stderr


def test_cli_single_statement_words():
    proc = run_cli(["proj", "conic", "--p", "[2:3]", "--format", "json"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["schema"] == 1
    data = payload["results"][0]["data"]
    assert data["raw_image"] == "[4:6:9]"
    assert data["conic_check"] == "0"


def test_json_schema_tag_and_key_order():
    records, _ = run_script(dsl.parse("poly QQ[X] : X;"))
    text = render_json(records)
    payload = json.loads(text)
    assert payload["schema"] == 1
    assert text == render_json(records)  # byte-stable


@pytest.mark.parametrize("script_path", sorted(SCRIPTS.glob("*.scm")))
def test_golden_scripts_are_byte_identical(script_path):
    source = script_path.read_text(encoding="utf-8")
    records, had_error = run_script(dsl.parse(source))
    assert not had_error, records
    rendered = render_json(records)
    golden_path = GOLDEN / (script_path.stem + ".json")
    assert golden_path.exists(), f"golden file missing for {script_path.name}"
    assert rendered == golden_path.read_text(encoding="utf-8")
    # and a second in-process run is identical too
    records2, _ = run_script(dsl.parse(source))
    assert render_json(records2) == rendered


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps, its oracle
# ---------------------------------------------------------------------------

def dumps_oracle(records):
    return json.dumps({"schema": 1, "results": records}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("script_path", sorted(SCRIPTS.glob("*.scm")))
def test_the_json_writer_matches_json_dumps_on_the_golden_scripts(script_path):
    records, _ = run_script(dsl.parse(script_path.read_text(encoding="utf-8")))
    assert render_json(records) == dumps_oracle(records)


class Text(str):
    pass


class Count(int):
    pass


class Ratio(float):
    pass


class Rows(list):
    pass


class Table(dict):
    pass


EDGE_VALUES = [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[{}]]], (), ((),),
    "", "plain", "é ∞ 中文 🙂", "\x00\x01\x1f\x7f \t\n\r\b\f", '"quoted" \\ back\\slash /',
    0, -1, 2 ** 64, -(10 ** 40), 7 ** 200, True, False, None,
    0.0, -0.0, 1.5, -2.25, 1e300, 1e-300, 0.1 + 0.2, float("nan"), float("inf"), float("-inf"),
    (1, "two", [3.0, None]), {"z": 1, "a": [True, {"m": False}], "k": (None,)},
    {1: "int", 2: "two", -3: "negative"}, {True: "bool", False: 0}, {None: "none"},
    {0.5: "float", float("inf"): "inf", float("nan"): "nan", -0.0: "negative zero"},
    Text("subclass"), Count(5), Ratio(2.5), Rows([1, Rows([2])]),
    Table({"b": Table({"c": Text("d")}), "a": Count(-1)}), {Text("k"): Ratio(-0.0)},
    {Count(3): "int subclass key"},
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_the_json_writer_matches_json_dumps_on_edge_values(value):
    assert render_json(value) == dumps_oracle(value)
    assert render_json([value, {"nested": value}]) == dumps_oracle([value, {"nested": value}])


@pytest.mark.parametrize("value", [
    Fraction(1, 2), [1, Fraction(1, 2)], {"a": {"b": Fraction(3)}}, {(1, 2): "tuple key"},
    {"a": {frozenset(): 1}}, [object()], {1, 2}, {1: "unsortable", "b": "keys"},
], ids=repr)
def test_the_json_writer_raises_type_error_where_json_dumps_does(value):
    with pytest.raises(TypeError):
        dumps_oracle(value)
    with pytest.raises(TypeError):
        render_json(value)


def test_the_json_writer_matches_json_dumps_on_generated_values():
    """Nested dicts, lists and tuples, their subclasses, and leaves and keys
    of every JSON kind; the keys of one dict are all strings, all numbers
    or None, so that they sort."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    floats = st.floats(allow_nan=True, allow_infinity=True)
    strings = st.one_of(st.text(), st.text().map(Text))
    numbers = st.one_of(st.integers(), st.booleans(), floats,
                        st.integers().map(Count), floats.map(Ratio))
    leaves = st.one_of(strings, numbers, st.none())

    def containers(children):
        return st.one_of(
            st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
            st.lists(children, max_size=4).map(Rows),
            *(st.dictionaries(keys, children, max_size=4).map(kind)
              for keys in (strings, numbers, st.none()) for kind in (dict, Table)))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.recursive(leaves, containers, max_leaves=24))
    def check(value):
        assert render_json(value) == dumps_oracle(value)

    check()


def test_juxtaposition_multiplication_in_polynomials():
    for text, expected in [
        ("2T-1", "2*T - 1"),
        ("3(T+1)", "3*(T + 1)"),
        ("T(T-1)", "T*(T - 1)"),
    ]:
        ast = dsl.parse_poly_text(text)
        assert ast.to_text() == expected
        assert dsl.parse_poly_text(ast.to_text()) == ast
    records, err = run_script(dsl.parse(
        'spec closure --ring "ZZ[T]" --point "eta,(2T-1)" --fibers 7;'
    ))
    assert not err
    assert records[0]["data"]["closure"] == "V(2*T - 1)"


def test_quoted_ring_positional_from_argv():
    proc = run_cli(["spec", "describe", "ZZ[T]", "--bound", "3", "--format", "json"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"][0]["data"]["family"] == "ZZT"
    # quoted and bare forms parse to the same statement
    a = dsl.parse('spec describe "ZZ[T]" --bound 3;')
    b = dsl.parse("spec describe ZZ[T] --bound 3;")
    assert a == b


def test_sheaf_integers_map_into_quotient_rings():
    """--at and D(n) name the image n*1 of an integer in the finite ring."""
    records, had_error = run_script(dsl.parse(
        'sheaf sections --space "spec(GF(5)[e]/(e^2-1))" --at 2;'
        'sheaf twist --space "spec(GF(5)[e]/(e^2-1))" --cover "X,X" --cocycle 2;'
    ))
    assert not had_error, records
    data = records[0]["data"]
    assert data["gamma_size"] == data["localization_size"] == 25
    assert data["isomorphic"] is True
    assert records[1]["data"]["round_trip_class_ok"] is True


def test_sheaf_twist_cover_reads_integers_mod_n():
    """D(14), D(-9), D(-10) and D(15) are D(2), D(3), D(2) and D(3) on
    spec(ZZ/12); the twist of a cover has |A| = 12 global sections, and two
    opens that miss a point are refused."""
    records, had_error = run_script(dsl.parse(
        'sheaf twist --space "spec(ZZ/12)" --cover "D(14),D(-9)";'
        'sheaf twist --space "spec(ZZ/12)" --cover "D(-10),D(15)";'
        'sheaf twist --space "spec(ZZ/12)" --cover "D(14),D(-10)";'
        'sheaf twist --space "spec(ZZ/12)" --cover "X,D(x)";'
    ))
    assert had_error
    sections = [r["data"]["sections_global"] for r in records[:2]]
    assert sections == [12, 12]
    assert records[2]["error"] == {
        "code": "invalid-cover",
        "message": "cover 'D(14),D(-10)' does not cover the space",
    }
    assert records[3]["error"]["message"] == "bad cover member 'D(x)'"


def test_sheaf_on_zz0_is_a_typed_error():
    proc = run_cli(["exec", 'sheaf check --space "spec(ZZ/0)";', "--format", "json"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    error = json.loads(proc.stdout)["results"][0]["error"]
    assert error["code"] == "infinite-spectrum"


@pytest.mark.parametrize("statement", [
    "spec describe ZZ[T] --bound -3;",
    'spec closure --ring "ZZ[T]" --point "eta,(2*T-1)" --fibers -5;',
    'fiber --map "ZZ->ZZ[T]" --at p=4;',
    "ideal I = (X) in QQ[X,X];",
    'proj veronese --p "[2:3:1]";',
    "proj sections --n -1 --d 2;",
    'spec closure --ring "ZZ[T]" --point "eta";',
    'proj points --space "P^x(GF(2))";',
    'proj points --space "P^2GF(2))";',
    'proj points --space "P^-3(GF(2))";',
    'fiber --map "ZZ->ZZ[T]" --at "p=²";',
    'fiber --map "QQ->QQ[T]" --at p=5;',
    'fiber --map "QQ[T]->QQ[T]" --at p=5;',
    'fiber --map "ZZ/6->ZZ/6[T]" --at p=5;',
])
def test_out_of_domain_arguments_are_typed_errors(statement):
    proc = run_cli(["exec", statement, "--format", "json"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    error = json.loads(proc.stdout)["results"][0]["error"]
    assert error["code"] == "invalid-argument"


def test_fiber_of_a_field_of_characteristic_zero_over_a_prime_is_empty():
    """QQ[T] ⊗_ZZ F_5 = 0: no points, the zero ring."""
    records, had_error = run_script(dsl.parse('fiber --map "ZZ->QQ[T]" --at p=5;'))
    assert not had_error
    data = records[0]["data"]
    assert data["points"] == []
    assert data["fiber_ring"] == "GF(5)[T]/(1)"


@pytest.mark.parametrize("map_text, base_point, residue, fiber_ring", [
    ("ZZ[T]->ZZ[T,U]", "xi_5", "GF(5)(T)", "GF(5)(T)[U]"),
    ("GF(5)[T]->GF(5)[T,U]", "eta", "GF(5)(T)", "GF(5)(T)[U]"),
    ("GF(25,t^2+2)->GF(25,t^2+2)[T]", "x_5", "GF(25,t^2 + 2)", "GF(25,t^2 + 2)[T]"),
    ("GF(5)->GF(5)[T]", "x_5", "GF(5)", "GF(5)[T]"),
    ("ZZ/10->ZZ/10[T]", "x_5", "GF(5)", "GF(5)[T]"),
    ("ZZ->ZZ[T]", "x_5", "GF(5)", "GF(5)[T]"),
])
def test_fiber_at_p_is_taken_over_the_point_over_p(map_text, base_point, residue,
                                                    fiber_ring):
    """ZZ[T] lies over p at xi_p, k[T] of characteristic p at its generic
    point; the source's own extension field stays one copy in the fiber."""
    records, had_error = run_script(
        dsl.parse(f'fiber --map "{map_text}" --at p=5 --bound 1;')
    )
    assert not had_error
    data = records[0]["data"]
    assert data["base_point"]["description"] == base_point
    assert data["base_point"]["residue_field"] == residue
    assert data["fiber_ring"] == fiber_ring


def test_finite_ring_edge_cases_keep_their_answers():
    records, _ = run_script(dsl.parse(
        'sheaf check --space "spec(ZZ/1)";'
        "ring A = ZZ/1[X];"
        "ring B = ZZ/0[X];"
        'sheaf twist --space "spec(ZZ/12)" --cover "X,D(2)" --cocycle 0;'
    ))
    assert records[0]["data"] == {
        "kind": "sheaf-check",
        "space": "spec(ZZ/1)",
        "topology": {"points": [], "opens": [[]]},
        "is_sheaf": True,
        "stalks_preserved": True,
        "sections_per_open": [{"open": [], "count": 1}],
    }
    assert [r["error"] for r in records[1:]] == [
        {"code": "unsupported-domain", "message": "modulus must be >= 2"},
        {"code": "unsupported-domain", "message": "modulus must be >= 2"},
        {"code": "non-invertible-unit", "message": "0 is not invertible"},
    ]


def test_sheaf_space_with_a_zero_relation_is_a_typed_error():
    records, _ = run_script(dsl.parse('sheaf check --space "spec(GF(5)[e]/(0))";'))
    assert records[0]["error"] == {"code": "unsupported", "message": "modulus must be monic"}


def test_sheaf_space_relation_is_made_monic_over_the_prime_field():
    """2*e^2 + 1 and e^2 + 3 generate one ideal of GF(5)[e]; a unit relation
    gives the zero ring, answered as spec(ZZ/1) is."""
    records, had_error = run_script(dsl.parse(
        'sheaf check --space "spec(GF(5)[e]/(2*e^2+1))";'
        'sheaf check --space "spec(GF(5)[e]/(e^2+3))";'
        'sheaf check --space "spec(GF(5)[e]/(3))";'
        'sheaf check --space "spec(ZZ/1)";'
    ))
    assert not had_error, records
    data = [dict(r["data"], space=None) for r in records]
    assert data[0] == data[1]
    assert data[2] == data[3]


@pytest.mark.parametrize("statement, code", [
    ("spec describe B;", "undefined-ring"),
    ('fiber --map "ZZ->ZZ[T]" --at q=3;', "unsupported-location"),
    ('sheaf check --space "spec(QQ)";', "unsupported-space"),
    ('sheaf check --space "spec(GF(5)[e]/(e^2, e))";', "unsupported-space"),
    ('sheaf twist --space "spec(ZZ/6)" --cover "X,Y" --cocycle 1;', "invalid-cover"),
    ('sheaf twist --space "spec(ZZ/6)" --cover "X" --cocycle 1;', "invalid-cover"),
    # flag text is read by the grammar: unbalanced parentheses, a bracket
    # pair that is not exactly one, and a ring where a domain belongs
    ('normalize --ring "QQ[X,Y]" --ideal "(X*Y-1";', "syntax-error"),
    ('normalize --ring "QQ[X,Y]" --ideal "X*Y-1))";', "syntax-error"),
    ('spec closure --ring "ZZ[T]" --point "eta,2*T-1)))";', "syntax-error"),
    ('proj conic --p "[[2:3";', "invalid-argument"),
    ('proj conic --p "2:3]]]";', "invalid-argument"),
    ('proj conic --field "GF(5)[X]/(X)";', "syntax-error"),
    ('proj points --space "P^1(GF(2)[Y])";', "syntax-error"),
    # GF(q, pi) reads pi over ZZ/q before GFq checks q: ZZ/1 is the zero ring
    ("ring A = GF(1, t^2+1)[X];", "unsupported-domain"),
    ('proj points --space "P^1(GF(1, t))";', "unsupported-domain"),
    # the check fields of a point map evaluate a kernel found by
    # elimination, which needs a field: others are refused before the points
    ('proj segre --field ZZ --p "[1:2]" --q "[1:5]";', "non-field-base"),
    ('proj conic --field "ZZ/12" --p "[2:3]";', "non-field-base"),
    ('proj veronese --field ZZ --p "[1/2:3]";', "non-field-base"),
    # points are listed by normalization, which needs a field too
    ('proj points --space "P^1(ZZ/4)";', "non-field-base"),
    ('proj points --space "P^2(ZZ/6)";', "non-field-base"),
])
def test_cli_input_errors_carry_specific_codes(statement, code):
    records, had_error = run_script(dsl.parse(statement))
    assert had_error
    assert records[0]["error"]["code"] == code


def test_segre_over_the_integers_exits_1():
    proc = run_cli(["proj", "segre", "--field", "ZZ", "--p", "[1:2]", "--q", "[1:5]",
                    "--format", "json"])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["results"][0]["error"]["code"] == "non-field-base"


def _map_data(statement):
    records, had_error = run_script(dsl.parse(statement))
    assert not had_error, records
    return records[0]["data"]


def test_a_wrong_map_shows_in_its_check_fields(monkeypatch):
    """The check fields are the kernel generators evaluated at the image that
    ``proj`` computes, so a map with a wrong coordinate is caught: the raw
    Segre image [3:5:6:6] of [1:2] x [3:5] has Z01 Z10 - Z00 Z11 = 12, and
    a Veronese image with s1^2 in place of s1 s0 breaks Z01 - Z10."""
    from scheme_explorer import proj as pj

    segre = 'proj segre --p "[1:2]" --q "[3:5]";'
    veronese = 'proj veronese --field "GF(5)" --p "[2:3]";'
    assert _map_data(segre)["quadric_check"] == "0"
    assert _map_data(veronese)["symmetry_check"] == "0"

    def typo_segre(p, q):
        (s0, s1), (t0, t1) = p.coords, q.coords
        k = p.field
        return pj.ProjPoint(k, [k.mul(s0, t0), k.mul(s0, t1), k.mul(s1, t0), k.mul(s1, t0)])

    def typo_veronese(p):
        s0, s1 = p.coords
        k = p.field
        return pj.ProjPoint(k, [k.mul(s0, s0), k.mul(s0, s1), k.mul(s1, s1), k.mul(s1, s1)])

    monkeypatch.setattr(pj, "segre", typo_segre)
    monkeypatch.setattr(pj, "veronese", typo_veronese)
    assert _map_data(segre)["quadric_check"] == "12"
    data = _map_data(veronese)
    assert (data["raw_image"], data["symmetry_check"]) == ("[4:1:4:4]", "2")


def test_a_wrong_kernel_shows_in_its_check_field(monkeypatch):
    """A conic kernel eliminated with its last two images swapped is
    T0 T1 - T2^2, which is 24 - 81 = -57 at the raw image [4:6:9]."""
    from scheme_explorer import proj as pj

    monkeypatch.setattr(pj, "conic_kernel", lambda base: pj._monomial_kernel(
        base, ("T0", "T1", "T2"), ("S0", "S1"), [(0, 0), (1, 1), (0, 1)]))
    data = _map_data('proj conic --p "[2:3]";')
    assert (data["raw_image"], data["conic_check"]) == ("[4:6:9]", "-57")


def test_parentheses_inside_ideal_and_point_flags_group():
    records, had_error = run_script(dsl.parse(
        'normalize --ring "QQ[X,Y]" --ideal "((X+1)*(Y-1))"; '
        'spec closure --ring "ZZ[T]" --point "eta,((T+1)*(T-1))";'))
    assert not had_error
    assert records[0]["data"]["steps"][0]["chosen"] == "X*Y - X + Y - 1"
    assert records[1]["data"]["closure"] == "V(T^2 - 1)"


def test_closure_fibers_need_a_univariate_ring():
    """Read by its first variable alone, T + 30*S reduced to the constant 1
    mod 2, 3 and 5, and every fiber came back empty."""
    records, _ = run_script(dsl.parse(
        'spec closure --ring "ZZ[S,T]" --point "eta,(T+30*S)" --fibers 5;'
    ))
    assert records[0]["error"]["code"] == "unsupported-domain"


def test_closure_fibers_need_a_base_of_integers():
    """Over GF(5) there is no fiber over p; the error must not be about a
    map GF(5) -> GF(2) that the statement never asked for."""
    proc = run_cli(["exec", 'spec closure --ring "GF(5)[T]" --point "eta,(T^2+1)" --fibers 3;',
                    "--format", "json"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    error = json.loads(proc.stdout)["results"][0]["error"]
    assert error["code"] == "unsupported-domain"


@pytest.mark.parametrize("ring", ["GF(5)[T]", "ZZ[T,S]"])
def test_closure_fibers_check_the_ring_below_the_first_prime(ring):
    """--fibers 1 lists no prime, so no per-prime step ever saw the ring and
    the statement exited 0 with an empty table; --fibers 0 asks for no
    fibers and stays valid."""
    point = f'--ring "{ring}" --point "eta,(T^2+1)"'
    records, had_error = run_script(dsl.parse(f"spec closure {point} --fibers 1;"))
    assert had_error and records[0]["error"]["code"] == "unsupported-domain"
    records, had_error = run_script(dsl.parse(f"spec closure {point} --fibers 0;"))
    assert not had_error and "fibers" not in records[0]["data"]


@pytest.mark.parametrize("statement", [
    'fiber --map "QQ[X,Y]->QQ[X]" --at p=5;',
    'fiber --map "GF(5)[X]/(X)->GF(5)[X]" --at p=5;',
])
def test_maps_that_are_not_morphisms_are_typed_errors(statement):
    """A source variable missing from the target, or a relation that does
    not map to zero, is an invalid argument, not a traceback."""
    proc = run_cli(["exec", statement, "--format", "json"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    error = json.loads(proc.stdout)["results"][0]["error"]
    assert error["code"] == "invalid-argument"


@pytest.mark.parametrize("definition, named, literal", [
    ("ring A = QQ[T];",
     'normalize --ring A --ideal "(T)";',
     'normalize --ring "QQ[T]" --ideal "(T)";'),
    ("ring A = ZZ[T];",
     'spec closure --ring A --point "eta,(T)" --fibers 3;',
     'spec closure --ring "ZZ[T]" --point "eta,(T)" --fibers 3;'),
    ("ring A = ZZ[T];",
     'fiber --map "ZZ->A" --at p=3 --bound 1;',
     'fiber --map "ZZ->ZZ[T]" --at p=3 --bound 1;'),
    ("ring G = QQ[X,Y,Z]/(X*Z-Y^2);",
     "proj charts --graded G;",
     'proj charts --graded "QQ[X,Y,Z]/(X*Z-Y^2)";'),
], ids=["ring", "closure-ring", "map", "graded"])
def test_ring_flags_accept_defined_ring_names(definition, named, literal):
    records, had_error = run_script(dsl.parse(definition + named))
    expected, expected_error = run_script(dsl.parse(literal))
    assert not had_error and not expected_error
    data = {k: v for k, v in records[1]["data"].items() if k != "map"}
    assert data == {k: v for k, v in expected[0]["data"].items() if k != "map"}


def test_sheaf_script_output_does_not_depend_on_the_hash_seed():
    """The unit tables and memos of the finite rings leak no set order."""
    golden = (GOLDEN / "sheaf_checks.json").read_bytes()
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "scheme_explorer.cli", "--format", "json",
             "run", "--script", str(SCRIPTS / "sheaf_checks.scm")],
            capture_output=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
                 "PYTHONHASHSEED": hash_seed, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == golden


def test_residue_fields_parenthesize_coefficients_of_several_terms():
    proc = run_cli(["exec", "spec describe GF(9,t^2+1)[X] --bound 2;"])
    assert proc.returncode == 0, proc.stderr
    assert "residue_field: GF(9,t^2 + 1)[t2]/(t2^2 + (2*t + 1)*t2 + 1)\n" in proc.stdout
    assert "2*t + 1*t2" not in proc.stdout


def test_spec_zzt_output_does_not_depend_on_the_hash_seed():
    """The sieve's set of reducible quadratics never decides the order."""
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "scheme_explorer.cli", "--format", "json",
             "exec", "spec describe ZZ[T] --bound 10;"],
            capture_output=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
                 "PYTHONHASHSEED": hash_seed, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_groebner_edge_cases_print_as_before():
    """The zero ideal, the unit ideal, repeated generators, a generator that
    vanishes over GF(3), and a non-field base: the text the pair-heap
    engine printed, byte for byte."""
    script = ('ideal I = (0) in GF(3)[x]; ideal I = (1) in GF(3)[x]; '
              'ideal I = (x, x, 2*x) in GF(3)[x]; ideal I = (3*x) in GF(3)[x]; '
              'ideal I = (x) in ZZ/6[x]; normalize --ring "ZZ/6[x]" --ideal "(x)";')
    proc = run_cli(["exec", script])
    assert proc.returncode == 1
    assert proc.stdout == (
        "$ ideal I = (0) in GF(3)[x];\n"
        "  ambient: GF(3)[x]\n  generators:\n  groebner_basis:\n  kind: ideal-def\n  name: I\n"
        "$ ideal I = (1) in GF(3)[x];\n"
        "  ambient: GF(3)[x]\n  generators:\n    - 1\n  groebner_basis:\n    - 1\n"
        "  kind: ideal-def\n  name: I\n"
        "$ ideal I = (x, x, 2*x) in GF(3)[x];\n"
        "  ambient: GF(3)[x]\n  generators:\n    - x\n    - x\n    - 2*x\n"
        "  groebner_basis:\n    - x\n  kind: ideal-def\n  name: I\n"
        "$ ideal I = (3*x) in GF(3)[x];\n"
        "  ambient: GF(3)[x]\n  generators:\n  groebner_basis:\n  kind: ideal-def\n  name: I\n"
        "$ ideal I = (x) in ZZ/6[x];\n"
        "  ambient: ZZ/6[x]\n  generators:\n    - x\n  kind: ideal-def\n  name: I\n"
        '$ normalize --ring "ZZ/6[x]" --ideal "(x)";\n'
        "  error [non-field-base]: normalization needs a field base\n"
    )


@pytest.mark.parametrize("domain, answer", [
    ("GF(7,t+3)", {"ring": "GF(7,t + 3)[X]"}),
    ("GF(25,t^2+2)", {"ring": "GF(25,t^2 + 2)[X]"}),
    ("GF(49,t^3+t+1)", {"code": "unsupported-domain",
                        "message": "GF(49) needs a modulus of degree 2"}),
    ("GF(8,t+1)", {"code": "unsupported-domain",
                   "message": "GF(8) needs a modulus of degree 3"}),
    ("GF(6,t+1)", {"code": "unsupported-domain", "message": "6 is not a prime power"}),
])
def test_an_extension_field_needs_a_modulus_of_the_degree_of_its_order(domain, answer):
    """GF(q, m) is GF(p)[t]/(m) with deg m = log_p q; GF(49,t^3+t+1) was
    GF(343,...) and GF(8,t+1) was GF(2,t + 1)."""
    records, _ = run_script(dsl.parse(f"ring A = {domain}[X];"))
    record = records[0]
    assert (record["error"] if "error" in record else {"ring": record["data"]["ring"]}) == answer


_DIGITS = "9" * 5000


@pytest.mark.parametrize("statement, column", [
    (f"poly QQ[x] : {_DIGITS}*x;", 14),
    (f"poly QQ[x] : x^{_DIGITS};", 16),
    (f"poly QQ[x] : 1/{_DIGITS};", 16),
    (f"spec describe ZZ --bound {_DIGITS};", 26),
    (f"ring A = GF({_DIGITS})[x];", 13),
], ids=["literal", "exponent", "denominator", "flag", "field-order"])
def test_an_integer_longer_than_int_reads_is_a_syntax_error(statement, column):
    with pytest.raises(DslSyntaxError) as err:
        dsl.parse(statement)
    assert (err.value.line, err.value.column) == (1, column)
    assert "an integer of 5000 digits is too long" in str(err.value)


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("- ", ""), ("-(", ")")])
def test_a_polynomial_nested_past_the_budget_is_a_syntax_error(opening, closing):
    """200 levels of parentheses and signs answer; the 201st is refused at
    its token."""
    levels = 200 // len(opening.strip())
    records, had_error = run_script(dsl.parse(
        f"poly QQ[x] : {opening * levels}x{closing * levels};"))
    assert not had_error and records[0]["data"]["printed"] == "x"
    with pytest.raises(DslSyntaxError) as err:
        dsl.parse(f"poly QQ[x] : {opening * (levels + 1)}x{closing * (levels + 1)};")
    assert (err.value.line, err.value.column) == (1, 14 + len(opening) * levels)


@pytest.mark.parametrize("text, printed", [
    (" + ".join(["x"] * 3000), "3000*x"),
    (" - ".join(["x"] * 3000), "-2998*x"),
    ("*".join(["x"] * 3000), "x^3000"),
    ("*".join(["(x + 1)"] * 3) + " - " + " - ".join(["x^2*x"] * 3000),
     "-2999*x^3 + 3*x^2 + 3*x + 1"),
], ids=["sum", "difference", "product", "mixed"])
def test_sums_and_products_of_thousands_of_terms_answer(text, printed):
    """A sum or product is walked in a loop when it is printed and
    evaluated: its length is not a depth of recursion."""
    records, had_error = run_script(dsl.parse(f"poly QQ[x] : {text};"))
    assert not had_error, records[0]
    assert records[0]["statement"] == f"poly QQ[x] : {dsl.parse_poly_text(text).to_text()};"
    assert records[0]["data"]["printed"] == printed


@pytest.mark.parametrize("statement", [
    f"poly QQ[x] : x^{_DIGITS};",
    "poly QQ[x] : " + "(" * 2000 + "x" + ")" * 2000 + ";",
    "poly QQ[x] : " + "- " * 3000 + "x;",
    "poly QQ[x] : " + " + ".join(["x"] * 3000) + ";",
    "ring A = GF(4," + " + ".join(["t^2"] * 3001) + " + t + 1)[x];",
], ids=["exponent", "parentheses", "signs", "sum", "field-modulus"])
def test_oversized_statements_exit_without_a_traceback(statement):
    proc = run_cli(["exec", statement])
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 1, 2)


@pytest.mark.parametrize("text, printed", [
    ("x*y*z*w", "x*y*z*w"),
    ("x - y + z - w", "x - y + z - w"),
    ("x - (y - z) + (u + v)", "x - (y - z) + (u + v)"),
    ("-x*(y+z)*w - -u", "(-x)*(y + z)*w - (-u)"),
    ("(x*y + 1)*(2*z)^3*x", "(x*y + 1)*(2*z)^3*x"),
    ("x*(y*z)*w", "x*(y*z)*w"),
])
def test_chains_print_in_the_form_that_reparses_to_them(text, printed):
    """A product and a sum print flat, down their left operands, in a loop;
    a right operand of the same precedence keeps its parentheses."""
    ast = dsl.parse_poly_text(text)
    assert ast.to_text() == printed
    assert dsl.parse_poly_text(printed) == ast


def test_a_product_of_300_factors_reprints_to_a_text_that_reparses():
    ast = dsl.parse_poly_text("*".join(f"x{i}" for i in range(300)))
    assert ast.to_text() == "*".join(f"x{i}" for i in range(300))
    assert dsl.parse_poly_text(ast.to_text()) == ast


@pytest.mark.parametrize("statement", [
    'fiber --map "ZZ->ZZ[T]" --at "p=' + "7" * 5000 + '";',
    'proj points --space "P^' + "1" * 5000 + '(GF(2))";',
], ids=["fiber-prime", "proj-dimension"])
def test_integers_past_the_digit_limit_in_flags_are_typed_errors(statement):
    """Python refuses to convert more than 4300 digits to an int; the flag
    is then as malformed as one with no digits."""
    proc = run_cli(["exec", statement, "--format", "json"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stdout)["results"][0]["error"]
    assert error["code"] == "invalid-argument"


def _run_cli_within(args, seconds):
    return subprocess.run(
        [sys.executable, "-m", "scheme_explorer.cli", *args],
        capture_output=True, text=True, cwd=REPO, timeout=seconds,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin",
             "PYTHONDONTWRITEBYTECODE": "1"},
    )


@pytest.mark.parametrize("statement, code", [
    ("ring A = GF(1000000016000000063,t+1)[X];", "unsupported-domain"),
    ('spec describe "ZZ/1000000016000000063";', "budget-exceeded"),
], ids=["field-order", "modulus"])
def test_moduli_with_two_large_prime_factors_answer_at_once(statement, code):
    """q = 1000000007*1000000009: no prime power, found without factoring q;
    factoring ZZ/q needs more than trial division within its budget."""
    proc = _run_cli_within(["exec", statement, "--format", "json"], 30)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["results"][0]["error"]["code"] == code


def test_a_modulus_without_small_factors_gets_one_miller_rabin_pass(monkeypatch):
    """``Zmod`` and ``prime_factors`` both ask whether n is prime: the least
    prime above the certificate bound is refused at the first question."""
    from scheme_explorer import arith

    passes, witnesses = [], arith._MR_WITNESSES

    class Witnesses:
        def __iter__(self):
            passes.append(1)
            return iter(witnesses)

    monkeypatch.setattr(arith, "_MR_WITNESSES", Witnesses())
    n = 3317044064679887385962123
    records, had_error = run_script(dsl.parse(f'spec describe "ZZ/{n}";'))
    assert had_error and records[0]["error"]["code"] == "budget-exceeded"
    assert "no primality certificate" in records[0]["error"]["message"]
    assert passes == [1]


def test_a_cofactor_past_the_certificate_bound_is_refused_before_miller_rabin(monkeypatch):
    """10^3999 + 7 has a small prime factor, so ``Zmod`` asks no Miller-Rabin
    question; the 13,281-bit cofactor is no perfect power, and its root is
    past the certificate bound, where the test would change only the
    message: ``prime_factors`` refuses it with no Miller-Rabin pass."""
    from scheme_explorer import arith

    passes, witnesses = [], arith._MR_WITNESSES

    class Witnesses:
        def __iter__(self):
            passes.append(1)
            return iter(witnesses)

    monkeypatch.setattr(arith, "_MR_WITNESSES", Witnesses())
    records, had_error = run_script(dsl.parse(f'spec describe "ZZ/{10 ** 3999 + 7}";'))
    assert had_error and records[0]["error"]["code"] == "budget-exceeded"
    assert records[0]["error"]["message"] == (
        "a cofactor of 13281 bits has no prime factor up to 1000000 and no primality "
        "certificate for its root of 13281 bits")
    assert passes == []


def test_the_square_of_a_large_prime_has_one_point():
    proc = _run_cli_within(["exec", 'spec describe "ZZ/1000000014000000049";',
                            "--format", "json"], 30)
    assert proc.returncode == 0
    points = json.loads(proc.stdout)["results"][0]["data"]["points"]
    assert [p["description"] for p in points] == ["x_1000000007"]
