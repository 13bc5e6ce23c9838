"""scheme-explorer: run workbench scripts and one-shot queries.

Usage:

    scheme-explorer run --script FILE [--format text|json]
    scheme-explorer exec "ring A = ZZ[X]/(6*X^2+18*X-3); specialize A over QQ, GF(2);"
    scheme-explorer spec describe "ZZ[T]" --bound 7
    scheme-explorer fiber --map "ZZ->ZZ[T]" --at p=7
    scheme-explorer normalize --ring "QQ[X,Y]" --ideal "(X*Y-1)"
    scheme-explorer proj segre --p "[1:2]" --q "[3:5]"
    scheme-explorer sheaf check --space "spec(ZZ/12)"

Exit status: 0 on success, 1 if any query errored, 2 on a parse error, an
unknown --format or a script file that cannot be read.
JSON reports carry a stable top-level {"schema": 1} tag and sorted keys, so
byte-identical output is reproducible across runs.
"""

from __future__ import annotations

import math
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import algebra as alg
from . import arith
from . import dsl
from . import morphism as mor
from . import noether
from . import proj as pj
from . import sheaf as sh
from . import spectrum as sp
from .errors import (
    DslSyntaxError,
    InfiniteSpectrum,
    InvalidArgument,
    InvalidCover,
    SchemeError,
    UndefinedRing,
    UnsupportedLocation,
    UnsupportedSpace,
)
from .multipoly import PolyRing

SCHEMA_VERSION = 1


class Environment:
    def __init__(self):
        self.rings = {}
        self.ideals = {}

    def resolve_ring(self, ref):
        if isinstance(ref, str):
            if ref not in self.rings:
                raise UndefinedRing(f"undefined ring {ref!r}")
            return self.rings[ref]
        return dsl.build_ring(ref)

    def ring_from_text(self, text):
        """A ring-valued flag: the name of a defined ring, or ring text."""
        text = text.strip()
        return self.resolve_ring(text if text in self.rings else dsl.parse_ring_text(text))


def run_script(script: dsl.Script):
    """Execute statements in order; returns (records, had_error)."""
    env = Environment()
    records = []
    had_error = False
    for stmt in script.statements:
        text = stmt.to_text()
        try:
            data = _execute(stmt, env)
            records.append({"statement": text, "ok": True, "data": data})
        except SchemeError as err:
            had_error = True
            records.append({
                "statement": text,
                "ok": False,
                "error": {"code": err.code, "message": str(err)},
            })
    return records, had_error


def _execute(stmt, env):
    if isinstance(stmt, dsl.RingDef):
        algebra = dsl.build_ring(stmt.ring)
        env.rings[stmt.name] = algebra
        return {"kind": "ring-def", "name": stmt.name, "ring": repr(algebra)}
    if isinstance(stmt, dsl.IdealDef):
        ambient = env.resolve_ring(stmt.ring)
        gens = [dsl.eval_poly(g, ambient.ring) for g in stmt.generators]
        handle = alg.IdealHandle(ambient, gens)
        env.ideals[stmt.name] = handle
        record = {
            "kind": "ideal-def",
            "name": stmt.name,
            "generators": [str(g) for g in handle.generators],
            "ambient": repr(ambient),
        }
        if ambient.base.is_field:
            record["groebner_basis"] = [str(g) for g in handle.groebner()]
        return record
    if isinstance(stmt, dsl.PolyStmt):
        ambient = env.resolve_ring(stmt.ring)
        poly = dsl.eval_poly(stmt.poly, ambient.ring)
        return {"kind": "poly", "ring": repr(ambient), "printed": str(poly)}
    if isinstance(stmt, dsl.SpecializeCmd):
        return _run_specialize(stmt, env)
    if isinstance(stmt, dsl.Command):
        return _COMMANDS[stmt.group, stmt.action](stmt, env)
    raise SchemeError(f"unhandled statement {stmt!r}")


def _run_specialize(stmt, env):
    source = env.resolve_ring(stmt.ring)
    table = []
    for dexpr in stmt.domains:
        target = dsl.build_domain(dexpr)
        spec = alg.specialize(source, target)
        verdict = spec.classify_univariate()
        table.append({
            "over": dexpr.to_text(),
            "ring": repr(spec),
            "verdict": verdict,
        })
    return {"kind": "specialization-table", "source": repr(source), "table": table}


def _spec_describe(cmd, env):
    algebra = env.resolve_ring(cmd.positional[0])
    bound = cmd.flag("bound")
    cat = sp.SpecCatalogue.recognize(algebra)
    points = sp.enumerate_points(cat, bound)
    return {
        "kind": "spec-describe",
        "ring": repr(algebra),
        "bound": bound,
        "family": cat.kind,
        "points": [pt.as_record() for pt in points],
    }


def _spec_closure(cmd, env):
    algebra = env.ring_from_text(cmd.flag("ring"))
    point_text = cmd.flag("point")
    fibers = cmd.flag("fibers")
    label, comma, poly_text = point_text.partition(",")
    if not comma:
        raise InvalidArgument(f"--point expects \"LABEL,(POLY)\", got {point_text!r}")
    P0 = dsl.eval_poly(dsl.parse_poly_text(poly_text), algebra.ring)
    record = {
        "kind": "spec-closure",
        "ring": repr(algebra),
        "point": point_text,
        "closure": f"V({P0})",
    }
    if fibers:
        table = []
        for p in arith._primes_upto(fibers):
            pts = sp.closure_fiber_points(P0, p)
            table.append({
                "p": p,
                "points": [
                    {"point": pt.label, "multiplicity": m, "residue": pt.residue_text}
                    for pt, m in pts
                ],
            })
        record["fibers"] = table
    return record


def _parse_map(text, env):
    left, sep, right = text.partition("->")
    if not sep:
        raise InvalidArgument(f"--map expects \"A->B\", got {text!r}")
    return mor.inclusion(env.ring_from_text(left), env.ring_from_text(right))


def _fiber(cmd, env):
    map_text = cmd.flag("map")
    phi = _parse_map(map_text, env)
    at = cmd.flag("at")
    key, _, val = at.partition("=")
    bound = cmd.flag("bound")
    src_cat = sp.SpecCatalogue.recognize(phi.source)
    if key == "p":
        p = _decimal(val)
        if p is None or not arith.is_prime(p):
            raise InvalidArgument(f"--at p={val}: p must be a prime number")
        point = sp.prime_point(src_cat, p)
    else:
        raise UnsupportedLocation(f"unsupported fiber location {at!r}")
    description = mor.fiber(phi, point, bound=bound)
    return {"kind": "fiber", "map": map_text, **description.as_record()}


def _normalize(cmd, env):
    ring_text, ideal_text = cmd.flag("ring"), cmd.flag("ideal")
    ambient = env.ring_from_text(ring_text)
    gens = [dsl.eval_poly(g, ambient.ring) for g in dsl.parse_ideal_text(ideal_text)]
    handle = alg.IdealHandle(ambient, gens)
    result = noether.noether_normalize(handle)
    record = result.as_record()
    record["kind"] = "normalize"
    record["ring"] = repr(ambient)
    record["verified"] = result.verify()
    return record


def _parse_line_point(text, field):
    """The point [s0:s1] of P^1, its coordinates as written."""
    inner = text.strip()
    if not (inner.startswith("[") and inner.endswith("]")):
        raise InvalidArgument(f"expected a point [s0:s1] of P^1, got {text!r}")
    coords = []
    for part in inner[1:-1].split(":"):
        num, _, den = part.strip().partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:
            raise InvalidArgument(f"bad coordinate {part.strip()!r} in {text!r}") from None
        coords.append(field.div(field.from_int(num), field.from_int(den)))
    if len(coords) != 2:
        raise InvalidArgument(f"expected a point [s0:s1] of P^1, got {text!r}")
    return pj.ProjPoint(field, coords)


def _field(cmd):
    return dsl.build_domain(dsl.parse_domain_text(cmd.flag("field")))


def _proj_charts(cmd, env):
    algebra = env.ring_from_text(cmd.flag("graded"))
    graded = pj.GradedAlgebra(algebra.base, algebra.names, algebra.relations)
    charts = []
    for i in range(len(graded.names)):
        chart = pj.proj_chart(graded, i)
        charts.append({"index": i, "ring": repr(chart.algebra)})
    return {"kind": "proj-charts", "graded": repr(graded), "charts": charts}


def _proj_points(cmd, env):
    space_text = cmd.flag("space")
    n, field = _parse_proj_space(space_text)
    points = pj.enumerate_points(field, n)
    return {
        "kind": "proj-points",
        "space": space_text,
        "count": len(points),
        "expected": (field.order() ** (n + 1) - 1) // (field.order() - 1),
        "points": [repr(p) for p in points],
    }


def _map_record(kind, kernel, raw, points, **checks):
    """A point map's report: its arguments, its raw and normalized image,
    and for each check the kernel generator of the given degree evaluated
    at the raw image."""
    k = raw.field
    values = pj.kernel_values(kernel, raw)
    record = {"kind": kind, "image": repr(pj.point_normalize(k, raw.coords)),
              "raw_image": repr(raw)}
    record.update({name: repr(pj.point_normalize(k, pt.coords)) for name, pt in points.items()})
    record.update({name: k.format(values[degree]) for name, degree in checks.items()})
    return record


# Each map's kernel comes before its points: elimination needs a field, so
# a --field that is no field is refused (non-field-base) first.

def _proj_segre(cmd, env):
    k = _field(cmd)
    kernel = pj.segre_kernel(k, 1, 1)
    p, q = _parse_line_point(cmd.flag("p"), k), _parse_line_point(cmd.flag("q"), k)
    return _map_record("proj-segre", kernel, pj.segre(p, q), {"p": p, "q": q},
                       quadric_check=2)


def _proj_conic(cmd, env):
    k = _field(cmd)
    kernel = pj.conic_kernel(k)
    p = _parse_line_point(cmd.flag("p"), k)
    return _map_record("proj-conic", kernel, pj.conic_map(p), {"p": p}, conic_check=2)


def _proj_veronese(cmd, env):
    k = _field(cmd)
    kernel = pj.veronese_kernel(k, 1)
    p = _parse_line_point(cmd.flag("p"), k)
    return _map_record("proj-veronese", kernel, pj.veronese(p), {"p": p},
                       symmetry_check=1, quadric_check=2)


def _proj_sections(cmd, env):
    field = _field(cmd)
    n, d = cmd.flag("n"), cmd.flag("d")
    sections = pj.twist_sections(n, d, field)
    return {
        "kind": "proj-sections",
        "n": n,
        "d": d,
        "rank": sections.rank,
        "basis": sections.basis_strings(),
    }


def _parse_proj_space(text):
    """P^n(DOMAIN) with n a nonnegative integer."""
    text = text.strip()
    caret, paren, rest = text[2:].partition("(")
    n = _decimal(caret)
    if not (text.startswith("P^") and n is not None and rest.endswith(")")):
        raise InvalidArgument(f"--space expects \"P^n(DOMAIN)\", got {text!r}")
    domain = dsl.build_domain(dsl.parse_domain_text(rest[:-1]))
    return n, domain


def _decimal(text):
    """The int of a string of decimal digits within Python's digit limit, or None."""
    try:
        return int(text) if text.isdecimal() else None
    except ValueError:
        return None


def _parse_finite_ring(text):
    text = text.strip()
    if text.startswith("spec(") and text.endswith(")"):
        text = text[5:-1]
    expr = dsl.parse_ring_text(text)
    if expr.domain.kind == "Zmod" and not expr.names:
        if expr.domain.modulus == 0:
            raise InfiniteSpectrum("spec(ZZ/0) is Spec ZZ, which is infinite")
        return arith.Zmod(expr.domain.modulus)
    if expr.domain.kind in ("GF",) and expr.names and len(expr.names) == 1:
        base = arith.GF(expr.domain.modulus)
        ring = PolyRing(base, expr.names)
        if len(expr.relations) != 1:
            raise UnsupportedSpace("finite quotient needs exactly one relation")
        # over a field the relation generates the ideal of its monic multiple;
        # a unit relation gives the zero ring, and 0 stays an error
        dense = arith.poly_to_dense(dsl.eval_poly(expr.relations[0], ring))
        return sh.QuotientPolyRing(base, base.dense_monic(dense), var=expr.names[0])
    raise UnsupportedSpace(f"unsupported sheaf space {text!r}")


def _sheaf_report(cmd):
    """The --space text, its finite ring and the ring's structure sheaf."""
    space_text = cmd.flag("space")
    ring = _parse_finite_ring(space_text)
    return space_text, ring, sh.structure_sheaf(ring)


def _sheaf_check(cmd, env):
    space_text, _, report = _sheaf_report(cmd)
    opens = report.space.opens_sorted()
    return {
        "kind": "sheaf-check",
        "space": space_text,
        "topology": {
            "points": [str(x) for x in report.space.points],
            "opens": [sorted(map(str, u)) for u in opens],
        },
        "is_sheaf": sh.sheaf_axiom_holds(report.presheaf, report.sheaf, report.pi),
        "stalks_preserved": sh.stalks_preserved(
            report.presheaf, report.sheaf, report.pi
        ),
        "sections_per_open": [
            {"open": sorted(map(str, u)), "count": len(report.sheaf.sections[u])}
            for u in opens
        ],
    }


def _sheaf_sections(cmd, env):
    space_text, ring, report = _sheaf_report(cmd)
    f = cmd.flag("at")
    elem = ring.from_int(f)
    d = report.basic_open(elem)
    loc = report.localization(elem)
    return {
        "kind": "sheaf-sections",
        "space": space_text,
        "at": f,
        "basic_open": sorted(map(str, d)),
        "gamma_size": len(report.gamma(d)),
        "localization_size": len(loc.elements()),
        "isomorphic": report.compare_gamma_with_localization(elem),
    }


def _sheaf_twist(cmd, env):
    space_text, ring, report = _sheaf_report(cmd)
    cover_text = cmd.flag("cover")
    unit_val = cmd.flag("cocycle")
    cover = []
    for part in cover_text.split(","):
        part = part.strip()
        if part == "X":
            cover.append(frozenset(report.space.points))
        elif part.startswith("D(") and part.endswith(")"):
            try:
                f = int(part[2:-1])
            except ValueError:
                raise InvalidCover(f"bad cover member {part!r}") from None
            cover.append(report.basic_open(ring.from_int(f)))
        else:
            raise InvalidCover(f"bad cover member {part!r}")
    if len(cover) != 2:
        raise InvalidCover("twist covers use exactly two opens")
    unit = report.local_rings[cover[0] & cover[1]].from_int(unit_val)
    cocycle = sh.two_open_cocycle(report, cover, unit)
    twisted = sh.twist_structure_sheaf(cocycle)
    recovered = sh.recover_cocycle(twisted, report, cover)
    return {
        "kind": "sheaf-twist",
        "space": space_text,
        "cover": cover_text,
        "cocycle": unit_val,
        "sections_global": len(
            twisted.sections[frozenset(report.space.points)]
        ),
        "is_coboundary": sh.is_coboundary(report, cover, cocycle),
        "round_trip_class_ok": sh.cocycles_equal_mod_coboundary(
            report, cover, cocycle, recovered
        ),
    }


# (group, action) -> handler; the parser admits exactly the pairs of dsl.COMMANDS
_COMMANDS = {
    ("spec", "describe"): _spec_describe,
    ("spec", "closure"): _spec_closure,
    ("fiber", ""): _fiber,
    ("normalize", ""): _normalize,
    ("proj", "charts"): _proj_charts,
    ("proj", "points"): _proj_points,
    ("proj", "segre"): _proj_segre,
    ("proj", "conic"): _proj_conic,
    ("proj", "veronese"): _proj_veronese,
    ("proj", "sections"): _proj_sections,
    ("sheaf", "check"): _sheaf_check,
    ("sheaf", "sections"): _sheaf_sections,
    ("sheaf", "twist"): _sheaf_twist,
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_json(records):
    """The report as JSON: the bytes of json.dumps(..., indent=2,
    sort_keys=True), which with an indent runs json's pure-Python encoder."""
    return _json({"schema": SCHEMA_VERSION, "results": records}, "\n") + "\n"


def _json(value, newline):
    """One value at the indentation that ``newline`` ends with; dispatches on
    type as json's encoder does."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    inner = newline + "  "
    # strings, most of a report, are quoted without a call of their own
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_quote(v) if isinstance(v, str) else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_quote(k if isinstance(k, str) else _json_key(k)) + ": "
                 + (_quote(v) if isinstance(v, str) else _json(v, inner))
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_float(x):
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_key(key):
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True or key is False or key is None:
        return _json(key, "")
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def render_text(records):
    lines = []
    for rec in records:
        lines.append(f"$ {rec['statement']}")
        if rec["ok"]:
            lines.extend(_text_block(rec["data"], "  "))
        else:
            err = rec["error"]
            lines.append(f"  error [{err['code']}]: {err['message']}")
    return "\n".join(lines) + "\n"


def _text_block(data, indent):
    lines = []
    for key in sorted(data):
        value = data[key]
        if isinstance(value, list):
            lines.append(f"{indent}{key}:")
            for item in value:
                if isinstance(item, dict):
                    lines.append(f"{indent}  -")
                    lines.extend(_text_block(item, indent + "    "))
                else:
                    lines.append(f"{indent}  - {item}")
        elif isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_text_block(value, indent + "  "))
        else:
            lines.append(f"{indent}{key}: {value}")
    return lines


# ---------------------------------------------------------------------------
# argv entry point
# ---------------------------------------------------------------------------

_USAGE = (
    "usage: scheme-explorer [--format text|json] "
    "(run --script FILE | exec TEXT | <statement words...>)"
)


def _statement_from_words(words):
    """Rebuild one DSL statement from shell words, re-quoting values that
    need it (projective points, ring expressions with punctuation)."""
    parts = []
    for word in words:
        if word.startswith("--"):
            parts.append(word)
        elif word.isidentifier() or word.removeprefix("-").isdigit():
            parts.append(word)
        else:
            parts.append(f'"{word}"')
    return " ".join(parts) + ";"


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    fmt = "text"
    if "--format" in argv:
        k = argv.index("--format")
        if k + 1 >= len(argv):
            print(_USAGE, file=sys.stderr)
            return 2
        fmt = argv[k + 1]
        del argv[k:k + 2]
        if fmt not in ("text", "json"):
            print(f"unknown format {fmt!r}\n{_USAGE}", file=sys.stderr)
            return 2
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, file=sys.stderr)
        return 2 if not argv else 0
    mode = argv[0]
    if mode == "run":
        if len(argv) < 3 or argv[1] != "--script":
            print("usage: scheme-explorer run --script FILE", file=sys.stderr)
            return 2
        try:
            with open(argv[2], "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as err:
            print(f"cannot read the script: {err}", file=sys.stderr)
            return 2
    elif mode == "exec":
        source = argv[1] if len(argv) > 1 else ""
    else:
        source = _statement_from_words(argv)
    try:
        script = dsl.parse(source)
    except DslSyntaxError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    records, had_error = run_script(script)
    output = render_json(records) if fmt == "json" else render_text(records)
    sys.stdout.write(output)
    return 1 if had_error else 0


if __name__ == "__main__":
    sys.exit(main())
