"""The number paths of the two polynomial printers, ``multipoly.format_terms``
(with ``format_dense``) and ``Domain.dense_text``, against the loops with one
``Domain.format`` call per coefficient that preceded them, and the reports
that print through both."""

import random
from fractions import Fraction

import pytest

from helpers_kernel import ref_dense_str, ref_ext_field_text, ref_format_terms
from scheme_explorer import arith, cli, dsl, multipoly, proj, spectrum
from scheme_explorer.algebra import PresentedAlgebra
from scheme_explorer.arith import (
    GFq,
    QQ,
    ZZ,
    Domain,
    ExtField,
    FracField,
    IntegerRing,
    RationalField,
    Zmod,
    ext_field_text,
    factor_dense,
)
from scheme_explorer.multipoly import format_dense, format_terms


def _int_coeff(rng):
    return rng.choice([0, 0, 1, -1, rng.randint(2, 9), -rng.randint(2, 9),
                       rng.randint(10, 10 ** 6), -rng.randint(10, 10 ** 6)])


def _element(dom, rng):
    """A seeded element of dom: zero, +-1, one- and multi-digit values,
    ints and Fractions over QQ."""
    if isinstance(dom, Zmod):
        return rng.choice([0, 0, 1 % dom.n, dom.n - 1, rng.randrange(dom.n)])
    if dom == ZZ:
        return _int_coeff(rng)
    if dom == QQ:
        num = _int_coeff(rng)
        return rng.choice([num, Fraction(num), Fraction(num, rng.randint(2, 12))])
    return rng.choice([dom.zero(), dom.one(), dom.neg(dom.one()), dom.gen(),
                       dom.add(dom.gen(), dom.from_int(rng.randint(-5, 5)))])


NUMBER_DOMAINS = [ZZ, QQ, Zmod(2), Zmod(7), Zmod(101), Zmod(12), Zmod(1000)]
GENERIC_DOMAINS = [GFq(9, (1, 0, 1)), ExtField(QQ, (1, 0, 1), var="i"), FracField(QQ, "S")]


@pytest.mark.parametrize("dom", NUMBER_DOMAINS + GENERIC_DOMAINS, ids=repr)
def test_dense_text_matches_the_per_coefficient_loop(dom):
    """dense_text prints what one ``Domain.format`` call per coefficient
    printed, for trimmed tuples, tuples with trailing zeros (elements of
    ``sheaf.QuotientPolyRing``) and runs of zeros alone."""
    rng = random.Random(11)
    cases = [(), (dom.zero(),), (dom.zero(), dom.zero()), (dom.one(),)]
    cases += [tuple(_element(dom, rng) for _ in range(rng.randint(1, 7))) for _ in range(300)]
    for a in cases:
        expected = ref_dense_str(dom, a, "t")
        assert dom.dense_text(a, "t") == expected, a
        assert Domain.dense_text(dom, a, "t") == expected, a


@pytest.mark.parametrize("dom", NUMBER_DOMAINS + GENERIC_DOMAINS, ids=repr)
def test_format_terms_matches_the_per_coefficient_loop(dom):
    """format_terms, multivariate and through the dense entry
    ``format_dense``, prints what one ``Domain.format`` call per
    coefficient printed."""
    rng = random.Random(12)
    names = ["X", "Y", "Z"]
    for _ in range(300):
        coeffs = tuple(_element(dom, rng) for _ in range(rng.randint(0, 7)))
        terms = [((k,), coeffs[k]) for k in range(len(coeffs) - 1, -1, -1)
                 if not dom.is_zero(coeffs[k])]
        assert format_dense("T", dom, coeffs) == ref_format_terms(["T"], dom, terms), coeffs
        exps = rng.sample(sorted({tuple(rng.randint(0, 3) for _ in names)
                                  for _ in range(8)}), rng.randint(0, 4))
        terms = [(e, c) for e in sorted(exps, reverse=True)
                 if not dom.is_zero(c := _element(dom, rng))]
        assert format_terms(names, dom, terms) == ref_format_terms(names, dom, terms), terms


def test_number_paths_cover_signs_units_and_fractions():
    assert ZZ.dense_text((-12, 0, -1, 1, 0), "t") == "t^3 + -1*t^2 + -12"
    assert QQ.dense_text((Fraction(-2, 3), 1, Fraction(5)), "t") == "5*t^2 + t + -2/3"
    assert format_dense("T", ZZ, (-12, 0, -1, 1)) == "T^3 - T^2 - 12"
    assert format_dense("T", ZZ, (0, -1)) == "-T"
    assert format_dense("T", QQ, (Fraction(7, 2), Fraction(-1), 0, Fraction(-10, 3))) == \
        "-10/3*T^3 - T + 7/2"
    assert format_dense("T", Zmod(6), (5, 1, 0)) == "T + 5"
    assert format_dense("T", ZZ, ()) == format_terms(["T"], ZZ, []) == "0"


def test_monic_residue_text_over_qq_from_the_integers():
    """ext_field_text over QQ prints the monic associate of an integer or
    rational modulus as ``ext_field_text`` of ``QQ.dense_monic`` does, for
    positive and negative leading coefficients."""
    rng = random.Random(13)
    cases = [(3, -6, 9), (-5, 0, -10), (1, 2, -4), (0, 7, -7), (-1, 1), (4, -2)]
    for _ in range(400):
        coeffs = [_int_coeff(rng) for _ in range(rng.randint(1, 4))]
        coeffs.append(rng.choice([-1, 1, rng.randint(2, 30), -rng.randint(2, 30)]))
        cases.append(tuple(coeffs))
    cases += [tuple(Fraction(c, rng.randint(1, 9)) for c in a) for a in cases[:100]]
    for a in cases:
        monic = QQ.dense_monic(a)
        expected = ref_ext_field_text(QQ, monic, "t")
        assert ext_field_text(QQ, a, "t") == expected, a
        assert ext_field_text(QQ, monic, "t") == expected, a
    assert ext_field_text(QQ, (3, -6, 9), "t") == "QQ[t]/(t^2 + -2/3*t + 1/3)"
    assert ext_field_text(QQ, (-5, 0, -10), "t") == "QQ[t]/(t^2 + 1/2)"


def test_height_one_residue_text_matches_the_built_field():
    """A height-one point of ZZ[T] prints the residue field QQ[t]/(P/lc)
    from P's integers, as ``ext_field_text(QQ, QQ.dense_monic(P), var)``
    and the ExtField it builds on first access print it; a negative
    leading coefficient included."""
    cat = spectrum.SpecCatalogue.recognize(PresentedAlgebra(ZZ, ("T",)))
    for coeffs in [(1, 2), (-3, 4), (5, 0, 6), (-7, 3, -2), (2, -9, 12), (1, 1, 1)]:
        pt = spectrum.height_one_point(cat, coeffs)
        expected = ext_field_text(QQ, QQ.dense_monic(coeffs), "t")
        assert pt.residue_text == expected == repr(pt.residue)
    pt = spectrum.height_one_point(cat, (-7, 3, -2))
    assert pt.residue_text == "QQ[t]/(t^2 + -3/2*t + 7/2)"
    assert pt.generator_texts == ("-2*T^2 + 3*T - 7",)


def test_closed_point_over_qq_with_a_non_integral_modulus():
    """closed_point over QQ passes Fraction coefficients to the printers:
    the point of x^3 - 2/3 prints its generator and residue field."""
    cat = spectrum.SpecCatalogue.recognize(PresentedAlgebra(QQ, ("x",)))
    g = (Fraction(-2, 3), QQ.zero(), QQ.zero(), QQ.one())
    pt = spectrum.closed_point(cat, g)
    assert pt.generator_texts == ("x^3 - 2/3",)
    assert pt.label == "x_(x^3 - 2/3)"
    assert pt.residue_text == "QQ[t]/(t^3 + -2/3)" == repr(pt.residue)
    half = spectrum.closed_point(cat, (Fraction(1, 2), QQ.one()))
    assert half.generator_texts == ("x + 1/2",)
    assert half.residue_text == "QQ"


# -- whole reports against the per-coefficient printers ----------------------------


def _loop_dense_text(cat, coeffs):
    ring = cat.algebra.ring
    dom = ring.domain
    terms = [((k,), coeffs[k]) for k in range(len(coeffs) - 1, -1, -1)
             if not dom.is_zero(coeffs[k])]
    return ref_format_terms(ring.names, dom, terms)


def _loop_residue_text(base, modulus, var):
    return ref_ext_field_text(base, base.dense_monic(modulus), var)


def _use_loop_printers(mp):
    """Route every polynomial text of a report through the per-coefficient
    loops: ``Poly.__str__`` and the point labels through
    ``ref_format_terms``, dense texts through ``ref_dense_str`` and the
    residue fields of points through ``ref_ext_field_text`` of
    ``dense_monic``.  Returns the list of the printers' names, one entry
    per call."""
    calls = []

    def counted(name, fn):
        def printer(*args):
            calls.append(name)
            return fn(*args)
        return printer

    terms = counted("format_terms", ref_format_terms)
    mp.setattr(multipoly, "format_terms", terms)
    mp.setattr(proj, "format_terms", terms)
    mp.setattr(spectrum, "_dense_text", counted("point", _loop_dense_text))
    mp.setattr(spectrum, "ext_field_text", counted("residue", _loop_residue_text))
    mp.setattr(arith, "ext_field_text", counted("field", ref_ext_field_text))
    for cls in (Domain, IntegerRing, RationalField, Zmod):
        mp.setattr(cls, "dense_text", counted("dense", ref_dense_str))
    return calls


def _irreducible_quadrics_and_cubics(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coeffs = [rng.randint(-9, 9) for _ in range(rng.choice((2, 3)))]
        coeffs.append(rng.choice([-1, 1]) * rng.randint(1, 9))
        fac = factor_dense(tuple(coeffs), QQ)[1]
        if len(fac) == 1 and fac[0][1] == 1:
            out.append(coeffs)
    return out


def _report_statements():
    statements = [f"spec describe ZZ[T] --bound {b};" for b in range(11)]
    for coeffs in _irreducible_quadrics_and_cubics(14, 6):
        poly = format_dense("T", ZZ, tuple(coeffs))
        statements.append(f'spec closure --ring "ZZ[T]" --point "eta,({poly})" --fibers 50;')
    statements += [f'fiber --map "ZZ->ZZ[T]" --at p={p};' for p in (2, 3, 5, 7)]
    return statements


@pytest.mark.parametrize("statement", _report_statements())
def test_reports_match_the_per_coefficient_printers(statement, monkeypatch):
    def report():
        records, had_error = cli.run_script(dsl.parse(statement))
        assert not had_error
        return cli.render_json(records)

    new = report()
    with monkeypatch.context() as mp:
        calls = _use_loop_printers(mp)
        reference = report()
    assert new == reference
    # every report prints points with generators and residue fields through
    # the patched printers, except the describe at bound 0 (generic point only)
    assert ({"point", "residue"} <= set(calls)) != statement.endswith("--bound 0;"), calls
