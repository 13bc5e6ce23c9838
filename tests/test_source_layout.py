"""Checks on the source of the ``scheme_explorer`` package itself."""

import ast
import warnings
from pathlib import Path

import scheme_explorer
from scheme_explorer.arith import Domain, Zmod

SOURCE = Path(scheme_explorer.__file__).parent


def test_every_import_sits_at_a_module_top():
    """No function imports: each module names everything it uses in its
    first lines, and the import graph is read there."""
    paths = sorted(SOURCE.glob("*.py"))
    assert {"algebra.py", "cli.py", "dsl.py"} <= {p.name for p in paths}
    inside = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inside.update(f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                              if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert sorted(inside) == []


def test_every_module_compiles_with_warnings_as_errors():
    """An invalid escape such as '\\w' in a plain string is a
    DeprecationWarning on Python 3.11 and a SyntaxWarning from 3.12."""
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in paths:
            compile(path.read_text(), str(path), "exec")


def test_only_multipoly_knows_the_exponent_field_width():
    """The term format belongs to ``multipoly``: no other module imports
    its field width ``_FIELD``."""
    importers = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "multipoly.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        importers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      and any(alias.name == "_FIELD" for alias in node.names)]
    assert importers == []


def test_restriction_maps_are_read_through_restrict_map():
    """A derived presheaf builds each restriction map on its first read, so
    a direct read of ``.restrictions`` would miss the maps not built yet:
    only ``FinitePresheaf.__init__`` and ``restrict_map`` touch it."""
    def readers(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Attribute) and child.attr == "restrictions":
                yield ".".join(scope)
            yield from readers(child, inner)

    scopes = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes.update(f"{path.name}:{scope}" for scope in readers(tree, ()))
    assert scopes == {"sheaf.py:FinitePresheaf.__init__",
                      "sheaf.py:FinitePresheaf.restrict_map"}


def test_noether_builds_no_extension_field():
    """``is_maximal`` decides by linear algebra on the quotient and factors
    over the base field only: ``noether.py`` neither imports nor calls
    ``ExtField``, so no tower of extension fields comes back."""
    tree = ast.parse((SOURCE / "noether.py").read_text())
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and any(a.name == "ExtField" for a in node.names)
            or isinstance(node, ast.Name) and node.id == "ExtField"
            or isinstance(node, ast.Attribute) and node.attr == "ExtField"]
    assert uses == []


def test_cli_trims_no_character_sets():
    """Flag text is parsed by the grammar: ``cli`` makes no ``strip``,
    ``lstrip`` or ``rstrip`` call with an argument, which would trim a set
    of characters from both ends whether or not they pair up."""
    path = SOURCE / "cli.py"
    calls = [f"cli.py:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("strip", "lstrip", "rstrip") and node.args]
    assert calls == []


def test_zmod_overrides_every_dense_method_of_domain():
    """Dense arithmetic over Z/n runs on ints: ``Zmod`` defines each
    ``dense_*`` method that ``Domain`` defines, so none falls back to the
    loop with a ``Domain`` call per coefficient."""
    dense = {name for name in vars(Domain) if name.startswith("dense_")}
    assert len(dense) >= 9
    assert sorted(dense - set(vars(Zmod))) == []


def test_only_arith_sieves_primes():
    """One sieve of Eratosthenes, ``arith._primes_upto``, behind the primes
    of ``spectrum``, the fibers of ``cli`` and the trial division of
    ``prime_factors``: no other module defines a ``_primes*`` function or
    builds the bytearray a sieve marks."""
    sieves = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "arith.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        sieves += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name.lstrip("_").startswith("primes")
                   or isinstance(node, ast.Name) and node.id == "bytearray"]
    assert sieves == []


def test_cli_computes_no_map_coordinates():
    """The Segre, conic and Veronese maps are computed in ``proj`` only:
    ``cli`` makes no ``.mul`` or ``.sub`` call, so it cannot keep a second
    copy of a map or of the equations its image satisfies."""
    path = SOURCE / "cli.py"
    calls = [f"cli.py:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("mul", "sub")]
    assert calls == []
