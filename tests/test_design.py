"""Design rules of the package checked on its source.

Vacuum is the cn2 = 0 limit of the turbulent code path, not a parallel
copy: no function forks on cn2 = 0 except where vacuum is defined
(``channel.derive`` sets rho_0 = inf) or where it has its own acceptance
rule (``cli.cmd_validate``).  ``ChannelConfig.__post_init__`` compares cn2
with 0 only to reject negative values.

Each 1-D integral has one home: ``integrate_1d`` is called only by the
5/3-law path integral (``turbulence.structure_fn``), the 5/3-law power in
the bucket (``turbulence.gaussian_pib_53``) and the flat-top axis at every
cn2 (``vacuum.fb_axis``).
"""

import ast
from pathlib import Path

import fsoqkd

_ALLOWED = {
    "channel.ChannelConfig.__post_init__",
    "channel.derive",
    "cli.cmd_validate",
}

_INTEGRALS = ["turbulence.gaussian_pib_53", "turbulence.structure_fn", "vacuum.fb_axis"]


def _is_named(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _is_zero(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0


def _scoped_nodes(tree: ast.AST):
    """Yield (qualified name of the enclosing function or class, node) for
    every node under ``tree``; a definition's own scope includes its name."""

    def walk(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            yield inner, child
            yield from walk(child, inner)

    yield from walk(tree, "")


def _cn2_zero_comparisons(tree: ast.AST):
    """Yield (qualified function name, line) of every cn2-with-0 comparison."""
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for a, b in zip(operands, operands[1:]):
                if (_is_named(a, "cn2") and _is_zero(b)) or (_is_zero(a) and _is_named(b, "cn2")):
                    yield scope, node.lineno


def _calls_to(tree: ast.AST, name: str):
    """Yield (qualified function name, line) of every call of ``name``."""
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Call) and _is_named(node.func, name):
            yield scope, node.lineno


def _package_sites(find):
    """(module-qualified scope, file:line) of every site ``find`` yields
    over the package's modules."""
    found = []
    for path in sorted(Path(fsoqkd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, line in find(tree):
            found.append((path.stem + scope, f"{path.name}:{line}"))
    return found


def test_only_vacuum_definitions_compare_cn2_with_zero():
    found = _package_sites(_cn2_zero_comparisons)
    stray = [where for scope, where in found if scope not in _ALLOWED]
    assert stray == [], f"cn2 compared with 0 outside {sorted(_ALLOWED)}: {stray}"
    # The walk must see the allowed sites, or it checks nothing.
    assert {scope for scope, _ in found} == _ALLOWED


def test_walk_finds_every_comparison_form():
    source = (
        "def f(ch, cn2):\n"
        "    a = ch.cn2 == 0.0\n"
        "    b = 0 < cn2\n"
        "    c = 1 < ch.config.cn2 != 0\n"
        "    d = cn2 == 1e-15\n"
        "class K:\n"
        "    def g(self):\n"
        "        return self.cn2 > 0\n"
    )
    found = list(_cn2_zero_comparisons(ast.parse(source)))
    assert found == [(".f", 2), (".f", 3), (".f", 4), (".K.g", 8)]


def test_each_1d_integral_has_one_quadrature_call():
    found = _package_sites(lambda tree: _calls_to(tree, "integrate_1d"))
    # Exactly one call in each of the three homes: a second copy of a
    # 1-D integral, anywhere in the package, fails here.
    assert sorted(scope for scope, _ in found) == _INTEGRALS, found


def test_walk_finds_every_call_form():
    source = (
        "def f():\n"
        "    integrate_1d(g, a, b)\n"
        "    def inner():\n"
        "        return numerics.integrate_1d(g, a, b)\n"
        "    integrate_1d_other(g)\n"
        "    return integrate_1d\n"
    )
    found = list(_calls_to(ast.parse(source), "integrate_1d"))
    assert found == [(".f", 2), (".f.inner", 4)]
