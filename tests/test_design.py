"""Design rules of the package checked on its source.

Vacuum is the cn2 = 0 limit of the turbulent code path, not a parallel
copy: no function forks on cn2 = 0 except where vacuum is defined
(``channel.derive`` sets rho_0 = inf) or where it has its own acceptance
rule (``cli.cmd_validate``).  ``ChannelConfig.__post_init__`` compares cn2
with 0 only to reject negative values.
"""

import ast
from pathlib import Path

import fsoqkd

_ALLOWED = {
    "channel.ChannelConfig.__post_init__",
    "channel.derive",
    "cli.cmd_validate",
}


def _is_cn2(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "cn2") or (
        isinstance(node, ast.Attribute) and node.attr == "cn2"
    )


def _is_zero(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0


def _cn2_zero_comparisons(tree: ast.AST):
    """Yield (qualified function name, line) of every cn2-with-0 comparison."""

    def walk(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                for a, b in zip(operands, operands[1:]):
                    if (_is_cn2(a) and _is_zero(b)) or (_is_zero(a) and _is_cn2(b)):
                        yield inner, child.lineno
            yield from walk(child, inner)

    yield from walk(tree, "")


def _package_comparisons():
    found = []
    for path in sorted(Path(fsoqkd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, line in _cn2_zero_comparisons(tree):
            found.append((path.stem + scope, f"{path.name}:{line}"))
    return found


def test_only_vacuum_definitions_compare_cn2_with_zero():
    found = _package_comparisons()
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
