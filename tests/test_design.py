"""Design rules of the package checked on its source.

Vacuum is the cn2 = 0 limit of the turbulent code path, not a parallel
copy: no function forks on cn2 = 0 except where vacuum is defined
(``channel.derive`` sets rho_0 = inf).  ``ChannelConfig.__post_init__``
compares cn2 with 0 only to reject negative values.

Each 1-D integral has one home: ``integrate_1d`` is called only by the
5/3-law path integral (``turbulence.structure_fn``), the 5/3-law power in
the bucket (``turbulence.gaussian_pib_53``) and the flat-top axis at every
cn2 (``vacuum.fb_axis``).

The rate kernel has one entry in the optimizer: ``planner`` names
``rate_per_pulse`` and ``rate_and_slopes`` only in ``planner._kernel``,
which bounds the size of every kernel call.  A call, or a reference
passed on, anywhere else in ``planner`` fails here.

The objective has one evaluator: inside ``planner`` only the probe ``f``
of ``planner._line`` uses ``_kernel``, so a second evaluator of the total,
a single-mode search's included, fails here.

A class step has one path: the per-class loop of ``planner._optimize``
(the ``for k`` loop) makes one ``_line_max`` call, and its only ``if`` is
the ``break`` on an empty step, so no row kind gets a branch of its own.
"""

import ast
from pathlib import Path

import fsoqkd

_ALLOWED = {
    "channel.ChannelConfig.__post_init__",
    "channel.derive",
}

_INTEGRALS = ["turbulence.gaussian_pib_53", "turbulence.structure_fn", "vacuum.fb_axis"]

_KERNEL_USERS = {"planner._line.f"}


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


def _references_to(tree: ast.AST, name: str):
    """Yield (qualified function name, line) of every use of ``name``:
    a call, or a bare reference such as an argument."""
    for scope, node in _scoped_nodes(tree):
        if _is_named(node, name):
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


def test_rate_kernels_have_one_entry_in_planner():
    def kernels(tree):
        for name in ("rate_per_pulse", "rate_and_slopes"):
            yield from _references_to(tree, name)

    in_planner = [site for site in _package_sites(kernels) if site[1].startswith("planner.py:")]
    # Both kernels are named once, in the chunking helper, and nowhere
    # else in the planner.
    assert [scope for scope, _ in in_planner] == ["planner._kernel"] * 2, in_planner


def test_walk_finds_every_reference_form():
    source = (
        "def f(slopes):\n"
        "    k = rate_and_slopes if slopes else rate_per_pulse\n"
        "    def inner():\n"
        "        return qkd.rate_per_pulse(1, 2, 3, p)\n"
        "    return apply(rate_per_pulse, rate_per_pulse_other)\n"
    )
    found = list(_references_to(ast.parse(source), "rate_per_pulse"))
    assert found == [(".f", 2), (".f.inner", 4), (".f", 5)]


def _stray_kernel_users(sites):
    """The ``_kernel`` sites of ``planner`` outside ``_KERNEL_USERS``."""
    return [
        where
        for scope, where in sites
        if where.startswith("planner.py:") and scope not in _KERNEL_USERS
    ]


def test_objective_has_one_evaluator():
    found = _package_sites(lambda tree: _references_to(tree, "_kernel"))
    assert _stray_kernel_users(found) == [], found
    # The walk must see the allowed user, or it checks nothing.
    assert {scope for scope, where in found if where.startswith("planner.py:")} == _KERNEL_USERS


def test_walk_finds_a_second_evaluator():
    source = (
        "def _line(problem):\n"
        "    def f(rows, x):\n"
        "        return _kernel(eta, x, cross, params)\n"
        "    return f\n"
        "def _totals(problem, v):\n"
        "    return _kernel(eta, v, cross, params).sum()\n"
        "def _optimize():\n"
        "    def lone(rows, x):\n"
        "        return _kernel(lead, x, 0.0, params)\n"
        "    return _line_max(_kernel)\n"
    )
    sites = [
        ("planner" + scope, f"planner.py:{line}")
        for scope, line in _references_to(ast.parse(source), "_kernel")
    ]
    assert _stray_kernel_users(sites) == ["planner.py:6", "planner.py:9", "planner.py:10"]


def _class_step(tree: ast.AST):
    """(``_line_max`` calls, lines of every other ``if``) in the ``for k``
    loops of ``_optimize``; None when there is no such loop."""
    loops = [
        node
        for scope, node in _scoped_nodes(tree)
        if scope == "._optimize" and isinstance(node, ast.For) and _is_named(node.target, "k")
    ]
    if not loops:
        return None
    searches, branches = 0, []
    for node in (inner for loop in loops for inner in ast.walk(loop)):
        searches += isinstance(node, ast.Call) and _is_named(node.func, "_line_max")
        breaks = isinstance(node, ast.If) and not node.orelse
        if breaks and [type(s) for s in node.body] == [ast.Break]:
            continue
        if isinstance(node, (ast.If, ast.IfExp)):
            branches.append(node.lineno)
    return searches, branches


def test_class_step_has_one_path():
    path = Path(fsoqkd.__file__).parent / "planner.py"
    found = _class_step(ast.parse(path.read_text(encoding="utf-8")))
    # The walk must find the loop, or it checks nothing.
    assert found == (1, []), found


def test_walk_finds_a_branch_in_the_class_step():
    source = (
        "def _optimize():\n"
        "    for sweep in range(9):\n"
        "        for k in range(n_cls):\n"
        "            step = rows[active[rows]]\n"
        "            if not step.size:\n"
        "                break\n"
        "            x, val = single[step], single_val[step]\n"
        "            if search.any():\n"
        "                x[search], val[search] = _line_max(f, lo, hi, tol)\n"
        "            v = x if val.any() else v\n"
        "def other():\n"
        "    for k in range(3):\n"
        "        _line_max(f, lo, hi, tol)\n"
    )
    assert _class_step(ast.parse(source)) == (1, [8, 10])
    assert _class_step(ast.parse("def _optimize():\n    return _line_max(f)\n")) is None
