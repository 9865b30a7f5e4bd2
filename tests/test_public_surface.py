"""The package exports only names that something calls, and keeps only
helpers that the package itself calls.

Every name in `bec.__all__` must be used in `src/bec` outside its own
definition, or in `perfbench/`, or be listed in ALLOWED with the ROADMAP
open item that will give it a caller.  Every other module-level public
function, class or name bound by assignment of `src/bec` must be used in
`src/bec` outside its own definition, or in `perfbench/`.  Every
module-level private function or class of `src/bec`, and every
module-level private name bound by assignment (a constant such as
`_NAME = ...`), must be used in `src/bec` outside its own definition.
"""
import ast
from pathlib import Path

import bec

ROOT = Path(__file__).resolve().parents[1]

# exported names without a caller yet, each with the item that adds one
ALLOWED = {
    "krein_Q": "ROADMAP item 5: Krein's resolvent formula",
    "green_identity_residual": "ROADMAP item 5: the L2 Gram matrix of the "
                               "decaying exponentials",
    "formal_symmetry_defect": "ROADMAP item 6: checks of a [triple] section",
    "triple_defect": "ROADMAP item 6: checks of a [triple] section",
}


def _uses(path):
    """Names a module uses: loaded names, attributes and the modules it
    imports from, less the uses inside a definition of the same name."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.ImportFrom) and node.module:
            name = node.module.split(".")[-1]
        if name is not None and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return used


def _used_names():
    paths = [p for p in (ROOT / "src" / "bec").glob("*.py")
             if p.name != "__init__.py"]
    paths += list((ROOT / "perfbench").glob("*.py"))
    return set().union(*map(_uses, paths))


def _private(names):
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def _definitions(path):
    """Module-level functions and classes of a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _constants(path):
    """Module-level names of a module bound by assignment, each target of
    a tuple included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    targets = [t for node in tree.body if isinstance(node, ast.Assign)
               for t in node.targets]
    targets += [node.target for node in tree.body
                if isinstance(node, ast.AnnAssign)]
    return {node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name)}


def test_every_exported_name_has_a_caller():
    used = _used_names()
    assert sorted(set(bec.__all__) - used - set(ALLOWED)) == []
    # an allowed name leaves the list once it has a caller
    assert sorted(set(ALLOWED) & used) == []
    assert set(ALLOWED) <= set(bec.__all__)


def test_every_unexported_public_name_has_a_caller():
    # a public helper that neither the package nor the benchmark calls,
    # and that bec does not export, serves only tests
    paths = list((ROOT / "src" / "bec").glob("*.py"))
    defined = set().union(*map(_definitions, paths),
                          *map(_constants, paths))
    public = {name for name in defined if not name.startswith("_")}
    unexported = public - set(bec.__all__)
    assert "LAPLACE_ROWS" in unexported and "main" in unexported
    assert sorted(unexported - _used_names()) == []


def test_every_private_helper_has_a_caller_in_the_package():
    # a helper that only tests call would outlive the path it served
    paths = list((ROOT / "src" / "bec").glob("*.py"))
    used = set().union(*map(_uses, paths))
    defined = _private(set().union(*map(_definitions, paths)))
    assert defined and sorted(defined - used) == []


def test_every_private_constant_is_read_in_the_package():
    # a threshold or code that nothing reads would outlive the test it set
    paths = list((ROOT / "src" / "bec").glob("*.py"))
    used = set().union(*map(_uses, paths))
    defined = _private(set().union(*map(_constants, paths)))
    assert "_EVEN_TOL" in defined and "_FAILED" in defined
    assert sorted(defined - used) == []
