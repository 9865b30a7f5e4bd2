"""The modules of `src/bec` import one way along the pipeline.

Each module imports only the modules before it in ORDER:

    errors, numerics -> symbol -> extension -> models -> edge
    -> report, svgplot -> modelfile -> cli -> __main__

so a kernel never reaches into a consumer of its results.  `__init__`
gathers the public names of all of them and is exempt.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bec"

ORDER = ("errors", "numerics", "symbol", "extension", "models", "edge",
         "report", "svgplot", "modelfile", "cli", "__main__")


def _imports(path):
    """The modules of the package that a module imports, at any depth of
    its code: `from .m import ...`, `from . import m`, `from bec.m import
    ...`, `from bec import m` and `import bec.m`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "bec":
                continue
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("bec."))
    return found


def test_every_module_has_a_place_in_the_order():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__"} == set(ORDER)


def test_every_module_imports_only_earlier_modules():
    late = sorted((name, used) for i, name in enumerate(ORDER)
                  for used in _imports(SRC / (name + ".py"))
                  if used not in ORDER[:i])
    assert late == []


def test_the_import_scan_sees_every_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import numpy\nimport bec.symbol\nfrom . import cli\n"
                    "from .edge import winding\nfrom bec import models\n"
                    "from bec.report import InvariantReport\n"
                    "def f():\n    from .extension import from_ab\n")
    assert _imports(path) == {"symbol", "cli", "edge", "models", "report",
                              "extension"}
