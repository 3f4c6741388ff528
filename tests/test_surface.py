"""Guard against dead surface: every public function of the package is used
somewhere in the package itself, not only by tests; every dataclass field is
read somewhere in the package; the declared dependencies are exactly the
third-party modules the package imports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fmbff

PACKAGE = Path(fmbff.__file__).parent
# Entry points called from outside the package (the console script).
EXEMPT = {"main"}


def unused_public_functions(package_dir):
    """Public module-level functions that no source in ``package_dir`` uses.

    A name counts as used when it is loaded as a ``Name``, read as an
    attribute of a package-module alias (``blocks.fmcab_forward``), or
    re-exported by the package's ``__init__.py``.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(package_dir).glob("*.py")}
    public = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    used = set()
    for module, tree in trees.items():
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module is None
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                used.add(node.attr)
            elif (module == "__init__" and isinstance(node, ast.ImportFrom)
                  and node.level > 0):
                used.update(alias.name for alias in node.names)
    return sorted(
        f"{module}.{name}" for module, name in public
        if name not in used and name not in EXEMPT
    )


def test_every_public_function_is_used_in_the_package():
    assert unused_public_functions(PACKAGE) == []


def test_scan_flags_a_function_nothing_calls(tmp_path):
    (tmp_path / "__init__.py").write_text("from .ops import exported\n")
    (tmp_path / "ops.py").write_text(
        "def exported():\n    pass\n\n"
        "def called():\n    pass\n\n"
        "def via_alias():\n    pass\n\n"
        "def dead():\n    return called()\n\n"
        "def main():\n    pass\n"
    )
    (tmp_path / "user.py").write_text("from . import ops as o\n\nVALUE = o.via_alias\n")
    assert unused_public_functions(tmp_path) == ["ops.dead"]


def unread_dataclass_fields(package_dir):
    """Fields of the dataclasses in ``package_dir`` that no source there reads.

    A field counts as read when an attribute of its name is loaded anywhere
    (``params.heads``), whatever object it is loaded from.
    """
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    trees = [ast.parse(path.read_text()) for path in Path(package_dir).glob("*.py")]
    fields = {
        (node.name, stmt.target.id)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in read)


def test_every_dataclass_field_is_read_in_the_package():
    assert unread_dataclass_fields(PACKAGE) == []


def test_scan_flags_a_field_nothing_reads(tmp_path):
    (tmp_path / "records.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n\n"
        "@dataclass\n"
        "class Layer:\n    weight: int\n    dead: int = 0\n\n"
        "@dataclasses.dataclass(eq=False)\n"
        "class Trace:\n    out: int\n    written: int\n\n"
        "class Plain:\n    ignored: int\n"
    )
    (tmp_path / "user.py").write_text(
        "def use(layer, trace):\n"
        "    trace.written = layer.weight\n"
        "    return trace.out\n"
    )
    assert unread_dataclass_fields(tmp_path) == ["Layer.dead", "Trace.written"]


def third_party_imports(package_dir):
    """Top-level names of the non-stdlib modules imported under ``package_dir``."""
    names = set()
    for path in Path(package_dir).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return sorted(names - set(sys.stdlib_module_names))


def test_declared_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(PACKAGE.parent.parent / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = sorted(re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in declared)
    assert third_party_imports(PACKAGE) == names


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = ("import sys, fmbff.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"
