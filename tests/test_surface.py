"""Guard against dead surface: every module-level function of the package,
public or private, and every method and property is used somewhere in the
package itself, not only by tests; every dataclass field is read in the
module that defines it; every defaulted parameter is passed by some call in
the package, bar a named set; the declared dependencies are exactly the
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
# Entry points called from outside the package.
EXEMPT = {
    "main",  # the console script
    "ParamStore.copy_values",  # perfbench/workloads.py snapshots parameters with it
}


def unused_functions(package_dir):
    """Module-level functions, public or ``_private``, and methods and
    properties other than dunders, that no source in ``package_dir`` uses.

    A function counts as used when it is loaded as a ``Name``, read as an
    attribute of a package-module alias (``blocks.fmcab_forward``), or
    re-exported by the package's ``__init__.py``.  A lowering left behind
    beside the one that replaced it shows up here.  A method or property
    counts as used when an attribute of its name is loaded anywhere
    (``store.names()``), whatever object it is loaded from; like the field
    scan below, that misses a dead method named like a used one.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(package_dir).glob("*.py")}
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    methods = {
        (module, cls.name, fn.name)
        for module, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
    }
    loaded = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
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
    dead = [f"{module}.{name}" for module, name in defined if name not in used]
    dead += [f"{module}.{cls}.{name}" for module, cls, name in methods if name not in loaded]
    return sorted(d for d in dead if d.split(".", 1)[1] not in EXEMPT)


def test_every_public_function_is_used_in_the_package():
    assert unused_functions(PACKAGE) == []


def test_scan_flags_a_function_nothing_calls(tmp_path):
    (tmp_path / "__init__.py").write_text("from .ops import exported\n")
    (tmp_path / "ops.py").write_text(
        "def exported():\n    pass\n\n"
        "def called():\n    pass\n\n"
        "def via_alias():\n    pass\n\n"
        "def dead():\n    return called()\n\n"
        "def _helper():\n    pass\n\n"
        "def _old_helper():\n    pass\n\n"
        "def main():\n    return _helper()\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.v = 0\n\n"
        "    @property\n    def size(self):\n        return self.v\n\n"
        "    def used(self):\n        return self.size\n\n"
        "    def dead_method(self):\n        pass\n"
    )
    (tmp_path / "user.py").write_text(
        "from . import ops as o\n\nVALUE = o.via_alias\nSIZE = o.Box().used()\n"
    )
    assert unused_functions(tmp_path) == ["ops.Box.dead_method", "ops._old_helper", "ops.dead"]


def unread_dataclass_fields(package_dir):
    """Fields of the dataclasses in ``package_dir`` that the module defining
    them never reads.

    A field counts as read when an attribute of its name is loaded in its
    own module (``cfg.augment`` in ``train.py``), whatever object it is
    loaded from.  A read elsewhere does not count: a switch that only one
    caller honours is one the defining module's functions ignore.  That is
    a blind spot too: a field nothing reads still passes when another class
    in its module has a field of the same name that is read.
    """
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    unread = []
    for path in Path(package_dir).glob("*.py"):
        tree = ast.parse(path.read_text())
        read = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        unread += [
            f"{node.name}.{stmt.target.id}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read
        ]
    return sorted(unread)


def test_every_dataclass_field_is_read_in_the_package():
    assert unread_dataclass_fields(PACKAGE) == []


def test_scan_flags_a_field_nothing_reads(tmp_path):
    (tmp_path / "records.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n\n"
        "@dataclass\n"
        "class Layer:\n    weight: int\n    dead: int = 0\n    remote: int = 0\n\n"
        "@dataclasses.dataclass(eq=False)\n"
        "class Trace:\n    out: int\n    written: int\n\n"
        "class Plain:\n    ignored: int\n\n"
        "def run(layer, trace):\n"
        "    trace.written = layer.weight\n"
        "    return trace.out\n"
    )
    (tmp_path / "user.py").write_text(
        "def use(layer):\n"
        "    return layer.remote + layer.dead\n"
    )
    # Layer.remote is read only in user.py, so records.py ignores it
    assert unread_dataclass_fields(tmp_path) == ["Layer.dead", "Layer.remote", "Trace.written"]


# Defaulted parameters that only callers outside the package set, by setter.
# The guard holds the set to exactly the unpassed ones, so an entry that the
# package now passes, or whose parameter is gone, fails it too.
EXEMPT_PARAMS = {
    "biffm_forward.return_gates",  # acceptance criteria 2 and 4
    "tsa_forward.return_attn",  # acceptance criteria 2 and 4
    "gsa_forward.return_attn",  # acceptance criteria 2 and 4
    "train.stop_at_metric",  # acceptance criterion 6
    "main.argv",  # the console script
    "conv2d.stride",  # acceptance criterion 3 and tests/test_tensor.py
}


def unpassed_defaults(package_dir):
    """Defaulted parameters that no call in ``package_dir`` passes.

    A call passes a parameter by keyword or by position; a starred argument
    passes no position from its own on, since its length is unknown, and
    ``**`` passes every keyword.  A keyword whose value is the parameter's
    own literal default (``stride=1``) does not count.  Calls match by
    function name (``f(...)`` and ``obj.f(...)`` alike, and a class name
    calls its ``__init__``).  A method's first parameter is its receiver.
    Results read ``function.param``, ``Class.method.param`` or, for
    ``__init__``, ``Class.param``.
    """
    def literal(node):
        """The value of a literal; anything else reads as a new object, which
        equals no other value."""
        try:
            return ast.literal_eval(node)
        except (TypeError, ValueError):
            return object()

    trees = [ast.parse(path.read_text()) for path in Path(package_dir).glob("*.py")]
    calls = {}  # callee name -> (positions passed, {keyword: literal value}) of each call
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                reach = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                             len(node.args))
                calls.setdefault(name, []).append(
                    (reach, {k.arg: literal(k.value) for k in node.keywords})
                )

    def passed(callee, position, param, default):
        return any(
            (position is not None and position < reach) or None in keywords
            or (param in keywords and keywords[param] != default)
            for reach, keywords in calls.get(callee, ())
        )

    unpassed = set()
    for tree in trees:
        owners = {
            id(stmt): node.name
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for stmt in node.body
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = owners.get(id(fn))
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            callee = label = fn.name
            if owner is not None:
                positional = positional[1:]
                callee = owner if fn.name == "__init__" else fn.name
                label = owner if fn.name == "__init__" else f"{owner}.{fn.name}"
            first = len(positional) - len(fn.args.defaults)
            defaults = [(first + i, positional[first + i], literal(d))
                        for i, d in enumerate(fn.args.defaults)]
            defaults += [(None, a.arg, literal(d)) for a, d in
                         zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            unpassed.update(f"{label}.{p}" for i, p, d in defaults
                            if not passed(callee, i, p, d))
    return sorted(unpassed)


def test_every_default_is_passed_in_the_package():
    assert set(unpassed_defaults(PACKAGE)) == EXEMPT_PARAMS


def test_scan_flags_a_default_nothing_passes(tmp_path):
    (tmp_path / "ops.py").write_text(
        "def scale(x, factor=2.0, *, clip=None, dead=0):\n    return x\n\n"
        "def norm(x, w, b=None, eps=1e-5):\n    return x\n\n"
        "def spread(a=1, b=2):\n    pass\n\n"
        "def main(argv=None):\n    pass\n\n"
        "class Store:\n"
        "    def __init__(self, seed=0, spare=1):\n        pass\n\n"
        "    def conv(self, name, bias=0.0):\n        pass\n"
    )
    (tmp_path / "user.py").write_text(
        "from .ops import Store, norm, scale, spread\n\n"
        "def run(x, pair, opts):\n"
        "    store = Store(3)\n"
        "    store.conv('a')\n"
        "    norm(x, *pair)\n"
        "    spread(**opts)\n"
        "    return scale(x, clip=1.0, dead=0)\n"
    )
    assert unpassed_defaults(tmp_path) == [
        "Store.conv.bias", "Store.spare", "main.argv", "norm.b", "norm.eps", "scale.dead",
        "scale.factor",
    ]


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
