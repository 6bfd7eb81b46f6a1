"""Every name the package root exports, and every top-level function and
class and non-dunder method of the package, has a caller in the library or
the benchmark, not only in the tests; no module builds an object around
its validating constructor, and no module reaches for another's private
names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bandtile"


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _referenced():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").rglob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defined():
    """(module:line, name) of each top-level function and class and each
    non-dunder method of a top-level class in the package."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, kinds):
                continue
            found.append((f"{path.name}:{node.lineno}", node.name))
            if isinstance(node, ast.ClassDef):
                found += [(f"{path.name}:{item.lineno}", item.name)
                          for item in node.body
                          if isinstance(item, kinds[:2])
                          and not _is_dunder(item.name)]
    return found


def test_every_export_has_a_caller():
    exported, referenced = _exported(), _referenced()
    uncalled = [n for n in exported if n not in referenced]
    assert uncalled == [], f"exports without a caller: {uncalled}"


def test_every_definition_has_a_caller():
    """A function, class or method that only the tests reach is code the
    package does not need."""
    referenced = _referenced()
    uncalled = [f"{where} {name}" for where, name in _defined()
                if name not in referenced]
    assert uncalled == [], f"definitions without a caller: {uncalled}"


def _calls_object_new(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object")


def test_no_module_bypasses_a_constructor():
    """object.__new__ would build an instance without __post_init__'s
    checks, a second construction path beside the validated one."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if _calls_object_new(node)]
    assert found == [], f"object.__new__ calls in src: {found}"


def _is_private(name):
    # a dunder such as __version__ is public
    return name.startswith("_") and not name.endswith("__")


def _private_imports(path):
    """module:line of each underscore name that `path` imports from
    another module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("bandtile"):
            continue
        found += [f"{path.name}:{node.lineno} {alias.name}"
                  for alias in node.names if _is_private(alias.name)]
    return found


def test_no_module_imports_a_private_name():
    """A private name belongs to its module; a second module that needs
    it means the code behind it lives in the wrong place."""
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _private_imports(path)]
    assert found == [], f"private names imported across modules: {found}"
