"""Every name the package root exports has a caller in the library or the
benchmark, not only in the tests, no module builds an object around its
validating constructor, and no module reaches for another's private
names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bandtile"

# exported for compositions the roadmap plans, with no caller yet
WAITING = {
    "build_node_set",  # ROADMAP item 5: orbit -> tiling -> node set chain
}


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


def test_every_export_has_a_caller():
    exported, referenced = _exported(), _referenced()
    uncalled = [n for n in exported if n not in referenced | WAITING]
    assert uncalled == [], f"exports without a caller: {uncalled}"
    # a name leaves the allowlist once it is called or deleted
    assert WAITING <= set(exported) and not WAITING & referenced


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
