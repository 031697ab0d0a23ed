"""Every ``repro`` package imports, and every name its ``__all__``
exports resolves: a deletion cannot leave an export naming nothing.
And no module imports a name it never uses: a deletion cannot leave
its imports behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import repro


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    packages = list(_packages())
    assert len(packages) > 30
    unresolved = [f"{package.__name__}.{name}" for package in packages
                  for name in package.__all__
                  if not hasattr(package, name)]
    assert unresolved == []


def _unused_imports(source: str):
    """Names *source* imports that none of its expressions references
    (a quoted annotation and an ``__all__`` entry count as references;
    an import marked ``noqa: F401`` is made for its side effects)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation, or an ``__all__`` entry
                used.update(n.id for n in ast.walk(
                    ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    root = Path(repro.__file__).parent
    modules = [path for path in root.rglob("*.py")
               if path.name != "__init__.py"]
    assert len(modules) > 100
    unused = [f"{path.relative_to(root)}:{line} {name}"
              for path in modules
              for line, name in _unused_imports(path.read_text())]
    assert unused == []


def test_the_import_scan_finds_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom typing import List, Optional\n"
              "def f(x: 'Optional[int]') -> None:\n    return os\n")
    assert _unused_imports(source) == [(3, "List")]
