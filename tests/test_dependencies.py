"""formald has no runtime dependencies: every module imports only the
standard library and formald itself, so numpy, sympy or hypothesis can
serve the tests but never the package."""

import ast
import sys
from pathlib import Path

import formald

SOURCES = sorted(Path(formald.__file__).resolve().parent.glob("*.py"))


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "formald" if node.level else node.module.partition(".")[0]


def test_package_imports_only_stdlib_and_itself():
    assert SOURCES
    outside = {(path.name, root)
               for path in SOURCES
               for root in imported_roots(ast.parse(path.read_text(encoding="utf-8")))
               if root != "formald" and root not in sys.stdlib_module_names}
    assert not outside


def unused_imports(tree):
    """Names a module imports and never reads (``__future__`` excepted)."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_imported_name_is_used():
    # __init__.py imports to re-export
    unused = {(path.name, name)
              for path in SOURCES if path.name != "__init__.py"
              for name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))}
    assert not unused
