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


# names __init__.py exports that no other module needs to read, and why
UNREAD_EXPORTS = {
    "commutator": "the bench job commutator:n2 calls it",
}


def exported_names(tree):
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def read_names(tree):
    """Names a module reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def dead_exports(init_tree, module_trees):
    read = set().union(*map(read_names, module_trees))
    return exported_names(init_tree) - read - set(UNREAD_EXPORTS)


def test_every_export_is_read_by_another_module():
    init = next(path for path in SOURCES if path.name == "__init__.py")
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in SOURCES if path != init]
    assert not dead_exports(ast.parse(init.read_text(encoding="utf-8")), modules)


def test_a_planted_dead_export_is_caught():
    init = ast.parse("from .a import used, attr_used, commutator, planted\n")
    module = ast.parse("def planted():\n    return used(x.attr_used)\n")
    assert dead_exports(init, [module]) == {"planted"}
