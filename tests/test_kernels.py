"""formald has one truncated product and one scaled accumulate: every
``d[k] = d.get(k, default) +/- ...`` update of a sparse dict lives in
``series.add_product``, ``linalg.vec_add_scaled`` or ``Series.__add__``
(which keeps its own loop, as a unit-factor accumulate would cost a
multiplication per term)."""

import ast
from pathlib import Path

import formald

SOURCES = sorted(Path(formald.__file__).resolve().parent.glob("*.py"))
KERNELS = {"vec_add_scaled", "add_product", "Series.__add__"}


def _is_get_with_default(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and len(node.args) == 2)


def accumulating_functions(tree):
    """Qualified names of the functions holding a ``d.get(k, ...) +/- ...``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                and _is_get_with_default(node.left)):
            found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_accumulate_only_in_the_kernels():
    assert SOURCES
    outside = {(path.name, name)
               for path in SOURCES
               for name in accumulating_functions(
                   ast.parse(path.read_text(encoding="utf-8")))
               if name not in KERNELS}
    assert not outside
