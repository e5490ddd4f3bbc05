"""formald has one truncated product and one scaled accumulate: every
update of a sparse dict entry by a sum, written ``d.get(k, default) +/- ...``
or ``d[k] +/- ... if k in d else ...``, lives in the pair loop on packed
keys ``series.packed_products`` (under ``product_by``, ``SeriesPoly._product``
and the graded solves), ``linalg.vec_add_scaled``, ``Series.sum_of`` (which
keeps its own loop, as a unit-factor accumulate would cost a multiplication
per term) or ``SeriesPoly._accumulate`` (whose values are series, not
numbers)."""

import ast
from pathlib import Path

import formald

SOURCES = sorted(Path(formald.__file__).resolve().parent.glob("*.py"))
KERNELS = {"vec_add_scaled", "packed_products", "Series.sum_of",
           "SeriesPoly._accumulate"}


def _is_get_with_default(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and len(node.args) == 2)


def _is_guarded_entry_sum(node):
    """``d[k] +/- ... if k in d else ...``."""
    if not (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)
            and len(node.test.ops) == 1 and isinstance(node.test.ops[0], ast.In)):
        return False
    body = node.body
    if not (isinstance(body, ast.BinOp) and isinstance(body.op, (ast.Add, ast.Sub))
            and isinstance(body.left, ast.Subscript)):
        return False
    return (ast.dump(body.left.value) == ast.dump(node.test.comparators[0])
            and ast.dump(body.left.slice) == ast.dump(node.test.left))


def accumulating_functions(tree):
    """Qualified names of the functions holding an entry accumulate of
    either form."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if _is_guarded_entry_sum(node) or (
                isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
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


def test_every_kernel_is_found():
    # a kernel that moved or was renamed would leave a stale entry behind
    found = set()
    for path in SOURCES:
        found |= accumulating_functions(ast.parse(path.read_text(encoding="utf-8")))
    assert KERNELS <= found


def test_a_planted_loop_of_either_form_is_caught():
    planted = '''
def with_get(out, src, c):
    for k, v in src.items():
        out[k] = out.get(k, 0) + c * v

class Holder:
    def with_membership(self, out, src, c):
        for k, v in src.items():
            out[k] = out[k] - c * v if k in out else -c * v

def unrelated(d, k):
    return d[k] if k in d else 0
'''
    assert accumulating_functions(ast.parse(planted)) == {
        "with_get", "Holder.with_membership"}
