"""Every function formald defines is reached by a verb, or is listed here
with the reason it stays.

The ledger runs every golden argv of ``golden_cli.json`` through
``formald.cli.main`` in process, then calls each public function that no
verb runs (the series-calculus function jobs of ``bench/workloads.py``),
under ``sys.setprofile``.  A ``def`` is matched to the code objects
entered by file, first line (a decorated def's code starts at its first
decorator) and name; Python 3.10 has no ``co_qualname``.  Lambdas and
comprehensions are not defs and are left out.  The defs never entered
must be exactly those ALLOWLIST names, or dunders: a new function that
nothing reaches fails here until it gets a caller or a reason, and so
does an entry whose def gained a caller or no longer exists."""

import ast
import contextlib
import importlib.util
import io
import re
import sys
from pathlib import Path

import formald
from formald import cli, commutator, exp_series, invert_unit, op_product
from formald.parser import parse_operator, parse_series

from test_cli import GOLDEN

SOURCES = sorted(Path(formald.__file__).resolve().parent.glob("*.py"))

_TRACED = "bench/tracer.py resolves it by name for a span"
_GUARD = "a guard the golden corpus does not trip"

# "module:Qualified.name" of each def no verb enters, and why it stays
ALLOWLIST = {
    "cli:console_main": "the console script and python -m formald; the "
                        "ledger calls main in process",
    "derham:ModuleFamily.multiply_columns": _TRACED,
    "derham:KernelFamily.multiply_columns": _TRACED,
    "derham:CokernelFamily.basis": _TRACED,
    "linalg:ColumnEchelon.project": _TRACED,
    "weyl:DiffOp.apply": "oracle: test_weyl compares op_product with "
                         "composed actions",
    "weyl:DiffOp.order": "oracle: test_weyl reads the order of products",
    "series:Series.partial_multi": "oracle: test_weyl's Leibniz expansion",
    "series:WeierstrassForm.reconstruct": "oracle: the check of "
                                          "weierstrass_prepare",
    "weyl:DiffOp.principal_symbol": "oracle: test_symbols checks "
                                    "poisson_bracket against the commutator",
    "series:Series.variable": "the parser's recursive descent reads an x "
                              "atom through it; the corpus's x atoms all "
                              "go through the term reader",
    "parser:_check_power": _GUARD + ": a literal power past the digit limit",
    "modules:_ring_form": _GUARD + ": a localization ladder at pole 0",
    "errors:ParseError.__init__": _GUARD + ": every golden input parses",
}

# dunders (__eq__, __repr__, __rsub__, __bool__, ...): the operators,
# printing and truth of formald's value types, which no report uses; a
# class whose __init__ is never entered is never built, so __init__ is
# not among them
_DUNDER = re.compile(r"\.__(?!init__)\w+__$")


def definitions(path):
    """{(file, first line, name): "module:Qualified.name"} of every def in
    one source file."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first, child.name)] = prefix + child.name
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}:")
    return found


def entered(run):
    """(file, first line, name) of every code object entered while
    ``run()`` runs."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    files = {name: Path(name).resolve() for name in {c.co_filename for c in codes}}
    return {(files[c.co_filename], c.co_firstlineno, c.co_name) for c in codes}


def ledger(defs, reached, allowlist):
    """(unlisted, stale, missing): defs never entered that neither the
    allowlist nor the dunder pattern names; allowlist entries whose def
    was entered; allowlist entries that name no def."""
    dead = {name for key, name in defs.items() if key not in reached}
    live = set(defs.values()) - dead
    unlisted = {name for name in dead
                if name not in allowlist and not _DUNDER.search(name)}
    return unlisted, set(allowlist) & live, set(allowlist) - set(defs.values())


def _drive_formald():
    cli._parser.cache_clear()  # so that main builds its parser here
    for case in GOLDEN:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(case["argv"])) == case["exit"]
    # public functions with no verb, printed as the bench's function jobs are
    unit = parse_series("1 + x1 - 2*x2 + x1*x2", 2, 6)
    str(invert_unit(unit))
    str(exp_series(parse_series("x1 - x2^2", 2, 6)))
    left = parse_operator("x1*d1 + d2", 2, 6)
    right = parse_operator("x2^2*d1 + 1", 2, 6)
    str(op_product(left, right))
    str(commutator(left, right))


def test_every_def_no_verb_reaches_is_allowlisted_with_a_reason():
    assert all(ALLOWLIST.values())
    defs = {}
    for path in SOURCES:
        defs.update(definitions(path))
    assert ledger(defs, entered(_drive_formald), ALLOWLIST) == (set(), set(), set())


PLANTED = '''\
import functools


def reached():
    return [helper(k) for k in range(2)]


def helper(k):
    return (lambda j: j + 1)(k)


def planted():
    return 0


class Box:
    @functools.cache
    def cached(self):
        return 1

    def __repr__(self):
        return "Box"
'''


def test_a_planted_dead_def_a_stale_reason_and_a_missing_def_are_caught(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(PLANTED, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("planted", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    reached = entered(lambda: (module.reached(), module.Box().cached()))
    # Box.cached is entered through its decorator, so its reason is stale;
    # the unreached Box.__repr__ is a dunder
    allowlist = {"planted:Box.cached": "stale", "planted:gone": "missing"}
    assert ledger(definitions(path.resolve()), reached, allowlist) == (
        {"planted:planted"}, {"planted:Box.cached"}, {"planted:gone"})
