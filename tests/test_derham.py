"""Truncated de Rham complexes: exact differentials, dimensions, ladders."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from formald import derham, linalg
from formald.derham import (CokernelFamily, KernelFamily, ModuleFamily,
                            cohomology_dims, cokernel_of_dn,
                            complex_from_family, kernel_of_dn,
                            les_consistency, stable_cohomology_dims,
                            stabilized_dims)
from formald.errors import NonIntegrable
from formald.linalg import ColumnEchelon, Matrix
from formald.modules import ModulePresentation
from formald.parser import parse_module
from formald.series import (LinearSubstitution, Series, monomials_upto,
                            apply_linear_substitution)

from conftest import cli_report, random_series, span_rank


def build_complex(module, trunc, pole=None):
    """The whole-window de Rham complex of a module's ladder."""
    family = ModuleFamily(module, trunc, pole)
    return complex_from_family(family, (trunc, pole), module.describe())


def test_structure_dzero_shape():
    M = ModulePresentation.structure(1, 30)
    C = build_complex(M, 4)
    d0 = C.differentials[0]
    assert d0.ncols == 5 and d0.nrows == 4     # x^0..x^4 -> x^0..x^3
    # x^i maps to i*x^{i-1}
    assert d0.cols[3] == {2: Fraction(3)}
    assert d0.cols[0] == {}


def test_d_squared_zero_structure():
    M = ModulePresentation.structure(3, 30)
    C = build_complex(M, 5)
    for j in range(len(C.differentials) - 1):
        assert C.differentials[j + 1].compose(C.differentials[j]).is_zero()


def test_localization_dzero_sends_inverse_to_derivative():
    x = Series.variable(1, 1, 30)
    M = ModulePresentation.localization(x)
    family = ModuleFamily(M, 4, 3)
    C = complex_from_family(family, (4, 3), M.describe())
    # level-0 basis is x^e/f^3; the element x^2/f^3 = 1/x maps to -1/x^2,
    # i.e. to -1 * x^2/f^4 at level 1
    labels0 = [family.label_text(0, lab) for lab in family.basis(0)]
    labels1 = [family.label_text(1, lab) for lab in family.basis(1)]
    src = labels0.index("(x1^2)/f^3")
    dst = labels1.index("(x1^2)/f^4")
    assert C.differentials[0].cols[src] == {dst: Fraction(-1)}


def test_dims_structure():
    for n in (1, 2):
        M = ModulePresentation.structure(n, 30)
        report = cohomology_dims(build_complex(M, 6))
        assert report.dims == (1,) + (0,) * n


def test_dims_localization_single_run_matches_deepening():
    x = Series.variable(1, 1, 30)
    M = ModulePresentation.localization(x)
    a = stable_cohomology_dims(M, 6, 4)
    b = stable_cohomology_dims(M, 8, 5)
    assert a.dims == b.dims == (1, 1)


def test_stabilized_dims_product_of_lines():
    # R localized at x1*x2 behaves like the product of two punctured lines:
    # the one-variable answers (1,1) give (1, 2, 1)
    x1 = Series.variable(2, 1, 40)
    x2 = Series.variable(2, 2, 40)
    M = ModulePresentation.localization(x1 * x2)
    report = stabilized_dims(M, [(6, 4), (8, 5)])
    assert report.dims == (1, 2, 1)
    assert all(report.stabilized)


def test_stabilized_dims_partial_localization():
    x1 = Series.variable(2, 1, 40)
    M = ModulePresentation.localization(x1)
    report = stabilized_dims(M, [(6, 4), (8, 5)])
    assert report.dims == (1, 1, 0)
    assert all(report.stabilized)


def test_localization_from_pole_zero():
    # level 0 holds numerators over f^0, so d_axis scales f's derivative by 0
    x1 = Series.variable(2, 1, 40)
    x2 = Series.variable(2, 2, 40)
    M = ModulePresentation.localization(x1 * x2)
    assert stable_cohomology_dims(M, 6, 0).dims == (1, 2, 1)


def test_smooth_hypersurface_matches_linear_model():
    # x2^2 + x1 is a coordinate away from x1: the dims must agree
    x1 = Series.variable(2, 1, 40)
    x2 = Series.variable(2, 2, 40)
    M = ModulePresentation.localization(x2 * x2 + x1)
    report = stabilized_dims(M, [(6, 3), (8, 4)])
    assert report.dims == (1, 1, 0)


def test_monotone_under_budget_growth():
    x = Series.variable(1, 1, 40)
    M = ModulePresentation.localization(x)
    reports = [stable_cohomology_dims(M, n, k)
               for n, k in [(5, 3), (7, 4), (9, 5)]]
    for earlier, later in zip(reports, reports[1:]):
        for i, d in enumerate(earlier.dims):
            assert later.dims[i] >= d


def test_kernel_of_dn_structure():
    M = ModulePresentation.structure(2, 30)
    data = kernel_of_dn(M, 6)
    # kernel of d_2 on truncated R is the x2-free part
    assert data.dims[0] == 7
    assert all("x2" not in text for text in data.basis_texts)


def test_kernel_of_dn_localization():
    x = Series.variable(1, 1, 30)
    M = ModulePresentation.localization(x)
    data = kernel_of_dn(M, 8, 4)
    assert data.dims[0] == 1                      # constants only


def test_cokernel_of_dn():
    x = Series.variable(1, 1, 30)
    M = ModulePresentation.localization(x)
    data = cokernel_of_dn(M, 8, 4)
    assert data.dims[0] == 1
    assert data.basis_texts[0] == "(x1^4)/f^5"    # the class of 1/x

    M2 = ModulePresentation.structure(2, 30)
    assert cokernel_of_dn(M2, 6).dims[0] == 0

    x1 = Series.variable(2, 1, 40)
    M3 = ModulePresentation.localization(x1)
    assert cokernel_of_dn(M3, 6, 4).dims[0] == 0


def reference_cokernel(module, trunc, pole):
    """cokernel_of_dn's dims and level-0 texts with every d_n column of the
    deepened target inserted before the comparison columns."""
    fam_src, fam_tgt, maps, _ = derham._comparison_pair(module, trunc, pole)
    n = module.num_vars
    dims, texts = [], ()
    for t in range(n):
        ech = ColumnEchelon(fam_tgt.partial_columns(n, t))
        reps = [label for col, label in zip(maps(t + 1), fam_src.basis(t + 1))
                if ech.add(col) is None]
        dims.append(len(reps))
        if t == 0:
            texts = tuple(fam_src.label_text(1, label) for label in reps)
    return tuple(dims), texts


@st.composite
def cokernel_modules(draw):
    """(module text, n, N, K) at small truncations: R, monomials, the cusp,
    A1, x1^a+x2^b, x1*(1+x2) (its weight (1, 0) is not positive), and two
    non-zero connections, whose lattice is empty."""
    kind = draw(st.sampled_from(["R", "monomial", "sum", "fixed", "conn"]))
    if kind == "R":
        n = draw(st.integers(1, 3))
        text = "R"
    elif kind == "monomial":
        n = draw(st.integers(1, 3))
        exps = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
        text = "R_loc(" + "*".join(f"x{i}^{a}" for i, a in
                                   enumerate(exps, start=1)) + ")"
    elif kind == "sum":
        n, (a, b) = 2, draw(st.tuples(st.integers(2, 4), st.integers(2, 4)))
        text = f"R_loc(x1^{a}+x2^{b})"
    elif kind == "fixed":
        text, n = draw(st.sampled_from([("R_loc(x1^2-x2^3)", 2),
                                        ("R_loc(x1^2+x2^2+x3^2)", 3),
                                        ("R_loc(x1*(1+x2))", 2)]))
    else:
        text, n = draw(st.sampled_from([("conn(1; [[1/2*x2]]; [[1/2*x1]])", 2),
                                        ("conn(1; [[0]]; [[-1]])", 2)]))
    trunc = draw(st.integers(1, 5 if n < 3 else 3))
    pole = draw(st.integers(0, 3 if n < 3 else 1)) if "loc" in text else None
    return text, n, trunc, pole


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cokernel_modules())
@example(("R", 3, 3, None))
@example(("R_loc(x1*x2*x3)", 3, 2, 1))
@example(("R_loc(x1*(1+x2))", 2, 4, 2))
@example(("conn(1; [[1/2*x2]]; [[1/2*x1]])", 2, 4, None))
def test_cokernel_cut_to_reached_multidegrees_changes_no_answer(case):
    # with a weight lattice only the target d_n columns whose multidegree a
    # comparison column reaches are built; every dim and text is the one
    # the whole target gives
    text, n, trunc, pole = case
    module = parse_module(text, n, 30)
    data = cokernel_of_dn(module, trunc, pole)
    assert (data.dims, data.basis_texts) == reference_cokernel(module, trunc, pole)


def test_subquotient_family_agrees_with_its_dims():
    # the cokernel dims are counted stably, across a deepening, so no single
    # ladder has them and no family is returned; the kernel ladder has them
    M = parse_module("R_loc(x1*x2)", 2, 40)
    coker = cokernel_of_dn(M, 8, 4)
    assert coker.dims == (14, 14) and coker.family is None
    kernel = kernel_of_dn(M, 8, 4)
    assert kernel.dims == tuple(kernel.family.dim(t) for t in range(2))


def test_kernel_actions_stay_in_kernel():
    x1 = Series.variable(2, 1, 40)
    M = ModulePresentation.localization(x1)
    data = kernel_of_dn(M, 6, 4)
    # induced first-variable derivative and multiplication close on the ladder
    data.family.partial_columns(1, 0)
    data.family.multiply_columns(1, 0)


CONN2 = "conn(2; [[0,1],[0,0]]; [[1,0],[0,1]])"
# the golden kernel cases at their golden (N, K), the CLI's default being
# (8, 4), and two whose nullspace vectors have denominators (9 and 27, 4
# and 8 on levels 0 and 1)
KERNEL_CASES = [("R", 1, 8, 4), ("R", 2, 8, 4), ("R", 3, 8, 4),
                ("R_loc(x1*x2)", 2, 8, 4), ("R_loc(x1*x2)", 2, 6, 3),
                (CONN2, 2, 8, 4), ("R_loc(x1^2-x2^3)", 2, 8, 4),
                ("R_loc(x1^2+x2^2+x3^2)", 3, 4, 2), ("R_loc(x1*x2*x3)", 3, 3, 1),
                ("R_loc(2*x1+3*x2^2)", 2, 4, 2), ("R_loc(x1*(1+2*x2))", 2, 4, 2)]


def _outcome(compute):
    """compute()'s value, or the message of the AssertionError it raises."""
    try:
        return compute()
    except AssertionError as err:
        return str(err)


def _expressed(vectors, images, action):
    """Coordinates by a tracked echelon on the level's basis vectors."""
    echelon = ColumnEchelon(vectors, track=True)
    cols = [echelon.express(image) for image in images]
    if None in cols:
        raise AssertionError(f"{action} left the kernel ladder")
    return cols


@pytest.mark.parametrize("text, n, trunc, pole", KERNEL_CASES,
                         ids=[f"{text} n={n} ({trunc},{pole})"
                              for text, n, trunc, pole in KERNEL_CASES])
def test_kernel_coordinates_match_a_tracked_echelon(text, n, trunc, pole):
    # the coordinates read off the nullspace basis are the ones a tracked
    # echelon on that basis expresses, and fail where it finds no
    # combination (x1 on the cusp's truncated window leaves the kernel)
    module = parse_module(text, n, trunc + 4 * pole + 12)
    base = ModuleFamily(module, trunc, pole)
    family = KernelFamily(base)
    for t in range(len(family.axes)):
        vectors = family.vectors(t)
        for axis in family.axes:
            matrix = base.partial_matrix(axis, t)
            assert family.partial_columns(axis, t) == _expressed(
                family.vectors(t + 1), [matrix.apply(vec) for vec in vectors],
                "derivative")
            raw = Matrix.from_cols(base.multiply_columns(axis, t), base.dim(t))
            assert _outcome(lambda: family.multiply_columns(axis, t)) == _outcome(
                lambda: _expressed(vectors, [raw.apply(vec) for vec in vectors],
                                   "multiplication"))


@pytest.mark.parametrize("action, message", [("partial_columns", "derivative"),
                                             ("multiply_columns", "multiplication")])
def test_an_image_outside_the_kernel_is_caught(action, message, monkeypatch):
    base = ModuleFamily(ModulePresentation.structure(2, 30), 4)
    family = KernelFamily(base)
    level = 1 if action == "partial_columns" else 0
    # a basis element of the target level that d_2 does not kill
    outside = next(r for r, col in enumerate(base.partial_columns(2, level)) if col)
    planted = [dict(col) for col in getattr(base, action)(1, 0)]
    planted[max(family.vectors(0)[0])] = {outside: 1}
    monkeypatch.setattr(base, action, lambda axis, t: planted)
    with pytest.raises(AssertionError, match=f"{message} left the kernel ladder"):
        getattr(family, action)(1, 0)


def _recorded_echelons(monkeypatch):
    """echelon -> [track, added columns] for every ColumnEchelon built."""
    echelons = {}
    init, add = linalg.ColumnEchelon.__init__, linalg.ColumnEchelon.add

    def recorded_init(self, columns=(), track=False):
        echelons[self] = [track, []]
        init(self, columns, track)

    def recorded_add(self, vec, combine=True):
        echelons[self][1].append(vec)
        return add(self, vec, combine)

    monkeypatch.setattr(linalg.ColumnEchelon, "__init__", recorded_init)
    monkeypatch.setattr(linalg.ColumnEchelon, "add", recorded_add)
    return echelons


def test_the_kernel_ladder_builds_one_tracked_echelon_per_level(monkeypatch):
    echelons = _recorded_echelons(monkeypatch)
    data = kernel_of_dn(parse_module("R_loc(x1*x2)", 2, 30), 6, 3)
    data.family.partial_columns(1, 0)
    # one nullspace per level, and no second echelon over its vectors
    assert sum(track for track, _ in echelons.values()) == len(data.dims) == 2


@pytest.mark.parametrize("text, n, trunc, pole", [("R", 3, 5, None),
                                                  ("R_loc(x1*x2)", 2, 6, 3),
                                                  ("R_loc(x1^2-x2^3)", 2, 4, 2)])
def test_les_builds_one_tracked_dn_echelon_per_level(text, n, trunc, pole,
                                                      monkeypatch):
    # the kernel ladder reads the nullspace of each level's d_n and the
    # cokernel ladder its pivots and projections: one tracked elimination
    # of d_n per base level serves both, and no untracked one is built
    module = parse_module(text, n, 30)
    columns = ModuleFamily(module, trunc, pole)
    dn = {t: columns.partial_columns(n, t) for t in range(n)}
    echelons = _recorded_echelons(monkeypatch)
    assert les_consistency(module, trunc, pole).consistent
    per_level = {t: [track for track, added in echelons.values() if added == cols]
                 for t, cols in dn.items()}
    assert per_level == {t: [True] for t in range(n)}


@pytest.mark.parametrize("compute", [stable_cohomology_dims, cokernel_of_dn,
                                     kernel_of_dn, build_complex])
def test_localization_ladder_needs_a_pole(compute):
    # the pole order belongs to the ladder: without one, a localization is
    # rejected before anything is deepened (no TypeError on None + 1)
    M = parse_module("R_loc(x1)", 1, 30)
    with pytest.raises(ValueError, match="needs a pole bound"):
        compute(M, 6)
    with pytest.raises(ValueError, match="pole bound must be >= 0"):
        compute(M, 6, -1)


def test_kernel_meets_xn_multiples_trivially():
    # the kernel ladder only meets x_n * (truncated module) in 0
    for M, pole in [(ModulePresentation.structure(2, 30), None)]:
        base_n = 7
        data = kernel_of_dn(M, base_n, pole)
        kernel_vecs = data.family.vectors(0)
        # x2-multiples of the one-step-smaller truncation, embedded exactly
        family = data.family.base
        small = ModulePresentation.structure(2, 30)
        fam_small = ModuleFamily(small, base_n - 1, None)
        index = family.index(0)
        image = []
        for comp, e in fam_small.basis(0):
            key = (comp, e[:-1] + (e[-1] + 1,))
            image.append({index[key]: Fraction(1)})
        assert span_rank(kernel_vecs + image) == span_rank(kernel_vecs) + span_rank(image)


def test_kernel_of_twist_meets_xn_multiples_trivially():
    n, prec = 2, 40
    g = Series.variable(n, 1, prec) * Series.variable(n, 2, prec)
    M = ModulePresentation.connection([[[g.partial(1)]], [[g.partial(2)]]])
    data = kernel_of_dn(M, 6)
    kernel_vecs = data.family.vectors(0)
    assert len(kernel_vecs) > 0
    family = data.family.base
    index = family.index(0)
    image = []
    for comp, e in family.basis(0):
        if sum(e) >= family.bound(0):
            continue
        key = (comp, e[:-1] + (e[-1] + 1,))
        image.append({index[key]: Fraction(1)})
    assert span_rank(kernel_vecs + image) == span_rank(kernel_vecs) + span_rank(image)


def test_les_consistency_cases():
    x = Series.variable(1, 1, 30)
    cases = [
        (ModulePresentation.structure(1, 30), 8, None, (1, 0), (1,), (0,)),
        (ModulePresentation.structure(2, 30), 8, None, (1, 0, 0), (1, 0), (0, 0)),
        (ModulePresentation.localization(x), 8, 5, (1, 1), (1,), (1,)),
    ]
    for M, trunc, pole, dims_m, dims_k, dims_c in cases:
        report = les_consistency(M, trunc, pole)
        assert report.dims_module == dims_m
        assert report.dims_kernel == dims_k
        assert report.dims_cokernel == dims_c
        assert report.consistent


def test_les_builds_each_ladder_column_once(monkeypatch):
    # the module, kernel and cokernel complexes read one base ladder; each
    # d_axis column list of it is built once per (axis, t)
    built = []
    columns = ModuleFamily.shift_columns

    def recorded(self, t, labels, form, axis=None):
        built.append((axis, t - 1, self.lattice))
        return columns(self, t, labels, form, axis)

    monkeypatch.setattr(ModuleFamily, "shift_columns", recorded)
    module = parse_module("R_loc(x1*x2*x3)", 3, 30)
    assert les_consistency(module, 3, 1).consistent
    assert len(built) == len(set(built)) == 9
    for block in (False, True):
        ladder = ModuleFamily(module, 3, 1, block)
        first = ladder.partial_columns(2, 1)
        built.clear()
        again = ladder.partial_columns(2, 1)
        assert not built
        assert again == first == ModuleFamily(module, 3, 1,
                                              block).partial_columns(2, 1)


def test_coordinate_invariance_of_dims():
    rng = random.Random(60)
    x1 = Series.variable(2, 1, 40)
    base = ModulePresentation.localization(x1)
    expected = stabilized_dims(base, [(6, 4), (8, 5)]).dims
    for _ in range(2):
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            try:
                sub = LinearSubstitution(rows)
                break
            except ValueError:
                continue
        f = apply_linear_substitution(x1, sub)
        M = ModulePresentation.localization(f)
        assert stabilized_dims(M, [(6, 4), (8, 5)]).dims == expected


def test_nonintegrable_connection_rejected():
    n, prec = 2, 6
    zero = Series.zero(n, prec)
    one = Series.one(n, prec)
    M = ModulePresentation.connection([[[zero, one], [zero, zero]],
                                       [[zero, zero], [one, zero]]])
    with pytest.raises(NonIntegrable):
        build_complex(M, 4)


def test_twisted_connection_dims():
    # conjugation by the unit exp(g) trivializes the twist
    n, prec = 2, 40
    g = Series.variable(n, 1, prec) * Series.variable(n, 2, prec)
    M = ModulePresentation.connection([[[g.partial(1)]], [[g.partial(2)]]])
    report = stabilized_dims(M, [(5, None), (7, None)])
    assert report.dims == (1, 0, 0)


def _full_window_pair(module, trunc, pole):
    """Source and target full-window ladders, their complexes and level maps."""
    deepened = module.deepened(trunc, pole)
    fam_src, fam_tgt, maps = module.comparison(
        ModuleFamily(module, trunc, pole), ModuleFamily(module, *deepened))
    src = complex_from_family(fam_src, None, "source")
    tgt = complex_from_family(fam_tgt, None, "target")
    return src, tgt, maps, len(fam_src.axes)


def rank_only_stable_dims(module, trunc, pole):
    """The stable dims by ranks only, one untracked echelon per degree i:
    with off = dim C^{i+1}_src, the target boundaries B are shifted to rows
    >= off, then every source basis element x adds the stacked column
    (d_src x in rows < off, map(x) in rows >= off).  As rank [[0, D], [B, M]]
    = rank D + rank [B | M ker D], and the pivot rows are where the
    row-prefix rank rises, the pivots >= off count the mapped cocycles plus
    the boundaries."""
    src, tgt, maps, top = _full_window_pair(module, trunc, pole)
    dims = []
    for i in range(top + 1):
        n_forms = math.comb(top, i)
        level_cols = maps(i)
        off = src.dims[i + 1] if i < top else 0
        boundaries = tgt.differentials[i - 1].cols if i else ()
        ech = ColumnEchelon({row + off: c for row, c in col.items()}
                            for col in boundaries)
        boundary_rank = ech.rank
        for x in range(src.dims[i]):
            key_pos, fpos = divmod(x, n_forms)
            col = {off + row * n_forms + fpos: c
                   for row, c in level_cols[key_pos].items()}
            if i < top:
                col.update(src.differentials[i].cols[x])
            ech.add(col)
        dims.append(sum(1 for row in ech.pivots() if row >= off) - boundary_rank)
    return tuple(dims)


def cocycle_stable_dims(module, trunc, pole):
    """The stable dims through explicit cocycles, on full windows: a
    nullspace basis of d_src^i (every cell at the top degree), each
    cocycle mapped through the level columns, and the rank those images
    add over the target boundaries."""
    src, tgt, maps, top = _full_window_pair(module, trunc, pole)
    dims = []
    for i in range(top + 1):
        n_forms = math.comb(top, i)
        level_cols = maps(i)
        cells = [divmod(x, n_forms) for x in range(src.dims[i])]
        level_map = Matrix.from_cols(
            [{row * n_forms + fpos: c for row, c in level_cols[key_pos].items()}
             for key_pos, fpos in cells], tgt.dims[i])
        cocycles = (src.differentials[i].nullspace() if i < top
                    else [{x: 1} for x in range(src.dims[i])])
        ech = ColumnEchelon(tgt.differentials[i - 1].cols if i else ())
        boundary_rank = ech.rank
        for z in cocycles:
            ech.add(level_map.apply(z))
        dims.append(ech.rank - boundary_rank)
    return tuple(dims)


STABLE_CASES = [
    ("R", 2, [(n, None) for n in range(1, 6)]),
    ("R", 3, [(n, None) for n in range(1, 4)]),
    ("R_loc(x1*x2)", 2, [(n, k) for n in (1, 3, 5) for k in (0, 1, 2)]),
    ("R_loc(x1^2-x2^3)", 2, [(n, k) for n in (1, 3, 5) for k in (0, 1, 2)]),
    ("conn(2; [[0,1],[0,0]]; [[1,0],[0,1]])", 2,
     [(n, None) for n in range(1, 6)]),
    # the stable dims run on the weight-0 block; the reference above builds
    # the full window: a rank-3 lattice, a negative weight, two weights one
    # of which has degree 0, a weight of a non-reduced support, a rank-1
    # lattice of three branches, and the empty lattice in two and three
    # variables
    ("R_loc(x1*x2*x3)", 3, [(1, 0), (2, 1)]),
    ("R_loc(x2+x1*x2^2)", 2, [(n, k) for n in (0, 2, 4) for k in (0, 1, 2)]),
    ("R_loc(x1^2*x2+x3)", 3, [(1, 0), (1, 1), (2, 1)]),
    ("R_loc(x1*(1+x2))", 2, [(n, k) for n in (0, 2, 4) for k in (0, 1, 2)]),
    ("R_loc(x1*x2*(x1+x2))", 2, [(n, k) for n in (0, 2, 3) for k in (0, 1, 2)]),
    ("R_loc(x1^2+x2^2+x2^3)", 2, [(n, k) for n in (0, 2) for k in (0, 1)]),
    ("R_loc(x1^2+x2^2+x3^2+x1^3)", 3, [(0, 0), (1, 0), (1, 1), (2, 1)]),
]


@pytest.mark.parametrize("text, n, truncations", STABLE_CASES,
                         ids=[f"{text} n={n}" for text, n, _ in STABLE_CASES])
def test_stable_dims_match_the_rank_only_formula(text, n, truncations):
    # the rank-only reference shares the formula with the block; the
    # cocycle reference maps an explicit kernel basis instead
    for trunc, pole in truncations:
        module = parse_module(text, n, 30)
        dims = stable_cohomology_dims(module, trunc, pole).dims
        assert dims == rank_only_stable_dims(module, trunc, pole)
        assert dims == cocycle_stable_dims(module, trunc, pole)


def test_stable_dims_run_no_nullspace_and_no_tracked_echelon(monkeypatch):
    def refused(self):
        raise AssertionError("stable dims took a nullspace")

    cases = [("R", 3, 4, None),
             ("conn(2; [[0,1],[0,0]]; [[1,0],[0,1]])", 2, 5, None),
             ("R_loc(x1*x2)", 2, 4, 2)]
    modules = [parse_module(text, n, 30) for text, n, _, _ in cases]
    # weight_lattice takes its own nullspace, with a tracked echelon
    assert len(modules[2].weight_lattice) == 2
    tracked = []
    init = linalg.ColumnEchelon.__init__

    def recorded(self, columns=(), track=False):
        tracked.append(track)
        init(self, columns, track)

    monkeypatch.setattr(linalg.Matrix, "nullspace", refused)
    monkeypatch.setattr(linalg.ColumnEchelon, "__init__", recorded)
    dims = [stable_cohomology_dims(module, trunc, pole).dims
            for module, (_, _, trunc, pole) in zip(modules, cases)]
    assert dims == [(1, 0, 0, 0), (2, 0, 0), (1, 2, 1)]
    assert tracked and not any(tracked)


# -- clearing: each echelon skips the cells on the last pivots -------------

# (module, n, N, K): the five ladder-verb modules, and three at n = 1,
# where the kernel and cokernel complexes have zero axes
LES_CASES = [
    ("R", 3, 8, None),
    ("R_loc(x1*x2)", 2, 8, 4),
    ("R_loc(x1*x2*x3)", 3, 3, 1),
    ("R_loc(x1^2-x2^3)", 2, 8, 4),
    ("R_loc(x1^2+x2^2+x3^2)", 3, 4, 2),
    ("R", 1, 6, None),
    ("R_loc(x1)", 1, 6, 3),
    ("R_loc(x1^2+x1^3)", 1, 4, 2),
]


def les_complexes(text, n, trunc, pole):
    """The module, kernel and cokernel complexes les_consistency assembles."""
    base = ModuleFamily(parse_module(text, n, 30), trunc, pole)
    return [complex_from_family(family, (trunc, pole), "")
            for family in (base, KernelFamily(base), CokernelFamily(base))]


@pytest.mark.parametrize("text, n, trunc, pole", LES_CASES[:3])
def test_monomial_kernel_and_cokernel_complexes_hold_ints(text, n, trunc, pole):
    # on R and monomial f every nullspace vector has denominator 1 and no
    # projection needs a scale, so both complexes and their d o d and
    # ranks run on ints
    _, kernel, cokernel = les_complexes(text, n, trunc, pole)
    assert {type(v) for complex_ in (kernel, cokernel)
            for d in complex_.differentials for col in d.cols
            for v in col.values()} == {int}


def full_insertion_dims(complex_):
    """nullity(d^i) - rank(d^{i-1}), every rank over all of its columns."""
    ranks = [d.rank() for d in complex_.differentials] + [0]
    return tuple(dim - ranks[i] - (ranks[i - 1] if i else 0)
                 for i, dim in enumerate(complex_.dims))


def dependent_adds(monkeypatch):
    """A list that records, for every later ``ColumnEchelon.add``, whether
    the column was dependent."""
    dependent = []
    add = ColumnEchelon.add

    def recorded(self, vec, combine=True):
        result = add(self, vec, combine)
        dependent.append(result is not None)
        return result

    monkeypatch.setattr(ColumnEchelon, "add", recorded)
    return dependent


@pytest.mark.parametrize("text, n, trunc, pole", LES_CASES)
def test_cohomology_dims_match_full_insertion(text, n, trunc, pole):
    for complex_ in les_complexes(text, n, trunc, pole):
        assert cohomology_dims(complex_).dims == full_insertion_dims(complex_)


@pytest.mark.parametrize("text, n, trunc, pole", LES_CASES)
def test_cohomology_dims_insert_no_column_on_the_last_pivots(text, n, trunc,
                                                              pole, monkeypatch):
    # d^i takes the dim C^i - rank d^{i-1} cells off d^{i-1}'s pivots, and
    # rank d^i of them are independent: h^i are dependent, for i below the
    # top degree, which has no differential
    complexes = les_complexes(text, n, trunc, pole)
    expected = [sum(full_insertion_dims(c)[:-1]) for c in complexes]
    dependent = dependent_adds(monkeypatch)
    for complex_, count in zip(complexes, expected):
        dependent.clear()
        cohomology_dims(complex_)
        assert sum(dependent) == count


def _comparison_complexes(module, trunc, pole, block=True):
    """Source and target ladders, their complexes and their level maps."""
    fam_src, fam_tgt, maps, _ = derham._comparison_pair(module, trunc, pole, block)
    complexes = [complex_from_family(family, None, "")
                 for family in (fam_src, fam_tgt)]
    return fam_src, fam_tgt, maps, complexes


@pytest.mark.parametrize("text, n, truncations", STABLE_CASES,
                         ids=[f"{text} n={n}" for text, n, _ in STABLE_CASES])
def test_stable_dims_insert_no_column_on_the_last_pivots(text, n, truncations,
                                                          monkeypatch):
    # degree i inserts the cells of C^{i-1}_tgt off the pivots of d_tgt^{i-2}
    # and those of C^i_src off the pivots of d_src^{i-1}; its echelon ends
    # with rank d_tgt^{i-1} + rank d_src^i + stable h^i pivots.  So
    # h^{i-1}(target) + h^i(source) - stable h^i of the adds are dependent
    module = parse_module(text, n, 30)
    module.weight_lattice  # its nullspace inserts columns of its own
    dependent = dependent_adds(monkeypatch)
    for trunc, pole in truncations:
        _, _, _, (src, tgt) = _comparison_complexes(module, trunc, pole)
        h_src, h_tgt = full_insertion_dims(src), full_insertion_dims(tgt)
        dependent.clear()
        stable = stable_cohomology_dims(module, trunc, pole).dims
        assert sum(dependent) == sum((h_tgt[i - 1] if i else 0) + h_src[i] - h
                                     for i, h in enumerate(stable))


@pytest.mark.parametrize("block", [True, False], ids=["block", "window"])
@pytest.mark.parametrize("text, n, truncations", STABLE_CASES,
                         ids=[f"{text} n={n}" for text, n, _ in STABLE_CASES])
def test_the_comparison_maps_form_a_chain_map(text, n, truncations, block):
    # the stable dims skip the source cells on the pivots of d_src^{i-1},
    # which is exact because M_{i+1} o d_src^i = d_tgt^i o M_i
    module = parse_module(text, n, 30)
    for trunc, pole in truncations:
        fam_src, fam_tgt, maps, (src, tgt) = _comparison_complexes(
            module, trunc, pole, block)
        level_maps = [Matrix.from_cols(
            derham._comparison_columns(fam_src, fam_tgt, maps, i, 0), tgt.dims[i])
            for i in range(n + 1)]
        assert not all(m.is_zero() for m in level_maps)
        for i in range(n):
            assert (level_maps[i + 1].compose(src.differentials[i]).cols
                    == tgt.differentials[i].compose(level_maps[i]).cols)


def _signed(lattice):
    """Each weight with its first nonzero entry made positive."""
    out = []
    for w, d in lattice:
        sign = 1 if next(c for c in w if c) > 0 else -1
        out.append((tuple(sign * c for c in w), sign * d))
    return out


@pytest.mark.parametrize("text, n, rank, expected", [
    ("R_loc(x1*x2)", 2, 2, None),
    ("R_loc(x1^2-x2^3)", 2, 1, [((3, 2), 6)]),
    ("R_loc(x1*(1+x2))", 2, 1, [((1, 0), 1)]),
    ("R_loc(x2+x1*x2^2)", 2, 1, [((1, -1), -1)]),
    ("R_loc(x1^2+x2^2+x2^3)", 2, 0, []),
    ("R_loc(x+x^2)", 1, 0, []),
    ("R_loc(exp(x)-1)", 1, 0, []),
])
def test_weight_lattice(text, n, rank, expected):
    module = parse_module(text, n, 30)
    lattice = module.weight_lattice
    assert len(lattice) == rank
    for w, d in lattice:
        assert all(sum(a * b for a, b in zip(w, e)) == d for e in module.f_terms)
    if expected is not None:
        assert _signed(lattice) == expected


def test_presentations_without_a_lattice():
    # the ring's lattice is the coordinate weights, each of degree 0; a
    # non-zero connection has none
    assert parse_module("R", 2, 30).weight_lattice == (((1, 0), 0),
                                                       ((0, 1), 0))
    assert parse_module("conn(2; [[0,1],[0,0]]; [[1,0],[0,1]])", 2,
                        30).weight_lattice == ()


@pytest.mark.parametrize("text, n, rank", [
    ("R", 1, 1), ("R", 2, 1), ("R", 3, 1), ("R", 4, 1),
    ("conn(2; [[0,0],[0,0]]; [[0,0],[0,0]])", 2, 2),
])
def test_zero_connections_run_on_their_weight_block(text, n, rank):
    # the formal Poincare lemma: h = (r, 0, ..., 0), read off r cells of
    # level 0 with e = 0 and no form
    module = parse_module(text, n, 30)
    assert stable_cohomology_dims(module, 4).dims == (rank,) + (0,) * n
    for trunc in (4, 5):
        family = ModuleFamily(module, trunc, block=True)
        assert family.cells(0) == [(k, ()) for k in range(rank)]
        assert family.basis(0) == [(comp, (0,) * n) for comp in range(rank)]
        assert all(family.cells(t) == [] for t in range(1, n + 1))


@pytest.mark.parametrize("text, dims", [
    # normal crossings x1..x4: binomial(4, i), by the comparison theorem
    ("R_loc(x1*x2*x3*x4)", ("1", "4", "6", "4", "1")),
    # A1 in four variables: the Milnor fibre is S^3 with monodromy
    # (-1)^4 = +1, so the link complement has h^1 = h^3 = h^4 = 1
    ("R_loc(x1^2+x2^2+x3^2+x4^2)", ("1", "1", "0", "1", "1")),
])
def test_derham_oracles_in_four_variables(text, dims):
    code, report = cli_report(["derham", "--module", text, "--vars", "4",
                               "--trunc", "4", "--pole-bound", "2"])
    assert code == 0
    assert tuple(report[f"h{i}"] for i in range(5)) == dims


def milnor_orlik_dims(exponents):
    """h^i of R_f for the Brieskorn-Pham sum f = sum +-x_i^a_i, in closed
    form (Milnor-Orlik): c counts the e with 0 <= e_i <= a_i - 2 and
    sum (e_i + 1)/a_i an integer, and the answer is (1, 1) for n = 1,
    (1, 1 + c, c) for n = 2 and (1, 1, 0, ..., 0, c, c) for n >= 3."""
    n = len(exponents)
    c = sum(1 for e in itertools.product(*(range(a - 1) for a in exponents))
            if sum(Fraction(k + 1, a) for k, a in zip(e, exponents)).denominator == 1)
    if n == 1:
        return (1, 1)
    if n == 2:
        return (1, 1 + c, c)
    return (1, 1) + (0,) * (n - 3) + (c, c)


@st.composite
def brieskorn_pham(draw):
    n = draw(st.integers(1, 3))
    exponents = draw(st.lists(st.integers(2, 6), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from("+-"), min_size=n, max_size=n))
    text = "".join(f"{sign}x{i}^{a}" for i, (sign, a) in
                   enumerate(zip(signs, exponents), start=1))
    return text, tuple(exponents)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(brieskorn_pham())
# the cusp, x1^3+x2^6, x1^4+x2^4, A1, x1^3+x2^3+x3^3 (c = 2: the link is
# not a rational homology sphere), E8, x1^2+x2^3+x3^6 and x1^2+x2^4+x3^4
@example(("x1^2-x2^3", (2, 3)))
@example(("x1^3+x2^6", (3, 6)))
@example(("x1^4+x2^4", (4, 4)))
@example(("x1^2+x2^2+x3^2", (2, 2, 2)))
@example(("x1^3+x2^3+x3^3", (3, 3, 3)))
@example(("x1^2+x2^3+x3^5", (2, 3, 5)))
@example(("x1^2+x2^3+x3^6", (2, 3, 6)))
@example(("x1^2+x2^4+x3^4", (2, 4, 4)))
def test_brieskorn_pham_sums_match_milnor_orlik(case):
    text, exponents = case
    module = parse_module(f"R_loc({text})", len(exponents), 30)
    assert stable_cohomology_dims(module, 4, 2).dims == milnor_orlik_dims(exponents)


def _wrong_euler(text, n, trunc, pole, chi):
    return pytest.param(text, n, trunc, pole, marks=pytest.mark.xfail(
        strict=True, reason=f"chi = {chi}: the deg-f ladder is not the formal "
                            "localization (ROADMAP item 1)"))


# the cohomology corpus at its (N, K); None keeps the CLI defaults
@pytest.mark.parametrize("text, n, trunc, pole", [
    ("R_loc(x1)", 1, None, None),
    ("R_loc(x1*x2)", 2, 8, 4),
    ("R_loc(x1*x2*x3)", 3, 4, 2),
    ("R_loc(x1^2-x2^2)", 2, None, None),
    ("R_loc(x1^2-x2^3)", 2, None, None),
    ("R_loc(x1^2+x2^2+x3^2)", 3, 4, 2),
    _wrong_euler("R_loc(x+x^2)", 1, None, None, -1),
    _wrong_euler("R_loc(x1^2+x2^2+x2^3)", 2, 4, 2, 1),
    _wrong_euler("R_loc(exp(x)-1)", 1, 3, 1, -18),
])
def test_euler_characteristic_of_a_localization_vanishes(text, n, trunc, pole):
    # f(0) = 0: the complement of V(f) in a small ball fibres over the
    # circle (Milnor), so sum (-1)^i h^i = 0; f is parsed at the CLI's
    # precision
    argv = ["derham", "--module", text, "--vars", str(n)]
    if trunc is not None:
        argv += ["--trunc", str(trunc), "--pole-bound", str(pole)]
    code, report = cli_report(argv)
    assert code == 0
    assert sum((-1) ** i * int(report[f"h{i}"]) for i in range(n + 1)) == 0


def test_stable_dims_assemble_only_the_weight_0_block(monkeypatch):
    # A1 at (4, 2): the full source window is (165, 660, 858, 364) cells
    built = []
    assemble = derham.complex_from_family

    def recorded(family, truncation, description):
        complex_ = assemble(family, truncation, description)
        built.append(tuple(complex_.dims))
        return complex_

    monkeypatch.setattr(derham, "complex_from_family", recorded)
    module = parse_module("R_loc(x1^2+x2^2+x3^2)", 3, 30)
    assert stable_cohomology_dims(module, 4, 2).dims == (1, 1, 0, 0)
    assert built[0] == (15, 63, 84, 36)
    window = ModuleFamily(module, 4, 2)
    assert [len(window.cells(i)) for i in range(4)] == [165, 660, 858, 364]


def test_an_empty_lattice_keeps_the_window_in_its_order():
    module = parse_module("R_loc(x1^2+x2^2+x2^3)", 2, 30)
    block = ModuleFamily(module, 3, 1, block=True)
    window = ModuleFamily(module, 3, 1)
    for t in range(3):
        assert block.basis(t) == window.basis(t)
        assert block.cells(t) == window.cells(t)


# -- one window order and packed keys ---------------------------------------

WINDOW_MODULES = {
    1: ["R", "R_loc(x{n})", "R_loc(x1^2-x{n}^3)", "conn(1; {a})"],
    2: ["conn(2; {a})"],
}


def window_module(text, n, rank):
    """A module of the given rank on n variables: text's {n} is n and its
    {a} one flat matrix list (x1*I at axis 1, zero elsewhere)."""
    one = "[[x1]]" if rank == 1 else "[[x1,0],[0,x1]]"
    zero = "[[0]]" if rank == 1 else "[[0,0],[0,0]]"
    matrices = "; ".join([one] + [zero] * (n - 1))
    return parse_module(text.format(n=n, a=matrices), n, 12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from([(text, rank) for rank, texts in WINDOW_MODULES.items()
                                 for text in texts]),
    st.integers(0, 3), st.integers(0, 2), st.permutations(range(-1, n + 2)))))
def test_every_window_level_is_a_prefix_of_one_label_order(case):
    # whatever order the levels are asked in, level t's basis is every
    # component with every monomial up to its bound, components inner, and
    # the index gives each label its position
    n, (text, rank), trunc, pole, order = case
    module = window_module(text, n, rank)
    family = ModuleFamily(module, trunc, pole if text.startswith("R_loc") else None)
    for t in order:
        labels = [(c, e) for e in monomials_upto(n, family.bound(t))
                  for c in range(rank)]
        assert family.basis(t) == labels
        assert family.dim(t) == len(labels) == family.width(family.bound(t))
        index = family.index(t)
        assert all(index[label] == k for k, label in enumerate(labels))


@pytest.mark.parametrize("text, n, trunc, pole", [
    ("R_loc(x1^2-x2^3)", 2, 2, 1), ("R_loc(x1*x2*x3)", 3, 1, 1),
    ("conn(2; [[x1,1],[0,x1]]; [[0,0],[0,0]])", 2, 3, None), ("R", 3, 3, None)])
def test_growing_the_window_keeps_every_column(text, n, trunc, pole):
    # levels 0, then n, then -1 grow a localization's window twice (and a
    # connection's once); a level past n+1 or below -1 packs the keys
    # again.  A fresh ladder asked in the reverse order, and one asked
    # only for the levels its columns read, build the same columns
    module = parse_module(text, n, 12)
    grown, fresh, plain = (ModuleFamily(module, trunc, pole) for _ in range(3))
    order = [0, n, -1, n + 2, -3]
    for t in order:
        grown.basis(t)
    for t in reversed(order):
        fresh.basis(t)
    for axis in range(1, n + 1):
        for t in range(-1, n + 1):
            columns = plain.partial_columns(axis, t)
            assert grown.partial_columns(axis, t) == columns
            assert fresh.partial_columns(axis, t) == columns
            products = plain.multiply_columns(axis, t)
            assert grown.multiply_columns(axis, t) == products
            assert fresh.multiply_columns(axis, t) == products


@pytest.mark.parametrize("text, n, trunc, pole", [
    ("R", 1, 4, None), ("R", 3, 3, None), ("R_loc(x1*x2)", 2, 2, 1),
    ("conn(2; [[x1,1],[0,x1]]; [[0,0],[0,0]])", 2, 3, None)])
def test_a_term_at_the_top_of_the_window_carries_into_no_other_coordinate(
        text, n, trunc, pole):
    # x_i^B at the window's top bound B has coordinate B = base - 1 in a
    # packed key: a shift onto it, and x_i times x_i^(B-1), land on its
    # own position in every component
    module = parse_module(text, n, 12)
    family = ModuleFamily(module, trunc, pole)
    top = max(range(-1, n + 2), key=family.bound)
    bound = family.bound(top)
    index = family.index(top)
    zero = (0,) * n
    for axis in range(1, n + 1):
        below = tuple(bound - 1 if i == axis - 1 else 0 for i in range(n))
        at = tuple(bound if i == axis - 1 else 0 for i in range(n))
        step = tuple(int(i == axis - 1) for i in range(n))
        for comp in range(module.rank):
            shifted = family.shift_columns(
                top, [(comp, below), (comp, zero)],
                (None, [[{step: 1} if row == col else {}
                          for col in range(module.rank)]
                         for row in range(module.rank)]))
            assert shifted[0] == {index[comp, at]: 1}
            assert shifted[1] == {index[comp, step]: 1}
            columns = family.multiply_columns(axis, top)
            assert columns[index[comp, below]] == {index[comp, at]: 1}
            assert columns[index[comp, at]] == {}
