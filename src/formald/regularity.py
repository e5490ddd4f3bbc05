"""Finite-generation probes for iterates of twisted derivations, and the
desk-scale verifiers for the kernel/cokernel lemmas.

Everything here is a truncated linear-algebra question about elements of a
module presentation: iterates tau^i(m) for tau = f*d_n, dependence
relations with series coefficients, homogeneous components of relations
among kernel elements, and coverage of a cyclic module by a finitely
generated slice plus the image of d_n.  All verdicts are three-valued
(yes at truncation / no evidence within budget / inconclusive); finite
data can support the underlying statements but never refute them.

Elements are compared in the level-0 coordinates of the truncation ladder
(:class:`formald.derham.ModuleFamily`) each probe builds from its
``trunc`` and ``pole``, through the one
:meth:`formald.modules.ModulePresentation.embed`: each component g over
f^k enters as c^k*g*F^(pole-k) over F^pole, cut at level 0's bound.  A
localization needs the pole, sits over the common denominator F^pole =
(c*f)^pole (c the lcm of f's denominators, f's stored terms treated as
an exact polynomial) and rejects an element past it; a connection has
no pole, so its components enter as they are, cut at the bound.  Every
element carries the same factor c^pole, so relations and spans are
those over f^pole.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .derham import ModuleFamily
from .errors import PreconditionViolated
from .linalg import ColumnEchelon, vec_add_scaled
from .modules import partial_action, scalar_action
from .series import Series, is_xn_regular, monomials_upto, xn_coefficient

_SLICE_MAX = 6  # cover_check's largest a in the slice m, x_n m, ..., x_n^a m


def _restrict(ladder, vec, degree):
    """The coordinates of degree <= degree: a prefix of the window."""
    width = ladder.width(degree)
    return {i: c for i, c in vec.items() if i < width}


def _tau_apply(module, f, element):
    """tau(e) = f * d_n(e) in the given presentation."""
    return scalar_action(module, partial_action(module, element, module.num_vars), f)


@dataclass
class RecurrenceReport:
    """Least p with tau^p(m) = sum_{i<p} r_i tau^i(m) at truncation."""

    order: int | None
    coefficients: tuple | None
    p_max: int
    trunc: int
    pole: int | None
    degree_checked: int | None

    def found(self):
        return self.order is not None


def iterate_recurrence(module, element, f, p_max, trunc, pole=None):
    """Search for an R-linear recurrence among the iterates of f*d_n.

    Coefficients are sought degree by degree (so the first hit is the
    minimal-degree relation) and the comparison only uses coordinates
    exact at the available precision; the report carries that degree.
    Each iterate is embedded as soon as it is computed, so the first one
    past the pole budget stops the search."""
    return _recurrence(ModuleFamily(module, trunc, pole), element, f, p_max)


def _recurrence(ladder, element, f, p_max):
    """iterate_recurrence on a ladder the caller built."""
    module, trunc = ladder.module, ladder.trunc
    iterates, embedded = [], []
    known = ladder.bound(0)
    for i in range(p_max + 1):
        iterates.append(_tau_apply(module, f, iterates[-1]) if i else element)
        vec, k = module.embed(ladder, iterates[-1])
        embedded.append(vec)
        known = min(known, k)
    mult_cache = {}

    def column(i, mu):
        if (i, mu) not in mult_cache:
            series = Series.monomial(ladder.num_vars, mu, trunc)
            vec, k = module.embed(ladder, scalar_action(module, iterates[i], series))
            mult_cache[(i, mu)] = (vec, k)
        return mult_cache[(i, mu)]

    monomials = monomials_upto(ladder.num_vars, trunc)
    for p in range(1, p_max + 1):
        degree_known = known
        for i in range(p):
            for mu in monomials:
                degree_known = min(degree_known, column(i, mu)[1])
        target = _restrict(ladder, embedded[p], degree_known)
        ech = ColumnEchelon(track=True)
        labels = []
        solution = None
        # by degree, so the first hit is the minimal-degree relation
        for deg in range(trunc + 1):
            for i in range(p):
                for mu in monomials:
                    if sum(mu) == deg:
                        ech.add(_restrict(ladder, column(i, mu)[0], degree_known))
                        labels.append((i, mu))
            solution = ech.express(target)
            if solution is not None:
                break
        if solution is None:
            continue
        # the labels (i, mu) are distinct, so each coefficient is built once
        terms = [{} for _ in range(p)]
        for pos, value in sorted(solution.items()):
            i, mu = labels[pos]
            terms[i][mu] = value
        coefficients = tuple(Series(ladder.num_vars, trunc, t) for t in terms)
        return RecurrenceReport(order=p, coefficients=coefficients,
                                p_max=p_max, trunc=trunc, pole=ladder.pole(0),
                                degree_checked=degree_known)
    return RecurrenceReport(order=None, coefficients=None, p_max=p_max,
                            trunc=trunc, pole=ladder.pole(0), degree_checked=known)


@dataclass
class RegularElementVerdict:
    status: str                    # "yes", "no-evidence", or "inconclusive"
    recurrence: RecurrenceReport | None
    f_regular_order: int | None
    certified_to_precision: int


def xn_regular_element_check(module, element, f, p_max, trunc, pole=None):
    """Is the element regular for the last variable, witnessed by f?

    yes: f is x_n-regular and a recurrence was found; no-evidence: f is
    regular but no recurrence exists within budget; inconclusive: the
    regularity of f itself cannot be certified from its precision."""
    return _regular_element_check(ModuleFamily(module, trunc, pole),
                                  element, f, p_max)


def _regular_element_check(ladder, element, f, p_max):
    """xn_regular_element_check on a ladder the caller built."""
    reg = is_xn_regular(f)
    if reg.order is None:
        return RegularElementVerdict("inconclusive", None, None,
                                     reg.certified_to_precision)
    report = _recurrence(ladder, element, f, p_max)
    status = "yes" if report.found() else "no-evidence"
    return RegularElementVerdict(status, report, reg.order,
                                 reg.certified_to_precision)


@dataclass
class PowerSearchReport:
    found_s: int | None
    s_max: int
    recurrence: RecurrenceReport | None


def power_search(module, element, f, s_max, p_max, trunc, pole=None):
    """Least s such that f^s * d_n admits an iterate recurrence at budget;
    every power is searched on one ladder."""
    ladder = ModuleFamily(module, trunc, pole)
    for s in range(s_max + 1):
        report = _recurrence(ladder, element, f ** s, p_max)
        if report.found():
            return PowerSearchReport(found_s=s, s_max=s_max, recurrence=report)
    return PowerSearchReport(found_s=None, s_max=s_max, recurrence=None)


@dataclass
class KernelRelationReport:
    passed: bool
    failed_index: int | None
    degree_checked: int


def kernel_relation_homogeneity(module, elements, coefficients, trunc, pole=None):
    """Check that a relation sum f_i m_i = 0 among kernel elements of d_n
    holds in every x_n-homogeneous component.

    The preconditions (each m_i killed by d_n, and the relation itself)
    are verified first; a component failure on honest inputs indicates a
    truncation artifact or caller error, so it is reported, never
    interpreted as a counterexample."""
    if len(elements) != len(coefficients):
        raise ValueError("need one coefficient per element")
    ladder = ModuleFamily(module, trunc, pole)
    n = ladder.num_vars
    known = ladder.bound(0)
    for m in elements:
        vec, k = module.embed(ladder, partial_action(module, m, n))
        known = min(known, k)
        if _restrict(ladder, vec, known):
            raise PreconditionViolated("an element is not killed by d_n at truncation")
    total = {}
    for f_i, m in zip(coefficients, elements):
        vec, k = module.embed(ladder, scalar_action(module, m, f_i))
        known = min(known, k)
        vec_add_scaled(total, vec, 1)
    if _restrict(ladder, total, known):
        raise PreconditionViolated("the relation does not vanish at truncation")
    for j in range(trunc + 1):
        component = {}
        comp_known = known
        for f_i, m in zip(coefficients, elements):
            fij = xn_coefficient(f_i, j)
            vec, k = module.embed(ladder, scalar_action(module, m, fij.lift(n)))
            comp_known = min(comp_known, k)
            vec_add_scaled(component, vec, 1)
        if _restrict(ladder, component, comp_known):
            return KernelRelationReport(passed=False, failed_index=j,
                                        degree_checked=known)
    return KernelRelationReport(passed=True, failed_index=None,
                                degree_checked=known)


@dataclass
class CoverReport:
    """Evidence that R*m sits inside a finitely generated slice plus d_n(M)."""

    status: str                 # "yes", "no-evidence", or "inconclusive"
    slice_bound: int | None     # largest x_n-power of m used as a generator
    generator_texts: tuple
    recurrence_order: int | None
    trunc: int
    pole: int | None


def cover_check(module, element, f, trunc, pole=None, p_max=8):
    """Verify R*m subset E0 + d_n(M) at truncation, where E0 is the module
    generated over the first n-1 variables by m, x_n m, ..., x_n^a m.

    The x_n-power slice is grown until every monomial multiple of m up to
    the truncation degree lies in the span of the slice columns and the
    d_n-image columns; the successful bound is reported.  Every outcome
    reports the ladder's pole (None for a connection)."""
    ladder = ModuleFamily(module, trunc, pole)
    report = partial(CoverReport, trunc=trunc, pole=ladder.pole(0))
    verdict = _regular_element_check(ladder, element, f, p_max)
    if verdict.status != "yes":
        return report("inconclusive", None, (), None)
    n = ladder.num_vars

    known = ladder.bound(0)
    targets = []
    for e in monomials_upto(n, trunc):
        vec, k = module.embed(ladder, scalar_action(
            module, element, Series.monomial(n, e, trunc + 1)))
        known = min(known, k)
        targets.append((e, vec))

    ech = ColumnEchelon()
    # image-of-d_n columns
    image, k = module.dn_image_columns(ladder)
    known = min(known, k)
    for w_vec in image:
        ech.add(_restrict(ladder, w_vec, known))

    slice_cols = {}
    for a in range(_SLICE_MAX + 1):
        xn_a = (0,) * (n - 1) + (a,)
        base = scalar_action(module, element, Series.monomial(n, xn_a, trunc + 1))
        cols = []
        for mu in monomials_upto(n - 1, trunc):
            series = Series.monomial(n, tuple(mu) + (0,), trunc + 1)
            vec, k = module.embed(ladder, scalar_action(module, base, series))
            known = min(known, k)
            cols.append(vec)
        slice_cols[a] = cols

    for a in range(_SLICE_MAX + 1):
        for vec in slice_cols[a]:
            ech.add(_restrict(ladder, vec, known))
        if all(ech.contains(_restrict(ladder, vec, known)) for _, vec in targets):
            texts = tuple("m" if b == 0 else
                          (f"x{n}*m" if b == 1 else f"x{n}^{b}*m")
                          for b in range(a + 1))
            return report("yes", a, texts, verdict.recurrence.order)
    return report("no-evidence", None, (), verdict.recurrence.order)
