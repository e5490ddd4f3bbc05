"""Workload definitions: which jobs each workload runs, and why.

A job is one call into ``formald``: a CLI verb run in-process through
``formald.cli.main(argv)``, or, where no verb exists, a public function
of the package applied to expressions parsed by ``formald.parser``.
Every job carries the reason it is in its workload and the key of its
expectation in ``known_answers.json``.

``cohomology`` and ``ladders`` run a fixed corpus; the seed only sets the
order of their jobs.  ``series-calculus`` draws its inputs from a seeded
generator.  Coefficients are small rationals of the class the test suite
draws (``tests/conftest.py``: numerator in [-4, 4], denominator 1, 1, 2
or 3; unit constants 1, -1, 2, 3; x_n-order leads 1, -1, 2).  The
generator fixes every support (which monomials appear), and on each
support the seed permutes a fixed multiset of such rationals, so the
cost of a pass barely depends on the seed while the inputs do.  The
generator never calls ``formald``: the package receives only the
generated text.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("cohomology", "ladders", "series-calculus")


@dataclass(frozen=True)
class Job:
    """One closed-loop request.

    ``argv`` is the CLI argument list, or None for a function job; then
    ``call`` names the public function and ``params`` holds its argument
    texts.  ``answer`` is the key into known_answers.json; ``params`` also
    carries what the independent checks need (variable count, precision,
    the generated inputs)."""

    name: str
    answer: str
    why: str
    argv: tuple | None = None
    call: str | None = None
    params: dict = field(default_factory=dict)


def _derham(module, nvars, trunc=None, pole=None, schedule=None):
    argv = ["derham", "--module", module, "--vars", str(nvars)]
    if trunc is not None:
        argv += ["--trunc", str(trunc)]
    if pole is not None:
        argv += ["--pole-bound", str(pole)]
    if schedule is not None:
        argv += ["--schedule", schedule]
    return tuple(argv)


# -- cohomology ---------------------------------------------------------------

# (job name, module, n, N, K, why); N/K None keep the CLI defaults (8, 4).
_COHOMOLOGY = [
    ("nc1", "R_loc(x1)", 1, None, None,
     "normal crossings k=1: smallest localization, cost is parse and CLI"),
    ("nc2", "R_loc(x1*x2)", 2, 8, 4,
     "normal crossings k=2 at N=8, K=4: mid-size 2-variable ranks"),
    ("nc3", "R_loc(x1*x2*x3)", 3, 4, 2,
     "normal crossings k=3: large sparse Fraction ranks, echelon-add bound"),
    ("node", "R_loc(x1^2-x2^2)", 2, None, None,
     "node, two branches: plane-curve answer (1, r, r-1) with r=2"),
    ("cusp", "R_loc(x1^2-x2^3)", 2, None, None,
     "cusp, one branch: weighted-homogeneous, (1, r, r-1) with r=1"),
    ("a1", "R_loc(x1^2+x2^2+x3^2)", 3, 4, 2,
     "A1 surface: the costliest job, the target of exact-modular elimination"),
    ("ring3", "R", 3, 10, None,
     "the ring at n=3, N=10: ring ladder, no pole bookkeeping"),
    ("conn2", "conn(2; [[0,1],[0,0]]; [[1,0],[0,1]])", 2, None, None,
     "rank-2 integrable connection: connection ladder and projection map"),
    ("unit-factor-1", "R_loc(x+x^2)", 1, None, None,
     "known wrong: x times a unit must match R_loc(x)"),
    ("unit-factor-2", "R_loc(x1*(1+x2))", 2, None, None,
     "known wrong: x1 times a unit must match R_loc(x1)"),
    ("unit-factor-nc", "R_loc(x1*x2+x1^2*x2)", 2, None, None,
     "known wrong: x1*x2 times a unit must match R_loc(x1*x2)"),
    ("nodal-cubic", "R_loc(x1^2+x2^2+x2^3)", 2, 4, 2,
     "known wrong: the local node of the nodal cubic has two branches"),
    ("exp-1", "R_loc(exp(x)-1)", 1, 3, 1,
     "known wrong: transcendental germ, x times a unit; deg f = 19 ladder"),
]


def cohomology_jobs():
    jobs = [Job(name=f"derham:{name}", answer=f"derham:{name}", why=why,
                argv=_derham(module, n, trunc, pole))
            for name, module, n, trunc, pole, why in _COHOMOLOGY]
    jobs.append(Job(
        name="derham:cusp-schedule", answer="derham:cusp-schedule",
        why="the --schedule path: two stable-dims runs and the stabilized flags",
        argv=_derham("R_loc(x1^2-x2^3)", 2, schedule="6,3;8,4")))
    return jobs


# -- ladders ------------------------------------------------------------------

# (module key, module, n, N, K): the five modules the ladder verbs run on.
LADDER_MODULES = [
    ("ring3", "R", 3, 8, None),
    ("nc2", "R_loc(x1*x2)", 2, 8, 4),
    ("nc3", "R_loc(x1*x2*x3)", 3, 3, 1),
    ("cusp", "R_loc(x1^2-x2^3)", 2, 8, 4),
    ("a1", "R_loc(x1^2+x2^2+x3^2)", 3, 4, 2),
]

_LADDER_WHY = {
    "kernel": "ker d_n ladder: Matrix.nullspace with tracked combinations",
    "cokernel": "stable coker d_n across a deepening: echelon plus embedding",
    "les": "three complexes (module, ker, coker): express/project on ladders",
}

# Regularity checks: (job name, argv tail, why).  Their verdicts have no
# independent oracle, so their expectations are pinned at the seed.
_REGULARITY = [
    ("etau-nc2", ["etau", "--module", "R_loc(x1*x2)", "--vars", "2",
                  "--element", "1", "--element-pole", "1", "--f", "x1*x2",
                  "--trunc", "5", "--pole-bound", "3"],
     "tau = f*d_n iterates of 1/f on a localization: module actions, express"),
    ("element-cusp", ["element", "--module", "R_loc(x1^2-x2^3)", "--vars", "2",
                      "--f", "x2^2", "--trunc", "5", "--pole-bound", "2"],
     "x_n-regular element check: regularity of f plus a recurrence search"),
    ("reglink-ring", ["reglink", "--module", "R", "--vars", "2",
                      "--element", "x1+x2^2", "--f", "x2", "--trunc", "5"],
     "power search over f^s: repeated recurrence searches"),
    ("e0-cover-nc2", ["e0-cover", "--module", "R_loc(x1*x2)", "--vars", "2",
                      "--element", "1", "--element-pole", "1", "--f", "x2",
                      "--trunc", "5", "--pole-bound", "3"],
     "slice cover of 1/f: echelon growth with contains() per target"),
    ("kernel-relation-nc2", ["kernel-relation", "--module", "R_loc(x1*x2)",
                             "--vars", "2", "--elements", "x1;x1^2",
                             "--coeffs", "x1;-1", "--trunc", "5",
                             "--pole-bound", "2"],
     "homogeneous components of a relation among kernel elements"),
]


def ladder_jobs():
    jobs = []
    for key, module, n, trunc, pole in LADDER_MODULES:
        for verb in ("kernel", "cokernel", "les"):
            argv = [verb, "--module", module, "--vars", str(n),
                    "--trunc", str(trunc)]
            if pole is not None:
                argv += ["--pole-bound", str(pole)]
            jobs.append(Job(name=f"{verb}:{key}", answer=f"{verb}:{key}",
                            why=_LADDER_WHY[verb], argv=tuple(argv)))
    for name, tail, why in _REGULARITY:
        jobs.append(Job(name=f"regularity:{name}", answer=f"regularity:{name}",
                        why=why, argv=tuple(["regularity"] + tail)))
    return jobs


# -- series-calculus: the seeded generator -----------------------------------


def _names(nvars, letter="x"):
    return [f"{letter}{i}" for i in range(1, nvars + 1)]


def _monomials(nvars, low, high):
    return [e for d in range(low, high + 1)
            for e in itertools.product(range(d + 1), repeat=nvars)
            if sum(e) == d]


# Every nonzero Fraction(num, den) with |num| <= 4 and den in (1, 1, 2, 3),
# denominator 1 twice as often as 2 or 3, as tests/conftest.py draws them.
_PALETTE = [Fraction(num, den) for den in (1, 1, 2, 3)
            for num in range(-4, 5) if num]
_UNIT_CONSTANTS = [1, -1, 2, 3]
_LEADS = [1, -1, 2]


def _coeffs(rng, count):
    """``count`` coefficients: the palette repeated to length ``count`` and
    shuffled.  Every seed draws the same multiset, so the size of the
    rationals a job meets, and hence its cost, varies little by seed."""
    values = (_PALETTE * (count // len(_PALETTE) + 1))[:count]
    rng.shuffle(values)
    return values


def _term(coeff, names, exps):
    mono = "*".join(n if e == 1 else f"{n}^{e}"
                    for n, e in zip(names, exps) if e)
    text = f"({coeff})"
    return f"{text}*{mono}" if mono else text


def _lower(exps, axis):
    j = axis - 1
    return exps[:j] + (exps[j] - 1,) + exps[j + 1:]


def poly_text(rng, names, supports):
    """Sum of random nonzero coefficients times the given monomials."""
    return " + ".join(_term(c, names, e)
                      for c, e in zip(_coeffs(rng, len(supports)), supports))


def unit_text(rng, names, supports):
    """A unit: a constant from ``_UNIT_CONSTANTS`` plus random terms."""
    return f"{rng.choice(_UNIT_CONSTANTS)} + " + poly_text(rng, names, supports)


def regular_text(rng, nvars, order, degree):
    """A polynomial regular of exactly ``order`` in the last variable: its
    support is every monomial of degree 1..degree not on the x_n axis,
    plus x_n^order with a coefficient from ``_LEADS``."""
    support = [e for e in _monomials(nvars, 1, degree) if any(e[:-1])]
    lead = rng.choice(_LEADS)
    names = _names(nvars)
    return (poly_text(rng, names, support) + " + "
            + _term(Fraction(lead), names, (0,) * (nvars - 1) + (order,)))


def _operator_text(rng, nvars, order, degree):
    """A differential operator with polynomial coefficients on every
    derivative monomial of order <= ``order``."""
    names = _names(nvars)
    parts = []
    for alpha in _monomials(nvars, 0, order):
        coeff = poly_text(rng, names, _monomials(nvars, 0, degree))
        dmono = "*".join(f"d{i}" if a == 1 else f"d{i}^{a}"
                         for i, a in enumerate(alpha, start=1) if a)
        parts.append(f"({coeff})*{dmono}" if dmono else f"({coeff})")
    return " + ".join(parts)


def _malgrange_text(rng):
    """r2*d^2 + r1*d + r0 with r_i = x^{v_i} * (unit polynomial).

    The valuations fix the shift s and the index set; the unit constants
    are drawn from +-1, +-2 so the indicial polynomial has small integer
    roots and the threshold t0 stays far below the oracle sizes 20/30."""
    parts = []
    for i, v in ((2, 2), (1, 1), (0, 0)):
        unit = [(0, rng.choice([-2, -1, 1, 2]))] + list(
            zip(range(1, 4), _coeffs(rng, 3)))
        coeff = " + ".join(f"({c})*x^{k + v}" if k + v else f"({c})"
                           for k, c in unit)
        head = {0: "", 1: "*d", 2: "*d^2"}[i]
        parts.append(f"({coeff}){head}")
    return " + ".join(parts)


# (n, precision, dense degree of f and g) for prep and divide; several
# independent draws per size keep the seed-to-seed spread of a pass small.
_WEIERSTRASS_SIZES = [(2, 16, 10), (3, 10, 6)]
_WEIERSTRASS_DRAWS = 3
_WEIERSTRASS_ORDER = 3


def series_jobs(seed):
    rng = random.Random(seed)
    jobs = []
    for n, prec, degree in _WEIERSTRASS_SIZES:
        for draw in range(_WEIERSTRASS_DRAWS):
            f = regular_text(rng, n, _WEIERSTRASS_ORDER, degree)
            g = poly_text(rng, _names(n), _monomials(n, 0, degree))
            tag = f"n{n}p{prec}.{draw}"
            params = {"vars": n, "f": f, "g": g, "order": _WEIERSTRASS_ORDER}
            jobs.append(Job(
                name=f"prep:{tag}", answer="prep", params=params,
                why="Weierstrass preparation: division of x_n^d plus a unit "
                    "inversion, Series.__mul__ bound",
                argv=("prep", f, "--vars", str(n), "--trunc", str(prec))))
            jobs.append(Job(
                name=f"divide:{tag}", answer="divide", params=params,
                why="Weierstrass division fixed-point iteration: one full "
                    "product per round",
                argv=("divide", g, f, "--vars", str(n), "--trunc", str(prec))))

    # x1*x2*x3*u vanishes on every axis: identity and permutations fail
    # and a shear is needed, so each candidate costs a substitution.
    unit = poly_text(rng, _names(3), _monomials(3, 0, 3))
    f = f"x1*x2*x3*({unit})"
    jobs.append(Job(
        name="regularize:n3", answer="regularize",
        params={"vars": 3, "f": f, "trunc": 9},
        why="regularizing search: linear substitutions, products of powers",
        argv=("regularize", f, "--vars", "3", "--trunc", "9")))

    # the costliest job of the workload, so slowest_job_s follows one job
    a = unit_text(rng, _names(2), _monomials(2, 1, 22))
    jobs.append(Job(
        name="invert_unit:n2p22", answer="invert_unit", call="invert_unit",
        params={"vars": 2, "prec": 22, "a": a},
        why="unit inversion by geometric series: O(prec) full products, "
            "the Newton-iteration target"))
    a = poly_text(rng, _names(2), _monomials(2, 1, 10))
    jobs.append(Job(
        name="exp_series:n2p10", answer="exp_series", call="exp_series",
        params={"vars": 2, "prec": 10, "a": a},
        why="exponential by power sums: O(prec) full products"))

    joint = _names(2) + _names(2, "z")
    left = poly_text(rng, joint, _monomials(4, 0, 3))
    right = poly_text(rng, joint, _monomials(4, 0, 3))
    jobs.append(Job(
        name="poisson:n2", answer="poisson",
        params={"vars": 2, "prec": 12, "left": left, "right": right},
        why="closed-form Poisson bracket on dense symbols",
        argv=("poisson", left, right, "--vars", "2", "--trunc", "12")))

    left = _operator_text(rng, 2, 2, 3)
    right = _operator_text(rng, 2, 2, 3)
    for call in ("op_product", "commutator"):
        jobs.append(Job(
            name=f"{call}:n2", answer=call, call=call,
            params={"vars": 2, "prec": 12, "left": left, "right": right},
            why="normal-form operator product: Leibniz expansion with "
                "series products"))

    # The graph of dh is Lagrangian, so {z_i + h_i, z_j + h_j} = 0 and the
    # ideal stays involutive after multiplying each generator by a unit;
    # proving it needs a membership solve per pair.
    support = _monomials(2, 2, 3)
    h = list(zip(_coeffs(rng, len(support)), support))
    units = [unit_text(rng, _names(2), _monomials(2, 1, 1)) for _ in range(2)]
    gens = []
    for axis in (1, 2):
        dh = " + ".join(_term(c * e[axis - 1], _names(2), _lower(e, axis))
                        for c, e in h if e[axis - 1])
        gens.append(f"({units[axis - 1]})*(z{axis} + {dh})")
    jobs.append(Job(
        name="involutive:lagrangian", answer="involutive-pass",
        params={"vars": 2, "gens": gens, "trunc": 5},
        why="involutivity: one truncated membership solve per pair",
        argv=("involutive", *gens, "--vars", "2", "--trunc", "5")))

    f = regular_text(rng, 2, 3, 4)
    jobs.append(Job(
        name="bracket-probe:n2", answer="bracket-probe",
        params={"vars": 2, "f": f, "order": 3, "trunc": 12},
        why="repeated brackets {z_n, -} until a unit: order-3 regular f",
        argv=("bracket-probe", f, "--vars", "2", "--trunc", "12")))

    op = _malgrange_text(rng)
    jobs.append(Job(
        name="malgrange:oracle", answer="malgrange-oracle",
        params={"op": op},
        why="indicial data, snake-lemma dims and the brute-force oracle",
        argv=("malgrange", op, "--trunc", "10", "--oracle")))
    return jobs


def jobs_for(workload, seed):
    """The workload's job list; the seed fixes inputs and order."""
    if workload == "cohomology":
        jobs = cohomology_jobs()
    elif workload == "ladders":
        jobs = ladder_jobs()
    elif workload == "series-calculus":
        jobs = series_jobs(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(jobs)
    return jobs
