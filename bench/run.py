"""formald benchmark: one workload, one seed, checked answers, metrics.

Usage, from the repository root::

    python3 bench/run.py --workload cohomology --seed 1 --seconds 40 --trace 0

The run imports ``formald`` from ``src/`` of the checkout it sits in and
fails without printing a result when that is missing.  It is a closed
loop in one process and one thread: each job starts when the previous
one has finished, and passes over the workload's job list repeat until
another pass would overrun ``--seconds`` (at least one pass runs).  The
bounds in ``BENCHMARK.json`` hold for ``--seconds`` equal to its
``run_seconds``, which is what the benchmark's callers pass.

Times are reported in reference-normalised seconds.  The host is shared,
and other tenants slow everything on it by up to 1.7x, in bursts from
seconds to minutes long.  So while the run measures, a timer signal runs
``reference()``, a short fixed exact-arithmetic loop that never touches
``formald``, every ``SAMPLE_INTERVAL`` seconds (about 1% of the time).
A job's time is its wall time times ``REFERENCE_SECONDS`` divided by the
mean reference time sampled while it ran.  A change to ``formald`` moves
these times as it moves wall time; a change in the host's speed moves
the job and the reference alike and cancels.  Raw wall times are printed
beside them.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``wall_s`` is the median pass time, ``job_geomean_s`` and
``slowest_job_s`` use each job's median over the passes, and ``setup_s``
is the median of nine fresh-interpreter set-ups, one before each pass
until there are nine.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: a traced pass runs the workload with every layer
wrapped by ``tracer.py``.  Per-layer numbers are medians over traced
passes, in plain seconds; a layer the workload never calls reads 0.
Answers must match the untraced ones byte for byte; the spans of the
last traced pass are written to ``bench/out/``.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts errors and unexpected answers; answers equal to a
recorded known defect keep ``correct`` true but count in ``fail_ratio``
and ``wrong_ratio``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import bisect
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracer
import verify
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 9
SAMPLE_INTERVAL = 0.05
# about the duration of reference() on the host the baseline was recorded
# on; normalised times are seconds on a host where it takes this long
REFERENCE_SECONDS = 0.0006


def import_formald():
    src = ROOT / "src"
    if not (src / "formald" / "__init__.py").is_file():
        raise SystemExit(f"error: formald sources not found under {src}")
    sys.path.insert(0, str(src))
    import formald
    from formald import cli, parser
    if Path(formald.__file__).resolve().parent != src / "formald":
        raise SystemExit(f"error: imported formald from {formald.__file__}")
    return formald, cli, parser


def load_contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def reference():
    """A short fixed loop of dict and Fraction arithmetic, the same kind of
    work formald's hot paths do; it never touches formald."""
    acc = {}
    for i in range(1, 150):
        k = i % 97
        acc[k] = acc.get(k, 0) + Fraction(i, k + 1) * Fraction(k, 7)


class SpeedMeter:
    """Times ``reference()`` every SAMPLE_INTERVAL seconds from a timer
    signal, so the host's speed is known while a job runs."""

    def __init__(self):
        self.starts, self.durations = [], []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        """No samples while a child process runs: they would time the
        reference against our own child rather than against the host."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def normalise(self, start, end):
        """Wall time of [start, end] in seconds on a host where reference()
        takes REFERENCE_SECONDS, from the samples inside the interval (or
        the two around it, for an interval shorter than the spacing)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < 2:
            lo, hi = max(lo - 1, 0), hi + 1
        speed = statistics.fmean(self.durations[lo:hi])
        return (end - start) * REFERENCE_SECONDS / speed


def run_job(job, formald, cli, parser):
    """Run one job and return its printed answer."""
    if job.argv is not None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(list(job.argv))
        return buf.getvalue()
    p = job.params
    if job.call in ("invert_unit", "exp_series"):
        args = [parser.parse_series(p["a"], p["vars"], p["prec"])]
    else:
        args = [parser.parse_operator(p[side], p["vars"], p["prec"])
                for side in ("left", "right")]
    return str(getattr(formald, job.call)(*args)) + "\n"


@dataclass
class Pass:
    spans: list      # per job, (start, end) wall clock
    outputs: list    # per job, the printed answer
    times: list = None   # per job, normalised seconds (set by normalise)

    @property
    def wall(self):
        return sum(self.times)

    @property
    def raw(self):
        return [end - start for start, end in self.spans]

    def normalise(self, meter):
        self.times = [meter.normalise(*span) for span in self.spans]


def run_pass(jobs, package):
    """One pass over the jobs; an exception becomes an error output."""
    clock = time.perf_counter
    spans, outputs = [], []
    for job in jobs:
        t0 = clock()
        try:
            out = run_job(job, *package)
        except Exception as exc:  # a traceback is a failed job, not a crash
            out = f"status: error\nexception: {type(exc).__name__}: {exc}\n"
        spans.append((t0, clock()))
        outputs.append(out)
    return Pass(spans, outputs)


def setup_probe(workload, seed):
    """(start, end) of a fresh interpreter that imports formald and builds
    the workload's inputs, then exits.  The wait blocks without a timeout:
    a timeout makes subprocess poll in steps of up to 50 ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--setup-probe", "--workload", workload, "--seed", str(seed)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return t0, time.perf_counter()


class Outcomes:
    """Answer classification, cached per distinct output text."""

    def __init__(self, known):
        self.known = known
        self.counts = {"ok": 0, "known-wrong": 0, "wrong": 0, "error": 0}
        self.cache = {}
        self.first = {}

    def classify(self, job, output):
        key = (job.name, output)
        if key not in self.cache:
            if verify.parse_report(output).get("status") == "error":
                self.cache[key] = "error"
            else:
                self.cache[key] = verify.check(job, output, self.known)
        return self.cache[key]

    def record(self, jobs, outputs):
        for job, out in zip(jobs, outputs):
            self.counts[self.classify(job, out)] += 1

    def same_as_first(self, jobs, outputs):
        """Count a job whose output differs from its first pass as wrong."""
        for job, out in zip(jobs, outputs):
            first = self.first.setdefault(job.name, out)
            if out != first:
                self.cache[(job.name, out)] = "wrong"

    @property
    def attempted(self):
        return sum(self.counts.values())

    @property
    def failed(self):
        """Errors and unexpected answers (known defects excluded)."""
        return self.counts["error"] + self.counts["wrong"]


def schedule(seconds, run_one):
    """Run passes until another would overrun ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        run_one(len(durations))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def end_to_end(jobs, passes, outcomes, setup_s, peak_rss_mb):
    per_job = [statistics.median(p.times[i] for p in passes)
               for i in range(len(jobs))]
    counts, attempted = outcomes.counts, outcomes.attempted
    wrong = counts["wrong"] + counts["known-wrong"]
    fail = wrong + counts["error"]
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "job_geomean_s": math.exp(statistics.fmean(math.log(t) for t in per_job)),
        "slowest_job_s": max(per_job),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "fail_ratio": fail / attempted,
        "wrong_ratio": wrong / attempted,
        "pass_ratio": 1 - fail / attempted,
        "not_wrong_ratio": 1 - wrong / attempted,
    }


def traced_pass(jobs, package):
    """The workload with every layer wrapped."""
    trace = tracer.Tracer()
    undo = tracer.install(trace)
    try:
        result = run_pass(jobs, package)
    finally:
        tracer.uninstall(undo)
    return result, trace


def write_spans(workload, seed, trace):
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "start", "end", "parent"],
                   "spans": trace.spans}, handle)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    help="measuring time: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    package = import_formald()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    jobs = workloads.jobs_for(args.workload, args.seed)
    known = verify.load_known_answers()
    if args.setup_probe:
        return 0
    if args.seconds is None:
        ap.error("the following arguments are required: --seconds")

    contract = load_contract()
    setups = []
    outcomes = Outcomes(known)
    untraced, traced, traces = [], [], []

    def one_pass(index):
        # set-up probes are spread over the run so that one burst of load
        # from other tenants cannot move all of them
        if len(setups) < SETUP_PROBES:
            with meter.paused():
                setups.append(setup_probe(args.workload, args.seed))
        if args.trace and index % 2:
            result, trace = traced_pass(jobs, package)
            traced.append(result)
            traces.append(trace)
        else:
            untraced.append(run_pass(jobs, package))

    with SpeedMeter() as meter:
        schedule(args.seconds, one_pass)
        if args.trace and not traced:
            one_pass(1)
        while len(setups) < SETUP_PROBES:
            with meter.paused():
                setups.append(setup_probe(args.workload, args.seed))
            time.sleep(SAMPLE_INTERVAL * 2)  # a sample after each probe
        time.sleep(SAMPLE_INTERVAL * 2)  # a sample after the last job
    for result in untraced + traced:
        result.normalise(meter)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for result in untraced + traced:
        outcomes.same_as_first(jobs, result.outputs)
        outcomes.record(jobs, result.outputs)

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  "
          f"jobs: {len(jobs)}  untraced passes: {len(untraced)}  "
          f"traced passes: {len(traced)}")
    for i, job in enumerate(jobs):
        norm = statistics.median(p.times[i] for p in untraced)
        raw = statistics.median(p.raw[i] for p in untraced)
        verdict = outcomes.classify(job, untraced[0].outputs[i])
        print(f"  {job.name:28s} {norm:9.4f} s  (wall {raw:9.4f} s)  {verdict}")
    print(f"median pass wall time: "
          f"{statistics.median(sum(p.raw) for p in untraced):.4f} s")
    setup_s = statistics.median(meter.normalise(*span) for span in setups)
    e2e = end_to_end(jobs, untraced, outcomes, setup_s, peak_rss_mb)
    if args.trace:
        layer_runs = [tracer.layer_metrics(trace) for trace in traces]
        layers = {key: statistics.median(run[key] for run in layer_runs)
                  for key in layer_runs[0]}
        layers["trace.overhead_ratio"] = (
            statistics.median(p.wall for p in traced) / e2e["wall_s"])
        path = write_spans(args.workload, args.seed, traces[-1])
        print(f"spans: {path.relative_to(ROOT)}")
        spec, values = contract["per_layer"], layers
    else:
        spec, values = contract["end_to_end"], e2e
    for key in ("fail_ratio", "wrong_ratio"):
        print(f"{key}: {e2e[key]:.4f} (1)")
    metrics = {}
    for metric in spec:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']}: {value} ({metric['unit']})")
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
