"""freqshare benchmark: end-to-end job timings and an outside-in layer trace.

Usage, from the repository root::

    python3 benchmarks/run.py --workload gb-study --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all

One run measures one workload in this single-threaded process, through
freqshare's public API, on the library under ``src/`` next to this
directory. Jobs run back to back (a closed loop with one client) until
``--seconds`` of job time is measured and at least ``MIN_JOBS`` jobs
ran. Each job's inputs are drawn from (seed, job index) before it is
timed, and its outputs are checked after, outside the timer (see
``checks.py``). Before measuring, the fixed golden input runs once; its
emitted CSV bytes must match ``golden.json``.

``--trace 0`` prints the end-to-end metrics: job_p50_ref, job_p90_ref
and jobs_per_kref (job times in units of a reference loop timed beside
each job, see ``reference_s``; plain seconds are printed above them),
setup_s (median of ``SETUP_SAMPLES`` fresh interpreters
timing ``import freqshare`` plus ``load_scenario`` of the workload's
pre-generated YAML, spread over the measuring window), peak_rss_mb and
jobs_ok_ratio.

``--trace 1`` alternates untraced and traced jobs and prints the
per-layer metrics: calls and self time of every wrapped function (see
``tracer.py``), extra work counts, the benchmark's own untraced
remainder, the tracing overhead and the workload's input properties.
Counts come from the first ``COUNTED_JOBS`` traced jobs, so two runs
with one seed give the same counts; times are means over all traced
jobs, so the self times plus the remainder add up to the mean traced
job time. Spans are kept in memory and written to
``.bench_out/spans-<workload>.csv`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: At least this many jobs per run, so that ten or more lie beyond p90.
MIN_JOBS = 100
#: Measuring stops after this much wall time whatever the job count, so
#: that a run ends well inside 180 s even on a much slower library.
WALL_LIMIT_S = 120.0
SETUP_SAMPLES = 7
COUNTED_JOBS = 10
#: A job's reference time is the median over this many jobs either side.
REF_WINDOW = 2
WORKLOAD_NAMES = ("gb-study", "synth-run", "synth-sweep")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; a failed job counts as ``inf``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def library_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "freqshare").rglob("*.py")))


def environment() -> str:
    import numpy
    import yaml

    return (f"nproc {len(os.sched_getaffinity(0))}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, PyYAML {yaml.__version__}, "
            f"libyaml {'yes' if yaml.__with_libyaml__ else 'no'}")


def setup_sample(scenario_yaml: Path) -> float:
    """One set-up time, measured in a fresh interpreter by setup_probe.py."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(scenario_yaml)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


def golden_digest(workload) -> tuple[bool, str]:
    """Run the golden input once (also the warm-up) and digest its CSVs."""
    from checks import csv_digest
    from workloads import GOLDEN

    expected = json.loads((HERE / "golden.json").read_text())[workload.name]
    job_input = workload.prepare(GOLDEN)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            output = workload.run(job_input)
        workload.check(job_input, output)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False, "(golden job failed)"
    digest = csv_digest(workload.out)
    workload.clean()
    return digest == expected, digest


# Fixed input of the reference work; see reference_s().
_REF_ROWS = [(i * 0.37 % 11.0, f"k{i % 97}") for i in range(2000)]


def reference_s() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    It is timed next to every job, outside the job's timer. On a shared
    2-vCPU VM (Xeon, 2.1 GHz) speed drifted by up to a third over tens
    of seconds, CPU time with wall time, and every raw job time moved
    with it; a job time divided by the reference time next to it barely
    drifts. The work
    mixes integer arithmetic with sorting, dict updates and float
    formatting, like the library's own mix, and calls nothing in
    freqshare, so no library change can move it.
    """
    start = perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    rows = sorted(_REF_ROWS, key=lambda row: (row[0], row[1]))
    sums: dict[str, float] = {}
    for x, key in rows:
        sums[key] = sums.get(key, 0.0) + x
    "".join(f"{key},{x:.9g},{x * 3.1:.9g}\n" for x, key in rows)
    return perf_counter() - start


class Totals:
    """Per-run tallies of the measuring loop, one entry per job."""

    def __init__(self):
        self.durations: list[float] = []
        self.references: list[float] = []
        self.traced: list[bool] = []
        self.ok: list[bool] = []
        self.setup: list[float] = []
        self.props: dict[str, float] = {}

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    @property
    def measured_s(self) -> float:
        return math.fsum(self.durations)

    def add_props(self, props: dict) -> None:
        for key, value in props.items():
            self.props[key] = self.props.get(key, 0) + value

    def seconds(self, traced: bool) -> list[float]:
        """Job times in seconds; a failed job counts as ``inf``."""
        return [d if ok else math.inf
                for d, t, ok in zip(self.durations, self.traced, self.ok) if t == traced]

    def in_references(self, traced: bool) -> list[float]:
        """Job times over the median reference time of the five nearest jobs."""
        refs = self.references
        out = []
        for i, (d, t, ok) in enumerate(zip(self.durations, self.traced, self.ok)):
            if t == traced:
                ref = statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
                out.append(d / ref if ok else math.inf)
        return out


def measure(workload, seconds: float, tracer, setup_yaml: Path | None) -> Totals:
    """Run jobs until ``seconds`` of job time and ``MIN_JOBS`` jobs.

    With ``setup_yaml``, the ``SETUP_SAMPLES`` set-up samples are taken
    between jobs, evenly over the measured time, so that their median
    does not rest on one stretch of a drifting machine speed.
    """
    totals = Totals()
    sink = io.StringIO()
    wall_start = perf_counter()
    job = 0
    with contextlib.redirect_stdout(sink):
        while ((totals.measured_s < seconds or totals.attempted < MIN_JOBS)
               and perf_counter() - wall_start < WALL_LIMIT_S):
            if (setup_yaml is not None and len(totals.setup) < SETUP_SAMPLES
                    and totals.measured_s >= len(totals.setup) * seconds / SETUP_SAMPLES):
                totals.setup.append(setup_sample(setup_yaml))
            job_input = workload.prepare(job)
            traced = tracer is not None and job % 2 == 1
            totals.references.append(reference_s())
            ok = True
            output = None
            duration = 0.0
            try:
                if traced:
                    tracer.install()
                    tracer.begin_job(job)
                start = perf_counter()
                try:
                    output = workload.run(job_input)
                finally:
                    duration = tracer.end_job() if traced else perf_counter() - start
                    if traced:
                        tracer.remove()
            except Exception:
                ok = False
                traceback.print_exc(file=sys.stderr)
            if traced:
                counted = tracer.counted_jobs < COUNTED_JOBS
                try:
                    props = tracer.settle_job(count=counted)
                except AssertionError as exc:
                    ok = False
                    print(f"job {job}: {exc}", file=sys.stderr)
                else:
                    if counted:
                        totals.add_props(props)
                        totals.add_props(workload.properties(job_input))
            if ok:
                try:
                    workload.check(job_input, output)
                except Exception as exc:
                    ok = False
                    print(f"job {job}: check failed: {exc!r}", file=sys.stderr)
            workload.clean()
            sink.seek(0)
            sink.truncate()
            totals.durations.append(duration)
            totals.traced.append(traced)
            totals.ok.append(ok)
            job += 1
    while setup_yaml is not None and len(totals.setup) < SETUP_SAMPLES:
        totals.setup.append(setup_sample(setup_yaml))
    return totals


def raw_seconds(totals: Totals) -> dict:
    """Untraced job times in plain seconds."""
    times = totals.seconds(traced=False)
    return {
        "job_p50_s": (percentile(times, 0.5), "s"),
        "job_p90_s": (percentile(times, 0.9), "s"),
        "jobs_per_s": ((len(times) - times.count(math.inf)) / math.fsum(
            d for d, t in zip(totals.durations, totals.traced) if not t), "1/s"),
        "reference_p50_s": (statistics.median(totals.references), "s"),
    }


def end_to_end(totals: Totals) -> dict:
    times = totals.in_references(traced=False)
    ok_jobs = len(times) - times.count(math.inf)
    return {
        "job_p50_ref": (percentile(times, 0.5), "ref"),
        "job_p90_ref": (percentile(times, 0.9), "ref"),
        "jobs_per_kref": (1000.0 * ok_jobs / (math.fsum(t for t in times if t != math.inf) or 1.0),
                          "1/kref"),
        "setup_s": (statistics.median(totals.setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "jobs_ok_ratio": (totals.ok.count(True) / totals.attempted, "ratio"),
    }


def per_layer(totals: Totals, tracer) -> dict:
    from tracer import EXTRA_COUNTS, ROOT_NAME, TARGETS

    counted = max(tracer.counted_jobs, 1)
    traced = max(tracer.traced_jobs, 1)
    counts = tracer.counts
    metrics = {}
    for target in TARGETS:
        metrics[f"{target}.calls"] = (counts.get(f"{target}.calls", 0) / counted, "count")
        metrics[f"{target}.self_s"] = (tracer.self_s.get(target, 0.0) / traced, "s")
    for key in EXTRA_COUNTS:
        metrics[key] = (counts.get(key, 0) / counted, "bytes" if key.endswith(".bytes") else "count")
    bids_in = counts.get("market.clear_market.bids_in", 0)
    metrics["market.clear_market.accepted_ratio"] = (
        counts.get("market.clear_market.bids_accepted", 0) / bids_in if bids_in else 0.0, "ratio")
    metrics["bench.self_s"] = (tracer.self_s[ROOT_NAME] / traced, "s")

    traced_s = [d for d, t in zip(totals.durations, totals.traced) if t]
    p50_traced = percentile(totals.seconds(traced=True), 0.5)
    p50_untraced = percentile(totals.seconds(traced=False), 0.5)
    metrics["trace.job_mean_s"] = (math.fsum(traced_s) / max(len(traced_s), 1), "s")
    metrics["trace.job_p50_s"] = (p50_traced, "s")
    metrics["trace.untraced_job_p50_s"] = (p50_untraced, "s")
    metrics["trace.overhead_s"] = (p50_traced - p50_untraced, "s")
    # The same difference in reference units, steadier across runs.
    metrics["trace.overhead_ref"] = (percentile(totals.in_references(traced=True), 0.5)
                                     - percentile(totals.in_references(traced=False), 0.5), "ref")
    metrics["reference_p50_s"] = (statistics.median(totals.references), "s")
    metrics["trace.absent_functions"] = (len(tracer.absent), "count")

    props = totals.props
    metrics["input.tied_marginal_share"] = (
        props.get("tied_marginal", 0) / max(props.get("clearings", 0), 1), "ratio")
    metrics["input.repeated_clearing_share"] = (
        props.get("repeated_cascade_clearings", 0) / max(props.get("cascade_clearings", 0), 1),
        "ratio")
    metrics["input.equal_capacity_share"] = (props.get("equal_capacity_share", 0) / counted, "ratio")
    metrics["input.existing_share"] = (props.get("existing_share", 0) / counted, "ratio")
    metrics["input.scarcity_points"] = (counts.get("input.scarcity_points", 0) / counted, "count")
    metrics["library.lines"] = (library_lines(), "lines")
    return metrics


def run_one(args) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import freqshare

    if Path(freqshare.__file__).resolve().parent != (SRC / "freqshare").resolve():
        print(f"error: imported freqshare from {freqshare.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed)
        golden_ok, digest = golden_digest(workload)
        tracer = Tracer() if args.trace else None
        totals = measure(workload, args.seconds, tracer,
                         None if args.trace else workload.setup_yaml())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"freqshare benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print(f"why: {workload.why}")
    print(f"environment: {environment()}")
    print(f"library: src/freqshare {library_lines()} lines")
    print(f"golden CSV digest: {'match' if golden_ok else 'MISMATCH ' + digest}")
    print(f"jobs: {totals.attempted} attempted, {totals.failed} failed "
          f"(jobs_failed_ratio {totals.failed / totals.attempted:.6g}), "
          f"{totals.measured_s:.3f} s of job time measured")
    if args.trace:
        metrics = per_layer(totals, tracer)
        if tracer.absent:
            print(f"absent functions: {', '.join(tracer.absent)}")
        layer_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        print(f"self times + remainder = {layer_sum:.6g} s, mean traced job "
              f"{metrics['trace.job_mean_s'][0]:.6g} s")
        additive = math.isclose(layer_sum, metrics["trace.job_mean_s"][0], rel_tol=1e-6)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}.csv"
        tracer.write_spans(spans)
        print(f"spans: {len(tracer.spans[0])} written to {spans.relative_to(ROOT)}")
    else:
        for key, (value, unit) in raw_seconds(totals).items():
            print(f"  {key} {value:.6g} {unit} (raw)")
        metrics = end_to_end(totals)
        additive = True
    for key, (value, unit) in metrics.items():
        print(f"  {key} {value:.6g} {unit}")
    result = {
        "correct": golden_ok and additive and totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                sys.stderr.write(done.stderr)
                print(f"{name}: FAILED (exit code {done.returncode})")
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "freqshare" / "__init__.py").is_file():
        print(f"error: no freqshare sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
