"""Outside-in tracing of freqshare's layers, from the benchmark's files.

:class:`Tracer` replaces each listed function with a wrapper that
records a span (function, start, end, parent span, job id) and keeps
the call's arguments and result until the job ends, when per-call
counts are derived from them outside the timed region. Nothing under
``src/freqshare`` is edited: the wrapper is bound in place of every
freqshare module attribute that holds the original function, so calls
through ``from .market import clear_market`` are seen too, and
:meth:`Tracer.remove` puts the original objects back. A listed function
the code no longer has is reported as absent.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested on one thread, so the children
never overlap. The job's root span is the benchmark itself; its self
time is the untraced remainder, and all self times of a job add up to
the job's duration.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

#: Layer -> functions wrapped in that layer; ``yaml.safe_load`` is the
#: scenario layer's parse dependency.
LAYERS = {
    "scenario": ("load_scenario", "scenario_from_dict", "validate_scenario", "run_pipeline",
                 "allocate_snapshot", "sweep_allocation_curve", "write_run_report",
                 "write_sweep_result"),
    "dynamics": ("required_reserve", "simulate_frequency", "write_trace_csv"),
    "market": ("clear_market", "fictitious_cost_cascade", "write_clearing_csv"),
    "allocation": ("allocate", "cutoff_size", "filter_existing"),
    "investment": ("compare_split", "annual_ancillary_cost", "write_split_comparison"),
    "cli": ("main",),
}
TARGETS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns) + (
    "yaml.safe_load",)

#: Extra per-job counts beyond ``calls``, keyed by metric name.
EXTRA_COUNTS = (
    "scenario.sweep_allocation_curve.points",
    "scenario.write_run_report.bytes",
    "scenario.write_sweep_result.bytes",
    "dynamics.simulate_frequency.samples",
    "dynamics.write_trace_csv.bytes",
    "market.clear_market.bids_in",
    "market.clear_market.bids_accepted",
    "market.clear_market.scarcity_errors",
    "market.fictitious_cost_cascade.units",
    "market.write_clearing_csv.bytes",
    "investment.write_split_comparison.bytes",
)

ROOT_NAME = "bench.job"

_ARGUMENTS_USED = {
    "market.clear_market", "market.fictitious_cost_cascade", "dynamics.write_trace_csv",
    "market.write_clearing_csv", "investment.write_split_comparison",
}


def _home_module(target: str):
    owner = target.rsplit(".", 1)[0]
    name = owner if owner == "yaml" else f"freqshare.{owner}"
    return sys.modules.get(name)


def _arguments(signature, args, kwargs) -> dict:
    try:
        return signature.bind(*args, **kwargs).arguments
    except TypeError:
        return {}


def _size(path) -> int:
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


class Tracer:
    """Spans and per-job counts for the functions in :data:`TARGETS`.

    Use :meth:`install` / :meth:`remove` around a traced job and
    :meth:`begin_job` / :meth:`end_job` to bracket it. Spans stay in
    memory until :meth:`write_spans`.
    """

    def __init__(self):
        self.originals: dict[str, object] = {}
        self.absent: list[str] = []
        for target in TARGETS:
            module = _home_module(target)
            fn = getattr(module, target.rsplit(".", 1)[1], None) if module else None
            if callable(fn):
                self.originals[target] = fn
            else:
                self.absent.append(target)
        self.names = (ROOT_NAME,) + tuple(self.originals)
        self._signatures = {t: inspect.signature(fn) for t, fn in self.originals.items()}
        self._bindings: list[tuple[object, str, object]] = []
        self._open: list[int] = []
        self._job = -1
        self._calls: list[list] = []   # [name index, start, end, parent, args, kwargs, result]
        self._wrappers = {
            target: self._wrap(i + 1, fn) for i, (target, fn) in enumerate(self.originals.items())
        }
        # Finished spans, one column per field: job, name index, start, end, parent.
        self.spans = (array("q"), array("q"), array("d"), array("d"), array("q"))
        self.self_s: dict[str, float] = {name: 0.0 for name in self.names}
        self.counts: dict[str, int] = {}
        self.traced_jobs = 0
        self.counted_jobs = 0

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        by_id = {id(fn): self._wrappers[t] for t, fn in self.originals.items()}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "freqshare" or name.startswith("freqshare."))]
        modules.append(sys.modules["yaml"])
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._bindings:
            module, attr, value = self._bindings.pop()
            setattr(module, attr, value)

    def _wrap(self, index: int, fn):
        calls = self._calls
        open_ = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            call = [index, 0.0, 0.0, open_[-1], args, kwargs, None]
            open_.append(len(calls))
            calls.append(call)
            call[1] = perf_counter()
            try:
                call[6] = fn(*args, **kwargs)
                return call[6]
            except BaseException as exc:
                call[6] = exc
                raise
            finally:
                call[2] = perf_counter()
                open_.pop()

        return traced

    # -- jobs -------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        self._job = job
        self._calls.clear()
        self._calls.append([0, 0.0, 0.0, -1, (), {}, None])
        self._open[:] = [0]
        self._calls[0][1] = perf_counter()

    def end_job(self) -> float:
        """Close the job's root span and return its duration."""
        self._calls[0][2] = perf_counter()
        self._open.clear()
        return self._calls[0][2] - self._calls[0][1]

    def settle_job(self, count: bool) -> dict:
        """Fold the finished job into the totals; outside the timed region.

        Self times always accumulate. With ``count`` the job's calls
        also add to :attr:`counts`, and the returned dict holds the
        job's input properties seen at the market boundary.
        """
        calls = self._calls
        own = [c[2] - c[1] for c in calls]
        for c in calls[1:]:
            own[c[3]] -= c[2] - c[1]
        jobs, names, starts, ends, parents = self.spans
        for c, s in zip(calls, own):
            self.self_s[self.names[c[0]]] += s
            jobs.append(self._job)
            names.append(c[0])
            starts.append(c[1])
            ends.append(c[2])
            parents.append(c[3])
        total = calls[0][2] - calls[0][1]
        if abs(sum(own) - total) > 1e-9 * total + 1e-12:
            raise AssertionError(f"self times add up to {sum(own)!r}, job took {total!r}")
        self.traced_jobs += 1
        props = {}
        if count:
            props = self._count(calls)
            self.counted_jobs += 1
        calls.clear()
        return props

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _count(self, calls) -> dict:
        from freqshare import ClearingResult, ScarcityError

        clearings = tied = cascade_clearings = repeats = 0
        seen = set()
        for index, _start, _end, parent, args, kwargs, result in calls[1:]:
            name = self.names[index]
            self._add(f"{name}.calls", 1)
            if name in _ARGUMENTS_USED:
                arguments = _arguments(self._signatures[name], args, kwargs)
            if name == "market.clear_market":
                bids = arguments.get("bids") or ()
                self._add(f"{name}.bids_in", len(bids))
                self._add(f"{name}.scarcity_errors", isinstance(result, ScarcityError))
                if isinstance(result, ClearingResult) and result.cleared:
                    self._add(f"{name}.bids_accepted", len(result.cleared))
                    clearings += 1
                    at_margin = sum(1 for b in bids if b.price_per_mw_h == result.marginal_price)
                    tied += at_margin > 1
                if self.names[calls[parent][0]] == "market.fictitious_cost_cascade" and bids:
                    cascade_clearings += 1
                    key = (arguments.get("requirement_gw"), id(bids[0]), len(bids),
                           arguments.get("pricing_rule"))
                    repeats += key in seen
                    seen.add(key)
            elif name == "market.fictitious_cost_cascade":
                self._add(f"{name}.units", len(arguments.get("units") or ()))
            elif name == "scenario.sweep_allocation_curve" and not isinstance(result, BaseException):
                self._add(f"{name}.points", len(result.points) + len(result.scarcities))
                self._add("input.scarcity_points", len(result.scarcities))
            elif name in ("scenario.write_run_report", "scenario.write_sweep_result"):
                if not isinstance(result, BaseException):
                    self._add(f"{name}.bytes", sum(_size(p) for p in result))
            elif name == "dynamics.simulate_frequency" and not isinstance(result, BaseException):
                self._add(f"{name}.samples", len(result.times_s))
            elif name in ("dynamics.write_trace_csv", "market.write_clearing_csv",
                          "investment.write_split_comparison"):
                self._add(f"{name}.bytes", _size(arguments.get("path")))
        return {
            "clearings": clearings,
            "tied_marginal": tied,
            "cascade_clearings": cascade_clearings,
            "repeated_cascade_clearings": repeats,
        }

    # -- output -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """All spans as CSV: job, span, name, start_s, end_s, parent."""
        with open(path, "w", newline="") as fh:
            fh.write("job,span,name,start_s,end_s,parent\n")
            span_in_job = 0
            last_job = None
            for job, name, start, end, parent in zip(*self.spans):
                span_in_job = 0 if job != last_job else span_in_job + 1
                last_job = job
                fh.write(f"{job},{span_in_job},{self.names[name]},{start!r},{end!r},{parent}\n")
