"""The benchmark's workloads: what one job is, its inputs and its checks.

Each workload draws a job's inputs from (seed, job index) before the
job is timed, so no job sees inputs an earlier job saw and no cache
kept between calls can show a gain users would not get. Job index
``GOLDEN`` is the fixed input whose emitted CSV bytes are pinned in
``golden.json``.

Library calls go through module attributes at call time
(``freqshare.run_pipeline``, ``freqshare.cli.main``), so a traced job
reaches the tracer's wrappers.
"""

from __future__ import annotations

import dataclasses
import random
import re
import shutil
from pathlib import Path

import yaml

import freqshare
import freqshare.cli
from checks import (
    CSV_REL,
    REL,
    check_report,
    check_report_csv,
    check_report_matches_csv,
    check_sweep,
    nadir_hz,
    read_csv,
    require,
    sweep_rows,
)
from synth import scenario_yaml, synth_doc

GOLDEN = -1


def fleet_properties(doc: dict) -> dict:
    """Shares of units with an equal-capacity twin on their side, and of
    existing units."""
    fleet = doc["fleet"]
    seen: dict[tuple, int] = {}
    for u in fleet:
        key = (u["side"], u["capacity_gw"])
        seen[key] = seen.get(key, 0) + 1
    return {
        "equal_capacity_share": sum(seen[(u["side"], u["capacity_gw"])] > 1 for u in fleet)
        / len(fleet),
        "existing_share": sum(bool(u.get("existing")) for u in fleet) / len(fleet),
    }


class Workload:
    name = ""
    why = ""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.out = work / "out"

    def setup_yaml(self) -> Path:
        """The pre-generated scenario file whose load ``setup_s`` times."""
        raise NotImplementedError

    def prepare(self, job: int):
        """Inputs of one job, made before it is timed."""
        raise NotImplementedError

    def run(self, job_input):
        """The timed job."""
        raise NotImplementedError

    def check(self, job_input, output) -> None:
        """Raise :class:`checks.CheckError` unless the job's output holds."""
        raise NotImplementedError

    def properties(self, job_input) -> dict:
        raise NotImplementedError

    def clean(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class GbStudy(Workload):
    name = "gb-study"
    why = ("the bundled GB scenario in the run/sweep/simulate/clear/split flow: "
           "YAML parse and CSV writers dominate, market clearing is a few percent")

    SIMULATE = ("--snapshot", "low-inertia", "--size-gw", "1.8", "--reserve-gw", "5.0625")
    CLEAR = ("--snapshot", "low-inertia", "--requirement-gw", "5.0625")

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.base = root / "scenarios" / "gb_example.yaml"
        self.text = self.base.read_text()
        self.doc = yaml.safe_load(self.text)
        years = 30
        self.ledger = freqshare.ViabilityLedger(
            lifetime_years=years,
            revenues_electricity=(800e6,) * years,
            revenues_ancillary=(0.0,) * years,
            cost_fuel=(120e6,) * years,
            cost_ancillary=(0.0,) * years,
            cost_others=(60e6,) * years,
            cost_investment=9e9,
            profit_sought=2e9,
        )

    def setup_yaml(self) -> Path:
        return self.base

    def prepare(self, job):
        # Scaling every price by one positive factor keeps the merit
        # order, the free headroom and the volumes, so the cut-offs and
        # the scarcity below hold for every job.
        factor = 1.0 if job == GOLDEN else random.Random(f"{self.name}-s{self.seed}-j{job}").uniform(
            0.5, 2.0)
        text = re.sub(r"price_per_mw_h: ([0-9.]+)",
                      lambda m: f"price_per_mw_h: {float(m.group(1)) * factor!r}", self.text)
        path = self.work / "scenario.yaml"
        path.write_text(text)
        return path

    def run(self, path):
        out = self.out
        common = ("--scenario", str(path), "--out")
        codes = [
            freqshare.cli.main(["run", *common, str(out / "run")]),
            freqshare.cli.main(["sweep", *common, str(out / "sweep")]),
            freqshare.cli.main(["simulate", *common, str(out / "simulate"), *self.SIMULATE]),
            freqshare.cli.main(["clear", *common, str(out / "clear"), *self.CLEAR]),
        ]
        # The 2 GW -> 2 x 1 GW plant split of scripts/run_gb_example.py.
        scenario = freqshare.load_scenario(path)
        entrant = freqshare.Unit(id="new-plant", capacity_gw=2.0, technology="nuclear")
        probe = dataclasses.replace(scenario, fleet=scenario.fleet + (entrant,))
        comparison = freqshare.compare_split(
            probe, "new-plant", 2, freqshare.SplitAdjustments(0.0, 0.0), self.ledger)
        freqshare.write_split_comparison(comparison, out / "split_comparison.csv")
        return codes

    def check(self, path, codes) -> None:
        out = self.out
        require(codes == [0, 0, 0, 0], f"CLI exit codes {codes}")
        check_report_csv(out / "run")
        points, scarcities, cutoffs = sweep_rows(out / "sweep")
        check_sweep(self.doc, points, scarcities, cutoffs, CSV_REL)
        require(cutoffs == [("low-inertia", 0.5), ("high-inertia", 0.5)],
                f"sweep cut-offs {cutoffs}, expected 0.5 GW in both snapshots")
        require(len(scarcities) == 1 and scarcities[0][:2] == (2.6, "low-inertia")
                and abs(scarcities[0][2] - 0.5625) <= 1e-9,
                f"sweep scarcities {scarcities}, expected one: 2.6 GW low-inertia short 0.5625 GW")
        low = self.doc["snapshots"][0]
        dp, reserve = float(self.SIMULATE[3]), float(self.SIMULATE[5])
        closed_form = (low["f_nominal_hz"] * dp * dp * low["delivery_time_s"]
                       / (4.0 * low["inertia_gws"] * reserve))
        nadir = nadir_hz(out / "simulate" / "trace_low-inertia.csv")
        require(abs(nadir - closed_form) <= 1e-3,
                f"simulated nadir {nadir!r} Hz, closed form {closed_form!r} Hz")
        accepted = [float(r["accepted_gw"])
                    for r in read_csv(out / "clear" / "clearing_low-inertia_under-frequency.csv")]
        require(abs(sum(accepted) - 5.0625) <= CSV_REL * 5.0625 * len(accepted),
                f"clear accepted {sum(accepted)!r} GW of 5.0625")
        configurations = [r["configuration"] for r in read_csv(out / "split_comparison.csv")]
        require(configurations == ["original", "split-2"],
                f"split comparison rows {configurations}")

    def properties(self, path) -> dict:
        return fleet_properties(self.doc)


class Synthetic(Workload):
    """A seeded synthetic scenario per job (see :mod:`synth`)."""

    n = m = sweep_points = 0
    pricing = ""

    def _doc(self, key: str) -> dict:
        return synth_doc(key, self.n, self.m, pricing_rule=self.pricing,
                         sweep_points=self.sweep_points)

    def setup_yaml(self) -> Path:
        path = self.work / "setup.yaml"
        path.write_text(scenario_yaml(self._doc(f"{self.name}-s{self.seed}-setup")))
        return path

    def prepare(self, job):
        key = f"{self.name}-golden" if job == GOLDEN else f"{self.name}-s{self.seed}-j{job}"
        doc = self._doc(key)
        return doc, freqshare.scenario_from_dict(doc)

    def properties(self, job_input) -> dict:
        return fleet_properties(job_input[0])


class SynthRun(Synthetic):
    name = "synth-run"
    why = ("n = m = 400 synthetic run, pay-as-clear: the per-unit what-if cascade in "
           "clear_market dominates; parsing only moves setup_s")
    n = m = 400
    pricing = "pay-as-clear"

    def run(self, job_input):
        report = freqshare.run_pipeline(job_input[1])
        freqshare.write_run_report(report, self.out / "run")
        return report

    def check(self, job_input, report) -> None:
        check_report(report)
        check_report_csv(self.out / "run")
        check_report_matches_csv(report, self.out / "run")


class SynthSweep(Synthetic):
    name = "synth-sweep"
    why = ("n = m = 60 pay-as-bid probe sweep over 48 sizes into scarcity: the fixed "
           "fleet is re-cleared at every grid point, so most cascade clearings repeat")
    n = m = 60
    sweep_points = 48
    pricing = "pay-as-bid"

    def run(self, job_input):
        result = freqshare.sweep_allocation_curve(job_input[1])
        freqshare.write_sweep_result(result, self.out / "sweep")
        return result

    def check(self, job_input, result) -> None:
        doc = job_input[0]
        check_sweep(doc, result.points, result.scarcities, result.cutoffs, REL)
        check_sweep(doc, *sweep_rows(self.out / "sweep"), CSV_REL)


WORKLOADS = {w.name: w for w in (GbStudy, SynthRun, SynthSweep)}
