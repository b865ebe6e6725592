"""Tests of the benchmark itself (not collected by the library's suite).

Run from the repository root::

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import freqshare  # noqa: E402
import freqshare.cli  # noqa: E402,F401
from checks import CheckError, check_report_csv, csv_digest  # noqa: E402
from synth import scenario_yaml, synth_doc  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import GOLDEN, WORKLOADS, GbStudy, SynthSweep  # noqa: E402


def _bindings():
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "freqshare" or name.startswith("freqshare.")]
    modules.append(sys.modules["yaml"])
    return {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}


@pytest.mark.parametrize("name", ["synth-run", "synth-sweep"])
def test_generator_is_deterministic_and_valid(name, tmp_path):
    cls = WORKLOADS[name]
    make = lambda key: synth_doc(key, cls.n, cls.m, pricing_rule=cls.pricing,  # noqa: E731
                                 sweep_points=cls.sweep_points)
    first = scenario_yaml(make("k-s3-j7"))
    assert scenario_yaml(make("k-s3-j7")) == first
    assert scenario_yaml(make("k-s3-j8")) != first
    path = tmp_path / "s.yaml"
    path.write_text(first)
    loaded = freqshare.load_scenario(path)  # validates
    assert loaded == freqshare.scenario_from_dict(make("k-s3-j7"))
    assert len(loaded.fleet) == cls.n
    assert len(loaded.bid_stacks["low-inertia"]) == 2 * cls.m


def test_sweep_grid_reaches_scarcity():
    doc = synth_doc("k-s1-j0", SynthSweep.n, SynthSweep.m, pricing_rule=SynthSweep.pricing,
                    sweep_points=SynthSweep.sweep_points)
    result = freqshare.sweep_allocation_curve(freqshare.scenario_from_dict(doc))
    assert any(label == "low-inertia" for _, label, _ in result.scarcities)
    assert all(cutoff >= doc["sweep_capacities_gw"][0] for _, cutoff in result.cutoffs)


def _gb_golden(tmp_path):
    workload = GbStudy(HERE.parent, tmp_path, seed=0)
    path = workload.prepare(GOLDEN)
    workload.check(path, workload.run(path))
    return workload


def test_golden_digest_matches_and_one_changed_digit_is_caught(tmp_path, capsys):
    workload = _gb_golden(tmp_path)
    golden = json.loads((HERE / "golden.json").read_text())
    assert csv_digest(workload.out) == golden["gb-study"]

    allocation = workload.out / "run" / "allocation_low-inertia_under-frequency.csv"
    lines = allocation.read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    share = fields[4]
    fields[4] = str((int(share[0]) + 1) % 10) + share[1:]
    lines[1] = ",".join(fields)
    allocation.write_text("".join(lines))

    assert csv_digest(workload.out) != golden["gb-study"]
    with pytest.raises(CheckError):
        check_report_csv(workload.out / "run")


def test_tracer_restores_every_binding_and_sees_module_imports(tmp_path, capsys):
    workload = GbStudy(HERE.parent, tmp_path, seed=0)
    path = workload.prepare(GOLDEN)
    before = _bindings()
    tracer = Tracer()
    assert tracer.absent == []
    tracer.install()
    try:
        assert freqshare.market.clear_market is not before[("freqshare.market", "clear_market")]
        assert freqshare.scenario.clear_market is freqshare.market.clear_market
        tracer.begin_job(0)
        workload.run(path)
        duration = tracer.end_job()
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    tracer.settle_job(count=True)
    counts = tracer.counts
    # run, sweep and split clear through scenario's binding, clear through cli's.
    assert counts["market.clear_market.calls"] > 100
    assert counts["cli.main.calls"] == 4
    assert counts["yaml.safe_load.calls"] == 5
    assert sum(tracer.self_s.values()) == pytest.approx(duration, rel=1e-9)


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    monkeypatch.delattr(freqshare.market, "clear_market")
    tracer = Tracer()
    assert tracer.absent == ["market.clear_market"]
    assert "market.clear_market" not in tracer.names
    assert set(tracer.names[1:]) == set(TARGETS) - {"market.clear_market"}
