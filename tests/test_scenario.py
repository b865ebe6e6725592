import math
from dataclasses import replace

import pytest
import yaml

from freqshare import (
    ScarcityError,
    Unit,
    ValidationError,
    dump_scenario,
    run_pipeline,
    scenario_from_dict,
    scenario_to_dict,
    sweep_allocation_curve,
    write_run_report,
)


def minimal_doc():
    return {
        "name": "mini",
        "snapshots": [
            {"label": "only", "inertia_gws": 100.0, "delivery_time_s": 10.0,
             "weight_hours": 100.0},
        ],
        "fleet": [
            {"id": "gen", "capacity_gw": 1.8, "side": "generation"},
        ],
        "bid_stacks": {
            "only": [
                {"provider_id": "free", "side": "under-frequency",
                 "price_per_mw_h": 0.0, "quantity_gw": 0.5},
                {"provider_id": "deep", "side": "under-frequency",
                 "price_per_mw_h": 10.0, "quantity_gw": 9.0},
            ],
        },
    }


# --- parsing and validation ---------------------------------------------------


def test_bundled_scenario_loads(gb_scenario):
    assert [s.label for s in gb_scenario.snapshots] == ["low-inertia", "high-inertia"]
    assert len(gb_scenario.fleet) == 4
    assert gb_scenario.sweep_capacities_gw[0] == 0.1


def test_empty_fleet_names_the_field():
    doc = minimal_doc()
    doc["fleet"] = []
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "fleet" in str(err.value)


def test_bad_field_names_record_index():
    doc = minimal_doc()
    doc["fleet"][0]["capacity_gw"] = -1.0
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "fleet[0]" in str(err.value)
    assert "capacity_gw" in str(err.value)


@pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
def test_existing_flag_must_be_a_boolean(value):
    doc = minimal_doc()
    doc["fleet"][0]["existing"] = value
    with pytest.raises(ValidationError, match=r"fleet\[0\]\.existing: must be a boolean"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("where, field", [
    (("fleet", 0), "capacity_gw"),
    (("bid_stacks", "only", 0), "price_per_mw_h"),
    (("bid_stacks", "only", 1), "quantity_gw"),
])
@pytest.mark.parametrize("text", [".nan", ".inf", "-.inf"])
def test_non_finite_yaml_numbers_name_the_field(where, field, text):
    doc = minimal_doc()
    record = doc
    for key in where:
        record = record[key]
    record[field] = yaml.safe_load(text)
    with pytest.raises(ValidationError, match=f"{field}: must be finite"):
        scenario_from_dict(doc)


def test_unknown_keys_rejected():
    doc = minimal_doc()
    doc["snapshots"][0]["inertia"] = 100.0
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "snapshots[0]" in str(err.value)


def test_missing_bid_side_for_demand_units():
    doc = minimal_doc()
    doc["fleet"].append({"id": "load", "capacity_gw": 0.9, "side": "demand"})
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "over-frequency" in str(err.value)


def test_duplicate_unit_ids_rejected():
    doc = minimal_doc()
    doc["fleet"].append({"id": "gen", "capacity_gw": 0.2})
    with pytest.raises(ValidationError):
        scenario_from_dict(doc)


def test_duplicate_providers_rejected():
    doc = minimal_doc()
    doc["bid_stacks"]["only"].append(
        {"provider_id": "free", "side": "under-frequency",
         "price_per_mw_h": 1.0, "quantity_gw": 1.0})
    with pytest.raises(ValidationError):
        scenario_from_dict(doc)


def test_weight_hours_cannot_exceed_a_year():
    doc = minimal_doc()
    doc["snapshots"][0]["weight_hours"] = 9000.0
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "8760" in str(err.value)


def test_sweep_grid_must_be_positive_ascending():
    doc = minimal_doc()
    doc["sweep_capacities_gw"] = [0.5, 0.4]
    with pytest.raises(ValidationError):
        scenario_from_dict(doc)
    doc["sweep_capacities_gw"] = [0.0, 0.4]
    with pytest.raises(ValidationError):
        scenario_from_dict(doc)


def test_round_trip_is_idempotent(gb_scenario):
    text = dump_scenario(gb_scenario)
    reparsed = scenario_from_dict(yaml.safe_load(text))
    assert dump_scenario(reparsed) == text
    assert scenario_to_dict(reparsed) == scenario_to_dict(gb_scenario)


# --- run_pipeline -------------------------------------------------------------


def test_single_unit_bears_the_whole_market_cost():
    report = run_pipeline(scenario_from_dict(minimal_doc()))
    (side,) = report.sides
    (share,) = [s for _, s in side.allocation.shares]
    assert share == pytest.approx(side.clearing.total_cost_rate, rel=1e-12)


def test_report_efficiency_per_side(gb_scenario):
    report = run_pipeline(gb_scenario)
    for side in report.sides:
        paid = math.fsum(s for _, s in side.allocation.shares)
        assert paid + side.allocation.residual == pytest.approx(
            side.clearing.total_cost_rate, abs=1e-9
        )


def test_cascade_maximum_is_the_real_market_cost(gb_scenario):
    report = run_pipeline(gb_scenario)
    for side in report.sides:
        assert max(c for _, c in side.cascade) == pytest.approx(
            side.clearing.total_cost_rate, rel=1e-12
        )


def test_low_inertia_allocations_dominate_high_inertia(gb_scenario):
    report = run_pipeline(gb_scenario)
    by_key = {
        (s.snapshot_label, s.service_side): dict(s.allocation.shares)
        for s in report.sides
    }
    for side in ("under-frequency", "over-frequency"):
        low = by_key[("low-inertia", side)]
        high = by_key[("high-inertia", side)]
        assert all(low[uid] >= high[uid] for uid in low)


def test_bundled_scenario_reference_numbers(gb_scenario):
    # hand-composed oracle values: requirement f0*dp^2*td/(4*e*0.8)
    # cleared against the stack (0.5@0, 1@4, 1.5@7, 3@11, 4@18)
    report = run_pipeline(gb_scenario)
    side = report.sides[0]
    assert side.snapshot_label == "low-inertia"
    assert side.requirement_gw == pytest.approx(5.0625, abs=1e-12)
    assert side.clearing.marginal_price == 11.0
    assert side.clearing.total_cost_rate == pytest.approx(55687.5, rel=1e-12)
    shares = dict(side.allocation.shares)
    assert shares["nuclear-1"] == pytest.approx(47812.5, rel=1e-12)
    assert shares["offshore-1"] == pytest.approx(7875.0, rel=1e-12)
    assert shares["ccgt-1"] == 0.0
    annual = dict(report.annual_costs)
    assert annual["nuclear-1"] == pytest.approx(
        2000.0 * 47812.5 + 6760.0 * 15318.75, rel=1e-12
    )
    assert annual["smelter-1"] == pytest.approx(
        2000.0 * 4687.5 + 6760.0 * 3000.0, rel=1e-12
    )


def test_zero_capacity_units_admitted_and_never_charged(gb_scenario):
    fleet = gb_scenario.fleet + (Unit("mothballed", 0.0),)
    report = run_pipeline(replace(gb_scenario, fleet=fleet))
    for side in report.sides:
        if side.service_side == "under-frequency":
            assert dict(side.allocation.shares)["mothballed"] == 0.0
    assert dict(report.annual_costs)["mothballed"] == 0.0


def test_existing_units_socialised_in_report(gb_scenario):
    # flag the offshore farm as pre-reform: its share moves to the residual
    fleet = tuple(
        replace(u, existing=True) if u.id == "offshore-1" else u
        for u in gb_scenario.fleet
    )
    report = run_pipeline(replace(gb_scenario, fleet=fleet))
    side = report.sides[0]
    shares = dict(side.allocation.shares)
    assert shares["offshore-1"] == 0.0
    assert side.allocation.residual == pytest.approx(7875.0, rel=1e-12)
    # the cut-off reflects pure size effects, not the exemption: the
    # 1.2 GW pre-reform unit does not widen it
    assert side.allocation.cutoff_gw == 0.4
    paid = math.fsum(s for _, s in side.allocation.shares)
    assert paid + side.allocation.residual == pytest.approx(
        side.clearing.total_cost_rate, abs=1e-9
    )


def test_run_report_is_deterministic(gb_scenario, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    write_run_report(run_pipeline(gb_scenario), d1)
    write_run_report(run_pipeline(gb_scenario), d2)
    files1 = sorted(p.name for p in d1.iterdir())
    files2 = sorted(p.name for p in d2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_pipeline_scarcity_carries_unit_tag():
    doc = minimal_doc()
    doc["fleet"][0]["capacity_gw"] = 2.6  # needs 10.5625 GW, stack holds 9.5
    with pytest.raises(ScarcityError) as err:
        run_pipeline(scenario_from_dict(doc))
    assert err.value.unit_id == "gen"


# --- sweep --------------------------------------------------------------------


def test_probe_below_cutoff_pays_nothing(gb_scenario):
    sweep = sweep_allocation_curve(gb_scenario, capacity_grid=[0.2, 0.45, 0.5])
    assert all(rate == 0.0 for _, _, rate in sweep.points)
    assert dict(sweep.cutoffs) == {"low-inertia": 0.5, "high-inertia": 0.5}


def test_sweep_curves_nondecreasing_in_capacity(gb_scenario):
    sweep = sweep_allocation_curve(gb_scenario)
    for label in ("low-inertia", "high-inertia"):
        rates = [rate for cap, lbl, rate in sweep.points if lbl == label]
        assert rates == sorted(rates)


def test_sweep_scarcity_reported_and_continues(gb_scenario):
    sweep = sweep_allocation_curve(gb_scenario)
    assert sweep.scarcities == ((2.6, "low-inertia", pytest.approx(0.5625)),)
    # the same 2.6 GW probe still yields a high-inertia point
    assert any(cap == 2.6 and lbl == "high-inertia" for cap, lbl, _ in sweep.points)


def test_single_point_sweep_matches_pipeline_with_probe(gb_scenario):
    cap = 1.3
    sweep = sweep_allocation_curve(gb_scenario, capacity_grid=[cap])
    with_probe = replace(
        gb_scenario,
        fleet=gb_scenario.fleet + (Unit("probe", cap),),
    )
    report = run_pipeline(with_probe)
    for side in report.sides:
        if side.service_side != "under-frequency":
            continue
        expected = dict(side.allocation.shares)["probe"]
        got = next(rate for c, lbl, rate in sweep.points
                   if lbl == side.snapshot_label)
        assert got == pytest.approx(expected, rel=1e-12)


def test_sweep_needs_a_grid(gb_scenario):
    bare = replace(gb_scenario, sweep_capacities_gw=())
    with pytest.raises(ValidationError):
        sweep_allocation_curve(bare)


def test_demand_side_sweep(gb_scenario):
    sweep = sweep_allocation_curve(gb_scenario, capacity_grid=[0.2, 1.4], side="demand")
    rates = {(lbl, cap): rate for cap, lbl, rate in sweep.points}
    assert rates[("low-inertia", 0.2)] == 0.0
    # 1.4 GW load needs 3.0625 GW of over-frequency reserve in the low
    # snapshot; the probe leads the smelter in the cascade
    assert rates[("low-inertia", 1.4)] > rates[("high-inertia", 1.4)] > 0.0
