"""Scenario files and the three-step allocation pipeline.

A scenario is one YAML document holding the snapshots, the unit fleet,
per-snapshot bid stacks and the run defaults. Field names carry their
units (``capacity_gw``, ``inertia_gws``); nothing is converted
implicitly.

For every snapshot and service side the pipeline builds one cost curve
from the bid stack, clears the real requirement on it (step 1), prices
each unit's own contingency on the same curve (step 2) and applies the
cost-sharing rule with existing-unit filtering (step 3). There is no clock and no randomness anywhere, so identical
scenario files yield byte-identical reports.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .allocation import (
    AIRPORT_SHAPLEY,
    ALLOCATION_RULES,
    ZERO_SHARE_RATE,
    AllocationResult,
    allocate,
    cutoff_size,
    filter_existing,
)
from .dynamics import GENERATION, Contingency, SystemSnapshot, required_reserve
from .errors import ScarcityError, ValidationError
from .market import (
    PAY_AS_CLEAR,
    PRICING_RULES,
    SERVICE_FOR_UNIT_SIDE,
    SERVICE_SIDES,
    ClearingResult,
    CostCurve,
    ReserveBid,
    Unit,
    _cascade_costs,
)

HOURS_PER_YEAR = 8760.0

_LABEL_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

_SNAPSHOT_KEYS = {
    "label", "inertia_gws", "f_nominal_hz", "f_min_hz",
    "rocof_limit_hz_per_s", "delivery_time_s", "weight_hours",
}
_UNIT_KEYS = {"id", "capacity_gw", "side", "technology", "existing"}
_BID_KEYS = {"provider_id", "side", "price_per_mw_h", "quantity_gw"}
_SCENARIO_KEYS = {
    "name", "allocation_rule", "pricing_rule", "snapshots", "fleet",
    "bid_stacks", "sweep_capacities_gw",
}


@dataclass(frozen=True)
class Scenario:
    snapshots: tuple[SystemSnapshot, ...]
    fleet: tuple[Unit, ...]
    bid_stacks: dict[str, tuple[ReserveBid, ...]]
    allocation_rule: str = AIRPORT_SHAPLEY
    pricing_rule: str = PAY_AS_CLEAR
    sweep_capacities_gw: tuple[float, ...] = ()
    name: str = "scenario"


@dataclass(frozen=True)
class SideResult:
    """Steps 1-3 for one snapshot and one service side."""

    snapshot_label: str
    service_side: str
    requirement_gw: float
    clearing: ClearingResult
    cascade: tuple[tuple[str, float], ...]
    allocation: AllocationResult  # existing units filtered, cutoff filled


@dataclass(frozen=True)
class RunReport:
    scenario_name: str
    rule: str
    pricing: str
    fleet: tuple[Unit, ...]
    sides: tuple[SideResult, ...]
    annual_costs: tuple[tuple[str, float], ...]  # unit id -> currency/yr


@dataclass(frozen=True)
class SweepResult:
    side: str
    points: tuple[tuple[float, str, float], ...]      # capacity, label, allocated rate
    scarcities: tuple[tuple[float, str, float], ...]  # capacity, label, shortfall
    cutoffs: tuple[tuple[str, float], ...]            # label -> cut-off capacity


# ---------------------------------------------------------------------------
# parsing / serialization


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected a mapping")
    return obj


def _check_keys(record: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(record) - allowed)
    if unknown:
        raise ValidationError(f"{where}: unknown field(s) {unknown}")


def scenario_from_dict(doc: dict) -> Scenario:
    """Build and validate a scenario from plain mappings/lists."""
    _require_mapping(doc, "scenario")
    _check_keys(doc, _SCENARIO_KEYS, "scenario")

    snapshots = []
    raw_snapshots = doc.get("snapshots") or []
    if not isinstance(raw_snapshots, list) or not raw_snapshots:
        raise ValidationError("snapshots: must list at least one snapshot")
    for i, rec in enumerate(raw_snapshots):
        where = f"snapshots[{i}]"
        rec = _require_mapping(rec, where)
        _check_keys(rec, _SNAPSHOT_KEYS, where)
        try:
            snapshots.append(SystemSnapshot(
                inertia_gws=float(rec["inertia_gws"]),
                label=str(rec.get("label", f"snapshot-{i}")),
                f_nominal_hz=float(rec.get("f_nominal_hz", 50.0)),
                f_min_hz=float(rec.get("f_min_hz", 49.2)),
                rocof_limit_hz_per_s=(
                    None if rec.get("rocof_limit_hz_per_s") is None
                    else float(rec["rocof_limit_hz_per_s"])
                ),
                delivery_time_s=float(rec.get("delivery_time_s", 10.0)),
                weight_hours=float(rec.get("weight_hours", 0.0)),
            ))
        except KeyError as exc:
            raise ValidationError(f"{where}: missing field {exc.args[0]}") from exc
        except ValidationError as exc:
            raise ValidationError(f"{where}.{exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: {exc}") from exc

    fleet = []
    raw_fleet = doc.get("fleet") or []
    if not isinstance(raw_fleet, list) or not raw_fleet:
        raise ValidationError("fleet: must list at least one unit")
    for i, rec in enumerate(raw_fleet):
        where = f"fleet[{i}]"
        rec = _require_mapping(rec, where)
        _check_keys(rec, _UNIT_KEYS, where)
        try:
            fleet.append(Unit(
                id=str(rec["id"]),
                capacity_gw=float(rec["capacity_gw"]),
                side=str(rec.get("side", GENERATION)),
                technology=str(rec.get("technology", "")),
                existing=rec.get("existing", False),
            ))
        except KeyError as exc:
            raise ValidationError(f"{where}: missing field {exc.args[0]}") from exc
        except ValidationError as exc:
            raise ValidationError(f"{where}.{exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: {exc}") from exc

    bid_stacks: dict[str, tuple[ReserveBid, ...]] = {}
    raw_stacks = _require_mapping(doc.get("bid_stacks") or {}, "bid_stacks")
    for label, raw_bids in raw_stacks.items():
        if not isinstance(raw_bids, list):
            raise ValidationError(f"bid_stacks[{label}]: expected a list of bids")
        bids = []
        for i, rec in enumerate(raw_bids):
            where = f"bid_stacks[{label}][{i}]"
            rec = _require_mapping(rec, where)
            _check_keys(rec, _BID_KEYS, where)
            try:
                bids.append(ReserveBid(
                    provider_id=str(rec["provider_id"]),
                    price_per_mw_h=float(rec["price_per_mw_h"]),
                    quantity_gw=float(rec["quantity_gw"]),
                    side=str(rec.get("side", "under-frequency")),
                ))
            except KeyError as exc:
                raise ValidationError(f"{where}: missing field {exc.args[0]}") from exc
            except ValidationError as exc:
                raise ValidationError(f"{where}.{exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{where}: {exc}") from exc
        bid_stacks[str(label)] = tuple(bids)

    sweep = tuple(float(c) for c in doc.get("sweep_capacities_gw") or ())

    scenario = Scenario(
        snapshots=tuple(snapshots),
        fleet=tuple(fleet),
        bid_stacks=bid_stacks,
        allocation_rule=str(doc.get("allocation_rule", AIRPORT_SHAPLEY)),
        pricing_rule=str(doc.get("pricing_rule", PAY_AS_CLEAR)),
        sweep_capacities_gw=sweep,
        name=str(doc.get("name", "scenario")),
    )
    validate_scenario(scenario)
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical plain-data form; inverse of :func:`scenario_from_dict`."""
    return {
        "name": scenario.name,
        "allocation_rule": scenario.allocation_rule,
        "pricing_rule": scenario.pricing_rule,
        "snapshots": [
            {
                "label": s.label,
                "inertia_gws": s.inertia_gws,
                "f_nominal_hz": s.f_nominal_hz,
                "f_min_hz": s.f_min_hz,
                "rocof_limit_hz_per_s": s.rocof_limit_hz_per_s,
                "delivery_time_s": s.delivery_time_s,
                "weight_hours": s.weight_hours,
            }
            for s in scenario.snapshots
        ],
        "fleet": [
            {
                "id": u.id,
                "capacity_gw": u.capacity_gw,
                "side": u.side,
                "technology": u.technology,
                "existing": u.existing,
            }
            for u in scenario.fleet
        ],
        "bid_stacks": {
            label: [
                {
                    "provider_id": b.provider_id,
                    "side": b.side,
                    "price_per_mw_h": b.price_per_mw_h,
                    "quantity_gw": b.quantity_gw,
                }
                for b in bids
            ]
            for label, bids in scenario.bid_stacks.items()
        },
        "sweep_capacities_gw": list(scenario.sweep_capacities_gw),
    }


def dump_scenario(scenario: Scenario) -> str:
    return yaml.safe_dump(scenario_to_dict(scenario), sort_keys=False)


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ValidationError(f"scenario file {path}: invalid YAML ({exc})") from exc
    return scenario_from_dict(doc or {})


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_scenario(scenario))


def validate_scenario(scenario: Scenario) -> None:
    """Cross-record checks beyond per-field invariants."""
    labels = [s.label for s in scenario.snapshots]
    if len(set(labels)) != len(labels):
        raise ValidationError("snapshots: labels must be unique")
    for i, label in enumerate(labels):
        if not _LABEL_RE.match(label):
            raise ValidationError(
                f"snapshots[{i}].label: '{label}' must match {_LABEL_RE.pattern} "
                f"(labels become file names)"
            )
    ids = [u.id for u in scenario.fleet]
    if len(set(ids)) != len(ids):
        raise ValidationError("fleet: unit ids must be unique")

    if scenario.allocation_rule not in ALLOCATION_RULES:
        raise ValidationError(f"allocation_rule: must be one of {ALLOCATION_RULES}")
    if scenario.pricing_rule not in PRICING_RULES:
        raise ValidationError(f"pricing_rule: must be one of {PRICING_RULES}")

    total_hours = math.fsum(s.weight_hours for s in scenario.snapshots)
    if total_hours > HOURS_PER_YEAR + 1e-9:
        raise ValidationError(
            f"snapshots: weight_hours sum to {total_hours:.9g}, more than "
            f"{HOURS_PER_YEAR:.9g} hours in a year"
        )

    needed_sides = {
        SERVICE_FOR_UNIT_SIDE[u.side]
        for u in scenario.fleet
        if u.capacity_gw > 0
    }
    for snapshot in scenario.snapshots:
        if snapshot.label not in scenario.bid_stacks:
            raise ValidationError(f"bid_stacks: missing stack for snapshot '{snapshot.label}'")
        stack = scenario.bid_stacks[snapshot.label]
        for side in sorted(needed_sides):
            if not any(b.side == side for b in stack):
                raise ValidationError(
                    f"bid_stacks[{snapshot.label}]: no {side} bids although the fleet "
                    f"has units on that side"
                )
        seen = set()
        for b in stack:
            key = (b.side, b.provider_id)
            if key in seen:
                raise ValidationError(
                    f"bid_stacks[{snapshot.label}]: duplicate provider_id "
                    f"'{b.provider_id}' on side {b.side}"
                )
            seen.add(key)

    grid = scenario.sweep_capacities_gw
    for i, cap in enumerate(grid):
        if not cap > 0:
            raise ValidationError(f"sweep_capacities_gw[{i}]: must be > 0")
        if i > 0 and cap <= grid[i - 1]:
            raise ValidationError("sweep_capacities_gw: must be strictly ascending")


# ---------------------------------------------------------------------------
# pipeline


def _side_result(
    snapshot: SystemSnapshot,
    side_units: list[Unit],
    curve: CostCurve,
    service_side: str,
    rule: str,
) -> SideResult:
    largest = max(side_units, key=lambda u: (u.capacity_gw, u.id))
    requirement = required_reserve(snapshot, Contingency(largest.capacity_gw, largest.side))
    try:
        clearing = curve.clear(requirement)
    except ScarcityError as exc:
        raise ScarcityError(exc.requirement_gw, exc.offered_gw, unit_id=largest.id) from exc
    cascade = _cascade_costs(snapshot, side_units, {service_side: curve})
    alloc = allocate(cascade, rule)
    alloc = replace(alloc, cutoff_gw=cutoff_size(alloc, side_units))
    alloc = filter_existing(side_units, alloc)
    return SideResult(
        snapshot_label=snapshot.label,
        service_side=service_side,
        requirement_gw=requirement,
        clearing=clearing,
        cascade=tuple(cascade),
        allocation=alloc,
    )


def allocate_snapshot(
    scenario: Scenario,
    snapshot: SystemSnapshot,
    rule: str | None = None,
    pricing: str | None = None,
) -> list[SideResult]:
    """Run steps 1-3 for one snapshot, one result per populated side."""
    rule = rule or scenario.allocation_rule
    pricing = pricing or scenario.pricing_rule
    stack = list(scenario.bid_stacks[snapshot.label])
    results = []
    for service_side in SERVICE_SIDES:
        side_units = [
            u for u in scenario.fleet if SERVICE_FOR_UNIT_SIDE[u.side] == service_side
        ]
        if not side_units:
            continue
        curve = CostCurve([b for b in stack if b.side == service_side], pricing)
        results.append(_side_result(snapshot, side_units, curve, service_side, rule))
    return results


def run_pipeline(
    scenario: Scenario,
    rule: str | None = None,
    pricing: str | None = None,
) -> RunReport:
    """Full report over all snapshots plus per-unit annualized costs."""
    validate_scenario(scenario)
    rule = rule or scenario.allocation_rule
    pricing = pricing or scenario.pricing_rule

    sides: list[SideResult] = []
    for snapshot in scenario.snapshots:
        sides.extend(allocate_snapshot(scenario, snapshot, rule, pricing))

    weights = {s.label: s.weight_hours for s in scenario.snapshots}
    annual: dict[str, float] = {u.id: 0.0 for u in scenario.fleet}
    for result in sides:
        w = weights[result.snapshot_label]
        for uid, share in result.allocation.shares:
            annual[uid] += w * share

    return RunReport(
        scenario_name=scenario.name,
        rule=rule,
        pricing=pricing,
        fleet=scenario.fleet,
        sides=tuple(sides),
        annual_costs=tuple((u.id, annual[u.id]) for u in scenario.fleet),
    )


def _probe_id(fleet: tuple[Unit, ...]) -> str:
    taken = {u.id for u in fleet}
    pid = "probe"
    k = 1
    while pid in taken:
        k += 1
        pid = f"probe-{k}"
    return pid


def sweep_allocation_curve(
    scenario: Scenario,
    capacity_grid: list[float] | None = None,
    side: str = GENERATION,
    rule: str | None = None,
    pricing: str | None = None,
) -> SweepResult:
    """Allocated cost of a marginal probe unit across a capacity grid.

    For each grid capacity a probe unit is added to the fleet and the
    pipeline re-run per snapshot; the probe's allocated cost traces the
    cost-versus-size curve an investor would face. Grid points whose
    requirement outgrows the bid stack are reported as scarcities and
    the sweep continues. The per-snapshot cut-off is the largest grid
    capacity that pays nothing.
    """
    validate_scenario(scenario)
    grid = tuple(float(c) for c in (capacity_grid if capacity_grid is not None
                                    else scenario.sweep_capacities_gw))
    if not grid:
        raise ValidationError("sweep_capacities_gw: no capacity grid given")
    for i, cap in enumerate(grid):
        if not cap > 0:
            raise ValidationError(f"sweep_capacities_gw[{i}]: must be > 0")
        if i > 0 and cap <= grid[i - 1]:
            raise ValidationError("sweep_capacities_gw: must be strictly ascending")

    rule = rule or scenario.allocation_rule
    pricing = pricing or scenario.pricing_rule
    service_side = SERVICE_FOR_UNIT_SIDE[side]
    pid = _probe_id(scenario.fleet)

    fleet_units = [u for u in scenario.fleet if SERVICE_FOR_UNIT_SIDE[u.side] == service_side]
    curves = {
        snapshot.label: CostCurve(
            [b for b in scenario.bid_stacks[snapshot.label] if b.side == service_side], pricing
        )
        for snapshot in scenario.snapshots
    }

    points: list[tuple[float, str, float]] = []
    scarcities: list[tuple[float, str, float]] = []
    zero_caps: dict[str, float] = {}
    for cap in grid:
        probe = Unit(id=pid, capacity_gw=cap, side=side, technology="probe")
        side_units = fleet_units + [probe]
        for snapshot in scenario.snapshots:
            try:
                result = _side_result(
                    snapshot, side_units, curves[snapshot.label], service_side, rule
                )
            except ScarcityError as exc:
                scarcities.append((cap, snapshot.label, exc.shortfall_gw))
                continue
            share = dict(result.allocation.shares)[pid]
            points.append((cap, snapshot.label, share))
            if share < ZERO_SHARE_RATE:
                zero_caps[snapshot.label] = max(zero_caps.get(snapshot.label, 0.0), cap)

    cutoffs = tuple(
        (snapshot.label, zero_caps.get(snapshot.label, 0.0))
        for snapshot in scenario.snapshots
    )
    return SweepResult(side, tuple(points), tuple(scarcities), cutoffs)


# ---------------------------------------------------------------------------
# CSV emission (all floats carry 9 significant digits)


def _open_csv(path: Path):
    return open(path, "w", newline="")


def write_run_report(report: RunReport, out_dir) -> list[Path]:
    """Write clearing, allocation, annual-cost and summary CSVs.

    File contents are a pure function of the report, so repeated runs
    on the same scenario produce byte-identical directories.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    for side in report.sides:
        tag = f"{side.snapshot_label}_{side.service_side}"
        clearing_path = out / f"clearing_{tag}.csv"
        with _open_csv(clearing_path) as fh:
            fh.write("bid_id,accepted_gw,price,payment_rate\n")
            for bid, accepted in side.clearing.cleared:
                payment = side.clearing.payment_rate(bid, accepted)
                fh.write(
                    f"{bid.provider_id},{accepted:.9g},"
                    f"{bid.price_per_mw_h:.9g},{payment:.9g}\n"
                )
        written.append(clearing_path)

        alloc_path = out / f"allocation_{tag}.csv"
        standalone = dict(side.cascade)
        units = {u.id: u for u in report.fleet}
        with _open_csv(alloc_path) as fh:
            fh.write("unit_id,capacity_gw,side,standalone_cost_rate,allocated_cost_rate,rule\n")
            for uid, share in side.allocation.shares:
                unit = units[uid]
                fh.write(
                    f"{uid},{unit.capacity_gw:.9g},{unit.side},"
                    f"{standalone[uid]:.9g},{share:.9g},{side.allocation.rule}\n"
                )
        written.append(alloc_path)

    annual_path = out / "annual_costs.csv"
    with _open_csv(annual_path) as fh:
        fh.write("unit_id,annual_cost\n")
        for uid, cost in report.annual_costs:
            fh.write(f"{uid},{cost:.9g}\n")
    written.append(annual_path)

    summary_path = out / "summary.csv"
    with _open_csv(summary_path) as fh:
        fh.write(
            "snapshot_label,side,requirement_gw,marginal_price,"
            "total_cost_rate,residual,cutoff_gw\n"
        )
        for side in report.sides:
            fh.write(
                f"{side.snapshot_label},{side.service_side},"
                f"{side.requirement_gw:.9g},{side.clearing.marginal_price:.9g},"
                f"{side.clearing.total_cost_rate:.9g},"
                f"{side.allocation.residual:.9g},{side.allocation.cutoff_gw:.9g}\n"
            )
    written.append(summary_path)
    return written


def write_sweep_result(result: SweepResult, out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sweep_path = out / "sweep.csv"
    with _open_csv(sweep_path) as fh:
        fh.write("capacity_gw,snapshot_label,allocated_cost_rate\n")
        for cap, label, rate in result.points:
            fh.write(f"{cap:.9g},{label},{rate:.9g}\n")
    summary_path = out / "sweep_summary.csv"
    with _open_csv(summary_path) as fh:
        fh.write("snapshot_label,cutoff_gw\n")
        for label, cutoff in result.cutoffs:
            fh.write(f"{label},{cutoff:.9g}\n")
    scarcity_path = out / "sweep_scarcity.csv"
    with _open_csv(scarcity_path) as fh:
        fh.write("capacity_gw,snapshot_label,shortfall_gw\n")
        for cap, label, shortfall in result.scarcities:
            fh.write(f"{cap:.9g},{label},{shortfall:.9g}\n")
    return [sweep_path, summary_path, scarcity_path]
