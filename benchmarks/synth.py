"""Seeded synthetic scenarios for the benchmark.

A scenario is drawn from a string key such as ``"synth-run-s7-j12"``
(workload, seed, job index), so every job gets inputs no earlier job
saw and the same key always gives the same document. The draw uses
only :class:`random.Random`, whose string seeding does not depend on
``PYTHONHASHSEED``.

What the draw guarantees, so that no benchmark operation fails:

* about 80 % generation and 20 % demand units, about 20 % of them
  flagged ``existing``; half the capacities come from a coarse 0.1 GW
  grid, so equal capacities occur;
* per snapshot and service side, one zero-price headroom tranche plus
  ``m - 1`` bids at integer prices (ties at almost every price);
* every stack offers at least 1.3 times the requirement of the largest
  unit it serves in its snapshot, and 0.5 GW beyond its headroom, so a
  plain run never runs short;
* the sweep grid runs from a quarter of the free-headroom cut-off to
  1.15 times the probe size whose requirement exhausts the low-inertia
  under-frequency stack, so its top points are expected scarcities.

The YAML text is written by hand, one flow mapping per record, with
floats as ``repr`` gives them; :func:`scenario_yaml` of a document
loads back to the same scenario as the document itself.
"""

from __future__ import annotations

import math
import random

from checks import nadir_coefficient, requirement_gw

F_NOMINAL_HZ = 50.0
F_MIN_HZ = 49.2
DELIVERY_TIME_S = 10.0
HOURS_PER_YEAR = 8760

_STACK_MARGIN = 1.3
_SWEEP_OVERSHOOT = 1.15
_MAX_PRICE = 30


def _capacity(rng: random.Random, lo: float, hi: float) -> float:
    if rng.random() < 0.5:
        return round(rng.randint(round(lo * 10), round(hi * 10)) / 10, 1)
    return round(rng.uniform(lo, hi), 3)


def _stack(rng: random.Random, side: str, tag: str, m: int, offered_gw: float,
           headroom_gw: float) -> list[dict]:
    bids = [{"provider_id": f"{tag}-free", "side": side,
             "price_per_mw_h": 0.0, "quantity_gw": headroom_gw}]
    mean_q = (offered_gw - headroom_gw) / (m - 1)
    for j in range(1, m):
        bids.append({
            "provider_id": f"{tag}-{j:04d}",
            "side": side,
            "price_per_mw_h": float(rng.randint(1, _MAX_PRICE)),
            "quantity_gw": round(mean_q * rng.uniform(1.0, 1.5), 4),
        })
    return bids


def synth_doc(key: str, n: int, m: int, *, pricing_rule: str, sweep_points: int) -> dict:
    """Scenario document for ``key`` with ``n`` units, ``m`` bids per
    snapshot and side, two snapshots and ``sweep_points`` grid points."""
    if n < 5 or m < 2:
        raise ValueError("synth_doc: needs n >= 5 and m >= 2")
    rng = random.Random(key)

    fleet = []
    for i in range(n):
        # The first unit of each side guarantees both sides are populated.
        generation = i == 0 or (i != 1 and rng.random() < 0.8)
        fleet.append({
            "id": f"u{i:04d}",
            "capacity_gw": _capacity(rng, 0.1, 1.8) if generation else _capacity(rng, 0.1, 1.2),
            "side": "generation" if generation else "demand",
            "technology": "synthetic",
            "existing": rng.random() < 0.2,
        })
    largest = {
        side: max(u["capacity_gw"] for u in fleet if u["side"] == side)
        for side in ("generation", "demand")
    }

    w_low = rng.randint(1500, 4000)
    inertia_low = round(rng.uniform(90.0, 130.0), 1)
    snapshots = [
        {"label": "low-inertia", "inertia_gws": inertia_low, "weight_hours": float(w_low)},
        {"label": "high-inertia", "inertia_gws": round(2 * inertia_low, 1),
         "weight_hours": float(HOURS_PER_YEAR - w_low - rng.randint(0, 500))},
    ]
    for s in snapshots:
        s.update({"f_nominal_hz": F_NOMINAL_HZ, "f_min_hz": F_MIN_HZ,
                  "rocof_limit_hz_per_s": None, "delivery_time_s": DELIVERY_TIME_S})

    stacks = {}
    headroom_low = None
    for s in snapshots:
        bids = []
        for side, service, tag in (("generation", "under-frequency", "uf"),
                                   ("demand", "over-frequency", "of")):
            need = requirement_gw(largest[side], s)
            headroom = round(rng.uniform(0.3, 0.8), 2)
            offered = round(max(need * rng.uniform(_STACK_MARGIN, 1.6), headroom + 0.5), 3)
            if s["label"] == "low-inertia" and service == "under-frequency":
                headroom_low = headroom
            bids.extend(_stack(rng, service, tag, m, offered, headroom))
        stacks[s["label"]] = bids

    doc = {
        "name": key,
        "allocation_rule": "airport-shapley",
        "pricing_rule": pricing_rule,
        "snapshots": snapshots,
        "fleet": fleet,
        "bid_stacks": stacks,
        "sweep_capacities_gw": [],
    }
    if sweep_points:
        doc["sweep_capacities_gw"] = _sweep_grid(doc, headroom_low, sweep_points)
    return doc


def _sweep_grid(doc: dict, headroom_gw: float, points: int) -> list[float]:
    offered = math.fsum(b["quantity_gw"] for b in doc["bid_stacks"]["low-inertia"]
                        if b["side"] == "under-frequency")
    k = nadir_coefficient(doc["snapshots"][0])
    cutoff = min(headroom_gw, math.sqrt(headroom_gw / k))
    lo = round(cutoff / 4, 4)
    hi = math.sqrt(offered / k) * _SWEEP_OVERSHOOT
    step = (hi - lo) / (points - 1)
    return [round(lo + i * step, 4) for i in range(points)]


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _flow(record: dict) -> str:
    return "{" + ", ".join(f"{k}: {_scalar(v)}" for k, v in record.items()) + "}"


def scenario_yaml(doc: dict) -> str:
    """YAML text of a generated document, byte-stable for a given doc."""
    lines = [f"name: {doc['name']}",
             f"allocation_rule: {doc['allocation_rule']}",
             f"pricing_rule: {doc['pricing_rule']}",
             "snapshots:"]
    lines += [f"  - {_flow(s)}" for s in doc["snapshots"]]
    lines.append("fleet:")
    lines += [f"  - {_flow(u)}" for u in doc["fleet"]]
    lines.append("bid_stacks:")
    for label, bids in doc["bid_stacks"].items():
        lines.append(f"  {label}:")
        lines += [f"    - {_flow(b)}" for b in bids]
    grid = ", ".join(repr(c) for c in doc["sweep_capacities_gw"])
    lines.append(f"sweep_capacities_gw: [{grid}]")
    return "\n".join(lines) + "\n"
