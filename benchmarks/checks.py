"""Output checks that hold whatever algorithm the library uses.

Every check reads either a result object's plain fields or the CSV
files a job emitted, and compares them with a property of the problem:
efficiency of the cost split, the airport-game total, the closed-form
reserve requirement and nadir, and committed digests of the emitted
bytes. None of them calls back into freqshare.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

#: Relative tolerance for sums computed in memory.
REL = 1e-9
#: Relative error of a value printed with 9 significant digits (half a
#: unit in the last digit), plus a little margin.
CSV_REL = 6e-9
#: Points this close (relative) to the free-headroom or stack boundary
#: may fall either way and are not judged.
BOUNDARY_REL = 1e-6


class CheckError(AssertionError):
    """A job's output violates a property it must have."""


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def nadir_coefficient(snapshot: dict) -> float:
    """k in the closed-form requirement max(dp, k dp^2): f0 Td / (4 E df_max)."""
    return snapshot["f_nominal_hz"] * snapshot["delivery_time_s"] / (
        4.0 * snapshot["inertia_gws"] * (snapshot["f_nominal_hz"] - snapshot["f_min_hz"]))


def requirement_gw(capacity_gw: float, snapshot: dict) -> float:
    """Reserve a contingency of ``capacity_gw`` needs in ``snapshot``."""
    return max(capacity_gw, nadir_coefficient(snapshot) * capacity_gw * capacity_gw)


# -- run reports ------------------------------------------------------------


def check_side(tag: str, total: float, residual: float, shares: list[float],
               standalone: list[float], rel: float) -> None:
    """Shares plus residual give the total; the largest standalone cost is it."""
    require(all(s >= 0 for s in shares), f"{tag}: negative share")
    spent = math.fsum(shares) + residual
    slack = rel * (math.fsum(abs(s) for s in shares) + abs(residual) + abs(total))
    require(abs(spent - total) <= REL * abs(total) + slack,
            f"{tag}: shares + residual = {spent!r}, total {total!r}")
    require(_close(max(standalone), total, max(rel, REL)),
            f"{tag}: largest cascade entry {max(standalone)!r} != clearing total {total!r}")


def check_report(report) -> None:
    """In-memory checks of a run report, side by side."""
    for side in report.sides:
        tag = f"{side.snapshot_label}/{side.service_side}"
        check_side(tag, side.clearing.total_cost_rate, side.allocation.residual,
                   [s for _, s in side.allocation.shares], [c for _, c in side.cascade], 0.0)
        cleared = math.fsum(q for _, q in side.clearing.cleared)
        require(_close(cleared, side.requirement_gw, REL),
                f"{tag}: cleared {cleared!r} GW for a requirement of {side.requirement_gw!r} GW")


def check_report_csv(run_dir: Path) -> list[dict]:
    """The same checks on a run directory's CSVs; returns the summary rows."""
    summary = read_csv(run_dir / "summary.csv")
    require(bool(summary), f"{run_dir}: empty summary.csv")
    for row in summary:
        tag = f"{row['snapshot_label']}_{row['side']}"
        rows = read_csv(run_dir / f"allocation_{tag}.csv")
        require(bool(rows), f"{tag}: empty allocation table")
        check_side(tag, float(row["total_cost_rate"]), float(row["residual"]),
                   [float(r["allocated_cost_rate"]) for r in rows],
                   [float(r["standalone_cost_rate"]) for r in rows], CSV_REL)
        accepted = [float(r["accepted_gw"]) for r in read_csv(run_dir / f"clearing_{tag}.csv")]
        requirement = float(row["requirement_gw"])
        require(abs(math.fsum(accepted) - requirement)
                <= CSV_REL * (math.fsum(accepted) + requirement),
                f"{tag}: clearing CSV accepts {math.fsum(accepted)!r} GW of {requirement!r}")
    return summary


def check_report_matches_csv(report, run_dir: Path) -> None:
    """Every allocation row on disk carries the in-memory share."""
    for side in report.sides:
        tag = f"{side.snapshot_label}_{side.service_side}"
        rows = read_csv(run_dir / f"allocation_{tag}.csv")
        require(len(rows) == len(side.allocation.shares), f"{tag}: allocation row count")
        for row, (uid, share) in zip(rows, side.allocation.shares):
            require(row["unit_id"] == uid and _close(float(row["allocated_cost_rate"]), share,
                                                     CSV_REL),
                    f"{tag}: row for {row['unit_id']} does not match share {share!r} of {uid}")


# -- sweeps -----------------------------------------------------------------


def stack_volumes(doc: dict, label: str, service_side: str) -> tuple[float, float]:
    """(zero-price volume, total volume) of one snapshot's stack side."""
    bids = [b for b in doc["bid_stacks"][label] if b["side"] == service_side]
    free = math.fsum(b["quantity_gw"] for b in bids if b["price_per_mw_h"] == 0.0)
    return free, math.fsum(b["quantity_gw"] for b in bids)


def _boundary(a: float, b: float) -> bool:
    return abs(a - b) <= BOUNDARY_REL * max(a, b)


def check_sweep(doc: dict, points, scarcities, cutoffs, rel: float) -> None:
    """A generation-side probe sweep against the closed-form requirement.

    A probe is short of reserve exactly when its requirement exceeds
    the under-frequency volume on offer, by that difference, and pays
    nothing exactly when its requirement fits in the zero-price
    headroom (the airport-game share is positive whenever the probe's
    own standalone cost is). Its share never falls as it grows.
    """
    grid = doc["sweep_capacities_gw"]
    seen = {}
    for cap, label, value in list(points) + [(c, lab, None) for c, lab, _ in scarcities]:
        seen.setdefault(label, []).append((cap, value))
    got_cutoffs = dict(cutoffs)
    for snapshot in doc["snapshots"]:
        label = snapshot["label"]
        free, offered = stack_volumes(doc, label, "under-frequency")
        results = sorted(seen.get(label, []), key=lambda r: r[0])
        require(len(results) == len(grid)
                and all(_close(c, g, rel) for (c, _), g in zip(results, grid)),
                f"{label}: sweep covers {len(results)} of {len(grid)} grid points")
        expected_cutoff, either = 0.0, set()
        for cap, value in results:
            need = requirement_gw(cap, snapshot)
            if _boundary(need, offered):
                continue
            require((value is None) == (need > offered),
                    f"{label}: probe {cap!r} GW needs {need!r} of {offered!r} GW offered, "
                    f"but the sweep reports {'a scarcity' if value is None else 'a share'}")
            if _boundary(need, free):
                either.add(cap)
            elif need < free:
                expected_cutoff = cap
        cutoff = got_cutoffs.get(label)
        require(cutoff is not None and (_close(cutoff, expected_cutoff, rel)
                                        or any(_close(cutoff, c, rel) for c in either)),
                f"{label}: cut-off {cutoff!r} GW, expected {expected_cutoff!r} GW")
        shares = [value for _, value in results if value is not None]
        require(all(b >= a - 1e-8 * abs(a) for a, b in zip(shares, shares[1:])),
                f"{label}: probe share falls as the probe grows")
    for cap, label, shortfall in scarcities:
        snapshot = next(s for s in doc["snapshots"] if s["label"] == label)
        _, offered = stack_volumes(doc, label, "under-frequency")
        gap = requirement_gw(cap, snapshot) - offered
        require(abs(shortfall - gap) <= 1e-9 * offered + rel * abs(gap),
                f"{label}: shortfall {shortfall!r} GW at {cap!r} GW, expected {gap!r}")


def sweep_rows(sweep_dir: Path):
    """(points, scarcities, cutoffs) as read back from a sweep's CSVs."""
    points = [(float(r["capacity_gw"]), r["snapshot_label"], float(r["allocated_cost_rate"]))
              for r in read_csv(sweep_dir / "sweep.csv")]
    scarcities = [(float(r["capacity_gw"]), r["snapshot_label"], float(r["shortfall_gw"]))
                  for r in read_csv(sweep_dir / "sweep_scarcity.csv")]
    cutoffs = [(r["snapshot_label"], float(r["cutoff_gw"]))
               for r in read_csv(sweep_dir / "sweep_summary.csv")]
    return points, scarcities, cutoffs


# -- frequency trace --------------------------------------------------------


def nadir_hz(trace_csv: Path) -> float:
    """Depth of the under-frequency nadir in a generation-loss trace CSV.

    The open-loop reserve overshoots above nominal after recovery, so
    the nadir is the most negative sample, not the largest magnitude.
    """
    with open(trace_csv, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return -min(float(df) for _, df in rows)


# -- byte identity ----------------------------------------------------------


def csv_digest(out_dir: Path) -> str:
    """SHA-256 over every CSV under ``out_dir``: relative path, then bytes."""
    digest = hashlib.sha256()
    for path in sorted(Path(out_dir).rglob("*.csv")):
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
