"""Reserve procurement: merit-order clearing and the what-if cost cascade.

Under- and over-frequency reserves clear as two independent markets.
Generators drive the under-frequency requirement (their outage removes
supply), large loads drive the over-frequency one. Prices are quoted per
MW and hour while volumes are in GW, so a cleared GW contributes
1000 * price to the cost rate.

All clearing goes through one engine, :class:`CostCurve`. It sorts a
stack once and then prices any requirement with a binary search, so the
cascade over n units against m bids costs O(m log m + n log m) per
snapshot and side. A requirement equal to a cumulative offered volume
clears at the price of the group that completes it; the comparison is
made on float prefix sums of the group volumes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby

from .dynamics import (
    DEMAND,
    GENERATION,
    CONTINGENCY_SIDES,
    Contingency,
    SystemSnapshot,
    required_reserve,
)
from .errors import ScarcityError, ValidationError

UNDER_FREQUENCY = "under-frequency"
OVER_FREQUENCY = "over-frequency"
SERVICE_SIDES = (UNDER_FREQUENCY, OVER_FREQUENCY)

#: Service procured against the outage of a unit on each side.
SERVICE_FOR_UNIT_SIDE = {GENERATION: UNDER_FREQUENCY, DEMAND: OVER_FREQUENCY}

PAY_AS_CLEAR = "pay-as-clear"
PAY_AS_BID = "pay-as-bid"
PRICING_RULES = (PAY_AS_CLEAR, PAY_AS_BID)

_GW_TO_MW = 1000.0


def _require_finite(field: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{field}: must be finite")


@dataclass(frozen=True)
class Unit:
    """A generator or load whose capacity sets its potential contingency."""

    id: str
    capacity_gw: float
    side: str = GENERATION
    technology: str = ""
    existing: bool = False

    def __post_init__(self):
        if not self.id:
            raise ValidationError("id: must be a non-empty string")
        _require_finite("capacity_gw", self.capacity_gw)
        if self.capacity_gw < 0:
            raise ValidationError("capacity_gw: must be >= 0")
        if self.side not in CONTINGENCY_SIDES:
            raise ValidationError(f"side: must be one of {CONTINGENCY_SIDES}")
        if not isinstance(self.existing, bool):
            raise ValidationError("existing: must be a boolean")


@dataclass(frozen=True)
class ReserveBid:
    """An offer of reserve volume at a price. A zero-price bid models the
    headroom that is available for free on part-loaded plant."""

    provider_id: str
    price_per_mw_h: float
    quantity_gw: float
    side: str = UNDER_FREQUENCY

    def __post_init__(self):
        if not self.provider_id:
            raise ValidationError("provider_id: must be a non-empty string")
        _require_finite("price_per_mw_h", self.price_per_mw_h)
        _require_finite("quantity_gw", self.quantity_gw)
        if self.price_per_mw_h < 0:
            raise ValidationError("price_per_mw_h: must be >= 0")
        if not self.quantity_gw > 0:
            raise ValidationError("quantity_gw: must be > 0")
        if self.side not in SERVICE_SIDES:
            raise ValidationError(f"side: must be one of {SERVICE_SIDES}")


@dataclass(frozen=True)
class ClearingResult:
    """Outcome of clearing one requirement against one bid stack.

    ``cleared`` pairs each accepted bid with its accepted volume, in
    ascending price order; accepted bids always form a price-sorted
    prefix of the stack, with pro-rata curtailment only at the marginal
    price.
    """

    requirement_gw: float
    cleared: tuple[tuple[ReserveBid, float], ...]
    marginal_price: float
    total_cost_rate: float
    pricing_rule: str

    def payment_rate(self, bid: ReserveBid, accepted_gw: float) -> float:
        """Hourly payment to one accepted bid under the pricing rule."""
        price = self.marginal_price if self.pricing_rule == PAY_AS_CLEAR else bid.price_per_mw_h
        return accepted_gw * _GW_TO_MW * price


class CostCurve:
    """Cost of serving any requirement from one service side's bid stack.

    Built once in O(m log m): bids sorted by ``(price, provider_id)``,
    equal prices grouped, and per group the cumulative volume and the
    cumulative pay-as-bid cost, which is the curve evaluated at the
    group's end so that the curve stays non-decreasing in floating point.
    :meth:`cost` prices a requirement in O(log m); :meth:`clear` also
    lists the accepted bids.
    """

    def __init__(self, bids: list[ReserveBid], pricing_rule: str = PAY_AS_CLEAR):
        if pricing_rule not in PRICING_RULES:
            raise ValidationError(f"pricing_rule: must be one of {PRICING_RULES}")
        if len({b.side for b in bids}) > 1:
            raise ValidationError("bids: mixed service sides in one clearing")
        self.pricing_rule = pricing_rule
        self._offered_gw = math.fsum(b.quantity_gw for b in bids)
        self._stack = sorted(bids, key=lambda b: (b.price_per_mw_h, b.provider_id))
        # Entry g > 0 describes price group g; entry 0 is the empty prefix.
        self._prices = [0.0]
        self._ends = [0]          # stack index one past the group
        self._cum_gw = [0.0]
        self._cum_cost = [0.0]    # pay-as-bid cost of the group and all cheaper ones
        for price, group in groupby(self._stack, key=lambda b: b.price_per_mw_h):
            group = list(group)
            self._prices.append(price)
            self._ends.append(self._ends[-1] + len(group))
            self._cum_gw.append(self._cum_gw[-1] + math.fsum(b.quantity_gw for b in group))
            self._cum_cost.append(self._pay_as_bid(self._cum_gw[-1], len(self._prices) - 1))

    def _marginal_group(self, requirement_gw: float) -> int:
        """Index of the group that clears ``requirement_gw``; 0 for nothing."""
        if not requirement_gw >= 0:
            raise ValidationError("requirement_gw: must be >= 0")
        if requirement_gw == 0.0:
            return 0
        if self._offered_gw < requirement_gw:
            raise ScarcityError(requirement_gw, self._offered_gw)
        # Prefix sums can round below the fsum total: the last group then clears.
        return min(bisect_left(self._cum_gw, requirement_gw), len(self._cum_gw) - 1)

    def _pay_as_bid(self, requirement_gw: float, g: int) -> float:
        below_gw, below_cost = self._cum_gw[g - 1], self._cum_cost[g - 1]
        return below_cost + (requirement_gw - below_gw) * _GW_TO_MW * self._prices[g]

    def _cost(self, requirement_gw: float, g: int) -> float:
        if g == 0:
            return 0.0
        if self.pricing_rule == PAY_AS_CLEAR:
            return requirement_gw * _GW_TO_MW * self._prices[g]
        return self._pay_as_bid(requirement_gw, g)

    def cost(self, requirement_gw: float) -> float:
        """Total cost rate of serving ``requirement_gw``, in O(log m).

        Raises :class:`ScarcityError` when the stack cannot cover it.
        """
        return self._cost(requirement_gw, self._marginal_group(requirement_gw))

    def clear(self, requirement_gw: float) -> ClearingResult:
        """Per-bid clearing of ``requirement_gw``; total as in :meth:`cost`.

        Ties at the marginal price are curtailed pro-rata by offered
        quantity, so the outcome does not depend on input order; a bid
        whose pro-rata volume rounds to zero is not listed.
        """
        g = self._marginal_group(requirement_gw)
        if g == 0:
            return ClearingResult(0.0, (), 0.0, 0.0, self.pricing_rule)
        start = self._ends[g - 1]
        marginal = self._stack[start:self._ends[g]]
        cleared = [(b, b.quantity_gw) for b in self._stack[:start]]
        group_gw = math.fsum(b.quantity_gw for b in marginal)
        remaining = requirement_gw - self._cum_gw[g - 1]
        if group_gw <= remaining:
            cleared.extend((b, b.quantity_gw) for b in marginal)
        else:
            fraction = remaining / group_gw
            for b in marginal:
                accepted = b.quantity_gw * fraction
                if accepted > 0:  # a subnormal requirement can round to nothing
                    cleared.append((b, accepted))
        return ClearingResult(
            requirement_gw, tuple(cleared), self._prices[g],
            self._cost(requirement_gw, g), self.pricing_rule,
        )


def clear_market(
    requirement_gw: float,
    bids: list[ReserveBid],
    pricing_rule: str = PAY_AS_CLEAR,
) -> ClearingResult:
    """Clear ``requirement_gw`` from the stack in ascending price order.

    Ties at the marginal price are curtailed pro-rata by offered
    quantity, so the outcome does not depend on input order. Raises
    :class:`ScarcityError` (naming the shortfall in GW) when the stack
    cannot cover the requirement.
    """
    return CostCurve(bids, pricing_rule).clear(requirement_gw)


def _cascade_costs(
    snapshot: SystemSnapshot,
    units: list[Unit],
    curves: dict[str, CostCurve],
) -> list[tuple[str, float]]:
    """The cascade of :func:`fictitious_cost_cascade` from built curves,
    keyed by service side."""
    if not units:
        raise ValidationError("units: must be non-empty")
    ids = [u.id for u in units]
    if len(set(ids)) != len(ids):
        raise ValidationError("units: ids must be unique")

    out: list[tuple[str, float]] = []
    for unit in sorted(units, key=lambda u: (-u.capacity_gw, u.id)):
        req = required_reserve(snapshot, Contingency(unit.capacity_gw, unit.side))
        try:
            cost = curves[SERVICE_FOR_UNIT_SIDE[unit.side]].cost(req)
        except ScarcityError as exc:
            raise ScarcityError(exc.requirement_gw, exc.offered_gw, unit_id=unit.id) from exc
        out.append((unit.id, cost))
    return out


def fictitious_cost_cascade(
    snapshot: SystemSnapshot,
    units: list[Unit],
    bids: list[ReserveBid],
    pricing_rule: str = PAY_AS_CLEAR,
) -> list[tuple[str, float]]:
    """Reserve cost each unit would create if it set the requirement.

    For every unit, sized largest first, the requirement is re-derived
    from that unit's own contingency and priced on the cost curve of the
    same bid stack (filtered to the service side matching the unit's
    side). The entry for the actual largest unit therefore equals the
    real market cost. Results are returned in (capacity descending, id)
    order regardless of input order; scarcity errors are tagged with the
    unit that triggered them.
    """
    services = {SERVICE_FOR_UNIT_SIDE[u.side] for u in units}
    curves = {
        side: CostCurve([b for b in bids if b.side == side], pricing_rule)
        for side in services
    }
    return _cascade_costs(snapshot, units, curves)


def write_clearing_csv(result: ClearingResult, path) -> None:
    """Clearing outcome as CSV: bid_id, accepted_gw, price, payment_rate."""
    with open(path, "w", newline="") as fh:
        fh.write("bid_id,accepted_gw,price,payment_rate\n")
        for bid, accepted in result.cleared:
            payment = result.payment_rate(bid, accepted)
            fh.write(
                f"{bid.provider_id},{accepted:.9g},{bid.price_per_mw_h:.9g},{payment:.9g}\n"
            )
