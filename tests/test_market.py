import math
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freqshare import (
    ClearingResult,
    Contingency,
    CostCurve,
    ReserveBid,
    ScarcityError,
    SystemSnapshot,
    Unit,
    ValidationError,
    clear_market,
    fictitious_cost_cascade,
    required_reserve,
    write_clearing_csv,
)
from freqshare.market import (
    OVER_FREQUENCY,
    PAY_AS_BID,
    PAY_AS_CLEAR,
    PRICING_RULES,
    UNDER_FREQUENCY,
)

_GW_TO_MW = 1000.0


def reference_clear_market(
    requirement_gw: float,
    bids: list[ReserveBid],
    pricing_rule: str = PAY_AS_CLEAR,
) -> ClearingResult:
    """The original one-requirement clearing loop, kept as the oracle for
    :class:`CostCurve`: it re-sorts and walks the stack on every call."""
    if pricing_rule not in PRICING_RULES:
        raise ValidationError(f"pricing_rule: must be one of {PRICING_RULES}")
    if requirement_gw < 0:
        raise ValidationError("requirement_gw: must be >= 0")
    if len({b.side for b in bids}) > 1:
        raise ValidationError("bids: mixed service sides in one clearing")

    if requirement_gw == 0.0:
        return ClearingResult(0.0, (), 0.0, 0.0, pricing_rule)

    offered = math.fsum(b.quantity_gw for b in bids)
    if offered < requirement_gw:
        raise ScarcityError(requirement_gw, offered)

    stack = sorted(bids, key=lambda b: (b.price_per_mw_h, b.provider_id))
    cleared: list[tuple[ReserveBid, float]] = []
    remaining = requirement_gw
    marginal = 0.0
    for price, group_iter in groupby(stack, key=lambda b: b.price_per_mw_h):
        group = list(group_iter)
        group_qty = math.fsum(b.quantity_gw for b in group)
        marginal = price
        if group_qty <= remaining:
            cleared.extend((b, b.quantity_gw) for b in group)
            remaining -= group_qty
        else:
            fraction = remaining / group_qty
            cleared.extend((b, b.quantity_gw * fraction) for b in group)
            remaining = 0.0
        if remaining <= 0.0:
            break

    if pricing_rule == PAY_AS_CLEAR:
        total = requirement_gw * _GW_TO_MW * marginal
    else:
        total = math.fsum(q * _GW_TO_MW * b.price_per_mw_h for b, q in cleared)
    return ClearingResult(requirement_gw, tuple(cleared), marginal, total, pricing_rule)


def stack():
    return [
        ReserveBid("free", 0.0, 0.5),
        ReserveBid("mid", 5.0, 2.0),
        ReserveBid("exp", 12.0, 4.0),
    ]


def snap100():
    return SystemSnapshot(inertia_gws=100.0, delivery_time_s=10.0)


# --- clear_market -----------------------------------------------------------


def test_zero_requirement_clears_nothing():
    result = clear_market(0.0, stack())
    assert result.cleared == ()
    assert result.total_cost_rate == 0.0
    assert result.marginal_price == 0.0


def test_pay_as_clear_example():
    result = clear_market(5.0625, stack())
    accepted = [(b.provider_id, q) for b, q in result.cleared]
    assert accepted == [("free", 0.5), ("mid", 2.0), ("exp", 2.5625)]
    assert result.marginal_price == 12.0
    # 5062.5 MW paid the marginal price
    assert result.total_cost_rate == pytest.approx(60750.0, abs=1e-9)


def test_pay_as_bid_example():
    result = clear_market(5.0625, stack(), PAY_AS_BID)
    # 0 + 2000*5 + 2562.5*12
    assert result.total_cost_rate == pytest.approx(40750.0, abs=1e-9)


def test_scarcity_names_the_shortfall():
    with pytest.raises(ScarcityError) as err:
        clear_market(7.0, stack())
    assert err.value.shortfall_gw == pytest.approx(0.5)
    assert "0.5 GW" in str(err.value)


def test_empty_stack_with_positive_requirement_is_scarce():
    with pytest.raises(ScarcityError):
        clear_market(1.0, [])


def test_equal_price_ties_cleared_pro_rata():
    bids = [ReserveBid("a", 5.0, 2.0), ReserveBid("b", 5.0, 6.0)]
    result = clear_market(4.0, bids)
    accepted = dict((b.provider_id, q) for b, q in result.cleared)
    assert accepted["a"] == pytest.approx(1.0)
    assert accepted["b"] == pytest.approx(3.0)
    # independent of input order
    flipped = clear_market(4.0, list(reversed(bids)))
    assert dict((b.provider_id, q) for b, q in flipped.cleared) == accepted


def test_pro_rata_volume_that_underflows_is_not_listed():
    bids = [ReserveBid("a", 0.0, 0.5), ReserveBid("b", 0.0, 1.0)]
    result = clear_market(1e-323, bids)
    assert [(b.provider_id, q) for b, q in result.cleared] == [("b", 5e-324)]


def test_mixed_sides_rejected():
    bids = [ReserveBid("a", 1.0, 1.0, UNDER_FREQUENCY),
            ReserveBid("b", 1.0, 1.0, OVER_FREQUENCY)]
    with pytest.raises(ValidationError):
        clear_market(1.0, bids)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_unit_capacity_rejected(value):
    with pytest.raises(ValidationError, match="capacity_gw: must be finite"):
        Unit("x", value)


@pytest.mark.parametrize("field", ["price_per_mw_h", "quantity_gw"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_bid_numbers_rejected(field, value):
    fields = {"provider_id": "a", "price_per_mw_h": 1.0, "quantity_gw": 1.0, field: value}
    with pytest.raises(ValidationError, match=f"{field}: must be finite"):
        ReserveBid(**fields)


def test_bid_invariants():
    with pytest.raises(ValidationError):
        ReserveBid("a", -1.0, 1.0)
    with pytest.raises(ValidationError):
        ReserveBid("a", 1.0, 0.0)
    with pytest.raises(ValidationError):
        ReserveBid("a", 1.0, 1.0, side="sideways")


bid_lists = st.lists(
    st.builds(
        ReserveBid,
        provider_id=st.sampled_from("abcdefgh"),
        price_per_mw_h=st.floats(0.0, 50.0),
        quantity_gw=st.floats(0.01, 5.0),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda b: b.provider_id,
)


@settings(max_examples=100, deadline=None)
@given(bids=bid_lists, fraction=st.floats(0.0, 1.0))
def test_clearing_invariants(bids, fraction):
    requirement = fraction * math.fsum(b.quantity_gw for b in bids)
    pac = clear_market(requirement, bids, PAY_AS_CLEAR)
    pab = clear_market(requirement, bids, PAY_AS_BID)

    assert math.fsum(q for _, q in pac.cleared) == pytest.approx(requirement, abs=1e-9)
    assert all(0 < q <= b.quantity_gw + 1e-12 for b, q in pac.cleared)
    # accepted bids form a price-sorted prefix: anything cheaper than the
    # marginal price is taken in full
    accepted_ids = {b.provider_id for b, _ in pac.cleared}
    for b in bids:
        if b.price_per_mw_h < pac.marginal_price:
            assert b.provider_id in accepted_ids
            q = next(q for bb, q in pac.cleared if bb.provider_id == b.provider_id)
            assert q == pytest.approx(b.quantity_gw)
    assert pac.total_cost_rate >= pab.total_cost_rate - 1e-9


# --- CostCurve ---------------------------------------------------------------


def test_cost_curve_prices_the_example():
    assert CostCurve(stack()).cost(5.0625) == pytest.approx(60750.0, abs=1e-9)
    assert CostCurve(stack(), PAY_AS_BID).cost(5.0625) == pytest.approx(40750.0, abs=1e-9)
    assert CostCurve(stack()).cost(0.0) == 0.0
    assert CostCurve([]).cost(0.0) == 0.0


def test_requirement_on_a_group_boundary_clears_at_that_groups_price():
    # 0.5 free + 2.0 at 5 reach exactly 2.5 GW; the 12 bid is not touched
    result = CostCurve(stack()).clear(2.5)
    assert result.marginal_price == 5.0
    assert [(b.provider_id, q) for b, q in result.cleared] == [("free", 0.5), ("mid", 2.0)]
    assert result.total_cost_rate == 12500.0


def test_cost_curve_scarcity_and_bad_input():
    curve = CostCurve(stack())
    with pytest.raises(ScarcityError) as err:
        curve.cost(7.0)
    assert err.value.shortfall_gw == pytest.approx(0.5)
    with pytest.raises(ScarcityError):
        curve.clear(7.0)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValidationError, match="requirement_gw"):
            curve.cost(bad)
    with pytest.raises(ValidationError, match="pricing_rule"):
        CostCurve(stack(), "pay-as-you-go")
    with pytest.raises(ValidationError, match="mixed service sides"):
        CostCurve(stack() + [ReserveBid("up", 1.0, 1.0, OVER_FREQUENCY)])


# Quantities on a 1/64 GW grid and prices with short mantissas keep every
# prefix sum, product and requirement exact, so the engine and the
# original loop must agree bit for bit, group boundaries included.
dyadic_bid_lists = st.lists(
    st.builds(
        ReserveBid,
        provider_id=st.sampled_from("abcdefgh"),
        price_per_mw_h=st.sampled_from([0.0, 0.5, 3.0, 7.25, 12.0, 40.125]),
        quantity_gw=st.integers(1, 320).map(lambda k: k / 64),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda b: b.provider_id,
)


def exact_cost(bids, requirement, rule, marginal) -> Fraction:
    """Cost rate of ``requirement`` in exact rational arithmetic."""
    req, price = Fraction(requirement), Fraction(marginal)
    if rule == PAY_AS_CLEAR:
        return req * 1000 * price
    cheaper = [b for b in bids if b.price_per_mw_h < marginal]
    below = sum(Fraction(b.quantity_gw) for b in cheaper)
    paid = sum(Fraction(b.quantity_gw) * 1000 * Fraction(b.price_per_mw_h) for b in cheaper)
    return paid + (req - below) * 1000 * price


@settings(max_examples=300, deadline=None)
@given(bids=dyadic_bid_lists, data=st.data(), rule=st.sampled_from(PRICING_RULES))
def test_cost_curve_matches_reference_on_dyadic_stacks(bids, data, rule):
    offered_64 = round(64 * math.fsum(b.quantity_gw for b in bids))
    cut = data.draw(st.sampled_from(sorted({b.price_per_mw_h for b in bids})))
    requirement = data.draw(st.one_of(
        st.integers(0, offered_64).map(lambda k: k / 64),
        st.just(math.fsum(b.quantity_gw for b in bids if b.price_per_mw_h <= cut)),
    ))
    expected = reference_clear_market(requirement, bids, rule)
    curve = CostCurve(bids, rule)
    got = curve.clear(requirement)
    assert got.marginal_price == expected.marginal_price
    assert got.cleared == expected.cleared
    assert got.total_cost_rate == exact_cost(bids, requirement, rule, got.marginal_price)
    # The loop prices each rounded pro-rata volume, so under pay-as-bid
    # its total can sit a few ulps off the exact one.
    assert got.total_cost_rate == pytest.approx(expected.total_cost_rate, rel=1e-14)
    assert curve.cost(requirement) == got.total_cost_rate


float_bid_lists = st.lists(
    st.builds(
        ReserveBid,
        provider_id=st.sampled_from("abcdefgh"),
        price_per_mw_h=st.one_of(st.sampled_from([0.0, 5.0, 12.0]), st.floats(0.0, 50.0)),
        quantity_gw=st.floats(0.01, 5.0),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda b: b.provider_id,
)


@settings(max_examples=300, deadline=None)
@given(bids=float_bid_lists, fraction=st.floats(0.0, 1.0), rule=st.sampled_from(PRICING_RULES))
def test_cost_curve_matches_reference_away_from_group_boundaries(bids, fraction, rule):
    # At a requirement exactly equal to a float prefix sum the original
    # loop's marginal price hinged on subtraction rounding; such points
    # follow the documented boundary rule and are left out here.
    offered = math.fsum(b.quantity_gw for b in bids)
    requirement = fraction * offered
    boundaries = [
        math.fsum(b.quantity_gw for b in bids if b.price_per_mw_h <= p)
        for p in {b.price_per_mw_h for b in bids}
    ]
    assume(all(abs(requirement - c) > 1e-9 * offered for c in boundaries))
    expected = reference_clear_market(requirement, bids, rule)
    curve = CostCurve(bids, rule)
    got = curve.clear(requirement)
    assert got.marginal_price == expected.marginal_price
    # The loop also lists bids whose pro-rata volume underflowed to zero.
    expected_cleared = [(b, q) for b, q in expected.cleared if q > 0]
    assert [b for b, _ in got.cleared] == [b for b, _ in expected_cleared]
    for (_, q), (_, q_ref) in zip(got.cleared, expected_cleared):
        assert q == pytest.approx(q_ref, rel=1e-12, abs=1e-12 * offered)
    assert got.total_cost_rate == pytest.approx(expected.total_cost_rate, rel=1e-12)
    assert curve.cost(requirement) == got.total_cost_rate


# --- fictitious_cost_cascade ------------------------------------------------


def test_cascade_composes_sizing_and_clearing():
    units = [Unit("big", 1.8), Unit("small", 1.2)]
    cascade = fictitious_cost_cascade(snap100(), units, stack())
    # requirements 5.0625 and 2.25 GW against the bid stack, largest first
    assert [uid for uid, _ in cascade] == ["big", "small"]
    assert cascade[0][1] == pytest.approx(60750.0, abs=1e-6)
    # 2.25 GW clears 0.5 free + 1.75 at 5 -> marginal 5, 2250 MW * 5
    assert cascade[1][1] == pytest.approx(11250.0, abs=1e-6)


def test_single_unit_cascade_equals_real_market_cost():
    cascade = fictitious_cost_cascade(snap100(), [Unit("only", 1.8)], stack())
    real = clear_market(required_reserve(snap100(), Contingency(1.8)), stack())
    assert cascade == [("only", real.total_cost_rate)]


def test_unit_covered_by_free_headroom_costs_nothing():
    cascade = fictitious_cost_cascade(snap100(), [Unit("tiny", 0.3)], stack())
    assert cascade == [("tiny", 0.0)]


def test_equal_capacities_get_equal_standalone_costs():
    units = [Unit("a", 1.5), Unit("b", 1.5), Unit("c", 0.9)]
    cascade = dict(fictitious_cost_cascade(snap100(), units, stack()))
    assert cascade["a"] == cascade["b"]


def test_cascade_order_is_capacity_descending_then_id():
    units = [Unit("z", 0.9), Unit("a", 1.5), Unit("m", 1.5)]
    cascade = fictitious_cost_cascade(snap100(), units, stack())
    assert [uid for uid, _ in cascade] == ["a", "m", "z"]


def test_cascade_standalone_cost_nondecreasing_in_capacity():
    units = [Unit(f"u{i}", c) for i, c in enumerate([0.2, 0.7, 1.1, 1.6, 1.9])]
    cascade = fictitious_cost_cascade(snap100(), units, stack())
    costs_desc = [c for _, c in cascade]
    assert costs_desc == sorted(costs_desc, reverse=True)
    assert max(costs_desc) == cascade[0][1]


def test_cascade_scarcity_tagged_with_unit():
    with pytest.raises(ScarcityError) as err:
        fictitious_cost_cascade(snap100(), [Unit("huge", 2.4)], stack())
    assert err.value.unit_id == "huge"
    assert "huge" in str(err.value)


def test_cascade_uses_per_side_stacks():
    units = [Unit("gen", 1.2, side="generation"), Unit("load", 1.2, side="demand")]
    bids = stack() + [
        ReserveBid("up-free", 0.0, 0.5, OVER_FREQUENCY),
        ReserveBid("up", 2.0, 5.0, OVER_FREQUENCY),
    ]
    cascade = dict(fictitious_cost_cascade(snap100(), units, bids))
    # same 2.25 GW requirement, different stacks: 2250*5 vs 2250*2
    assert cascade["gen"] == pytest.approx(11250.0, abs=1e-6)
    assert cascade["load"] == pytest.approx(4500.0, abs=1e-6)


def test_cascade_rejects_duplicate_ids_and_empty_fleet():
    with pytest.raises(ValidationError):
        fictitious_cost_cascade(snap100(), [], stack())
    with pytest.raises(ValidationError):
        fictitious_cost_cascade(snap100(), [Unit("a", 1.0), Unit("a", 0.5)], stack())


def test_clearing_csv_format(tmp_path):
    result = clear_market(5.0625, stack())
    path = tmp_path / "clearing.csv"
    write_clearing_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bid_id,accepted_gw,price,payment_rate"
    assert lines[1] == "free,0.5,0,6000"
    assert lines[3] == "exp,2.5625,12,30750"


# Every stack gets a deep backstop, so no unit below 2 GW is ever scarce.
BACKSTOP = ReserveBid("backstop", 60.0, 20.0)


@settings(max_examples=200, deadline=None)
@given(
    caps=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8),
    bids=float_bid_lists,
    inertia=st.floats(50.0, 300.0),
    rule=st.sampled_from(PRICING_RULES),
)
def test_standalone_cost_never_decreases_with_capacity(caps, bids, inertia, rule):
    units = [Unit(f"u{i}", c) for i, c in enumerate(caps)]
    snapshot = SystemSnapshot(inertia_gws=inertia, delivery_time_s=10.0)
    cost = dict(fictitious_cost_cascade(snapshot, units, bids + [BACKSTOP], rule))
    for a in units:
        for b in units:
            if a.capacity_gw <= b.capacity_gw:
                assert cost[a.id] <= cost[b.id]


@settings(max_examples=200, deadline=None)
@given(
    caps=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8),
    bids=float_bid_lists,
    inertia=st.floats(50.0, 300.0),
)
def test_pay_as_bid_cascade_never_exceeds_pay_as_clear(caps, bids, inertia):
    units = [Unit(f"u{i}", c) for i, c in enumerate(caps)]
    snapshot = SystemSnapshot(inertia_gws=inertia, delivery_time_s=10.0)
    stack = bids + [BACKSTOP]
    pab = fictitious_cost_cascade(snapshot, units, stack, PAY_AS_BID)
    pac = fictitious_cost_cascade(snapshot, units, stack, PAY_AS_CLEAR)
    for (uid, bid_cost), (_, clear_cost) in zip(pab, pac):
        assert bid_cost <= clear_cost, uid
