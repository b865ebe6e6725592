"""Frequency-containment reserve costs: who creates them and who pays.

The toolkit sizes the reserve a contingency requires on a single-bus
system, clears the requirement through a merit-order market, re-clears
it for every unit's own potential outage, and distributes the real
market cost by cost causation with an airport-game sharing rule. On top
of that sit an investment-viability evaluator and plant-splitting
what-ifs, plus a YAML-scenario CLI that emits plot-ready CSV tables.
"""

from .allocation import (
    AIRPORT_SHAPLEY,
    ALLOCATION_RULES,
    BRUTE_SHAPLEY,
    INCREMENTAL,
    PROPORTIONAL,
    AllocationResult,
    allocate,
    cutoff_size,
    filter_existing,
)
from .dynamics import (
    DEMAND,
    GENERATION,
    Contingency,
    FrequencyTrace,
    SystemSnapshot,
    required_reserve,
    required_reserve_bisect,
    simulate_frequency,
    write_trace_csv,
)
from .errors import ScarcityError, ValidationError
from .investment import (
    SplitAdjustments,
    SplitComparison,
    ViabilityLedger,
    annual_ancillary_cost,
    compare_split,
    evaluate_viability,
    ledger_from_dict,
    load_ledger,
    split_unit,
    write_split_comparison,
)
from .market import (
    OVER_FREQUENCY,
    PAY_AS_BID,
    PAY_AS_CLEAR,
    PRICING_RULES,
    UNDER_FREQUENCY,
    ClearingResult,
    CostCurve,
    ReserveBid,
    Unit,
    clear_market,
    fictitious_cost_cascade,
    write_clearing_csv,
)
from .scenario import (
    RunReport,
    Scenario,
    SideResult,
    SweepResult,
    allocate_snapshot,
    dump_scenario,
    load_scenario,
    run_pipeline,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    sweep_allocation_curve,
    validate_scenario,
    write_run_report,
    write_sweep_result,
)

__version__ = "0.1.0"
