"""Property tests: the adaptive-hold closed form vs the numeric oracle.

:func:`repro.sim.outage_sim.solve_hold_time` is the algebra the
simulator applies at every adaptive phase;
:func:`repro.sim.validation.numeric_adaptive_hold` re-derives the same
answer by scanning hold candidates and replaying them against a real
:class:`Battery`.  These properties pin the boundary behaviour the
grid selfcheck cannot reach: committed time consuming the whole
window, hold/save rates within ``_EPS`` of each other, and
zero-runtime packs whose drain rate is infinite.

Two divergences between the pair are *intentional* and excluded here:

* The oracle reports the longest **feasible** hold (0 when even the
  committed + save tail overdraws the pack); the closed form reports
  the hold the simulator should *attempt* — infeasibility surfaces as
  a crash later in the run, not as a zero hold.
* When the pack can hold for the whole window (``rate_hold * window
  <= soc``) the closed form claims a ride-out (the save stage never
  executes), so the oracle's replay of the committed phases does not
  apply; the claim is verified by replaying the hold power over the
  whole window instead — the same guard ``repro selfcheck`` applies.
  Hold and save rates within ``_EPS`` also answer the whole hold
  budget, which is no ride-out claim: with nothing committed it equals
  the window, and the oracle still judges it.
"""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.power.battery import BatterySpec
from repro.sim.outage_sim import _EPS, solve_hold_time
from repro.sim.validation import numeric_adaptive_hold, replay_phases

RATED_POWER = 4000.0

specs = st.builds(
    BatterySpec,
    rated_power_watts=st.just(RATED_POWER),
    rated_runtime_seconds=st.floats(min_value=60.0, max_value=3600.0),
)
#: Load fractions of rated power; strictly positive so every rate is
#: finite and nonzero, capped at 1.0 so ``runtime_at`` never raises.
fractions = st.floats(min_value=0.05, max_value=1.0)
windows = st.floats(min_value=30.0, max_value=7200.0)
durations = st.floats(min_value=0.0, max_value=1800.0)


def rate_of(spec: BatterySpec, power_watts: float) -> float:
    """SoC fraction per second — the simulator's ``_drain_rate``."""
    if power_watts <= 0:
        return 0.0
    runtime = spec.runtime_at(power_watts)
    if runtime <= 0:
        return math.inf
    return 0.0 if math.isinf(runtime) else 1.0 / runtime


class TestClosedFormVsOracle:
    @given(
        spec=specs,
        hold_frac=fractions,
        save_frac=fractions,
        committed_frac=fractions,
        committed_time=durations,
        window=windows,
        resolution=st.sampled_from([0.5, 1.0, 5.0]),
    )
    @settings(max_examples=120, deadline=None)
    # Rates within ``_EPS``, nothing committed: the closed form answers
    # the whole window, but the pack lasts 2882.09 s at hold power.
    @example(
        spec=BatterySpec(rated_power_watts=RATED_POWER, rated_runtime_seconds=60.0),
        hold_frac=0.05000000000000001,
        save_frac=0.05,
        committed_frac=0.05,
        committed_time=0.0,
        window=2883.0,
        resolution=1.0,
    )
    def test_agreement_on_the_generated_space(
        self,
        spec,
        hold_frac,
        save_frac,
        committed_frac,
        committed_time,
        window,
        resolution,
    ):
        assume(save_frac < hold_frac)
        hold_power = hold_frac * RATED_POWER
        save_power = save_frac * RATED_POWER
        committed = [(committed_frac * RATED_POWER, committed_time)]
        rate_hold = rate_of(spec, hold_power)
        rate_save = rate_of(spec, save_power)
        committed_soc = rate_of(spec, committed[0][0]) * committed_time

        closed = solve_hold_time(
            1.0, rate_hold, rate_save, committed_soc, committed_time, window
        )
        max_hold = max(0.0, window - committed_time)
        assert 0.0 <= closed <= max(window, max_hold) + 1e-9

        # Exclude ill-conditioned cells where the charge budget at the
        # answer sits within float noise of exhaustion: there the
        # oracle's feasibility replay flips on 1e-9-scale wiggle.
        spent = (
            min(closed, max_hold) * rate_hold
            + committed_soc
            + max(0.0, max_hold - closed) * rate_save
        )
        assume(abs(spent - 1.0) > 1e-6)

        if rate_hold * window <= 1.0:
            # Ride-out claim: the pack survives the whole window at hold
            # power and the committed/save stages never run.
            assert closed == window
            assert replay_phases(spec, [(hold_power, window)])
            return
        if rate_hold <= rate_save + _EPS:
            # Holding costs what saving does, so the closed form never
            # transitions: it answers the whole hold budget, which the
            # oracle below must agree with (or find the plan infeasible).
            assert closed == max_hold
        numeric = numeric_adaptive_hold(
            spec,
            hold_power,
            committed,
            save_power,
            window,
            resolution_seconds=resolution,
        )
        if numeric == 0.0 and closed > resolution + 1e-3:
            # Intentional divergence: the whole plan is infeasible (the
            # committed + save tail alone overdraws the pack), which the
            # oracle reports as "no feasible hold" while the simulator
            # attempts the closed-form hold and crashes downstream.
            tail = [(save_power, max_hold)] + committed
            assert not replay_phases(spec, tail)
            return
        assert abs(closed - numeric) <= resolution + 1e-3, (
            f"closed={closed!r} numeric={numeric!r}"
        )


class TestCommittedConsumesWindow:
    @given(
        spec=specs,
        hold_frac=fractions,
        save_frac=fractions,
        window=windows,
        overshoot=st.floats(min_value=0.0, max_value=600.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_no_hold_budget_left(
        self, spec, hold_frac, save_frac, window, overshoot
    ):
        """``committed_time >= remaining_window`` leaves max_hold == 0:
        the closed form answers 0 — or the full window when the pack
        rides the window out at hold power and never transitions."""
        committed_time = window + overshoot
        rate_hold = rate_of(spec, hold_frac * RATED_POWER)
        rate_save = rate_of(spec, save_frac * RATED_POWER)
        committed_soc = rate_hold * committed_time

        closed = solve_hold_time(
            1.0, rate_hold, rate_save, committed_soc, committed_time, window
        )
        if rate_hold * window <= 1.0:
            assert closed == window
        else:
            assert closed == 0.0
        # The oracle has no candidates above 0 either.
        numeric = numeric_adaptive_hold(
            spec,
            hold_frac * RATED_POWER,
            [(hold_frac * RATED_POWER, committed_time)],
            save_frac * RATED_POWER,
            window,
        )
        assert numeric == 0.0


class TestRateDegeneracy:
    @given(
        rate=st.floats(min_value=1e-6, max_value=1e-2),
        delta=st.floats(min_value=0.0, max_value=_EPS),
        committed_time=durations,
        window=windows,
    )
    @settings(max_examples=80, deadline=None)
    def test_save_no_cheaper_than_hold_never_transitions(
        self, rate, delta, committed_time, window
    ):
        """``rate_hold`` within ``_EPS`` of ``rate_save``: transitioning
        buys nothing, so the closed form holds for the whole remaining
        budget (unless it can ride the window out entirely)."""
        assume(committed_time < window)
        closed = solve_hold_time(
            1.0,
            rate + delta,
            rate,
            committed_soc=rate * committed_time,
            committed_time=committed_time,
            remaining_window=window,
        )
        if (rate + delta) * window <= 1.0:
            assert closed == window
        else:
            assert closed == window - committed_time

    @given(
        spec=specs,
        frac=fractions,
        committed_time=durations,
        window=windows,
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_powers_agree_with_oracle_when_feasible(
        self, spec, frac, committed_time, window
    ):
        """hold == save power: every candidate is the same plan, so the
        oracle answers max_hold exactly when that plan is feasible."""
        assume(committed_time < window)
        power = frac * RATED_POWER
        rate = rate_of(spec, power)
        feasible = replay_phases(spec, [(power, window)])
        # Stay away from the exact-exhaustion boundary where replay
        # tolerance decides feasibility.
        assume(abs(rate * window - 1.0) > 1e-6)
        closed = solve_hold_time(
            1.0,
            rate,
            rate,
            committed_soc=rate * committed_time,
            committed_time=committed_time,
            remaining_window=window,
        )
        numeric = numeric_adaptive_hold(
            spec, power, [(power, committed_time)], power, window
        )
        if feasible:
            # Riding out at hold power survives, so the closed form
            # claims the whole window; the oracle, scanning only
            # [0, max_hold], tops out at max_hold.
            assert closed == window
            assert numeric == max(0.0, window - committed_time)
        else:
            assert closed == window - committed_time
            assert numeric == 0.0


class TestZeroRuntimePacks:
    @given(
        frac=fractions,
        save_frac=fractions,
        committed_time=durations,
        window=windows,
    )
    @settings(max_examples=60, deadline=None)
    def test_infinite_rate_holds_for_zero_seconds(
        self, frac, save_frac, committed_time, window
    ):
        """A zero-runtime pack drains instantly under any load: the
        closed form answers 0 and the oracle finds nothing feasible."""
        spec = BatterySpec(RATED_POWER, 0.0)
        power = frac * RATED_POWER
        rate_hold = rate_of(spec, power)
        assert math.isinf(rate_hold)
        closed = solve_hold_time(
            1.0,
            rate_hold,
            rate_of(spec, save_frac * RATED_POWER),
            committed_soc=0.0,
            committed_time=committed_time,
            remaining_window=window,
        )
        assert closed == 0.0
        numeric = numeric_adaptive_hold(
            spec, power, [], save_frac * RATED_POWER, window
        )
        assert numeric == 0.0


class TestPinnedCases:
    """Boundary cells the properties (and the differential fuzz
    campaign) surfaced, pinned as exact regressions."""

    def test_nan_committed_budget_collapses_to_zero(self):
        # inf * 0 committed charge (overloaded zero-length phase) must
        # collapse to a zero hold, matching Python min/max semantics —
        # see tests/sim/test_vsim_regressions.py for the end-to-end pin.
        hold = solve_hold_time(
            soc=1.0,
            rate_hold=1e-3,
            rate_save=1e-5,
            committed_soc=float("nan"),
            committed_time=0.0,
            remaining_window=7200.0,
        )
        assert hold == 0.0

    def test_committed_time_exactly_the_window(self):
        closed = solve_hold_time(
            1.0,
            rate_hold=1e-3,
            rate_save=1e-5,
            committed_soc=0.9,
            committed_time=1800.0,
            remaining_window=1800.0,
        )
        assert closed == 0.0

    def test_rate_gap_exactly_eps_never_transitions(self):
        closed = solve_hold_time(
            1.0,
            rate_hold=1e-3 + _EPS,
            rate_save=1e-3,
            committed_soc=0.0,
            committed_time=600.0,
            remaining_window=3600.0,
        )
        assert closed == 3000.0

    def test_zero_window_is_zero_hold(self):
        assert solve_hold_time(1.0, 1e-3, 1e-5, 0.0, 0.0, 0.0) == 0.0
        assert solve_hold_time(1.0, 1e-3, 1e-5, 0.0, 0.0, -1.0) == 0.0

    def test_oracle_scans_the_window_endpoint(self):
        # Found by TestRateDegeneracy: the oracle's candidate grid
        # stopped at the last resolution multiple below max_hold, so a
        # fully feasible 30.5 s window scanned out at 30.0 s.
        spec = BatterySpec(RATED_POWER, rated_runtime_seconds=60.0)
        numeric = numeric_adaptive_hold(
            spec, RATED_POWER, [], RATED_POWER, 30.5
        )
        assert numeric == 30.5

    def test_zero_runtime_pack_discharge_is_total(self):
        # Found by TestZeroRuntimePacks: discharging a zero-runtime pack
        # divided by its zero full runtime.  It must sustain nothing and
        # read empty afterwards, never raise.
        from repro.power.battery import Battery

        battery = Battery(BatterySpec(RATED_POWER, 0.0))
        assert battery.discharge(0.5 * RATED_POWER, 10.0) == 0.0
        assert battery.state_of_charge == 0.0
        assert battery.is_empty
