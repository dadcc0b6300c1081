"""The vectorized plan kernel: N outage cells through one compiled plan.

:class:`PlanKernel` is the batch twin of
:class:`repro.sim.outage_sim._OutageRun`.  It compiles one (datacenter,
plan) pair into per-phase constant arrays and then plays any number of
(outage duration, initial state of charge, dg-starts) cells *in lockstep*:
every iteration of the masked main loop mirrors exactly one trip through
the scalar while-loop, with per-cell boolean masks standing in for the
scalar's branches.

Equivalence contract (certified by :mod:`repro.vsim.equivalence` and the
differential fuzzer): for the fault-free plan path, every
:class:`~repro.sim.metrics.OutageOutcome` field — including the full
power trace when ``collect_traces=True`` — is **bit-identical** to the
scalar engine's.  This is achievable because both engines are IEEE-754
double arithmetic over the same operations in the same order:

* segment boundaries take the same ``min`` over the same candidates;
* battery bookkeeping applies the exact scalar expressions
  (``available = soc * full``; ``soc = max(0, soc - sustained / full)``)
  with per-phase ``full`` runtimes precomputed through the *same* spec
  methods the scalar stores call;
* trace integrals accumulate the same addends in the same (per-cell)
  order, so the float sums match term for term;
* the adaptive hold is the :func:`repro.sim.outage_sim.solve_hold_time`
  algebra re-expressed as a ``np.where`` cascade preserving branch order.

Faults and policies are out of scope: the kernel refuses them and the
wiring layers fall back to the scalar path (see docs/BATCH.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.datacenter import Datacenter
from repro.sim.metrics import OutageOutcome, SourceKind
from repro.sim.outage_sim import (
    _EPS,
    _RESERVE_SLACK,
    _PooledBackupStore,
    _ServerBackupStore,
)
from repro.sim.trace import PowerTrace
from repro.techniques.base import OutagePlan
from repro.units import ordered_sum

#: Source codes used internally by the lockstep loop.
_SRC_NONE = 0
_SRC_DG = 1
_SRC_UPS = 2
_SRC_CRASH = -1

#: Safety bound on lockstep iterations; the scalar loop terminates after a
#: handful of boundary events per phase, so this is never reached by a
#: correct run.
_MAX_ITER_PER_PHASE = 8
_MAX_ITER_BASE = 32

_Segment = Tuple[float, float, float, float, str, str]


@dataclass
class BatchOutcomes:
    """Struct-of-arrays result of one :meth:`PlanKernel.run` call.

    Every array has one entry per cell, in submission order.  Fields
    mirror :class:`~repro.sim.metrics.OutageOutcome`; use
    :meth:`outcome` to materialise a scalar outcome (requires the run to
    have collected traces).
    """

    technique_name: str
    outage_seconds: np.ndarray
    crashed: np.ndarray
    crash_time_seconds: np.ndarray  # nan when not crashed
    downtime_during_outage_seconds: np.ndarray
    downtime_after_restore_seconds: np.ndarray
    mean_performance: np.ndarray
    ups_charge_consumed: np.ndarray
    ups_state_of_charge_end: np.ndarray
    ups_energy_joules: np.ndarray
    dg_energy_joules: np.ndarray
    peak_backup_power_watts: np.ndarray
    restored_by_dg: np.ndarray
    traces: Optional[List[List[_Segment]]] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.outage_seconds)

    @property
    def downtime_seconds(self) -> np.ndarray:
        return (
            self.downtime_during_outage_seconds
            + self.downtime_after_restore_seconds
        )

    def trace_of(self, i: int) -> PowerTrace:
        if self.traces is None:
            raise SimulationError(
                "run with collect_traces=True to materialise traces"
            )
        trace = PowerTrace()
        for start, end, power, perf, source, label in self.traces[i]:
            trace.record(start, end, power, perf, source, label)
        return trace

    def outcome(self, i: int) -> OutageOutcome:
        """Materialise cell ``i`` as a scalar :class:`OutageOutcome`."""
        crashed = bool(self.crashed[i])
        crash_time = (
            float(self.crash_time_seconds[i]) if crashed else None
        )
        return OutageOutcome(
            technique_name=self.technique_name,
            outage_seconds=float(self.outage_seconds[i]),
            crashed=crashed,
            crash_time_seconds=crash_time,
            state_preserved=not crashed,
            downtime_during_outage_seconds=float(
                self.downtime_during_outage_seconds[i]
            ),
            downtime_after_restore_seconds=float(
                self.downtime_after_restore_seconds[i]
            ),
            mean_performance=float(self.mean_performance[i]),
            ups_charge_consumed=float(self.ups_charge_consumed[i]),
            ups_state_of_charge_end=float(self.ups_state_of_charge_end[i]),
            ups_energy_joules=float(self.ups_energy_joules[i]),
            dg_energy_joules=float(self.dg_energy_joules[i]),
            peak_backup_power_watts=float(self.peak_backup_power_watts[i]),
            restored_by_dg=bool(self.restored_by_dg[i]),
            trace=self.trace_of(i),
        )

    def outcomes(self) -> List[OutageOutcome]:
        return [self.outcome(i) for i in range(len(self))]


class PlanKernel:
    """One (datacenter, plan) pair compiled for batch evaluation.

    Args:
        datacenter: The facility under study.
        plan: The technique's compiled plan.
        lost_work_seconds: Work to recompute after a crash (defaults to
            the workload's expected loss, as in the scalar engine).

    Raises:
        SimulationError: On plan shapes the scalar engine would also
            reject (active phase counts above the fleet for server-level
            packs, malformed adaptive tails when entered).
    """

    def __init__(
        self,
        datacenter: Datacenter,
        plan: OutagePlan,
        lost_work_seconds: Optional[float] = None,
    ):
        from repro.power.placement import UPSPlacement

        self.dc = datacenter
        self.plan = plan
        phases = list(plan.phases)
        self.num_phases = len(phases)
        n = self.num_phases

        self.power = np.array([p.power_watts for p in phases], dtype=float)
        self.perf = np.array([p.performance for p in phases], dtype=float)
        self.committed = np.array([p.committed for p in phases], dtype=bool)
        self.state_safe = np.array([p.state_safe for p in phases], dtype=bool)
        self.resume = np.array(
            [p.resume_downtime_seconds for p in phases], dtype=float
        )
        self.crash_perf = np.array(
            [p.crash_performance for p in phases], dtype=float
        )
        self.is_adaptive = np.array([p.is_adaptive for p in phases], dtype=bool)
        #: Fixed entry durations; nan for adaptive phases (solved at entry).
        self.fixed_duration = np.array(
            [
                math.nan if p.is_adaptive else float(p.duration_seconds)
                for p in phases
            ],
            dtype=float,
        )
        self.names = [p.name for p in phases]

        num_servers = datacenter.cluster.num_servers
        self.active_units = np.array(
            [
                num_servers if p.active_servers is None else p.active_servers
                for p in phases
            ],
            dtype=np.int64,
        )

        # -- UPS compilation -------------------------------------------------
        ups_spec = datacenter.ups
        self.has_ups = ups_spec.is_provisioned
        self.server_placed = (
            self.has_ups and ups_spec.placement is UPSPlacement.SERVER
        )
        self.num_servers = num_servers
        # A throwaway store instance answers the load-independent
        # questions (can_carry, drain_rate, full runtimes) through the
        # *same* code paths the scalar engine uses, so the compiled
        # constants are bit-identical by construction.
        if not self.has_ups:
            store = None
        elif self.server_placed:
            store = _ServerBackupStore(ups_spec, num_servers, 1.0)
        else:
            store = _PooledBackupStore(ups_spec, num_servers, 1.0)

        self.ups_can_carry = np.zeros(n, dtype=bool)
        #: Full (SoC=1) runtime per phase for the pooled store; unused for
        #: server placement (runtime depends on the monotone active set).
        self.pooled_full_runtime = np.full(n, math.inf)
        self.drain_rates = np.zeros(n, dtype=float)
        if store is not None:
            for j, p in enumerate(phases):
                self.ups_can_carry[j] = store.can_carry(
                    p.power_watts, p.active_servers
                )
                self.drain_rates[j] = store.drain_rate(
                    p.power_watts, p.active_servers
                )
                if not self.server_placed and self.ups_can_carry[j]:
                    self.pooled_full_runtime[j] = (
                        ups_spec.battery_spec.runtime_at(p.power_watts)
                    )
        if self.server_placed:
            bank = store._bank
            self.unit_cap = bank.unit_spec.rated_power_watts
            self.unit_runtime = bank.unit_spec.rated_runtime_seconds
            self.peukert_k = bank.unit_spec.peukert_exponent
            if int(self.active_units.max()) > num_servers or int(
                self.active_units.min()
            ) <= 0:
                # The bank's _apply_active raises this on the first query.
                from repro.errors import ConfigurationError

                raise ConfigurationError(
                    f"active_units must be in (0, {num_servers}]"
                )
        self.ups_rated_runtime = (
            ups_spec.rated_runtime_seconds if self.has_ups else 0.0
        )

        # -- adaptive-phase constants ---------------------------------------
        # For each adaptive index: (valid, rate_hold, rate_save,
        # committed_soc, committed_time), computed with plain Python float
        # accumulation in the scalar engine's summation order.
        self.adaptive_consts = {}
        for a in range(n):
            if not phases[a].is_adaptive:
                continue
            fixed = phases[a + 1 : -1]
            terminal = phases[-1]
            if any(p.is_adaptive or p.is_terminal for p in fixed):
                self.adaptive_consts[a] = None  # raise if ever entered
                continue
            if store is None:
                self.adaptive_consts[a] = (0.0, 0.0, 0.0, 0.0)
                continue
            rate_hold = (
                store.drain_rate(phases[a].power_watts, phases[a].active_servers)
                if phases[a].power_watts > 0
                else 0.0
            )
            rate_save = (
                store.drain_rate(terminal.power_watts, terminal.active_servers)
                if terminal.power_watts > 0
                else 0.0
            )
            committed_soc = ordered_sum(
                (
                    store.drain_rate(p.power_watts, p.active_servers)
                    if p.power_watts > 0
                    else 0.0
                )
                * float(p.duration_seconds)
                for p in fixed
            )
            committed_time = ordered_sum(float(p.duration_seconds) for p in fixed)
            self.adaptive_consts[a] = (
                rate_hold,
                rate_save,
                committed_soc,
                committed_time,
            )

        # -- DG compilation --------------------------------------------------
        gen = datacenter.generator
        self.dg_provisioned = gen.is_provisioned
        self.dg_cap = gen.power_capacity_watts
        self.dg_fuel0 = gen.fuel_energy_joules
        self.transfer_complete = gen.transfer_complete_seconds
        self.normal_power = datacenter.normal_power_watts
        self.dg_can_carry = self.dg_provisioned & (
            self.power <= self.dg_cap * (1 + 1e-9)
        )
        self.dg_carries_normal = self.dg_provisioned and (
            self.normal_power <= self.dg_cap * (1 + 1e-9)
        )

        self.seamless = datacenter.switchover_is_seamless
        self.recovery = datacenter.workload.crash_downtime_after_restore_seconds(
            datacenter.cluster.spec, lost_work_seconds=lost_work_seconds
        )

    # -- main entry ---------------------------------------------------------

    def run(
        self,
        outage_seconds,
        initial_state_of_charge=None,
        dg_starts=None,
        collect_traces: bool = False,
    ) -> BatchOutcomes:
        """Evaluate one cell per entry of ``outage_seconds``.

        Args:
            outage_seconds: Outage durations, one per cell (scalar ok).
            initial_state_of_charge: Battery charge at outage start per
                cell; default 1.0.
            dg_starts: Whether the DG engine starts, per cell; default
                True.
            collect_traces: Record the full power trace per cell (needed
                to materialise :class:`OutageOutcome` objects; leave off
                for aggregate-only Monte-Carlo runs).
        """
        T = np.atleast_1d(np.asarray(outage_seconds, dtype=float)).copy()
        n = len(T)
        if n == 0:
            raise SimulationError("batch must contain at least one cell")
        if np.any(T <= 0):
            raise SimulationError("outage duration must be positive")
        if initial_state_of_charge is None:
            soc = np.ones(n)
        else:
            soc = np.atleast_1d(
                np.asarray(initial_state_of_charge, dtype=float)
            ).copy()
            if len(soc) == 1 and n > 1:
                soc = np.full(n, soc[0])
        if not ((soc >= 0.0) & (soc <= 1.0)).all():
            raise SimulationError("state of charge must be in [0, 1]")
        if dg_starts is None:
            starts = np.ones(n, dtype=bool)
        else:
            starts = np.atleast_1d(np.asarray(dg_starts, dtype=bool)).copy()
            if len(starts) == 1 and n > 1:
                starts = np.full(n, starts[0])
        if len(soc) != n or len(starts) != n:
            raise SimulationError("batch inputs must have matching lengths")
        return _BatchRun(self, T, soc, starts, collect_traces).execute()


class _BatchRun:
    """Mutable per-batch state (the kernel itself stays reusable)."""

    def __init__(
        self,
        kernel: PlanKernel,
        T: np.ndarray,
        soc0: np.ndarray,
        dg_starts: np.ndarray,
        collect_traces: bool,
    ):
        self.k = kernel
        self.n = len(T)
        self.T = T
        self.soc0 = soc0.copy()

        n = self.n
        self.t = np.zeros(n)
        self.idx = np.zeros(n, dtype=np.int64)
        self.phase_remaining = np.empty(n)
        self.soc = soc0.copy()
        self.fuel = np.full(n, kernel.dg_fuel0)
        #: Monotone active set for server-level packs (strands charge).
        self.units = np.full(n, kernel.num_servers, dtype=np.int64)

        self.dg_usable = kernel.dg_provisioned & dg_starts
        self.t_dg = np.where(
            self.dg_usable, kernel.transfer_complete, math.inf
        )
        self.dg_full = self.dg_usable & kernel.dg_carries_normal

        self.crashed = np.zeros(n, dtype=bool)
        self.crash_time = np.full(n, math.nan)
        self.restored = np.zeros(n, dtype=bool)
        self.downtime_after = np.zeros(n)
        self.done = np.zeros(n, dtype=bool)

        # Trace accumulators: same addends in the same per-cell order as
        # the scalar PowerTrace integrals over [0, T].
        self.covered_total = np.zeros(n)
        self.covered_up = np.zeros(n)
        self.perf_integral = np.zeros(n)
        self.peak_power = np.zeros(n)
        self.ups_energy = np.zeros(n)

        self.traces: Optional[List[List[_Segment]]] = (
            [[] for _ in range(n)] if collect_traces else None
        )

    # -- trace accumulation -------------------------------------------------

    def _accumulate(
        self,
        mask: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        power,
        perf,
        source: str,
        label,
        suffix: str = "",
    ) -> None:
        """Replicates ``PowerTrace.record`` + the [0, T] integrals.

        ``power``/``perf`` may be scalars or arrays; ``label`` is a string
        or each cell's phase index, named (plus ``suffix``) only when
        traces are collected.  Zero-length segments are dropped, exactly
        as ``record`` drops them.
        """
        power = np.broadcast_to(np.asarray(power, dtype=float), (self.n,))
        perf = np.broadcast_to(np.asarray(perf, dtype=float), (self.n,))
        live = mask & (end > start)
        if not live.any():
            return
        # peak_power_watts: max over recorded segments' raw power.
        self.peak_power[live] = np.maximum(
            self.peak_power[live], power[live]
        )
        # Window overlap with [0, T], clamped as the scalar integrals do.
        lo = np.maximum(start, 0.0)
        hi = np.minimum(end, self.T)
        overlap = live & (hi > lo)
        if overlap.any():
            width = hi[overlap] - lo[overlap]
            self.covered_total[overlap] += width
            up = overlap & (perf > 0)
            self.covered_up[up] += hi[up] - lo[up]
            self.perf_integral[overlap] += perf[overlap] * width
        if self.traces is not None:
            names = self.k.names
            for i in np.flatnonzero(live):
                name = (
                    label if isinstance(label, str)
                    else names[label[i]] + suffix
                )
                self.traces[i].append(
                    (
                        float(start[i]),
                        float(end[i]),
                        float(power[i]),
                        float(perf[i]),
                        source,
                        name,
                    )
                )

    # -- battery / DG kernels -----------------------------------------------

    def _ups_full_runtime(self, mask: np.ndarray) -> np.ndarray:
        """Full (SoC=1) runtime at each masked cell's current phase load,
        via the exact expressions of the scalar stores."""
        k = self.k
        full = np.full(self.n, math.inf)
        if not k.has_ups:
            return full
        pidx = self.idx
        if not k.server_placed:
            full[mask] = k.pooled_full_runtime[pidx[mask]]
            return full
        # Server placement: per_unit over the *monotone* active set, the
        # same expression ServerLevelBatteryBank.remaining_runtime_at and
        # .discharge evaluate.
        power = k.power[pidx]
        per_unit = np.empty(self.n)
        per_unit[mask] = power[mask] / self.units[mask]
        # A non-monotone plan can shrink the monotone set below the
        # phase's own active count, overloading the survivors even though
        # the store-level can_carry (phase count) passed.  The bank's
        # query path reports 0 s remaining for that, so the segment has
        # zero length and the discharge never happens — replicate by
        # giving those cells a zero "full runtime".
        over = mask & (per_unit > k.unit_cap * (1 + 1e-9))
        ok = mask & ~over
        ratio = np.empty(self.n)
        ratio[ok] = k.unit_cap / per_unit[ok]
        full[ok] = k.unit_runtime * ratio[ok] ** k.peukert_k
        full[over] = 0.0
        return full

    def _ups_exhausted(self) -> np.ndarray:
        k = self.k
        if not k.has_ups:
            return np.ones(self.n, dtype=bool)
        if k.server_placed:
            return (self.soc <= 1e-12) | (k.unit_runtime <= 0)
        return (self.soc <= 1e-12) | (k.ups_rated_runtime <= 0)

    def _apply_active(self, mask: np.ndarray) -> None:
        """Shrink the monotone active set on UPS *queries*, stranding the
        parked packs' charge — the bank's ``_apply_active`` semantics."""
        if not self.k.server_placed or not mask.any():
            return
        phase_units = self.k.active_units[self.idx]
        self.units[mask] = np.minimum(self.units[mask], phase_units[mask])

    def _ups_carry(self, mask: np.ndarray, full: np.ndarray) -> None:
        """Discharge masked cells for their just-recorded segment, using
        the scalar ``Battery.discharge`` expressions."""
        power = self.k.power[self.idx]
        duration = self.seg_end - self.t
        # Battery.discharge returns before touching state when the
        # requested duration is zero (zero-length segments happen when a
        # query reported 0 s remaining); skipping those cells also keeps
        # the 0/0 out of the soc update.
        mask = mask & (duration > 0)
        if not mask.any():
            return
        available = np.empty(self.n)
        available[mask] = self.soc[mask] * full[mask]
        sustained = np.zeros(self.n)
        sustained[mask] = np.minimum(duration[mask], available[mask])
        self.soc[mask] = np.maximum(
            0.0, self.soc[mask] - sustained[mask] / full[mask]
        )
        self.ups_energy[mask] += power[mask] * sustained[mask]

    def _dg_carry(
        self, mask: np.ndarray, load, wanted: np.ndarray
    ) -> np.ndarray:
        """Vectorized ``DieselGenerator.carry``: returns seconds sustained
        (== ``wanted`` where load <= 0 or wanted == 0, fuel untouched)."""
        load = np.broadcast_to(np.asarray(load, dtype=float), (self.n,))
        sustained = np.zeros(self.n)
        if not mask.any():
            return sustained
        trivial = mask & ((load <= 0) | (wanted == 0))
        sustained[trivial] = wanted[trivial]
        burn = mask & ~trivial
        if burn.any():
            sustained[burn] = np.minimum(
                wanted[burn], self.fuel[burn] / load[burn]
            )
            self.fuel[burn] -= load[burn] * sustained[burn]
        return sustained

    # -- adaptive phases ----------------------------------------------------

    def _enter_phase(self, mask: np.ndarray) -> None:
        """Set ``phase_remaining`` for cells that just entered ``idx``
        (vectorized ``_phase_duration_on_entry``)."""
        if not mask.any():
            return
        k = self.k
        fixed = mask & ~k.is_adaptive[self.idx]
        self.phase_remaining[fixed] = k.fixed_duration[self.idx[fixed]]
        adaptive = mask & k.is_adaptive[self.idx]
        if not adaptive.any():
            return
        for a in np.unique(self.idx[adaptive]):
            cells = adaptive & (self.idx == a)
            self._adaptive_hold(cells, int(a))

    def _adaptive_hold(self, mask: np.ndarray, a: int) -> None:
        """Vectorized ``_OutageRun._adaptive_hold`` +
        :func:`~repro.sim.outage_sim.solve_hold_time` for phase ``a``."""
        k = self.k
        horizon = np.where(
            self.dg_full, np.minimum(self.T, self.t_dg), self.T
        )
        rw = horizon - self.t
        if not k.has_ups:
            # No battery to ration: hold to the horizon (clamped at 0).
            self.phase_remaining[mask] = np.where(
                rw[mask] <= 0, 0.0, rw[mask]
            )
            return
        consts = k.adaptive_consts.get(a)
        if consts is None:
            raise SimulationError("plan has multiple adaptive/terminal phases")
        rate_hold, rate_save, committed_soc, committed_time = consts
        soc = self.soc * (1.0 - _RESERVE_SLACK)
        # solve_hold_time as a branch-order-preserving where-cascade.
        if math.isinf(rate_hold):
            self.phase_remaining[mask] = np.where(rw[mask] <= 0, 0.0, 0.0)
            return
        ride = rate_hold * rw <= soc
        max_hold = np.maximum(0.0, rw - committed_time)
        if rate_hold <= rate_save + _EPS:
            tail = max_hold
        else:
            budget = soc - committed_soc - max_hold * rate_save
            hold = budget / (rate_hold - rate_save)
            # Python's min/max, not numpy's: max(0.0, nan) is 0.0 for the
            # builtin (the comparison fails, the first argument wins), and
            # a nan budget does occur when a committed phase pairs an
            # infinite drain rate with a zero duration.
            clipped = np.where(hold > 0.0, hold, 0.0)
            tail = np.where(max_hold < clipped, max_hold, clipped)
        result = np.where(rw <= 0, 0.0, np.where(ride, rw, tail))
        self.phase_remaining[mask] = result[mask]

    # -- terminal paths -----------------------------------------------------

    def _utility_restore(self, mask: np.ndarray) -> None:
        if not mask.any():
            return
        k = self.k
        pidx = self.idx
        cr = np.where(
            k.committed[pidx] & np.isfinite(self.phase_remaining),
            np.maximum(0.0, self.phase_remaining),
            0.0,
        )
        self.downtime_after[mask] = (
            cr[mask] * (1.0 - k.perf[pidx[mask]]) + k.resume[pidx[mask]]
        )
        self.done[mask] = True

    def _crash(self, mask: np.ndarray, when: np.ndarray) -> None:
        """Vectorized ``_OutageRun._crash`` (fault-free: no run limits)."""
        if not mask.any():
            return
        k = self.k
        pidx = self.idx
        cp = k.crash_perf[pidx]
        self.crashed[mask] = True
        self.crash_time[mask] = when[mask]
        power_return = np.where(
            self.dg_full, np.minimum(self.T, self.t_dg), self.T
        )
        power_return = np.maximum(power_return, when)
        recovery_end = power_return + k.recovery
        self._accumulate(
            mask & (cp > 0) & (power_return > when),
            when,
            power_return,
            0.0,
            cp,
            SourceKind.NONE.value,
            "degraded-after-local-loss",
        )
        on_dg = mask & (power_return < self.T)
        if on_dg.any():
            boot_end = np.minimum(recovery_end, self.T)
            self._accumulate(
                on_dg,
                power_return,
                boot_end,
                k.normal_power,
                cp,
                SourceKind.DG.value,
                "crash-recovery",
            )
            self._dg_carry(on_dg, k.normal_power, boot_end - power_return)
            serving = on_dg & (recovery_end < self.T)
            if serving.any():
                wanted = np.zeros(self.n)
                wanted[serving] = self.T[serving] - recovery_end[serving]
                sustained = self._dg_carry(serving, k.normal_power, wanted)
                self._accumulate(
                    serving,
                    recovery_end,
                    recovery_end + sustained,
                    k.normal_power,
                    1.0,
                    SourceKind.DG.value,
                    "full-service-on-dg",
                )
            self.downtime_after[on_dg] = np.maximum(
                0.0, recovery_end[on_dg] - self.T[on_dg]
            ) * (1.0 - cp[on_dg])
        off_dg = mask & ~on_dg
        self.downtime_after[off_dg] = k.recovery * (1.0 - cp[off_dg])
        self.t[mask] = self.T[mask]
        self.done[mask] = True

    def _dg_died(self, mask: np.ndarray, when: np.ndarray) -> None:
        """Vectorized ``_OutageRun._dg_died`` — fuel ran out while the DG
        carried the restored fleet."""
        if not mask.any():
            return
        k = self.k
        cp = k.crash_perf[self.idx]
        self.dg_full[mask] = False
        self.restored[mask] = False
        self.crashed[mask] = True
        self.crash_time[mask] = when[mask]
        self._accumulate(
            mask & (cp > 0) & (self.T > when),
            when,
            self.T,
            0.0,
            cp,
            SourceKind.NONE.value,
            "degraded-after-local-loss",
        )
        self.downtime_after[mask] = k.recovery * (1.0 - cp[mask])
        self.t[mask] = self.T[mask]
        self.done[mask] = True

    def _dg_restore(self, mask: np.ndarray) -> None:
        """Vectorized ``_OutageRun._internal_dg_restore``."""
        if not mask.any():
            return
        k = self.k
        pidx = self.idx
        cr = np.where(
            k.committed[pidx] & np.isfinite(self.phase_remaining),
            np.maximum(0.0, self.phase_remaining),
            0.0,
        )
        resume = k.resume[pidx]
        start = np.maximum(self.t, self.t_dg)
        commit_end = start + cr
        resume_end = commit_end + resume
        self.restored[mask] = True
        alive = mask.copy()

        # Committed-completion segment.
        seg = alive & (cr > 0)
        if seg.any():
            seg_end = np.minimum(commit_end, self.T)
            seg &= seg_end > start
            wanted = np.zeros(self.n)
            wanted[seg] = seg_end[seg] - start[seg]
            load = np.minimum(k.power[pidx], k.normal_power)
            sustained = self._dg_carry(seg, load, wanted)
            self._accumulate(
                seg & (sustained > 0),
                start,
                start + sustained,
                k.power[pidx],
                k.perf[pidx],
                SourceKind.DG.value,
                pidx,
                "-completing",
            )
            died = seg & (sustained < wanted - _EPS)
            self._dg_died(died, start + sustained)
            alive &= ~died
        # Resume segment.
        seg = alive & (resume > 0)
        if seg.any():
            seg_start = np.minimum(commit_end, self.T)
            seg_end = np.minimum(resume_end, self.T)
            seg &= seg_end > seg_start
            wanted = np.zeros(self.n)
            wanted[seg] = seg_end[seg] - seg_start[seg]
            sustained = self._dg_carry(seg, k.normal_power, wanted)
            self._accumulate(
                seg & (sustained > 0),
                seg_start,
                seg_start + sustained,
                k.normal_power,
                0.0,
                SourceKind.DG.value,
                "resuming",
            )
            died = seg & (sustained < wanted - _EPS)
            self._dg_died(died, seg_start + sustained)
            alive &= ~died
        # Full service on DG until utility returns.
        seg = alive & (resume_end < self.T)
        if seg.any():
            wanted = np.zeros(self.n)
            wanted[seg] = self.T[seg] - resume_end[seg]
            sustained = self._dg_carry(seg, k.normal_power, wanted)
            self._accumulate(
                seg & (sustained > 0),
                resume_end,
                resume_end + sustained,
                k.normal_power,
                1.0,
                SourceKind.DG.value,
                "full-service-on-dg",
            )
            died = seg & (sustained < wanted - _EPS)
            self._dg_died(died, resume_end + sustained)
            alive &= ~died
        self.downtime_after[alive] = np.maximum(
            0.0, resume_end[alive] - self.T[alive]
        )
        self.t[alive] = self.T[alive]
        self.done[alive] = True

    # -- main loop ----------------------------------------------------------

    def execute(self) -> BatchOutcomes:
        k = self.k
        self._enter_phase(np.ones(self.n, dtype=bool))

        # Section 3's seamlessness precondition (no PSU faults here).
        if not k.seamless and k.power[0] > 0:
            self._crash(np.ones(self.n, dtype=bool), np.zeros(self.n))

        max_iter = _MAX_ITER_BASE + _MAX_ITER_PER_PHASE * k.num_phases
        iterations = 0
        while not self.done.all():
            iterations += 1
            if iterations > max_iter:
                raise SimulationError(
                    "batch kernel failed to converge (loop bound exceeded)"
                )
            live = ~self.done

            # Loop-condition exit -> utility restore.
            at_end = live & (self.t >= self.T - _EPS)
            self._utility_restore(at_end)
            live &= ~at_end
            if not live.any():
                continue

            # Full-capacity DG arrival at the top of the loop.
            arrive = live & self.dg_full & (self.t >= self.t_dg - _EPS)
            self._dg_restore(arrive)
            live &= ~self.done
            if not live.any():
                continue

            pidx = self.idx
            power = k.power[pidx]

            # Source selection, in the scalar engine's preference order.
            src = np.full(self.n, _SRC_CRASH, dtype=np.int8)
            src[live & (power <= 0)] = _SRC_NONE
            dg_ok = (
                live
                & (power > 0)
                & self.dg_usable
                & (self.t >= self.t_dg - _EPS)
                & k.dg_can_carry[pidx]
                & (self.fuel > 0)
            )
            src[dg_ok] = _SRC_DG
            ups_ok = (
                live
                & (power > 0)
                & ~dg_ok
                & k.ups_can_carry[pidx]
                & ~self._ups_exhausted()
            )
            src[ups_ok] = _SRC_UPS
            nobody = live & (src == _SRC_CRASH)
            self._crash(nobody, self.t.copy())
            live &= ~nobody
            if not live.any():
                continue

            is_ups = live & (src == _SRC_UPS)
            is_dg = live & (src == _SRC_DG)

            # Segment end: min over the scalar candidate list.
            self._apply_active(is_ups)  # store query strands charge first
            full = self._ups_full_runtime(is_ups)
            seg_end = self.T.copy()
            before_dg = live & self.dg_usable & (self.t < self.t_dg)
            seg_end[before_dg] = np.minimum(
                seg_end[before_dg], self.t_dg[before_dg]
            )
            finite_phase = live & np.isfinite(self.phase_remaining)
            seg_end[finite_phase] = np.minimum(
                seg_end[finite_phase],
                self.t[finite_phase] + self.phase_remaining[finite_phase],
            )
            if is_ups.any():
                remaining = np.zeros(self.n)
                remaining[is_ups] = self.soc[is_ups] * full[is_ups]
                seg_end[is_ups] = np.minimum(
                    seg_end[is_ups], self.t[is_ups] + remaining[is_ups]
                )
            if is_dg.any():
                seg_end[is_dg] = np.minimum(
                    seg_end[is_dg],
                    self.t[is_dg] + self.fuel[is_dg] / power[is_dg],
                )
            self.seg_end = seg_end
            if np.any(seg_end[live] < self.t[live]):
                raise SimulationError("segment moved backwards")

            # Advance: record the segment, then carry.  Sources differ per
            # cell; record per source bucket so the trace strings match.
            self._accumulate(
                is_ups, self.t, seg_end, power, k.perf[pidx],
                SourceKind.UPS.value, pidx,
            )
            self._accumulate(
                is_dg, self.t, seg_end, power, k.perf[pidx],
                SourceKind.DG.value, pidx,
            )
            none_m = live & (src == _SRC_NONE)
            self._accumulate(
                none_m, self.t, seg_end, power, k.perf[pidx],
                SourceKind.NONE.value, pidx,
            )
            self._ups_carry(is_ups, full)
            if is_dg.any():
                wanted = np.zeros(self.n)
                wanted[is_dg] = seg_end[is_dg] - self.t[is_dg]
                self._dg_carry(is_dg, power, wanted)
            self.phase_remaining[finite_phase] -= (
                seg_end[finite_phase] - self.t[finite_phase]
            )
            self.t[live] = seg_end[live]

            # Dispatch the boundary, preserving the scalar branch order.
            pending = live & (seg_end < self.T - _EPS)
            at_dg = (
                pending
                & self.dg_usable
                & (np.abs(seg_end - self.t_dg) <= _EPS)
            )
            self._dg_restore(at_dg & self.dg_full)
            # A not-yet-full-capacity DG arriving exactly on a phase
            # boundary must still let the phase advance (the scalar
            # engine's coincidence fix); only defer cells whose phase has
            # time left.
            defer = at_dg & ~self.dg_full & (self.phase_remaining > _EPS)
            pending &= ~(at_dg & self.dg_full) & ~defer
            phase_over = pending & (self.phase_remaining <= _EPS)
            dry = pending & ~phase_over
            # Battery/DG ran dry mid-phase: state-safe phases wait at 0 W,
            # everything else crashes now.
            safe = dry & k.state_safe[pidx]
            self.phase_remaining[safe] = math.inf
            self._crash(dry & ~safe, seg_end.copy())
            # Phase transitions last: idx advances, entry durations solve.
            if phase_over.any():
                self.idx[phase_over] += 1
                if np.any(self.idx[phase_over] >= k.num_phases):
                    raise SimulationError("ran past the terminal phase")
                self._enter_phase(phase_over)

        return self._outcomes()

    # -- outcome assembly ---------------------------------------------------

    def _outcomes(self) -> BatchOutcomes:
        k = self.k
        window = self.T
        downtime_during = (window - self.covered_total) + (
            self.covered_total - self.covered_up
        )
        # PowerTrace.zero_performance_seconds' max(0.0, x), element-wise.
        downtime_during = np.where(downtime_during > 0.0, downtime_during, 0.0)
        mean_perf = self.perf_integral / window
        if k.has_ups:
            soc_end = self.soc
            charge_used = self.soc0 - soc_end
            ups_energy = self.ups_energy
        else:
            soc_end = np.zeros(self.n)
            charge_used = np.zeros(self.n)
            ups_energy = np.zeros(self.n)
        return BatchOutcomes(
            technique_name=k.plan.technique_name,
            outage_seconds=self.T,
            crashed=self.crashed,
            crash_time_seconds=self.crash_time,
            downtime_during_outage_seconds=downtime_during,
            downtime_after_restore_seconds=self.downtime_after,
            mean_performance=mean_perf,
            ups_charge_consumed=charge_used,
            ups_state_of_charge_end=soc_end,
            ups_energy_joules=ups_energy,
            dg_energy_joules=k.dg_fuel0 - self.fuel,
            peak_backup_power_watts=self.peak_power,
            restored_by_dg=self.restored,
            traces=self.traces,
        )

