"""repro.vsim: numpy-vectorized batch evaluation of outage cells.

The scalar simulator (:mod:`repro.sim.outage_sim`) plays one
(configuration, outage, seed) cell at a time.  This package evaluates
*batches* of cells as numpy arrays:

* :class:`~repro.vsim.kernel.PlanKernel` — one compiled (datacenter,
  plan) pair evaluating thousands of (duration, initial-SoC, dg-starts)
  cells in lockstep, replicating ``_OutageRun``'s control flow
  op-for-op so fault-free results are *bit-identical* to the scalar
  engine (see docs/BATCH.md for the equivalence argument).
* :mod:`~repro.vsim.yearly` — batch Monte-Carlo years threading
  cross-outage SoC and DG-start state exactly as
  :class:`~repro.sim.yearly.YearlyRunner` does, with the same
  SeedSequence spawn discipline as the runner's per-year jobs; every
  fault-free availability study and every ``fleet_frontier`` cell runs
  on it.
* :mod:`~repro.vsim.equivalence` / :mod:`~repro.vsim.fuzz` — the
  certification harness: grid equivalence over every registered
  technique and the Table-3 configurations, plus a differential
  scalar-vs-batch fuzzer (``make batch-smoke``).

The kernel is the year-block and fleet engine.  Point evaluation
(``evaluate``, ``rank``, ``sweep``, ``whatif``) stays on the scalar
simulator: one point is a one-lane batch that would pay a kernel
compile and win nothing.
"""

from repro.vsim.kernel import BatchOutcomes, PlanKernel

__all__ = [
    "BatchOutcomes",
    "PlanKernel",
]
