# Developer entry points.  Everything runs from the repo root with the
# in-tree package on PYTHONPATH — no install step required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test golden bench bench-smoke batch-smoke bench-obs selfcheck trace-smoke chaos-smoke serve-smoke policy-smoke telemetry-smoke drill-smoke fleet-smoke

test:
	$(PYTHON) -m pytest -x -q

# Golden payloads: every request in the tests/golden/ corpora must
# reproduce its committed SHA-256 (see tests/golden/test_golden.py), the
# lowest-cost UPS search must match its bisecting reference loop on
# every result and every probe (tests/golden/test_sizing_oracle.py), and
# the array outage sampler must match the object-based one on every
# start, duration and generator state, rare paths included
# (tests/golden/test_sampler_oracle.py), and the one-pass stream seeds
# (repro.runner.jobs.child_streams/restate) must equal numpy's
# SeedSequence and PCG64 on 3 roots x 100k years of the (i, 0) and
# (i, 1) streams (tests/golden/test_stream_oracle.py), and the
# lane-parallel sampler (repro.outages.generator.sample_year_lanes,
# repro.vsim.yearly.draw_dg_starts) must equal the scalar one on the
# outages and DG rolls of the same 3 roots x 100k years
# (tests/golden/test_lane_oracle.py), and numpy's exponential ziggurat
# tables, committed in repro.runner.ziggurat, must equal the ones
# re-derived from the installed numpy (tests/golden/test_ziggurat_tables.py),
# and the fleet router's routed and unrouted totals must equal the
# per-interval scalar loop on every named fleet, shocked and not, at
# 3 roots x 40 years (tests/golden/test_route_oracle.py).
golden:
	$(PYTHON) -m pytest -q tests/golden

# Fast invariant sweep: closed forms vs numeric oracles over the Table-3
# space, plus a short guarded fuzz run (see docs/CHECKS.md).
selfcheck:
	$(PYTHON) -m repro.cli selfcheck --fast

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# One cached-vs-uncached sweep through repro.runner (cache gate), then
# the same outage cells through both engines (scaling gate): the batch
# kernel must be bit-identical to the scalar path and clear a 10x
# cells/sec speedup.  Writes BENCH_sim.json and gates it as the sim
# ledger stream; CI uploads it as an artifact.  The smoke's timings are
# short and noisy, so the gate runs at the loose smoke tolerance.
bench-smoke:
	$(PYTHON) benchmarks/bench_smoke.py
	$(PYTHON) -m repro.cli bench record
	$(PYTHON) -m repro.cli bench check --tolerance 0.5 --bench sim

# Certify the vectorized engine: every registered technique over the
# Table-3 grid, full Monte-Carlo years at a mid-study block split, and
# a seeded bounded scalar<->batch differential fuzz run — all
# bit-identical (see docs/BATCH.md).
batch-smoke:
	$(PYTHON) benchmarks/batch_smoke.py

# Holds repro.obs's zero-overhead-when-off contract to measurement
# (see docs/OBSERVABILITY.md).
bench-obs:
	$(PYTHON) benchmarks/bench_obs_overhead.py

# A tiny traced availability run across 2 workers, schema-validated as
# Chrome trace_event JSON and rendered back through `repro stats`.
# CI uploads the resulting trace-smoke.json as an artifact.
trace-smoke:
	$(PYTHON) -m repro.cli availability -w specjbb -c LargeEUPS -t sleep-l \
		--years 3 --jobs 2 \
		--trace trace-smoke.json --metrics trace-smoke.jsonl
	$(PYTHON) -m repro.obs.validate trace-smoke.json
	$(PYTHON) -m repro.cli stats trace-smoke.jsonl

# Break the runner on purpose — worker kills, transient failures, cache
# corruption — over a fault-injected sweep, and fail unless every
# recovery path reproduces the undisturbed baseline bit-for-bit (see
# docs/FAULTS.md).  CI uploads chaos-smoke.json/.jsonl as an artifact;
# the trace records every fault activation as an event.
chaos-smoke:
	$(PYTHON) -m repro.cli chaos -w websearch -c MaxPerf -t full-service \
		--years 6 --jobs 2 --kills 1 --flaky 1 --corrupt 2 \
		--faults "dg_start=0.2,dg_mtbf_h=2,batt_fade=0.1" \
		--trace chaos-smoke.json --metrics chaos-smoke.jsonl
	$(PYTHON) -m repro.obs.validate chaos-smoke.json

# Certify the evaluation service: CLI-vs-HTTP byte-identical payloads
# (shared result cache), duplicate-request coalescing, a clean closed-loop
# mixed workload under capacity, and visible 429 shedding when a burst
# oversubscribes a tiny queue (see docs/SERVE.md).  Writes
# BENCH_serve.json; CI uploads it as an artifact.
serve-smoke:
	$(PYTHON) benchmarks/serve_smoke.py

# Certify the serve observability layer against a live server: request
# ids round-trip to full span trees (coalesced riders name their
# leader), /healthz + /slo report rolling tails and error-budget burn,
# Prometheus exposition passes the grammar validator, and the bench
# ledger gate passes on the real trajectory while failing on an
# injected regression (see docs/OBSERVABILITY.md).  Appends to
# BENCH_history.jsonl; CI uploads it as an artifact.  The ~3 s smoke
# loadgen samples are noisy, so the gate runs at a loose 50% tolerance
# here; the stricter 15% default suits longer local loadgen runs.
telemetry-smoke:
	$(PYTHON) benchmarks/telemetry_smoke.py
	$(PYTHON) -m repro.cli bench check --tolerance 0.5 --bench serve-telemetry

# Chaos-certify the supervised serve tier: seeded worker SIGKILLs and
# cache corruption under load with bit-identical 2xx responses, a poison
# request quarantined without crash-looping the pool, brownout tiers
# entered in declared order and unwound, and a multi-worker scaling axis
# that must beat the single-process baseline (see docs/RESILIENCE.md).
# Writes drill-report.json + BENCH_drill.json (the serve-drill ledger
# stream) and runs the bench-ledger gate; CI uploads both as artifacts.
# The drill's short closed loops are noisy, so the gate runs at the
# loose smoke tolerance.
drill-smoke:
	$(PYTHON) -m repro.cli drill --report drill-report.json \
		--bench BENCH_drill.json
	$(PYTHON) -m repro.cli bench record
	$(PYTHON) -m repro.cli bench check --tolerance 0.5 --bench serve-drill

# Certify the online-dispatch policy subsystem: StaticPolicy outcomes
# identical to the plan path, the hindsight baseline an upper bound on
# every online policy, and at least one adaptive policy strictly
# dominating a static Table-3 cell (see docs/POLICY.md).  Writes
# BENCH_policy.json and gates it as the policy ledger stream; CI uploads
# it as an artifact.
policy-smoke:
	$(PYTHON) benchmarks/policy_smoke.py
	$(PYTHON) -m repro.cli bench record
	$(PYTHON) -m repro.cli bench check --tolerance 0.5 --bench policy

# Certify the multi-site fleet subsystem: worker-count-invariant fleet
# years, the uncorrelated-fleet == independent-single-sites bit-identical
# regression, shock correlation strictly raising multi-site outage
# probability, and a fleet-frontier verdict where fleet-level
# provisioning dominates the best single-site Table-3 config (see
# docs/FLEET.md).  Writes BENCH_fleet.json and gates it as its own
# ledger stream; CI uploads both as artifacts.  The smoke's short
# Monte-Carlo runs are noisy, so the gate runs at the loose tolerance.
fleet-smoke:
	$(PYTHON) benchmarks/fleet_smoke.py
	$(PYTHON) -m repro.cli bench record
	$(PYTHON) -m repro.cli bench check --tolerance 0.5 --bench fleet
