PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint test test-fast bench-smoke bench-engine bench-dp \
	bench-solvecache bench-sweep perfbench-check service-smoke verify

# Static analysis.  reprolint (stdlib-only, part of this package) runs
# its whole rule set — per-file, whole-program and interprocedural — in
# one uncached serial pass over src/ and tests/ (~3 s).  ruff and mypy
# run only where installed — CI installs both.
lint:
	$(PYTHON) -m repro lint src tests
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed -- skipping (CI runs it)"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed -- skipping (CI runs it)"; \
	fi

# Full tier-1 suite.
test:
	$(PYTHON) -m pytest -x

# Fast lane: skips the @pytest.mark.slow DP/integration tests (~3x faster).
test-fast:
	$(PYTHON) -m pytest -x -m "not slow"

# Tiny end-to-end benchmark: Figure 2 experiment at smoke scale with the
# parallel runner engaged.  Exercises trace generation, every policy
# family, the DP cache, and the process pool in a few seconds.
bench-smoke:
	REPRO_BENCH_SCALE=smoke REPRO_BENCH_TRACES=2 REPRO_BENCH_PETA=64 \
	REPRO_BENCH_PPOINTS=2 REPRO_BENCH_JOBS=2 \
		$(PYTHON) -m pytest benchmarks/bench_fig2_peta_exp.py --benchmark-only -q

# Engine benchmark at smoke scale: verifies the batch replay and the
# vectorized DPMakespan sweep are bit-identical to their scalar/loop
# references (full scale: python benchmarks/bench_engine.py).
bench-engine:
	$(PYTHON) benchmarks/bench_engine.py --smoke

# Adaptive-policy pipeline benchmark at smoke scale: verifies the
# vectorized kernels, replan memo and shared-memory publication are
# bit-identical (full scale: python benchmarks/bench_dp_pipeline.py).
bench-dp:
	$(PYTHON) benchmarks/bench_dp_pipeline.py --smoke

# Persistent solve-cache benchmark at smoke scale: verifies cold,
# disk-warm (second process) and shared-memo (--jobs 2) runs are
# bit-identical (full scale: python benchmarks/bench_solvecache.py).
bench-solvecache:
	$(PYTHON) benchmarks/bench_solvecache.py --smoke

# Grid-sweep benchmark at smoke scale: verifies the shared-trace sweep
# plan is bit-identical to running every grid point independently
# (full scale: python benchmarks/bench_sweep.py).
bench-sweep:
	$(PYTHON) benchmarks/bench_sweep.py --smoke

# End-to-end golden gate: one table4_cold pass of perfbench (~30 s),
# which solves every replan and writes the disk tier, then one
# table4_warm pass, which replays the goldens through disk-tier loads
# (the replan codec's read side); every (policy, trace) is checked
# against perfbench/goldens/.  run.py exits 0 even on a golden
# mismatch, so its last stdout line (the JSON result) is checked here;
# no output at all fails too.
perfbench-check:
	for workload in table4_cold table4_warm; do \
		$(PYTHON) perfbench/run.py --workload $$workload --seconds 1 --trace 0 \
			| $(PYTHON) -c 'import json, sys; lines = sys.stdin.read().splitlines(); print(*lines, sep="\n"); doc = json.loads(lines[-1]) if lines else {}; sys.exit(0 if doc.get("correct") is True and doc.get("failed") == 0 else "perfbench-check: goldens not matched")' \
			|| exit 1; \
	done

# Scenario-service acceptance check: boots a real daemon on an
# ephemeral port, drives it through the CLI, asserts daemon results are
# bit-identical to a direct `repro run` and that resubmission is served
# from the result store (docs/service.md).
service-smoke:
	$(PYTHON) -m repro.service.smoke

# What CI / pre-merge should run (CI also runs bench-engine as its own
# step).
verify: lint test-fast bench-smoke service-smoke
