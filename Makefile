PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint test test-fast bench-smoke perfbench-check service-smoke verify

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

# End-to-end golden gate: one table4_cold pass of perfbench, traced
# (--trace 1 runs the untraced pass too, then a pass with every
# perfbench/spans.py target wrapped, so a target that stops resolving or
# a wrapped call that changes shape fails here), which solves every
# replan and writes the disk tier, one table4_warm
# pass, which replays the goldens through disk-tier loads (the replan
# codec's read side), and one sweep_static_par pass, also traced, which
# checks the two-worker pool path (lockstep static replay, shared-memory
# rows, the PeriodLB makespans taken from the candidate lanes) and the
# merge of the workers' span files; every (policy, trace) is checked
# against perfbench/goldens/.  The sweep needs two
# CPUs (run.py refuses it on fewer) and is skipped with a message there.
# run.py exits 0 even on a golden mismatch, so its last stdout line
# (the JSON result) is checked here; no output at all fails too.
perfbench-check:
	workloads="table4_cold table4_warm"; \
	if [ "$$(nproc)" -ge 2 ]; then \
		workloads="$$workloads sweep_static_par"; \
	else \
		echo "perfbench-check: fewer than 2 CPUs -- skipping sweep_static_par"; \
	fi; \
	for workload in $$workloads; do \
		trace=1; [ "$$workload" = table4_warm ] && trace=0; \
		$(PYTHON) perfbench/run.py --workload $$workload --seconds 1 --trace $$trace \
			| $(PYTHON) -c 'import json, sys; lines = sys.stdin.read().splitlines(); print(*lines, sep="\n"); doc = json.loads(lines[-1]) if lines else {}; sys.exit(0 if doc.get("correct") is True and doc.get("failed") == 0 else "perfbench-check: goldens not matched")' \
			|| exit 1; \
	done

# Scenario-service acceptance check: boots a real daemon on an
# ephemeral port, drives it through the CLI, asserts daemon results are
# bit-identical to a direct `repro run` and that resubmission is served
# from the result store (docs/service.md).
service-smoke:
	$(PYTHON) -m repro.service.smoke

# Local pre-merge check.  CI runs lint, bench-smoke, perfbench-check,
# service-smoke and the full suite (a superset of test-fast) as one
# step each instead.
verify: lint test-fast bench-smoke service-smoke
