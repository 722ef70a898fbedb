# One-command entry points shared by CI (.github/workflows/ci.yml) and
# local development.  ``make test`` is the tier-1 verify command.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: help test test-fast lint format bench-smoke bench bench-train bench-decode bench-precision bench-serve bench-scenarios bench-learn bench-pairs bench-chaos chaos chaos-workers scenarios docs-check smoke-artifacts smoke-serve smoke-learn clean

help:
	@echo "Targets:"
	@echo "  test            tier-1 verify: full pytest (tests + benchmarks)"
	@echo "  test-fast       pytest over tests/ only"
	@echo "  lint            ruff check + format check"
	@echo "  format          ruff format (in place)"
	@echo "  bench           benchmark suite (pytest benchmarks/), refreshes benchmarks/results/"
	@echo "  bench-smoke     quick table5 experiment profile"
	@echo "  bench-train     fused training-pass timings (train + cache-free eval), pit-fit, make-windows"
	@echo "  bench-decode    fused warm-up/decode timings per shape + page faults per submit"
	@echo "  bench-precision float32/int8 precision tiers: speedup + parity profile"
	@echo "  bench-serve     serving-gateway overhead/isolation benchmark"
	@echo "  bench-scenarios scenario-engine throughput profile"
	@echo "  bench-learn     continuous-learning loop stage timings"
	@echo "  bench-pairs     alternated perfbench runs of PARENT and this tree, judged by bench_compare"
	@echo "                  (PARENT=<parent checkout> WORKLOAD=forecast-gateway PAIRS=5 SECONDS=10)"
	@echo "  chaos           serving chaos gates: retries, SIGKILL+journal recovery, overload"
	@echo "  chaos-workers   worker-pool chaos gates: replica kill failover, hang detection, gateway kill"
	@echo "  scenarios       validate the shipped what-if workload matrix"
	@echo "  docs-check      markdown link check + scenario matrix validation"
	@echo "  smoke-artifacts cross-process artifact store round trip"
	@echo "  smoke-serve     repro-serve subprocess byte-identity smoke"
	@echo "  smoke-learn     repro-learn loop: retrain, shadow-eval, promote, rollback"
	@echo "  clean           remove caches and benchmark results"

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest tests -x -q

lint:
	ruff check src tests benchmarks examples
	ruff format --check src tests benchmarks examples

format:
	ruff format src tests benchmarks examples

bench-smoke:
	$(PYTHON) -m repro.experiments.runner table5 --profile quick

bench-train:
	$(PYTHON) -m repro.profiling.training

bench-decode:
	$(PYTHON) -m repro.profiling.decode

bench-precision:
	$(PYTHON) -m repro.profiling.precision

bench-serve:
	$(PYTHON) -m repro.profiling.server

bench-scenarios:
	$(PYTHON) -m repro.profiling.scenarios

bench-learn:
	$(PYTHON) -m repro.profiling.learning

# A/B of this tree against PARENT (a checkout of the parent commit): per
# seed 1..PAIRS, one perfbench run of each side, the side that runs first
# alternating by seed, each from its own source tree (PYTHONPATH cleared);
# the last stdout line of every run goes to parent.jsonl / change.jsonl in
# a temp dir outside the tree (removed on exit), then tools/bench_compare.py
# judges the pairs
PAIRS ?= 5
SECONDS ?= 10
WORKLOAD ?= forecast-gateway

bench-pairs:
	@test -n "$(PARENT)" || { echo "bench-pairs: set PARENT=<checkout of the parent commit>" >&2; exit 2; }
	@out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; echo "bench-pairs: runs in $$out"; \
	for seed in $$(seq 1 $(PAIRS)); do \
		if [ $$((seed % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			if [ $$side = parent ]; then root="$(PARENT)"; else root="$(CURDIR)"; fi; \
			PYTHONPATH= $(PYTHON) "$$root/perfbench/run.py" --workload $(WORKLOAD) \
				--seed $$seed --seconds $(SECONDS) > "$$out/run.txt" || exit 1; \
			tail -n 1 "$$out/run.txt" >> "$$out/$$side.jsonl"; \
		done; \
	done; \
	$(PYTHON) tools/bench_compare.py "$$out/parent.jsonl" "$$out/change.jsonl"

# run the shipped what-if workload matrix in-process (results under
# benchmarks/results/scenarios/); forecast scoring needs --store
scenarios:
	$(PYTHON) -m repro.scenarios.runner benchmarks/scenarios/matrix.yaml --validate

# what the CI docs job runs: markdown link check + scenario validation
docs-check:
	$(PYTHON) tools/check_links.py
	$(PYTHON) -m repro.scenarios.runner benchmarks/scenarios/matrix.yaml --validate

# the one pytest run that refreshes the tracked tables in benchmarks/results/
# (a plain pytest session writes them to a temp dir)
bench:
	REPRO_BENCH_DIR=benchmarks/results $(PYTHON) -m pytest benchmarks -q

# chaos harness: run the real repro-serve subprocess under injected faults
# and gate retry byte-identity, SIGKILL-and-recover journal replay, and
# bounded tail latency under admission-controlled overload
bench-chaos:
	rm -rf /tmp/repro-chaos
	$(PYTHON) -m repro.profiling.chaos --dir /tmp/repro-chaos

chaos: bench-chaos

# worker-pool chaos profile: repro-serve with workers=true, a server-side
# kill_worker fault SIGKILLing the replica mid-session (journal failover
# must be byte-identical), a hang_worker SIGSTOP the heartbeat
# deadline must catch, then a SIGKILLed gateway that must take its
# replicas and its port with it
chaos-workers:
	rm -rf /tmp/repro-chaos-workers
	$(PYTHON) -m repro.profiling.chaos --dir /tmp/repro-chaos-workers --profile workers

# cross-process artifact round trip (fit + save, then reload in a new process)
smoke-artifacts:
	rm -rf /tmp/repro-artifact-smoke
	$(PYTHON) -m repro.artifacts.smoke fit --dir /tmp/repro-artifact-smoke
	$(PYTHON) -m repro.artifacts.smoke check --dir /tmp/repro-artifact-smoke

# start repro-serve as a subprocess on a scratch store, then assert a client
# forecast and a lap-streamed session are byte-identical to the in-process path
smoke-serve:
	rm -rf /tmp/repro-serve-smoke
	$(PYTHON) -m repro.serving.smoke --dir /tmp/repro-serve-smoke

# the whole continuous-learning loop as repro-learn subprocesses: accumulate,
# retrain with a mid-job kill (resume must be bit-exact), shadow-eval, then
# promote/rollback over a live gateway (rollback must be byte-identical)
smoke-learn:
	rm -rf /tmp/repro-learn-smoke
	$(PYTHON) -m repro.learning.smoke --dir /tmp/repro-learn-smoke

clean:
	rm -rf .pytest_cache .benchmarks benchmarks/results
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
