# Convenience targets for the PH-tree reproduction.

PYTHON ?= python

.PHONY: install test fuzz durable-smoke bench bench-small bench-json examples results clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || \
		$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Correctness harness: fixed-seed differential fuzz across the engine
# matrix (the CI fuzz-smoke job also runs `check --faults`: the
# lock-timeout drill plus the disk kinds).
fuzz:
	PYTHONPATH=src $(PYTHON) -m repro.tool check --fuzz --seed 0 --ops 4000 --dims 2,6,14

# Durable-store battery: the store unit suite (incl. the torn-WAL corpus
# and the 100+-point crash-offset sweep), durable differential fuzz legs
# with and without learned trailers, and the seeded kill-during-flush/
# compaction and torn-WAL drills (the CI durability-smoke job); then
# `check --faults`, every drill kind: lock-timeout plus the disk kinds.
durable-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/store -q
	PYTHONPATH=src $(PYTHON) -m repro.tool check --fuzz --durable --learned --seed 0 --ops 1500 --dims 2,6
	PYTHONPATH=src $(PYTHON) -m repro.tool check --fuzz --durable --seed 0 --ops 1500 --dims 2,6
	PYTHONPATH=src $(PYTHON) -m repro.tool check --fault-kinds disk-flush-kill,disk-compact-kill,disk-torn-wal
	PYTHONPATH=src $(PYTHON) -m repro.tool check --faults

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-small:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only --repro-scale small

# Regenerate the hot-path perf trajectory (BENCH_core.json at repo root),
# including the instrumented nodes-visited/slots-scanned counts per op.
bench-json:
	PYTHONPATH=src $(PYTHON) -m repro.bench.trajectory --instrument -o BENCH_core.json

examples:
	@for f in examples/*.py; do \
		echo "== $$f"; $(PYTHON) $$f || exit 1; \
	done

results:
	$(PYTHON) -m repro.bench -e all -s small -o results

clean:
	rm -rf build dist src/*.egg-info .pytest_cache benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
