PYTHON ?= python
export PYTHONPATH := src

# The revision `make perf-smoke` compares this checkout against.
BASE ?= HEAD^

.PHONY: test perf-smoke lint

test:
	$(PYTHON) -m pytest -x -q

# The benchmark gate CI runs: perfbench on BASE (a temporary git
# worktree) and on this checkout, alternating on this host, compared by
# `repro attribute` within the runs' own noise band; a failure is
# followed by traced pairs that name the layer that moved.  Results land
# in perf-smoke/ (ignored); see tools/perf_smoke.sh.
perf-smoke:
	PYTHON=$(PYTHON) sh tools/perf_smoke.sh $(BASE)

lint:
	$(PYTHON) -m repro lint all --strict
