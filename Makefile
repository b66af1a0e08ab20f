# Developer entry points.  Everything runs from the repo root and
# assumes only the baked-in toolchain (python + numpy + pytest);
# `make lint` and `make typecheck` additionally want ruff / mypy,
# matching the CI lint and typecheck jobs.

PYTHON ?= python
PYTEST := PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: test fast slow identity simlint simlint-baseline lint typecheck check

test:  ## tier-1 gate: the whole unit/integration + benchmark suite
	$(PYTEST) -x -q

fast:  ## CI fast stage: tests without the figure benchmarks
	$(PYTEST) -x -q --ignore=benchmarks

slow:  ## CI slow stage entry: benchmarks only (goldens, sweeps)
	$(PYTEST) benchmarks -x -q

SWEEPS := capacity sharding chaos prefix
EXAMPLES := $(wildcard examples/*.py)

identity:  ## outputs byte-identical to the checkout: regenerate goldens, figure tables, run_all artefacts, sweep smokes and example outputs, diff
	$(PYTEST) tests/golden -q --update-golden
	$(PYTEST) benchmarks -x -q
	# Every paper artefact run_all writes: the figure tables above plus the fleet sweeps.
	PYTHONPATH=src $(PYTHON) -m repro.experiments.run_all benchmarks/results --workers 1
	for sweep in $(SWEEPS); do \
		PYTHONPATH=src $(PYTHON) -m repro.experiments.$$sweep --smoke benchmarks/results/$${sweep}_smoke.txt || exit 1; \
	done
	# The paging CLI's smoke grid is the paging benchmark's table, byte for byte.
	PYTHONPATH=src $(PYTHON) -m repro.experiments.paging --smoke benchmarks/results/paging_policies_smoke.txt
	# Every example runs to completion and prints what it printed before.
	for example in $(EXAMPLES); do \
		PYTHONPATH=src $(PYTHON) $$example > examples/output/$$(basename $$example .py).txt || exit 1; \
	done
	git diff --exit-code tests/golden/ benchmarks/results/ examples/output/

simlint:  ## determinism linter over the serving stack (CI simlint job)
	$(PYTHON) -m tools.simlint src tests

simlint-baseline:  ## rewrite tools/simlint/baseline.json (reasons kept)
	$(PYTHON) -m tools.simlint src tests --update-baseline

lint:  ## ruff (CI lint job); requires ruff on PATH
	ruff check .

typecheck:  ## scoped mypy --strict (CI typecheck job, non-blocking)
	$(PYTHON) -m mypy

check: simlint fast  ## quick pre-push: determinism lint + fast tests
