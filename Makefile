# Convenience targets for the repro project.

.PHONY: install test test-equivalence test-chaos test-io-fuzz test-conformance bench bench-smoke bench-dedup bench-serve bench-ensemble bench-full bench-e2e report examples clean

install:
	pip install -e .

test:
	pytest tests/

# Bit-for-bit equivalence properties only (fused vs graph backends,
# dedup-memoized vs naive inference) -- the tier-1 correctness core.
test-equivalence:
	pytest tests/ -m equivalence -q

# Fault-injection sweeps: kill training at every epoch and the runner at
# every task index, then prove resume is bit-identical / result-identical
# to the failure-free run (tests/faults/, marked `chaos`).
test-chaos:
	pytest tests/ -m chaos -q

# Deep ingestion fuzz (nightly): the corpus mutation sweep at 10x the
# tier-1 trial count, plus the full round-trip property suite -- any
# byte soup must either ingest or raise IngestError, nothing else.
test-io-fuzz:
	REPRO_FUZZ_TRIALS=400 pytest tests/io/ -q

bench:
	pytest benchmarks/ --benchmark-only

# Fast regression gates: fused RNN kernels must be >= 2x faster than the
# graph backend (benchmarks/results/backend_speedup.txt) and
# dedup-memoized prediction >= 3x faster than the naive forward on both
# backends (benchmarks/results/BENCH_dedup_infer.json).  The
# trimmed-vs-full-padding and memoized-vs-naive equivalence suites then
# run under each backend.
bench-smoke:
	pytest benchmarks/test_substrate_microbench.py benchmarks/test_dedup_bench.py -m bench_smoke -q
	REPRO_NN_BACKEND=fused pytest tests/nn/test_trimming.py tests/inference/ -q
	REPRO_NN_BACKEND=graph pytest tests/nn/test_trimming.py tests/inference/ -q

# Dedup-inference speedup gate alone (writes BENCH_dedup_infer.json).
bench-dedup:
	pytest benchmarks/test_dedup_bench.py -m bench_smoke -q

# Online-serving gates: micro-batched daemon throughput >= 3x the
# per-request baseline at 8 concurrent clients, a one-cell update
# re-running the network on < 5% of the table's feature rows, and
# daemon scores byte-identical to one-shot `repro serve`
# (writes BENCH_serve.json).
bench-serve:
	pytest benchmarks/test_serve_bench.py -m bench_smoke -q

# Detector-registry conformance pass: every registered family (neural,
# Raha, augmentation, ensemble) against the uniform Detector contract,
# on both autograd backends (tests/detectors/).
test-conformance:
	pytest tests/detectors/ -q
	REPRO_NN_BACKEND=graph pytest tests/detectors/test_conformance.py -q

# Calibrated-fusion gate: the ensemble must match or beat its best
# member on >= 4 of the 6 golden datasets, with the attention family as
# an ablation row (writes BENCH_ensemble.json).
bench-ensemble:
	pytest benchmarks/test_ensemble.py --benchmark-only -q

bench-full:
	REPRO_FULL=1 pytest benchmarks/ --benchmark-only

# One traced pass of each end-to-end benchmark workload, paper-fit and
# detect-folder (perfbench/README.md): end-to-end metrics plus the
# per-layer breakdown.
bench-e2e:
	python3 perfbench/run.py --workload paper-fit --seed 1 --seconds 20 --trace 1
	python3 perfbench/run.py --workload detect-folder --seed 1 --seconds 20 --trace 1

report:
	python -m repro.experiments.report benchmarks/results EXPERIMENTS.md

examples:
	python examples/quickstart.py
	python examples/clean_your_own_csv.py
	python examples/sampler_comparison.py
	python examples/baseline_shootout.py
	python examples/error_analysis.py
	python examples/detect_and_repair.py

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
