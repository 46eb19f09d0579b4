# Benchmark lists shared by scripts/bench.sh, which records the
# BENCH_<N>.json snapshots, and scripts/bench_compare.sh, which gates CI
# against them. Sourced by both; not meant to be run on its own.

# PATTERN selects the snapshot micro-benchmarks.
PATTERN='BenchmarkServeScheduler|BenchmarkElasticStep|BenchmarkAdaptivePolicyStep|BenchmarkCommunicatorAdasum16Ranks|BenchmarkCommunicatorBroadcastGather16Ranks|BenchmarkOverlappedStepFP16|BenchmarkTensorDot1M|BenchmarkDotNormsFusedVsSeparate|BenchmarkAdasumCombine1M|BenchmarkAdasumTreeReduce16x64K|BenchmarkAdasumRVH16Ranks|BenchmarkAdasumRVH256Ranks|BenchmarkWorld1024Construct|BenchmarkRingAllreduce16Ranks|BenchmarkOverlappedStep|BenchmarkAblation'
# PARALLEL_PATTERN selects the benchmarks whose wall-clock is dominated
# by concurrent rank goroutines; bench.sh re-runs them pinned to
# GOMAXPROCS=1 for the snapshot's serial section.
PARALLEL_PATTERN='BenchmarkAdasumRVH256Ranks|BenchmarkAdasumRVH16Ranks|BenchmarkOverlappedStep$'
