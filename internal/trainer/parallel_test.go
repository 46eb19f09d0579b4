package trainer

import (
	"runtime"
	"testing"

	"repro/internal/compress"
)

// TestRunIsBitwiseInvariantUnderGOMAXPROCS is the end-to-end pin of the
// simnet's parallel rank execution: rank goroutines really run
// concurrently (per-rank sharded buffer pool and wire meter, no global
// serialization), so the Go scheduler interleaves them differently at
// every GOMAXPROCS — and none of it may show. For every Scope x knob set x
// codec combination (including top-k with error feedback, whose
// residual state is the easiest thing to corrupt with a misordered
// reduction), a full training run at GOMAXPROCS=1 and at a wide
// setting must produce bitwise-identical FinalParams and identical
// SimSeconds and accuracy. Determinism comes from the virtual-clock
// design, not from serial execution: clocks are private to each rank
// and meet only through message arrival stamps and explicit joins.
func TestRunIsBitwiseInvariantUnderGOMAXPROCS(t *testing.T) {
	type combo struct {
		name    string
		scope   Scope
		knobs   knobs
		overlap bool
		codec   compress.Compression
	}
	combos := []combo{
		{"pre/host", PreOptimizer, bare, false, nil},
		{"post/host", PostOptimizer, bare, false, nil},
		{"localsgd/host", LocalSGD, bare, false, nil},
		{"pre/cluster-sync", PreOptimizer, simulated, false, nil},
		{"post/cluster-overlap", PostOptimizer, simulated, true, nil},
		{"localsgd/cluster-overlap", LocalSGD, simulated, true, nil},
		{"pre/cluster-overlap/fp16", PreOptimizer, simulated, true, compress.FP16()},
		{"post/cluster-overlap/int8", PostOptimizer, simulated, true, compress.Int8(0)},
		{"post/cluster-sync/topk-ef", PostOptimizer, simulated, false, compress.TopK(0.25, true)},
		{"post/cluster-overlap/topk-ef", PostOptimizer, simulated, true, compress.TopK(0.25, true)},
		{"localsgd/cluster-overlap/topk-ef", LocalSGD, simulated, true, compress.TopK(0.25, true)},
		// Adaptive policy: the codec decision itself must be a pure
		// function of rank-private telemetry for these to hold.
		{"post/cluster-sync/adaptive", PostOptimizer, simulated, false, compress.Adaptive()},
		{"post/cluster-overlap/adaptive", PostOptimizer, simulated, true, compress.Adaptive()},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range combos {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			serial := Run(ckCfg(tc.scope, tc.knobs, tc.overlap, tc.codec))
			// Wider than any plausible host so the scheduler has real
			// freedom even when the machine itself is narrow.
			runtime.GOMAXPROCS(8)
			wide := Run(ckCfg(tc.scope, tc.knobs, tc.overlap, tc.codec))
			runtime.GOMAXPROCS(prev)

			if len(serial.FinalParams) != len(wide.FinalParams) {
				t.Fatal("param count mismatch")
			}
			for i, v := range serial.FinalParams {
				if wide.FinalParams[i] != v {
					t.Fatalf("FinalParams diverged at %d: %v (1P) != %v (8P)", i, v, wide.FinalParams[i])
				}
			}
			if serial.SimSeconds != wide.SimSeconds {
				t.Fatalf("SimSeconds diverged: %v (1P) != %v (8P)", serial.SimSeconds, wide.SimSeconds)
			}
			if serial.FinalAccuracy != wide.FinalAccuracy {
				t.Fatalf("FinalAccuracy diverged: %v (1P) != %v (8P)", serial.FinalAccuracy, wide.FinalAccuracy)
			}
		})
	}
}
