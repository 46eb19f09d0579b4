package trainer

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// overlapCfg is a small but multi-layer training setup shared by the
// bucket-engine tests: a TCP cost model, backward compute and a small
// fusion threshold so several buckets form per step.
func overlapCfg(workers int, over bool) Config {
	train, test := data.GeneratePair(data.Config{
		N: 512, Dim: 96, Classes: 6, Noise: 0.5, Seed: 21,
	}, 128)
	return Config{
		Workers:     workers,
		Microbatch:  8,
		Reduction:   ReduceAdasum,
		Scope:       PreOptimizer,
		PerLayer:    true,
		Overlap:     over,
		FusionBytes: 2048,
		Net:         simnet.TCP40(workers),
		StepSeconds: 1e-3,
		Model:       func() *nn.Network { return nn.NewMLP(96, 24, 6) },
		Optimizer:   optim.NewMomentum(0.9),
		Schedule:    optim.Constant{Base: 0.05},
		Train:       train, Test: test,
		MaxEpochs: 2,
		Seed:      11,
	}
}

// TestOverlapStepBitwiseEqualsSyncStep is the trainer-level overlap-
// correctness property: with identical seeds, the overlapped run and the
// synchronous bucketed run produce bitwise-identical model parameters,
// for both the parity tree and the paper's RVH bucket collectives, at
// power-of-two and odd worker counts.
func TestOverlapStepBitwiseEqualsSyncStep(t *testing.T) {
	for _, tc := range []struct {
		workers int
		strat   collective.Strategy
	}{{4, collective.StrategyTree}, {5, collective.StrategyTree}, {4, collective.StrategyRVH}, {8, collective.StrategyRVH}} {
		syncCfg := overlapCfg(tc.workers, false)
		syncCfg.Strategy = tc.strat
		overCfg := overlapCfg(tc.workers, true)
		overCfg.Strategy = tc.strat
		syncRes := Run(syncCfg)
		overRes := Run(overCfg)
		if !tensor.Equal(syncRes.FinalParams, overRes.FinalParams, 0) {
			t.Fatalf("workers=%d strategy=%v: overlapped params not bitwise-equal to sync", tc.workers, tc.strat)
		}
		if overRes.SimSeconds >= syncRes.SimSeconds {
			t.Fatalf("workers=%d strategy=%v: overlap sim time %v not below sync %v",
				tc.workers, tc.strat, overRes.SimSeconds, syncRes.SimSeconds)
		}
	}
}

// TestOverlapSimTimeBelowSyncUnderInterNodeModel is the virtual-clock
// acceptance property on the slow-interconnect cluster: overlapping
// communication with backprop must shorten the simulated run, and the
// overlapped run can never beat its own compute floor.
func TestOverlapSimTimeBelowSyncUnderInterNodeModel(t *testing.T) {
	syncRes := Run(overlapCfg(4, false))
	overRes := Run(overlapCfg(4, true))
	if overRes.SimSeconds >= syncRes.SimSeconds {
		t.Fatalf("overlap sim time %v not below sync %v", overRes.SimSeconds, syncRes.SimSeconds)
	}
	steps := len(overRes.Epochs) * overRes.StepsPerEpoch
	floor := 1e-3 * float64(steps)
	if overRes.SimSeconds < floor {
		t.Fatalf("overlap sim time %v below compute floor %v", overRes.SimSeconds, floor)
	}
}

// TestBucketedAdasumRejectsRingSum documents that the mean combiner
// cannot be selected for an Adasum reduction: StrategyRing would
// silently replace the Adasum combine with plain averaging. The reject
// surfaces as a Validate error first, then as Run's panic.
func TestBucketedAdasumRejectsRingSum(t *testing.T) {
	cfg := overlapCfg(4, true)
	cfg.Strategy = collective.StrategyRing
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected Validate error for ReduceAdasum with StrategyRing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ReduceAdasum with StrategyRing")
		}
	}()
	Run(cfg)
}

// TestBucketedSumRejectsRVH is the converse: an explicitly requested
// StrategyRVH must not be silently replaced by the ring collective when
// the reduction is a sum.
func TestBucketedSumRejectsRVH(t *testing.T) {
	cfg := overlapCfg(4, true)
	cfg.Reduction = ReduceSum
	cfg.PerLayer = false
	cfg.Strategy = collective.StrategyRVH
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected Validate error for ReduceSum with StrategyRVH")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ReduceSum with StrategyRVH")
		}
	}()
	Run(cfg)
}
