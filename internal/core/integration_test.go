package core

import (
	"math/rand"
	"testing"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// TestTrainerMatchesDistributedLoop cross-validates the two independent
// implementations of the Figure 3 step: the host-side trainer harness
// (used by the convergence experiments) and a real multi-rank loop
// through DistributedOptimizer. Same data, same seeds, same reduction
// order — the resulting models must match.
func TestTrainerMatchesDistributedLoop(t *testing.T) {
	const (
		ranks = 4
		micro = 8
		steps = 12
		lr    = 0.05
	)
	train, test := data.GeneratePair(data.Config{
		N: 256, Dim: 10, Classes: 3, Noise: 0.6, Seed: 31,
	}, 64)
	mkNet := func() *nn.Network { return nn.NewMLP(10, 12, 3) }

	// Path 1: the trainer harness (PostOptimizer Adasum + SGD).
	stepsPerEpoch := train.N / (ranks * micro)
	epochs := steps / stepsPerEpoch
	tr := trainer.Run(trainer.Config{
		Workers:    ranks,
		Microbatch: micro,
		Reduction:  trainer.ReduceAdasum,
		Scope:      trainer.PostOptimizer,
		PerLayer:   true,
		Model:      mkNet,
		Optimizer:  optim.NewSGD(),
		Schedule:   optim.Constant{Base: lr},
		Train:      train,
		Test:       test,
		MaxEpochs:  epochs,
		Seed:       33,
	})

	// Path 2: a genuine multi-rank loop with the same iterator seeds and
	// the same starting model, combining SGD deltas through AdasumRVH.
	seedNet := mkNet()
	seedNet.Init(rand.New(rand.NewSource(33)))
	init := tensor.Clone(seedNet.Params())

	w := comm.NewWorld(ranks, nil)
	g := collective.WorldGroup(ranks)
	finals := comm.RunCollect(w, func(p *comm.Proc) []float32 {
		c := collective.New(p, g, collective.Config{})
		dopt := NewDistributedOptimizer(optim.NewSGD(), OpAdasum)
		net := mkNet()
		net.SetParams(init)
		shard := train.Shard(p.Rank(), ranks)
		it := data.NewIterator(shard.N, micro, 33+1000+int64(p.Rank()))
		for s := 0; s < epochs*stepsPerEpoch; s++ {
			idx := it.Next()
			x, labels := shard.Batch(idx)
			net.Gradient(x, labels, len(idx))
			dopt.Step(c, net, lr)
		}
		return tensor.Clone(net.Params())
	})

	if !tensor.Equal(finals[0], tr.FinalParams, 1e-4) {
		t.Fatalf("trainer harness and distributed loop diverged:\n harness %v\n ranks   %v",
			tr.FinalParams[:4], finals[0][:4])
	}
	for r := 1; r < ranks; r++ {
		if !tensor.Equal(finals[r], finals[0], 1e-6) {
			t.Fatalf("rank %d diverged from rank 0", r)
		}
	}
}

// TestFP16TrainingEndToEnd exercises the full fp16 path during real
// training: gradients travel through the communicator's fp16 codec
// around the allreduce. The model must still learn.
func TestFP16TrainingEndToEnd(t *testing.T) {
	const ranks = 4
	train, test := data.GeneratePair(data.Config{
		N: 512, Dim: 12, Classes: 3, Noise: 0.7, Seed: 35,
	}, 128)
	seedNet := nn.NewMLP(12, 16, 3)
	seedNet.Init(rand.New(rand.NewSource(36)))
	init := tensor.Clone(seedNet.Params())

	w := comm.NewWorld(ranks, nil)
	g := collective.WorldGroup(ranks)
	accs := comm.RunCollect(w, func(p *comm.Proc) float64 {
		net := nn.NewMLP(12, 16, 3)
		net.SetParams(init)
		c := collective.New(p, g, collective.Config{Compression: compress.FP16()})
		dopt := NewDistributedOptimizer(optim.NewMomentum(0.9), OpAdasum)
		shard := train.Shard(p.Rank(), ranks)
		it := data.NewIterator(shard.N, 16, int64(40+p.Rank()))
		for s := 0; s < 100; s++ {
			idx := it.Next()
			x, labels := shard.Batch(idx)
			net.Gradient(x, labels, len(idx))
			dopt.Step(c, net, 0.05)
		}
		tx, tl := test.Batch(seqInts(test.N))
		return net.Accuracy(tx, tl, test.N)
	})
	for r, a := range accs {
		if a < 0.9 {
			t.Fatalf("rank %d: fp16 training accuracy %v", r, a)
		}
	}
}

// TestHierarchicalFusedTraining trains through a caller-held Hierarchy
// — intra-node sum, cross-node Adasum over the whole fused gradient
// with per-layer boundaries — in a live loop: the §4.2.2 configuration
// Horovod runs in production.
func TestHierarchicalFusedTraining(t *testing.T) {
	const (
		gpus  = 2
		nodes = 2
		ranks = gpus * nodes
	)
	train, test := data.GeneratePair(data.Config{
		N: 512, Dim: 12, Classes: 3, Noise: 0.7, Seed: 37,
	}, 128)
	seedNet := nn.NewMLP(12, 16, 3)
	seedNet.Init(rand.New(rand.NewSource(38)))
	init := tensor.Clone(seedNet.Params())

	w := comm.NewWorld(ranks, nil)
	g := collective.WorldGroup(ranks)
	accs := comm.RunCollect(w, func(p *comm.Proc) float64 {
		h := collective.NewHierarchy(collective.New(p, g, collective.Config{}), gpus)
		dopt := NewDistributedOptimizer(optim.NewSGD(), OpAdasum)
		net := nn.NewMLP(12, 16, 3)
		net.SetParams(init)
		shard := train.Shard(p.Rank(), ranks)
		it := data.NewIterator(shard.N, 16, int64(50+p.Rank()))
		for s := 0; s < 100; s++ {
			idx := it.Next()
			x, labels := shard.Batch(idx)
			net.Gradient(x, labels, len(idx))
			dopt.Step(h, net, 0.05)
		}
		tx, tl := test.Batch(seqInts(test.N))
		return net.Accuracy(tx, tl, test.N)
	})
	for r, a := range accs {
		if a < 0.9 {
			t.Fatalf("rank %d: hierarchical training accuracy %v", r, a)
		}
	}
}
