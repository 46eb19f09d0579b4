// Quickstart: the Horovod-style front door in its smallest form.
//
// Four simulated GPUs train a shared MLP on a synthetic dataset. Each
// rank wraps its optimizer in core.NewDistributedOptimizer with
// op=OpAdasum — the one-line change §4.1 of the paper advertises — and
// every optimizer step transparently runs the Figure 3 pattern: local
// Adam step, Adasum allreduce of the effective gradient, model rewind.
// Step reduces through the rank's communicator; pass a
// collective.NewHierarchy built from it instead for the §4.2.2
// hierarchical reduction.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

func main() {
	const ranks = 4
	train, test := data.SyntheticMNIST(1, 8192, 1024)

	// All ranks must start from the same model.
	seedNet := nn.NewMLP(train.Dim, 64, train.Classes)
	seedNet.Init(rand.New(rand.NewSource(42)))
	initParams := tensor.Clone(seedNet.Params())

	world := comm.NewWorld(ranks, nil)
	group := collective.WorldGroup(ranks)

	accs := comm.RunCollect(world, func(p *comm.Proc) float64 {
		net := nn.NewMLP(train.Dim, 64, train.Classes)
		net.SetParams(initParams)

		// Each rank binds its endpoint to the group once; every
		// collective runs through the communicator. Wire compression
		// is the communicator's knob too: pass
		// Config{Compression: compress.FP16()} for §4.4.1 fp16
		// communication, or compress.Adaptive() to let a policy pick
		// the codec per bucket from live bandwidth telemetry.
		c := collective.New(p, group, collective.Config{})

		// The one-line Horovod idiom:
		//   opt = hvd.DistributedOptimizer(opt, op=hvd.Adasum)
		dopt := core.NewDistributedOptimizer(optim.NewAdam(), core.OpAdasum)

		shard := train.Shard(p.Rank(), ranks)
		iter := data.NewIterator(shard.N, 32, int64(p.Rank()))
		for step := 0; step < 300; step++ {
			idx := iter.Next()
			x, labels := shard.Batch(idx)
			net.Gradient(x, labels, len(idx))
			dopt.Step(c, net, 0.001)
		}

		testX, testLabels := test.Batch(firstN(test.N))
		return net.Accuracy(testX, testLabels, test.N)
	})

	for r, acc := range accs {
		fmt.Printf("rank %d: test accuracy %.4f\n", r, acc)
	}
}

func firstN(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
