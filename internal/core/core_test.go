package core

import (
	"math/rand"
	"testing"

	"repro/internal/adasum"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/scaling"
	"repro/internal/tensor"
)

func randInputs(seed int64, ranks, n int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, ranks)
	for i := range out {
		v := make([]float32, n)
		for j := range v {
			v[j] = rng.Float32()*2 - 1
		}
		out[i] = v
	}
	return out
}

// figure3Want is the host-side expectation of one OpAdasum step from
// start: the ranks' local optimizer deltas, combined by reduce, added
// back onto start.
func figure3Want(start []float32, deltas [][]float32, reduce func([][]float32) []float32) []float32 {
	want := tensor.Clone(start)
	tensor.Axpy(1, reduce(deltas), want)
	return want
}

// sgdDeltas returns each rank's delta for one plain SGD step on grads.
func sgdDeltas(start []float32, grads [][]float32, lr float64) [][]float32 {
	out := make([][]float32, len(grads))
	for r, g := range grads {
		p := tensor.Clone(start)
		optim.NewSGD().Step(p, g, lr)
		out[r] = make([]float32, len(p))
		tensor.Sub(out[r], p, start)
	}
	return out
}

// stepDense runs one SGD DistributedOptimizer step per rank on a
// bias-free dense net whose gradient is grads[rank], reducing through
// the Reducer reducerFor builds from the rank's communicator, and
// returns every rank's parameters.
func stepDense(start []float32, grads [][]float32, op Op, lr float64,
	cfg collective.Config, reducerFor func(c *collective.Communicator) Reducer) [][]float32 {
	ranks := len(grads)
	w := comm.NewWorld(ranks, nil)
	g := collective.WorldGroup(ranks)
	return comm.RunCollect(w, func(p *comm.Proc) []float32 {
		net := nn.NewNetwork(nn.NewDenseNoBias("fc", 4, len(start)/4))
		net.SetParams(start)
		copy(net.Grads(), grads[p.Rank()])
		dopt := NewDistributedOptimizer(optim.NewSGD(), op)
		dopt.Step(reducerFor(collective.New(p, g, cfg)), net, lr)
		return tensor.Clone(net.Params())
	})
}

func flat(c *collective.Communicator) Reducer { return c }

// TestAllreduceAdasumNonPowerOfTwoFallsBack: on a three-rank group the
// Adasum step follows StrategyAuto onto the linear chain.
func TestAllreduceAdasumNonPowerOfTwoFallsBack(t *testing.T) {
	ranks, n := 3, 20
	grads := randInputs(3, ranks, n)
	start := randInputs(13, 1, n)[0]
	want := figure3Want(start, sgdDeltas(start, grads, 0.1), func(d [][]float32) []float32 {
		return adasum.LinearReduce(d, tensor.FlatLayout(n))
	})
	for r, v := range stepDense(start, grads, OpAdasum, 0.1, collective.Config{}, flat) {
		if !tensor.Equal(v, want, 1e-5) {
			t.Fatalf("rank %d: non-power-of-two fallback mismatch", r)
		}
	}
}

// TestAllreduceHierarchicalAdasum: a caller-held Hierarchy is a Reducer.
// Deltas are summed within each node, then Adasum-combined across nodes
// (§4.2.2).
func TestAllreduceHierarchicalAdasum(t *testing.T) {
	gpus, nodes := 2, 2
	n := 32
	grads := randInputs(4, gpus*nodes, n)
	start := randInputs(14, 1, n)[0]
	want := figure3Want(start, sgdDeltas(start, grads, 0.1), func(d [][]float32) []float32 {
		nodeSums := make([][]float32, nodes)
		for nd := range nodeSums {
			nodeSums[nd] = adasum.SumReduce(d[nd*gpus : (nd+1)*gpus])
		}
		return adasum.TreeReduce(nodeSums, tensor.FlatLayout(n))
	})
	hier := func(c *collective.Communicator) Reducer { return collective.NewHierarchy(c, gpus) }
	for r, v := range stepDense(start, grads, OpAdasum, 0.1, collective.Config{}, hier) {
		if !tensor.Equal(v, want, 1e-5) {
			t.Fatalf("rank %d: hierarchical adasum mismatch", r)
		}
	}
}

// TestAllreduceFP16Quantizes: the wire codec is the communicator's knob,
// and the average step goes through it.
func TestAllreduceFP16Quantizes(t *testing.T) {
	ranks, n := 2, 16
	grads := randInputs(5, ranks, n)
	start := make([]float32, n)
	want := tensor.Clone(start)
	optim.NewSGD().Step(want, adasum.MeanReduce(grads), 1)
	fp16 := collective.Config{Compression: compress.FP16()}
	for _, v := range stepDense(start, grads, OpAverage, 1, fp16, flat) {
		// Quantization error bounded by fp16 resolution of values ~1.
		if !tensor.Equal(v, want, 5e-3) {
			t.Fatal("fp16 average too far from fp32 average")
		}
		if tensor.Equal(v, want, 0) {
			t.Fatal("fp16 path appears to be a no-op (no quantization)")
		}
	}
}

// TestAllreduceFP16WithScaler: gradients that underflow binary16 survive
// an fp16 wire when a loss scaler scales them up and the step size is
// divided back down — loss scaling composes around the optimizer.
func TestAllreduceFP16WithScaler(t *testing.T) {
	ranks, n := 2, 8
	s := scaling.NewLossScaler()
	small := make([][]float32, ranks)
	scaled := make([][]float32, ranks)
	for r := range small {
		small[r] = make([]float32, n)
		for i := range small[r] {
			small[r][i] = 2e-8 // rounds to zero in fp16
		}
		scaled[r] = tensor.Clone(small[r])
		s.ScaleGrads(scaled[r])
	}
	start := make([]float32, n)
	fp16 := collective.Config{Compression: compress.FP16()}
	hasZero := func(ranks [][]float32) bool {
		for _, v := range ranks {
			for _, x := range v {
				if x == 0 {
					return true
				}
			}
		}
		return false
	}
	if !hasZero(stepDense(start, small, OpAverage, 1, fp16, flat)) {
		t.Fatal("unscaled fp16 step kept every update; the gradients must underflow on the wire")
	}
	if hasZero(stepDense(start, scaled, OpAverage, 1/s.Scale, fp16, flat)) {
		t.Fatal("scaled fp16 path lost small gradients to underflow")
	}
}

func TestDistributedOptimizerAdasumFigure3Semantics(t *testing.T) {
	// Final params must be start + TreeReduce(per-rank deltas).
	ranks := 4
	train := data.Generate(data.Config{N: 64, Dim: 8, Classes: 3, Noise: 0.5, Seed: 6})
	mkNet := func() *nn.Network { return nn.NewMLP(8, 6, 3) }
	proto := mkNet()
	proto.Init(rand.New(rand.NewSource(7)))
	start := tensor.Clone(proto.Params())

	// Host-side expectation.
	deltas := make([][]float32, ranks)
	for r := 0; r < ranks; r++ {
		net := mkNet()
		net.SetParams(start)
		shard := train.Shard(r, ranks)
		x, labels := shard.Batch([]int{0, 1, 2, 3})
		net.Gradient(x, labels, 4)
		opt := optim.NewAdam()
		opt.Step(net.Params(), net.Grads(), 0.01)
		d := make([]float32, len(start))
		tensor.Sub(d, net.Params(), start)
		deltas[r] = d
	}
	wantDelta := adasum.TreeReduce(deltas, proto.Layout())
	want := tensor.Clone(start)
	tensor.Axpy(1, wantDelta, want)

	// Distributed run.
	w := comm.NewWorld(ranks, nil)
	g := collective.WorldGroup(ranks)
	got := comm.RunCollect(w, func(p *comm.Proc) []float32 {
		net := mkNet()
		net.SetParams(start)
		shard := train.Shard(p.Rank(), ranks)
		x, labels := shard.Batch([]int{0, 1, 2, 3})
		net.Gradient(x, labels, 4)
		dopt := NewDistributedOptimizer(optim.NewAdam(), OpAdasum)
		dopt.Step(collective.New(p, g, collective.Config{}), net, 0.01)
		return tensor.Clone(net.Params())
	})
	for r, v := range got {
		if !tensor.Equal(v, want, 1e-5) {
			t.Fatalf("rank %d: Figure 3 semantics violated", r)
		}
	}
}

func TestDistributedOptimizerSumMatchesSequentialAveragedStep(t *testing.T) {
	ranks, n := 4, 20
	grads := randInputs(8, ranks, n)
	start := randInputs(9, 1, n)[0]

	// Expectation: one SGD step with the averaged gradient.
	want := tensor.Clone(start)
	optim.NewSGD().Step(want, adasum.MeanReduce(grads), 0.1)

	for r, v := range stepDense(start, grads, OpAverage, 0.1, collective.Config{}, flat) {
		if !tensor.Equal(v, want, 1e-5) {
			t.Fatalf("rank %d: average optimizer mismatch", r)
		}
	}
}

func TestDistributedTrainingEndToEnd(t *testing.T) {
	// A full multi-rank training loop through the public API must learn.
	ranks := 4
	train, test := data.GeneratePair(data.Config{N: 512, Dim: 12, Classes: 3, Noise: 0.7, Seed: 11}, 128)
	w := comm.NewWorld(ranks, nil)
	g := collective.WorldGroup(ranks)
	start := nn.NewMLP(12, 16, 3)
	start.Init(rand.New(rand.NewSource(12)))
	init := tensor.Clone(start.Params())

	accs := comm.RunCollect(w, func(p *comm.Proc) float64 {
		net := nn.NewMLP(12, 16, 3)
		net.SetParams(init)
		c := collective.New(p, g, collective.Config{})
		dopt := NewDistributedOptimizer(optim.NewMomentum(0.9), OpAdasum)
		shard := train.Shard(p.Rank(), ranks)
		it := data.NewIterator(shard.N, 16, int64(100+p.Rank()))
		for step := 0; step < 120; step++ {
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
			t.Fatalf("rank %d final accuracy %v", r, a)
		}
	}
	// All ranks must hold identical models (they synchronized every step).
	if accs[0] != accs[1] || accs[1] != accs[2] {
		t.Fatalf("ranks diverged: %v", accs)
	}
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
