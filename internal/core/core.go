// Package core is the reproduction's front door, shaped after Horovod's
// (§4.1 of the paper): one DistributedOptimizer wrapper, so that
//
//	opt = hvd.DistributedOptimizer(opt, op=hvd.Adasum)
//
// becomes
//
//	c := collective.New(proc, group, collective.Config{})
//	dopt := core.NewDistributedOptimizer(opt, core.OpAdasum)
//	dopt.Step(c, net, lr)
//
// For OpAdasum the wrapper implements the Figure 3 pattern: the inner
// optimizer runs locally on each rank's gradient, and the allreduce
// combines the resulting model deltas ("effective gradients") — which is
// why Adasum composes with Adam and LAMB without increasing their
// effective minibatch.
//
// Step reduces through a Reducer, which a flat *collective.Communicator
// and a caller-held *collective.Hierarchy (§4.2.2) both satisfy. Every
// other choice is the communicator's configuration: the algorithm
// follows its Strategy (StrategyAuto reproduces the paper's dispatch:
// Algorithm 1 on power-of-two groups, the linear chain otherwise) and
// the wire codec its Compression knob, so fp16 communication (§4.4.1)
// is
//
//	collective.New(p, g, collective.Config{Compression: compress.FP16()})
//
// and an adaptive policy (compress.Adaptive) slots into the same field.
// Build a Hierarchy once off that communicator and pass it to Step
// instead; its sub-communicators and their compression streams then
// persist across steps. Tensor fusion and overlapped per-bucket
// reduction live in the overlap engine that the trainer drives.
package core

import (
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Op selects the reduction a DistributedOptimizer applies.
type Op int

// Reduction operations.
const (
	// OpAverage averages the gradients, then steps the inner optimizer
	// once: synchronous SGD, Horovod's default.
	OpAverage Op = iota
	// OpAdasum is the adaptive sum of the paper, applied to the model
	// deltas of per-rank optimizer steps (Figure 3).
	OpAdasum
)

// Reducer is the reduction a DistributedOptimizer steps through:
// *collective.Communicator and *collective.Hierarchy satisfy it. All
// members of the group must step with the same op.
type Reducer interface {
	AllreduceMean(x []float32)
	Adasum(x []float32, layout tensor.Layout)
}

// DistributedOptimizer wraps a local optimizer with the distributed
// reduction, mirroring hvd.DistributedOptimizer.
type DistributedOptimizer struct {
	inner optim.Optimizer
	op    Op

	start []float32 // scratch: pre-step parameter snapshot (Figure 3)
	delta []float32
}

// NewDistributedOptimizer wraps inner with reduction op.
func NewDistributedOptimizer(inner optim.Optimizer, op Op) *DistributedOptimizer {
	return &DistributedOptimizer{inner: inner, op: op}
}

// Inner returns the wrapped optimizer.
func (d *DistributedOptimizer) Inner() optim.Optimizer { return d.inner }

// Step performs one distributed update of net through r:
//
//   - OpAverage reduces the gradients first, then runs the inner
//     optimizer once — synchronous SGD;
//   - OpAdasum runs the inner optimizer on the local gradient, computes
//     the effective gradient (current - start), Adasum-allreduces it
//     per layer, and rewinds the model to start + combined delta
//     (Figure 3).
func (d *DistributedOptimizer) Step(r Reducer, net *nn.Network, lr float64) {
	params := net.Params()
	grads := net.Grads()
	switch d.op {
	case OpAverage:
		r.AllreduceMean(grads)
		d.inner.Step(params, grads, lr)
	case OpAdasum:
		if cap(d.start) < len(params) {
			d.start = make([]float32, len(params))
			d.delta = make([]float32, len(params))
		}
		d.start = d.start[:len(params)]
		d.delta = d.delta[:len(params)]
		copy(d.start, params)
		d.inner.Step(params, grads, lr)
		tensor.Sub(d.delta, params, d.start)
		r.Adasum(d.delta, net.Layout())
		copy(params, d.start)
		tensor.Axpy(1, d.delta, params)
	}
}
