package trainer

import (
	"fmt"
	"testing"

	"repro/internal/adasum"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// TestPerStepReferenceMatrix pins every trainer reduction to its
// host-side reference at tolerance 0, one step at a time. For each
// Reduction × Scope × PerLayer × Workers cell, with Overlap off and on,
// the Hook clones the step's contributions and predicts the update:
// Adasum is adasum.TreeReduce over the model layout (or one flat
// segment when PerLayer is false), the sum is adasum.MeanReduce, and
// the prediction applies it the way the scope does (an SGD step on the
// shared model, or start + combined delta). FinalParams after every
// Step must equal the prediction bitwise, so the bucketed collectives
// (parity tree, group-order chain) can never drift from the reference
// arithmetic, whatever the bucketing, worker count or schedule.
func TestPerStepReferenceMatrix(t *testing.T) {
	const steps = 3
	train, test := data.GeneratePair(data.Config{
		N: 256, Dim: 32, Classes: 4, Noise: 0.5, Seed: 91,
	}, 64)
	for _, red := range []Reduction{ReduceSum, ReduceAdasum} {
		for _, scope := range []Scope{PreOptimizer, PostOptimizer, LocalSGD} {
			for _, perLayer := range []bool{true, false} {
				for _, workers := range []int{1, 2, 3, 4} {
					for _, over := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/perlayer=%v/w%d/overlap=%v", red, scope, perLayer, workers, over)
						t.Run(name, func(t *testing.T) {
							cfg := Config{
								Workers:    workers,
								Microbatch: 8,
								Reduction:  red,
								Scope:      scope,
								PerLayer:   perLayer,
								Overlap:    over,
								// Several buckets per step on the per-layer
								// layout; the flat layout is one bucket.
								FusionBytes: 512,
								Net:         simnet.TCP40(workers),
								StepSeconds: 1e-3,
								Model:       func() *nn.Network { return nn.NewMLP(32, 12, 4) },
								Optimizer:   optim.NewAdam(),
								Schedule:    optim.Constant{Base: 0.01},
								Train:       train, Test: test,
								MaxEpochs: 1,
								Seed:      93,
							}
							if scope == PreOptimizer {
								cfg.Optimizer = optim.NewSGD()
							}
							if scope == LocalSGD {
								cfg.LocalSteps = 2
							}
							var prev, want []float32
							cfg.Hook = func(step int, contributions [][]float32, layout tensor.Layout) {
								// The engine reduces the contributions in
								// place once the Hook returns.
								cs := make([][]float32, len(contributions))
								for i, c := range contributions {
									cs[i] = tensor.Clone(c)
								}
								var combined []float32
								switch {
								case red == ReduceSum:
									combined = adasum.MeanReduce(cs)
								case perLayer:
									combined = adasum.TreeReduce(cs, layout)
								default:
									combined = adasum.TreeReduce(cs, tensor.FlatLayout(layout.TotalSize()))
								}
								want = tensor.Clone(prev)
								if scope == PreOptimizer {
									optim.NewSGD().Step(want, combined, cfg.Schedule.LR(step))
								} else {
									tensor.Axpy(1, combined, want)
								}
							}
							h := Start(cfg)
							prev = h.Result().FinalParams
							for s := 0; s < steps; s++ {
								more := h.Step()
								got := h.Result().FinalParams
								if !tensor.Equal(got, want, 0) {
									t.Fatalf("step %d: params differ from the host reference", s)
								}
								prev = got
								if !more {
									break
								}
							}
						})
					}
				}
			}
		}
	}
}
