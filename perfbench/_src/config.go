package main

import (
	"fmt"
	"math/rand"

	"repro/internal/checkpoint"
	"repro/internal/collective"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/serve"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// This file is the only place that builds trainer.Config and
// serve.JobSpec values. An API change to either type needs an edit here
// and nowhere else in the benchmark.

// trainShape is one training workload: a BERT proxy on the synthetic
// masked-LM task, 16 ranks of the racked TCP cluster, post-optimizer
// per-layer Adasum over RVH with overlap.
type trainShape struct {
	name        string
	width       int     // BERT proxy hidden width
	micro       int     // per-worker microbatch
	trainN      int     // training samples (sets steps per epoch)
	testN       int     // test samples evaluated every step
	epochs      int     // step budget in epochs
	fusionBytes int     // bucket threshold
	adaptive    bool    // compress.Adaptive() on the wire
	stepSeconds float64 // simulated forward+backward seconds per step
	lr          float64 // LAMB base rate
	target      float64 // sustained test-accuracy target
	ckptEvery   int     // checkpoint cadence in steps
	tailPct     float64 // op tail percentile the sample count supports
}

const (
	trainRanks   = 16
	nodesPerRack = 2
	bertInDim    = 160
	bertClasses  = 12
	bertDepth    = 3
	maskFrac     = 0.15
	jitter       = 0.1 // straggler noise of the simulated cluster
)

var trainShapes = map[string]trainShape{
	"train-compute": {
		name: "train-compute", width: 96, micro: 32, trainN: 8192, testN: 256,
		epochs: 4, fusionBytes: 64 << 10, stepSeconds: 5e-3,
		lr: 0.01, target: 0.8, ckptEvery: 16, tailPct: 90,
	},
	"train-comm": {
		name: "train-comm", width: 256, micro: 8, trainN: 2048, testN: 256,
		epochs: 2, fusionBytes: 512 << 10, adaptive: true, stepSeconds: 5e-3,
		lr: 0.003, target: 0.55, ckptEvery: 16, tailPct: 75,
	},
}

// trainInputs is what a training run is built from: the workload, its
// seed and the data generated from it.
type trainInputs struct {
	shape       trainShape
	seed        int64
	train, test *data.Dataset
}

func (s trainShape) inputs(seed int64) trainInputs {
	train, test := data.SyntheticMaskedLM(seed, s.trainN, s.testN, maskFrac)
	return trainInputs{shape: s, seed: seed, train: train, test: test}
}

func (s trainShape) model() *nn.Network {
	return nn.NewBERTProxy(bertInDim, bertClasses, s.width, bertDepth)
}

// rackedNet is the training workloads' cluster: racked 40 Gb TCP with
// seeded straggler jitter.
func rackedNet(ranks int, seed int64) *simnet.Model {
	m := simnet.TCP40Racked(ranks, nodesPerRack)
	m.Faults = &simnet.Faults{Jitter: jitter, JitterSeed: seed}
	return m
}

func (s trainShape) compression() compress.Compression {
	if s.adaptive {
		return compress.Adaptive()
	}
	return nil
}

func (s trainShape) stepsPerEpoch() int { return s.trainN / (trainRanks * s.micro) }

func (s trainShape) totalSteps() int { return s.epochs * s.stepsPerEpoch() }

// config builds the workload's trainer configuration. hook and onCk may
// be nil.
func (in trainInputs) config(hook func(int, [][]float32, tensor.Layout), onCk func(*checkpoint.State)) trainer.Config {
	s := in.shape
	total := s.totalSteps()
	return trainer.Config{
		Workers:     trainRanks,
		Microbatch:  s.micro,
		Reduction:   trainer.ReduceAdasum,
		Scope:       trainer.PostOptimizer,
		PerLayer:    true,
		Comm:        trainer.CommCluster,
		Overlap:     true,
		Strategy:    collective.StrategyRVH,
		FusionBytes: s.fusionBytes,
		Net:         rackedNet(trainRanks, in.seed),
		StepSeconds: s.stepSeconds,
		Compression: s.compression(),
		Model:       s.model,
		Optimizer:   optim.NewLAMB(s.model().Layout()),
		Schedule: optim.PolynomialWarmup{
			Base: s.lr, WarmupSteps: total / 10, TotalSteps: total, Power: 1,
		},
		Train: in.train, Test: in.test,
		MaxEpochs:            s.epochs,
		TargetAccuracy:       s.target,
		EvalEverySteps:       1,
		Sustained:            true,
		Seed:                 in.seed,
		CheckpointEverySteps: s.ckptEvery,
		OnCheckpoint:         onCk,
		Hook:                 hook,
		Parallel:             true,
	}
}

// ---------------------------------------------------------------- serve

const (
	serveRanks     = 64
	tenantN        = 512
	tenantDim      = 48
	tenantHidden   = 16
	tenantClass    = 4
	tenantTestN    = 128
	tenantTarget   = 0.8
	tenantNoise    = 1.0
	tenantLR       = 0.003
	tenantVariants = 24
	tenantFaults   = 12    // tenants that lose a rank mid-run
	arrivalGap     = 20e-3 // virtual seconds between arrivals
)

// tenantShape is one entry of the fixed serve-mix population. The
// multiset of shapes is the same for every seed, so the work offered to
// the cluster is too; the seed decides order, data and fault sites.
type tenantShape struct {
	ranks, minRanks int
	prio            serve.Priority
	micro, epochs   int
}

func tenantPopulation() []tenantShape {
	var pop []tenantShape
	gangs := []int{4, 8, 16, 32}
	prios := []serve.Priority{serve.PriorityLow, serve.PriorityNormal, serve.PriorityHigh}
	for v := 0; v < tenantVariants; v++ {
		for _, g := range gangs {
			for pi, p := range prios {
				ts := tenantShape{ranks: g, prio: p, micro: 4, epochs: 2 + v%2}
				if g >= 8 && (pi+v)%2 == 0 {
					ts.minRanks = g / 4
				}
				if g <= 8 {
					ts.micro = 8
				}
				pop = append(pop, ts)
			}
		}
	}
	return pop
}

func tenantConfig(ts tenantShape, seed int64, hook func(int, [][]float32, tensor.Layout)) trainer.Config {
	train, test := data.GeneratePair(data.Config{
		N: tenantN, Dim: tenantDim, Classes: tenantClass, Noise: tenantNoise, Seed: seed,
	}, tenantTestN)
	return trainer.Config{
		Microbatch:     ts.micro,
		Reduction:      trainer.ReduceAdasum,
		Scope:          trainer.PostOptimizer,
		PerLayer:       true,
		Comm:           trainer.CommCluster,
		Overlap:        true,
		Strategy:       collective.StrategyRVH,
		FusionBytes:    2048,
		StepSeconds:    1e-3,
		Model:          tenantModel,
		Optimizer:      optim.NewAdam(),
		Schedule:       optim.Constant{Base: tenantLR},
		Train:          train,
		Test:           test,
		MaxEpochs:      ts.epochs,
		TargetAccuracy: tenantTarget,
		EvalEverySteps: 1,
		Sustained:      true,
		Seed:           seed,
		Hook:           hook,
	}
}

func tenantModel() *nn.Network { return nn.NewMLP(tenantDim, tenantHidden, tenantClass) }

func serveNet(ranks int) *simnet.Model { return simnet.TCP40(ranks) }

func serveOptions() serve.Options {
	return serve.Options{Ranks: serveRanks, Net: serveNet, Preempt: true, Elastic: true}
}

// tenants generates the seeded serve-mix stream, an open loop at a fixed
// arrival rate. The population arrives in blocks of one tenant per
// (gang, priority) pair; the seed orders each block, generates every
// tenant's data, and picks which tenants lose a rank mid-run and when
// (placed by a standalone probe, as a user would). Only high-priority
// pinned tenants are chosen: the scheduler never checkpoints those, so
// a failure never meets a preemption or a resize (see ../README.md,
// "Known defect").
func tenants(seed int64, hook func(int, [][]float32, tensor.Layout)) []serve.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	pop := tenantPopulation()
	block := len(pop) / tenantVariants
	for b := 0; b < len(pop); b += block {
		blk := pop[b : b+block]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	var eligible []int
	for i, ts := range pop {
		if ts.prio == serve.PriorityHigh && ts.minRanks == 0 && ts.ranks >= 8 {
			eligible = append(eligible, i)
		}
	}
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	faulty := map[int]bool{}
	for _, i := range eligible[:tenantFaults] {
		faulty[i] = true
	}
	out := make([]serve.JobSpec, len(pop))
	for i, ts := range pop {
		cfg := tenantConfig(ts, seed*1000+int64(i), hook)
		spec := serve.JobSpec{
			Name:           fmt.Sprintf("t%02d-%s-%d", i, ts.prio, ts.ranks),
			Priority:       ts.prio,
			Ranks:          ts.ranks,
			MinRanks:       ts.minRanks,
			ArrivalSeconds: float64(i) * arrivalGap,
			Config:         cfg,
		}
		if faulty[i] {
			span := standaloneSim(cfg, ts.ranks)
			spec.Faults = &simnet.Faults{FailAtSeconds: map[int]float64{
				rng.Intn(ts.ranks): span * (0.2 + 0.4*rng.Float64()),
			}}
		}
		out[i] = spec
	}
	return out
}

// standaloneSim returns a tenant's simulated run time alone on its
// requested gang.
func standaloneSim(cfg trainer.Config, ranks int) float64 {
	cfg.Workers = ranks
	cfg.Net = serveNet(ranks)
	cfg.Hook = nil
	cfg.OnFailure = trainer.ShrinkContinue
	return trainer.Run(cfg).SimSeconds
}

// probeSpecs is the two-tenant preempt-and-migrate scenario the training
// workloads run through serve at their own model shapes: an elastic
// low-priority job fills a 16-rank cluster, a high-priority job arrives
// after its first step and preempts it, the low job re-seats on the
// half the cluster left, and grows back when the high job finishes.
func (in trainInputs) probeSpecs(firstStepSim float64) []serve.JobSpec {
	s := in.shape
	low := in.config(nil, nil)
	low.Train = in.train.Shard(0, s.trainN/(trainRanks*s.micro*4))
	low.MaxEpochs, low.CheckpointEverySteps, low.OnCheckpoint = 1, 0, nil
	high := low
	high.Train = in.train.Shard(1, s.trainN/(trainRanks*s.micro))
	return []serve.JobSpec{
		{Name: "probe-low", Priority: serve.PriorityLow, Ranks: trainRanks, MinRanks: trainRanks / 4, Config: low},
		{Name: "probe-high", Priority: serve.PriorityHigh, Ranks: trainRanks / 2, ArrivalSeconds: 1.5 * firstStepSim, Config: high},
	}
}

func (in trainInputs) probeOptions() serve.Options {
	return serve.Options{
		Ranks: trainRanks, Preempt: true, Elastic: true,
		Net: func(ranks int) *simnet.Model { return rackedNet(ranks, in.seed) },
	}
}
