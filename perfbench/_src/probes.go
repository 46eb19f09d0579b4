package main

import (
	"bytes"
	"math/rand"
	"time"

	"repro/internal/adasum"
	"repro/internal/checkpoint"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/float16"
	"repro/internal/fusion"
	"repro/internal/overlap"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// prober runs the per-layer replays: each times calls into one layer's
// public functions at the workload's shapes, on the workload's own
// captured data where the cost depends on it. Every timed call is a span.
type prober struct {
	tr  *tracer
	rep *report
}

// checkpoint times Handle.Snapshot and checkpoint.Unmarshal of the
// workload's last checkpoint, and checks that the bytes round-trip.
func (p *prober) checkpoint(h *trainer.Handle, ck []byte) {
	l := p.rep.layer
	l["checkpoint.capture_ms"] = timeReps(p.tr, "checkpoint.capture", 3, func() { h.Snapshot() }) * 1e3
	var st *checkpoint.State
	var err error
	l["checkpoint.unmarshal_ms"] = timeReps(p.tr, "checkpoint.unmarshal", 3, func() { st, err = checkpoint.Unmarshal(ck) }) * 1e3
	if err != nil || !bytes.Equal(st.Marshal(), ck) {
		p.rep.fail(1, "checkpoint does not round-trip: %v", err)
	}
}

// model times one replica's gradient, one optimizer step over its
// parameters and one microbatch fetch, at the workload's shapes.
func (p *prober) model(cfg trainer.Config, micro int) {
	l := p.rep.layer
	net := cfg.Model()
	net.Init(rand.New(rand.NewSource(cfg.Seed)))
	shard := cfg.Train.Shard(0, cfg.Workers)
	it := data.NewIterator(shard.N, micro, cfg.Seed)
	x, labels := shard.Batch(it.Next())
	l["nn.gradient_ms"] = timeReps(p.tr, "nn.gradient", 20, func() { net.Gradient(x, labels, micro) }) * 1e3
	opt := cfg.Optimizer.Clone()
	lr := cfg.Schedule.LR(0)
	l["optim.step_ms"] = timeReps(p.tr, "optim.step", 20, func() { opt.Step(net.Params(), net.Grads(), lr) }) * 1e3
	l["data.batch_us"] = timeReps(p.tr, "data.batch", 200, func() { shard.Batch(it.Next()) }) * 1e6
}

// trainerSteps runs a standalone handle of cfg through the same
// Hook-split spans as the training workloads, and probes its checkpoint.
// The serve-mix run has no trainer spans of its own, so the names do not
// mix.
func (p *prober) trainerSteps(cfg trainer.Config) {
	l := p.rep.layer
	ss := &stepSpans{tr: p.tr, op: -1, compute: -1, reduce: -1}
	cfg.Hook = func(int, [][]float32, tensor.Layout) { ss.hook() }
	var h *trainer.Handle
	l["trainer.start_ms"] = timeReps(p.tr, "trainer.start", 3, func() { h = trainer.Start(cfg) }) * 1e3
	steps := 1
	for ss.step(h) {
		steps++
	}
	p.rep.attempted += steps
	ss.report(l)
	st := h.Snapshot()
	var ck []byte
	l["checkpoint.marshal_ms"] = timeReps(p.tr, "checkpoint.marshal", 3, func() { ck = st.Marshal() }) * 1e3
	l["checkpoint.mb"] = float64(len(ck)) / 1e6
	p.checkpoint(h, ck)
	rungShares(l, tallyRungs(st))
}

// replaySpec is the reduction a workload runs, with contributions
// captured from its real run.
type replaySpec struct {
	ranks       int
	layout      tensor.Layout
	capture     [][][]float32 // [sample][rank] contributions
	fusionBytes int
	compression func() compress.Compression
	stepSeconds float64
	net         func() *simnet.Model
	// wirePerStep is the real run's wire bytes per step; 0 takes the
	// replay's own.
	wirePerStep float64
}

// replay drives the reduction layers on the captured contributions:
// the overlap engine step (host and virtual time, with and without the
// modeled compute), the fusion bucket count, one bucket's Adasum
// collective, the comm primitives, and the codec, float16, adasum and
// tensor kernels on the first bucket's data.
func (p *prober) replay(s replaySpec) {
	l := p.rep.layer
	tr := p.tr
	group := collective.WorldGroup(s.ranks)
	work := make([][]float32, s.ranks)
	for r := range work {
		work[r] = make([]float32, len(s.capture[0][r]))
	}
	load := func(i int) {
		for r := range work {
			copy(work[r], s.capture[i%len(s.capture)][r])
		}
	}
	// step replays the captured steps reps times (after one warm-up
	// step) through fresh engines and returns the median host seconds,
	// simulated seconds and wire bytes per step.
	step := func(name string, comp compress.Compression, stepSec float64, reps int) (host, sim, wire float64) {
		m := s.net()
		w := comm.NewWorld(s.ranks, m)
		eng := make([]*overlap.Engine, s.ranks)
		for r := range eng {
			eng[r] = overlap.New(overlap.Options{
				Group: group, Layout: s.layout, FusionBytes: s.fusionBytes,
				Strategy: collective.StrategyRVH, Overlap: true,
				Compression: comp, StepSeconds: stepSec, Faults: m.Faults,
			})
		}
		clocks := make([]float64, s.ranks)
		body := func(pr *comm.Proc) {
			eng[pr.Rank()].Step(pr, work[pr.Rank()])
			clocks[pr.Rank()] = pr.Clock()
		}
		load(0)
		w.Run(body)
		var hs, ss, ws []float64
		for i := 0; i < reps; i++ {
			load(i + 1)
			w.ResetWireBytes()
			id := tr.begin(name)
			t := time.Now()
			w.Run(body)
			hs = append(hs, time.Since(t).Seconds())
			tr.end(id)
			var mx float64
			for _, c := range clocks {
				mx = max(mx, c)
			}
			ss = append(ss, mx)
			ws = append(ws, float64(w.WireBytes()))
		}
		return median(hs), median(ss), median(ws)
	}
	host, sim, wire := step("overlap.Engine.Step", s.compression(), s.stepSeconds, 5)
	_, commSim, _ := step("overlap.Engine.Step.comm", s.compression(), 0, 3)
	_, _, dense := step("overlap.Engine.Step.dense", nil, s.stepSeconds, 1)
	l["overlap.step_ms"] = host * 1e3
	l["overlap.step_sim_ms"] = sim * 1e3
	l["overlap.comm_sim_ms"] = commSim * 1e3
	l["overlap.sim_scaling_eff"] = s.stepSeconds / sim
	if s.wirePerStep == 0 {
		s.wirePerStep = wire
	}
	l["compress.wire_ratio"] = s.wirePerStep / dense

	// Fusion: the engine's bucket rule over the backward walk.
	threshold := s.fusionBytes
	if threshold <= 0 {
		threshold = 2 << 20
	}
	firstBucket := func(x []float32) (*fusion.Group, int) {
		pk := fusion.NewPacker(threshold)
		var first *fusion.Group
		n := 0
		take := func(g *fusion.Group) {
			if g == nil {
				return
			}
			if n == 0 {
				first = &fusion.Group{Data: tensor.Clone(g.Data), Layout: g.Layout}
			}
			n++
		}
		for i := s.layout.NumLayers() - 1; i >= 0; i-- {
			take(pk.Ready(i, s.layout.Name(i), s.layout.Slice(x, i)))
		}
		take(pk.Flush())
		return first, n
	}
	buckets := make([]*fusion.Group, s.ranks)
	var nb int
	for r := range buckets {
		buckets[r], nb = firstBucket(s.capture[0][r])
	}
	l["fusion.buckets_per_step"] = float64(nb)
	bucket := buckets[0].Data
	n := len(bucket)

	// Collective: one bucket's Adasum across the group.
	{
		m := s.net()
		w := comm.NewWorld(s.ranks, m)
		comms := make([]*collective.Communicator, s.ranks)
		bw := make([][]float32, s.ranks)
		clocks := make([]float64, s.ranks)
		body := func(pr *comm.Proc) {
			r := pr.Rank()
			if comms[r] == nil {
				comms[r] = collective.New(pr, group, collective.Config{Strategy: collective.StrategyRVH})
			}
			comms[r].Adasum(bw[r], buckets[r].Layout)
			clocks[r] = pr.Clock()
		}
		reload := func() {
			for r := range bw {
				bw[r] = append(bw[r][:0], buckets[r].Data...)
			}
		}
		reload()
		w.Run(body)
		var sims []float64
		l["collective.adasum_ms"] = timeReps(tr, "collective.Adasum", 10, func() {
			reload()
			w.Run(body)
			var mx float64
			for _, c := range clocks {
				mx = max(mx, c)
			}
			sims = append(sims, mx)
		}) * 1e3
		l["collective.adasum_sim_ms"] = median(sims) * 1e3
	}

	// Comm primitives.
	{
		w := comm.NewWorld(2, s.net())
		const exchanges = 50
		l["comm.sendrecv_us"] = timeReps(tr, "comm.SendRecv", 5, func() {
			w.Run(func(pr *comm.Proc) {
				for i := 0; i < exchanges; i++ {
					pr.Release(pr.SendRecv(1-pr.Rank(), bucket))
				}
			})
		}) / exchanges * 1e6
		wr := comm.NewWorld(s.ranks, s.net())
		l["comm.run_us"] = timeReps(tr, "comm.Run", 200, func() { wr.Run(func(*comm.Proc) {}) }) * 1e6
		l["comm.new_world_us"] = timeReps(tr, "comm.NewWorld", 50, func() { comm.NewWorld(s.ranks, s.net()) }) * 1e6
	}

	// Kernels on the bucket's data.
	perElem := func(sec float64, elems int) float64 { return sec / float64(elems) * 1e9 }
	dec := make([]float32, n)
	for i, c := range []compress.Codec{compress.FP16(), compress.Int8(0), compress.TopK(0.01, false)} {
		enc := make([]float32, c.EncodedLen(n))
		ws := &compress.Workspace{}
		l["compress.encode_ns_per_elem."+codecs[i]] = perElem(timeReps(tr, "compress.Encode."+codecs[i], 30, func() { c.Encode(enc, bucket, ws) }), n)
		l["compress.decode_ns_per_elem."+codecs[i]] = perElem(timeReps(tr, "compress.Decode."+codecs[i], 30, func() { c.Decode(dec, enc) }), n)
	}
	bits := make([]float16.Bits, n)
	l["float16.encode_ns_per_elem"] = perElem(timeReps(tr, "float16.EncodeInto", 30, func() { float16.EncodeInto(bits, bucket) }), n)
	l["float16.decode_ns_per_elem"] = perElem(timeReps(tr, "float16.DecodeInto", 30, func() { float16.DecodeInto(dec, bits) }), n)
	a, b := s.capture[0][0], s.capture[0][1]
	dst := make([]float32, len(a))
	l["adasum.combine_ns_per_elem"] = perElem(timeReps(tr, "adasum.Combine", 30, func() { adasum.Combine(dst, a, b) }), len(a))
	l["tensor.dotnorms_ns_per_elem"] = perElem(timeReps(tr, "tensor.DotNorms", 30, func() { tensor.DotNorms(a, b) }), len(a))
}

// tallyRungs counts the adaptive ladder rung every worker's bucket slots
// sit on, read from a checkpoint's policy state (the engine's
// SnapshotPolicies layout: two telemetry values, then the policy's
// rung). A worker without policy state ships every bucket on rung 0.
func tallyRungs(st *checkpoint.State) [4]int {
	var n [4]int
	for _, w := range st.PerWorker {
		if w.Policy == nil {
			n[0]++
			continue
		}
		for _, slot := range w.Policy {
			if len(slot) > 2 {
				if r := int(slot[2]); r >= 0 && r < len(n) {
					n[r]++
				}
			}
		}
	}
	return n
}
