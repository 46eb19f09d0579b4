package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/serve"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// setupReps is how many times a run builds its inputs and handle before
// measuring; setup_s is the median.
const setupReps = 5

// heapEvery is the op interval of the first repetition at which the
// live heap is sampled (a forced collection, outside the op timing).
const heapEvery = 8

// trainRun is one measured execution of a training workload: every
// repetition's host timings, and the deterministic outputs of the first
// (always complete) repetition.
type trainRun struct {
	shape  trainShape
	in     trainInputs
	setups []float64 // CPU seconds per set-up
	ops    []float64 // wall seconds per Step, all repetitions
	cpu    []float64 // CPU seconds per Step, all repetitions
	heap   *heapSampler
	gc     gcStats // allocation and pause deltas over the Step loops

	// First repetition.
	h       *trainer.Handle
	sims    []float64 // cumulative simulated seconds after each step
	wire    int64
	res     *trainer.Result
	hash    uint64
	rungs   [4]int // adaptive ladder rung per (checkpoint, worker, slot)
	ckBytes int    // size of the last checkpoint marshalled in OnCheckpoint
	lastCk  []byte // traced: that checkpoint's bytes

	// Traced run only.
	tr      *tracer
	capture [][][]float32 // sampled steps' per-rank contributions
	layout  tensor.Layout
}

// stepSpans splits a traced Step at Config.Hook, which the trainer calls
// after the local compute and before the reduction: trainer.compute runs
// from Step start to the Hook, trainer.reduce from the Hook to Step
// return, both children of trainer.Step. With a nil tracer it only runs
// the Step.
type stepSpans struct {
	tr                  *tracer
	op, compute, reduce int
}

// hook closes the compute span and opens the reduce span; the workload's
// Config.Hook calls it.
func (ss *stepSpans) hook() {
	ss.tr.end(ss.compute)
	ss.reduce = ss.tr.begin("trainer.reduce")
}

func (ss *stepSpans) step(h *trainer.Handle) bool {
	ss.op = ss.tr.begin("trainer.Step")
	ss.compute = ss.tr.begin("trainer.compute")
	ss.reduce = -1
	more := h.Step()
	if ss.reduce >= 0 {
		ss.tr.end(ss.reduce)
	} else {
		ss.tr.end(ss.compute)
	}
	ss.tr.end(ss.op)
	return more
}

// report sets the trainer split metrics from the recorded spans and
// returns trace.coverage: the two self-time medians over the Step median.
func (ss *stepSpans) report(l map[string]float64) float64 {
	self, dur := ss.tr.selfTimes(), ss.tr.durations()
	compute, reduce := median(self["trainer.compute"]), median(self["trainer.reduce"])
	l["trainer.compute_ms"] = compute * 1e3
	l["trainer.reduce_ms"] = reduce * 1e3
	l["trace.coverage"] = (compute + reduce) / median(dur["trainer.Step"])
	return l["trace.coverage"]
}

// rungShares reports the share of each adaptive ladder rung in counts.
func rungShares(l map[string]float64, counts [4]int) {
	var total int
	for _, c := range counts {
		total += c
	}
	for i, name := range rungs {
		l["compress.rung_share."+name] = float64(counts[i]) / float64(total)
	}
}

// runTrain measures a training workload: untraced for the window, and
// with trace, once more traced plus the per-layer probes.
func runTrain(shape trainShape, seed int64, window time.Duration, traced bool, traceDir string) *report {
	rep := newReport()
	u := driveTrain(shape, seed, window, nil, rep)
	if !traced {
		u.endToEnd(rep)
		return rep
	}
	t := driveTrain(shape, seed, 0, newTracer(), rep)
	t.compare(u, rep)
	t.layerMetrics(u, rep)
	if path, err := t.tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", shape.name, seed)); err != nil {
		rep.fail(len(t.ops), "writing trace: %v", err)
	} else {
		rep.note("trace: %d spans in %s", len(t.tr.spans), path)
	}
	return rep
}

// driveTrain sets the workload up setupReps times, runs the last handle
// to completion, and — untraced — keeps starting fresh runs until the
// window has passed. A traced run executes exactly one repetition.
func driveTrain(shape trainShape, seed int64, window time.Duration, tr *tracer, rep *report) *trainRun {
	run := &trainRun{shape: shape, heap: newHeapSampler(), tr: tr}
	ss := &stepSpans{tr: tr, op: -1, compute: -1, reduce: -1}
	first := true
	onCk := func(st *checkpoint.State) {
		id := tr.begin("checkpoint.marshal")
		b := st.Marshal()
		tr.end(id)
		if first {
			run.ckBytes = len(b)
			if tr != nil {
				run.lastCk = b
			}
			for i, c := range tallyRungs(st) {
				run.rungs[i] += c
			}
		}
	}
	var hook func(int, [][]float32, tensor.Layout)
	if tr != nil {
		samples := map[int]bool{1: true, shape.totalSteps() / 2: true}
		hook = func(step int, contribs [][]float32, layout tensor.Layout) {
			if samples[step] {
				id := tr.begin("perfbench.capture")
				c := make([][]float32, len(contribs))
				for i, x := range contribs {
					c[i] = tensor.Clone(x)
				}
				run.capture = append(run.capture, c)
				run.layout = layout
				tr.end(id)
			}
			ss.hook()
		}
	}
	setup := func() *trainer.Handle {
		runtime.GC()
		id := tr.begin("perfbench.setup")
		c := cpuNow()
		run.in = shape.inputs(seed)
		cfg := run.in.config(hook, onCk)
		sid := tr.begin("trainer.start")
		h := trainer.Start(cfg)
		tr.end(sid)
		run.setups = append(run.setups, cpuNow()-c)
		tr.end(id)
		run.heap.mark()
		return h
	}
	n := setupReps
	if tr != nil {
		n = 3
	}
	var h *trainer.Handle
	for i := 0; i < n; i++ {
		h = setup()
	}
	deadline := time.Now().Add(window)
	for r := 0; ; r++ {
		if r > 0 {
			if tr != nil || time.Now().After(deadline) {
				break
			}
			h = setup()
		}
		g0 := readGC()
		run.drive(h, r, deadline, ss, rep)
		g1 := readGC()
		run.gc.alloc += g1.alloc - g0.alloc
		run.gc.pauseNs += g1.pauseNs - g0.pauseNs
		run.gc.numGC += g1.numGC - g0.numGC
		if r == 0 {
			run.finishFirst(h, rep)
			first = false
		}
	}
	rep.attempted += len(run.ops)
	return run
}

// drive steps h, the r-th repetition, to completion — or, after the
// first repetition, until the deadline — checking every step's virtual
// clock: it must advance, and later repetitions must replay the first
// one's clock bit for bit.
func (run *trainRun) drive(h *trainer.Handle, r int, deadline time.Time, ss *stepSpans, rep *report) {
	tr := run.tr
	prev := h.SimSeconds()
	bad := 0
	for k := 0; ; k++ {
		if r > 0 && time.Now().After(deadline) {
			break
		}
		tr.setOp(len(run.ops))
		c := cpuNow()
		t := time.Now()
		more := ss.step(h)
		d := time.Since(t).Seconds()
		run.cpu = append(run.cpu, cpuNow()-c)
		tr.setOp(-1)
		run.ops = append(run.ops, d)
		if r == 0 && (k+1)%heapEvery == 0 {
			run.heap.mark()
		}
		sim := h.SimSeconds()
		ok := sim > prev && !math.IsInf(sim, 0)
		if r == 0 {
			run.sims = append(run.sims, sim)
		} else if k >= len(run.sims) || sim != run.sims[k] {
			ok = false
		}
		if !ok {
			bad++
		}
		prev = sim
		if !more {
			break
		}
	}
	if bad > 0 {
		rep.fail(bad, "repetition %d: %d steps with a virtual clock that did not advance or did not replay the first run", r, bad)
	}
}

// finishFirst records the first repetition's deterministic outputs and
// checks them: finite parameters, and a last epoch with a lower loss
// than the first.
func (run *trainRun) finishFirst(h *trainer.Handle, rep *report) {
	if run.tr != nil {
		run.h = h // the probes snapshot it; untraced, retaining it would inflate max_heap_mb
	}
	run.res = h.Result()
	run.wire = h.WireBytes()
	run.hash = hashFloats(run.res.FinalParams)
	steps := len(run.sims)
	if !allFinite(run.res.FinalParams) {
		rep.fail(steps, "final parameters are not finite")
	}
	ep := run.res.Epochs
	if len(ep) < 2 || !(ep[len(ep)-1].TrainLoss < ep[0].TrainLoss) {
		rep.fail(steps, "last epoch's loss is not below the first: %+v", ep)
	}
}

// opTotals returns the samples and Steps per second of secs, the
// per-Step wall or CPU seconds.
func (run *trainRun) opTotals(secs []float64) (samplesPerS, stepsPerS float64) {
	stepsPerS = float64(len(secs)) / sum(secs)
	return stepsPerS * float64(trainRanks*run.shape.micro), stepsPerS
}

// endToEnd reports the end-to-end metrics of an untraced run.
func (run *trainRun) endToEnd(rep *report) {
	e := rep.e2e
	steps := len(run.sims)
	res := run.res
	stt := res.StepsToTarget
	if !res.Converged || stt <= 0 {
		stt = steps
		rep.note("target %.2f not reached sustainably within %d steps; steps_to_target is censored at the budget", run.shape.target, steps)
	}
	e["setup_s"] = median(run.setups)
	pct := tailPercentile(len(run.cpu), run.shape.tailPct)
	e["op_cpu_ms_p50"] = median(run.cpu) * 1e3
	e["op_cpu_ms_tail"] = quantile(run.cpu, pct/100) * 1e3
	e["max_heap_mb"] = float64(run.heap.peak) / 1e6
	e["samples_per_cpu_s"], e["steps_per_cpu_s"] = run.opTotals(run.cpu)
	wallSamples, _ := run.opTotals(run.ops)
	noteHost(rep, run.ops, pct, len(run.setups), wallSamples)
	e["sim_step_ms"] = res.SimSeconds / float64(steps) * 1e3
	e["steps_to_target"] = float64(stt)
	e["sim_time_to_target_s"] = run.sims[stt-1]
	e["final_loss"] = res.Epochs[len(res.Epochs)-1].TrainLoss
	// One job: its completion time is the run's simulated makespan.
	e["sim_makespan_s"] = res.SimSeconds
	e["sim_jct_p50_s"] = res.SimSeconds
	e["sim_jct_tail_s"] = res.SimSeconds
	rep.note("failed_frac %g (%d of %d ops)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
}

// compare checks that tracing did not perturb the run: the traced
// repetition's virtual clock, wire bytes, convergence and final
// parameters must equal the untraced first repetition's bit for bit.
func (t *trainRun) compare(u *trainRun, rep *report) {
	same := len(t.sims) == len(u.sims) && t.wire == u.wire && t.hash == u.hash &&
		t.res.StepsToTarget == u.res.StepsToTarget && len(t.res.Epochs) == len(u.res.Epochs)
	for i := 0; same && i < len(t.sims); i++ {
		same = t.sims[i] == u.sims[i]
	}
	for i := 0; same && i < len(t.res.Epochs); i++ {
		same = t.res.Epochs[i] == u.res.Epochs[i]
	}
	if !same {
		rep.fail(len(t.ops), "traced run differs from the untraced run (hash %x vs %x, wire %d vs %d)", t.hash, u.hash, t.wire, u.wire)
	}
}

// layerMetrics reports the per-layer metrics: span self times of the
// traced run, runtime and policy counters of the untraced one, and the
// replay probes at the workload's shapes.
func (t *trainRun) layerMetrics(u *trainRun, rep *report) {
	l := rep.layer
	dur := t.tr.durations()
	steps := len(u.sims)
	if cov := (&stepSpans{tr: t.tr}).report(l); cov < 0.9 {
		rep.fail(len(t.ops), "trainer.compute + trainer.reduce self times cover %.3f of the traced op p50 (< 0.9)", cov)
	}
	l["trainer.start_ms"] = median(dur["trainer.start"]) * 1e3
	tracedRate, _ := t.opTotals(t.ops)
	untracedRate, _ := u.opTotals(u.ops[:steps])
	l["trace.overhead_ratio"] = tracedRate / untracedRate
	l["checkpoint.marshal_ms"] = median(dur["checkpoint.marshal"]) * 1e3
	l["checkpoint.mb"] = float64(u.ckBytes) / 1e6
	l["comm.wire_mb_per_step"] = float64(u.wire) / float64(steps) / 1e6
	rungShares(l, u.rungs)
	l["go.alloc_mb_per_op"] = float64(u.gc.alloc) / float64(len(u.ops)) / 1e6
	l["go.gc_pause_ms"] = 0
	if u.gc.numGC > 0 {
		l["go.gc_pause_ms"] = float64(u.gc.pauseNs) / float64(u.gc.numGC) / 1e6
	}

	cfg := t.in.config(nil, nil)
	p := &prober{tr: t.tr, rep: rep}
	p.checkpoint(t.h, t.lastCk)
	p.model(cfg, t.shape.micro)
	p.replay(replaySpec{
		ranks: trainRanks, layout: t.layout, capture: t.capture,
		fusionBytes: t.shape.fusionBytes, compression: t.shape.compression,
		stepSeconds: t.shape.stepSeconds, net: func() *simnet.Model { return rackedNet(trainRanks, t.in.seed) },
		wirePerStep: float64(u.wire) / float64(steps),
	})
	// serve at this workload's model shapes
	svc := serve.New(t.in.probeOptions())
	for _, spec := range t.in.probeSpecs(u.sims[0]) {
		if _, err := svc.Submit(spec); err != nil {
			rep.fail(1, "probe spec rejected: %v", err)
			return
		}
	}
	micro := []int{t.shape.micro, t.shape.micro}
	out := driveService(svc, micro, t.tr, time.Time{}, nil)
	out.check(rep, "serve probe")
	out.layerMetrics(rep)
}

// noteHost prints the wall-clock counterparts of the CPU-time metrics and
// how the tail and set-up figures were taken.
func noteHost(rep *report, wall []float64, pct float64, setups int, wallSamplesPerS float64) {
	rep.note("wall clock: op p50 %.4g ms, op p%g %.4g ms, %.4g samples/s", median(wall)*1e3, pct, quantile(wall, pct/100)*1e3, wallSamplesPerS)
	rep.note("op_cpu_ms_tail is p%g of %d ops (%.0f beyond it); setup_s is the median CPU time of %d set-ups",
		pct, len(wall), float64(len(wall))*(1-pct/100), setups)
}
