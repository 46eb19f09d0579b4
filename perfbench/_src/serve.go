package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/compress"
	"repro/internal/serve"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// serveHeapEvery is the Next interval of the first drain at which the
// live heap is sampled (a forced collection, outside the op timing).
const serveHeapEvery = 32

// serveOut is one drain of a service: per-Next host timings and event
// classes, and what the snapshots between events showed.
type serveOut struct {
	svc     *serve.Service // dropped once the drain's results are harvested
	arrive  []float64      // per job
	micro   []int          // per job
	ops     []float64      // wall seconds per Next
	cpu     []float64      // CPU seconds per Next
	classes []string
	bad     int // events whose snapshot broke the rank budget
	steps   int // steps committed
	samples int // samples those steps trained
	// commitAt[j][k] is the cluster time of job j's (k+1)-th commit.
	commitAt [][]float64
	// targetStep and losses are each tenant's steps to target and last
	// epoch loss, harvested from the first drain.
	targetStep []int
	losses     []float64
	snapUs     []float64 // traced: Snapshot + Render per event
	final      serve.Snapshot
	render     []byte
	complete   bool
}

// driveService drains svc with Next, timing each call, and diffs the
// Snapshot around it: the rank budget must hold at every event, steps
// and samples are counted from the jobs' step counters, and each event
// is classified as commit, admit, preempt or migrate. A non-zero
// deadline stops the drain early (complete stays false).
func driveService(svc *serve.Service, micro []int, tr *tracer, deadline time.Time, heap *heapSampler) *serveOut {
	out := &serveOut{svc: svc, micro: micro}
	prev := svc.Snapshot()
	out.commitAt = make([][]float64, len(prev.Jobs))
	for {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		tr.setOp(len(out.ops))
		id := tr.begin("serve.Next")
		c := cpuNow()
		t := time.Now()
		more := svc.Next()
		d := time.Since(t).Seconds()
		out.cpu = append(out.cpu, cpuNow()-c)
		tr.end(id)
		var snap serve.Snapshot
		if tr != nil {
			sid := tr.begin("serve.snapshot")
			t := time.Now()
			snap = svc.Snapshot()
			var buf bytes.Buffer
			snap.Render(&buf)
			out.snapUs = append(out.snapUs, time.Since(t).Seconds()*1e6)
			tr.end(sid)
		} else {
			snap = svc.Snapshot()
		}
		tr.setOp(-1)
		if heap != nil && len(out.ops)%serveHeapEvery == serveHeapEvery-1 {
			heap.mark()
		}
		out.ops = append(out.ops, d)
		out.classes = append(out.classes, out.account(prev, snap))
		prev = snap
		if !more {
			out.complete = true
			break
		}
	}
	out.final = prev
	var buf bytes.Buffer
	prev.Render(&buf)
	out.render = buf.Bytes()
	return out
}

// account folds one event's snapshot diff into the counters and returns
// the event's class.
func (o *serveOut) account(prev, snap serve.Snapshot) string {
	used := 0
	class := "commit"
	rank := map[string]int{"commit": 0, "admit": 1, "migrate": 2, "preempt": 3}
	raise := func(c string) {
		if rank[c] > rank[class] {
			class = c
		}
	}
	for i, j := range snap.Jobs {
		p := prev.Jobs[i]
		used += j.Ranks
		for k := p.Steps; k < j.Steps; k++ {
			o.steps++
			o.samples += p.Ranks * o.micro[i]
			o.commitAt[i] = append(o.commitAt[i], snap.Now)
		}
		switch {
		case j.Preemptions > p.Preemptions:
			raise("preempt")
		case j.Migrations > p.Migrations:
			raise("migrate")
		case j.State != p.State && (j.State == "running" || j.State == "queued"):
			raise("admit")
		}
	}
	if used+snap.FreeRanks != snap.ClusterRanks || snap.FreeRanks < 0 ||
		snap.BusyRanks+snap.FreeRanks != snap.ClusterRanks {
		o.bad++
	}
	return class
}

// check counts budget violations and, for a complete drain, jobs that
// did not finish.
func (o *serveOut) check(rep *report, what string) {
	rep.attempted += len(o.ops)
	if o.bad > 0 {
		rep.fail(o.bad, "%s: %d events broke seated + free = cluster", what, o.bad)
	}
	if o.complete && o.final.DoneJobs != len(o.final.Jobs) {
		rep.fail(len(o.ops), "%s: %d of %d jobs done at the end", what, o.final.DoneJobs, len(o.final.Jobs))
	}
}

// harvest reads what the end-to-end metrics need from the finished
// tenants' results: the step each reached its target (censored at its
// last commit) and its last epoch's loss.
func (o *serveOut) harvest(rep *report) {
	for i, j := range o.final.Jobs {
		res := o.svc.Result(i)
		if res == nil {
			continue // unfinished; check has already failed the drain
		}
		k := res.StepsToTarget
		if !res.Converged || k <= 0 || k > len(o.commitAt[i]) {
			k = len(o.commitAt[i])
			rep.note("tenant %s: target not reached sustainably; censored at %d steps", j.Name, k)
		}
		o.targetStep = append(o.targetStep, k)
		if n := len(res.Epochs); n > 0 {
			o.losses = append(o.losses, res.Epochs[n-1].TrainLoss)
		}
	}
}

// layerMetrics reports the serve layer's per-layer metrics.
func (o *serveOut) layerMetrics(rep *report) {
	l := rep.layer
	by := map[string][]float64{}
	for i, c := range o.classes {
		by[c] = append(by[c], o.ops[i]*1e6)
	}
	for _, c := range []string{"commit", "admit", "preempt", "migrate"} {
		if len(by[c]) == 0 {
			l["serve.next_us."+c] = 0
			rep.note("serve.next_us.%s: no such event in this run", c)
			continue
		}
		l["serve.next_us."+c] = median(by[c])
	}
	var pre, mig, fail int
	var wait float64
	for _, j := range o.final.Jobs {
		pre += j.Preemptions
		mig += j.Migrations
		fail += j.Failures
		wait += j.QueueWait
	}
	l["serve.preemptions"] = float64(pre)
	l["serve.migrations"] = float64(mig)
	l["serve.failures_healed"] = float64(fail)
	l["serve.queue_wait_sim_s"] = wait / float64(len(o.final.Jobs))
	l["serve.snapshot_us"] = median(o.snapUs)
}

// ---------------------------------------------------------- serve-mix

// serveRun is one measured execution of serve-mix.
type serveRun struct {
	setups []float64
	drains []*serveOut
	heap   *heapSampler
	gc     gcStats
	// Traced run only.
	tr      *tracer
	capture [][][]float32
	layout  tensor.Layout
	cfg     trainer.Config // the captured tenant's configuration
}

func runServe(seed int64, window time.Duration, traced bool, traceDir string) *report {
	rep := newReport()
	u := driveServe(seed, window, nil, rep)
	if !traced {
		u.endToEnd(rep)
		return rep
	}
	t := driveServe(seed, 0, newTracer(), rep)
	if !bytes.Equal(t.drains[0].render, u.drains[0].render) {
		rep.fail(len(t.drains[0].ops), "traced drain renders a different final snapshot")
	}
	t.layerMetrics(u, rep)
	if path, err := t.tr.write(traceDir, fmt.Sprintf("serve-mix-seed%d.jsonl", seed)); err != nil {
		rep.fail(1, "writing trace: %v", err)
	} else {
		rep.note("trace: %d spans in %s", len(t.tr.spans), path)
	}
	return rep
}

// driveServe builds the service setupReps times, drains the last one
// completely, and — untraced — keeps draining fresh services until the
// window has passed. Every drain must render the same final snapshot.
func driveServe(seed int64, window time.Duration, tr *tracer, rep *report) *serveRun {
	run := &serveRun{heap: newHeapSampler(), tr: tr}
	var hook func(int, [][]float32, tensor.Layout)
	if tr != nil {
		// Capture a 16-rank tenant's contributions at two of its steps.
		hook = func(step int, contribs [][]float32, layout tensor.Layout) {
			if len(contribs) != 16 || step < 1 || len(run.capture) >= 2 {
				return
			}
			if len(run.capture) == 1 && len(run.capture[0][0]) != len(contribs[0]) {
				return
			}
			c := make([][]float32, len(contribs))
			for i, x := range contribs {
				c[i] = tensor.Clone(x)
			}
			run.capture = append(run.capture, c)
			run.layout = layout
		}
	}
	var arrive []float64
	var micro []int
	setup := func() *serve.Service {
		runtime.GC()
		id := tr.begin("perfbench.setup")
		c := cpuNow()
		ts := tenants(seed, hook)
		svc := serve.New(serveOptions())
		arrive, micro = arrive[:0], micro[:0]
		for _, spec := range ts {
			if _, err := svc.Submit(spec); err != nil {
				panic("perfbench: tenant rejected: " + err.Error())
			}
			arrive = append(arrive, spec.ArrivalSeconds)
			micro = append(micro, spec.Config.Microbatch)
		}
		run.setups = append(run.setups, cpuNow()-c)
		tr.end(id)
		if run.cfg.Model == nil {
			run.cfg = ts[0].Config
		}
		run.heap.mark()
		return svc
	}
	n := setupReps
	if tr != nil {
		n = 1
	}
	var svc *serve.Service
	for i := 0; i < n; i++ {
		svc = setup()
	}
	deadline := time.Now().Add(window)
	for r := 0; ; r++ {
		if r > 0 {
			if tr != nil || time.Now().After(deadline) {
				break
			}
			svc = setup()
		}
		dl, heap := deadline, (*heapSampler)(nil)
		if r == 0 {
			dl, heap = time.Time{}, run.heap
		}
		g0 := readGC()
		out := driveService(svc, append([]int(nil), micro...), tr, dl, heap)
		g1 := readGC()
		run.gc.alloc += g1.alloc - g0.alloc
		run.gc.pauseNs += g1.pauseNs - g0.pauseNs
		run.gc.numGC += g1.numGC - g0.numGC
		out.arrive = append([]float64(nil), arrive...)
		out.check(rep, fmt.Sprintf("drain %d", r))
		if r == 0 {
			out.harvest(rep)
		}
		out.svc = nil
		if out.complete && r > 0 && !bytes.Equal(out.render, run.drains[0].render) {
			rep.fail(len(out.ops), "drain %d renders a different final snapshot than drain 0", r)
		}
		run.drains = append(run.drains, out)
	}
	return run
}

// endToEnd reports serve-mix's end-to-end metrics: host numbers over
// every drain, virtual ones from the first (complete) drain.
func (run *serveRun) endToEnd(rep *report) {
	e := rep.e2e
	var ops, cpu []float64
	var steps, samples int
	for _, d := range run.drains {
		ops = append(ops, d.ops...)
		cpu = append(cpu, d.cpu...)
		steps += d.steps
		samples += d.samples
	}
	e["setup_s"] = median(run.setups)
	pct := tailPercentile(len(cpu), 99)
	e["op_cpu_ms_p50"] = median(cpu) * 1e3
	e["op_cpu_ms_tail"] = quantile(cpu, pct/100) * 1e3
	e["max_heap_mb"] = float64(run.heap.peak) / 1e6
	e["samples_per_cpu_s"] = float64(samples) / sum(cpu)
	e["steps_per_cpu_s"] = float64(steps) / sum(cpu)
	noteHost(rep, ops, pct, len(run.setups), float64(samples)/sum(ops))

	d := run.drains[0]
	snap := d.final
	var sim float64
	var jobSteps int
	var jct, stt, ttt []float64
	for i, j := range snap.Jobs {
		sim += j.SimSeconds
		jobSteps += j.Steps
		jct = append(jct, j.DoneAt-d.arrive[i])
		k := d.targetStep[i]
		stt = append(stt, float64(k))
		ttt = append(ttt, d.commitAt[i][k-1]-d.arrive[i])
	}
	e["sim_step_ms"] = sim / float64(jobSteps) * 1e3
	e["steps_to_target"] = mean(stt)
	e["sim_time_to_target_s"] = mean(ttt)
	e["final_loss"] = mean(d.losses)
	e["sim_makespan_s"] = snap.Now
	jp := tailPercentile(len(jct), 99)
	e["sim_jct_p50_s"] = median(jct)
	e["sim_jct_tail_s"] = quantile(jct, jp/100)
	rep.note("sim_jct_tail_s is p%g of %d jobs; %d drains", jp, len(jct), len(run.drains))
	rep.note("failed_frac %g (%d of %d ops)", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
}

// layerMetrics reports serve-mix's per-layer metrics: the serve layer
// from the traced drain, everything below it from probes at a captured
// 16-rank tenant's shapes.
func (t *serveRun) layerMetrics(u *serveRun, rep *report) {
	l := rep.layer
	d := t.drains[0]
	d.layerMetrics(rep)
	// Same events on both sides: the ratio of host seconds is the
	// inverse ratio of throughputs.
	l["trace.overhead_ratio"] = sum(u.drains[0].ops) / sum(d.ops)
	var wire int64
	var steps int
	for _, j := range u.drains[0].final.Jobs {
		wire += j.WireBytes
		steps += j.Steps
	}
	l["comm.wire_mb_per_step"] = float64(wire) / float64(steps) / 1e6
	var uops int
	for _, ud := range u.drains {
		uops += len(ud.ops)
	}
	l["go.alloc_mb_per_op"] = float64(u.gc.alloc) / float64(uops) / 1e6
	l["go.gc_pause_ms"] = 0
	if u.gc.numGC > 0 {
		l["go.gc_pause_ms"] = float64(u.gc.pauseNs) / float64(u.gc.numGC) / 1e6
	}
	if len(t.capture) == 0 {
		rep.fail(1, "no 16-rank tenant step was captured")
		return
	}
	cfg := t.cfg
	cfg.Workers = 16
	cfg.Net = serveNet(16)
	p := &prober{tr: t.tr, rep: rep}
	p.trainerSteps(cfg)
	p.model(cfg, cfg.Microbatch)
	p.replay(replaySpec{
		ranks: 16, layout: t.layout, capture: t.capture,
		fusionBytes: cfg.FusionBytes, compression: func() compress.Compression { return cfg.Compression },
		stepSeconds: cfg.StepSeconds, net: func() *simnet.Model { return serveNet(16) },
	})
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
