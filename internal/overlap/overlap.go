// Package overlap is the asynchronous bucketed-reduction engine: the
// execution model of §4.4.3 in which tensor fusion and communication/
// compute overlap turn a training step from "backprop, then one
// monolithic allreduce" into a pipeline. As simulated backprop walks the
// layers in reverse, each layer's gradient is declared ready and packed
// into a fusion bucket; when a bucket reaches the threshold it is
// launched as an asynchronous collective (comm.Handle) that runs on its
// own channel plane while earlier layers' backward compute continues.
// Buckets chain on a per-rank serialized communication stream (the way
// Horovod's background thread issues fusion buffers in order), and the
// join at the end of the step folds each bucket's arrival into the
// rank's clock with max(compute, arrival) — so the simulated step time
// is the critical path of the compute/communication pipeline, not the
// sum of its parts.
//
// The engine runs the same buckets through the same collectives whether
// Overlap is on or off; the synchronous mode simply blocks at each
// launch. The two modes therefore produce bitwise-identical results —
// the property the trainer's A/B tests pin down — and differ only in
// virtual time. With collective.StrategyTree the result is additionally
// bitwise-equal to the host-side tree reduction adasum.TreeReduce, and
// with collective.StrategyLinear to the host mean adasum.MeanReduce, so
// the whole bucketed substrate can be verified against the monolithic
// references at zero tolerance.
package overlap

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/fusion"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// Options configures an Engine.
type Options struct {
	// Group is the set of world ranks reducing together.
	Group collective.Group
	// Layout is the per-layer segmentation of the gradient vector; the
	// backward walk declares layers ready in reverse layout order.
	Layout tensor.Layout
	// FusionBytes is the bucket threshold (<= 0 selects 2 MB, Horovod's
	// default fusion buffer).
	FusionBytes int
	// Strategy selects the per-bucket collective on the unified
	// collective.Strategy axis: StrategyTree (default) and StrategyRVH
	// run the Adasum combine (host-tree parity and Algorithm 1
	// respectively); StrategyRing and StrategyLinear run the
	// synchronous-SGD mean, on the bandwidth-optimal ring or on the
	// group-order chain (host-mean parity). StrategyAuto resolves to the
	// parity tree — the deterministic default the A/B harness verifies
	// against.
	Strategy collective.Strategy
	// Overlap launches buckets asynchronously against the remaining
	// backward compute; when false every bucket blocks at launch (the
	// bulk-synchronous A/B baseline with identical arithmetic).
	Overlap bool
	// StepSeconds is the simulated backward-compute time of one step,
	// apportioned to layers proportionally to their parameter counts and
	// charged as the reverse walk passes them. Zero means compute-free
	// (pure communication measurement).
	StepSeconds float64
	// PreSeconds is extra compute charged before the backward walk —
	// the forward pass, or the earlier local steps of an accumulated
	// (LocalSteps > 1) reduction whose backprop cannot overlap with this
	// step's communication.
	PreSeconds float64
	// Compression is the unified compression knob, applied at bucket
	// granularity. A compress.Codec fixes one wire format: each fused
	// bucket is quantized once at launch (error-feedback codecs carry
	// the dropped remainder to the next step, per rank and per bucket
	// slot), and the bucket's collective encodes every hop's payload so
	// transfer costs, pool traffic and the wire-byte meter see
	// compressed sizes. A compress.Policy instead picks the codec per
	// bucket launch from the slot's telemetry (last charged transfer,
	// modeled encode cost, EF residual vs. gradient norm); decisions are
	// recorded in the bucket program at launch, so synchronous and
	// overlapped runs stay bitwise-equal. Encode and decode passes are
	// charged through the cost model's MemCopy. nil or compress.None()
	// leaves the engine bitwise- and clock-identical to the uncompressed
	// substrate.
	Compression compress.Compression
	// Hierarchy, when non-empty, runs each bucket's reduction through
	// collective.NewHierarchy(slotComm, Hierarchy...) instead of a flat
	// collective: reduce-scatter (sum) within each width-sized domain,
	// the configured combine across the outermost level, allgathers
	// unwinding. The product of widths must divide the group size. After
	// an elastic Rebind that breaks divisibility the engine falls back
	// to the flat collective (see Rebind).
	Hierarchy []int
	// Faults injects the straggler model: each rank's per-step backward
	// compute (StepSeconds, PreSeconds) is scaled by
	// Faults.ComputeScale(rank, step) — per-rank skew plus deterministic
	// jitter. nil leaves compute nominal. Hard failures ride the comm
	// layer (simnet.Faults.FailAtSeconds), not the engine.
	Faults *simnet.Faults
}

// strategy resolves the configured per-bucket algorithm.
func (o Options) strategy() collective.Strategy {
	if o.Strategy == collective.StrategyAuto {
		return collective.StrategyTree
	}
	return o.Strategy
}

// Engine is one rank's bucket scheduler. It owns the per-rank packer,
// handle list, layer-time table and per-bucket-slot communicators, all
// reused across steps; every rank of the group must drive its own
// Engine with the same Options so the bucket sequence (and the plane
// numbering derived from it) agrees everywhere. An Engine is not safe
// for concurrent use.
//
// The communicator prototype is bound lazily on the first Step and
// stays bound until Rebind replaces it — the rebinding an elastic
// trainer performs after a failure shrinks the group (previously the
// first Proc's binding was silently permanent).
type Engine struct {
	opt Options
	// strategy is the effective per-bucket algorithm for the current
	// group — opt.Strategy resolved at New, possibly downgraded by
	// Rebind (RVH needs a power-of-two group; a shrink rarely leaves
	// one).
	strategy collective.Strategy
	// hier is the active hierarchy widths (nil = flat), dropped by
	// Rebind when the widths stop dividing the group size.
	hier     []int
	packer   *fusion.Packer
	layerSec []float64   // backward seconds per layer
	slices   [][]float32 // per-step layer views of x, for unfusing
	pending  []pendingOp
	// proto is the communicator prototype bound on first Step; slots
	// holds the per-bucket-slot state, indexed by launch order within a
	// step. Bucket sequences repeat across steps, so slot i's
	// communicator (and therefore its error-feedback residual stream)
	// always belongs to the same semantic bucket.
	proto *collective.Communicator
	slots []*slotState
	// savedRes carries per-slot stream residuals across a Rebind or in
	// from a checkpoint, applied as slots (re)create their streams:
	// savedRes[slot][0] is the slot's source stream, the rest the
	// hierarchy level streams in Hierarchy.Streams order.
	savedRes [][][][]float32
	// savedPol likewise carries per-slot policy state (telemetry memory
	// plus the policy's Snapshot) across a Rebind or in from a
	// checkpoint; see SnapshotPolicies for the layout.
	savedPol [][]float64
	// stepIdx counts Steps driven through this engine — the step axis of
	// the deterministic straggler jitter.
	stepIdx int
}

// slotState is one bucket slot: its forked communicator, its cached
// hierarchy (hierarchical mode), and its reusable async-op state. The
// struct is heap-allocated per slot so the async op can fill fields
// through a stable pointer while the rank goroutine appends more slots.
//
// Everything here is allocated once per slot lifetime: the Handle is
// relaunched every step (comm.Handle is reusable), body is a single
// closure reading the current bucket through sl.g, and the OnProc
// rebinding of the communicator (and hierarchy) is cached against the
// Handle's op endpoint — which is a stable pointer — so a steady-state
// Step allocates nothing. The hand-offs through sl.g and the caches are
// race-free because the engine joins a slot's op before reusing the
// slot, and Handle completion/relaunch is a synchronizing edge.
type slotState struct {
	idx  int
	c    *collective.Communicator
	hier *collective.Hierarchy

	// lastNetSec/lastNetBytes are the network seconds and payload bytes
	// charged to the slot's previous collective op — the bandwidth
	// signal an adaptive policy decides from. Recorded only in the
	// end-of-step join loop (the same program point in synchronous and
	// overlapped modes), so decisions at step s use step s−1's
	// measurement identically in both modes.
	lastNetSec   float64
	lastNetBytes int64

	h    *comm.Handle
	body func(ap *comm.Proc)
	g    *fusion.Group // bucket the in-flight (or next) op reduces

	// boundAp keys the cached endpoint rebindings below.
	boundAp *comm.Proc
	cOn     *collective.Communicator
	hierOn  *collective.Hierarchy
}

type pendingOp struct {
	h  *comm.Handle
	g  *fusion.Group
	sl *slotState
}

// New builds an Engine for one rank.
func New(opt Options) *Engine {
	if len(opt.Group) == 0 {
		panic("overlap: Options.Group is required")
	}
	if opt.Layout.NumLayers() == 0 {
		panic("overlap: Options.Layout is required")
	}
	if opt.FusionBytes <= 0 {
		opt.FusionBytes = 2 << 20
	}
	// rvhSize is the size of the group an RVH strategy actually runs on:
	// the cross level when buckets reduce hierarchically (the scatter
	// levels are rings, any size), the whole group when flat.
	rvhSize := len(opt.Group)
	if len(opt.Hierarchy) > 0 {
		stride := 1
		for _, w := range opt.Hierarchy {
			if w <= 0 {
				panic("overlap: Options.Hierarchy widths must be positive")
			}
			stride *= w
		}
		if len(opt.Group)%stride != 0 {
			panic(fmt.Sprintf("overlap: group size %d not divisible by hierarchy widths %v", len(opt.Group), opt.Hierarchy))
		}
		rvhSize = len(opt.Group) / stride
	}
	switch opt.strategy() {
	case collective.StrategyTree, collective.StrategyRing, collective.StrategyLinear:
	case collective.StrategyRVH:
		if rvhSize&(rvhSize-1) != 0 {
			panic(fmt.Sprintf("overlap: StrategyRVH requires a power-of-two reduction group (got %d)", rvhSize))
		}
	default:
		panic(fmt.Sprintf("overlap: per-bucket collectives take StrategyTree, StrategyRVH, StrategyRing or StrategyLinear (got %v)", opt.Strategy))
	}
	total := opt.Layout.TotalSize()
	layerSec := make([]float64, opt.Layout.NumLayers())
	if total > 0 && opt.StepSeconds > 0 {
		for l := range layerSec {
			layerSec[l] = opt.StepSeconds * float64(opt.Layout.Size(l)) / float64(total)
		}
	}
	// Normalize the knob (also rejects foreign Compression types early):
	// "no compression" collapses to nil so the plain paths key off it.
	if cdc, pol := compress.Resolve(opt.Compression); cdc == nil && pol == nil {
		opt.Compression = nil
	}
	return &Engine{
		opt:      opt,
		strategy: opt.strategy(),
		hier:     opt.Hierarchy,
		packer:   fusion.NewPacker(opt.FusionBytes),
		layerSec: layerSec,
		slices:   make([][]float32, opt.Layout.NumLayers()),
	}
}

// Group returns the group the engine currently reduces over.
func (e *Engine) Group() collective.Group { return e.opt.Group }

// Strategy returns the effective per-bucket algorithm for the current
// group (Rebind may have downgraded an RVH configuration).
func (e *Engine) Strategy() collective.Strategy { return e.strategy }

// Hierarchical reports whether buckets currently reduce hierarchically.
func (e *Engine) Hierarchical() bool { return len(e.hier) > 0 }

// Rebind replaces the engine's group — the survivor set after an
// elastic reshape — making the previously implicit lifetime of the
// cached communicator prototype explicit: the prototype and every slot
// communicator are dropped and rebuilt over the new group on the next
// Step. Per-slot error-feedback residuals survive the rebuild (the
// bucket program is unchanged, so site shapes still match). Algorithm
// fallbacks mirror the construction-time rules: an RVH engine falls
// back to the parity tree when the new group is not a power of two, and
// the hierarchy is dropped when its widths no longer divide the group
// size (or its cross level would break RVH's power-of-two requirement).
func (e *Engine) Rebind(g collective.Group) {
	if len(g) == 0 {
		panic("overlap: Rebind requires a non-empty group")
	}
	// Hop residuals are shaped by the old group's exchange pattern and
	// cannot be replayed onto the new one; the source-quantization
	// residual (the fused bucket itself) carries over. Policy decision
	// state is group-independent and carries over whole — the stale
	// last-transfer measurement only scales the next prediction, whose
	// rung ordering depends on wire-word ratios, not absolute seconds.
	e.savedRes = TruncateResidualsToSource(e.SnapshotStreams())
	e.savedPol = e.SnapshotPolicies()
	ng := make(collective.Group, len(g))
	copy(ng, g)
	e.opt.Group = ng
	e.proto = nil
	e.slots = nil
	e.strategy = e.opt.strategy()
	// The hierarchy survives iff its widths still divide the group; then
	// RVH's power-of-two requirement applies to the group it actually
	// runs on — the cross level if hierarchical, the whole group if flat
	// — mirroring the construction-time rules.
	e.hier = e.opt.Hierarchy
	rvhSize := len(ng)
	if len(e.hier) > 0 {
		stride := 1
		for _, w := range e.hier {
			stride *= w
		}
		if len(ng)%stride != 0 {
			e.hier = nil
		} else {
			rvhSize = len(ng) / stride
		}
	}
	if e.strategy == collective.StrategyRVH && rvhSize&(rvhSize-1) != 0 {
		e.strategy = collective.StrategyTree
	}
}

// Step runs one reduction step for this rank: simulated backprop
// declares the layers of x ready in reverse order, buckets launch as
// collectives on the group, and on return x holds the group-combined
// gradient on every rank. p's clock advances to the step's completion
// time (compute chained with per-bucket arrivals); the caller reads
// p.Clock() — or comm.MaxClock across ranks — for the simulated step
// latency.
//
//adasum:noalloc
func (e *Engine) Step(p *comm.Proc, x []float32) {
	layout := e.opt.Layout
	if layout.TotalSize() != len(x) {
		panic(fmt.Sprintf("overlap: x has %d elements, layout covers %d", len(x), layout.TotalSize()))
	}
	if e.proto == nil {
		//adasum:alloc ok the prototype communicator mints once, on the first step
		e.proto = collective.New(p, e.opt.Group, collective.Config{
			Strategy:    e.strategy,
			Compression: e.opt.Compression,
		})
	}
	// A panic mid-step (an injected failure, a peer's death) must not
	// leave launched bucket ops running: their goroutines would outlive
	// this rank's Run slot and could observe the World mid-Reset during
	// an elastic rebuild. Draining is deadlock-free — every launched op
	// is eventually unblocked by completion or by a dead peer's latch.
	defer func() { //adasum:alloc ok open-coded defer: closure and record stay on the stack (0 allocs/op bench-pinned)
		if rec := recover(); rec != nil {
			for _, op := range e.pending {
				op.h.Drain()
			}
			panic(rec)
		}
	}()
	// The straggler model scales this rank's whole-step compute: skew is
	// a property of the rank, jitter of the (rank, step) pair.
	scale := e.opt.Faults.ComputeScale(p.Rank(), e.stepIdx)
	e.stepIdx++
	p.Compute(e.opt.PreSeconds * scale)
	e.packer.Reset()
	e.pending = e.pending[:0]
	for l := 0; l < layout.NumLayers(); l++ {
		e.slices[l] = layout.Slice(x, l)
	}
	// Backward walk: the last layer's gradient materializes first.
	for l := layout.NumLayers() - 1; l >= 0; l-- {
		p.Compute(e.layerSec[l] * scale)
		//adasum:alloc ok packer skeletons amortize: stable bucket shapes reuse cached Groups (0 allocs/op bench-pinned)
		if g := e.packer.Ready(l, layout.Name(l), e.slices[l]); g != nil {
			e.launch(p, g)
		}
	}
	//adasum:alloc ok packer skeletons amortize: stable bucket shapes reuse cached Groups (0 allocs/op bench-pinned)
	if g := e.packer.Flush(); g != nil {
		e.launch(p, g)
	}
	// Join: drain buckets in launch order, unfusing each reduced buffer
	// back into its layers' home slices. Compressed buckets pay one more
	// MemCopy for the decode that materializes the dense result. Adaptive
	// slots record the op's charged network seconds and bytes here —
	// after the join, at the same program point in synchronous and
	// overlapped modes — as the telemetry the next launch decides from.
	for _, op := range e.pending {
		op.h.Wait(p)
		if op.sl.c.Stream() != nil {
			if op.sl.c.Policy() != nil {
				op.sl.lastNetSec, op.sl.lastNetBytes = op.h.NetCharges()
			}
			p.ComputeMemCopy(op.g.Bytes())
		}
		p.ComputeMemCopy(op.g.Bytes())
		op.g.Unfuse(e.slices)
	}
}

// launch ships one fused bucket: the pack copy is charged to the rank;
// under compression the bucket is then quantized in place at source
// (one charged encode pass, with error feedback against this rank's
// slot residual); and the bucket's collective starts on its own plane,
// chained after the previous bucket (one serialized comm stream per
// rank). Under an adaptive policy the slot's codec is decided here,
// before the quantize, from rank-private telemetry — every input is a
// deterministic function of the simulated program, so the decision
// replays bitwise under any GOMAXPROCS, identically in synchronous and
// overlapped modes, and across a checkpoint resume. In synchronous mode
// the rank blocks until the bucket completes.
//
//adasum:noalloc
func (e *Engine) launch(p *comm.Proc, g *fusion.Group) {
	p.ComputeMemCopy(g.Bytes())
	//adasum:alloc ok slots mint on first use and are reused for the rank's lifetime
	sl := e.slot(p, len(e.pending))
	if pol := sl.c.Policy(); pol != nil {
		st := sl.c.Stream()
		var encSec float64
		if m := p.Model(); m != nil {
			encSec = m.MemCopy(g.Bytes())
		}
		//adasum:dyncall ok Decide implementations (adaptive ladder, static tables) are arithmetic over the value-typed Telemetry; the rung cache keeps them allocation-free
		st.SetCodec(pol.Decide(compress.Telemetry{
			Slot:        sl.idx,
			Step:        e.stepIdx - 1,
			Elems:       len(g.Data),
			Bytes:       g.Bytes(),
			TransferSec: sl.lastNetSec,
			WireBytes:   sl.lastNetBytes,
			EncodeSec:   encSec,
			GradL2:      tensor.Norm(g.Data),
			ResidualL2:  st.SourceResidualL2(),
		}))
	}
	if st := sl.c.Stream(); st != nil {
		st.Begin()
		st.Quantize(g.Data)
		p.ComputeMemCopy(g.Bytes())
	}
	var after *comm.Handle
	if n := len(e.pending); n > 0 {
		after = e.pending[n-1].h
	}
	plane := len(e.pending) + 1
	sl.g = g
	sl.h.Start(p, plane, after, sl.body)
	e.pending = append(e.pending, pendingOp{h: sl.h, g: g, sl: sl}) //adasum:alloc ok pending is per-step scratch reset to [:0]; grows only to the bucket count
	if !e.opt.Overlap {
		sl.h.Wait(p)
	}
}

// slot returns this rank's state for bucket slot i, creating it on
// first use: the communicator is a Fork of the prototype so each slot
// owns its own error-feedback stream, seeded from savedRes when a
// Rebind or checkpoint restore left residuals to carry over. The
// engine's join-before-next-step ordering guarantees a slot's previous
// collective finished before the slot is reused, so the hand-off
// between the rank goroutine and its async op is race-free.
func (e *Engine) slot(p *comm.Proc, i int) *slotState {
	for len(e.slots) <= i {
		sl := &slotState{idx: len(e.slots), c: e.proto.Fork(), h: p.NewHandle()}
		sl.body = func(ap *comm.Proc) { e.reduceBucket(sl, ap, sl.g) }
		if st := sl.c.Stream(); st != nil {
			if res := e.savedStream(sl.idx, 0); res != nil {
				st.Restore(res)
			}
		}
		if sl.c.Policy() != nil && sl.idx < len(e.savedPol) {
			restoreSlotPolicy(sl, e.savedPol[sl.idx])
		}
		e.slots = append(e.slots, sl)
	}
	return e.slots[i]
}

// savedStream returns the pending residual snapshot of (slot, stream)
// or nil; stream 0 is the slot's source stream, 1.. the hierarchy
// levels.
func (e *Engine) savedStream(slot, stream int) [][]float32 {
	if slot >= len(e.savedRes) || stream >= len(e.savedRes[slot]) {
		return nil
	}
	return e.savedRes[slot][stream]
}

// reduceBucket dispatches the bucket's collective on the communicator
// bound to the async op's endpoint: StrategyRing and StrategyLinear
// buckets run the synchronous-SGD mean, everything else the Adasum
// combine under the communicator's own strategy — hierarchically when
// a Hierarchy is active. The slot's hierarchy is built on first use
// (its Split exchanges ride the slot's own plane, so every rank
// constructs it at the same program point) and rebound to each step's
// op endpoint afterwards, keeping the level streams' residuals with the
// slot.
//
//adasum:noalloc
func (e *Engine) reduceBucket(sl *slotState, ap *comm.Proc, g *fusion.Group) {
	c := sl.cOn
	if c == nil || sl.boundAp != ap {
		//adasum:alloc ok rebind materializes only when the op endpoint changes; steady state hits the cOn cache
		c = sl.c.OnProc(ap)
		sl.cOn, sl.boundAp = c, ap
		sl.hierOn = nil
	}
	if len(e.hier) > 0 && c.Size() > 1 {
		h := sl.hierOn
		if h == nil {
			if sl.hier == nil {
				//adasum:alloc ok the slot's hierarchy builds once, on its first op
				sl.hier = collective.NewHierarchy(c, e.hier...)
				//adasum:alloc ok the stream walk runs only inside the first-use build above
				for li, st := range sl.hier.Streams() {
					if st == nil {
						continue
					}
					if res := e.savedStream(sl.idx, li+1); res != nil {
						st.Restore(res)
					}
				}
				h = sl.hier
			} else {
				//adasum:alloc ok rebind materializes only when the op endpoint changes; steady state hits the hierOn cache
				h = sl.hier.OnProc(ap)
			}
			sl.hierOn = h
		}
		if sl.c.Policy() != nil {
			// The launch-time decision covers the whole bucket program:
			// every hierarchy level encodes under the source stream's
			// codec. Setting it here — inside the op, after the lazy
			// hierarchy build — makes a resumed engine (whose hierarchy
			// is rebuilt on the first post-restore op) encode exactly as
			// the uninterrupted run did. Safe: the level streams are only
			// touched by this slot's op, and join-before-relaunch orders
			// successive ops.
			sl.hier.SetCodec(sl.c.Stream().Codec())
		}
		if meanStrategy(c.Strategy()) {
			h.AllreduceMean(g.Data)
			return
		}
		h.Adasum(g.Data, g.Layout)
		return
	}
	if meanStrategy(c.Strategy()) {
		c.AllreduceMean(g.Data)
		return
	}
	c.Adasum(g.Data, g.Layout)
}

// meanStrategy reports whether buckets under strategy s run the
// synchronous-SGD mean rather than the Adasum combine.
//
//adasum:noalloc
func meanStrategy(s collective.Strategy) bool {
	return s == collective.StrategyRing || s == collective.StrategyLinear
}

// SnapshotStreams returns a deep copy of every error-feedback residual
// the engine carries, in deterministic (slot, stream) order — stream 0
// is the slot's source-quantization stream, streams 1.. the hierarchy
// levels. nil when the engine runs uncompressed. This is the state a
// checkpoint must include for a bitwise resume under error-feedback
// codecs.
func (e *Engine) SnapshotStreams() [][][][]float32 {
	if e.opt.Compression == nil {
		return nil
	}
	if len(e.slots) == 0 {
		// Nothing materialized yet: whatever was restored is still
		// pending verbatim — deep-copied, like every other path, so the
		// caller's snapshot never aliases engine-internal state.
		return copyResiduals(e.savedRes)
	}
	out := make([][][][]float32, len(e.slots))
	for i, sl := range e.slots {
		var streams [][][]float32
		if st := sl.c.Stream(); st != nil {
			streams = append(streams, st.Snapshot())
		}
		if sl.hier != nil {
			for _, st := range sl.hier.Streams() {
				if st != nil {
					streams = append(streams, st.Snapshot())
				}
			}
		}
		out[i] = streams
	}
	return out
}

// RestoreStreams re-applies residuals captured by SnapshotStreams:
// already-materialized slots (and hierarchies) are rewritten in place —
// the rollback an elastic retry performs after an aborted attempt
// contaminated the streams — and slots not yet created pick their
// entries up lazily (the checkpoint-restore path on a fresh or rebound
// engine). A nil entry restores the stream to "no residuals yet".
func (e *Engine) RestoreStreams(res [][][][]float32) {
	e.savedRes = res
	for i, sl := range e.slots {
		if st := sl.c.Stream(); st != nil {
			st.Restore(e.savedStream(i, 0))
		}
		if sl.hier != nil {
			for li, st := range sl.hier.Streams() {
				if st != nil {
					st.Restore(e.savedStream(i, li+1))
				}
			}
		}
	}
}

// SeekStep sets the engine's step counter — the step axis of the
// deterministic straggler jitter — so a checkpoint resume continues the
// same per-step jitter sequence an uninterrupted run would have seen.
func (e *Engine) SeekStep(step int) { e.stepIdx = step }

// SnapshotPolicies returns the adaptive-compression decision state of
// every bucket slot, in slot order: indices 0 and 1 are the slot's
// telemetry memory (last charged network seconds and bytes), the rest
// the policy's own Snapshot. nil when the engine does not run an
// adaptive policy. This state must ride checkpoints alongside the
// error-feedback residuals for a resumed run to re-decide — and
// therefore re-encode — bitwise-identically.
func (e *Engine) SnapshotPolicies() [][]float64 {
	if _, pol := compress.Resolve(e.opt.Compression); pol == nil {
		return nil
	}
	if len(e.slots) == 0 {
		return copyPolicies(e.savedPol)
	}
	out := make([][]float64, len(e.slots))
	for i, sl := range e.slots {
		out[i] = append([]float64{sl.lastNetSec, float64(sl.lastNetBytes)},
			sl.c.Policy().Snapshot()...)
	}
	return out
}

// RestorePolicies re-applies decision state captured by
// SnapshotPolicies: materialized slots are rewritten in place (the
// rollback an elastic retry performs after an aborted attempt advanced
// the policies), slots not yet created pick their entries up lazily
// (the checkpoint-restore path on a fresh or rebound engine). A nil
// entry — or a nil capture — resets to fresh decision state.
func (e *Engine) RestorePolicies(pol [][]float64) {
	e.savedPol = pol
	for i, sl := range e.slots {
		if sl.c.Policy() == nil {
			continue
		}
		if i < len(pol) {
			restoreSlotPolicy(sl, pol[i])
		} else {
			restoreSlotPolicy(sl, nil)
		}
	}
}

// restoreSlotPolicy applies one SnapshotPolicies entry to a slot.
func restoreSlotPolicy(sl *slotState, s []float64) {
	if s == nil {
		sl.lastNetSec, sl.lastNetBytes = 0, 0
		sl.c.Policy().Restore(nil)
		return
	}
	if len(s) < 2 {
		panic(fmt.Sprintf("overlap: slot policy state has %d values, want >= 2", len(s)))
	}
	sl.lastNetSec = s[0]
	sl.lastNetBytes = int64(s[1])
	if len(s) == 2 {
		sl.c.Policy().Restore(nil)
		return
	}
	sl.c.Policy().Restore(append([]float64(nil), s[2:]...))
}

// copyPolicies deep-copies a SnapshotPolicies-shaped capture.
func copyPolicies(pol [][]float64) [][]float64 {
	if pol == nil {
		return nil
	}
	out := make([][]float64, len(pol))
	for i, s := range pol {
		if s != nil {
			out[i] = append([]float64(nil), s...)
		}
	}
	return out
}

// copyResiduals deep-copies a SnapshotStreams-shaped capture.
func copyResiduals(res [][][][]float32) [][][][]float32 {
	if res == nil {
		return nil
	}
	out := make([][][][]float32, len(res))
	for i, slot := range res {
		if slot == nil {
			continue
		}
		out[i] = make([][][]float32, len(slot))
		for j, stream := range slot {
			if stream == nil {
				continue
			}
			out[i][j] = make([][]float32, len(stream))
			for k, site := range stream {
				if site == nil {
					continue
				}
				out[i][j][k] = append([]float32(nil), site...)
			}
		}
	}
	return out
}

// TruncateResidualsToSource reduces a SnapshotStreams capture to the
// residuals that survive a group reshape: for every slot, only site 0
// of stream 0 — the source-quantization residual, whose shape is the
// fused bucket and therefore group-independent. Every per-hop residual
// is shaped by the old group's exchange pattern (window and shard
// lengths change with the member count) and would panic the stream's
// site-length check if replayed onto the new group. nil passes through.
func TruncateResidualsToSource(res [][][][]float32) [][][][]float32 {
	if res == nil {
		return nil
	}
	out := make([][][][]float32, len(res))
	for i, slot := range res {
		if len(slot) == 0 || len(slot[0]) == 0 {
			continue
		}
		out[i] = [][][]float32{{slot[0][0]}}
	}
	return out
}
