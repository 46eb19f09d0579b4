// Package comm is the message-passing substrate the collectives run on.
// It plays the role MPI/NCCL play for Horovod: a World of ranks that
// exchange float32 vectors point-to-point. Ranks are goroutines inside
// one process; channels carry the payloads.
//
// Every Proc owns a virtual clock. A message carries the sender's clock
// at send time plus the link cost from the simnet model; Recv advances
// the receiver's clock to max(local, sender departure + transfer). Local
// compute advances the clock explicitly. Because the collective
// algorithms here are deterministic bulk-synchronous programs, this
// conservative virtual-time scheme yields exact critical-path times —
// this is how the reproduction measures "latency" (Figure 4) and
// "throughput" (Tables 2/4) without the paper's hardware.
//
// The fabric is sparse: a (src, dst) link — one buffered channel — is
// created the first time either endpoint touches the pair and recycled
// through a free list on Reset, so a World's memory is proportional to
// the communication graph actually used (tree/RVH/ring/hierarchical
// traffic touches O(n log n) pairs), not to size². That is what makes
// 1024-rank Worlds constructible in milliseconds where the old dense
// channel matrix allocated size² buffers up front. Channels are buffered
// so a Send never blocks in the healthy steady state; matched SendRecv
// exchanges therefore cannot deadlock.
//
// The substrate is also built to scale across GOMAXPROCS: the only
// cross-rank shared state on the hot path — the payload-buffer pool and
// the wire-byte meter — is sharded per rank and merged on read, so rank
// goroutines never serialize on a global lock or a contended cache
// line. Virtual time needs no such sharding: each Proc's clock is
// already private, and clocks meet only through message arrival stamps
// and explicit joins (Handle.Wait, MaxClock), so simulated times are a
// pure function of the message-passing program, identical at any
// GOMAXPROCS.
//
// Payload buffers are pooled: Send's defensive copy draws from the
// sending rank's shard of a per-World free list of power-of-two size
// classes, and receivers can hand buffers back with Release/RecvInto, so
// a steady-state collective allocates nothing. The copy semantics (the
// caller may reuse its slice immediately after Send) and the
// virtual-clock accounting are unchanged by pooling.
//
// The substrate moves words and knows nothing about what they encode.
// A compressed gradient reaches it as wire words the layer above built
// in a Scratch buffer and handed over with SendOwned, so the transfer
// cost and the wire-byte meter see the compressed size; the codec, the
// wire format and the encode/decode charges belong to that layer
// (compress.Stream and collective.Communicator). Keeping comm
// codec-agnostic is what lets another transport replace it.
//
// Ranks can die — by their own panic or an injected fail-at-virtual-
// time deadline (simnet.Faults) — and the substrate fails fast instead
// of wedging: peers blocked on a dead rank unblock with a typed
// RankFailure, Run aggregates every rank's error into a RunError, and
// Reset readies the survivors for a fresh collective. See failure.go.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/simnet"
)

// message is one point-to-point payload plus its arrival metadata.
type message struct {
	data    []float32
	meta    []float64 // secondary channel for dot-product partials
	ctl     []int     // control-plane payload (communicator construction)
	arrival float64   // sender clock + transfer cost
}

// link is one directed (src, dst) FIFO, created on first use and
// recycled through the World's free list on Reset. cap is remembered so
// a recycled channel returns to a free-list class of the same buffering.
type link struct {
	ch  chan message
	cap int
}

// linkRow holds the outgoing links of one source rank on one plane,
// allocated the first time the source participates in traffic there.
type linkRow struct {
	links []atomic.Pointer[link]
}

// plane is one lazily-populated (src, dst) link space. Each plane is an
// independent channel space, so concurrent collectives on different
// planes cannot interleave messages (see async.go). Lookup is two
// atomic loads on the hot path; creation takes the World's link mutex
// once per (src, dst) pair per plane.
type plane struct {
	world *World
	cap   int // channel buffering of links created on this plane
	rows  []atomic.Pointer[linkRow]
}

// get returns the src→dst link of this plane, creating it on first use.
//
//adasum:noalloc
func (pl *plane) get(src, dst int) *link {
	if row := pl.rows[src].Load(); row != nil {
		if l := row.links[dst].Load(); l != nil {
			return l
		}
	}
	//adasum:alloc ok links materialize (or recycle) once per pair; steady state hits the lock-free loads above
	return pl.create(src, dst)
}

// create allocates (or recycles) the src→dst link under the World's
// link mutex, double-checking against a concurrent creator: sender and
// receiver race to materialize the same pair, and exactly one link must
// win.
func (pl *plane) create(src, dst int) *link {
	w := pl.world
	w.linkMu.Lock()
	defer w.linkMu.Unlock()
	row := pl.rows[src].Load()
	if row == nil {
		row = &linkRow{links: make([]atomic.Pointer[link], len(pl.rows))}
		pl.rows[src].Store(row)
	}
	l := row.links[dst].Load()
	if l == nil {
		l = w.newLinkLocked(pl.cap)
		row.links[dst].Store(l)
	}
	return l
}

// World is a communicator over a fixed set of ranks.
type World struct {
	size  int
	model *simnet.Model
	// plane0 is the default link space every foreground Proc starts on.
	plane0 *plane
	pool   bufPool

	// wire is the per-rank wire-byte meter: every send adds its payload
	// bytes (compressed sends their compressed size) to the sending
	// rank's padded slot, so the accounting scales with the rank
	// goroutines instead of serializing them on one contended cache
	// line. WireBytes merges the shards on read.
	wire []wireMeter

	// planes holds the nonzero planes, created lazily by Launch.
	planeMu sync.Mutex
	planes  map[int]*plane

	// linkMu guards link/row creation on every plane and the free list.
	// Creation is O(pairs touched) per World lifetime — not a
	// steady-state cost.
	linkMu   sync.Mutex
	linkFree map[int][]*link // recycled links by channel capacity

	// procs/errs/wg/runBody are the per-Run working state, reused across
	// Runs so a Run (and therefore a steady-state training step driving
	// one Run per step) allocates nothing. Runs on one World cannot
	// overlap (Run joins before returning), so the shared body slot is
	// safe.
	procs   []Proc
	errs    []any
	wg      sync.WaitGroup
	runBody func(p *Proc)

	// dead holds the per-rank death latches; failed marks ranks whose
	// failure was a root cause (they stay dead across Reset). failAt is
	// the per-rank injected failure deadline (+Inf = never), snapshotted
	// from the model's Faults. timeBase is where fresh Proc clocks start
	// (see SetTimeBase). See failure.go.
	dead     []deadLatch
	failed   []bool
	failAt   []float64
	timeBase float64
}

// wireMeter is one rank's wire-byte counter, padded to its own cache
// line so per-rank accounting cannot false-share. The counter is still
// atomic because a rank's foreground Proc and its async bucket ops send
// concurrently.
type wireMeter struct {
	n atomic.Int64
	_ [56]byte
}

// defaultPlaneCap is the per-(src, dst) buffering of the default plane.
// The collectives alternate sends with receives, so per-pair skew stays
// small; 64 slots is an order of magnitude of headroom. Capacity
// affects only when senders block (virtual clocks are carried inside
// the messages), never the simulated times.
const defaultPlaneCap = 64

// asyncPlaneCap is the buffering of links on the nonzero planes: a
// plane carries one collective at a time, and collectives alternate
// sends with receives, so a handful of slots per pair suffices.
const asyncPlaneCap = 16

// NewWorld creates a communicator of the given size using the cost model
// for clock accounting. model may be nil, in which case all communication
// is free (pure correctness mode). Construction is O(size): no link
// exists until a pair of ranks actually communicates, so even 1024-rank
// Worlds build in well under a millisecond.
func NewWorld(size int, model *simnet.Model) *World {
	if size <= 0 {
		panic("comm: world size must be positive")
	}
	w := &World{size: size, model: model}
	w.plane0 = w.newPlane(defaultPlaneCap)
	w.pool.init(size)
	w.wire = make([]wireMeter, size)
	w.linkFree = make(map[int][]*link)
	w.procs = make([]Proc, size)
	w.errs = make([]any, size)
	w.dead = newLatches(size)
	w.failed = make([]bool, size)
	w.failAt = make([]float64, size)
	for r := range w.failAt {
		var f *simnet.Faults
		if model != nil {
			f = model.Faults
		}
		w.failAt[r] = f.FailAt(r)
	}
	return w
}

// newPlane builds an empty link space for this World.
func (w *World) newPlane(cap int) *plane {
	return &plane{world: w, cap: cap, rows: make([]atomic.Pointer[linkRow], w.size)}
}

// newLinkLocked returns a link with the given buffering, recycling a
// drained one from the free list when available. Caller holds linkMu.
func (w *World) newLinkLocked(cap int) *link {
	if free := w.linkFree[cap]; len(free) > 0 {
		l := free[len(free)-1]
		w.linkFree[cap] = free[:len(free)-1]
		return l
	}
	return &link{ch: make(chan message, cap), cap: cap}
}

// recycleLinksLocked drains every link of pl and pushes it onto the
// free list, clearing the plane's pointers. Dropped messages are not
// returned to the pool (an abort is not a steady-state path). Caller
// holds linkMu.
func (w *World) recycleLinksLocked(pl *plane) {
	for s := range pl.rows {
		row := pl.rows[s].Load()
		if row == nil {
			continue
		}
		for d := range row.links {
			l := row.links[d].Load()
			if l == nil {
				continue
			}
			for drained := false; !drained; {
				select {
				case <-l.ch:
				default:
					drained = true
				}
			}
			w.linkFree[l.cap] = append(w.linkFree[l.cap], l)
			row.links[d].Store(nil)
		}
	}
}

// plane returns the link space of the given plane id, creating it on
// first use. Plane 0 is the default space every Proc starts on.
func (w *World) plane(id int) *plane {
	if id == 0 {
		return w.plane0
	}
	w.planeMu.Lock()
	defer w.planeMu.Unlock()
	if w.planes == nil {
		w.planes = make(map[int]*plane) //adasum:alloc ok plane table minted once per World
	}
	pl, ok := w.planes[id]
	if !ok {
		//adasum:alloc ok planes mint once per id and are cached for the World's lifetime
		pl = w.newPlane(asyncPlaneCap)
		w.planes[id] = pl
	}
	return pl
}

// bufPool is a free list of payload buffers in power-of-two size
// classes, sharded per rank: get and put touch only the calling rank's
// shard, so buffer recycling never serializes distinct ranks. Buffers
// enter the pool through Proc.Release/RecvInto and leave through Send's
// defensive copy and Proc.Scratch; a buffer minted by one rank and
// released by another simply migrates shards.
type bufPool struct {
	f32 freeList[float32]
	f64 freeList[float64]
}

func (bp *bufPool) init(shards int) {
	bp.f32.init(shards)
	bp.f64.init(shards)
}

func (bp *bufPool) getF32(shard, n int) []float32 { return bp.f32.get(shard, n) }
func (bp *bufPool) putF32(shard int, b []float32) { bp.f32.put(shard, b) }
func (bp *bufPool) getF64(shard, n int) []float64 { return bp.f64.get(shard, n) }
func (bp *bufPool) putF64(shard int, b []float64) { bp.f64.put(shard, b) }

// freeList recycles slices of one element type in power-of-two size
// classes, one shard (and one mutex) per rank. It remembers which
// backing arrays it minted — and which shard minted them — in a
// lock-free-on-read sync.Map shared by all shards, so putting a
// foreign slice (caller-owned memory) is a guaranteed no-op rather
// than a source of cross-rank aliasing. A released buffer normally
// returns to the RELEASING rank's shard — in symmetric traffic (ring,
// RVH) the very next get on that rank pops the cache-hot buffer it
// just copied out of, matching a per-rank LIFO. But a shard keeps at
// most foreignKeep foreign buffers per size class; beyond that, put
// routes the buffer back to its MINTING shard. Without the cap,
// root-asymmetric traffic (a Gather root releasing 15 senders'
// transport buffers every round) would pile every buffer onto the
// root's shard while the senders re-mint forever — an allocation
// leak that also grows the minted set without bound. The cap bounds
// each shard's foreign inventory, so the minted set is bounded by
// the pool's high-water working set; buffers that escape to callers
// (e.g. Gather results) stay pinned in the minted map for the
// World's lifetime, which matches the pool's own retention behavior.
type freeList[T any] struct {
	shards []freeShard[T]
	minted sync.Map // *T (first element of a minted backing array) -> home shard int
}

// foreignKeep is how many buffers of one size class a shard will hold
// onto beyond the point where overflow starts routing home. Small: it
// only needs to cover the steady-state ping-pong depth of symmetric
// exchanges so the hot path stays shard-local.
const foreignKeep = 4

// freeShard is one rank's free list, padded so neighboring shards do
// not share a cache line.
type freeShard[T any] struct {
	mu      sync.Mutex
	buckets map[uint][][]T
	_       [40]byte
}

func (f *freeList[T]) init(shards int) {
	f.shards = make([]freeShard[T], shards)
	for i := range f.shards {
		f.shards[i].buckets = make(map[uint][][]T)
	}
}

// sizeClass returns ceil(log2(n)) so that 1<<sizeClass(n) >= n.
func sizeClass(n int) uint {
	c := uint(0)
	for 1<<c < n {
		c++
	}
	return c
}

//adasum:noalloc
func (f *freeList[T]) get(shard, n int) []T {
	if n == 0 {
		return []T{} //adasum:alloc ok zero-length literal points at the runtime zerobase, no heap allocation
	}
	c := sizeClass(n)
	s := &f.shards[shard]
	s.mu.Lock()
	if list := s.buckets[c]; len(list) > 0 {
		buf := list[len(list)-1]
		s.buckets[c] = list[:len(list)-1]
		s.mu.Unlock()
		return buf[:n]
	}
	s.mu.Unlock()
	buf := make([]T, n, 1<<c)          //adasum:alloc ok pool miss mints; steady state recycles (0 allocs/op bench-pinned)
	f.minted.Store(&buf[:1][0], shard) //adasum:alloc ok mint-path bookkeeping, off the recycle fast path
	return buf
}

// put recycles b into the releasing rank's shard while that shard's
// bucket is shallow (the cache-hot fast path), overflowing to the
// minting shard once foreignKeep buffers of the class are already
// held. Foreign slices (not minted by this pool) are ignored.
//
//adasum:noalloc
func (f *freeList[T]) put(shard int, b []T) {
	if cap(b) == 0 {
		return
	}
	key := &b[:1][0] // first element of the backing array (cap >= 1)
	home, ok := f.minted.Load(key)
	if !ok {
		return
	}
	c := sizeClass(cap(b))
	s := &f.shards[shard]
	if h := home.(int); h != shard {
		s.mu.Lock()
		if len(s.buckets[c]) < foreignKeep {
			s.buckets[c] = append(s.buckets[c], b[:0]) //adasum:alloc ok bucket growth is bounded warmup; ping-pong depth is fixed in steady state
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		s = &f.shards[h]
	}
	s.mu.Lock()
	s.buckets[c] = append(s.buckets[c], b[:0]) //adasum:alloc ok bucket growth is bounded warmup; ping-pong depth is fixed in steady state
	s.mu.Unlock()
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// WireBytes returns the total payload bytes sent so far across all ranks
// and planes — compressed sends count their compressed size. The
// per-rank shards are summed on read; call it between Runs for an exact
// total.
func (w *World) WireBytes() int64 {
	var total int64
	for r := range w.wire {
		total += w.wire[r].n.Load()
	}
	return total
}

// ResetWireBytes zeroes the wire-byte meter (between sweep arms).
func (w *World) ResetWireBytes() {
	for r := range w.wire {
		w.wire[r].n.Store(0)
	}
}

// RewindWireBytes restores the meter to an earlier WireBytes reading.
// An aborted collective's partial sends depend on goroutine scheduling,
// so a caller that discards a failed step attempt rewinds the meter to
// the attempt's start to keep the accounting deterministic (the
// aborted attempt's traffic is deliberately not billed). Must be
// called with no Run in flight; the total is folded into rank 0's
// shard, which WireBytes sums right back.
func (w *World) RewindWireBytes(total int64) {
	w.ResetWireBytes()
	if len(w.wire) > 0 {
		w.wire[0].n.Store(total)
	}
}

// Proc returns the handle rank r uses to communicate. Each rank must use
// its own Proc from a single goroutine. Procs handed to Run bodies are
// pooled per World; Proc itself returns a fresh endpoint for callers
// that drive ranks manually.
func (w *World) Proc(r int) *Proc {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", r, w.size))
	}
	return &Proc{world: w, rank: r, clock: w.timeBase, failAt: w.failAt[r], links: w.plane0}
}

// transferCost returns the simulated seconds to move n float32s (plus a
// small float64 side payload) from src to dst. The byte arithmetic is
// int64 so >2 GiB payloads cannot overflow on 32-bit builds.
func (w *World) transferCost(src, dst, nFloats, nMeta int) float64 {
	if w.model == nil {
		return 0
	}
	return w.model.Transfer(src, dst, int64(nFloats)*4+int64(nMeta)*8)
}

// Proc is one rank's endpoint: its identity, its plane, and its virtual
// clock. A Proc obtained from World.Proc communicates on the default
// plane; Launch binds a clone to a private plane so asynchronous
// collectives cannot interleave with foreground traffic.
type Proc struct {
	world *World
	rank  int
	clock float64
	// failAt is this rank's injected failure deadline in virtual
	// seconds (+Inf when the rank never fails); every clock advance
	// checks it.
	failAt float64
	// links is the link space of this Proc's plane.
	links *plane
	// netSec and netBytes accumulate the transfer seconds and payload
	// bytes charged to this endpoint's sends — the per-op view of the
	// simnet meter. Charged costs are pure functions of payload sizes
	// and the cost model (receive-side waiting is not counted), so the
	// totals are identical under synchronous and overlapped scheduling
	// and any GOMAXPROCS — the property that lets adaptive compression
	// decide from them without breaking bitwise determinism.
	netSec   float64
	netBytes int64
}

// Rank returns this process's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.size }

// Model returns the cost model, or nil in free mode.
func (p *Proc) Model() *simnet.Model { return p.world.model }

// Clock returns the current virtual time of this rank in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// SetClock overrides the virtual time (used by harnesses that account
// compute outside the comm layer).
func (p *Proc) SetClock(t float64) { p.clock = t }

// Compute advances this rank's clock by dt seconds of local work,
// failing the rank if the advance crosses its injected deadline.
//
//adasum:noalloc
func (p *Proc) Compute(dt float64) {
	p.clock += dt
	p.maybeFail()
}

// ComputeReduce advances the clock by the model cost of reducing n bytes.
//
//adasum:noalloc
func (p *Proc) ComputeReduce(bytes int64) {
	if m := p.world.model; m != nil {
		p.Compute(m.Reduce(bytes))
	}
}

// ComputeMemCopy advances the clock by the model cost of copying n bytes.
//
//adasum:noalloc
func (p *Proc) ComputeMemCopy(bytes int64) {
	if m := p.world.model; m != nil {
		p.Compute(m.MemCopy(bytes))
	}
}

// Send transmits data to rank dst. The slice is copied, so the caller may
// reuse it immediately.
//
//adasum:noalloc
func (p *Proc) Send(dst int, data []float32) {
	p.send(dst, data, nil)
}

// SendMeta transmits a float64 side payload (dot-product partials) to dst.
//
//adasum:noalloc
func (p *Proc) SendMeta(dst int, meta []float64) {
	p.send(dst, nil, meta)
}

//adasum:noalloc
func (p *Proc) send(dst int, data []float32, meta []float64) {
	if dst == p.rank {
		panic("comm: send to self")
	}
	p.checkPeer(dst)
	var dc []float32
	if data != nil {
		dc = p.world.pool.getF32(p.rank, len(data))
		copy(dc, data)
	}
	var mc []float64
	if meta != nil {
		mc = p.world.pool.getF64(p.rank, len(meta))
		copy(mc, meta)
	}
	cost := p.world.transferCost(p.rank, dst, len(data), len(meta))
	nb := int64(len(data))*4 + int64(len(meta))*8
	p.world.wire[p.rank].n.Add(nb)
	p.netSec += cost
	p.netBytes += nb
	//adasum:poolown ok ownership rides the in-flight message; the receiver recycles via Recv/Release
	p.deliver(dst, message{data: dc, meta: mc, arrival: p.clock + cost})
}

// deliver enqueues msg to dst, unblocking with a RankFailure if dst is
// (or becomes) dead while the channel buffer is full — without this, a
// sender that ran far enough ahead to fill the buffer would park on the
// channel send forever once the receiver died, re-creating the wedge
// the death latches exist to remove. The healthy steady state pays one
// non-blocking attempt. The link is materialized here on first use, so
// a sender to a dead rank on a never-before-used pair still takes the
// guarded path.
//
//adasum:noalloc
func (p *Proc) deliver(dst int, msg message) {
	ch := p.links.get(p.rank, dst).ch
	select {
	case ch <- msg:
		return
	default:
	}
	select {
	case ch <- msg:
	case <-p.world.dead[dst].ch:
		panic(RankFailure{Rank: dst})
	}
}

// SendOwned transmits a pool-owned buffer (from Scratch or Recv)
// without Send's defensive copy; ownership moves to the receiver, who
// recycles it via Recv/Release as usual, so the caller must not touch
// buf afterwards. Layers that build a payload in a pooled buffer — the
// wire words of an encoded gradient — hand it over this way.
//
//adasum:noalloc
func (p *Proc) SendOwned(dst int, buf []float32) {
	if dst == p.rank {
		panic("comm: send to self")
	}
	p.checkPeer(dst)
	cost := p.world.transferCost(p.rank, dst, len(buf), 0)
	nb := int64(len(buf)) * 4
	p.world.wire[p.rank].n.Add(nb)
	p.netSec += cost
	p.netBytes += nb
	p.deliver(dst, message{data: buf, arrival: p.clock + cost})
}

// SendCtl transmits a control-plane payload to dst. Control traffic is
// communicator-construction metadata (the color/key exchange of a
// Split), the kind of out-of-band setup real stacks do once when a
// communicator is created, not per collective — so it is charged to
// neither the virtual clock nor the wire-byte meter, and its buffers
// are not pooled (construction is not a steady-state path).
func (p *Proc) SendCtl(dst int, vals []int) {
	if dst == p.rank {
		panic("comm: send to self")
	}
	p.checkPeer(dst)
	c := make([]int, len(vals))
	copy(c, vals)
	p.deliver(dst, message{ctl: c})
}

// RecvCtl receives a control-plane payload from src without touching
// the virtual clock. Control and data traffic share the per-(src, dst)
// FIFO, so a deterministic program that matches every SendCtl with a
// RecvCtl at the same point on both ranks cannot cross the streams; a
// mismatch panics rather than silently interpreting bits.
func (p *Proc) RecvCtl(src int) []int {
	msg := p.recvMsg(src)
	if msg.ctl == nil {
		panic("comm: RecvCtl received a data message (control/data ordering mismatch)")
	}
	return msg.ctl
}

// Recv blocks until a message from src arrives and returns its payload,
// advancing the virtual clock to the arrival time. The returned buffer is
// owned by the caller; handing it back with Release once consumed lets
// the World recycle it.
//
//adasum:noalloc
func (p *Proc) Recv(src int) []float32 {
	d, _ := p.recv(src)
	return d
}

// RecvInto receives from src directly into dst, which must match the
// incoming payload length, and recycles the transport buffer. It is the
// zero-allocation receive for callers assembling into preallocated
// vectors (allgather unwinds, broadcasts).
//
//adasum:noalloc
func (p *Proc) RecvInto(src int, dst []float32) {
	d, _ := p.recv(src)
	if len(d) != len(dst) {
		panic(fmt.Sprintf("comm: RecvInto length mismatch: got %d, dst %d", len(d), len(dst)))
	}
	copy(dst, d)
	p.world.pool.putF32(p.rank, d)
}

// RecvMeta receives a float64 side payload from src. As with Recv, the
// buffer can be handed back with ReleaseMeta.
//
//adasum:noalloc
func (p *Proc) RecvMeta(src int) []float64 {
	_, m := p.recv(src)
	return m
}

// Release returns a buffer obtained from Recv or Scratch to the World's
// pool. The pool may hand its memory to another rank at any time
// afterwards, so the caller must be completely done with buf (releasing
// a buffer that is still read elsewhere is an aliasing bug). Slices the
// pool did not mint are recognized and ignored, so a stray Release of
// caller-owned memory cannot corrupt anything.
//
//adasum:noalloc
func (p *Proc) Release(buf []float32) { p.world.pool.putF32(p.rank, buf) }

// ReleaseMeta returns a buffer obtained from RecvMeta or ScratchMeta to
// the World's pool, under the same ownership contract as Release.
//
//adasum:noalloc
func (p *Proc) ReleaseMeta(meta []float64) { p.world.pool.putF64(p.rank, meta) }

// Scratch returns a pooled float32 buffer of length n with unspecified
// contents. Return it with Release when done.
//
//adasum:noalloc
func (p *Proc) Scratch(n int) []float32 { return p.world.pool.getF32(p.rank, n) }

// ScratchMeta returns a pooled float64 buffer of length n with
// unspecified contents. Return it with ReleaseMeta when done.
//
//adasum:noalloc
func (p *Proc) ScratchMeta(n int) []float64 { return p.world.pool.getF64(p.rank, n) }

// recvMsg pulls the next message from src, unblocking with a typed
// RankFailure if src is (or becomes) dead. A payload already in flight
// before the death is still delivered — the fast non-blocking path also
// keeps the healthy steady state at one cheap poll per receive.
//
//adasum:noalloc
func (p *Proc) recvMsg(src int) message {
	ch := p.links.get(src, p.rank).ch
	select {
	case msg := <-ch:
		return msg
	default:
	}
	select {
	case msg := <-ch:
		return msg
	case <-p.world.dead[src].ch:
		// The close of the latch happens after every pre-death send, so
		// one more poll drains any payload that beat the failure.
		select {
		case msg := <-ch:
			return msg
		default:
		}
		panic(RankFailure{Rank: src})
	}
}

//adasum:noalloc
func (p *Proc) recv(src int) ([]float32, []float64) {
	msg := p.recvMsg(src)
	if msg.ctl != nil {
		panic("comm: data receive got a control message (control/data ordering mismatch)")
	}
	if msg.arrival > p.clock {
		p.clock = msg.arrival
		p.maybeFail()
	}
	return msg.data, msg.meta
}

// SendRecv exchanges vectors with a peer: sends sendBuf, receives and
// returns the peer's vector. Both sides must call it with each other as
// peer.
//
//adasum:noalloc
func (p *Proc) SendRecv(peer int, sendBuf []float32) []float32 {
	p.Send(peer, sendBuf)
	return p.Recv(peer)
}

// SendRecvMeta exchanges float64 side payloads with a peer.
//
//adasum:noalloc
func (p *Proc) SendRecvMeta(peer int, sendBuf []float64) []float64 {
	p.SendMeta(peer, sendBuf)
	return p.RecvMeta(peer)
}

// Run spawns one goroutine per alive rank executing body and waits for
// all of them. Per-rank panics are re-raised on the caller as a
// *RunError carrying every rank's failure with rank context — a rank
// that panics also marks itself dead, so peers blocked in Recv on it
// unblock with a RankFailure instead of wedging wg.Wait forever.
func (w *World) Run(body func(p *Proc)) {
	if err := w.RunErr(body); err != nil {
		panic(err)
	}
}

// RunErr is Run returning the aggregate failure instead of panicking —
// the entry point for elastic callers that rebuild on survivors. nil
// means every alive rank completed. Ranks already dead when RunErr is
// called are skipped entirely (their body never runs). The per-rank
// Procs and error slots are owned by the World and reused across Runs,
// so a healthy Run allocates nothing; Runs on one World must not
// overlap (they never could — Run joins before returning).
func (w *World) RunErr(body func(p *Proc)) *RunError {
	for r := range w.errs {
		w.errs[r] = nil
	}
	w.runBody = body
	for r := 0; r < w.size; r++ {
		if !w.Alive(r) {
			continue
		}
		w.procs[r] = Proc{world: w, rank: r, clock: w.timeBase, failAt: w.failAt[r], links: w.plane0}
		w.wg.Add(1)
		submit(&w.procs[r])
	}
	w.wg.Wait()
	w.runBody = nil
	var fails []RankError
	for r, e := range w.errs {
		if e != nil {
			fails = append(fails, RankError{Rank: r, Err: e})
		}
	}
	if fails == nil {
		return nil
	}
	err := &RunError{Failures: fails}
	// Root causes stay dead across Reset; observers get revived.
	for _, r := range err.Roots() {
		w.failed[r] = true
	}
	return err
}

// run is one rank's Run slot, executed on a pooled worker goroutine: it
// recovers the rank's terminal panic into the World's error table and
// latches the rank dead so blocked peers unblock. The recover defer
// runs before wg.Done (LIFO), so every error is visible once Wait
// returns.
func (p *Proc) run() {
	w := p.world
	defer w.wg.Done()
	defer func() {
		if e := recover(); e != nil {
			w.errs[p.rank] = e
			// Unblock everyone parked on this rank; without this a
			// single panicking rank deadlocked the whole Run.
			w.markDead(p.rank)
		}
	}()
	// A time base already past the deadline kills the rank before it
	// does any work.
	p.maybeFail()
	w.runBody(p)
}

// RunCollect runs body on every rank and returns the per-rank results.
func RunCollect[T any](w *World, body func(p *Proc) T) []T {
	out := make([]T, w.size)
	w.Run(func(p *Proc) {
		out[p.Rank()] = body(p)
	})
	return out
}

// MaxClock runs body on every rank and returns the largest final virtual
// clock — the simulated wall-clock completion time of the collective.
func MaxClock(w *World, body func(p *Proc)) float64 {
	clocks := RunCollect(w, func(p *Proc) float64 {
		body(p)
		return p.Clock()
	})
	var m float64
	for _, c := range clocks {
		if c > m {
			m = c
		}
	}
	return m
}
