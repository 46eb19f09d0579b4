package collective

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/tensor"
)

// Strategy selects the algorithm family a Communicator's collectives
// run. It is the one knob that used to be spread across three enums
// (the per-bucket overlap.Algo, the trainer's BucketAlgo mirror, and
// the implicit power-of-two/linear dispatch of the former core.Allreduce).
//
// Each collective honors the strategies that make sense for it and
// resolves the rest deterministically:
//
//   - Adasum: StrategyTree (host-tree bitwise parity, any group size),
//     StrategyRVH (Algorithm 1, power-of-two groups), StrategyLinear
//     (chained combine, any size). StrategyAuto picks RVH for
//     power-of-two groups and the linear chain otherwise; StrategyRing
//     is rejected — a ring sum would silently replace the adaptive
//     combine with averaging.
//   - AllreduceSum/AllreduceMean: StrategyRing (bandwidth-optimal ring,
//     any size, the default), StrategyRVH (halving/doubling,
//     power-of-two groups) or StrategyLinear (the group-order chain,
//     any size, bitwise-equal to adasum.SumReduce/MeanReduce).
//     Tree/Auto resolve to the ring.
type Strategy int

// Strategy values.
const (
	// StrategyAuto lets each collective pick its default algorithm.
	StrategyAuto Strategy = iota
	// StrategyTree is recursive doubling on full vectors — for Adasum,
	// bitwise-identical to the host-side adasum.Reducer tree.
	StrategyTree
	// StrategyRVH is recursive vector halving/doubling (Algorithm 1 for
	// Adasum). Requires a power-of-two group.
	StrategyRVH
	// StrategyRing is the bandwidth-optimal ring (sum/mean collectives).
	StrategyRing
	// StrategyLinear is the chained combine of §4.2.3: position 0 folds
	// the ranks in group order, with the Adasum combine or a plain sum.
	StrategyLinear
)

func (s Strategy) String() string {
	switch s {
	case StrategyTree:
		return "tree"
	case StrategyRVH:
		return "rvh"
	case StrategyRing:
		return "ring"
	case StrategyLinear:
		return "linear"
	default:
		return "auto"
	}
}

// Config tunes a Communicator at construction.
type Config struct {
	// Strategy selects the algorithm family; see the Strategy docs for
	// how each collective resolves it. The zero value is StrategyAuto.
	Strategy Strategy
	// Compression is the unified compression knob (the same field name
	// trainer.Config and overlap.Options carry). A compress.Codec fixes
	// one on-the-wire format for every gradient payload the communicator
	// moves — the headerless static path, bitwise- and virtual-clock-
	// identical to the pre-policy protocol. A compress.Policy selects
	// the codec per launch (callers drive Stream().SetCodec from the
	// policy's decisions) and payloads become self-describing. Either
	// way, per-layer dot products are computed on the decoded values
	// actually combined and the float64 dot side-channel stays
	// uncompressed. nil or compress.None() selects the plain path.
	Compression compress.Compression
}

// commShared is the immutable, proc-independent part of a Communicator,
// shared by every binding (OnProc clone) of the same logical
// communicator: the group, the cached rank→position map, and the
// configuration. Safe for concurrent use once constructed.
type commShared struct {
	group    Group
	pos      map[int]int // world rank -> group position, O(1) lookups
	strategy Strategy
	comp     compress.Compression // the knob, for Fork and Split inheritance
}

// Communicator is an MPI/NCCL-style communicator: a comm.Proc endpoint
// bound to a Group, owning its cached rank-position map, its codec
// configuration and (for stateful codecs) its error-feedback Stream.
// All collectives hang off it as methods — AllreduceSum, AllreduceMean,
// Adasum, Broadcast, Gather and their zero-allocation Into variants —
// with the algorithm selected by the Strategy given at construction.
// Split carves sub-communicators with MPI_Comm_split semantics, so
// hierarchical reductions are compositions of communicators rather than
// special-cased free functions (see Hierarchy).
//
// Internal scratch (transport buffers, the per-layer dot-product
// vector, the tree exchange buffer) is drawn from the World's pool, so
// steady-state collectives allocate nothing and concurrent async
// clones cannot race on shared buffers. A Communicator must be driven
// from its Proc's goroutine; use OnProc to bind the same logical
// communicator to an async op's cloned Proc.
type Communicator struct {
	shared *commShared
	p      *comm.Proc
	mypos  int
	stream *compress.Stream // nil when uncompressed
	policy compress.Policy  // per-instance fork of shared.policy; nil when static
}

// New builds a Communicator for rank p over the ordered group g. The
// group must contain p's rank; it is copied, so the caller may reuse
// the slice. The rank→position map is built once here — collectives and
// Pos/Contains are O(1) afterwards, where the free-function API
// re-scanned the group linearly inside every recursion level.
func New(p *comm.Proc, g Group, cfg Config) *Communicator {
	if len(g) == 0 {
		panic("collective: New requires a non-empty group")
	}
	grp := make(Group, len(g))
	copy(grp, g)
	pos := make(map[int]int, len(grp))
	for i, r := range grp {
		if _, dup := pos[r]; dup {
			panic(fmt.Sprintf("collective: rank %d appears twice in group %v", r, grp))
		}
		pos[r] = i
	}
	mypos, ok := pos[p.Rank()]
	if !ok {
		panic(fmt.Sprintf("collective: rank %d not in group %v", p.Rank(), grp))
	}
	c := &Communicator{
		shared: &commShared{group: grp, pos: pos, strategy: cfg.Strategy, comp: cfg.Compression},
		p:      p,
		mypos:  mypos,
	}
	c.stream, c.policy = newCompression(cfg.Compression)
	return c
}

// newCompression mints one communicator instance's compression state
// for the knob: its stream (nil when uncompressed) and, when adaptive, a
// fresh-state fork of the policy. An adaptive stream starts on the
// identity codec and is re-pointed per launch (Stream().SetCodec) from
// the policy's decisions; its error-feedback residuals persist across
// codec swaps because site lengths are codec-independent.
func newCompression(comp compress.Compression) (*compress.Stream, compress.Policy) {
	codec, pol := compress.Resolve(comp)
	switch {
	case pol != nil:
		return compress.NewStream(pol), pol.Fork()
	case codec != nil:
		return compress.NewStream(codec), nil
	}
	return nil, nil
}

// Proc returns the bound endpoint.
func (c *Communicator) Proc() *comm.Proc { return c.p }

// Group returns the communicator's group. The slice is shared and must
// not be mutated.
func (c *Communicator) Group() Group { return c.shared.group }

// Size returns the number of ranks in the communicator.
func (c *Communicator) Size() int { return len(c.shared.group) }

// Rank returns this endpoint's group rank (its position in the group).
func (c *Communicator) Rank() int { return c.mypos }

// Strategy returns the configured algorithm family.
func (c *Communicator) Strategy() Strategy { return c.shared.strategy }

// Policy returns this communicator instance's compression policy (its
// own fork, carrying per-slot decision state), or nil when the
// communicator is uncompressed or statically compressed.
func (c *Communicator) Policy() compress.Policy { return c.policy }

// Compression returns the configured compression knob as given.
func (c *Communicator) Compression() compress.Compression { return c.shared.comp }

// Stream returns the communicator's compression stream (nil when
// uncompressed). Callers running repeated steps over an error-feedback
// codec call Stream().Begin() once per step so the i-th encode of every
// step reuses the i-th residual.
func (c *Communicator) Stream() *compress.Stream { return c.stream }

// Pos returns the group position of world rank r in O(1), panicking if
// r is not a member.
func (c *Communicator) Pos(r int) int {
	i, ok := c.shared.pos[r]
	if !ok {
		panic(fmt.Sprintf("collective: rank %d not in group %v", r, c.shared.group))
	}
	return i
}

// Contains reports in O(1) whether world rank r is a member.
func (c *Communicator) Contains(r int) bool {
	_, ok := c.shared.pos[r]
	return ok
}

// OnProc binds the same logical communicator to another endpoint of the
// same rank — the cloned Proc of an asynchronous op (comm.Launch). The
// clone shares the group, position map and compression stream, so
// error-feedback residuals persist across the handoff; the engine's
// launch/join ordering keeps that handoff race-free.
func (c *Communicator) OnProc(p *comm.Proc) *Communicator {
	if p.Rank() != c.p.Rank() {
		panic("collective: OnProc requires an endpoint of the same rank")
	}
	return &Communicator{shared: c.shared, p: p, mypos: c.mypos, stream: c.stream, policy: c.policy}
}

// Fork returns a communicator over the same group and configuration
// with its own fresh compression stream and (when adaptive) its own
// fresh-state policy fork — one per bucket slot, so each slot's
// error-feedback residuals and decision state stay with its semantic
// bucket.
func (c *Communicator) Fork() *Communicator {
	f := &Communicator{shared: c.shared, p: c.p, mypos: c.mypos}
	f.stream, f.policy = newCompression(c.shared.comp)
	return f
}

// Split partitions the communicator with MPI_Comm_split semantics:
// every member calls Split with its own color and key, members sharing
// a color form a new communicator ordered by (key, current group rank),
// and a negative color (MPI_UNDEFINED) returns nil. The color/key
// exchange is a collective over the parent group — all members must
// call Split at the same program point — carried on the control plane,
// so communicator construction charges neither the virtual clock nor
// the wire-byte meter (setup, not steady-state traffic).
//
// Dead members of the parent group are skipped: they neither
// participate in the exchange (the root would hang gathering from
// them) nor appear in any resulting group, and the exchange is rooted
// at the group's first alive member. This is how an elastic trainer
// re-splits a survivor communicator after a failure — every survivor
// calls Split with the same color and the surviving ranks fall out as
// the new group. Deadness must be settled when Split runs (between
// collectives, after the failed Run returned); a rank dying mid-Split
// collapses into the usual RankFailure cascade.
//
// The sub-communicator inherits the parent's Strategy and Compression
// with a fresh compression stream (and, when adaptive, a fresh-state
// policy fork).
func (c *Communicator) Split(color, key int) *Communicator {
	g := c.shared.group
	n := len(g)
	root := -1
	for i, r := range g {
		if c.p.Alive(r) {
			root = i
			break
		}
	}
	if root < 0 {
		panic("collective: Split on a group with no alive members")
	}
	// deadColor marks a skipped member in the gathered table; negative,
	// so it can never collide with a participating color (callers'
	// negative colors are MPI_UNDEFINED and never enter the table
	// comparison below for other members).
	const deadColor = -1 << 30
	table := make([]int, 2*n)
	if c.mypos == root {
		for i, r := range g {
			switch {
			case i == root:
				table[2*i], table[2*i+1] = color, key
			case !c.p.Alive(r):
				table[2*i] = deadColor
			default:
				ck := c.p.RecvCtl(r)
				table[2*i], table[2*i+1] = ck[0], ck[1]
			}
		}
		for i, r := range g {
			if i != root && c.p.Alive(r) {
				c.p.SendCtl(r, table)
			}
		}
	} else {
		c.p.SendCtl(g[root], []int{color, key})
		table = c.p.RecvCtl(g[root])
	}
	if color < 0 {
		return nil
	}
	type member struct{ pos, key int }
	members := make([]member, 0, n)
	for i := 0; i < n; i++ {
		if table[2*i] == color {
			members = append(members, member{pos: i, key: table[2*i+1]})
		}
	}
	// Stable sort: ties on key keep parent group order, MPI's rule.
	sort.SliceStable(members, func(a, b int) bool { return members[a].key < members[b].key })
	ng := make(Group, len(members))
	for i, m := range members {
		ng[i] = g[m.pos]
	}
	return New(c.p, ng, Config{Strategy: c.shared.strategy, Compression: c.shared.comp})
}

// ---------------------------------------------------------------------
// Codec-aware transport: the one place the collectives decide whether a
// payload is encoded. Every collective is written once against these
// helpers. With a nil stream they are exactly the plain Send/Recv/
// RecvInto calls, so the uncompressed paths stay bitwise- and
// clock-identical. Otherwise the stream's wire format applies
// (headerless for a static codec, self-describing for a policy), and
// the encode and decode passes are charged as MemCopy over the
// uncompressed bytes: the encode before departure, the decode after
// arrival.

// send ships x to world rank dst, encoding through the communicator's
// stream when compression is configured.
//
//adasum:noalloc
func (c *Communicator) send(dst int, x []float32) {
	if c.stream == nil {
		c.p.Send(dst, x)
		return
	}
	wire := c.p.Scratch(c.stream.WireLen(len(x)))
	c.stream.EncodeWire(wire, x)
	c.p.ComputeMemCopy(int64(len(x)) * 4)
	c.p.SendOwned(dst, wire)
}

// recvNew receives an n-element payload from world rank src into a
// pooled buffer owned by the caller (hand it back with p.Release).
//
//adasum:noalloc
func (c *Communicator) recvNew(src, n int) []float32 {
	if c.stream == nil {
		return c.p.Recv(src)
	}
	buf := c.p.Scratch(n)
	c.recvInto(src, buf)
	return buf
}

// recvInto receives from world rank src directly into dst.
//
//adasum:noalloc
func (c *Communicator) recvInto(src int, dst []float32) {
	if c.stream == nil {
		c.p.RecvInto(src, dst)
		return
	}
	wire := c.p.Recv(src)
	c.stream.DecodeWire(dst, wire)
	c.p.Release(wire)
	c.p.ComputeMemCopy(int64(len(dst)) * 4)
}

// ---------------------------------------------------------------------
// Strategy resolution.

// adasumStrategy resolves the configured strategy for the Adasum
// collective.
func (c *Communicator) adasumStrategy() Strategy {
	switch c.shared.strategy {
	case StrategyTree, StrategyRVH, StrategyLinear:
		return c.shared.strategy
	case StrategyRing:
		panic("collective: StrategyRing selects the sum/mean combiner; Adasum takes StrategyTree, StrategyRVH or StrategyLinear")
	default: // StrategyAuto: the paper's algorithm where it applies.
		if c.shared.group.IsPowerOfTwo() {
			return StrategyRVH
		}
		return StrategyLinear
	}
}

// sumStrategy resolves the configured strategy for the sum/mean
// collectives.
func (c *Communicator) sumStrategy() Strategy {
	switch c.shared.strategy {
	case StrategyRVH, StrategyLinear:
		return c.shared.strategy
	}
	return StrategyRing
}

// Adasum reduces x in place across the group with the adaptive-sum
// combine, per-layer over layout (§3.6; pass tensor.FlatLayout(len(x))
// for whole-gradient semantics). The algorithm follows the configured
// Strategy; every rank finishes holding the combined gradient (ranks
// may hold slightly different decoded copies under a lossy codec — the
// consumer reads rank 0's, as with lossy allgathers in real systems).
//
//adasum:noalloc
func (c *Communicator) Adasum(x []float32, layout tensor.Layout) {
	if layout.TotalSize() != len(x) {
		panic("collective: Adasum layout does not cover x")
	}
	switch c.adasumStrategy() {
	case StrategyTree:
		c.treeAdasum(x, layout)
	case StrategyRVH:
		c.adasumRVH(x, layout)
	default:
		c.linearChain(x, layout, true)
	}
}

// AllreduceSum reduces x in place to the elementwise sum over the
// group.
//
//adasum:noalloc
func (c *Communicator) AllreduceSum(x []float32) {
	switch c.sumStrategy() {
	case StrategyRVH:
		c.rvhSum(x)
	case StrategyLinear:
		c.linearChain(x, tensor.Layout{}, false)
	default:
		c.ringSum(x)
	}
}

// AllreduceMean is AllreduceSum followed by division by the group size
// — the combiner synchronous SGD actually applies.
//
//adasum:noalloc
func (c *Communicator) AllreduceMean(x []float32) {
	c.AllreduceSum(x)
	tensor.Scale(1/float32(c.Size()), x)
}
