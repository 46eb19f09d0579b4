package collective

import (
	"repro/internal/adasum"
	"repro/internal/tensor"
)

// The allreduce algorithms behind the Communicator methods. Each is
// written once against the codec-aware transport helpers (send/recvNew/
// recvInto), so the same code path serves plain and compressed traffic:
// with a nil stream the helpers are exactly the pre-codec calls and the
// collectives stay bitwise- and virtual-clock-identical to the
// uncompressed substrate; with a codec every gradient hop encodes
// before the wire and decodes on arrival, the per-layer dot products
// feeding the Adasum combine are computed on the decoded values each
// rank actually combines, and the small float64 dot-product allreduce
// itself travels uncompressed.

// ringSum performs the classic bandwidth-optimal ring allreduce with
// elementwise sum: a ring reduce-scatter followed by a ring allgather,
// each moving (n-1)/n of the vector. This is the reproduction's
// stand-in for "NCCL's sum operation", the baseline of Figure 4. Chunk
// bounds are computed arithmetically and transport buffers come from
// the World pool, so the collective allocates nothing in steady state.
//
//adasum:noalloc
func (c *Communicator) ringSum(x []float32) {
	if c.Size() == 1 {
		return
	}
	bounds := equalBounds(len(x), c.Size())
	c.reduceScatterRing(x, bounds)
	c.allgatherRing(x, bounds)
}

// rvhSum performs recursive vector halving-and-doubling with
// elementwise sum: log p halving exchange steps (reduce-scatter), then
// log p doubling steps (allgather). The group size must be a power of
// two. This is the unmodified baseline algorithm that Algorithm 1
// extends.
//
//adasum:noalloc
func (c *Communicator) rvhSum(x []float32) {
	if !c.shared.group.IsPowerOfTwo() {
		panic("collective: StrategyRVH sum allreduce requires a power-of-two group")
	}
	if c.Size() == 1 {
		return
	}
	c.rvhSumRec(x, 0, len(x), 1)
}

// rvhSumRec runs one halving/doubling level over the window [lo, hi) of
// x, which every rank holds in the same full-size buffer: the reduction
// happens in place in this rank's half, and the allgather unwind
// receives the peer's half directly into its home position in x, so no
// level allocates. Received transport buffers are recycled to the pool.
//
//adasum:noalloc
func (c *Communicator) rvhSumRec(x []float32, lo, hi, d int) {
	p, g := c.p, c.shared.group
	mid := lo + tensor.HalfSplit(hi-lo)
	left := (c.mypos/d)%2 == 0
	var nghr, nlo, nhi int
	if left {
		nghr = c.mypos + d
		c.send(g[nghr], x[mid:hi])
		theirs := c.recvNew(g[nghr], mid-lo)
		mine := x[lo:mid]
		for i := range mine {
			mine[i] += theirs[i]
		}
		p.Release(theirs)
		nlo, nhi = lo, mid
	} else {
		nghr = c.mypos - d
		c.send(g[nghr], x[lo:mid])
		theirs := c.recvNew(g[nghr], hi-mid)
		mine := x[mid:hi]
		for i := range mine {
			mine[i] += theirs[i]
		}
		p.Release(theirs)
		nlo, nhi = mid, hi
	}
	p.ComputeReduce(4 * int64(nhi-nlo))
	if 2*d < len(g) {
		c.rvhSumRec(x, nlo, nhi, 2*d)
	}
	// Doubling unwind: exchange fully reduced halves into place.
	c.send(g[nghr], x[nlo:nhi])
	if left {
		c.recvInto(g[nghr], x[mid:hi])
	} else {
		c.recvInto(g[nghr], x[lo:mid])
	}
}

// adasumRVH is Algorithm 1: recursive vector halving where each level's
// reduction is the Adasum combine, made possible by an extra
// small-vector allreduce that completes the per-layer dot products
// across the ranks sharing slices of the same logical vectors. The
// group size must be a power of two. x is reduced in place on every
// rank.
//
//adasum:noalloc
func (c *Communicator) adasumRVH(x []float32, layout tensor.Layout) {
	if !c.shared.group.IsPowerOfTwo() {
		panic("collective: StrategyRVH Adasum requires a power-of-two group")
	}
	if c.Size() == 1 {
		return
	}
	// One flattened per-layer dot-product scratch serves every recursion
	// level; it comes from the World pool so repeated collectives reuse
	// the same allocation.
	dots := c.p.ScratchMeta(3 * layout.NumLayers())
	c.adasumRVHRec(x, 0, len(x), 1, layout, dots)
	c.p.ReleaseMeta(dots)
}

// adasumRVHRec runs one level of Algorithm 1 over the window [lo, hi)
// of x. Every rank keeps its working slice inside the same full-size
// buffer at its home offset: the combine writes into this rank's half
// of the window in place, and the allgather unwind receives the peer's
// half directly into its home position — no level builds fresh slices.
// d is the neighbor distance; dots is the reusable flattened per-layer
// partial buffer (3 entries per layer of layout).
//
//adasum:noalloc
func (c *Communicator) adasumRVHRec(x []float32, lo, hi, d int, layout tensor.Layout, dots []float64) {
	p, g := c.p, c.shared.group
	mid := lo + tensor.HalfSplit(hi-lo) // line 2
	left := (c.mypos/d)%2 == 0

	var a, b, dst, recv []float32
	var nghr, nlo, nhi int
	if left { // lines 3-7: keep left half, receive neighbor's left half
		nghr = c.mypos + d
		c.send(g[nghr], x[mid:hi])
		recv = c.recvNew(g[nghr], mid-lo)
		a, b, dst = x[lo:mid], recv, x[lo:mid]
		nlo, nhi = lo, mid
	} else { // lines 8-13: keep right half, receive neighbor's right half
		nghr = c.mypos - d
		c.send(g[nghr], x[lo:mid])
		recv = c.recvNew(g[nghr], hi-mid)
		a, b, dst = recv, x[mid:hi], x[mid:hi]
		nlo, nhi = mid, hi
	}

	d2 := 2 * d // line 14

	// Lines 15-17: per-layer partial dot products over this rank's
	// window, summed across the contiguous block of d2 group positions
	// that collectively hold the two logical vectors. Under a codec the
	// dots are taken over the decoded operands, so the combine's
	// coefficients match the arithmetic actually applied.
	adasum.WindowDots(dots, a, b, nlo, layout)
	p.ComputeReduce(3 * 4 * int64(len(a)))
	base := c.mypos / d2 * d2
	c.allreduceF64RD(base, d2, dots)

	// Line 18: apply the combine with the completed dot products.
	adasum.CombineWindow(dst, a, b, nlo, layout, dots)
	p.ComputeReduce(2 * 4 * int64(len(a)))
	p.Release(recv)

	if d2 < len(g) { // lines 19-21
		c.adasumRVHRec(x, nlo, nhi, d2, layout, dots)
	}

	// Lines 22-24: allgather unwind — exchange finished halves into place.
	c.send(g[nghr], x[nlo:nhi])
	if left {
		c.recvInto(g[nghr], x[mid:hi])
	} else {
		c.recvInto(g[nghr], x[lo:mid])
	}
}

// treeAdasum is an allreduce whose result is bitwise-identical to the
// host-side tree reduction adasum.Reducer.TreeReduce over the group's
// vectors ordered by group rank. It runs recursive doubling on full
// vectors: at distance d, the holders of adjacent 2d-blocks exchange
// their partial combinations and both apply the per-layer Adasum with
// the lower block's vector as the first operand — the exact pairing and
// operand order of the host tree ((g0⊕g1)⊕(g2⊕g3))⊕..., so every float
// operation matches the Reducer's and the distributed result can be
// A/B-compared against the monolithic path at zero tolerance. Any group
// size is accepted; non-powers-of-two reduce to position 0 with the
// host tree's odd-leftover pass-through and then broadcast.
//
// Compared with adasumRVH (Algorithm 1), the tree moves the full vector
// log p times instead of halving it, trading bandwidth optimality for
// exact arithmetic parity; it is the deterministic-parity mode of the
// overlapped reduction engine.
//
//adasum:noalloc
func (c *Communicator) treeAdasum(x []float32, layout tensor.Layout) {
	p, g := c.p, c.shared.group
	n := len(g)
	if n == 1 {
		return
	}
	pos := c.mypos
	buf := p.Scratch(len(x))
	if c.shared.group.IsPowerOfTwo() {
		// Symmetric exchange: every rank holds the block combination at
		// every level, so no final broadcast is needed and all ranks
		// compute bitwise-identical values (exactly identical when the
		// codec is lossless; re-decoded copies under a lossy one).
		for d := 1; d < n; d <<= 1 {
			peer := g[pos^d]
			c.send(peer, x)
			c.recvInto(peer, buf)
			if pos&d == 0 {
				adasum.CombineLayers(x, x, buf, layout)
			} else {
				adasum.CombineLayers(x, buf, x, layout)
			}
			p.ComputeReduce(5 * 4 * int64(len(x)))
		}
		p.Release(buf)
		return
	}
	// General size: tree-reduce to position 0 with the host tree's
	// pairing (an odd block at the end of a level passes through
	// unchanged), then broadcast the result.
	for d := 1; d < n; d <<= 1 {
		if pos%(2*d) == d {
			c.send(g[pos-d], x)
			break
		}
		if pos+d < n {
			c.recvInto(g[pos+d], buf)
			adasum.CombineLayers(x, x, buf, layout)
			p.ComputeReduce(5 * 4 * int64(len(x)))
		}
	}
	p.Release(buf)
	c.Broadcast(0, x)
}

// linearChain is the linear application order of §3.4/§4.2.3:
// position 0 folds in every other rank's vector in group order, then
// broadcasts the result. With adaptive set each fold is the per-layer
// Adasum combine ((g0 ⊕ g1) ⊕ g2) ⊕ ... — O(p) latency and serialized
// bandwidth, kept as the ordering ablation and as the any-group-size
// fallback, mirroring the paper's finding that the tree (RVH) variant
// is faster on these topologies. Otherwise each fold is tensor.Axpy(1,
// …), the summation order of adasum.SumReduce, so the chain's sum (and
// AllreduceMean's mean) is bitwise-equal to the host-side reference.
//
//adasum:noalloc
func (c *Communicator) linearChain(x []float32, layout tensor.Layout, adaptive bool) {
	p, g := c.p, c.shared.group
	if len(g) == 1 {
		return
	}
	if c.mypos == 0 {
		for i := 1; i < len(g); i++ {
			got := c.recvNew(g[i], len(x))
			bytes := 4 * int64(len(x))
			if adaptive {
				adasum.CombineLayers(x, x, got, layout)
				bytes *= 5
			} else {
				tensor.Axpy(1, got, x)
			}
			p.Release(got)
			p.ComputeReduce(bytes)
		}
	} else {
		c.send(g[0], x)
	}
	c.Broadcast(0, x)
}
