package collective

// Exchange primitives shared by the allreduce algorithms: the float64
// dot-product allreduce of Algorithm 1 line 17, binomial-tree
// broadcast, gather, and the ring reduce-scatter/allgather phases. All
// ride the communicator's codec-aware transport except the dot-product
// side payloads, which are tiny and always travel uncompressed.

// allreduceF64RD sums float64 vectors across a contiguous block of
// group positions [base, base+size) by recursive doubling. size must be
// a power of two. v is updated in place with the blockwise sum. This
// implements the ALLREDUCE(v, +, group) primitive on line 17 of
// Algorithm 1, which completes the partial dot products.
//
//adasum:noalloc
func (c *Communicator) allreduceF64RD(base, size int, v []float64) {
	if size <= 1 {
		return
	}
	if size&(size-1) != 0 {
		panic("collective: dot-product group size must be a power of two")
	}
	p, g := c.p, c.shared.group
	rel := c.mypos - base
	for mask := 1; mask < size; mask <<= 1 {
		peer := g[base+(rel^mask)]
		got := p.SendRecvMeta(peer, v)
		for i := range v {
			v[i] += got[i]
		}
		p.ReleaseMeta(got)
	}
}

// Broadcast distributes the vector held at group position root to every
// rank using a binomial tree. Non-root callers pass their (correctly
// sized) buffer in x and receive into it in place; the root's x is
// sent. The steady-state op allocates nothing.
func (c *Communicator) Broadcast(root int, x []float32) {
	g := c.shared.group
	n := len(g)
	if n == 1 {
		return
	}
	// Rotate so root behaves as position 0.
	rel := (c.mypos - root + n) % n
	// Simple doubling rounds: in round k, positions < 2^k send to
	// position + 2^k (if it exists).
	received := rel == 0
	for step := 1; step < n; step <<= 1 {
		if rel < step && rel+step < n {
			if !received {
				panic("collective: broadcast internal ordering error")
			}
			c.send(g[(root+rel+step)%n], x)
		} else if rel >= step && rel < 2*step {
			src := g[(root+rel-step)%n]
			c.recvInto(src, x)
			received = true
		}
	}
}

// BroadcastInto is Broadcast with separate source and destination
// buffers: every rank — root included — finishes with the payload in
// dst, and the root's src is never written. Non-root callers may pass
// src as nil. Like Broadcast it allocates nothing in steady state, so
// callers that must preserve their source vector need no staging copy.
//
//adasum:noalloc
func (c *Communicator) BroadcastInto(root int, dst, src []float32) {
	if c.mypos == root {
		if len(src) != len(dst) {
			panic("collective: BroadcastInto src/dst length mismatch")
		}
		copy(dst, src)
	}
	c.Broadcast(root, dst)
}

// Gather collects every member's vector at group position root. All
// vectors must have the same length. Only the root's return value is
// meaningful; it holds freshly allocated copies of the vectors indexed
// by group rank. Steady-state callers use GatherInto.
func (c *Communicator) Gather(root int, x []float32) [][]float32 {
	g := c.shared.group
	if c.mypos != root {
		c.send(g[root], x)
		return nil
	}
	out := make([][]float32, len(g))
	for i := range g {
		out[i] = make([]float32, len(x))
		if i == root {
			copy(out[i], x)
			continue
		}
		c.recvInto(g[i], out[i])
	}
	return out
}

// GatherInto is the zero-allocation Gather: the root receives each
// member's vector directly into into[i] (rows pre-sized to len(x));
// non-root callers may pass into as nil. The root's own row is copied
// from x.
//
//adasum:noalloc
func (c *Communicator) GatherInto(root int, x []float32, into [][]float32) {
	g := c.shared.group
	if c.mypos != root {
		c.send(g[root], x)
		return
	}
	if len(into) != len(g) {
		panic("collective: GatherInto needs one destination row per group member")
	}
	for i := range g {
		if i == root {
			copy(into[i], x)
			continue
		}
		c.recvInto(g[i], into[i])
	}
}

// boundsFn maps a group rank to the [lo, hi) element range of the chunk
// it owns. The ring primitives take their chunking through this
// accessor so one implementation serves both the arithmetic equal split
// and the layer-aligned range tables; non-escaping closures keep both
// callers allocation-free.
type boundsFn func(i int) (lo, hi int)

// rangeBounds adapts an explicit range table (layer-aligned shards) to
// a boundsFn.
func rangeBounds(ranges [][2]int) boundsFn {
	//adasum:alloc ok non-escaping closure: callers only pass it down the ring primitives, so it stays on the stack
	return func(i int) (int, int) { return ranges[i][0], ranges[i][1] }
}

// equalBounds is the classic near-equal ring-allreduce chunking of n
// elements over parts ranks, computed arithmetically.
func equalBounds(n, parts int) boundsFn {
	//adasum:alloc ok non-escaping closure: callers only pass it down the ring primitives, so it stays on the stack
	return func(i int) (int, int) { return equalChunk(n, parts, i) }
}

// equalChunk returns the [lo, hi) bounds of chunk i when n elements are
// split into parts contiguous near-equal ranges.
//
//adasum:noalloc
func equalChunk(n, parts, i int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// reduceScatterRing performs a ring reduce-scatter with elementwise sum
// over contiguous chunks. bounds(i) is the element range group rank i
// owns at the end. x is the caller's full vector; on return,
// x[bounds(me)] holds the group-wide sum of that range, and the
// function returns that slice. Other regions of x are clobbered with
// partial sums.
//
//adasum:noalloc
func (c *Communicator) reduceScatterRing(x []float32, bounds boundsFn) []float32 {
	p, g := c.p, c.shared.group
	n := len(g)
	me := c.mypos
	if n == 1 {
		lo, hi := bounds(0) //adasum:dyncall ok bounds closures (rangeBounds/equalBounds) are index arithmetic only
		return x[lo:hi]
	}
	next := g[(me+1)%n]
	prev := g[(me-1+n)%n]
	// Step s: send chunk (me-s-1) mod n to next, receive chunk (me-s-2)
	// mod n from prev and accumulate into x. With this phase shift, rank
	// me finishes owning the fully reduced chunk me.
	for s := 0; s < n-1; s++ {
		sendIdx := ((me-s-1)%n + n) % n
		recvIdx := ((me-s-2)%n + n) % n
		slo, shi := bounds(sendIdx) //adasum:dyncall ok bounds closures (rangeBounds/equalBounds) are index arithmetic only
		c.send(next, x[slo:shi])
		rlo, rhi := bounds(recvIdx) //adasum:dyncall ok bounds closures (rangeBounds/equalBounds) are index arithmetic only
		got := c.recvNew(prev, rhi-rlo)
		dst := x[rlo:rhi]
		for i := range dst {
			dst[i] += got[i]
		}
		p.Release(got)
		p.ComputeReduce(4 * int64(rhi-rlo))
	}
	mlo, mhi := bounds(me) //adasum:dyncall ok bounds closures (rangeBounds/equalBounds) are index arithmetic only
	return x[mlo:mhi]
}

// allgatherRing performs a ring allgather over contiguous chunks: on
// entry x[bounds(me)] is this rank's finished chunk; on return every
// chunk of x is filled with its owner's data.
//
//adasum:noalloc
func (c *Communicator) allgatherRing(x []float32, bounds boundsFn) {
	g := c.shared.group
	n := len(g)
	if n == 1 {
		return
	}
	me := c.mypos
	next := g[(me+1)%n]
	prev := g[(me-1+n)%n]
	// Step s: pass chunk (me-s) mod n along, receiving (me-s-1) mod n;
	// rank me starts by sending the chunk it owns.
	for s := 0; s < n-1; s++ {
		sendIdx := ((me-s)%n + n) % n
		recvIdx := ((me-s-1)%n + n) % n
		slo, shi := bounds(sendIdx) //adasum:dyncall ok bounds closures (rangeBounds/equalBounds) are index arithmetic only
		c.send(next, x[slo:shi])
		rlo, rhi := bounds(recvIdx) //adasum:dyncall ok bounds closures (rangeBounds/equalBounds) are index arithmetic only
		c.recvInto(prev, x[rlo:rhi])
	}
}
