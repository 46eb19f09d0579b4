// Package fixture exercises the poolown analyzer: a stand-in for the
// comm.Proc pool protocol (the import path ends in internal/comm so
// the seeds match) plus one function per defect shape, each announcing
// its diagnostics with want comments.
package fixture

// --- protocol stand-in ---

type bufPool struct{}

func (bp *bufPool) getF32(shard, n int) []float32 { return make([]float32, n) }
func (bp *bufPool) putF32(shard int, b []float32) {}

// World and Proc mirror the comm API surface the seeds key on.
type World struct{ pool bufPool }

type Proc struct {
	world *World
	rank  int
	stash []float32
}

func (p *Proc) Recv(src int) []float32           { return p.world.pool.getF32(p.rank, 8) }
func (p *Proc) Scratch(n int) []float32          { return p.world.pool.getF32(p.rank, n) }
func (p *Proc) Release(buf []float32)            { p.world.pool.putF32(p.rank, buf) }
func (p *Proc) SendOwned(dst int, buf []float32) {}

var sink []float32

// --- defect shape 1: use after Release ---

func useAfterRelease(p *Proc) float32 {
	buf := p.Recv(1)
	x := buf[0]
	p.Release(buf)
	return x + buf[1] // want `use of buf after Release in useAfterRelease`
}

// --- defect shape 2: double Release ---

func doubleRelease(p *Proc) {
	buf := p.Scratch(16)
	p.Release(buf)
	p.Release(buf) // want `double Release of buf in doubleRelease`
}

// --- defect shape 3: leaks on early-return and panic edges ---

func leakEarlyReturn(p *Proc, cond bool) int {
	buf := p.Scratch(8)
	if cond {
		return 0 // want `pooled buffer buf may leak: still owned at return in leakEarlyReturn`
	}
	p.Release(buf)
	return 1
}

func leakOnPanic(p *Proc, n int) {
	buf := p.Recv(0)
	if n < 0 {
		panic("bad n") // want `pooled buffer buf may leak: still owned at panic in leakOnPanic`
	}
	p.Release(buf)
}

// deferredRelease covers both the early panic and the normal return:
// no findings.
func deferredRelease(p *Proc, n int) float32 {
	buf := p.Scratch(n)
	defer p.Release(buf)
	if n > 10 {
		panic("too big")
	}
	return buf[0]
}

// releaseOnEveryPath is clean: each branch settles ownership.
func releaseOnEveryPath(p *Proc, cond bool) {
	buf := p.Recv(2)
	if cond {
		p.Release(buf)
		return
	}
	p.SendOwned(1, buf)
}

// --- defect shape 4: ownership escaping into fields and globals ---

func storeField(p *Proc) {
	buf := p.Recv(2)
	p.stash = buf // want `pooled buffer buf stored into field stash \(escapes ownership tracking\) in storeField`
}

func storeGlobal(p *Proc) {
	sink = p.Recv(3) // want `pooled buffer from Recv stored into global sink \(escapes ownership tracking\) in storeGlobal`
}

type envelope struct{ data []float32 }

func storeComposite(p *Proc) envelope {
	buf := p.Recv(4)
	return envelope{data: buf} // want `pooled buffer buf stored into composite literal \(escapes ownership tracking\) in storeComposite`
}

// --- defect shape 5: SendOwned of a buffer the caller no longer owns ---

func sendUnowned(p *Proc) {
	buf := p.Recv(4)
	p.Release(buf)
	p.SendOwned(1, buf) // want `SendOwned of buf, which the caller no longer owns, in sendUnowned`
}

// encodeAndSend is the encoded-hop shape a codec layer builds on the
// public API: wire words drawn from Scratch, filled, then handed over.
// SendOwned ends ownership on the only path: no findings.
func encodeAndSend(p *Proc, x []float32) {
	wire := p.Scratch(len(x))
	copy(wire, x)
	p.SendOwned(1, wire)
}

func encodeAfterSend(p *Proc, x []float32) {
	wire := p.Scratch(len(x))
	p.SendOwned(1, wire)
	copy(wire, x) // want `use of wire after ownership transfer in encodeAfterSend`
}

func encodeWithoutSend(p *Proc, x []float32) {
	wire := p.Scratch(len(x))
	copy(wire, x)
} // want `pooled buffer wire may leak: still owned at return in encodeWithoutSend`

// --- secondary shapes: overwrite and dropped result ---

func overwrite(p *Proc) {
	buf := p.Scratch(4)
	buf = p.Scratch(8) // want `pooled buffer buf overwritten while still owned in overwrite`
	p.Release(buf)
}

func dropped(p *Proc) {
	p.Recv(6) // want `pooled buffer from Recv is dropped without Release in dropped`
}

// --- pool-level seeds (bufPool.getF32/putF32) ---

func poolLevel(w *World, shard int) {
	b := w.pool.getF32(shard, 32)
	w.pool.putF32(shard, b)
	w.pool.putF32(shard, b) // want `double Release of b in poolLevel`
}

// --- returns-owned inference: recvNew transfers ownership out, so its
// callers are acquire sites too ---

func recvNew(p *Proc, src int) []float32 {
	return p.Recv(src)
}

func inferredLeak(p *Proc) int {
	buf := recvNew(p, 1)
	return len(buf) // want `pooled buffer buf may leak: still owned at return in inferredLeak`
}

func inferredClean(p *Proc) float32 {
	buf := recvNew(p, 2)
	x := buf[0]
	p.Release(buf)
	return x
}

// --- suppression: an intentional ownership transfer carries a reasoned
// annotation ---

func suppressedStash(p *Proc) {
	buf := p.Recv(5)
	//adasum:poolown ok fixture: ownership intentionally parked in the stash for a later step
	p.stash = buf
}

// --- loop shapes: a buffer released every iteration is clean; one
// acquired per iteration and released only after the loop leaks ---

func loopClean(p *Proc, n int) float32 {
	var total float32
	for i := 0; i < n; i++ {
		buf := p.Recv(i)
		total += buf[0]
		p.Release(buf)
	}
	return total
}

func loopReacquire(p *Proc, xs []int) {
	for _, src := range xs {
		buf := p.Recv(src)
		p.Release(buf)
	}
}
