package compress

import (
	"math"
	"math/rand"
	"testing"
)

func TestResolve(t *testing.T) {
	if c, p := Resolve(nil); c != nil || p != nil {
		t.Fatal("Resolve(nil) must be (nil, nil)")
	}
	if c, p := Resolve(None()); c != nil || p != nil {
		t.Fatal("Resolve(None) must be (nil, nil)")
	}
	if c, p := Resolve(FP16()); c == nil || p != nil || c.Kind() != KindFP16 {
		t.Fatal("Resolve(FP16) must be the codec, no policy")
	}
	if c, p := Resolve(Adaptive()); c != nil || p == nil {
		t.Fatal("Resolve(Adaptive) must be the policy, no codec")
	}
	if c, p := Resolve(Static(Int8(0))); c != nil || p == nil {
		t.Fatal("Resolve(Static) must be the policy, no codec")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Resolve of a foreign Compression type must panic")
		}
	}()
	type bogus struct{ Compression }
	Resolve(bogus{})
}

func TestStaticPolicyAlwaysReturnsItsCodec(t *testing.T) {
	p := Static(Int8(64))
	for step := 0; step < 5; step++ {
		c := p.Decide(Telemetry{Step: step, Elems: 100, TransferSec: float64(step)})
		if c.Kind() != KindInt8 || c.String() != "int8/64" {
			t.Fatalf("static policy drifted: %v", c)
		}
	}
	if p.Snapshot() != nil {
		t.Fatal("static policy must be stateless")
	}
	if p.Fork().Decide(Telemetry{Elems: 10}).Kind() != KindInt8 {
		t.Fatal("forked static policy lost its codec")
	}
	if Static(nil).Decide(Telemetry{Elems: 10}).Kind() != KindNone {
		t.Fatal("Static(nil) must decide None")
	}
}

// probe builds a slot-fresh adaptive policy past its probe decision so
// subsequent Decide calls exercise the cost comparison.
func probe(t *testing.T, elems int) Policy {
	t.Helper()
	p := Adaptive().Fork()
	if c := p.Decide(Telemetry{Elems: elems}); c.Kind() != KindFP16 {
		t.Fatalf("first decision must probe rung 1 (fp16), got %v", c)
	}
	return p
}

func TestAdaptivePrefersDenseWhenTransferIsCheap(t *testing.T) {
	// Transfer nearly free, encode passes expensive: every lossy rung
	// pays 2*EncodeSec for almost no wire saving, so the policy must
	// settle on None.
	p := probe(t, 1000)
	tl := Telemetry{Elems: 1000, Bytes: 4000, TransferSec: 1e-9, WireBytes: 2000, EncodeSec: 1e-3}
	var got Codec
	for i := 0; i < 3; i++ {
		got = p.Decide(tl)
	}
	if got.Kind() != KindNone {
		t.Fatalf("cheap transfer must pick the dense rung, got %v", got)
	}
}

func TestAdaptivePrefersTopKWhenTransferDominates(t *testing.T) {
	// Transfer hugely expensive relative to encode cost: the sparsest
	// rung wins.
	p := probe(t, 10000)
	tl := Telemetry{Elems: 10000, Bytes: 40000, TransferSec: 1.0, WireBytes: 20000, EncodeSec: 1e-9}
	var got Codec
	for i := 0; i < 3; i++ {
		got = p.Decide(tl)
	}
	if got.Kind() != KindTopK {
		t.Fatalf("expensive transfer must pick top-k, got %v", got)
	}
}

func TestAdaptiveErrorControllerSizesK(t *testing.T) {
	p := probe(t, 10000)
	tl := Telemetry{Elems: 10000, Bytes: 40000, TransferSec: 1.0, WireBytes: 20000, EncodeSec: 1e-9}
	for i := 0; i < 2; i++ {
		p.Decide(tl)
	}
	base := p.Decide(tl).EncodedLen(10000)
	// Residual running above half the gradient norm: k must grow.
	tl.GradL2, tl.ResidualL2 = 1.0, 0.9
	grown := p.Decide(tl).EncodedLen(10000)
	if grown <= base {
		t.Fatalf("large residual must grow k: %d -> %d words", base, grown)
	}
	// Residual negligible: k must shrink back below the grown budget.
	tl.ResidualL2 = 1e-4
	shrunk := grown
	for i := 0; i < 8; i++ {
		shrunk = p.Decide(tl).EncodedLen(10000)
	}
	if shrunk >= grown {
		t.Fatalf("negligible residual must shrink k: %d -> %d words", grown, shrunk)
	}
}

func TestAdaptiveSnapshotRestoreReplaysDecisions(t *testing.T) {
	mkTel := func(step int) Telemetry {
		rng := rand.New(rand.NewSource(int64(step)))
		return Telemetry{
			Step: step, Elems: 5000, Bytes: 20000,
			TransferSec: 1e-4 * (1 + rng.Float64()*100),
			WireBytes:   10000,
			EncodeSec:   1e-6,
			GradL2:      1,
			ResidualL2:  rng.Float64(),
		}
	}
	a := Adaptive().Fork()
	for s := 0; s < 7; s++ {
		a.Decide(mkTel(s))
	}
	snap := append([]float64(nil), a.Snapshot()...)

	b := Adaptive().Fork()
	b.Restore(snap)
	for s := 7; s < 20; s++ {
		ca, cb := a.Decide(mkTel(s)), b.Decide(mkTel(s))
		if ca.String() != cb.String() {
			t.Fatalf("step %d: restored policy decided %v, original %v", s, cb, ca)
		}
	}

	// Restore(nil) resets to the fresh probe state.
	b.Restore(nil)
	if c := b.Decide(Telemetry{Elems: 100}); c.Kind() != KindFP16 {
		t.Fatalf("reset policy must probe again, got %v", c)
	}
}

func TestAdaptiveRestoreRejectsMalformedState(t *testing.T) {
	for _, state := range [][]float64{{1}, {99, 0.01, 1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Restore(%v) must panic", state)
				}
			}()
			Adaptive().Fork().Restore(state)
		}()
	}
}

func TestSelfDescribingWireRoundTrip(t *testing.T) {
	n := 257
	rng := rand.New(rand.NewSource(9))
	src := make([]float32, n)
	for i := range src {
		src[i] = rng.Float32()*2 - 1
	}
	for _, c := range []Codec{None(), FP16(), Int8(0), Int8(64), TopKCount(13, true)} {
		// The receiver's stream sits on a different codec than the
		// sender's: a policy stream decodes whatever the header names.
		send, recv := NewStream(Adaptive()), NewStream(Adaptive())
		send.SetCodec(c)
		recv.SetCodec(FP16())
		wire := make([]float32, send.WireLen(n))
		if len(wire) != 1+c.EncodedLen(n) {
			t.Fatalf("%v: WireLen %d, want header + %d", c, len(wire), c.EncodedLen(n))
		}
		send.EncodeWire(wire, src)
		dst := make([]float32, n)
		recv.DecodeWire(dst, wire)

		want := make([]float32, n)
		c.Decode(want, wire[1:])
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("%v: self-describing decode diverged from direct decode at %d: %v != %v",
					c, i, dst[i], want[i])
			}
		}
		if c.Kind() == KindNone {
			for i := range src {
				if dst[i] != src[i] {
					t.Fatal("none codec must round-trip exactly")
				}
			}
		}
	}
}

// TestStaticWireIsHeaderless: a codec's stream puts exactly the encoded
// words on the wire, and a payload of the wrong length is rejected.
func TestStaticWireIsHeaderless(t *testing.T) {
	const n = 100
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i) * 0.25
	}
	st := NewStream(FP16())
	wire := make([]float32, st.WireLen(n))
	if len(wire) != FP16().EncodedLen(n) {
		t.Fatalf("static WireLen %d, want %d", len(wire), FP16().EncodedLen(n))
	}
	st.EncodeWire(wire, src)
	direct := make([]float32, len(wire))
	FP16().Encode(direct, src, nil)
	for i := range wire {
		if math.Float32bits(wire[i]) != math.Float32bits(direct[i]) {
			t.Fatalf("word %d: static wire differs from the codec's encoding", i)
		}
	}
	dst := make([]float32, n)
	st.DecodeWire(dst, wire)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("element %d: %v != %v", i, dst[i], src[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeWire must reject a payload of the wrong length")
		}
	}()
	st.DecodeWire(dst, wire[1:])
}

func TestHeaderWordSurvivesFloatTransport(t *testing.T) {
	// Header words ride a float32 wire; the bit pattern must survive a
	// float round-trip for every kind (i.e. never be a signaling NaN
	// that transport could canonicalize — we rely on exact bits).
	for _, c := range []Codec{None(), FP16(), Int8(DefaultInt8Block), TopKCount(5, false)} {
		h := headerWord(c)
		bits := math.Float32bits(h)
		if got := math.Float32bits(math.Float32frombits(bits)); got != bits {
			t.Fatalf("%v: header bits not stable: %x != %x", c, got, bits)
		}
		if Kind(bits>>24) != c.Kind() {
			t.Fatalf("%v: header kind mismatch", c)
		}
	}
}

func TestTopKCountExactK(t *testing.T) {
	c := TopKCount(7, true)
	if !c.ErrorFeedback() || c.Kind() != KindTopK {
		t.Fatal("TopKCount must keep kind and error feedback")
	}
	for _, n := range []int{7, 100, 4096} {
		if got := c.EncodedLen(n); got != 14 {
			t.Fatalf("TopKCount(7) EncodedLen(%d) = %d, want 14", n, got)
		}
	}
	// k capped by the payload length.
	if got := c.EncodedLen(3); got != 6 {
		t.Fatalf("k must cap at n: EncodedLen(3) = %d, want 6", got)
	}
}
