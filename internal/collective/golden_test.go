package collective

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// The wire golden pins every codec configuration's observable footprint
// on the collectives — the virtual clock, the wire-byte meter and the
// reduced values — bit for bit, so refactors of the encode/decode path
// (where headers are written, which layer draws the wire buffer, the
// order encode and decode passes are charged in) cannot drift silently.
// Each case runs two rounds on 8 ranks over a cost model with a nonzero
// MemCopyBeta, so encode/decode charges move the clock. Policies decide
// per round: the first decision probes (fp16 for Adaptive), the second
// sees an expensive transfer and drops to top-k, so both a dense and a
// sparse self-describing payload cross the wire.

const goldenFile = "wire_golden.txt"

const goldenRanks, goldenElems = 8, 1000

var goldenLayout = tensor.NewLayout([]string{"a", "b", "c"}, []int{300, 450, 250})

func goldenModel() *simnet.Model {
	m := simnet.Uniform(goldenRanks, 2e-6, 1e-9)
	m.MemCopyBeta = 1.0 / 50e9
	m.FlopBeta = 1.0 / 20e9
	return m
}

// goldenCodecs is the compression axis, in golden-file order. The
// broadcast and gather cases run under none, fp16 and adaptive only.
var goldenCodecs = []struct {
	name string
	comp compress.Compression
}{
	{"none", nil},
	{"fp16", compress.FP16()},
	{"int8", compress.Int8(compress.DefaultInt8Block)},
	{"topk", compress.TopK(0.1, true)},
	{"static-fp16", compress.Static(compress.FP16())},
	{"adaptive", compress.Adaptive()},
}

// goldenDecide drives a policy communicator's per-round decision the way
// the overlap engine does: round 0 has no measurement (a probe), round 1
// reports a transfer-dominated bucket. It returns the chosen codec, or
// nil for a communicator without a policy.
func goldenDecide(c *Communicator, round int) compress.Codec {
	pol := c.Policy()
	if pol == nil {
		return nil
	}
	t := compress.Telemetry{Slot: 0, Step: round, Elems: goldenElems, Bytes: 4 * goldenElems}
	if round > 0 {
		t.TransferSec, t.WireBytes, t.EncodeSec = 1e-2, 4*goldenElems, 1e-7
		t.GradL2, t.ResidualL2 = 1, 0.1
	}
	codec := pol.Decide(t)
	c.Stream().SetCodec(codec)
	return codec
}

func goldenInput(rank int) []float32 {
	return tensor.Clone(makeInputs(int64(101+rank), 1, goldenElems)[0])
}

// goldenHash is FNV-1a over the float32 bit patterns of the rows.
func goldenHash(rows ...[]float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, row := range rows {
		for _, v := range row {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// goldenRun executes body on every rank of a fresh World over the
// golden cost model and formats the case's golden line: MaxClock bits,
// wire bytes and the hash of what rank 0 returned.
func goldenRun(name string, body func(p *comm.Proc) [][]float32) string {
	w := comm.NewWorld(goldenRanks, goldenModel())
	var rank0 [][]float32
	clock := comm.MaxClock(w, func(p *comm.Proc) {
		out := body(p)
		if p.Rank() == 0 {
			rank0 = out
		}
	})
	return fmt.Sprintf("%s clock=%016x wire=%d hash=%016x", name, math.Float64bits(clock), w.WireBytes(), goldenHash(rank0...))
}

// goldenLines computes every case of the golden matrix.
func goldenLines() []string {
	var lines []string
	g := WorldGroup(goldenRanks)
	reductions := []struct {
		name     string
		strategy Strategy
		flat     func(c *Communicator, x []float32)
		hier     func(h *Hierarchy, x []float32)
	}{
		{"tree", StrategyTree,
			func(c *Communicator, x []float32) { c.Adasum(x, goldenLayout) },
			func(h *Hierarchy, x []float32) { h.Adasum(x, goldenLayout) }},
		{"rvh", StrategyRVH,
			func(c *Communicator, x []float32) { c.Adasum(x, goldenLayout) },
			func(h *Hierarchy, x []float32) { h.Adasum(x, goldenLayout) }},
		{"ring-mean", StrategyRing,
			func(c *Communicator, x []float32) { c.AllreduceMean(x) },
			func(h *Hierarchy, x []float32) { h.AllreduceMean(x) }},
	}
	for _, cc := range goldenCodecs {
		for _, red := range reductions {
			cfg := Config{Strategy: red.strategy, Compression: cc.comp}
			lines = append(lines, goldenRun(fmt.Sprintf("%s/%s/flat", cc.name, red.name), func(p *comm.Proc) [][]float32 {
				c := New(p, g, cfg)
				x := goldenInput(p.Rank())
				for round := 0; round < 2; round++ {
					goldenDecide(c, round)
					if st := c.Stream(); st != nil {
						st.Begin()
					}
					red.flat(c, x)
				}
				return [][]float32{x}
			}))
			lines = append(lines, goldenRun(fmt.Sprintf("%s/%s/hier2", cc.name, red.name), func(p *comm.Proc) [][]float32 {
				c := New(p, g, cfg)
				h := NewHierarchy(c, 2)
				x := goldenInput(p.Rank())
				for round := 0; round < 2; round++ {
					if codec := goldenDecide(c, round); codec != nil {
						h.SetCodec(codec)
					}
					red.hier(h, x)
				}
				return [][]float32{x}
			}))
		}
	}
	for _, cc := range goldenCodecs {
		if cc.name != "none" && cc.name != "fp16" && cc.name != "adaptive" {
			continue
		}
		cfg := Config{Compression: cc.comp}
		lines = append(lines, goldenRun(cc.name+"/broadcast-into", func(p *comm.Proc) [][]float32 {
			c := New(p, g, cfg)
			dst := make([]float32, goldenElems)
			var src []float32
			if c.Rank() == 3 {
				src = goldenInput(p.Rank())
			}
			for round := 0; round < 2; round++ {
				goldenDecide(c, round)
				c.BroadcastInto(3, dst, src)
			}
			return [][]float32{dst}
		}))
		lines = append(lines, goldenRun(cc.name+"/gather-into", func(p *comm.Proc) [][]float32 {
			c := New(p, g, cfg)
			var rows [][]float32
			if c.Rank() == 0 {
				rows = make([][]float32, goldenRanks)
				for i := range rows {
					rows[i] = make([]float32, goldenElems)
				}
			}
			x := goldenInput(p.Rank())
			for round := 0; round < 2; round++ {
				goldenDecide(c, round)
				c.GatherInto(0, x, rows)
			}
			return rows
		}))
		lines = append(lines, goldenRun(cc.name+"/gather", func(p *comm.Proc) [][]float32 {
			c := New(p, g, cfg)
			x := goldenInput(p.Rank())
			var rows [][]float32
			for round := 0; round < 2; round++ {
				goldenDecide(c, round)
				rows = c.Gather(0, x)
			}
			return rows
		}))
	}
	return lines
}

// TestWireGolden compares the whole matrix with testdata/wire_golden.txt.
// On a mismatch the fresh table is logged; replace the file with it only
// when the change to clocks, wire bytes or values is intended.
func TestWireGolden(t *testing.T) {
	got := goldenLines()
	f, err := os.Open(filepath.Join("testdata", goldenFile))
	if err != nil {
		t.Fatalf("%v\nfresh table:\n%s", err, strings.Join(got, "\n"))
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("golden has %d cases, computed %d", len(want), len(got))
	}
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			t.Errorf("case %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("fresh table:\n%s", strings.Join(got, "\n"))
	}
}

// TestEncodedHopChargesWireWords pins the accounting contract of one
// encoded hop: the transfer cost and the wire-byte meter see the
// compressed words, while encode and decode are charged as MemCopy
// passes over the uncompressed bytes — encode before departure on the
// sender, decode after arrival on the receiver.
func TestEncodedHopChargesWireWords(t *testing.T) {
	const n = 1000
	const alpha, beta = 1e-4, 1e-8
	model := simnet.Uniform(2, alpha, beta)
	model.MemCopyBeta = 1e-9
	w := comm.NewWorld(2, model)
	codec := compress.FP16()
	encWords := codec.EncodedLen(n) // 500

	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i%17) * 0.25 // exactly representable in fp16
	}
	got := make([]float32, n)
	var senderClock, receiverClock float64
	g := WorldGroup(2)
	w.Run(func(p *comm.Proc) {
		c := New(p, g, Config{Compression: codec})
		c.Stream().Begin()
		if p.Rank() == 0 {
			c.send(1, src)
			senderClock = p.Clock()
		} else {
			c.recvInto(0, got)
			receiverClock = p.Clock()
		}
	})

	// Payload round trip (these values are lossless in fp16).
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("element %d: %v != %v", i, got[i], src[i])
		}
	}
	// Sender: one encode MemCopy over n*4 bytes; transfer computed on
	// the compressed words but charged to the receiver's arrival.
	wantSender := float64(n*4) * model.MemCopyBeta
	if math.Abs(senderClock-wantSender) > 1e-15 {
		t.Fatalf("sender clock %v, want encode-only %v", senderClock, wantSender)
	}
	// Receiver: arrival at sender departure + compressed transfer, plus
	// one decode MemCopy.
	wantReceiver := wantSender + alpha + float64(encWords*4)*beta + float64(n*4)*model.MemCopyBeta
	if math.Abs(receiverClock-wantReceiver) > 1e-15 {
		t.Fatalf("receiver clock %v, want %v", receiverClock, wantReceiver)
	}
	// The wire meter counts compressed bytes only.
	if w.WireBytes() != int64(encWords)*4 {
		t.Fatalf("wire bytes %d, want %d", w.WireBytes(), encWords*4)
	}
}

// TestEncodedHopNoneIsPlain: a communicator configured with the None
// codec must move exactly like an uncompressed one — same bytes, same
// clocks, no encode or decode charges even when MemCopy costs time.
func TestEncodedHopNoneIsPlain(t *testing.T) {
	const n = 64
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i) * 0.5
	}
	run := func(comp compress.Compression) (float64, int64) {
		model := simnet.Uniform(2, 1e-5, 1e-9)
		model.MemCopyBeta = 1e-9
		w := comm.NewWorld(2, model)
		g := WorldGroup(2)
		got := make([]float32, n)
		sec := comm.MaxClock(w, func(p *comm.Proc) {
			c := New(p, g, Config{Compression: comp})
			if p.Rank() == 0 {
				c.send(1, src)
			} else {
				c.recvInto(0, got)
			}
		})
		if !tensor.Equal(got, src, 0) {
			t.Fatalf("%v: payload changed in transit", comp)
		}
		return sec, w.WireBytes()
	}
	plainSec, plainWire := run(nil)
	noneSec, noneWire := run(compress.None())
	if plainSec != noneSec || plainWire != noneWire {
		t.Fatalf("None path (%v, %d) differs from plain (%v, %d)", noneSec, noneWire, plainSec, plainWire)
	}
}
