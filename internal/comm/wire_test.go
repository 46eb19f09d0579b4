package comm

import (
	"go/build"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// TestWireWordsSurviveTransport sends raw bit patterns (as the codecs
// produce, including patterns that are NaNs when viewed as floats)
// through the pooled transport and checks bit-exact arrival — the wire
// words must only ever be moved, and the substrate must move them
// exactly.
func TestWireWordsSurviveTransport(t *testing.T) {
	words := []float32{
		math.Float32frombits(0x7FC01234), // quiet NaN with payload
		math.Float32frombits(0x7F800001), // signalling NaN pattern
		math.Float32frombits(0x0000FFFF), // subnormal (packed int pattern)
		math.Float32frombits(0xFFFFFFFF),
		0,
	}
	w := NewWorld(2, nil)
	got := make([]float32, len(words))
	w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, words)
		} else {
			p.RecvInto(0, got)
		}
	})
	for i := range words {
		if math.Float32bits(got[i]) != math.Float32bits(words[i]) {
			t.Fatalf("word %d: bits %08x != %08x", i, math.Float32bits(got[i]), math.Float32bits(words[i]))
		}
	}
}

// TestTransportIsCodecAgnostic keeps the substrate below the codecs:
// comm moves words, compress.Stream owns the wire format, and collective
// decides when to encode. Neither comm nor anything it imports from this
// module may import the compress package, so another transport can
// replace comm without dragging the codec layer along.
func TestTransportIsCodecAgnostic(t *testing.T) {
	const module, banned = "repro/", "repro/internal/compress"
	seen := map[string]bool{}
	var walk func(path, dir string)
	walk = func(path, dir string) {
		if seen[path] {
			return
		}
		seen[path] = true
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if imp == banned {
				t.Fatalf("%s imports %s: the transport must stay codec-agnostic", path, imp)
			}
			if strings.HasPrefix(imp, module+"internal/") {
				walk(imp, filepath.Join("..", strings.TrimPrefix(imp, module+"internal/")))
			}
		}
	}
	walk(module+"internal/comm", ".")
}
