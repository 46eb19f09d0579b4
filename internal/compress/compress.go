// Package compress implements the on-the-wire gradient codecs of the
// compressed-communication subsystem: fp16 quantization (§4.4.1 of the
// paper trains BERT-Large with fp16 Adasum arithmetic), int8 block-linear
// quantization, and top-k sparsification with error feedback — the
// composition of adaptive reduction with compressed communication studied
// by Zhong et al. (PAPERS.md).
//
// A Codec packs float32 payloads into float32 *wire words* (bit patterns,
// never used arithmetically), so compressed payloads travel through the
// comm substrate as ordinary words: the alpha-beta transfer cost and the
// wire-byte accounting see the compressed length, and comm itself knows
// nothing about codecs. EncodedLen is deterministic in the payload
// length, so a receiver that knows the uncompressed vector size needs no
// header to decode.
//
// Codecs are stateless values, safe to share across ranks. Per-rank state
// — the selection workspace and, for error-feedback codecs, the residual
// carried across steps at every encode site — lives in a Stream, owned by
// exactly one rank's bucket slot and reused step over step. The Stream
// also owns the wire format: WireLen/EncodeWire/DecodeWire produce
// headerless payloads for a static codec and self-describing ones (one
// header word naming the codec) for a Policy, whose ranks may pick
// different codecs for the same exchange.
package compress

import (
	"fmt"
	"math"

	"repro/internal/float16"
)

// Kind identifies a codec family.
type Kind int

// Codec kinds.
const (
	// KindNone is the identity codec: wire words are the payload.
	KindNone Kind = iota
	// KindFP16 rounds each float32 to IEEE binary16, two halves per
	// wire word (50% of the uncompressed bytes).
	KindFP16
	// KindInt8 quantizes linearly to int8 with one float32 scale per
	// block, four values per wire word (~25% plus scale overhead).
	KindInt8
	// KindTopK keeps the k largest-magnitude entries, sending
	// (index, value) pairs; the rest decode to zero.
	KindTopK
)

// Codec encodes float32 payloads into float32 wire words and back. The
// wire words carry raw bit patterns; they must only be moved (copied,
// sent, pooled), never used in arithmetic. Implementations are immutable
// values and safe for concurrent use; mutable per-rank scratch is passed
// in through a Workspace.
type Codec interface {
	Kind() Kind
	String() string
	// EncodedLen returns the number of wire words an n-element payload
	// encodes to. It is a pure function of n, so both ends of a link
	// agree on payload sizes without headers.
	EncodedLen(n int) int
	// Encode packs src into dst, which must have length
	// EncodedLen(len(src)). ws provides reusable selection scratch; it
	// may be nil, at the cost of per-call allocation.
	Encode(dst, src []float32, ws *Workspace)
	// Decode unpacks src (the wire words of a len(dst)-element payload)
	// into dst.
	Decode(dst, src []float32)
	// Lossy reports whether Decode∘Encode may differ from the identity.
	Lossy() bool
	// ErrorFeedback reports whether encodes through a Stream should
	// carry the residual of what compression dropped into the next step.
	ErrorFeedback() bool
}

// Workspace is reusable scratch for Encode calls (top-k selection). It
// must not be shared between goroutines.
type Workspace struct {
	mag []uint32
	idx []int
}

func (ws *Workspace) magBuf(n int) []uint32 {
	if cap(ws.mag) < n {
		ws.mag = make([]uint32, n) //adasum:alloc ok workspace grows on first use (or payload growth) and is reused
	}
	return ws.mag[:n]
}

func (ws *Workspace) idxBuf(n int) []int {
	if cap(ws.idx) < n {
		ws.idx = make([]int, n) //adasum:alloc ok workspace grows on first use (or payload growth) and is reused
	}
	return ws.idx[:n]
}

// ---------------------------------------------------------------- None

type noneCodec struct{}

// None returns the identity codec. It exists so sweeps and configuration
// tables can name "no compression" uniformly; Resolve maps it onto the
// exact uncompressed code paths, which must stay bitwise (and
// virtual-clock) identical to a nil knob.
func None() Codec { return noneCodec{} }

func (noneCodec) Kind() Kind           { return KindNone }
func (noneCodec) String() string       { return "none" }
func (noneCodec) EncodedLen(n int) int { return n }
func (noneCodec) Lossy() bool          { return false }
func (noneCodec) ErrorFeedback() bool  { return false }

//adasum:noalloc
func (noneCodec) Encode(dst, src []float32, _ *Workspace) {
	checkLen("none encode", len(dst), len(src))
	copy(dst, src)
}

//adasum:noalloc
func (noneCodec) Decode(dst, src []float32) {
	checkLen("none decode", len(src), len(dst))
	copy(dst, src)
}

// ---------------------------------------------------------------- FP16

type fp16Codec struct{}

// FP16 returns the half-precision codec: every value is rounded to IEEE
// binary16 (round-to-nearest-even, the internal/float16 conversion) and
// two halves are packed per wire word. Re-encoding an already
// representable value is exact, so fp16 payloads survive multi-hop
// collectives without compounding loss.
func FP16() Codec { return fp16Codec{} }

func (fp16Codec) Kind() Kind           { return KindFP16 }
func (fp16Codec) String() string       { return "fp16" }
func (fp16Codec) EncodedLen(n int) int { return (n + 1) / 2 }
func (fp16Codec) Lossy() bool          { return true }
func (fp16Codec) ErrorFeedback() bool  { return false }

//adasum:noalloc
func (fp16Codec) Encode(dst, src []float32, _ *Workspace) {
	checkLen("fp16 encode", len(dst), (len(src)+1)/2)
	for w := 0; w < len(src)/2; w++ {
		lo := uint32(float16.FromFloat32(src[2*w]))
		hi := uint32(float16.FromFloat32(src[2*w+1]))
		dst[w] = math.Float32frombits(lo | hi<<16)
	}
	if len(src)%2 == 1 {
		dst[len(dst)-1] = math.Float32frombits(uint32(float16.FromFloat32(src[len(src)-1])))
	}
}

//adasum:noalloc
func (fp16Codec) Decode(dst, src []float32) {
	checkLen("fp16 decode", len(src), (len(dst)+1)/2)
	for w := 0; w < len(dst)/2; w++ {
		bits := math.Float32bits(src[w])
		dst[2*w] = float16.ToFloat32(float16.Bits(bits))
		dst[2*w+1] = float16.ToFloat32(float16.Bits(bits >> 16))
	}
	if len(dst)%2 == 1 {
		dst[len(dst)-1] = float16.ToFloat32(float16.Bits(math.Float32bits(src[len(src)-1])))
	}
}

// ---------------------------------------------------------------- Int8

type int8Codec struct{ block int }

// DefaultInt8Block is the quantization block size used when Int8 is
// given a non-positive block: small enough that a block never spans more
// than one typical layer of the models here (per-layer or finer scale
// granularity), large enough that the one-word scale overhead stays
// under 0.1% of the payload.
const DefaultInt8Block = 1024

// Int8 returns the block-linear int8 codec: the payload is cut into
// blocks of the given size (<= 0 selects DefaultInt8Block), each block
// stores one float32 scale = max|v|/127 followed by its values quantized
// to round(v/scale) in [-127, 127], four per wire word. Because blocks
// are at most one layer long for the layouts used here, the scale
// adapts per layer or finer — the "per-layer linear quantization" of the
// compressed-communication literature.
func Int8(block int) Codec {
	if block <= 0 {
		block = DefaultInt8Block
	}
	return int8Codec{block: block}
}

func (c int8Codec) Kind() Kind     { return KindInt8 }
func (c int8Codec) String() string { return fmt.Sprintf("int8/%d", c.block) }
func (c int8Codec) EncodedLen(n int) int {
	if n == 0 {
		return 0
	}
	nblocks := (n + c.block - 1) / c.block
	return nblocks + (n+3)/4
}
func (c int8Codec) Lossy() bool         { return true }
func (c int8Codec) ErrorFeedback() bool { return false }

//adasum:noalloc
func (c int8Codec) Encode(dst, src []float32, _ *Workspace) {
	checkLen("int8 encode", len(dst), c.EncodedLen(len(src)))
	if len(src) == 0 {
		return
	}
	nblocks := (len(src) + c.block - 1) / c.block
	w := nblocks // packed bytes start after the scale table
	var word uint32
	shift := uint(0)
	for b := 0; b < nblocks; b++ {
		lo := b * c.block
		hi := min(lo+c.block, len(src))
		var maxbits uint32
		for _, v := range src[lo:hi] {
			if a := absBits(v); a > maxbits {
				maxbits = a
			}
		}
		// A non-finite value cannot be linearly quantized; poison the
		// whole block by storing a NaN scale, which decodes the block to
		// NaN — the loud propagation the uncompressed path would give a
		// diverging run (dynamic loss scalers key off it).
		if maxbits >= expAllOnes {
			dst[b] = math.Float32frombits(nanBits)
			for range src[lo:hi] {
				if shift += 8; shift == 32 {
					dst[w] = math.Float32frombits(word)
					w++
					word, shift = 0, 0
				}
			}
			continue
		}
		scale := math.Float32frombits(maxbits) / 127
		dst[b] = scale
		for _, v := range src[lo:hi] {
			var q int8
			if scale > 0 {
				q = int8(math.Round(float64(v / scale)))
			}
			word |= uint32(uint8(q)) << shift
			if shift += 8; shift == 32 {
				dst[w] = math.Float32frombits(word)
				w++
				word, shift = 0, 0
			}
		}
	}
	if shift > 0 {
		dst[w] = math.Float32frombits(word)
	}
}

//adasum:noalloc
func (c int8Codec) Decode(dst, src []float32) {
	checkLen("int8 decode", len(src), c.EncodedLen(len(dst)))
	if len(dst) == 0 {
		return
	}
	nblocks := (len(dst) + c.block - 1) / c.block
	w := nblocks
	var word uint32
	shift := uint(32) // force a load on the first value
	for b := 0; b < nblocks; b++ {
		lo := b * c.block
		hi := min(lo+c.block, len(dst))
		scale := src[b]
		for i := lo; i < hi; i++ {
			if shift == 32 {
				word = math.Float32bits(src[w])
				w++
				shift = 0
			}
			q := int8(uint8(word >> shift))
			shift += 8
			dst[i] = float32(q) * scale // a NaN scale (poisoned block) decodes to NaN
		}
	}
}

// ---------------------------------------------------------------- TopK

type topKCodec struct {
	frac float64
	// kExact, when positive, fixes k directly instead of deriving it
	// from frac — the form an adaptive policy emits (it sizes k from
	// its error controller) and the wire-header decode reconstructs
	// (k is implied by the 2k-word payload).
	kExact int
	ef     bool
}

// TopK returns the sparsifying codec: the k = ceil(frac·n) entries of
// largest magnitude are kept exactly and everything else decodes to
// zero. The wire carries k (index, value) pairs. When ef is true,
// encodes routed through a Stream accumulate what was dropped into a
// per-site residual added back on the next step — the error-feedback
// scheme that keeps sparsified training convergent where naive dropping
// is not. frac must be in (0, 1].
func TopK(frac float64, ef bool) Codec {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("compress: TopK fraction %v outside (0, 1]", frac))
	}
	return topKCodec{frac: frac, ef: ef}
}

// TopKCount returns the sparsifying codec with k fixed absolutely
// instead of as a fraction of the payload (clamped to the payload
// length at encode time). This is the form an adaptive policy returns
// when it sizes k at decision time.
func TopKCount(k int, ef bool) Codec {
	if k < 1 {
		panic(fmt.Sprintf("compress: TopKCount requires k >= 1 (got %d)", k))
	}
	return topKCodec{kExact: k, ef: ef}
}

func (c topKCodec) Kind() Kind { return KindTopK }
func (c topKCodec) String() string {
	s := fmt.Sprintf("topk/%g", c.frac)
	if c.kExact > 0 {
		s = fmt.Sprintf("topk/k=%d", c.kExact)
	}
	if c.ef {
		s += "+ef"
	}
	return s
}

func (c topKCodec) kFor(n int) int {
	if n == 0 {
		return 0
	}
	if c.kExact > 0 {
		if c.kExact > n {
			return n
		}
		return c.kExact
	}
	k := int(math.Ceil(c.frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

func (c topKCodec) EncodedLen(n int) int { return 2 * c.kFor(n) }
func (c topKCodec) Lossy() bool          { return true }
func (c topKCodec) ErrorFeedback() bool  { return c.ef }

//adasum:noalloc
func (c topKCodec) Encode(dst, src []float32, ws *Workspace) {
	k := c.kFor(len(src))
	checkLen("topk encode", len(dst), 2*k)
	if k == 0 {
		return
	}
	if ws == nil {
		ws = &Workspace{} //adasum:alloc ok nil-workspace fallback; steady-state callers pass their stream-owned Workspace
	}
	idx := ws.idxBuf(k)
	selectTopK(src, k, ws.magBuf(len(src)), idx)
	for i, j := range idx {
		dst[i] = math.Float32frombits(uint32(j))
		dst[k+i] = src[j]
	}
}

//adasum:noalloc
func (c topKCodec) Decode(dst, src []float32) {
	k := c.kFor(len(dst))
	checkLen("topk decode", len(src), 2*k)
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < k; i++ {
		j := int(math.Float32bits(src[i]))
		if j < 0 || j >= len(dst) {
			panic(fmt.Sprintf("compress: topk decode index %d outside payload of %d", j, len(dst)))
		}
		dst[j] = src[k+i]
	}
}

// selectTopK writes the indices of the k largest-magnitude entries of
// src into idx (ascending index order — deterministic under ties: ties
// at the threshold magnitude resolve to the lowest indices). mag is
// len(src) scratch. Selection runs on the sign-stripped bit patterns:
// for non-negative floats the uint32 ordering matches the numeric one,
// comparisons are total (no NaN traps in the quickselect), and NaN
// patterns order above +Inf — so non-finite entries are always selected
// and transmitted exactly, propagating a diverged gradient loudly
// instead of corrupting the selection.
func selectTopK(src []float32, k int, mag []uint32, idx []int) {
	for i, v := range src {
		mag[i] = absBits(v)
	}
	thresh := kthLargest(mag, k)
	// First pass: everything strictly above the threshold magnitude.
	n := 0
	for i, v := range src {
		if absBits(v) > thresh {
			idx[n] = i
			n++
		}
	}
	// Second pass: fill the remainder with threshold-magnitude entries
	// in index order.
	for i := 0; i < len(src) && n < k; i++ {
		if absBits(src[i]) == thresh {
			idx[n] = i
			n++
		}
	}
}

// kthLargest returns the k-th largest element (1 <= k <= len(a)) of a,
// partially sorting a in place by deterministic quickselect
// (median-of-three pivots).
func kthLargest(a []uint32, k int) uint32 {
	lo, hi := 0, len(a)-1
	target := k - 1
	for lo < hi {
		p := partitionDesc(a, lo, hi)
		switch {
		case p == target:
			return a[p]
		case p < target:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return a[lo]
}

// partitionDesc partitions a[lo..hi] around a median-of-three pivot in
// descending order and returns the pivot's final position.
func partitionDesc(a []uint32, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Order a[lo], a[mid], a[hi] descending; median lands at mid.
	if a[mid] > a[lo] {
		a[lo], a[mid] = a[mid], a[lo]
	}
	if a[hi] > a[lo] {
		a[lo], a[hi] = a[hi], a[lo]
	}
	if a[hi] > a[mid] {
		a[mid], a[hi] = a[hi], a[mid]
	}
	pivot := a[mid]
	a[mid], a[hi] = a[hi], a[mid] // park the pivot at hi
	store := lo
	for i := lo; i < hi; i++ {
		if a[i] > pivot {
			a[i], a[store] = a[store], a[i]
			store++
		}
	}
	a[store], a[hi] = a[hi], a[store]
	return store
}

// ---------------------------------------------------------------- Stream

// Stream is the per-rank, per-communication-stream compression state: a
// codec plus, for error-feedback codecs, one residual vector per encode
// site of the stream's step program. A stream belongs to exactly one
// bucket slot of one rank's engine (or one test goroutine) and must be
// driven by a deterministic sequence of encodes per step: Begin resets
// the site cursor, and the i-th encode of every step reuses the i-th
// residual, so the error a site drops in one step is added back into the
// same site's payload on the next — carried per rank across steps.
//
// A Stream is not safe for concurrent use, but the engine's
// launch-before-run and wait-before-relaunch ordering makes handoffs
// between the rank goroutine and its async bucket ops race-free.
type Stream struct {
	codec Codec
	ws    Workspace
	pos   int         // encode-site cursor within the current step
	res   [][]float32 // per-site residuals (error-feedback codecs only)
	eff   []float32   // src+residual working vector
	dec   []float32   // decode scratch for the residual update
	enc   []float32   // wire-word scratch for Quantize

	// selfDescribing marks a policy-driven stream: its codec changes per
	// launch, so every wire payload leads with a header word naming it.
	selfDescribing bool
}

// NewStream creates compression state for one communication stream
// configured by comp, and with it the stream's wire format. A Codec
// gives a static stream whose payloads are headerless: both ends know
// the codec. A Policy gives a self-describing stream: it starts on the
// identity codec, the policy re-points it per launch (SetCodec), and
// every payload leads with one header word naming the codec it was
// encoded under, because ranks may decide differently for the same
// exchange (their residuals differ).
func NewStream(comp Compression) *Stream {
	switch c := comp.(type) {
	case Codec:
		return &Stream{codec: c}
	case Policy:
		return &Stream{codec: None(), selfDescribing: true}
	default:
		panic(fmt.Sprintf("compress: NewStream requires a Codec or a Policy (got %T)", comp))
	}
}

// Codec returns the stream's codec.
func (s *Stream) Codec() Codec { return s.codec }

// SetCodec swaps the stream's codec in place — the per-launch decision
// point of an adaptive policy. Residual sites are keyed by encode order
// and sized by uncompressed payload lengths, both codec-independent, so
// error-feedback residuals survive a swap; codecs without error
// feedback leave them frozen until an error-feedback codec is selected
// again (the standard error-feedback semantics: dropped mass is
// re-applied whenever the site next encodes lossily).
func (s *Stream) SetCodec(c Codec) {
	if c == nil {
		panic("compress: SetCodec requires a codec")
	}
	s.codec = c
}

// SourceResidualL2 returns the L2 norm of encode site 0's residual —
// the bucket-granularity error the stream's source quantization dropped
// — or 0 when no residual exists yet. Rank-private and deterministic:
// the error signal an adaptive policy decides from.
func (s *Stream) SourceResidualL2() float64 {
	if len(s.res) == 0 || s.res[0] == nil {
		return 0
	}
	var sum float64
	for _, v := range s.res[0] {
		sum += float64(v) * float64(v)
	}
	return math.Sqrt(sum)
}

// Begin starts a new step: the next encode is site 0 again. The encode
// sequence after Begin must present the same payload lengths in the
// same order as every other step, or residuals would be applied to the
// wrong sites.
func (s *Stream) Begin() { s.pos = 0 }

// Encode packs src into dst (length codec.EncodedLen(len(src))). For an
// error-feedback codec, the current site's residual is added to src
// before encoding and what the encoding dropped becomes the site's new
// residual.
//
//adasum:noalloc
func (s *Stream) Encode(dst, src []float32) {
	//adasum:dyncall ok ErrorFeedback implementations return constants
	if !s.codec.ErrorFeedback() {
		//adasum:dyncall ok codec Encode implementations are noalloc-marked in this package
		s.codec.Encode(dst, src, &s.ws)
		return
	}
	r := s.site(len(src))
	eff := growF32(&s.eff, len(src))
	for i := range src {
		eff[i] = src[i] + r[i]
	}
	//adasum:dyncall ok codec Encode implementations are noalloc-marked in this package
	s.codec.Encode(dst, eff, &s.ws)
	dec := growF32(&s.dec, len(src))
	//adasum:dyncall ok codec Decode implementations are noalloc-marked in this package
	s.codec.Decode(dec, dst)
	for i := range r {
		r[i] = eff[i] - dec[i]
	}
}

// WireLen returns the number of wire words an n-element payload
// occupies on this stream: the codec's encoded words, plus the header
// word when the stream is self-describing.
//
//adasum:noalloc
func (s *Stream) WireLen(n int) int {
	//adasum:dyncall ok codec EncodedLen implementations are arithmetic over the payload length
	n = s.codec.EncodedLen(n)
	if s.selfDescribing {
		n++
	}
	return n
}

// EncodeWire encodes src into dst, which must have length
// WireLen(len(src)), through Encode (error feedback included). A
// self-describing stream first writes the header word naming its
// current codec.
//
//adasum:noalloc
func (s *Stream) EncodeWire(dst, src []float32) {
	if s.selfDescribing {
		dst[0] = headerWord(s.codec)
		dst = dst[1:]
	}
	s.Encode(dst, src)
}

// DecodeWire decodes a payload a peer produced with EncodeWire on a
// stream of the same configuration into the n-element dst. A headerless
// payload decodes under this stream's codec and must be exactly
// EncodedLen(len(dst)) words; a self-describing one decodes under
// whatever codec its header names. Mismatches panic: the wire is
// in-process and deterministic, so they are programming errors.
//
//adasum:noalloc
func (s *Stream) DecodeWire(dst, wire []float32) {
	if s.selfDescribing {
		decodeFromWire(dst, wire)
		return
	}
	//adasum:dyncall ok codec EncodedLen implementations are arithmetic over the payload length
	if want := s.codec.EncodedLen(len(dst)); len(wire) != want {
		panic(fmt.Sprintf("compress: payload %d words, want %d for %d floats", len(wire), want, len(dst)))
	}
	//adasum:dyncall ok codec Decode implementations are noalloc-marked in this package
	s.codec.Decode(dst, wire)
}

// Quantize applies the codec's loss to x in place — decode(encode(x)),
// with error feedback when the codec carries it — without producing
// wire words for a peer. This is the bucket-granularity source encode of
// the overlap engine: the fused buffer is quantized once at launch, the
// way a real fp16 fusion buffer casts the gradient before the
// collective. Lossless codecs leave x untouched.
func (s *Stream) Quantize(x []float32) {
	//adasum:dyncall ok Lossy implementations return constants
	if !s.codec.Lossy() {
		return
	}
	//adasum:dyncall ok codec EncodedLen implementations are arithmetic over the payload length
	enc := growF32(&s.enc, s.codec.EncodedLen(len(x)))
	s.Encode(enc, x)
	//adasum:dyncall ok codec Decode implementations are noalloc-marked in this package
	s.codec.Decode(x, enc)
}

// Snapshot returns a deep copy of the per-site error-feedback residuals
// — the state a checkpoint must carry so a resumed run re-applies
// exactly the error each site dropped (Zhong et al.: dropping residuals
// at restart silently changes the trajectory). Codecs without error
// feedback have no residuals and snapshot to nil.
func (s *Stream) Snapshot() [][]float32 {
	if len(s.res) == 0 {
		return nil
	}
	out := make([][]float32, len(s.res))
	for i, r := range s.res {
		if r == nil {
			continue
		}
		out[i] = append([]float32(nil), r...)
	}
	return out
}

// Restore replaces the stream's residual state with a deep copy of res
// (a Snapshot from a checkpoint) and resets the site cursor. The next
// Begin/Encode sequence must present the same payload lengths as the
// run that captured the snapshot; site.length checking enforces it.
func (s *Stream) Restore(res [][]float32) {
	s.pos = 0
	s.res = s.res[:0]
	for _, r := range res {
		if r == nil {
			s.res = append(s.res, nil) //adasum:alloc ok restore runs once at resume, off the steady-state path
			continue
		}
		s.res = append(s.res, append([]float32(nil), r...)) //adasum:alloc ok restore runs once at resume, off the steady-state path
	}
}

// site returns the residual buffer of the next encode site, zeroed on
// first use, and advances the cursor.
func (s *Stream) site(n int) []float32 {
	for len(s.res) <= s.pos {
		s.res = append(s.res, nil) //adasum:alloc ok per-site residual slots mint on the first step
	}
	if cap(s.res[s.pos]) < n {
		s.res[s.pos] = make([]float32, n) //adasum:alloc ok per-site residuals mint on the first step
	} else if len(s.res[s.pos]) != n {
		// A site's payload length is fixed across steps; a mismatch means
		// the step program changed under the stream.
		panic(fmt.Sprintf("compress: encode site %d length changed (%d != %d)",
			s.pos, len(s.res[s.pos]), n))
	}
	r := s.res[s.pos][:n]
	s.pos++
	return r
}

func growF32(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n) //adasum:alloc ok scratch grows on first use (or payload growth) and is reused
	}
	*buf = (*buf)[:n]
	return *buf
}

func checkLen(what string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("compress: %s length %d, want %d", what, got, want))
	}
}

const (
	// expAllOnes is the sign-stripped bit-pattern threshold at and above
	// which a float32 is non-finite (+Inf, then the NaN payloads).
	expAllOnes = uint32(0x7F800000)
	// nanBits is the quiet NaN used to poison unquantizable blocks.
	nanBits = uint32(0x7FC00000)
)

// absBits returns v's bit pattern with the sign stripped: a total,
// magnitude-monotone ordering key for float32s.
func absBits(v float32) uint32 {
	return math.Float32bits(v) &^ (1 << 31)
}
