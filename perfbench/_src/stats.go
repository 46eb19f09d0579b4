package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLadder lists the tail percentiles the benchmark reports, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 80, 75, 70, 50}

// tailPercentile returns the highest ladder percentile at or below want
// that leaves at least ten of n samples beyond it.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p <= want && float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

// hashFloats fingerprints a float32 vector bit for bit.
func hashFloats(xs []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

func allFinite(xs []float32) bool {
	for _, x := range xs {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return false
		}
	}
	return true
}

// heapSampler tracks the peak live heap: after a forced collection,
// the bytes the program still references. Sampled at operation
// boundaries, it is a deterministic function of what the program
// retains, unlike a peak of the collector-paced heap size.
type heapSampler struct {
	sample []metrics.Sample
	peak   uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) mark() {
	runtime.GC()
	metrics.Read(h.sample)
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// gcStats is a snapshot of the runtime's allocation and pause counters.
type gcStats struct {
	alloc   uint64
	pauseNs uint64
	numGC   uint32
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{alloc: m.TotalAlloc, pauseNs: m.PauseTotalNs, numGC: m.NumGC}
}

// timeReps runs f reps times and returns the median duration in
// seconds; each call is recorded as a span named name.
func timeReps(tr *tracer, name string, reps int, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		id := tr.begin(name)
		t := time.Now()
		f()
		ds[i] = time.Since(t).Seconds()
		tr.end(id)
	}
	return median(ds)
}

// cpuNow returns the CPU time the process has used, all threads, user
// plus system, in seconds (CLOCK_PROCESS_CPUTIME_ID). Unlike the wall
// clock it excludes hypervisor steal and time spent waiting for a CPU,
// which on a shared machine move wall-clock op times by up to 2x from
// one run to the next.
func cpuNow() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}
