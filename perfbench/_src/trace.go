package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index of
// the enclosing span (-1 for a root); Op is the operation the span
// belongs to (-1 outside the measured operations: set-up and probes).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced run pays one nil check per boundary.
// It is driven from one goroutine: the one calling into the layers.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	return t.beginAt(name, t.now())
}

func (t *tracer) beginAt(name string, start int64) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.endAt(id, t.now())
}

func (t *tracer) endAt(id int, end int64) {
	t.spans[id].End = end
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// setOp labels the spans that follow with an operation id (-1 = none).
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// selfTimes returns, per span name, every span's self time in seconds:
// its duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string][]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/1e9)
	}
	return out
}

// durations returns every span's full duration in seconds, per name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e9)
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
