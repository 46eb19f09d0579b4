// Command perfbench is the repository benchmark: it runs one workload
// in-process through the public APIs of trainer and serve (and, for the
// per-layer numbers, of the layers below them), checks the outputs, and
// prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the workload runs untraced and then traced, and the
// metrics are the per-layer ones. See ../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	attempted, failed int
	e2e, layer        map[string]float64
	notes             []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records n failed operations with the reason.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.note("FAILED: "+format, args...)
}

func main() {
	workload := flag.String("workload", "", "train-compute, train-comm or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = also run traced and report the per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/perfbench/traces", "where the traced run writes its spans")
	specPath := flag.String("spec", "BENCHMARK.json", "the declared metric names and units")
	flag.Parse()

	e2e, layer, err := declared(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	window := time.Duration(*seconds * float64(time.Second))
	traced := *trace == 1
	var rep *report
	if shape, ok := trainShapes[*workload]; ok {
		rep = runTrain(shape, *seed, window, traced, *traceDir)
	} else if *workload == "serve-mix" {
		rep = runServe(*seed, window, traced, *traceDir)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	got, decl := rep.e2e, e2e
	if traced {
		got, decl = rep.layer, layer
	}
	if err := rep.emit(got, decl); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints the notes, the metrics got as text, and then the JSON
// result. It refuses to print a result whose metric set differs from
// decl.
func (r *report) emit(got map[string]float64, decl map[string]string) error {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	var names []string
	for name := range got {
		if _, ok := decl[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
		names = append(names, name)
	}
	for name := range decl {
		if _, ok := got[name]; !ok {
			return fmt.Errorf("declared metric %s was not measured", name)
		}
	}
	sort.Strings(names)
	out := map[string]metric{}
	for _, name := range names {
		v := got[name]
		if v != v { // NaN cannot be encoded; a NaN metric is a benchmark bug
			return fmt.Errorf("metric %s is NaN", name)
		}
		out[name] = metric{Value: v, Unit: decl[name]}
		fmt.Printf("%-36s %14.6g %s\n", name, v, decl[name])
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
