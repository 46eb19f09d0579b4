package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// codecs are the lossy codecs the compress probes time, by metric
// suffix; rungs are the default adaptive ladder, in ladder order.
var (
	codecs = []string{"fp16", "int8", "topk"}
	rungs  = []string{"none", "fp16", "int8", "topk"}
)

// declared reads the metric sets from BENCHMARK.json, the single list of
// metric names and units: end-to-end metrics for the untraced mode and
// per-layer metrics for the traced one.
func declared(path string) (e2e, layer map[string]string, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	index := func(es []entry) map[string]string {
		m := map[string]string{}
		for _, e := range es {
			m[e.Name] = e.Unit
		}
		return m
	}
	return index(spec.EndToEnd), index(spec.PerLayer), nil
}
