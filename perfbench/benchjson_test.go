package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

type benchFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The metrics a run prints must be exactly the ones BENCHMARK.json
// declares, with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b := readBenchFile(t)

	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	m, err := endToEnd("test", phase{lat: lat, wall: time.Second, cpu: time.Second, alloc: 1 << 20}, 100)
	if err != nil {
		t.Fatal(err)
	}
	m["setup_s"] = metric{1, "s"}
	if len(m) != len(b.EndToEnd) {
		t.Errorf("a run prints %d end-to-end metrics, BENCHMARK.json declares %d", len(m), len(b.EndToEnd))
	}
	for _, e := range b.EndToEnd {
		if got, ok := m[e.Name]; !ok || got.Unit != e.Unit {
			t.Errorf("end-to-end %s [%s]: printed as %+v (present %v)", e.Name, e.Unit, got, ok)
		}
	}

	if len(perLayer) != len(b.PerLayer) {
		t.Errorf("a traced run prints %d per-layer metrics, BENCHMARK.json declares %d", len(perLayer), len(b.PerLayer))
	}
	for i, l := range b.PerLayer {
		if i < len(perLayer) && (perLayer[i].name != l.Name || perLayer[i].unit != l.Unit) {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], perfbench %s [%s]", i, l.Name, l.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}

	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, perfbench has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
