package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestWorkloadsFitTwoProcsButNotOne(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if err := w.fits(2); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.fits(1) == nil {
			t.Errorf("%s runs %d×%d compute threads yet fits GOMAXPROCS 1", w.Name, w.Ranks, w.Workers)
		}
	}
}

func TestFillIdleCoversEveryPerLayerMetric(t *testing.T) {
	res := &result{Correct: true, Metrics: map[string]metric{"nn.forward_ms": {Value: 3, Unit: "ms"}}}
	fillIdle(res)
	if len(res.Metrics) != len(perLayerUnits) {
		t.Fatalf("%d metrics after fillIdle, want %d", len(res.Metrics), len(perLayerUnits))
	}
	if res.Metrics["nn.forward_ms"].Value != 3 {
		t.Error("fillIdle overwrote a measured metric")
	}
	if m := res.Metrics["comm.skew_ms"]; m.Value != 0 || m.Unit != "ms" {
		t.Errorf("idle comm.skew_ms = %+v, want 0 ms", m)
	}
}

func TestPerLayerUnitsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside perfbench: %v", err)
	}
	var b struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(perLayerUnits) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(perLayerUnits))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayerUnits[i].name || m.Unit != perLayerUnits[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s %s, benchmark %s %s",
				i, m.Name, m.Unit, perLayerUnits[i].name, perLayerUnits[i].unit)
		}
	}
}
