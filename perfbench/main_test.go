package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// The metric names the benchmark prints must be exactly the ones
// BENCHMARK.json declares, for the untraced and the traced run.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, got map[string]metric) {
		var want, have []string
		for _, d := range declared {
			want = append(want, d.Name+" "+d.Unit)
		}
		for n, m := range got {
			have = append(have, n+" "+m.Unit)
		}
		sort.Strings(want)
		sort.Strings(have)
		if len(want) != len(have) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d:\n%v\n%v", kind, len(want), len(have), want, have)
		}
		for i := range want {
			if want[i] != have[i] {
				t.Errorf("%s: declared %q, printed %q", kind, want[i], have[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd([]float64{1}, runResult{}))
	check("per_layer", spec.PerLayer, layerMetrics(nil, map[string]float64{}, make([]float64, len(runtimeMetrics)), 1, 0, 0))
}
