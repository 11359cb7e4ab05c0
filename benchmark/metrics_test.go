package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric tables of the program and BENCHMARK.json at the repository
// root must name the same metrics with the same units.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bf struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind  string
		file  []metric
		table map[string]string
	}{{"end_to_end", bf.EndToEnd, endToEndUnits}, {"per_layer", bf.PerLayer, perLayerUnits}} {
		seen := map[string]bool{}
		for _, m := range c.file {
			unit, ok := c.table[m.Name]
			if !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but never reported", c.kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s metric %s: unit %q in BENCHMARK.json, %q reported", c.kind, m.Name, m.Unit, unit)
			}
			seen[m.Name] = true
		}
		for name := range c.table {
			if !seen[name] {
				t.Errorf("%s metric %s is reported but missing from BENCHMARK.json", c.kind, name)
			}
		}
	}
}
