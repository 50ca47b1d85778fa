package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// summary is the final stdout line.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

func lastLine(t *testing.T, out string) summary {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, out)
	}
	return s
}

// TestSmokeEveryWorkload runs each workload end to end at tiny scale,
// untraced and traced, and checks the summary carries exactly the
// catalogue's metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			if testing.Short() && trace == "1" {
				continue
			}
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				code := run([]string{"--workload", wl, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--tiny", "--out", t.TempDir()}, &out, io.Discard)
				s := lastLine(t, out.String())
				if code != 0 || !s.Correct || s.Failed != 0 || s.Attempted < 1 {
					t.Fatalf("exit %d, summary %+v\n%s", code, s, out.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				want := 0
				for _, d := range defs {
					if recordOnly[d.Name] {
						continue
					}
					want++
					m, ok := s.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s missing or wrong unit: %+v", d.Name, m)
					}
				}
				if len(s.Metrics) != want {
					t.Errorf("%d metrics, want %d", len(s.Metrics), want)
				}
			})
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", wlSelect, "--trace", "2"},
		{"--workload", wlSelect, "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metric
// catalogue in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("workloads %v vs %v", doc.Workloads, workloadNames)
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloadNames[i])
		}
	}
	var e2e []metricDef
	for _, d := range endToEnd {
		if !recordOnly[d.Name] {
			e2e = append(e2e, d)
		}
	}
	if len(doc.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics vs %d", len(doc.EndToEnd), len(e2e))
	}
	for i, m := range doc.EndToEnd {
		d := e2e[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != bounds[d.Name] {
			t.Errorf("end_to_end[%d] = %+v, catalogue %+v bound %v", i, m, d, bounds[d.Name])
		}
	}
	var layer []metricDef
	for _, d := range perLayer {
		if !recordOnly[d.Name] {
			layer = append(layer, d)
		}
	}
	if len(doc.PerLayer) != len(layer) {
		t.Fatalf("%d per-layer metrics vs %d", len(doc.PerLayer), len(layer))
	}
	for i, m := range doc.PerLayer {
		if d := layer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue %+v", i, m, d)
		}
	}
}
