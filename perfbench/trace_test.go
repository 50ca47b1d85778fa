package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: "core", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50) once: 40 ms.
		{ID: 2, Parent: 1, Layer: "experiment", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Layer: "experiment", Start: 30 * ms, End: 50 * ms},
		// A child running past its parent counts only inside it: 10 ms.
		{ID: 4, Parent: 1, Layer: "serve", Start: 90 * ms, End: 120 * ms},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 2, Layer: "mpi", Start: 15 * ms, End: 20 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"core":       50 * ms,
		"experiment": 25*ms + 20*ms,
		"serve":      30 * ms,
		"mpi":        5 * ms,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self[%s] = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestTracerRecordsParentsAndExportsChromeJSON(t *testing.T) {
	var nilTracer *tracer
	nilTracer.start(nilTracer.newOp(), 0, "core", "untraced").end() // must not panic

	tr := newTracer()
	op := tr.newOp()
	root := tr.start(op, 0, "core", "root")
	child := tr.start(op, root.ID(), "experiment", "child")
	child.end()
	root.end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Name != "root" || spans[1].Parent != spans[0].ID || spans[1].Op != op {
		t.Fatalf("spans = %+v", spans)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Ph != "X" || ev.Cat != "experiment" || ev.Args.Parent != doc.TraceEvents[0].Args.ID ||
		ev.TID != op || math.Abs(ev.Args.EndUS-ev.Args.StartUS-ev.Dur) > 1e-9 {
		t.Errorf("child event = %+v", ev)
	}
}
