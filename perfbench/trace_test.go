package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// 0: root [0,100) with children 1 [10,30), 2 [20,50) overlapping
		// it, and 3 [90,120) reaching past the root's end.
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0},
		{name: "c", start: 90, end: 120, parent: 0},
		// 4: grandchild inside b; it is b's child, not the root's.
		{name: "d", start: 25, end: 45, parent: 2},
		// 5: a second root whose only child is still open (end -1).
		{name: "op", start: 200, end: 260, parent: -1},
		{name: "e", start: 210, end: -1, parent: 5},
		// 7: a child nested entirely inside an earlier sibling.
		{name: "op", start: 300, end: 400, parent: -1},
		{name: "f", start: 300, end: 380, parent: 7},
		{name: "g", start: 310, end: 320, parent: 7},
	}
	// Root 0: children cover [10,50) ∪ [90,100) = 50 → self 50.
	// b: [20,50) minus d [25,45) → 10. Root 5: the open child counts for
	// nothing → 60. Root 7: [300,380) ∪ [310,320) = 80 → 20.
	want := []int64{50, 20, 10, 30, 20, 60, 0, 20, 80, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%d %s) = %d, want %d", i, spans[i].name, got[i], want[i])
		}
	}
}

func TestCoveredDisjointAndClipped(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {6, 8}}, 4},
		{0, 10, [][2]int64{{6, 8}, {2, 4}}, 4},
		{0, 10, [][2]int64{{-5, 3}, {8, 20}}, 5},
		{0, 10, [][2]int64{{1, 9}, {2, 3}, {4, 12}}, 9},
		{0, 10, [][2]int64{{20, 30}}, 0},
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered([%d,%d), %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

func TestTracerLimitDrops(t *testing.T) {
	tr := newTracer(2)
	a := tr.begin("a", -1)
	b := tr.begin("b", a)
	c := tr.begin("c", a)
	tr.end(c)
	tr.end(b)
	tr.end(a)
	if c != -1 || tr.dropped != 1 || len(tr.spans) != 2 {
		t.Errorf("limit 2: ids %d %d %d, dropped %d, kept %d", a, b, c, tr.dropped, len(tr.spans))
	}
	if ds := tr.durations("b"); len(ds) != 1 || ds[0] < 0 {
		t.Errorf("durations(b) = %v", ds)
	}
}

func TestWriteChromeIsValidTraceJSON(t *testing.T) {
	tr := newTracer(8)
	root := tr.begin("op", -1)
	tr.end(tr.begin("child", root))
	tr.begin("never-ended", root) // left open: not written
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path, map[string]any{"seed": 1}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, b)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Name != "op" || doc.TraceEvents[1].Name != "child" {
		t.Fatalf("events = %+v", doc.TraceEvents)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Errorf("event %+v is not a complete event", ev)
		}
	}
	if doc.TraceEvents[1].Args["parent"] != float64(0) {
		t.Errorf("child's parent = %v, want 0", doc.TraceEvents[1].Args["parent"])
	}
	if doc.Metadata["seed"] != float64(1) || doc.Metadata["dropped_spans"] != float64(0) {
		t.Errorf("metadata = %v", doc.Metadata)
	}
}
