package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call.
type span struct {
	name       string
	start, end int64 // nanoseconds since the tracer's epoch
	parent     int32 // index of the enclosing span, or -1
}

// tracer keeps spans in memory for the whole run; they are written once,
// at the end, as a Chrome trace-event file. A nil *tracer records nothing,
// so untraced code paths call the same methods for free.
type tracer struct {
	epoch   time.Time
	spans   []span
	limit   int
	dropped int
}

// newTracer returns a tracer that keeps at most limit spans; the storage
// is allocated up front so recording does not allocate on the timed path.
func newTracer(limit int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, limit), limit: limit}
}

// begin opens a span under parent (-1 for a root) and returns its id, or
// -1 when the tracer is nil or full.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == t.limit {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), end: -1, parent: parent})
	return int32(len(t.spans) - 1)
}

// end closes span id; -1 is ignored.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
}

// durations returns the durations in nanoseconds of the closed spans
// named name.
func (t *tracer) durations(name string) []int64 {
	var ds []int64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			ds = append(ds, s.end-s.start)
		}
	}
	return ds
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once, and a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) []int64 {
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		self[i] = s.end - s.start - covered(s.start, s.end, children[i])
	}
	return self
}

// covered returns the length of [lo,hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// traceEvent is one Chrome trace-event "complete" (ph "X") event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event JSON file, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly. Every
// span sits on one track, because the benchmark is a single closed-loop
// client; children nest inside their parents.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(t.spans)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n"); err != nil {
		f.Close()
		return err
	}
	sep := ""
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		w.WriteString(sep)
		sep = ","
		ev := traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent, "self_us": float64(self[i]) / 1e3},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	meta["dropped_spans"] = t.dropped
	mb, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, "],\"metadata\":%s}\n", mb)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
