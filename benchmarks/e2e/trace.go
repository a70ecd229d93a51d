package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share OpID;
// Parent is the ID of the span that caused this one (0 for an operation's
// root). Times are nanoseconds since the tracer was made.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	OpID   int64  `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// open is a span being timed.
type open struct {
	tr *tracer
	id int64
}

// start opens a span and returns it; end records it.
func (t *tracer) start(name string, opID, parent int64) open {
	if t == nil {
		return open{}
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, OpID: opID, Name: name, Start: now})
	t.mu.Unlock()
	return open{tr: t, id: id}
}

func (o open) end() {
	if o.tr == nil {
		return
	}
	now := int64(time.Since(o.tr.t0))
	o.tr.mu.Lock()
	o.tr.spans[o.id-1].End = now
	o.tr.mu.Unlock()
}

// selfTimesMs returns, per span name, the median self time: a span's
// duration minus the part of it its child spans cover.
func (t *tracer) selfTimesMs() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= s.Start {
			covered[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string][]float64{}
	for _, s := range t.spans {
		if s.End < s.Start || s.End == 0 {
			continue
		}
		byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start-covered[s.ID])/1e6)
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

// spanFileOps is how many operations' spans the span file holds, of the
// driver's operations and of the probes' each. The medians come from every
// span in memory; the file is for reading single operations, and a full
// run's spans would fill tens of megabytes.
const spanFileOps = 100

// write stores, as one JSON array, the spans of the first spanFileOps driver
// operations (op_id counting up from 1) and probe operations (op_id counting
// down from -1).
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	kept := make([]span, 0, 8192)
	for _, s := range t.spans {
		if s.OpID <= spanFileOps && s.OpID >= -spanFileOps {
			kept = append(kept, s)
		}
	}
	if err := json.NewEncoder(f).Encode(kept); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
