package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one MD step, one served
// job or one replayed fragment share a Trace id; Parent links a span to
// the span that caused it (0 = root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; later spans are counted, not
// kept (the per-layer aggregates never depend on the log).
const maxSpans = 200000

// tracer keeps spans in memory and writes them once, at the end.
type tracer struct {
	t0      time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, so children can name a parent recorded
// after them.
func (t *tracer) newID() int64 { return t.next.Add(1) }

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent int64, trace, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// time runs fn as a span named name and returns its duration in
// seconds.
func (t *tracer) time(parent int64, trace, name string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(t.newID(), parent, trace, name, start, end)
	return end.Sub(start).Seconds()
}

// writeFile writes the span log as JSON lines, with a final summary
// line carrying the dropped-span count.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	summary := map[string]int{"spans": len(t.spans), "dropped": t.dropped}
	t.mu.Unlock()
	if err := enc.Encode(summary); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
