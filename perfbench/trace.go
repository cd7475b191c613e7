package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public function.
// Spans of one replicate share rep; parent links a call to the span that
// caused it (0 for a root).
type span struct {
	id, parent int32
	rep        int64
	name       string
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths share the traced ones.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32, rep int64) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, rep: rep, name: name, start: now, end: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// durations returns the closed spans named name, in seconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// total sums the closed spans named name, in seconds.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// write dumps every span as one JSON line to the named artifact file.
func (t *tracer) write(name string) error {
	var buf bytes.Buffer
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(&buf, "{\"id\":%d,\"parent\":%d,\"rep\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.id, s.parent, s.rep, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	t.mu.Unlock()
	return writeArtifact(name, buf.Bytes())
}
