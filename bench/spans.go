package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer, on the host
// clock. Spans are recorded from the benchmark's own files only, kept in
// memory, and written out when the traced run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Name    string `json:"name"`
	Query   string `json:"query,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanRecorder collects spans for one traced repetition. The nil recorder
// records nothing, which is what untraced repetitions use.
type spanRecorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids; the top is the parent of the next
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// start opens a span under the innermost open one and returns the
// function that closes it.
func (r *spanRecorder) start(name, query string) (end func()) {
	if r == nil {
		return func() {}
	}
	parent := 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Query: query,
		StartNS: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, id)
	return func() {
		r.spans[id-1].EndNS = time.Since(r.t0).Nanoseconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// selfTime sums, over every span with the given name, its duration minus
// the part its direct children cover.
func (r *spanRecorder) selfTime(name string) time.Duration {
	if r == nil {
		return 0
	}
	child := make(map[int]int64)
	for _, s := range r.spans {
		child[s.Parent] += s.EndNS - s.StartNS
	}
	var total int64
	for _, s := range r.spans {
		if s.Name == name {
			total += s.EndNS - s.StartNS - child[s.ID]
		}
	}
	return time.Duration(total)
}

// write stores the spans as JSON lines.
func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
