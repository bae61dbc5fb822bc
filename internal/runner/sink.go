package runner

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// Sink receives results in the order the caller emits them. Sinks are
// called from a single goroutine and need no locking.
type Sink interface {
	Emit(res Result) error
	Close() error
}

// EmitAll pushes a result slice through sinks in order and returns the
// first sink error.
func EmitAll(sinks []Sink, results []Result) error {
	var first error
	for _, res := range results {
		for _, s := range sinks {
			if err := s.Emit(res); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// CloseAll closes every sink, returning the first error.
func CloseAll(sinks []Sink) error {
	var first error
	for _, s := range sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// jsonlRecord is the deterministic JSONL line: no timing, so that equal
// seeds give byte-identical files at any worker count.
type jsonlRecord struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Seed  int64  `json:"seed"`
	Value any    `json:"value,omitempty"`
}

// JSONLSink writes one JSON line per result. Output depends only on the
// results (never on timing or worker count).
type JSONLSink struct {
	w io.Writer
}

// NewJSONLSink returns a sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit writes one line.
func (s *JSONLSink) Emit(res Result) error {
	b, err := json.Marshal(jsonlRecord{Index: res.Index, Name: res.Name, Seed: res.Seed, Value: res.Value})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(s.w, "%s\n", b)
	return err
}

// Close is a no-op (the caller owns the writer).
func (s *JSONLSink) Close() error { return nil }

// CSVSink writes one row per result: index, name, seed, status and the
// JSON-encoded value. Like JSONLSink, its output excludes timing. Status
// is always "ok": a run that fails panics the sweep (see Run) and writes
// no record.
type CSVSink struct {
	cw     *csv.Writer
	header bool
}

// NewCSVSink returns a sink writing to w.
func NewCSVSink(w io.Writer) *CSVSink { return &CSVSink{cw: csv.NewWriter(w)} }

// Emit writes one row (plus the header before the first).
func (s *CSVSink) Emit(res Result) error {
	if !s.header {
		s.header = true
		if err := s.cw.Write([]string{"index", "name", "seed", "status", "value"}); err != nil {
			return err
		}
	}
	val := ""
	if res.Value != nil {
		b, err := json.Marshal(res.Value)
		if err != nil {
			return err
		}
		val = string(b)
	}
	return s.cw.Write([]string{
		fmt.Sprintf("%d", res.Index), res.Name,
		fmt.Sprintf("%d", res.Seed), "ok", val,
	})
}

// Close flushes buffered rows.
func (s *CSVSink) Close() error {
	s.cw.Flush()
	return s.cw.Error()
}
