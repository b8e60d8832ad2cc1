package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's exported function, recorded
// from the benchmark's side of the boundary. Spans of one operation
// share Op; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Round  int32  `json:"round"`
}

// tracer keeps spans in memory for the length of the run; nothing is
// written until the measurement is over.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	op    int32
	round int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open one. On a nil tracer —
// an untraced round — begin and end do nothing.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Round: t.round,
		Start: int64(time.Since(t.epoch))})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	n := len(t.open) - 1
	t.spans[t.open[n]].End = now
	t.open = t.open[:n]
}

// layerTimes sums, per span name, the self time (duration minus the
// part its children cover) and the call count of the spans recorded
// from index from onward, in nanoseconds. pass maps each span name to
// the name of the root span it was recorded under, and total each root
// name to the summed duration of its spans: a traced round is one pass
// over the operations per root name.
func (t *tracer) layerTimes(from int) (self map[string]int64, calls map[string]int, pass map[string]string, total map[string]int64) {
	spans := t.spans[from:]
	child := make([]int64, len(spans))
	root := make([]string, len(spans))
	total = make(map[string]int64)
	for i, s := range spans {
		if p := int(s.Parent) - from; p >= 0 {
			child[p] += s.End - s.Start
			root[i] = root[p]
		} else {
			root[i] = s.Name
			total[s.Name] += s.End - s.Start
		}
	}
	self = make(map[string]int64)
	calls = make(map[string]int)
	pass = make(map[string]string)
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - child[i]
		calls[s.Name]++
		pass[s.Name] = root[i]
	}
	return self, calls, pass, total
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(t.spans); err != nil {
		_ = f.Close() // the encode error is the one to report
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // likewise
		return err
	}
	return f.Close()
}
