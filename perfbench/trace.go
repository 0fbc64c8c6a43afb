package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer: a named interval on the tracer's
// monotonic clock, the span that caused it (-1 for a root), and the
// packet (or compile pass) it belongs to.
type span struct {
	name   uint16
	parent int32
	id     int64
	start  int64
	end    int64
}

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced replica runs the same code with only a nil check per span.
type tracer struct {
	epoch time.Time
	names []string
	index map[string]uint16
	spans []span

	// Totals over every folded batch of spans, indexed by name.
	self  []int64
	calls []int64
	// kept holds up to keep spans of the first folded batch for the span
	// file.
	kept []span
	keep int
	// inner is the duration an empty span records (about one clock read);
	// outer is the wall time a begin/end pair adds to its caller. fold
	// takes both out of the self times, so a layer's self time counts its
	// own work and not the tracer's.
	inner, outer int64
}

func newTracer(keep int) *tracer {
	t := &tracer{epoch: time.Now(), index: map[string]uint16{}, keep: keep}
	t.calibrate()
	return t
}

// calibrate measures the tracer's own cost per span: the median of
// several rounds of empty spans.
func (t *tracer) calibrate() {
	const n = 1 << 12
	name := t.name("trace.calibrate")
	var inner, outer []float64
	for round := 0; round < 9; round++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			t.end(t.begin(name, -1, 0))
		}
		outer = append(outer, float64(since(t0))/n)
		var sum int64
		for _, s := range t.spans {
			sum += s.end - s.start
		}
		inner = append(inner, float64(sum)/n)
		t.spans = t.spans[:0]
	}
	t.inner, t.outer = int64(median(inner)), int64(median(outer))
}

// name interns a span name.
func (t *tracer) name(s string) uint16 {
	if i, ok := t.index[s]; ok {
		return i
	}
	i := uint16(len(t.names))
	t.index[s] = i
	t.names = append(t.names, s)
	t.self = append(t.self, 0)
	t.calls = append(t.calls, 0)
	return i
}

func (t *tracer) begin(name uint16, parent int32, id int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, id: id})
	i := len(t.spans) - 1
	t.spans[i].start = int64(time.Since(t.epoch))
	return int32(i)
}

func (t *tracer) end(s int32) {
	if t == nil {
		return
	}
	t.spans[s].end = int64(time.Since(t.epoch))
}

// fold adds the buffered spans' self times (duration minus the duration
// of direct children, both less the tracer's own cost) to the totals and
// empties the buffer.
func (t *tracer) fold() {
	for _, s := range t.spans {
		d := max(s.end-s.start-t.inner, 0)
		t.self[s.name] += d
		t.calls[s.name]++
		if s.parent >= 0 {
			t.self[t.spans[s.parent].name] -= d + t.outer - t.inner
		}
	}
	if t.kept == nil && t.keep > 0 {
		t.kept = append([]span{}, t.spans[:min(t.keep, len(t.spans))]...)
	}
	t.spans = t.spans[:0]
}

// selfNs and count return a name's folded totals (0 when never seen).
func (t *tracer) selfNs(name string) int64 {
	if i, ok := t.index[name]; ok {
		return t.self[i]
	}
	return 0
}

func (t *tracer) count(name string) int64 {
	if i, ok := t.index[name]; ok {
		return t.calls[i]
	}
	return 0
}

// write stores the kept spans (the start of the first folded batch, so a
// kept span's parent indexes the kept list) as JSON lines, after one line
// with the run's environment stamp.
func (t *tracer) write(dir string, cfg config) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(envStamp(cfg))
	for i, s := range t.kept {
		if err != nil {
			break
		}
		err = enc.Encode(struct {
			Span   int    `json:"span"`
			Name   string `json:"name"`
			Parent int32  `json:"parent"`
			ID     int64  `json:"id"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, t.names[s.name], s.parent, s.id, s.start, s.end})
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
