package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program, or one
// replayed layer call. Parent indexes the enclosing span (-1 for none);
// Read is the read the call served (-1 for none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Read   int    `json:"read"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced phases run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span whose end is not known yet and returns its index.
func (t *tracer) begin(name string, start time.Time, read int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: -1, Parent: -1, Read: read})
	return len(t.spans) - 1
}

// end closes a span begin opened.
func (t *tracer) end(idx int, end time.Time) {
	if t == nil || idx < 0 {
		return
	}
	t.mu.Lock()
	t.spans[idx].End = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// span records a closed span and returns its index.
func (t *tracer) span(name string, start, end time.Time, parent, read int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Parent: parent, Read: read,
	})
	return len(t.spans) - 1
}

// selfTimes sums each span name's self time: its duration minus the part
// covered by its children (children of one span do not overlap here, as
// one goroutine makes them in sequence).
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] += time.Duration(s.End - s.Start - child[i])
		}
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
