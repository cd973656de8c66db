package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer seam. Times are offsets from the
// tracer's epoch; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workload code calls it
// unconditionally.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return id
}

// end closes the span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerOf maps a span name ("fl.fold") to its layer ("fl").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time: for every span, its duration
// minus the part of its interval covered by its children (concurrent
// children are merged, so overlap is not subtracted twice), summed per
// layer. Spans of one layer that run concurrently each contribute their
// own self time, so a layer's sum can exceed wall time.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
		out[layerOf(s.Name)] += time.Duration(self)
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// spanStats sums durations and counts spans by name.
func spanStats(spans []span) (total map[string]time.Duration, count map[string]int) {
	total, count = make(map[string]time.Duration), make(map[string]int)
	for _, s := range spans {
		total[s.Name] += time.Duration(s.End - s.Start)
		count[s.Name]++
	}
	return total, count
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
