package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// names the span of the same op that caused this one ("" for the op itself).
// A live span was timed around the real call; a replayed span re-ran the
// call the op made (or a sample of such calls) after the timed phase and
// stands for Weight calls.
type span struct {
	Name   string
	Op     int64
	Parent string
	Start  time.Time
	End    time.Time
	Weight float64
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// layer is the module a span name belongs to: the text before the first dot.
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	if s.Weight == 0 {
		s.Weight = 1
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timeCall runs f and records it as a replayed span of the given op.
func (t *tracer) timeCall(name string, op int64, parent string, f func() error) error {
	start := time.Now()
	err := f()
	t.add(span{Name: name, Op: op, Parent: parent, Start: start, End: time.Now()})
	return err
}

// scale sets the weight of every span with the given name so that together
// they stand for calls calls: a sample of replays represents all the calls
// the timed phase made.
func (t *tracer) scale(name string, calls float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	for i := range t.spans {
		if t.spans[i].Name == name {
			t.spans[i].Weight = calls / float64(n)
		}
	}
}

// breakdown is the per-op accounting of one traced phase, in milliseconds.
type breakdown struct {
	// total is the weighted sum of each span name's durations per op.
	total map[string]float64
	// self is a name's total minus the totals of its children, the names
	// whose Parent it is. A parent's children run one after another, so
	// their durations add up to the part of its interval they cover.
	self map[string]float64
	// layers sums self per layer.
	layers map[string]float64
	// opMS is the mean op time: the total of the root span name.
	opMS float64
}

// account turns spans into per-op means. Weighted totals are used instead
// of per-span self times because replayed spans are a sample: their weight
// spreads the sample's mean over every call the phase made.
func account(spans []span, root string, ops int) breakdown {
	b := breakdown{total: map[string]float64{}, self: map[string]float64{}, layers: map[string]float64{}}
	if ops == 0 {
		return b
	}
	parent := map[string]string{}
	for _, s := range spans {
		b.total[s.Name] += ms(s.dur()) * s.Weight / float64(ops)
		parent[s.Name] = s.Parent
	}
	for name, v := range b.total {
		b.self[name] += v
		if p := parent[name]; p != "" {
			b.self[p] -= v
		}
	}
	for name, v := range b.self {
		b.layers[layer(name)] += v
	}
	b.opMS = b.total[root]
	return b
}

// reconcileErr is how far the layers' self times, each clamped at zero,
// miss the mean op time, as a share of it. Unclamped self times add up to
// the op time by construction; a replayed child that outlasts its parent
// shows up here as a negative self time that the clamp exposes.
func (b breakdown) reconcileErr() float64 {
	if b.opMS <= 0 {
		return 0
	}
	var sum float64
	for _, v := range b.layers {
		sum += max(v, 0)
	}
	d := sum - b.opMS
	if d < 0 {
		d = -d
	}
	return d / b.opMS
}

// writeSpans writes the spans as JSON lines, times in microseconds since
// the first span.
func writeSpans(path string, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t0 := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(map[string]any{
			"name": s.Name, "op": s.Op, "parent": s.Parent, "weight": s.Weight,
			"start_us": s.Start.Sub(t0).Microseconds(), "end_us": s.End.Sub(t0).Microseconds(),
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
