// Package obs is a dependency-free metrics subsystem for the serving tier:
// counters, gauges and histograms with Prometheus text-format 0.0.4
// exposition. The hot path is lock-free — Inc/Add/Set/Observe are a handful
// of atomic operations, no mutexes, no allocations — so instrumenting the
// allocation-free serve codec does not reintroduce per-request allocations.
// Locks exist only at registration time and while a scrape renders the
// exposition text.
//
// The registry renders families in registration order, one family per
// metric name; Lint (lint.go) is a promtool-style validator used by the CI
// test over ptaserve's /metrics output.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one exposition family: it appends its complete HELP/TYPE/sample
// block to b. Implementations must tolerate concurrent hot-path updates
// while writing (all sample reads are atomic loads).
type metric interface {
	metricName() string
	write(b *[]byte)
}

// Registry owns an ordered set of metric families with unique names.
// Constructors panic on invalid or duplicate names — registration is
// wiring-time code, and a bad metric name is a programming error, not a
// runtime condition.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := m.metricName()
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	r.byName[name] = struct{}{}
	r.metrics = append(r.metrics, m)
}

// WritePrometheus renders every registered family in text format 0.0.4.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	b := make([]byte, 0, 4096)
	for _, m := range metrics {
		m.write(&b)
	}
	_, err := w.Write(b)
	return err
}

// ContentType is the exposition content type of WritePrometheus.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the exposition over HTTP (GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w)
	})
}

// validName reports whether s is a legal metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally must not use ':', checked by
// validLabel).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabel(s string) bool {
	return validName(s) && !strings.Contains(s, ":") && !strings.HasPrefix(s, "__")
}

// header appends the # HELP / # TYPE comment block of one family.
func header(b *[]byte, name, help, typ string) {
	*b = append(*b, "# HELP "...)
	*b = append(*b, name...)
	*b = append(*b, ' ')
	*b = appendEscapedHelp(*b, help)
	*b = append(*b, "\n# TYPE "...)
	*b = append(*b, name...)
	*b = append(*b, ' ')
	*b = append(*b, typ...)
	*b = append(*b, '\n')
}

// appendEscapedHelp escapes backslash and newline per the text format.
func appendEscapedHelp(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return b
}

// appendLabelValue escapes backslash, quote and newline inside a quoted
// label value.
func appendLabelValue(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return append(b, '"')
}

// appendLabels appends {k1="v1",k2="v2"} (nothing when empty).
func appendLabels(b []byte, names, values []string) []byte {
	if len(names) == 0 {
		return b
	}
	b = append(b, '{')
	for i, n := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, n...)
		b = append(b, '=')
		b = appendLabelValue(b, values[i])
	}
	return append(b, '}')
}

func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// --- Counter ---

// Counter is a monotonically increasing value. The zero value is unusable;
// create counters through a Registry so exposition metadata exists.
type Counter struct {
	v atomic.Uint64

	name   string
	help   string
	labels []string // nil for a plain counter
	values []string
}

// NewCounter registers a plain (label-free) counter. By Prometheus
// convention the name should end in _total.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n ≥ 0; counters never go down).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) write(b *[]byte) {
	header(b, c.name, c.help, "counter")
	c.writeSample(b)
}

func (c *Counter) writeSample(b *[]byte) {
	*b = append(*b, c.name...)
	*b = appendLabels(*b, c.labels, c.values)
	*b = append(*b, ' ')
	*b = strconv.AppendUint(*b, c.v.Load(), 10)
	*b = append(*b, '\n')
}

// CounterFunc is a counter whose value is computed at scrape time — the
// bridge for subsystems that already keep their own atomic counters (the
// matrix cache's hit/miss/eviction counts).
type CounterFunc struct {
	name, help string
	fn         func() float64
}

// NewCounterFunc registers a scrape-time counter. fn must be safe for
// concurrent calls and monotone non-decreasing.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) *CounterFunc {
	c := &CounterFunc{name: name, help: help, fn: fn}
	r.register(c)
	return c
}

func (c *CounterFunc) metricName() string { return c.name }

func (c *CounterFunc) write(b *[]byte) {
	header(b, c.name, c.help, "counter")
	*b = append(*b, c.name...)
	*b = append(*b, ' ')
	*b = appendFloat(*b, c.fn())
	*b = append(*b, '\n')
}

// --- GaugeFunc ---

// GaugeFunc is a gauge computed at scrape time (pool depths, uptimes,
// footprints owned elsewhere).
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// NewGaugeFunc registers a scrape-time gauge. fn must be safe for
// concurrent calls.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, fn: fn}
	r.register(g)
	return g
}

func (g *GaugeFunc) metricName() string { return g.name }

func (g *GaugeFunc) write(b *[]byte) {
	header(b, g.name, g.help, "gauge")
	*b = append(*b, g.name...)
	*b = append(*b, ' ')
	*b = appendFloat(*b, g.fn())
	*b = append(*b, '\n')
}

// --- CounterVec ---

// CounterVec is a family of counters distinguished by label values. With
// takes the family lock, so hot paths resolve children once and keep the
// *Counter (its Inc is lock-free); see internal/serve's per-endpoint status
// tables.
type CounterVec struct {
	name, help string
	labels     []string

	mu       sync.Mutex
	children map[string]*Counter
	order    []string // insertion order for stable exposition
}

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	v := &CounterVec{name: name, help: help, labels: labels, children: make(map[string]*Counter)}
	r.register(v)
	return v
}

// With returns the child for the given label values (created on first use).
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c
	}
	c := &Counter{name: v.name, help: v.help, labels: v.labels, values: append([]string(nil), values...)}
	v.children[key] = c
	v.order = append(v.order, key)
	return c
}

func (v *CounterVec) metricName() string { return v.name }

func (v *CounterVec) write(b *[]byte) {
	header(b, v.name, v.help, "counter")
	v.mu.Lock()
	children := make([]*Counter, len(v.order))
	for i, key := range v.order {
		children[i] = v.children[key]
	}
	v.mu.Unlock()
	sort.Slice(children, func(i, j int) bool {
		return strings.Join(children[i].values, "\x00") < strings.Join(children[j].values, "\x00")
	})
	for _, c := range children {
		c.writeSample(b)
	}
}
