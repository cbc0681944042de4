// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7). Each experiment is a pure function from a Config
// to a text table; cmd/ptabench drives them, and bench_test.go at the module
// root wraps them in testing.B benchmarks. EXPERIMENTS.md records the
// paper-reported numbers next to ours.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/pta"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Scale multiplies the default (laptop-sized) workload sizes. 1.0
	// reproduces the shapes of the paper's figures in minutes; smaller
	// values give quicker, coarser runs.
	Scale float64
	// Seed drives dataset generation.
	Seed int64
	// Quick switches to tiny sizes for unit tests and smoke runs.
	Quick bool
	// Engine runs every facade compression of the suite (ptabench wires
	// its -parallel flag into it). nil falls back to a shared serial
	// engine, so tests and library callers need no setup.
	Engine *pta.Engine
}

// fallbackEngine serves configs without an explicit engine.
var fallbackEngine = sync.OnceValue(func() *pta.Engine {
	e, err := pta.New()
	if err != nil {
		panic(err)
	}
	return e
})

// engine resolves the evaluation engine of this configuration.
func (c Config) engine() *pta.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return fallbackEngine()
}

// compress routes one facade compression through the configured engine —
// the evaluation call site of the whole experiment suite but the arms that
// measure the paper's whole-series PTAc (fig18b, fig19, ablation, the
// parallel experiment's monolithic arm and the fill sweep, which also pins
// its row fills), which call internal/core directly.
func (c Config) compress(ctx context.Context, seq *pta.Series, strategy string, b pta.Budget, opts pta.Options) (*pta.Result, error) {
	return c.engine().Compress(ctx, seq, pta.Plan{Strategy: strategy, Budget: b, Options: &opts})
}

// scaled applies the scale factor with a floor.
func (c Config) scaled(n int) int {
	if c.Quick {
		n = n / 20
	}
	v := int(float64(n) * c.Scale)
	if v < 8 {
		v = 8
	}
	return v
}

// Table is an experiment outcome: a header, rows of formatted cells, and
// free-form notes (including the paper's reference numbers).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends one note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

// CSV renders the table as comma-separated values (quotes are not needed:
// cells are numeric or simple identifiers).
func (t *Table) CSV(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Header, ","))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Experiment is one reproducible table or figure. Run observes the context:
// canceling it aborts the experiment mid-evaluation.
type Experiment struct {
	ID    string
	Title string
	Run   func(context.Context, Config) (*Table, error)
}

var registry []Experiment

func register(id, title string, run func(context.Context, Config) (*Table, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every registered experiment sorted by id.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// timeIt measures fn's wall-clock time.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// fmtF formats a float compactly for table cells.
func fmtF(v float64) string {
	switch {
	case v != v:
		return "NaN"
	case v > 1e308 || v < -1e308:
		return "inf"
	case v == 0:
		return "0"
	case v >= 1e7 || v <= -1e7:
		return fmt.Sprintf("%.3e", v)
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// fmtDur formats a duration in milliseconds.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}
