package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

func quickConfig() Config { return Config{Scale: 1, Seed: 7, Quick: true} }

// goldenFile holds the paper's tables at quickConfig, as printed by
//
//	go run ./cmd/ptabench -all -quick -seed 7 -json > internal/experiments/testdata/quick_seed7.json
//
// A change that moves a deterministic cell commits the regenerated file
// with it.
const goldenFile = "testdata/quick_seed7.json"

// goldenRelTol bounds the relative difference of a non-integer numeric
// cell from its golden value. fmtF prints four significant digits, so one
// unit in the last printed digit is at most 1e-3 of the value.
const goldenRelTol = 1e-3

// goldenTables reads goldenFile, keyed by table id.
func goldenTables(t *testing.T) map[string]*Table {
	t.Helper()
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var tabs []*Table
	if err := json.Unmarshal(raw, &tabs); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	byID := map[string]*Table{}
	for _, tab := range tabs {
		byID[tab.ID] = tab
	}
	return byID
}

// timingColumn reports whether a column holds a wall time or a ratio of
// wall times, which no golden file can pin.
func timingColumn(name string) bool {
	return name == "ms" || strings.HasSuffix(name, "_ms") || name == "speedup" || name == "vs_pruned"
}

// approxCell compares one golden cell: text and integers exactly, other
// numbers within goldenRelTol of the golden value.
func approxCell(got, want string) bool {
	if got == want {
		return true
	}
	if _, err := strconv.ParseInt(want, 10, 64); err == nil {
		return false
	}
	g, err1 := strconv.ParseFloat(got, 64)
	w, err2 := strconv.ParseFloat(want, 64)
	if err1 != nil || err2 != nil || math.IsInf(w, 0) || math.IsNaN(w) {
		return false
	}
	return math.Abs(g-w) <= goldenRelTol*math.Max(math.Abs(g), math.Abs(w))
}

// checkGolden holds a table to its golden counterpart: same header, same
// row count, every cell outside the timing columns (and multibudget's
// "total ms" row) equal under approxCell.
func checkGolden(t *testing.T, got, want *Table) {
	t.Helper()
	if strings.Join(got.Header, "|") != strings.Join(want.Header, "|") {
		t.Fatalf("header %q, golden %q", got.Header, want.Header)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d rows, golden %d", len(got.Rows), len(want.Rows))
	}
	for i, row := range want.Rows {
		if got.ID == "multibudget" && row[0] == "total ms" {
			continue
		}
		for c, name := range want.Header {
			if !timingColumn(name) && !approxCell(got.Rows[i][c], row[c]) {
				t.Errorf("row %d (%s) %s = %q, golden %q", i, row[0], name, got.Rows[i][c], row[c])
			}
		}
	}
}

// TestAllExperimentsRunQuick runs every registered experiment at Quick
// scale: it must succeed, produce a well-formed table that renders, and
// match the golden tables of goldenFile.
func TestAllExperimentsRunQuick(t *testing.T) {
	exps := All()
	if len(exps) < 15 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	golden := goldenTables(t)
	if len(golden) != len(exps) {
		t.Errorf("%d golden tables, %d experiments registered", len(golden), len(exps))
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(context.Background(), quickConfig())
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if tab.ID != e.ID {
				t.Errorf("table id %q, want %q", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Error("no rows")
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(row), len(tab.Header))
				}
			}
			if want, ok := golden[e.ID]; !ok {
				t.Errorf("no golden table %q in %s", e.ID, goldenFile)
			} else {
				checkGolden(t, tab, want)
			}
			var buf bytes.Buffer
			if err := tab.Format(&buf); err != nil {
				t.Errorf("Format: %v", err)
			}
			if !strings.Contains(buf.String(), e.ID) {
				t.Error("formatted output lacks the id")
			}
			buf.Reset()
			if err := tab.CSV(&buf); err != nil {
				t.Errorf("CSV: %v", err)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig15"); !ok {
		t.Error("fig15 should exist")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("nope should not exist")
	}
}

func TestWorkloadsUnknownName(t *testing.T) {
	if _, err := Workloads(quickConfig(), "Z9"); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestWorkloadShapes(t *testing.T) {
	ws, err := Workloads(quickConfig(), "E1", "E4", "I1", "T1", "T3", "S2")
	if err != nil {
		t.Fatalf("Workloads: %v", err)
	}
	byName := map[string]Workload{}
	for _, w := range ws {
		byName[w.Name] = w
		if err := w.Seq.Validate(); err != nil {
			t.Errorf("%s: invalid sequence: %v", w.Name, err)
		}
	}
	if byName["E1"].Seq.CMin() != 1 {
		t.Errorf("E1 cmin = %d, want 1", byName["E1"].Seq.CMin())
	}
	if byName["E4"].Seq.Len() <= byName["E4"].InputSize {
		t.Errorf("E4 ITA size %d should exceed input %d", byName["E4"].Seq.Len(), byName["E4"].InputSize)
	}
	if byName["T3"].Seq.P() != 12 {
		t.Errorf("T3 dims = %d, want 12", byName["T3"].Seq.P())
	}
	if byName["S2"].Seq.Groups.Len() < 2 {
		t.Error("S2 should be grouped")
	}
}

// TestFig14aErrorsAreMonotone: within one query column, the error grows
// with the reduction ratio.
func TestFig14aErrorsAreMonotone(t *testing.T) {
	tab, err := ByIDMust("fig14a").Run(context.Background(), quickConfig())
	if err != nil {
		t.Fatalf("fig14a: %v", err)
	}
	cols := len(tab.Header)
	for c := 1; c < cols; c++ {
		prev := -1.0
		for _, row := range tab.Rows {
			if row[c] == "-" {
				continue
			}
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				t.Fatalf("cell %q: %v", row[c], err)
			}
			if v+1e-6 < prev {
				t.Errorf("column %s not monotone: %v after %v", tab.Header[c], v, prev)
			}
			prev = v
		}
	}
}

// TestFig16GPTAcNearOne: the gPTAc column must stay close to the optimum
// (the paper's headline claim).
func TestFig16GPTAcNearOne(t *testing.T) {
	tab, err := ByIDMust("fig16").Run(context.Background(), quickConfig())
	if err != nil {
		t.Fatalf("fig16: %v", err)
	}
	for _, row := range tab.Rows {
		cell := row[1]
		if cell == "n/a" {
			continue
		}
		mean, _, ok := strings.Cut(cell, "±")
		if !ok {
			t.Fatalf("cell %q not mean±err", cell)
		}
		v, err := strconv.ParseFloat(mean, 64)
		if err != nil {
			t.Fatalf("cell %q: %v", cell, err)
		}
		if v < 0.5 || v > 3 {
			t.Errorf("%s: gPTAc average ratio %v outside a plausible range", row[0], v)
		}
	}
}

func ByIDMust(id string) Experiment {
	e, ok := ByID(id)
	if !ok {
		panic("missing experiment " + id)
	}
	return e
}
