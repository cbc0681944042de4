package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/temporal"
)

// rowSource is a SplitRowSource over row-major split rows in memory that
// records every call.
type rowSource struct {
	n      int
	splits []int32
	rows   []int // SplitRow calls, by row
}

func (s *rowSource) SplitRow(k int) ([]int32, error) {
	s.rows = append(s.rows, k)
	if k < 1 || k*(s.n+1) > len(s.splits) {
		return nil, fmt.Errorf("row %d outside the snapshot", k)
	}
	return append([]int32(nil), s.splits[(k-1)*(s.n+1):k*(s.n+1)]...), nil
}

// pathSource adds SplitPathSource and ResumeRowSource to rowSource: it
// walks a budget's path through the rows on each call, serves the resume
// row it holds, and records both calls. bad, when set, edits every path it
// serves.
type pathSource struct {
	rowSource
	lastE   []float64
	paths   []int // SplitPath calls, by budget
	resumes int   // ResumeRow calls
	bad     func([]int32) []int32
}

func (s *pathSource) SplitPath(k int) ([]int32, error) {
	s.paths = append(s.paths, k)
	path := make([]int32, k)
	i := s.n
	for t := range path {
		path[t] = s.splits[(k-t-1)*(s.n+1)+i]
		i = int(path[t])
	}
	if s.bad != nil {
		path = s.bad(path)
	}
	return path, nil
}

func (s *pathSource) ResumeRow() ([]float64, error) {
	s.resumes++
	return append([]float64(nil), s.lastE...), nil
}

// warmState fills a solver over seq to row c and returns its state.
func warmState(t *testing.T, seq *temporal.Sequence, c int) *SolverState {
	t.Helper()
	sv, err := NewSolver(seq, Options{}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.Deepen(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	st, err := sv.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// restoreLazy builds a fresh solver over seq and restores st lazily from src.
func restoreLazy(t *testing.T, seq *temporal.Sequence, st *SolverState, src SplitRowSource) *Solver {
	t.Helper()
	sv, err := NewSolver(seq, Options{}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	hollow := *st
	hollow.Splits = nil
	if err := sv.RestoreLazy(&hollow, src); err != nil {
		t.Fatal(err)
	}
	return sv
}

// TestSolverLazyReadsAndMemBytes: a walk reads each restored row it adds
// with one SplitRow call and no row twice, the answers and the final state
// match a cold solver's, and MemBytes counts resident rows only.
func TestSolverLazyReadsAndMemBytes(t *testing.T) {
	seq, err := dataset.Uniform(3, 40, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n := seq.Len()
	const filled = 12
	st := warmState(t, seq, filled)
	rowBytes := int64(4 * (n + 1))
	scalar := int64(3 * 8 * (n + 1))

	src := &rowSource{n: n, splits: st.Splits}
	ref, err := NewSolver(seq, Options{}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	sv := restoreLazy(t, seq, st, src)
	if got := sv.MemBytes(); got != scalar {
		t.Errorf("fresh lazy MemBytes = %d, want the scalar state's %d", got, scalar)
	}
	resident := 0
	for _, step := range []struct {
		c    int
		read [2]int // rows the walk must read, one SplitRow call each; {0, 0} = none
	}{
		{8, [2]int{1, 8}},
		{8, [2]int{}},
		{5, [2]int{}},
		{10, [2]int{9, 10}},
		{filled + 3, [2]int{11, filled}}, // deeper than the restore: rows 13..15 are filled
	} {
		before := len(src.rows)
		got, err := sv.SolveSize(ctx, step.c)
		if err != nil {
			t.Fatalf("SolveSize(%d): %v", step.c, err)
		}
		want, err := ref.SolveSize(ctx, step.c)
		if err != nil {
			t.Fatal(err)
		}
		if got.C != want.C || got.Error != want.Error || !got.Sequence.Equal(want.Sequence, 0) {
			t.Fatalf("lazy SolveSize(%d) differs from a cold solver's", step.c)
		}
		var wantRows []int
		for r := step.read[0]; r >= 1 && r <= step.read[1]; r++ {
			wantRows = append(wantRows, r)
		}
		if calls := src.rows[before:]; !slices.Equal(calls, wantRows) {
			t.Errorf("c=%d: SplitRow calls %v, want %v", step.c, calls, wantRows)
		}
		resident = max(resident, step.c)
		if got, want := sv.MemBytes(), scalar+int64(resident)*rowBytes; got != want {
			t.Errorf("MemBytes after c=%d = %d, want %d", step.c, got, want)
		}
	}
	if len(src.rows) != filled {
		t.Errorf("row source read %d rows, want each of %d once", len(src.rows), filled)
	}
	got, err := sv.State()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.State()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("State after lazy answers differs from a cold solver's")
	}
}

// TestSolverLazyStateReadsUnreadRows: State reads the rows no walk has read
// through SplitRow, and a later walk reads nothing.
func TestSolverLazyStateReadsUnreadRows(t *testing.T) {
	seq := solverInput(t)
	st := warmState(t, seq, 6)
	src := &rowSource{n: seq.Len(), splits: st.Splits}
	sv := restoreLazy(t, seq, st, src)
	ctx := context.Background()
	if _, err := sv.SolveSize(ctx, 4); err != nil {
		t.Fatal(err)
	}
	got, err := sv.State()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Error("State of a partly read lazy solver differs from the snapshot")
	}
	if want := []int{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(src.rows, want) {
		t.Errorf("walk and State read rows %v through SplitRow, want %v", src.rows, want)
	}
	if _, err := sv.SolveSize(ctx, 6); err != nil {
		t.Fatal(err)
	}
	if len(src.rows) != 6 {
		t.Errorf("walk after State read again: rows %v", src.rows)
	}
}

// TestSolverRejectsBadSplitPoints: a restored split point no fill writes
// never panics the backtrack. The read of its row rejects a cell outside
// "J = 0 or k−1 ≤ J < i"; the walk rejects a visited cell outside
// k−1 ≤ j < i (j = 0 at k = 1). Both are a WarmLostError, and a retry fails
// the same way.
func TestSolverRejectsBadSplitPoints(t *testing.T) {
	seq := solverInput(t) // the proj example, n = 7, cmin = 3
	const c = 4
	n := seq.Len()
	st := warmState(t, seq, c)
	// visit[k] is the column the c walk reads in row k.
	visit := make([]int, c+1)
	visit[c] = n
	for k := c; k >= 2; k-- {
		visit[k-1] = int(st.Splits[(k-1)*(n+1)+visit[k]])
	}
	if visit[1] < 2 {
		t.Fatalf("walk reaches row 1 at column %d; the row-1 case needs one ≥ 2", visit[1])
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		k    int
		j    int32
	}{
		{"at its column", c, int32(n)},
		{"past its column", c, int32(n + 3)},
		{"below k-1", c, c - 2},
		{"negative", c, -1},
		{"zero at a visited cell", c, 0},
		{"nonzero in row 1", 1, int32(visit[1] - 1)},
	} {
		bad := *st
		bad.Splits = append([]int32(nil), st.Splits...)
		bad.Splits[(tc.k-1)*(n+1)+visit[tc.k]] = tc.j
		sv := restoreLazy(t, seq, &bad, &rowSource{n: n, splits: bad.Splits})
		for range 2 {
			_, err := sv.SolveSize(ctx, c)
			var lost *WarmLostError
			if !errors.As(err, &lost) {
				t.Errorf("%s: SolveSize = %v, want a WarmLostError", tc.name, err)
			}
		}
	}
}

// TestFillSplitRowsPassRestoreCheck: every J row every fill writes passes
// checkSplitRow, so the check of each restored row never rejects a genuine
// snapshot — across fills, pruning modes, gaps, groups and shapes.
func TestFillSplitRowsPassRestoreCheck(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var seq *temporal.Sequence
		switch rng.Intn(3) {
		case 0:
			seq = randomSequence(rng, 2+rng.Intn(60), 1+rng.Intn(3), rng.Float64()*0.3)
		case 1:
			seq = monotoneSequence(rng, 2+rng.Intn(60), 1+rng.Intn(2), rng.Float64()*0.2)
		default:
			seq = mixedSequence(rng, 2+rng.Intn(4), 1+rng.Intn(2), rng.Float64()*0.3)
		}
		kn, err := NewKernel(seq, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []FillAlgo{FillPruned, FillDC} {
			for _, flags := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
				_, jm := fillMatrices(t, kn, Options{Fill: algo}, flags[0], flags[1], seq.Len())
				for k, row := range jm {
					if err := checkSplitRow(k+1, row); err != nil {
						t.Logf("seed=%d n=%d fill=%v prune=%v: %v", seed, seq.Len(), algo, flags, err)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSolverLazyPathsAndResume: a source that serves split paths answers
// every budget within the restored rows with one SplitPath call and no row
// read; a budget past them reads the resume row once and each row once,
// after which budgets within them walk resident rows. Answers and
// the final state match a cold solver's. A path no fill writes and a
// resume row no fill writes are WarmLostErrors, and a snapshot without a
// resume row needs a source that serves one.
func TestSolverLazyPathsAndResume(t *testing.T) {
	seq, err := dataset.Uniform(3, 40, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n := seq.Len()
	const filled = 12
	st := warmState(t, seq, filled)
	hollow := *st
	hollow.Splits, hollow.LastE = nil, nil
	restore := func(src SplitRowSource) (*Solver, error) {
		sv, err := NewSolver(seq, Options{}, true, true)
		if err != nil {
			t.Fatal(err)
		}
		return sv, sv.RestoreLazy(&hollow, src)
	}
	ref, err := NewSolver(seq, Options{}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	src := &pathSource{rowSource: rowSource{n: n, splits: st.Splits}, lastE: st.LastE}
	sv, err := restore(src)
	if err != nil {
		t.Fatal(err)
	}
	scalar := int64(3 * 8 * (n + 1))
	for _, step := range []struct {
		c       int
		path    bool // answered from a SplitPath call
		rows    int  // row reads so far
		resumes int
	}{
		{8, true, 0, 0},
		{8, true, 0, 0},
		{5, true, 0, 0},
		{filled, true, 0, 0},
		{filled + 3, false, filled, 1}, // fills rows 13..15, reads rows 1..12
		{8, false, filled, 1},
	} {
		paths := len(src.paths)
		got, err := sv.SolveSize(ctx, step.c)
		if err != nil {
			t.Fatalf("SolveSize(%d): %v", step.c, err)
		}
		want, err := ref.SolveSize(ctx, step.c)
		if err != nil {
			t.Fatal(err)
		}
		if got.C != want.C || got.Error != want.Error || !got.Sequence.Equal(want.Sequence, 0) {
			t.Fatalf("lazy SolveSize(%d) differs from a cold solver's", step.c)
		}
		if read := len(src.paths) - paths; read != map[bool]int{true: 1}[step.path] {
			t.Errorf("c=%d: %d SplitPath calls, want path=%v", step.c, read, step.path)
		}
		if len(src.rows) != step.rows || src.resumes != step.resumes {
			t.Errorf("c=%d: %d row reads, %d resume reads, want %d, %d",
				step.c, len(src.rows), src.resumes, step.rows, step.resumes)
		}
		if step.path && sv.MemBytes() != scalar {
			t.Errorf("c=%d: MemBytes %d after a path walk, want the scalar state's %d", step.c, sv.MemBytes(), scalar)
		}
	}
	gotSt, err := sv.State()
	if err != nil {
		t.Fatal(err)
	}
	wantSt, err := ref.State()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Error("State after path answers and a resumed fill differs from a cold solver's")
	}

	var lost *WarmLostError
	for name, bad := range map[string]func([]int32) []int32{
		"at its column": func(p []int32) []int32 { p[0] = int32(n); return p },
		"below k-1":     func(p []int32) []int32 { p[0] = 0; return p },
		"short":         func(p []int32) []int32 { return p[1:] },
	} {
		sv, err := restore(&pathSource{rowSource: src.rowSource, lastE: st.LastE, bad: bad})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sv.SolveSize(ctx, 8); !errors.As(err, &lost) {
			t.Errorf("path %s: SolveSize = %v, want a WarmLostError", name, err)
		}
	}
	nan := append([]float64(nil), st.LastE...)
	nan[n/2] = math.NaN()
	sv, err = restore(&pathSource{rowSource: src.rowSource, lastE: nan})
	if err != nil {
		t.Fatalf("RestoreLazy read the resume row: %v", err)
	}
	if _, err := sv.SolveSize(ctx, filled); err != nil {
		t.Errorf("a path answer read the resume row: %v", err)
	}
	if _, err := sv.SolveSize(ctx, filled+1); !errors.As(err, &lost) || lost.Row != filled {
		t.Errorf("fill from a NaN resume cell: %v, want a WarmLostError at row %d", err, filled)
	}
	if _, err := sv.State(); !errors.As(err, &lost) {
		t.Errorf("State over a NaN resume cell: %v, want a WarmLostError", err)
	}
	if _, err := restore(&src.rowSource); err == nil {
		t.Error("RestoreLazy took a snapshot without a resume row from a source that serves none")
	}
}
