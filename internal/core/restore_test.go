package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
	rows   []int    // SplitRow calls, by row
	ranges [][2]int // SplitRows calls, lo and hi
}

func (s *rowSource) SplitRow(k int) ([]int32, error) {
	s.rows = append(s.rows, k)
	if k < 1 || k*(s.n+1) > len(s.splits) {
		return nil, fmt.Errorf("row %d outside the snapshot", k)
	}
	return append([]int32(nil), s.splits[(k-1)*(s.n+1):k*(s.n+1)]...), nil
}

// rangeSource adds SplitRangeSource to rowSource, encoding rows the way a
// spill file stores them.
type rangeSource struct{ rowSource }

func (s *rangeSource) SplitRows(lo, hi int) ([][]byte, error) {
	s.ranges = append(s.ranges, [2]int{lo, hi})
	if lo < 1 || hi*(s.n+1) > len(s.splits) || lo > hi {
		return nil, fmt.Errorf("rows %d..%d outside the snapshot", lo, hi)
	}
	out := make([][]byte, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		var b []byte
		for _, j := range s.splits[(k-1)*(s.n+1) : k*(s.n+1)] {
			b = binary.LittleEndian.AppendUint32(b, uint32(j))
		}
		out = append(out, b)
	}
	return out, nil
}

// pathSource adds SplitPathSource and ResumeRowSource to rangeSource: it
// walks a budget's path through the rows on each call, serves the resume
// row it holds, and records both calls. bad, when set, edits every path it
// serves.
type pathSource struct {
	rangeSource
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

// TestSolverLazyReadsAndMemBytes: a range source is read once per walk and
// only for the rows that walk adds, the answers and the final state match a
// cold solver's, and MemBytes counts resident rows only — for a range
// source and for a SplitRow-only one alike.
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

	ranged := &rangeSource{rowSource{n: n, splits: st.Splits}}
	plain := &rowSource{n: n, splits: st.Splits}
	for _, src := range []SplitRowSource{ranged, plain} {
		name := reflect.TypeOf(src).String()
		ref, err := NewSolver(seq, Options{}, true, true)
		if err != nil {
			t.Fatal(err)
		}
		sv := restoreLazy(t, seq, st, src)
		if got := sv.MemBytes(); got != scalar {
			t.Errorf("%s: fresh lazy MemBytes = %d, want the scalar state's %d", name, got, scalar)
		}
		resident := 0
		for _, step := range []struct {
			c    int
			read [2]int // rows a range source must be asked for; {0, 0} = none
		}{
			{8, [2]int{1, 8}},
			{8, [2]int{}},
			{5, [2]int{}},
			{10, [2]int{9, 10}},
			{filled + 3, [2]int{11, filled}}, // deeper than the restore: rows 13..15 are filled
		} {
			before := len(ranged.ranges)
			got, err := sv.SolveSize(ctx, step.c)
			if err != nil {
				t.Fatalf("%s: SolveSize(%d): %v", name, step.c, err)
			}
			want, err := ref.SolveSize(ctx, step.c)
			if err != nil {
				t.Fatal(err)
			}
			if got.C != want.C || got.Error != want.Error || !got.Sequence.Equal(want.Sequence, 0) {
				t.Fatalf("%s: lazy SolveSize(%d) differs from a cold solver's", name, step.c)
			}
			if src == ranged {
				calls := ranged.ranges[before:]
				switch {
				case step.read == [2]int{} && len(calls) != 0:
					t.Errorf("c=%d: %d range reads %v, want none", step.c, len(calls), calls)
				case step.read != [2]int{} && (len(calls) != 1 || calls[0] != step.read):
					t.Errorf("c=%d: range reads %v, want one of rows %v", step.c, calls, step.read)
				}
			}
			resident = max(resident, step.c)
			if got, want := sv.MemBytes(), scalar+int64(resident)*rowBytes; got != want {
				t.Errorf("%s: MemBytes after c=%d = %d, want %d", name, step.c, got, want)
			}
		}
		if src == ranged && len(ranged.rows) != 0 {
			t.Errorf("range source answered %d SplitRow calls on the walk path", len(ranged.rows))
		}
		if src == plain && len(plain.rows) != filled {
			t.Errorf("row source read %d rows, want each of %d once", len(plain.rows), filled)
		}
		// State decodes the raw rows and equals the cold solver's state.
		got, err := sv.State()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.State()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: State after lazy answers differs from a cold solver's", name)
		}
	}
}

// TestSolverLazyStateReadsUnreadRows: State reads the rows no walk has read
// through SplitRow, keeps the raw prefix as it is, and a later walk reads
// nothing.
func TestSolverLazyStateReadsUnreadRows(t *testing.T) {
	seq := solverInput(t)
	st := warmState(t, seq, 6)
	src := &rangeSource{rowSource{n: seq.Len(), splits: st.Splits}}
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
	if want := []int{5, 6}; !reflect.DeepEqual(src.rows, want) {
		t.Errorf("State read rows %v through SplitRow, want %v", src.rows, want)
	}
	if _, err := sv.SolveSize(ctx, 6); err != nil {
		t.Fatal(err)
	}
	if len(src.ranges) != 1 || len(src.rows) != 2 {
		t.Errorf("walk after State read again: ranges %v, rows %v", src.ranges, src.rows)
	}
}

// TestSolverRejectsBadSplitPoints: a restored split point no fill writes
// never panics the backtrack. Restore rejects cells outside "J = 0 or
// k−1 ≤ J < i"; the walk rejects a visited cell outside k−1 ≤ j < i
// (j = 0 at k = 1) as a WarmLostError — on the eager, the range-read and
// the SplitRow path alike.
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
		name        string
		k           int
		j           int32
		restoreFail bool // Restore's cell check rejects it outright
	}{
		{"at its column", c, int32(n), true},
		{"past its column", c, int32(n + 3), true},
		{"below k-1", c, c - 2, true},
		{"negative", c, -1, true},
		{"zero at a visited cell", c, 0, false},
		{"nonzero in row 1", 1, int32(visit[1] - 1), false},
	} {
		bad := *st
		bad.Splits = append([]int32(nil), st.Splits...)
		bad.Splits[(tc.k-1)*(n+1)+visit[tc.k]] = tc.j

		eager, err := NewSolver(seq, Options{}, true, true)
		if err != nil {
			t.Fatal(err)
		}
		err = eager.Restore(&bad)
		if tc.restoreFail != (err != nil) {
			t.Errorf("%s: Restore error = %v, want rejection %v", tc.name, err, tc.restoreFail)
		}
		if err == nil {
			_, err := eager.SolveSize(ctx, c)
			var lost *WarmLostError
			if !errors.As(err, &lost) {
				t.Errorf("%s: eager SolveSize = %v, want a WarmLostError", tc.name, err)
			}
		}
		for _, src := range []SplitRowSource{
			&rangeSource{rowSource{n: n, splits: bad.Splits}},
			&rowSource{n: n, splits: bad.Splits},
		} {
			sv := restoreLazy(t, seq, &bad, src)
			for _, solve := range []func() (*DPResult, error){
				func() (*DPResult, error) { return sv.SolveSize(ctx, c) },
				func() (*DPResult, error) { return sv.SolveSize(ctx, c) }, // a retry fails the same way
			} {
				_, err := solve()
				var lost *WarmLostError
				if !errors.As(err, &lost) {
					t.Errorf("%s via %T: SolveSize = %v, want a WarmLostError", tc.name, src, err)
				}
			}
		}
	}
}

// TestFillSplitRowsPassRestoreCheck: every J row every fill writes passes
// checkSplitRow, so the stricter Restore and SplitRow checks never reject a
// genuine snapshot — across fills, pruning modes, gaps, groups and shapes.
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
// read; a budget past them reads the resume row once and the rows in one
// range, after which budgets within them walk resident rows. Answers and
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
	src := &pathSource{rangeSource: rangeSource{rowSource{n: n, splits: st.Splits}}, lastE: st.LastE}
	sv, err := restore(src)
	if err != nil {
		t.Fatal(err)
	}
	scalar := int64(3 * 8 * (n + 1))
	for _, step := range []struct {
		c       int
		path    bool // answered from a SplitPath call
		ranges  int  // range reads so far
		resumes int
	}{
		{8, true, 0, 0},
		{8, true, 0, 0},
		{5, true, 0, 0},
		{filled, true, 0, 0},
		{filled + 3, false, 1, 1}, // fills rows 13..15, reads rows 1..12
		{8, false, 1, 1},
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
		if len(src.ranges) != step.ranges || src.resumes != step.resumes || len(src.rows) != 0 {
			t.Errorf("c=%d: %d range reads, %d resume reads, %d row reads, want %d, %d, 0",
				step.c, len(src.ranges), src.resumes, len(src.rows), step.ranges, step.resumes)
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
		sv, err := restore(&pathSource{rangeSource: src.rangeSource, lastE: st.LastE, bad: bad})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sv.SolveSize(ctx, 8); !errors.As(err, &lost) {
			t.Errorf("path %s: SolveSize = %v, want a WarmLostError", name, err)
		}
	}
	nan := append([]float64(nil), st.LastE...)
	nan[n/2] = math.NaN()
	sv, err = restore(&pathSource{rangeSource: src.rangeSource, lastE: nan})
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
	if _, err := restore(&src.rangeSource); err == nil {
		t.Error("RestoreLazy took a snapshot without a resume row from a source that serves none")
	}
}
