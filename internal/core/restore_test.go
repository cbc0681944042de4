package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
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
