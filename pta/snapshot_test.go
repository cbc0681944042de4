package pta_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/pta"
)

// TestSnapshotRestoreRoundTrip: a restored set answers every budget the
// original answered bitwise-identically and with zero fill work, and can
// still fill deeper rows for budgets beyond the snapshot.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	seq := grouped(t)
	ctx := context.Background()
	warm, err := pta.NewMatrixSet(seq, "ptac", pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shallow := pta.Size(seq.Len() / 4)
	want, err := warm.Compress(ctx, shallow)
	if err != nil {
		t.Fatal(err)
	}

	snap, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Filled != warm.Rows() || snap.N != seq.Len() || snap.Class != warm.Class() {
		t.Fatalf("snapshot shape: %+v vs rows=%d", snap, warm.Rows())
	}

	cold, err := pta.RestoreMatrixSetLazy(seq, "ptac", pta.Options{}, snap, &memRowSource{n: snap.N, splits: snap.Splits})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Rows() != warm.Rows() {
		t.Fatalf("restored rows = %d, want %d", cold.Rows(), warm.Rows())
	}
	got, err := cold.Compress(ctx, shallow)
	if err != nil {
		t.Fatal(err)
	}
	if got.C != want.C || got.Error != want.Error {
		t.Errorf("restored answer (C=%d, E=%g) != original (C=%d, E=%g)", got.C, got.Error, want.C, want.Error)
	}
	if !got.Series.Equal(want.Series, 0) {
		t.Error("restored rows differ from original")
	}
	if got.Stats.Cells != 0 {
		t.Errorf("restored set filled %d cells on a warm budget, want 0", got.Stats.Cells)
	}

	// A deeper budget resumes the fill from the snapshot's last row and
	// matches a never-snapshotted set.
	deep := pta.Size(seq.Len() / 2)
	wantDeep, err := warm.Compress(ctx, deep)
	if err != nil {
		t.Fatal(err)
	}
	gotDeep, err := cold.Compress(ctx, deep)
	if err != nil {
		t.Fatal(err)
	}
	if gotDeep.C != wantDeep.C || math.Abs(gotDeep.Error-wantDeep.Error) > 0 {
		t.Errorf("deep resume (C=%d, E=%g) != fresh (C=%d, E=%g)",
			gotDeep.C, gotDeep.Error, wantDeep.C, wantDeep.Error)
	}
	if !gotDeep.Series.Equal(wantDeep.Series, 0) {
		t.Error("deep resume rows differ")
	}

	// Error budgets reuse the snapshot's SSEmax normalization.
	wantEps, err := warm.Compress(ctx, pta.ErrorBound(0.1))
	if err != nil {
		t.Fatal(err)
	}
	gotEps, err := cold.Compress(ctx, pta.ErrorBound(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if gotEps.C != wantEps.C || gotEps.Error != wantEps.Error {
		t.Errorf("eps budget (C=%d, E=%g) != (C=%d, E=%g)", gotEps.C, gotEps.Error, wantEps.C, wantEps.Error)
	}
}

// memRowSource is a SplitRowSource over an in-memory snapshot, with
// per-row failure injection and read accounting. A row its splits do not
// hold is an error.
type memRowSource struct {
	n      int
	splits []int32 // row-major, rows 1..filled
	failAt int     // SplitRow(failAt) errors; 0 = never
	reads  map[int]int
}

func (m *memRowSource) SplitRow(k int) ([]int32, error) {
	if m.reads == nil {
		m.reads = make(map[int]int)
	}
	m.reads[k]++
	if k == m.failAt || k < 1 || k*(m.n+1) > len(m.splits) {
		return nil, errRowGone
	}
	row := m.splits[(k-1)*(m.n+1) : k*(m.n+1)]
	return append([]int32(nil), row...), nil
}

var errRowGone = pta.ErrCanceled // any sentinel; identity checked via WarmLostError

// TestSnapshotRestoreLazy: a lazily restored set answers budgets bitwise
// identically with zero fill work, reads each row at most once, resumes
// deeper fills, and surfaces WarmLostError when the source fails mid-life.
func TestSnapshotRestoreLazy(t *testing.T) {
	seq := grouped(t)
	ctx := context.Background()
	warm, err := pta.NewMatrixSet(seq, "ptac", pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shallow := pta.Size(seq.Len() / 4)
	want, err := warm.Compress(ctx, shallow)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	src := &memRowSource{n: snap.N, splits: snap.Splits}
	hollow := *snap
	hollow.Splits = nil
	lazy, err := pta.RestoreMatrixSetLazy(seq, "ptac", pta.Options{}, &hollow, src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lazy.Compress(ctx, shallow)
	if err != nil {
		t.Fatal(err)
	}
	if got.C != want.C || got.Error != want.Error || !got.Series.Equal(want.Series, 0) {
		t.Errorf("lazy answer (C=%d, E=%g) != original (C=%d, E=%g)", got.C, got.Error, want.C, want.Error)
	}
	if got.Stats.Cells != 0 {
		t.Errorf("lazy set filled %d cells on a warm budget, want 0", got.Stats.Cells)
	}
	// Only rows 1..c were touched, once each; the rest stayed on "disk".
	for k, c := range src.reads {
		if c > 1 {
			t.Errorf("row %d read %d times, want at most once", k, c)
		}
		if k > want.C {
			t.Errorf("row %d read for a c=%d budget", k, want.C)
		}
	}
	// A deeper budget resumes the fill and matches the snapshotted set.
	deep := pta.Size(seq.Len() / 2)
	wantDeep, err := warm.Compress(ctx, deep)
	if err != nil {
		t.Fatal(err)
	}
	gotDeep, err := lazy.Compress(ctx, deep)
	if err != nil {
		t.Fatal(err)
	}
	if gotDeep.C != wantDeep.C || gotDeep.Error != wantDeep.Error || !gotDeep.Series.Equal(wantDeep.Series, 0) {
		t.Errorf("lazy deep resume (C=%d, E=%g) != fresh (C=%d, E=%g)",
			gotDeep.C, gotDeep.Error, wantDeep.C, wantDeep.Error)
	}

	// A source that fails after restore surfaces the typed loss, wrapped.
	bad := &memRowSource{n: snap.N, splits: snap.Splits, failAt: 1}
	lost, err := pta.RestoreMatrixSetLazy(seq, "ptac", pta.Options{}, &hollow, bad)
	if err != nil {
		t.Fatal(err)
	}
	_, err = lost.Compress(ctx, shallow)
	var wl *pta.WarmLostError
	if !errors.As(err, &wl) {
		t.Fatalf("failed source returned %v, want WarmLostError", err)
	}
	if wl.Row != 1 {
		t.Errorf("WarmLostError.Row = %d, want 1", wl.Row)
	}
}

// TestSnapshotRestoreRejections: corrupt or mismatched snapshots fail
// cleanly instead of producing a poisoned set. A snapshot of the wrong
// shape or class is refused at restore; a bad split point is a
// WarmLostError once a walk reads its row.
func TestSnapshotRestoreRejections(t *testing.T) {
	seq := grouped(t)
	ctx := context.Background()
	set, err := pta.NewMatrixSet(seq, "ptac", pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Compress(ctx, pta.Size(seq.Len()/4)); err != nil {
		t.Fatal(err)
	}
	good, err := set.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restore := func(s *pta.MatrixSnapshot) (*pta.MatrixSet, error) {
		return pta.RestoreMatrixSetLazy(seq, "ptac", pta.Options{}, s, &memRowSource{n: s.N, splits: s.Splits})
	}
	mutate := func(name string, lostAtRead bool, f func(s *pta.MatrixSnapshot)) {
		s := *good
		s.RowErr = append([]float64(nil), good.RowErr...)
		s.LastE = append([]float64(nil), good.LastE...)
		s.Splits = append([]int32(nil), good.Splits...)
		f(&s)
		set, err := restore(&s)
		if !lostAtRead {
			if err == nil {
				t.Errorf("%s: restore accepted a bad snapshot", name)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: restore refused a snapshot of the right shape: %v", name, err)
		}
		var lost *pta.WarmLostError
		if _, err := set.Compress(ctx, pta.Size(s.Filled)); !errors.As(err, &lost) {
			t.Errorf("%s: compress over the bad split: %v, want a WarmLostError", name, err)
		}
	}
	mutate("wrong n", false, func(s *pta.MatrixSnapshot) { s.N++ })
	mutate("wrong class", false, func(s *pta.MatrixSnapshot) { s.Class = "dp" })
	mutate("truncated row errors", false, func(s *pta.MatrixSnapshot) { s.RowErr = s.RowErr[:1] })
	mutate("filled too deep", false, func(s *pta.MatrixSnapshot) { s.Filled = s.N + 1 })
	mutate("truncated splits", true, func(s *pta.MatrixSnapshot) { s.Splits = s.Splits[:len(s.Splits)-1] })
	mutate("split out of range", true, func(s *pta.MatrixSnapshot) { s.Splits[0] = int32(s.N + 5) })
	mutate("negative split", true, func(s *pta.MatrixSnapshot) { s.Splits[0] = -1 })
	// In range 0..n, but at its own column: the backtrack would merge the
	// empty run [n+1, n].
	mutate("split at its column", true, func(s *pta.MatrixSnapshot) { s.Splits[(s.Filled-1)*(s.N+1)+s.N] = int32(s.N) })
	mutate("split below k-1", true, func(s *pta.MatrixSnapshot) { s.Splits[(s.Filled-1)*(s.N+1)+s.N] = int32(s.Filled - 2) })
	// A zero split point passes the row check (unreached cells hold 0), but
	// one on the backtrack's path is a typed loss, not a panic.
	mutate("zero split on the walk", true, func(s *pta.MatrixSnapshot) { s.Splits[(s.Filled-1)*(s.N+1)+s.N] = 0 })

	if _, err := restore(&pta.MatrixSnapshot{}); err == nil {
		t.Error("empty snapshot accepted")
	}
	if _, err := pta.RestoreMatrixSetLazy(seq, "ptac", pta.Options{}, nil, &memRowSource{}); err == nil {
		t.Error("nil snapshot accepted")
	}
	if _, err := pta.RestoreMatrixSetLazy(seq, "gms", pta.Options{}, good, &memRowSource{n: good.N, splits: good.Splits}); err == nil {
		t.Error("non-DP strategy accepted a snapshot")
	}

	// The pristine snapshot still restores and answers after all the
	// rejected copies.
	set, err = restore(good)
	if err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
	if _, err := set.Compress(ctx, pta.Size(good.Filled)); err != nil {
		t.Errorf("good snapshot lost: %v", err)
	}
}
