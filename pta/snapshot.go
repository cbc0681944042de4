package pta

import (
	"fmt"

	"repro/internal/core"
)

// MatrixSnapshot is the portable warm state of a MatrixSet: the filled DP
// rows (split points, per-row errors, the resumable last error row) plus
// the identifying class. It is what a persistent cache tier serializes to
// disk so a restarted worker answers previously-warm series without
// refilling a single matrix cell (internal/serve's cachestore wraps it in a
// versioned binary format keyed by content fingerprint, which also stores
// every filled budget's backtrack path, so a reload reads k split points
// instead of k split rows).
//
// A snapshot is only meaningful together with the exact series it was
// taken over — it carries no series data. Callers establish that identity
// themselves (the serve layer keys spill files by Fingerprint, so a loaded
// snapshot always meets the series that produced it);
// RestoreMatrixSetLazy validates shape, class and error values, and each
// split row when it is read, not that the rows were filled over this
// series.
type MatrixSnapshot struct {
	Strategy string    // registry name the set was built for
	Class    string    // DPClass(strategy) — must match on restore
	N        int       // series length the rows were filled for
	Filled   int       // rows 1..Filled are present
	RowErr   []float64 // E[k][n] per filled row, len Filled
	LastE    []float64 // E[Filled][0..n], len N+1 (nil when the restore's source serves it)
	Splits   []int32   // J rows, row-major, len Filled×(N+1); Snapshot fills it, a restore reads a SplitRowSource
	Bound    float64   // SSEmax when HasMax (error-budget normalization)
	HasMax   bool
}

// Snapshot copies the set's warm rows. A set that has answered no budget
// yet returns Filled == 0 (nothing worth persisting). A restored set
// (RestoreMatrixSetLazy) first reads every row no backtrack has read yet; if
// its backing store has gone bad the WarmLostError surfaces here instead of
// a torn snapshot.
func (m *MatrixSet) Snapshot() (*MatrixSnapshot, error) {
	st, err := m.sv.State()
	if err != nil {
		return nil, err
	}
	return &MatrixSnapshot{
		Strategy: m.strategy,
		Class:    m.class,
		N:        st.N,
		Filled:   st.Filled,
		RowErr:   st.RowErr,
		LastE:    st.LastE,
		Splits:   st.Splits,
		Bound:    st.Bound,
		HasMax:   st.HasMax,
	}, nil
}

// SplitRowSource supplies restored split-point rows on demand for
// RestoreMatrixSetLazy; see core.SplitRowSource. A source need only serve
// SplitRow. internal/serve's spill-file view, the one a server restores
// through, also serves a budget's backtrack path alone
// (core.SplitPathSource) and the resume row (core.ResumeRowSource).
type SplitRowSource = core.SplitRowSource

// WarmLostError is the typed error a restored set surfaces when its split
// rows fail after restore: a truncated, corrupted or discarded spill file,
// or a split point the backtrack cannot follow. It travels through
// MatrixSet.Compress wrapped, so callers detect it with errors.As and
// rebuild cold.
type WarmLostError = core.WarmLostError

// RestoreMatrixSetLazy rebuilds a warm MatrixSet from a snapshot whose
// split-point rows stay behind a SplitRowSource: it constructs a fresh set
// over the series (computing the cost kernel, which needs the series
// anyway) and adopts the snapshot's scalar state, so later budgets answer
// with zero fill work and deeper budgets resume where the snapshot
// stopped. snap.Splits is ignored (may be nil) and the J rows are read
// from src by the first backtrack that walks them — or, from a source that
// serves paths, only the split points of the budget's own walk. RowErr and
// Bound restore eagerly, so budget searches run without touching src at
// all. LastE restores eagerly too, unless it is nil and src serves the
// resume row: then the first fill past the restored rows reads and checks
// it. The snapshot's class must match DPClass(strategy), and every shape
// and error value is checked here: a mismatched snapshot returns an error
// and no set, leaving the caller to fall back to a cold build. A row is
// checked when it is read, so if src fails later, or a row holds a split
// point no fill writes, the evaluation returns a WarmLostError and the set
// must be discarded.
func RestoreMatrixSetLazy(s *Series, strategy string, opts Options, snap *MatrixSnapshot, src SplitRowSource) (*MatrixSet, error) {
	if snap == nil || snap.Filled == 0 {
		return nil, fmt.Errorf("pta: empty matrix snapshot")
	}
	class, ok := DPClass(strategy)
	if !ok {
		return nil, fmt.Errorf("pta: strategy %q is not an exact DP: nothing to restore", strategy)
	}
	if class != snap.Class {
		return nil, fmt.Errorf("pta: snapshot class %q does not match %q for %s", snap.Class, class, strategy)
	}
	m, err := NewMatrixSet(s, strategy, opts)
	if err != nil {
		return nil, err
	}
	if err := m.sv.RestoreLazy(&core.SolverState{
		N:      snap.N,
		Filled: snap.Filled,
		RowErr: snap.RowErr,
		LastE:  snap.LastE,
		Bound:  snap.Bound,
		HasMax: snap.HasMax,
	}, src); err != nil {
		return nil, fmt.Errorf("pta: %w", err)
	}
	return m, nil
}
