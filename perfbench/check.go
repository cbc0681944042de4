package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/pta"
)

// dpWork is the fill work a compress response reports in its stats block:
// cumulative over the life of the server's matrix set for that series.
type dpWork struct {
	Cells         int64 `json:"cells"`
	InnerIters    int64 `json:"inner_iters"`
	EnvelopeSkips int64 `json:"envelope_skips"`
}

func (w dpWork) sub(o dpWork) dpWork {
	return dpWork{w.Cells - o.Cells, w.InnerIters - o.InnerIters, w.EnvelopeSkips - o.EnvelopeSkips}
}

// respHead is the part of a compress response before its rows.
type respHead struct {
	C     int     `json:"c"`
	Error float64 `json:"error"`
	Cache string  `json:"cache"`
	Stats dpWork  `json:"stats"`
}

var (
	rowsTag  = []byte(`,"rows":`)
	cacheTag = []byte(`,"cache":`)
)

// parseHead decodes the fields before the rows and hashes the answer: the
// body without its cache disposition and stats, which change from one
// response to the next while the answer must not.
func parseHead(body []byte) (respHead, [32]byte, error) {
	var h respHead
	i := bytes.Index(body, rowsTag)
	if i < 0 {
		return h, [32]byte{}, fmt.Errorf("response has no rows: %.120s", body)
	}
	head := make([]byte, i+1)
	copy(head, body[:i])
	head[i] = '}'
	if err := json.Unmarshal(head, &h); err != nil {
		return h, [32]byte{}, fmt.Errorf("response head: %w", err)
	}
	c := bytes.Index(body[:i], cacheTag)
	if c < 0 {
		c = i
	}
	sum := sha256.New()
	sum.Write(body[:c])
	sum.Write(body[i:])
	var hash [32]byte
	sum.Sum(hash[:0])
	return h, hash, nil
}

type respRow struct {
	Aggs  []float64 `json:"aggs"`
	Start int64     `json:"start"`
	End   int64     `json:"end"`
}

type respFull struct {
	C     int       `json:"c"`
	Error float64   `json:"error"`
	Rows  []respRow `json:"rows"`
}

// matchReference decodes a response and requires it to equal the reference
// answer exactly: the same size, the same error bits and the same rows.
func matchReference(body []byte, ref *pta.Result) error {
	var r respFull
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return sameAnswer(r.C, r.Error, r.Rows, ref, 0)
}

// sameAnswer requires the same size and the same rows, bit for bit. The
// error must have the same bits when errTol is 0, and be within errTol of
// the reference's, relatively, otherwise.
func sameAnswer(c int, sse float64, rows []respRow, ref *pta.Result, errTol float64) error {
	if c != ref.C || len(rows) != len(ref.Series.Rows) {
		return fmt.Errorf("c=%d with %d rows, reference c=%d", c, len(rows), ref.C)
	}
	near := errTol > 0 && math.Abs(sse-ref.Error) <= errTol*math.Abs(ref.Error)
	if math.Float64bits(sse) != math.Float64bits(ref.Error) && !near {
		return fmt.Errorf("error %v, reference %v", sse, ref.Error)
	}
	for i, row := range rows {
		want := ref.Series.Rows[i]
		if row.Start != int64(want.T.Start) || row.End != int64(want.T.End) || len(row.Aggs) != len(want.Aggs) {
			return fmt.Errorf("row %d: [%d,%d], reference [%d,%d]", i, row.Start, row.End, want.T.Start, want.T.End)
		}
		for d, v := range row.Aggs {
			if math.Float64bits(v) != math.Float64bits(want.Aggs[d]) {
				return fmt.Errorf("row %d agg %d: %v, reference %v", i, d, v, want.Aggs[d])
			}
		}
	}
	return nil
}

// sameResult compares two in-process results like sameAnswer.
func sameResult(got, ref *pta.Result, errTol float64) error {
	rows := make([]respRow, len(got.Series.Rows))
	for i, r := range got.Series.Rows {
		rows[i] = respRow{Aggs: r.Aggs, Start: int64(r.T.Start), End: int64(r.T.End)}
	}
	return sameAnswer(got.C, got.Error, rows, ref, errTol)
}

// checkConsistent checks a single-group answer without a reference: at most
// cmax rows that tile the input's time span, and an error equal to the SSE
// those rows introduce, recomputed here.
func checkConsistent(body []byte, in *pta.Series, cmax int) error {
	var r respFull
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if r.C > cmax || r.C != len(r.Rows) || r.C == 0 {
		return fmt.Errorf("c=%d with %d rows, budget c=%d", r.C, len(r.Rows), cmax)
	}
	first, last := in.Rows[0].T.Start, in.Rows[len(in.Rows)-1].T.End
	z := pta.NewSeries(nil, in.AggNames)
	gid := z.Groups.Intern(nil)
	next := int64(first)
	for i, row := range r.Rows {
		if row.Start != next || row.End < row.Start {
			return fmt.Errorf("row %d: [%d,%d] does not continue at %d", i, row.Start, row.End, next)
		}
		next = row.End + 1
		z.Rows = append(z.Rows, pta.Row{Group: gid, Aggs: row.Aggs,
			T: pta.Interval{Start: pta.Chronon(row.Start), End: pta.Chronon(row.End)}})
	}
	if next != int64(last)+1 {
		return fmt.Errorf("rows end at %d, input at %d", next-1, last)
	}
	sse, err := pta.SSE(in, z, pta.Options{})
	if err != nil {
		return err
	}
	// The DP sums errors from prefix slabs of values near 1e4, so its error
	// and a direct recomputation differ in about the ninth digit.
	if math.Abs(sse-r.Error) > 1e-6*math.Max(1, math.Abs(sse)) {
		return fmt.Errorf("reported error %v, rows introduce %v", r.Error, sse)
	}
	return nil
}

// workTracker follows the cumulative stats the server reports per series
// and turns them into the DP work each response did.
type workTracker struct {
	mu   sync.Mutex
	last map[int]dpWork
}

func newWorkTracker() *workTracker { return &workTracker{last: map[int]dpWork{}} }

// observe returns the fill work behind one response on series key, and
// whether the response called itself a cache hit although it filled cells
// (an extension of the cached matrices, not a hit). A miss is a cold build,
// all of whose stats are new work. Otherwise stats that grew were extended
// by the difference, and stats that shrank belong to a set restored from
// spill, which counts again from zero.
func (t *workTracker) observe(key int, cache string, st dpWork) (work dpWork, extendHit bool) {
	t.mu.Lock()
	prev, seen := t.last[key]
	t.last[key] = st
	t.mu.Unlock()
	switch {
	case !seen || cache == "miss" || st.Cells < prev.Cells:
		work = st
	case st.Cells > prev.Cells:
		work = st.sub(prev)
	}
	return work, cache == "hit" && work.Cells > 0
}

// bodyBook remembers the first body seen for each (series, plan) key; every
// later body for the key must hash the same. The first bodies are checked
// against the references once, after the timed phase.
type bodyBook struct {
	mu     sync.Mutex
	hashes map[int][32]byte
	first  map[int][]byte
}

func newBodyBook() *bodyBook {
	return &bodyBook{hashes: map[int][32]byte{}, first: map[int][]byte{}}
}

// match reports whether body's answer equals the key's first answer,
// recording it when it is the first.
func (b *bodyBook) match(key int, hash [32]byte, body []byte) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if h, ok := b.hashes[key]; ok {
		return h == hash
	}
	b.hashes[key] = hash
	b.first[key] = bytes.Clone(body)
	return true
}
