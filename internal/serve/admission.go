package serve

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/pta"
)

// Admission policies for requests whose estimated DP cost exceeds
// Config.AdmissionMaxCells.
const (
	// AdmissionReject answers over-budget requests with 429 + Retry-After
	// before they consume an in-flight slot. The default.
	AdmissionReject = "reject"
	// AdmissionQueue serializes over-budget requests through one dedicated
	// oversized slot instead of rejecting: at most one expensive fill runs
	// at a time, later ones wait up to their own deadline.
	AdmissionQueue = "queue"
)

// estimateCells predicts the worst-case DP fill cost of one resolved plan
// over an n-row series, in matrix cells — the unit the solver's own
// DPStats.Cells reports. The estimate is deliberately cold: it ignores
// cache warmth, so the budget holds even when a restart (or an eviction
// storm) empties the cache and every request pays its full fill.
//
//   - size budget c over an exact DP: rows 1..min(c, n), ≈ n·min(c, n) cells
//   - error budget over an exact DP: the bound search may fill all n rows,
//     ≈ n² cells
//   - non-DP strategies: the greedy merge heap, ≈ n·log₂(n) "cells"
func estimateCells(n int, pw planWire, plan pta.Plan) int64 {
	if n <= 0 {
		return 0
	}
	nn := int64(n)
	if _, dp := pta.DPClass(pw.Strategy); !dp {
		return nn * int64(math.Ceil(math.Log2(float64(n+1))))
	}
	if plan.Budget.Kind() == pta.BudgetSize {
		c := int64(plan.Budget.C())
		if c > nn {
			c = nn
		}
		if c < 0 {
			c = 0
		}
		return nn * c
	}
	return nn * nn
}

// admissionError is the typed carrier for a rejected request; statusFor
// maps it to 429 and writeError attaches the estimate, the budget and a
// Retry-After header.
type admissionError struct {
	cells  int64
	budget int64
}

func (e admissionError) Error() string {
	return fmt.Sprintf("estimated cost %d cells exceeds the admission budget %d", e.cells, e.budget)
}

// admit enforces the admission budget before the request takes an in-flight
// slot. Under-budget requests pass for free. Over-budget requests are
// rejected (default) or, under the queue policy, wait for the single
// oversized slot; the returned release func must be called when the request
// finishes (it is a no-op for under-budget requests).
func (s *Server) admit(ctx context.Context, cells int64) (release func(), err error) {
	if s.cfg.AdmissionMaxCells <= 0 || cells <= s.cfg.AdmissionMaxCells {
		return func() {}, nil
	}
	if s.cfg.AdmissionPolicy == AdmissionQueue {
		if err := s.oversized.acquire(ctx, s.metrics.admissionQueued.Inc); err != nil {
			return nil, err
		}
		if s.onSlot != nil {
			s.onSlot(cells)
		}
		return s.oversized.release, nil
	}
	s.metrics.admissionRejected.Inc()
	return nil, admissionError{cells: cells, budget: s.cfg.AdmissionMaxCells}
}

// fifoSlot is a one-holder lock whose waiters take it in the order they
// joined: release hands the slot straight to the oldest waiter, so a later
// arrival never overtakes an earlier one. The zero value is a free slot.
type fifoSlot struct {
	mu      sync.Mutex
	held    bool
	waiters []chan struct{} // oldest first; closing one hands it the slot
}

// acquire takes the slot, waiting behind earlier arrivals, or returns
// ctx's error once the context ends first. joined runs once the caller
// holds the slot or has its place in the queue, so a count it keeps never
// runs ahead of the queue.
func (q *fifoSlot) acquire(ctx context.Context, joined func()) error {
	q.mu.Lock()
	if !q.held {
		q.held = true
		q.mu.Unlock()
		joined()
		return nil
	}
	turn := make(chan struct{})
	q.waiters = append(q.waiters, turn)
	q.mu.Unlock()
	joined()
	select {
	case <-turn:
		return nil
	case <-ctx.Done():
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, w := range q.waiters {
		if w == turn {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return ctx.Err()
		}
	}
	q.handOff() // the slot arrived as the context ended: pass it on
	return ctx.Err()
}

// release gives the slot to the oldest waiter, or frees it.
func (q *fifoSlot) release() {
	q.mu.Lock()
	q.handOff()
	q.mu.Unlock()
}

// handOff passes the held slot on; q.mu must be held.
func (q *fifoSlot) handOff() {
	if len(q.waiters) == 0 {
		q.held = false
		return
	}
	close(q.waiters[0])
	q.waiters = append(q.waiters[:0], q.waiters[1:]...)
}
