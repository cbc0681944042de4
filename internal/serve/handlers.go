package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/pta"
)

// Cache dispositions reported per result.
const (
	cacheHit    = "hit"
	cacheMiss   = "miss"
	cacheBypass = "bypass"
)

// statusClientClosedRequest is the de-facto status for a client that went
// away mid-evaluation (nginx's 499); nothing reads the response, but logs
// and stats distinguish it from a server-side deadline.
const statusClientClosedRequest = 499

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	infos := pta.Describe()
	out := make([]map[string]any, len(infos))
	for i, info := range infos {
		class, cacheable := pta.DPClass(info.Name)
		entry := map[string]any{
			"name":        info.Name,
			"description": info.Description,
			"size":        info.Size,
			"error":       info.Error,
			"streaming":   info.Streaming,
		}
		if cacheable {
			entry["matrix_cache_class"] = class
		}
		out[i] = entry
	}
	writeJSON(w, http.StatusOK, map[string]any{"strategies": out})
}

// handleStats serves the registry's samples as one JSON object: the same
// numbers /metrics renders as text (obs.Registry.WriteJSON).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.metrics.reg.WriteJSON(w)
}

// handleMatrix serves one content-addressed spill blob to a peer worker:
// the local spill file verbatim when present, otherwise the resident
// in-memory set streamed in the spill encoding. The in-memory path takes
// the entry semaphore — a fetch that lands while this worker is still
// filling the key waits for the fill instead of forcing the requester to
// duplicate it, which is what makes "exactly one cold fill tier-wide" hold
// under races.
// The requester validates everything (key, CRCs); serving is unauthenticated
// reads of content-addressed bytes.
func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if len(hash) != 32 || !isHex(hash) {
		s.peers.serveMisses.Add(1)
		writeJSON(w, http.StatusNotFound, map[string]any{"error": errorWire{
			Status: http.StatusNotFound, Code: "matrix_not_found", Message: "not a spill content address"}})
		return
	}
	if s.store != nil && s.serveSpillFile(w, hash) {
		return
	}
	if e := s.cache.lookupByHash(hash); e != nil {
		select {
		case e.sem <- struct{}{}:
		case <-r.Context().Done():
			s.peers.serveMisses.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": errorWire{
				Status: http.StatusServiceUnavailable, Code: "matrix_busy", Message: "fill in flight"}})
			return
		}
		var snap *pta.MatrixSnapshot
		if e.set != nil {
			if sn, err := e.set.Snapshot(); err == nil && sn.Filled > 0 {
				snap = sn
			}
		}
		<-e.sem
		if snap != nil {
			s.startMatrixBlob(w, int64(snapshotLayout(e.key, snap).size()))
			// A failed write means the peer went away; a short body fails
			// its decode there.
			_ = writeSnapshot(w, e.key, snap)
			return
		}
	}
	s.peers.serveMisses.Add(1)
	writeJSON(w, http.StatusNotFound, map[string]any{"error": errorWire{
		Status: http.StatusNotFound, Code: "matrix_not_found", Message: "no warm matrices for this address"}})
}

// serveSpillFile streams the local spill file of hash, if there is one,
// without holding it in memory. Its size comes from the open descriptor,
// so a re-spill that renames a new file over the path cannot tear the
// body.
func (s *Server) serveSpillFile(w http.ResponseWriter, hash string) bool {
	f, err := os.Open(s.store.pathForHash(hash))
	if err != nil {
		return false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return false
	}
	s.startMatrixBlob(w, fi.Size())
	// A failed copy means the peer went away; a short body fails its
	// decode there.
	_, _ = io.Copy(w, f)
	return true
}

// startMatrixBlob counts one served blob of size bytes and sets its
// headers; the caller writes the body.
func (s *Server) startMatrixBlob(w http.ResponseWriter, size int64) {
	s.peers.serveHits.Add(1)
	s.peers.serveBytes.Add(size)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// compressManyRoute is the /v1/compress/many route. handleCompress serves
// it and /v1/compress alike, and tells them apart by it.
const compressManyRoute = "POST /v1/compress/many"

// answer is one plan of a compress request: resolved, then answered.
type answer struct {
	plan        pta.Plan
	res         *pta.Result
	disposition string
}

// handleCompress serves both compress endpoints through one pipeline: it
// resolves every plan, decodes the series, prices the request as the sum
// of its plans, takes one slot and answers the plans in request order
// through compressOne. The first failure in that order names the error, so
// a bad plan reports before a bad series. /v1/compress carries one plan and
// answers with its result; /v1/compress/many answers with the results
// array, amortized the way the cache amortizes: plans of one DP class
// share one cache entry, and the series decodes and hashes once.
func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	many := r.Pattern == compressManyRoute
	req, err := s.readCompressBody(w, r, many)
	defer req.release()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if len(req.plans) == 0 {
		s.writeError(w, r, badRequest(errors.New("need at least one plan")))
		return
	}
	var one [1]answer // one plan's answer stays on the stack (TestWarmHitAllocCeiling)
	answers := one[:]
	if len(req.plans) > 1 {
		answers = make([]answer, len(req.plans))
	}
	for i, pw := range req.plans {
		if answers[i].plan, err = resolvePlan(pw); err != nil {
			s.writeError(w, r, err)
			return
		}
	}
	// The series decodes before any slot is taken: admission must price the
	// request (and possibly reject it) without consuming in-flight capacity.
	series, err := req.Series()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.timeoutMS)
	defer cancel()
	if s.cfg.AdmissionMaxCells > 0 {
		var cells int64
		for i, pw := range req.plans {
			cells += estimateCells(series.Len(), pw, answers[i].plan)
		}
		release, err := s.admit(ctx, cells)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		defer release()
	}
	if !s.acquireSlot(ctx) {
		s.writeError(w, r, ctx.Err())
		return
	}
	defer s.releaseSlot()
	for i, pw := range req.plans {
		a := &answers[i]
		if a.res, a.disposition, err = s.compressOne(ctx, &req, pw, a.plan); err != nil {
			s.writeError(w, r, err)
			return
		}
	}
	writePooledJSON(w, http.StatusOK, func(b []byte) []byte {
		if !many {
			return appendResult(b, answers[0].res, answers[0].disposition)
		}
		b = append(b, `{"results":[`...)
		for i, a := range answers {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendResult(b, a.res, a.disposition)
		}
		return append(b, `]}`...)
	})
}

// effectiveWeights mirrors the engine's planOptions semantics: a plan
// without weights inherits the engine-level defaults, so cached and engine
// evaluations always use the same vector.
func (s *Server) effectiveWeights(pw planWire) []float64 {
	if pw.Weights != nil {
		return pw.Weights
	}
	return s.defaultWeights
}

// cacheClass reports the DP class of one plan's matrix-cache key, and
// whether the plan is cacheable at all: the strategy must be an exact DP and
// the plan must not carry options the DP ignores anyway except weights
// (which are part of the key, engine defaults included).
func cacheClass(pw planWire) (string, bool) {
	class, ok := pta.DPClass(pw.Strategy)
	if !ok || pw.ReadAhead != 0 {
		return "", false
	}
	return class, true
}

// fingerprint returns the content hash of the request's series, hashing it
// at most once per request; a memo hit brings it along.
func (s *Server) fingerprint(req *compressBody) string {
	if req.fingerprint == "" {
		s.fingerprints.Add(1)
		req.fingerprint = pta.Fingerprint(req.series)
	}
	return req.fingerprint
}

// resolvePlan validates one wire plan into an engine plan.
func resolvePlan(pw planWire) (pta.Plan, error) {
	if pw.Strategy == "" {
		return pta.Plan{}, badRequest(errors.New("plan: missing strategy"))
	}
	b, err := pta.ParseBudget(pw.Budget)
	if err != nil {
		return pta.Plan{}, badRequest(err)
	}
	// fill_algo only has to name a fill this server once accepted; the
	// exact DP picks its own (see planWire).
	if _, err := core.ParseFillAlgo(pw.FillAlgo); err != nil {
		return pta.Plan{}, badRequest(fmt.Errorf("plan: fill_algo: %w", err))
	}
	plan := pta.Plan{Strategy: pw.Strategy, Budget: b}
	if pw.Weights != nil || pw.ReadAhead != 0 {
		plan.Options = &pta.Options{Weights: pw.Weights, ReadAhead: pw.ReadAhead}
	}
	return plan, nil
}

// compressOne evaluates one resolved plan over the request's series,
// through the matrix cache when the plan is cacheable and through the
// engine otherwise.
func (s *Server) compressOne(ctx context.Context, req *compressBody, pw planWire, plan pta.Plan) (*pta.Result, string, error) {
	s.compressions.Add(1)
	series := req.series
	class, cacheable := cacheClass(pw)
	if cacheable {
		// The cache path answers through MatrixSet, which never consults
		// Supports; keep the engine's (strategy, budget kind) contract by
		// routing unsupported kinds to the engine's typed error.
		if ev, ok := pta.Lookup(pw.Strategy); !ok || !ev.Supports(plan.Budget.Kind()) {
			cacheable = false
		}
	}
	if !cacheable {
		res, err := s.engine.Compress(ctx, series, plan)
		return res, cacheBypass, err
	}
	key := cacheKey(s.fingerprint(req), class, s.effectiveWeights(pw))

	opts := pta.Options{Weights: s.effectiveWeights(pw)}
	// Cold builds observe the kernel's certified monotone coverage; every
	// answered budget counts against the set's resolved fill algorithm
	// (ptafill_* family).
	build := func() (*pta.MatrixSet, error) {
		set, err := pta.NewMatrixSet(series, pw.Strategy, opts)
		if err == nil {
			s.metrics.fillCoverage.Observe(set.MonotoneCoverage())
		}
		return set, err
	}
	var res *pta.Result
	var err error
	var disposition string
	for attempt := 0; ; attempt++ {
		entry, hit := s.cache.acquire(key)
		disposition = cacheMiss
		if hit {
			disposition = cacheHit
		}
		// On an in-memory miss the build walks the warm-tier lookup order —
		// local spill, then peers in rendezvous order — before paying the
		// cold DP fill. Spill and peer restores answer with a backtrack, no
		// fill; the client sees them as cache hits.
		cold := false
		start := time.Now()
		res, err = entry.compress(ctx, s.cache,
			func() (*pta.MatrixSet, error) {
				if s.store != nil {
					if set := s.store.load(key, series, pw.Strategy, opts); set != nil {
						entry.spilled.Store(int64(set.Rows())) // disk already has these rows
						return set, nil
					}
				}
				if s.peers.active() {
					if set := s.peerWarm(ctx, entry, key, series, pw.Strategy, opts); set != nil {
						return set, nil
					}
				}
				cold = true
				return build()
			},
			func(set *pta.MatrixSet) (*pta.Result, error) {
				s.cache.remember(entry, req)
				res, err := set.Compress(ctx, plan.Budget)
				if err != nil {
					return res, err
				}
				s.metrics.fillServed(set.Fill())
				// The set's Stats.Cells is cumulative; the delta since this
				// entry's last evaluation is this worker's own fill work.
				if delta := res.Stats.Cells - entry.cells.Swap(res.Stats.Cells); delta > 0 {
					s.metrics.dpCells.Add(uint64(delta))
				}
				// Spill under the entry semaphore whenever this evaluation
				// deepened the matrices past what is already on disk.
				if s.store != nil {
					if rows := int64(set.Rows()); rows > entry.spilled.Load() && s.store.store(key, set) {
						entry.spilled.Store(rows)
					}
				}
				return res, err
			})
		if err == nil {
			if !hit && !cold {
				disposition = cacheHit // warmed from spill or a peer
			} else if cold {
				s.metrics.fillSeconds.Observe(time.Since(start).Seconds())
			}
			break
		}
		// A restored set whose rows went bad mid-life (row CRC mismatch, a
		// short read from a truncated spill file, a bad split point)
		// surfaces as a WarmLostError. Close-and-remove the file, drop the
		// poisoned entry, and rebuild cold — once.
		var lost *pta.WarmLostError
		if attempt == 0 && errors.As(err, &lost) {
			s.cache.discard(entry)
			if s.store != nil {
				s.store.discardCorrupt(key)
			}
			continue
		}
		return nil, disposition, err
	}
	// Stamp the requested strategy: a ptac entry may serve a ptae plan of
	// the same class.
	res.Strategy = pw.Strategy
	return res, disposition, nil
}

// peerWarm tries to warm one entry from the peer tier: fetch the blob
// (the tier's gate has checked it), adopt it into the spill directory,
// which peers require, and load it lazily like any spill file. nil means
// no peer had the key, or the blob did not land; the caller fills cold.
func (s *Server) peerWarm(ctx context.Context, entry *cacheEntry, key string, series *pta.Series, strategy string, opts pta.Options) *pta.MatrixSet {
	data := s.peers.fetch(ctx, entry.hash, key)
	if data == nil || !s.store.adopt(key, data) {
		return nil
	}
	set := s.store.load(key, series, strategy, opts)
	if set != nil {
		entry.spilled.Store(int64(set.Rows()))
	}
	return set
}

// badRequestError marks client-side validation failures for statusFor.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func badRequest(err error) error { return badRequestError{err: err} }

// statusFor maps an error onto (HTTP status, machine-readable code).
func statusFor(err error) (int, string) {
	var tooLarge *http.MaxBytesError
	var br badRequestError
	var adm admissionError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, "body_too_large"
	case errors.As(err, &br):
		return http.StatusBadRequest, "bad_request"
	case errors.As(err, &adm):
		return http.StatusTooManyRequests, "admission_rejected"
	case errors.Is(err, pta.ErrUnknownStrategy):
		return http.StatusBadRequest, "unknown_strategy"
	case errors.Is(err, pta.ErrBudgetKind):
		return http.StatusBadRequest, "unsupported_budget_kind"
	case errors.Is(err, pta.ErrSeriesShape):
		return http.StatusBadRequest, "series_shape"
	case errors.Is(err, pta.ErrNotStreaming):
		return http.StatusBadRequest, "not_streaming"
	case errors.Is(err, pta.ErrBudgetInfeasible):
		return http.StatusUnprocessableEntity, "budget_infeasible"
	case errors.Is(err, pta.ErrOverflow):
		return http.StatusUnprocessableEntity, "error_overflow"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, pta.ErrCanceled), errors.Is(err, context.Canceled):
		return statusClientClosedRequest, "client_closed_request"
	}
	return http.StatusInternalServerError, "internal"
}

// writeError renders the uniform error envelope with the typed carriers'
// details attached.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := statusFor(err)
	body := errorWire{Status: status, Code: code, Message: err.Error()}
	var inf *pta.InfeasibleBudgetError
	if errors.As(err, &inf) {
		body.CMin = inf.CMin
	}
	var unk *pta.UnknownStrategyError
	if errors.As(err, &unk) {
		body.Known = unk.Known
	}
	var adm admissionError
	if errors.As(err, &adm) {
		body.EstimatedCells = adm.cells
		body.MaxCells = adm.budget
		// One second is enough for the in-flight burst that tripped the
		// budget to clear; clients with real backoff ignore it anyway.
		w.Header().Set("Retry-After", strconv.Itoa(1))
	}
	if status >= 500 || status == statusClientClosedRequest {
		s.log.Printf("serve: %s %s: %d %s: %v", r.Method, r.URL.Path, status, code, err)
	}
	writeJSON(w, status, map[string]any{"error": body})
}

// writeJSON renders one response body through encoding/json; the cold
// endpoints (errors, strategies, health) keep the reflective encoder, the
// compress hot paths go through writePooledJSON instead.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body) // the status line is out; encoding errors only affect the body
}

// writePooledJSON renders one response body into a pooled buffer filled by
// encode (appendResult and friends) and writes it in a single Write call,
// with the trailing newline json.Encoder clients already expect.
func writePooledJSON(w http.ResponseWriter, status int, encode func(b []byte) []byte) {
	bp := codecBufPool.Get().(*[]byte)
	b := append(encode((*bp)[:0]), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
	putCodecBuf(bp, b)
}
