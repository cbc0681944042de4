package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/pta"
)

// The client speaks the documented wire schema with its own structs, the
// way an external client of ptaserve does.
type wireRow struct {
	Aggs  []float64 `json:"aggs"`
	Start int64     `json:"start"`
	End   int64     `json:"end"`
}

type wireSeries struct {
	AggNames []string  `json:"agg_names"`
	Rows     []wireRow `json:"rows"`
}

type wirePlan struct {
	Strategy string `json:"strategy"`
	Budget   string `json:"budget"`
}

func requestBody(s *pta.Series, p wirePlan) []byte {
	ws := wireSeries{AggNames: s.AggNames, Rows: make([]wireRow, len(s.Rows))}
	for i, r := range s.Rows {
		ws.Rows[i] = wireRow{Aggs: r.Aggs, Start: int64(r.T.Start), End: int64(r.T.End)}
	}
	raw, err := json.Marshal(struct {
		Series wireSeries `json:"series"`
		Plan   wirePlan   `json:"plan"`
	}{ws, p})
	if err != nil {
		panic(err) // plain structs of strings and finite floats always marshal
	}
	return raw
}

const opHeader = "X-Bench-Op"

// harness is one serve.Server behind a loopback listener in this process,
// and the keep-alive client that drives it.
type harness struct {
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
	// tr, when set, receives a serve.handler span per request; the wrapper
	// exists only in traced runs.
	tr atomic.Pointer[tracer]
}

func startServer(cfg serve.Config, workers int, traced bool) (*harness, error) {
	cfg.Logger = log.New(io.Discard, "", 0)
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &harness{
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		}},
	}
	handler := srv.Handler()
	if traced {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			inner.ServeHTTP(w, r)
			end := time.Now()
			if v := r.Header.Get(opHeader); v != "" {
				if tr := h.tr.Load(); tr != nil {
					op, _ := strconv.ParseInt(v, 10, 64)
					tr.add(span{Name: "serve.handler", Op: op, Parent: "client.op", Start: start, End: end})
				}
			}
		})
	}
	h.hs = &http.Server{Handler: handler}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close shuts the server down and waits for its Serve goroutine.
func (h *harness) close() error {
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// post sends one compress request and reads the whole response into buf.
// A traced request carries its op id, so the handler span can name it.
func (h *harness) post(body []byte, op int64, traced bool, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, h.base+"/v1/compress", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// scrape reads /metrics into a map keyed by series (name plus labels).
func (h *harness) scrape() (map[string]float64, error) {
	resp, err := h.client.Get(h.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(raw), nil
}

func parseProm(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// job is one request a client is about to send.
type job struct {
	key  int // (series, plan) key
	body []byte
}

// opRecord is the client's view of one op.
type opRecord struct {
	op     int64
	key    int
	lat    time.Duration
	reqB   int
	respB  int
	failed bool
	traced bool
}

// tracedOp picks every other op of a traced phase for tracing. The rest run
// untraced in the same phase, under the same load, so the two halves' p50
// ratio is the tracing overhead.
func tracedOp(op int64) bool { return op%2 == 0 }

// loop is the closed-loop load generator shared by the serve workloads:
// workers clients, each sending its next request when the previous one
// returned.
type loop struct {
	h       *harness
	workers int
	seed    int64
	next    func(rng *rand.Rand) job
	// check inspects a response (status 200 already confirmed) and reports
	// whether the answer is acceptable. It runs outside the op's latency.
	check func(rec *opRecord, body []byte) bool
	ops   atomic.Int64 // op ids, shared across phases
}

// run drives the server for at least d and until minOps ops completed (but
// no longer than 4·d), and returns the ops with the phase's wall time.
func (l *loop) run(d time.Duration, minOps int) ([]opRecord, time.Duration) {
	start := time.Now()
	var done atomic.Int64
	per := make([][]opRecord, l.workers)
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(l.seed*7919 + int64(w) + 1))
			var buf bytes.Buffer
			for {
				el := time.Since(start)
				if el >= 4*d || (el >= d && done.Load() >= int64(minOps)) {
					return
				}
				op := l.ops.Add(1)
				j := l.next(rng)
				tr := l.h.tr.Load()
				traced := tr != nil && tracedOp(op)
				t0 := time.Now()
				status, err := l.h.post(j.body, op, traced, &buf)
				lat := time.Since(t0)
				rec := opRecord{op: op, key: j.key, lat: lat, reqB: len(j.body), respB: buf.Len(), traced: traced}
				rec.failed = err != nil || status != http.StatusOK || !l.check(&rec, buf.Bytes())
				if traced {
					tr.add(span{Name: "client.op", Op: op, Start: t0, End: t0.Add(lat)})
				}
				per[w] = append(per[w], rec)
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []opRecord
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// warm sends jobs[i] for every i, spread over the workers, and calls check
// on each answer; it is the warm-up of a set-up.
func (l *loop) warm(jobs []job) error {
	var next atomic.Int64
	errs := make([]error, l.workers)
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				status, err := l.h.post(jobs[i].body, -1, false, &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
				}
				if err == nil && !l.check(&opRecord{key: jobs[i].key}, buf.Bytes()) {
					err = fmt.Errorf("warm-up answer for key %d rejected", jobs[i].key)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}
