// Serveclient demonstrates the HTTP serving layer end to end, in one
// process: it boots ptaserve's server (internal/serve) on a loopback port,
// then talks to it exactly like a remote client would — list the strategy
// registry, compress the paper's running example under several budgets, and
// watch the shared matrix cache turn repeated budgets of the hot series
// into cache hits on /v1/stats.
//
// Run with: go run ./examples/serveclient
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	"repro/internal/serve"
	"repro/pta"
)

// request is the /v1/compress body: the running example (Fig. 1) as JSON
// rows plus one plan. A real client builds this from its own data; the wire
// format is plain JSON, no client library needed.
func request(strategy, budget string) []byte {
	body := map[string]any{
		"series": map[string]any{
			"group_attrs": []map[string]string{{"name": "Proj", "kind": "string"}},
			"agg_names":   []string{"AvgSal"},
			"rows": []map[string]any{
				{"group": []any{"A"}, "aggs": []float64{800}, "start": 1, "end": 2},
				{"group": []any{"A"}, "aggs": []float64{600}, "start": 3, "end": 3},
				{"group": []any{"A"}, "aggs": []float64{500}, "start": 4, "end": 4},
				{"group": []any{"A"}, "aggs": []float64{350}, "start": 5, "end": 6},
				{"group": []any{"A"}, "aggs": []float64{300}, "start": 7, "end": 7},
				{"group": []any{"B"}, "aggs": []float64{500}, "start": 4, "end": 5},
				{"group": []any{"B"}, "aggs": []float64{500}, "start": 7, "end": 8},
			},
		},
		"plan": map[string]any{"strategy": strategy, "budget": budget},
	}
	raw, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	return raw
}

func main() {
	// Boot the server like cmd/ptaserve does: one engine per deployment,
	// handlers share it and the LRU matrix cache.
	engine, err := pta.New(pta.WithParallelism(2))
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Engine: engine, CacheEntries: 16})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Println("server up at", base)

	// 1. The registry, as a client sees it.
	var strategies struct {
		Strategies []struct {
			Name       string `json:"name"`
			CacheClass string `json:"matrix_cache_class"`
		} `json:"strategies"`
	}
	getJSON(base+"/v1/strategies", &strategies)
	cacheable := 0
	for _, s := range strategies.Strategies {
		if s.CacheClass != "" {
			cacheable++
		}
	}
	fmt.Printf("registry: %d strategies, %d matrix-cacheable\n",
		len(strategies.Strategies), cacheable)

	// 2. Several budgets of one hot series. The first request fills the DP
	// matrices; every later one — including the error-bounded ptae plan —
	// backtracks over the cached matrices.
	for _, plan := range [][2]string{
		{"ptac", "c=4"},
		{"ptac", "c=4"},
		{"ptac", "c=3"},
		{"ptae", "eps=0.2"},
		{"gms", "c=4"},
	} {
		var res struct {
			C     int     `json:"c"`
			Error float64 `json:"error"`
			Cache string  `json:"cache"`
		}
		resp, err := http.Post(base+"/v1/compress", "application/json",
			bytes.NewReader(request(plan[0], plan[1])))
		if err != nil {
			log.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Printf("%-5s %-8s -> c=%d error=%.2f cache=%s\n",
			plan[0], plan[1], res.C, res.Error, res.Cache)
	}

	// 3. An infeasible budget comes back as a typed 422, with the smallest
	// reachable size attached.
	resp, err := http.Post(base+"/v1/compress", "application/json",
		bytes.NewReader(request("ptac", "c=2")))
	if err != nil {
		log.Fatal(err)
	}
	var failure struct {
		Error struct {
			Code string `json:"code"`
			CMin int    `json:"cmin"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&failure); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("c=2 -> %d %s (cmin=%d)\n", resp.StatusCode, failure.Error.Code, failure.Error.CMin)

	// 4. The cache counters on /v1/stats: the /metrics samples as one JSON
	// object, keyed by sample name.
	var stats struct {
		Hits   int64 `json:"ptaserve_cache_hits_total"`
		Misses int64 `json:"ptaserve_cache_misses_total"`
	}
	getJSON(base+"/v1/stats", &stats)
	fmt.Printf("cache: %d hits, %d misses\n", stats.Hits, stats.Misses)

	// 5. Graceful shutdown, like SIGTERM on the daemon.
	stop()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained and stopped")
}

// getJSON fetches one JSON endpoint into out.
func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
