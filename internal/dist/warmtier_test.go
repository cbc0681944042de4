package dist

// Shared warm tier suite: the coordinator's sub-request curve cache
// (repeat compressions of unchanged runs stop re-scattering) and the fleet
// scenario behind it — a worker killed -9 with its spill volume wiped comes
// back and warms itself entirely from its peers, serving previously-warm
// traffic with zero DP cells filled.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/dist/disttest"
	"repro/internal/serve"
	"repro/pta"
)

// TestDistCurveCacheSkipsRescatter: a repeat compression of an unchanged
// series issues zero worker requests — every shard seeds from the curve
// cache — and still answers bit-identically, stats included. A deeper
// budget fetches only the missing curve rows.
func TestDistCurveCacheSkipsRescatter(t *testing.T) {
	cluster := disttest.NewCluster(t, 3, serve.Config{})
	co := newTestCoordinator(t, cluster)
	s := fixtureSeries(t)
	b := pta.Size(s.CMin() + 2)

	first := mustCompress(t, co, s, b)
	if co.m.curveMisses.Value() == 0 {
		t.Fatal("first compression recorded no curve-cache misses")
	}
	if co.curves.len() == 0 {
		t.Fatal("no curves cached after the first compression")
	}

	shardsBefore := co.m.shards.Value()
	second := mustCompress(t, co, s, b)
	assertSameResult(t, "cached repeat", second, first)
	if second.Stats.Cells != first.Stats.Cells || second.Stats.InnerIters != first.Stats.InnerIters {
		t.Errorf("cached repeat stats %+v, want %+v (fleet cost is part of the entry)",
			second.Stats, first.Stats)
	}
	if got := co.m.shards.Value(); got != shardsBefore {
		t.Fatalf("repeat compression issued %d shard requests, want 0", got-shardsBefore)
	}
	if co.m.curveHits.Value() == 0 {
		t.Fatal("repeat compression recorded no curve hits")
	}

	// A deeper budget re-scatters only the rows the cache does not hold
	// yet; a third pass at that depth is then free again.
	deeper := pta.Size(min(s.Len(), s.CMin()+9))
	mustCompress(t, co, s, deeper)
	shardsAfterDeepen := co.m.shards.Value()
	if shardsAfterDeepen == shardsBefore {
		t.Fatal("deeper budget fetched nothing — curves cannot have been deep enough")
	}
	mustCompress(t, co, s, deeper)
	if got := co.m.shards.Value(); got != shardsAfterDeepen {
		t.Fatalf("repeat of the deeper budget issued %d shard requests, want 0", got-shardsAfterDeepen)
	}

	// The error-bound path deepens through the same cache.
	eb := pta.ErrorBound(0.4)
	firstE := mustCompress(t, co, s, eb)
	shardsAfterE := co.m.shards.Value()
	assertSameResult(t, "cached eps repeat", mustCompress(t, co, s, eb), firstE)
	if got := co.m.shards.Value(); got != shardsAfterE {
		t.Fatalf("repeat eps compression issued %d shard requests, want 0", got-shardsAfterE)
	}

	// A nil curve cache restores the always-scatter behavior.
	off := newTestCoordinator(t, cluster)
	off.curves = nil
	offFirst := mustCompress(t, off, s, b)
	offShards := off.m.shards.Value()
	assertSameResult(t, "cache off", mustCompress(t, off, s, b), offFirst)
	if got := off.m.shards.Value(); got == offShards {
		t.Fatal("disabled curve cache still skipped the re-scatter")
	}
	if off.m.curveHits.Value() != 0 || off.m.curveMisses.Value() != 0 {
		t.Fatal("disabled curve cache moved its counters")
	}
}

// TestDistCurveCacheDistinguishesOptions: the weights are part of the curve
// key — a change must re-scatter, not reuse the cached curves.
func TestDistCurveCacheDistinguishesOptions(t *testing.T) {
	cluster := disttest.NewCluster(t, 2, serve.Config{})
	co := newTestCoordinator(t, cluster)
	s := fixtureSeries(t)
	b := pta.Size(s.CMin() + 1)

	mustCompress(t, co, s, b)
	before := co.m.shards.Value()
	if _, err := co.Compress(t.Context(), s, b, pta.Options{Weights: []float64{2.5, 0.75}[:len(s.AggNames)]}); err != nil {
		t.Fatal(err)
	}
	if co.m.shards.Value() == before {
		t.Fatal("changed weights reused cached curves — wrong key")
	}
}

// workerSend drives one compress/many request directly at a worker (the
// proxy address), the way ptaload does in the CI cluster smoke.
func workerSend(t *testing.T, url string, s *pta.Series, b pta.Budget) serve.ResultWire {
	t.Helper()
	body, err := json.Marshal(serve.CompressManyRequest{
		Series: serve.EncodeSeries(s),
		Plans:  []serve.PlanWire{{Strategy: "ptac", Budget: fmt.Sprintf("c=%d", b.C())}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/compress/many", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker %s: status %d: %s", url, resp.StatusCode, data)
	}
	var out serve.ManyResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 {
		t.Fatalf("worker %s: %d results, want 1", url, len(out.Results))
	}
	return out.Results[0]
}

// workerStats fetches one worker's /v1/stats body and reads the named
// registry samples out of it, failing on any it lacks.
func workerStats(t *testing.T, url string, keys ...string) []float64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(keys))
	for i, key := range keys {
		v, ok := stats[key].(float64)
		if !ok {
			t.Fatalf("worker %s /v1/stats %s: %v is not a number", url, key, stats[key])
		}
		out[i] = v
	}
	return out
}

// TestDistPeerWarmWipeRestart is the fleet acceptance scenario from the
// shared-warm-tier work: warm the tier, kill -9 a worker, wipe its spill
// volume, restart it — and the re-driven traffic must come back as warm
// hits fetched from peers, with the restarted worker filling zero DP cells.
func TestDistPeerWarmWipeRestart(t *testing.T) {
	cluster := disttest.NewCluster(t, 3, serve.Config{})
	cluster.WirePeers()
	keeper, bystander, victim := cluster.Workers[0], cluster.Workers[1], cluster.Workers[2]
	_ = bystander // present so peer rendezvous has a cold member to skip past

	// Ten distinct series, all cold-filled on the victim (the only worker
	// holding their blobs afterwards).
	type req struct {
		s *pta.Series
		b pta.Budget
	}
	reqs := make([]req, 0, 10)
	for seed := int64(100); seed < 110; seed++ {
		s := genSeries(rand.New(rand.NewSource(seed)), "mixed")
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req{s, pta.Size(s.CMin() + 1)})
	}
	for _, r := range reqs {
		res := workerSend(t, victim.URL(), r.s, r.b)
		if res.Stats.Cells == 0 {
			t.Fatal("cold fill on the victim reported zero cells")
		}
	}

	// The keeper warms itself from the victim over the peer tier: every
	// request is a warm hit with zero fill work, and the blobs are adopted
	// into the keeper's own spill.
	for _, r := range reqs {
		res := workerSend(t, keeper.URL(), r.s, r.b)
		if res.Cache != "hit" || res.Stats.Cells != 0 {
			t.Fatalf("keeper warm-up: cache=%q cells=%d, want peer-warm hit", res.Cache, res.Stats.Cells)
		}
	}
	if cells := workerStats(t, keeper.URL(), "ptaserve_dp_cells_filled_total")[0]; cells != 0 {
		t.Fatalf("keeper ptaserve_dp_cells_filled_total = %v, want 0 (all peer-warmed)", cells)
	}

	// kill -9 the victim, lose its volume, bring it back empty.
	victim.Kill()
	victim.WipeSpill()
	victim.Restart()

	// Re-driven traffic: every previously-warm series is a hit via peer
	// fetch; the restarted worker does no DP work at all.
	hits := 0
	for _, r := range reqs {
		res := workerSend(t, victim.URL(), r.s, r.b)
		if res.Stats.Cells != 0 {
			t.Fatalf("restarted victim filled %d cells, want 0", res.Stats.Cells)
		}
		if res.Cache == "hit" {
			hits++
		}
	}
	if ratio := float64(hits) / float64(len(reqs)); ratio < 0.9 {
		t.Fatalf("warm hit ratio %.2f after wipe-and-restart, want >= 0.9", ratio)
	}
	stats := workerStats(t, victim.URL(),
		"ptaserve_dp_cells_filled_total", "ptapeer_fetch_hits_total", "ptapeer_fetch_errors_total")
	if cells := stats[0]; cells != 0 {
		t.Fatalf("restarted victim ptaserve_dp_cells_filled_total = %v, want 0", cells)
	}
	if fetched := stats[1]; fetched != float64(len(reqs)) {
		t.Fatalf("restarted victim ptapeer_fetch_hits_total = %v, want %d", fetched, len(reqs))
	}
	if errs := stats[2]; errs != 0 {
		t.Fatalf("restarted victim ptapeer_fetch_errors_total = %v, want 0", errs)
	}
}
