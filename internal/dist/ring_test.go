package dist

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/serve"
)

func ringWorkers(n int) []string {
	ws := make([]string, n)
	for i := range ws {
		ws[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return ws
}

func without(ws []string, victim string) []string {
	out := make([]string, 0, len(ws)-1)
	for _, w := range ws {
		if w != victim {
			out = append(out, w)
		}
	}
	return out
}

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("series-%d", i)
	}
	return keys
}

// primary is the worker a key routes to first, or "" over no workers.
func primary(ws []string, key string) string {
	if order := serve.RendezvousOrder(ws, key); len(order) > 0 {
		return order[0]
	}
	return ""
}

// TestRingDeterministicRouting: the same membership set routes the same
// key to the same worker in rendezvous order, regardless of listing order
// or how often the order is computed; the coordinator routes by it.
func TestRingDeterministicRouting(t *testing.T) {
	ws := ringWorkers(5)
	reversed := make([]string, len(ws))
	for i, w := range ws {
		reversed[len(ws)-1-i] = w
	}
	co, err := New(WithWorkers(ws...))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range ringKeys(300) {
		a, b, c := primary(ws, key), primary(reversed, key), primary(ws, key)
		if a != b {
			t.Fatalf("key %q: order-dependent routing (%s vs %s)", key, a, b)
		}
		if a != c {
			t.Fatalf("key %q: non-deterministic routing (%s vs %s)", key, a, c)
		}
		if got := co.route(key)[0]; got != a {
			t.Fatalf("key %q: coordinator routes to %s, rendezvous order to %s", key, got, a)
		}
	}
}

// TestRingSequence: the failover walk starts at the primary and visits
// distinct workers, covering the whole fleet; over no workers it is empty.
func TestRingSequence(t *testing.T) {
	ws := ringWorkers(4)
	for _, key := range ringKeys(50) {
		seq := serve.RendezvousOrder(ws, key)
		if len(seq) != len(ws) {
			t.Fatalf("key %q: sequence has %d workers, want %d", key, len(seq), len(ws))
		}
		if seq[0] != primary(ws, key) {
			t.Fatalf("key %q: sequence does not start at the primary", key)
		}
		seen := map[string]bool{}
		for _, w := range seq {
			if seen[w] {
				t.Fatalf("key %q: duplicate worker %s in failover sequence", key, w)
			}
			seen[w] = true
		}
	}
	if got := serve.RendezvousOrder(ws[:2], "k"); len(got) != 2 {
		t.Fatalf("order over 2 workers returned %d workers", len(got))
	}
	if got := primary(nil, "k"); got != "" {
		t.Fatalf("no workers routed to %q", got)
	}
}

// TestRingMinimalDisruption (table-driven): removing one worker moves only
// the keys it owned, adding one moves keys only onto it, and the moved
// fraction stays near K/N.
func TestRingMinimalDisruption(t *testing.T) {
	const K = 4000
	keys := ringKeys(K)
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"n3", 3},
		{"n5", 5},
		{"n8", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := ringWorkers(tc.n)
			victim := ws[tc.n/2]
			survivors := without(ws, victim)

			moved := 0
			for _, key := range keys {
				was, now := primary(ws, key), primary(survivors, key)
				if now == victim {
					t.Fatalf("key %q still routed to removed worker", key)
				}
				if was == victim {
					moved++
					continue
				}
				if was != now {
					t.Fatalf("key %q moved between surviving workers (%s -> %s)", key, was, now)
				}
			}
			// Expected ≈ K/N; allow generous slack for hash variance.
			lo, hi := K/(4*tc.n), 3*K/tc.n
			if moved < lo || moved > hi {
				t.Fatalf("removal moved %d of %d keys, want within [%d, %d] (~K/N = %d)",
					moved, K, lo, hi, K/tc.n)
			}

			// Adding a fresh worker moves keys only onto it.
			joined := append(without(ws, victim), "http://10.0.0.99:8080")
			movedTo := 0
			for _, key := range keys {
				was, now := primary(survivors, key), primary(joined, key)
				if was == now {
					continue
				}
				if now != "http://10.0.0.99:8080" {
					t.Fatalf("key %q moved to %s, not the joining worker", key, now)
				}
				movedTo++
			}
			if movedTo < lo || movedTo > hi {
				t.Fatalf("join moved %d of %d keys, want within [%d, %d]", movedTo, K, lo, hi)
			}
		})
	}
}

// TestRingDisruptionProperty (quick.Check): over random fleet sizes and
// key sets, removal never reshuffles keys between survivors.
func TestRingDisruptionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		ws := ringWorkers(n)
		victim := ws[rng.Intn(n)]
		survivors := without(ws, victim)
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("q-%d-%d", seed, i)
			was, now := primary(ws, key), primary(survivors, key)
			if was == victim {
				if now == victim {
					return false
				}
			} else if was != now {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
