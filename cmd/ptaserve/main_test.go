package main

import (
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a mutex-guarded log sink: the server goroutine writes while
// the test polls.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestRunServesAndShutsDown boots the daemon on a free port, exercises
// /healthz and one /v1/compress with the shared testdata request, then
// triggers the graceful-shutdown path via SIGINT to this process.
func TestRunServesAndShutsDown(t *testing.T) {
	var buf syncBuffer
	logger := log.New(&buf, "", 0)
	done := make(chan error, 1)
	go func() {
		done <- run(options{
			addr: "127.0.0.1:0", parallel: 1, cache: 8,
			timeout: 5 * time.Second, maxBody: 1 << 20,
			spillDir:  t.TempDir(),
			admission: "reject",
		}, logger)
	}()

	// The listen address appears in the first log line.
	var base string
	for i := 0; i < 100; i++ {
		if s := buf.String(); strings.Contains(s, "listening on ") {
			line := s[strings.Index(s, "listening on ")+len("listening on "):]
			base = strings.Fields(line)[0]
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("server never logged its address: %q", buf.String())
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(metricsBody), "ptaserve_uptime_seconds") {
		t.Fatalf("metrics status %d, body %.120s", resp.StatusCode, metricsBody)
	}

	req, err := os.Open("../../internal/serve/testdata/compress_request.json")
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()
	resp, err = http.Post(base+"/v1/compress", "application/json", req)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"c":4`) {
		t.Errorf("compress response missing c=4: %s", body)
	}

	// Graceful shutdown: run() must return nil once the context fires.
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not shut down after SIGINT")
	}
	if !strings.Contains(buf.String(), "shut down cleanly") {
		t.Errorf("missing clean-shutdown log: %q", buf.String())
	}
}

// TestRunPeersNeedSpillDir: -peers without -spill-dir is refused before
// the daemon listens, with a message that names the missing flag.
func TestRunPeersNeedSpillDir(t *testing.T) {
	err := run(options{addr: "127.0.0.1:0", parallel: 1, peers: "http://127.0.0.1:1"}, log.New(io.Discard, "", 0))
	if err == nil || !strings.Contains(err.Error(), "-spill-dir") {
		t.Fatalf("run with -peers and no -spill-dir: %v, want an error naming -spill-dir", err)
	}
}
