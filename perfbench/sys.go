package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMiB reads the process's VmHWM: the server, its mmap'd spill slabs
// and the client all live in this one process, so this is their joint peak.
func peakRSSMiB() (float64, error) { return procStatusMiB("VmHWM") }

// procStatusMiB reads a memory field of /proc/self/status.
func procStatusMiB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// resetPeakRSS returns the memory that earlier set-ups left as garbage to
// the system, then restarts the VmHWM high-water mark at the current RSS,
// so that peakRSSMiB after a phase reports that phase's peak. It returns
// the RSS the phase starts from.
func resetPeakRSS() (float64, error) {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("reset peak RSS: %w", err)
	}
	return procStatusMiB("VmRSS")
}

// procSample is a snapshot of the process counters a phase is charged by.
type procSample struct {
	wall    time.Time
	cpu     time.Duration // user + system
	allocB  uint64
	allocN  uint64
	gcCount uint64
}

var runtimeNames = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	rm := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		rm[i].Name = n
	}
	metrics.Read(rm)
	return procSample{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:  rm[0].Value.Uint64(),
		allocN:  rm[1].Value.Uint64(),
		gcCount: rm[2].Value.Uint64(),
	}
}

// runtimeMetrics charges the process counters between two samples to ops.
func runtimeMetrics(a, b procSample, ops, cpus int) map[string]float64 {
	per := func(v float64) float64 { return v / float64(max(ops, 1)) }
	cpu := b.cpu - a.cpu
	wall := b.wall.Sub(a.wall)
	return map[string]float64{
		"runtime.cpu_ms_per_op":   per(ms(cpu)),
		"runtime.cpu_util":        cpu.Seconds() / (wall.Seconds() * float64(cpus)),
		"runtime.alloc_kb_per_op": per(float64(b.allocB-a.allocB) / 1024),
		"runtime.allocs_per_op":   per(float64(b.allocN - a.allocN)),
		"runtime.gc_per_kop":      per(float64(b.gcCount-a.gcCount)) * 1000,
	}
}
