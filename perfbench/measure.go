package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// workload is one benchmark workload. setup does everything before the
// first timed operation; measure is the untraced run reporting the
// end-to-end metrics; traced is the traced run reporting the per-layer
// metrics.
type workload interface {
	setup(b *bench) error
	measure(b *bench) (result, error)
	traced(b *bench) (result, error)
	close()
}

var workloads = map[string]func() workload{
	"cold-sweep": func() workload { return &sweepWorkload{} },
	"warm-sweep": func() workload { return &sweepWorkload{warm: true} },
	"daemon-mix": func() workload { return &daemonWorkload{} },
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is the state every workload shares.
type bench struct {
	cfg config
	tr  *tracer // nil on an untraced run
}

// Closed-loop run lengths. An untraced run measures for --seconds and
// at least minOpsP90 operations, so its p90 rests on ten slower
// samples; each half of a traced run needs only a p50.
const (
	minOpsP90  = 100
	minOpsP50  = 20
	hardCapSec = 120 // never extend a run past this, to finish within the harness limit
)

// phase is what one measured window produced.
type phase struct {
	lat    []float64 // per-op latency in ms, in op order
	failed int
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64 // heap bytes allocated
}

// meter brackets a measured window with process CPU time and heap
// allocation readings.
type meter struct {
	start time.Time
	cpu   time.Duration
	alloc uint64
}

func startMeter() meter { return meter{time.Now(), cpuTime(), allocBytes()} }

func (m meter) stop(p *phase) {
	p.wall = time.Since(m.start)
	p.cpu = cpuTime() - m.cpu
	p.alloc = allocBytes() - m.alloc
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocBytes is the cumulative heap bytes allocated by the process.
func allocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// heapLiveMiB is the live heap after two forced collections: memory the
// process retains (memos, dataset masters, caches), not garbage.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(readMetric("/gc/heap/live:bytes")) / (1 << 20)
}

// closedLoop runs op back to back on the calling goroutine for at least
// seconds and at least minOps operations.
func closedLoop(seconds float64, minOps int, op func() error) phase {
	var p phase
	want := time.Duration(seconds * float64(time.Second))
	m := startMeter()
	for {
		el := time.Since(m.start)
		if (el >= want && len(p.lat) >= minOps) || el >= hardCapSec*time.Second {
			break
		}
		t0 := time.Now()
		err := op()
		p.lat = append(p.lat, float64(time.Since(t0))/1e6)
		if err != nil {
			p.failed++
			if p.failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", len(p.lat), err)
			}
		}
	}
	m.stop(&p)
	return p
}

// endToEnd turns an untraced phase into the end-to-end metrics.
// throughput is ops per second as the workload defines it.
func endToEnd(workload string, p phase, throughput float64) (map[string]metric, error) {
	n := len(p.lat)
	if n == 0 {
		return nil, fmt.Errorf("no operations completed")
	}
	s := sortedCopy(p.lat)
	reportSpread(workload, s)
	steadyGuard(workload, p.lat)
	m := map[string]metric{
		"latency_ms.p50":  {percentile(s, 50), "ms"},
		"ops_per_s":       {throughput, "1/s"},
		"cpu_ms_per_op":   {float64(p.cpu) / 1e6 / float64(n), "ms"},
		"alloc_mb_per_op": {float64(p.alloc) / (1 << 20) / float64(n), "MiB"},
		"heap_live_mb":    {heapLiveMiB(), "MiB"},
	}
	if !supports(n, 90) {
		return nil, fmt.Errorf("%d operations cannot support a p90", n)
	}
	m["latency_ms.p90"] = metric{percentile(s, 90), "ms"}
	return m, nil
}

// reportSpread prints the run's latency quartiles and tail, so the
// spread behind the medians is visible.
func reportSpread(workload string, sorted []float64) {
	n := len(sorted)
	q1, q3 := quartiles(sorted)
	tail := ""
	if p, ok := highestSupported(n, []float64{90, 99, 99.9}); ok {
		tail = fmt.Sprintf(" p%g %.3f", p, percentile(sorted, p))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s latency_ms n=%d q1 %.3f p50 %.3f q3 %.3f%s\n",
		workload, n, q1, percentile(sorted, 50), q3, tail)
}

// driftLimit is the relative change between the first and the last
// tenth of a run's operations beyond which the run is flagged as not in
// steady state.
const driftLimit = 0.20

// steadyGuard compares the p50 latency of the first tenth of the
// operations with that of the last tenth and flags the run when per-op
// cost drifted, for example a cell store growing or a memo still
// warming. It returns whether the run was steady.
func steadyGuard(workload string, lat []float64) bool {
	k := len(lat) / 10
	if k < 1 {
		return true
	}
	first, last := median(lat[:k]), median(lat[len(lat)-k:])
	drift := last/first - 1
	verdict := "steady"
	ok := drift <= driftLimit && drift >= -driftLimit
	if !ok {
		verdict = "DRIFT"
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s steady-state guard: first-tenth p50 %.3f ms, last-tenth p50 %.3f ms (%+.1f%%): %s\n",
		workload, first, last, 100*drift, verdict)
	return ok
}
