package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/report"
	"repro/internal/server"
)

// Kernel-grain sharing between requests (the execution table of the
// server's report.Engine).

// nameSeq makes the names of registered test kernels unique, so the
// tests stay repeatable under -count.
var nameSeq atomic.Int64

// uniqueName returns prefix with a process-unique suffix.
func uniqueName(prefix string) string { return fmt.Sprintf("%s-%d", prefix, nameSeq.Add(1)) }

// countingSpec registers a fresh healthy kernel whose Setup sleeps
// delay. statics counts its static-proxy runs (StaticFactory problems
// set up) and prepares its prepares (Factory problems set up). With
// shared, the kernel has no StaticFactory, so its static job reads the
// prepare's first Solve and statics stays 0.
func countingSpec(t *testing.T, prefix string, delay time.Duration, shared bool) (name string, statics, prepares *atomic.Int64) {
	t.Helper()
	name = uniqueName(prefix)
	statics, prepares = new(atomic.Int64), new(atomic.Int64)
	factory := func(n *atomic.Int64) func() harness.Problem {
		return func() harness.Problem {
			return faultinject.New(name, faultinject.Hooks{Setup: func() error {
				n.Add(1)
				time.Sleep(delay)
				return nil
			}})
		}
	}
	sp := core.Spec{
		Name: name, Stage: core.Control, Category: "FaultInject", Dataset: "synthetic", Prec: mcu.PrecF32,
		Factory: factory(prepares),
	}
	if !shared {
		sp.StaticFactory = factory(statics)
	}
	if err := core.Register(sp); err != nil {
		t.Fatal(err)
	}
	return name, statics, prepares
}

// uncachedExport renders the uncached engine's export of kernels on
// M4 — the reference every served sweep must match byte for byte.
func uncachedExport(t *testing.T, kernels ...string) []byte {
	t.Helper()
	var specs []core.Spec
	for _, k := range kernels {
		sp, ok := core.ByName(k)
		if !ok {
			t.Fatalf("kernel %q not registered", k)
		}
		specs = append(specs, sp)
	}
	recs, err := core.CharacterizeSuiteOpts(specs, []mcu.Arch{mcu.M4}, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (report.Characterization{Records: recs}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOverlappingQueriesShareKernelWork: two concurrent queries that
// overlap in one slow kernel, but are not identical, execute its
// static run and its prepare once between them.
func TestOverlappingQueriesShareKernelWork(t *testing.T) {
	h := newTestServer()
	k, statics, prepares := countingSpec(t, "zz-overlap", 100*time.Millisecond, false)

	queries := [][]string{{k, "madgwick"}, {k}}
	recs := make([]*httptest.ResponseRecorder, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q []string) {
			defer wg.Done()
			body, _ := json.Marshal(server.SweepRequest{Kernels: q, Archs: "M4"})
			recs[i] = postSweep(t, h, string(body))
		}(i, q)
	}
	wg.Wait()
	if s, p := statics.Load(), prepares.Load(); s != 1 || p != 1 {
		t.Fatalf("%s executed %d static runs and %d prepares, want 1 and 1", k, s, p)
	}
	for i, q := range queries {
		if recs[i].Code != http.StatusOK {
			t.Fatalf("query %v: status %d: %s", q, recs[i].Code, recs[i].Body.String())
		}
		if !bytes.Equal(recs[i].Body.Bytes(), uncachedExport(t, q...)) {
			t.Fatalf("query %v: served bytes differ from the uncached export", q)
		}
	}
}

// TestDepartingLeaderKeepsWaiters: request A leads a slow kernel's
// executions and leaves at its deadline; request B, waiting on the
// same executions with no deadline, still gets the full report,
// byte-identical to the uncached engine's. A's abandoned prepare is
// led anew by B; A's static run, which finished, is shared.
func TestDepartingLeaderKeepsWaiters(t *testing.T) {
	h := newTestServer()
	k, statics, prepares := countingSpec(t, "zz-leader", 300*time.Millisecond, false)
	body := func(deadlineMS int) string {
		b, _ := json.Marshal(server.SweepRequest{Kernels: []string{k}, Archs: "M4", DeadlineMS: deadlineMS})
		return string(b)
	}

	var a *httptest.ResponseRecorder
	done := make(chan struct{})
	go func() {
		defer close(done)
		a = postSweep(t, h, body(100))
	}()
	for prepares.Load() == 0 { // wait until A leads the prepare
		select {
		case <-done:
			t.Fatalf("A finished (%d) before leading the prepare", a.Code)
		case <-time.After(time.Millisecond):
		}
	}
	b := postSweep(t, h, body(0))
	<-done

	switch a.Code {
	case http.StatusGatewayTimeout:
	case http.StatusOK:
		var rep report.JSONReport
		if err := json.Unmarshal(a.Body.Bytes(), &rep); err != nil || !rep.Partial {
			t.Fatalf("A: 200 without a partial report (%v): %s", err, a.Body.String())
		}
	default:
		t.Fatalf("A: status %d, want 504 or a partial 200: %s", a.Code, a.Body.String())
	}
	if b.Code != http.StatusOK {
		t.Fatalf("B: status %d, want 200: %s", b.Code, b.Body.String())
	}
	if s, p := statics.Load(), prepares.Load(); s != 1 || p != 2 {
		t.Fatalf("%s executed %d static runs and %d prepares, want 1 (shared) and 2 (A abandoned, B led anew)", k, s, p)
	}
	if !bytes.Equal(b.Body.Bytes(), uncachedExport(t, k)) {
		t.Fatal("B: served bytes differ from the uncached export")
	}
}
