package chaos_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cellstore"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/report"
	"repro/internal/server"
)

// The chaos soak: hostile conditions against the real serving stack,
// asserting the service guarantees of docs/server.md and
// docs/robustness.md hold — run under -race (the CI chaos-smoke job is
// `go test -race -short ./internal/chaos/`). -short scales the storm
// down, it never changes what is asserted.

var (
	sharedTransport = &http.Transport{MaxIdleConnsPerHost: 256}
	sharedClient    = &http.Client{Transport: sharedTransport}
)

// post issues one sweep POST and returns status and body.
func post(t *testing.T, baseURL, body string) (int, []byte) {
	t.Helper()
	resp, err := sharedClient.Post(baseURL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, payload
}

// mustPost is post asserting 200.
func mustPost(t *testing.T, baseURL, body string) []byte {
	t.Helper()
	status, payload := post(t, baseURL, body)
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", body, status, payload)
	}
	return payload
}

// healthz fetches the liveness probe body.
func healthz(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := sharedClient.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(payload)
}

// registerSlow registers the soak's four slow kernels, chaos-slow-0 to
// chaos-slow-3, once per process: registration is permanent, and the
// soak's queries name them.
var registerSlow = sync.OnceValue(func() error {
	for i := 0; i < 4; i++ {
		spec := faultinject.SlowSpec(fmt.Sprintf("chaos-slow-%d", i), 20*time.Millisecond)
		if err := core.Register(spec); err != nil {
			return err
		}
	}
	return nil
})

// TestChaosSoak drives the full overload-and-recovery arc against one
// server: a client storm past the admission budget (every response a
// report or a well-formed shed), an injected disk-full flipping the
// cell store into degraded read-only mode surfaced on /healthz, warm
// serving while degraded, recovery on the first successful write, and
// — the payoff — a post-recovery export byte-identical to the
// clean-path golden captured before any fault was injected.
func TestChaosSoak(t *testing.T) {
	clients, perClient := 16, 24
	if testing.Short() {
		clients, perClient = 8, 8
	}

	if err := registerSlow(); err != nil {
		t.Fatal(err)
	}

	cc, err := report.OpenCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := cc.Backing()
	store.SetProbeInterval(0) // recovery probes on every Put: the soak must not wait out the default interval

	opts := server.Options{
		Workers:     2,
		CellTimeout: 5 * time.Second,
		CellCache:   cc,
		MaxInflight: 2,
		MaxQueue:    2,
	}
	ts := httptest.NewServer(server.New(opts).Handler())
	defer ts.Close()

	// Golden: the clean-path export before any fault exists.
	const goldenQ = `{"kernels":["madgwick","chaos-slow-0"],"archs":"M4"}`
	golden := mustPost(t, ts.URL, goldenQ)
	base := runtime.NumGoroutine()

	// Phase 1 — overload storm. Bodies mix the warm golden query (free
	// admission), coalescible duplicates, and distinct cold slow sweeps
	// that blow through MaxInflight 2; with weight 3 per single-kernel
	// cold query the admission controller must shed.
	stats, err := chaos.Storm(context.Background(), ts.URL, chaos.StormOptions{
		Clients:           clients,
		RequestsPerClient: perClient,
		Client:            sharedClient,
		Bodies: []string{
			goldenQ,
			`{"kernels":["chaos-slow-0","chaos-slow-1"],"archs":"M4"}`,
			`{"kernels":["chaos-slow-1","chaos-slow-2"],"archs":"M4"}`,
			`{"kernels":["chaos-slow-2","chaos-slow-3"],"archs":"M4"}`,
			`{"kernels":["chaos-slow-3","chaos-slow-0"],"archs":"M4"}`,
		},
	})
	if err != nil {
		t.Fatalf("storm hit a contract violation: %v (stats %+v)", err, stats)
	}
	if stats.OK == 0 {
		t.Fatalf("storm produced no successful responses: %+v", stats)
	}
	if stats.ShedSync+stats.ShedBusy == 0 {
		t.Fatalf("storm past the admission budget shed nothing: %+v", stats)
	}
	t.Logf("storm: %+v", stats)

	// Phase 2 — disk full. The next cold sweep persists cells, every
	// write fails ENOSPC, and the store must degrade while the sweep
	// itself still answers 200 (a cache that cannot persist degrades to
	// computing, never to failing).
	store.SetFaultHook(chaos.DiskFullHook())
	mustPost(t, ts.URL, `{"kernels":["mahony"],"archs":"M4"}`)
	if h := healthz(t, ts.URL); !strings.Contains(h, "degraded") || !strings.Contains(h, "reason: ") {
		t.Fatalf("healthz after ENOSPC = %q, want degraded with reasons", h)
	}

	// Degraded is read-only, not down: the warm golden query still
	// serves (sweep cache and loaded cells are untouched).
	if status, payload := post(t, ts.URL, goldenQ); status != http.StatusOK {
		t.Fatalf("warm query while degraded: status %d: %s", status, payload)
	}

	// Phase 3 — heal. With the fault gone, the first Put doubles as the
	// recovery probe and the store exits degraded mode on its own.
	store.SetFaultHook(nil)
	mustPost(t, ts.URL, `{"kernels":["fourati"],"archs":"M4"}`)
	if h := healthz(t, ts.URL); h != "ok\n" {
		t.Fatalf("healthz after recovery = %q, want ok", h)
	}

	// Phase 4 — the clean path survived the excursion: re-running the
	// golden query cold (a restarted server with an empty memo, cells
	// now loading from the recovered store) must reproduce the golden
	// bytes.
	restarted := httptest.NewServer(server.New(opts).Handler())
	again := mustPost(t, restarted.URL, goldenQ)
	restarted.Close()
	if !bytes.Equal(golden, again) {
		t.Fatalf("post-recovery export differs from clean-path golden:\n%s\n---\n%s", golden, again)
	}

	// Phase 5 — no goroutine leaks: once idle connections close, the
	// process returns to its pre-storm baseline.
	sharedTransport.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: baseline %d, now %d — storm or recovery leaked", base, runtime.NumGoroutine())
}

// TestFlakyBackendContainment: an injected measurement failure costs
// exactly its own cell — the sweep completes, carries failures, and
// keeps every other cell.
func TestFlakyBackendContainment(t *testing.T) {
	report.InvalidateCharacterization()
	defer report.InvalidateCharacterization()

	var specs []core.Spec
	for _, sp := range core.Suite() {
		if sp.Name == "madgwick" || sp.Name == "mahony" {
			specs = append(specs, sp)
		}
	}
	if len(specs) != 2 {
		t.Fatalf("suite lookup found %d of 2 kernels", len(specs))
	}
	arch, ok := mcu.ByName("M4")
	if !ok {
		t.Fatal("arch M4 not registered")
	}

	flaky := &chaos.FlakyBackend{Inner: harness.SimBackend{}, EveryN: 2}
	c, err := report.RunSweepQuery(specs, []mcu.Arch{arch}, core.SweepOptions{Backend: flaky})
	if err == nil {
		t.Fatal("sweep over a flaky backend reported no cell failures")
	}
	if len(c.Records) != 2 {
		t.Fatalf("flaky sweep lost records: got %d, want 2", len(c.Records))
	}
	if !c.Partial() {
		t.Fatal("flaky sweep not marked partial")
	}
}

// TestIntermittentFaultRetryAbsorbs: a transiently flaky disk is the
// retry loop's job — every Put lands, nothing degrades, and every
// record reads back.
func TestIntermittentFaultRetryAbsorbs(t *testing.T) {
	st, err := cellstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetFaultHook(chaos.IntermittentHook("put", 2, syscall.EIO))
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("cell-%02d", i)
		if err := st.Put(key, []byte(fmt.Sprintf(`{"v":%d}`, i))); err != nil {
			t.Fatalf("Put %s through intermittent faults: %v", key, err)
		}
	}
	if degraded, reason := st.Degraded(); degraded {
		t.Fatalf("intermittent faults degraded the store: %s", reason)
	}
	st.SetFaultHook(nil)
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("cell-%02d", i)
		if _, ok := st.Get(key); !ok {
			t.Fatalf("record %s lost", key)
		}
	}
}
