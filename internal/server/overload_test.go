package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
)

// White-box coverage of the overload surface (docs/server.md "Overload
// & degraded mode"): the admission controller's budget/queue mechanics,
// the shed wire shape (429/503 + Retry-After + machine-readable body),
// request validation, deadline resolution, bounded job retention, and
// the degraded /healthz report. These tests hold the admission budget
// directly (s.adm.tryAcquire) instead of racing slow sweeps, so every
// shed is deterministic. This file runs in the internal test package
// and registers no kernels.

// overloadBody is a cheap query, fresh on every new server.
const overloadBody = `{"kernels":["madgwick"],"archs":"M4"}`

// post drives one request through the handler without a listener.
func post(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body)))
	return rec
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func decodeError(t *testing.T, rec *httptest.ResponseRecorder) ErrorBody {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("error body not JSON: %q (%v)", rec.Body.String(), err)
	}
	return eb
}

// checkShed asserts the full shed wire contract: the status, the
// Retry-After header, and the machine-readable body mirroring it.
func checkShed(t *testing.T, rec *httptest.ResponseRecorder, status int) {
	t.Helper()
	if rec.Code != status {
		t.Fatalf("status = %d, want %d: %s", rec.Code, status, rec.Body.String())
	}
	ra := rec.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("shed response missing Retry-After header")
	}
	secs, err := time.ParseDuration(ra + "s")
	if err != nil || secs < time.Second {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", ra)
	}
	eb := decodeError(t, rec)
	if eb.Code != ErrCodeOverloaded {
		t.Fatalf("code = %q, want %q", eb.Code, ErrCodeOverloaded)
	}
	if eb.RetryAfterMS < 1000 {
		t.Fatalf("retry_after_ms = %d, want >= 1000", eb.RetryAfterMS)
	}
	if eb.Error == "" {
		t.Fatal("shed body lost its error message")
	}
}

// TestSweepWeight: a request's admission weight is the sweep engine's
// job count — one static job per kernel plus two cells per fitting
// board — over the kernels whose executions are still missing, and 0
// once the memo or the execution table covers the query.
func TestSweepWeight(t *testing.T) {
	eng := report.NewEngine(0)
	sp, ok := core.ByName("madgwick")
	if !ok {
		t.Fatal("madgwick left the suite")
	}
	m4, err := mcu.ResolveArchs("M4")
	if err != nil {
		t.Fatal(err)
	}
	m33m4, err := mcu.ResolveArchs("M33,M4")
	if err != nil {
		t.Fatal(err)
	}
	m4m33, err := mcu.ResolveArchs("M4,M33")
	if err != nil {
		t.Fatal(err)
	}
	specs := []core.Spec{sp}
	weight := func(archs []mcu.Arch) int { return eng.Weight(report.NewQuery(specs, archs, nil)) }
	if got := weight(m4); got != 3 {
		t.Fatalf("cold weight = %d, want 3 (1 static + 2 cells)", got)
	}
	if _, err := eng.Sweep(report.NewQuery(specs, m4, nil), core.SweepOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if got := weight(m4); got != 0 {
		t.Fatalf("memo-hit weight = %d, want 0", got)
	}
	// The memo misses a new board set, in either order, but the
	// kernel's execution is held: only arithmetic is left.
	for _, archs := range [][]mcu.Arch{m4m33, m33m4} {
		if got := weight(archs); got != 0 {
			t.Fatalf("held-execution weight on %s first = %d, want 0", archs[0].Name, got)
		}
	}
	if got := eng.Weight(report.NewQuery(nil, nil, nil)); got != 0 {
		t.Fatalf("empty weight = %d, want 0", got)
	}
}

// TestAdmissionBudget: an idle controller admits anything (even a query
// heavier than the whole budget), a busy one refuses what does not fit,
// and release restores capacity.
func TestAdmissionBudget(t *testing.T) {
	a := newAdmission(10, 0)
	if !a.tryAcquire(100) {
		t.Fatal("idle controller refused an oversized query")
	}
	if a.tryAcquire(1) {
		t.Fatal("over-budget controller admitted more work")
	}
	a.release(100, time.Millisecond)
	if !a.tryAcquire(1) {
		t.Fatal("released budget not reusable")
	}
}

// TestAdmissionQueueFIFOAndEviction: queued async jobs dispatch oldest
// first when capacity frees, a full queue evicts (sheds) its oldest
// entry for the newcomer, and with no queue the newcomer is refused.
func TestAdmissionQueueFIFOAndEviction(t *testing.T) {
	a := newAdmission(10, 2)
	if !a.tryAcquire(10) {
		t.Fatal("could not fill the budget")
	}
	starts := make(chan string, 3)
	sheds := make(chan string, 3)
	// Weight 6 on a capacity of 10: only one queued job fits at a time,
	// so dispatch order is observable (concurrently dispatched jobs that
	// all fit would race their start goroutines).
	mk := func(id string) *queuedSweep {
		return &queuedSweep{
			weight: 6,
			start:  func() { starts <- id },
			shed:   func() { sheds <- id },
		}
	}
	for _, id := range []string{"q1", "q2", "q3"} {
		if !a.submitAsync(mk(id)) {
			t.Fatalf("%s refused with queue space available", id)
		}
	}
	select {
	case id := <-sheds:
		if id != "q1" {
			t.Fatalf("evicted %s, want the oldest (q1)", id)
		}
	default:
		t.Fatal("overflowing the queue evicted nothing")
	}
	if n := a.queueLen(); n != 2 {
		t.Fatalf("queue length = %d, want 2", n)
	}
	a.release(10, time.Millisecond) // idle: dispatches q2 (6), q3 (6) does not fit
	select {
	case id := <-starts:
		if id != "q2" {
			t.Fatalf("dispatched %s, want q2 (FIFO)", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("q2 never dispatched after release")
	}
	select {
	case id := <-starts:
		t.Fatalf("%s dispatched without capacity", id)
	default:
	}
	a.release(6, time.Millisecond) // q2's share back: q3 dispatches
	select {
	case id := <-starts:
		if id != "q3" {
			t.Fatalf("dispatched %s, want q3", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("q3 never dispatched after release")
	}
	if n := a.queueLen(); n != 0 {
		t.Fatalf("queue length after dispatch = %d, want 0", n)
	}

	b := newAdmission(5, 0)
	b.tryAcquire(5)
	if b.submitAsync(mk("q4")) {
		t.Fatal("queueless controller parked a job instead of refusing")
	}
}

// TestRetryAfterClamp: the Retry-After estimate tracks recent sweep
// wall time but never leaves [1s, 60s].
func TestRetryAfterClamp(t *testing.T) {
	a := newAdmission(0, 0)
	if got := a.retryAfter(); got != retryAfterMin {
		t.Fatalf("fresh retryAfter = %v, want min %v", got, retryAfterMin)
	}
	a.observe(10 * time.Millisecond)
	if got := a.retryAfter(); got != retryAfterMin {
		t.Fatalf("fast-sweep retryAfter = %v, want min clamp %v", got, retryAfterMin)
	}
	for i := 0; i < 50; i++ {
		a.observe(10 * time.Minute)
	}
	if got := a.retryAfter(); got != retryAfterMax {
		t.Fatalf("slow-sweep retryAfter = %v, want max clamp %v", got, retryAfterMax)
	}
}

// TestValidationNegativeFields: each out-of-range numeric wire field is
// a 400 naming itself in the machine-readable body.
func TestValidationNegativeFields(t *testing.T) {
	h := New(Options{Workers: 2}).Handler()
	cases := []struct {
		field, body string
	}{
		{"workers", `{"workers":-1}`},
		{"cell_timeout_ms", `{"cell_timeout_ms":-5}`},
		{"deadline_ms", `{"deadline_ms":-100}`},
	}
	for _, c := range cases {
		t.Run(c.field, func(t *testing.T) {
			rec := post(h, c.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", rec.Code, rec.Body.String())
			}
			eb := decodeError(t, rec)
			if eb.Code != ErrCodeBadRequest {
				t.Fatalf("code = %q, want %q", eb.Code, ErrCodeBadRequest)
			}
			if eb.Field != c.field {
				t.Fatalf("field = %q, want %q", eb.Field, c.field)
			}
		})
	}
}

// TestSyncShedAndRecovery: a synchronous request that does not fit the
// in-flight budget sheds with the full 429 contract and counts on
// server.shed_total; the same request succeeds once capacity frees; and
// once its query is warm it bypasses admission entirely, succeeding
// even with the budget exhausted.
func TestSyncShedAndRecovery(t *testing.T) {
	obs.ResetCounters()
	s := New(Options{Workers: 2, MaxInflight: 1})
	h := s.Handler()

	if !s.adm.tryAcquire(1) {
		t.Fatal("could not fill the budget")
	}
	checkShed(t, post(h, overloadBody), http.StatusTooManyRequests)
	if n := obs.Counters()[obs.CounterServerShedTotal]; n != 1 {
		t.Fatalf("shed_total = %d, want 1", n)
	}

	s.adm.release(1, time.Millisecond)
	if rec := post(h, overloadBody); rec.Code != http.StatusOK {
		t.Fatalf("post-recovery status = %d, want 200: %s", rec.Code, rec.Body.String())
	}

	// Warm-path bypass: the query is now cached, so it is admission-
	// exempt — shedding it would discard work already paid for.
	if !s.adm.tryAcquire(1) {
		t.Fatal("could not re-fill the budget")
	}
	if rec := post(h, overloadBody); rec.Code != http.StatusOK {
		t.Fatalf("warm query shed despite cache: %d %s", rec.Code, rec.Body.String())
	}
	if n := obs.Counters()[obs.CounterServerShedTotal]; n != 1 {
		t.Fatalf("shed_total after warm bypass = %d, want still 1", n)
	}
	s.adm.release(1, time.Millisecond)
}

// TestAsyncEvictionShed: with the budget held and a one-slot queue, a
// second async submission evicts the first; the evicted job polls 503
// with the shed contract, its SSE stream terminates with an error
// frame, and the survivor runs to completion once capacity frees.
func TestAsyncEvictionShed(t *testing.T) {
	obs.ResetCounters()
	s := New(Options{Workers: 2, MaxInflight: 1, MaxQueue: 1})
	h := s.Handler()
	if !s.adm.tryAcquire(1) {
		t.Fatal("could not fill the budget")
	}

	submit := func(body string) SweepAccepted {
		rec := post(h, body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("async submit = %d, want 202: %s", rec.Code, rec.Body.String())
		}
		var acc SweepAccepted
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
			t.Fatal(err)
		}
		return acc
	}
	evicted := submit(`{"kernels":["madgwick"],"archs":"M4","async":true}`)
	survivor := submit(`{"kernels":["mahony"],"archs":"M4","async":true}`)

	checkShed(t, get(h, evicted.Result), http.StatusServiceUnavailable)
	// Polling the shed job again repeats the response without counting
	// a second shed.
	checkShed(t, get(h, evicted.Result), http.StatusServiceUnavailable)
	if n := obs.Counters()[obs.CounterServerShedTotal]; n != 1 {
		t.Fatalf("shed_total = %d, want 1 (polls never recount)", n)
	}

	// The shed job's SSE stream terminates immediately with an error
	// frame carrying the eviction message.
	ev := get(h, evicted.Events)
	if ev.Code != http.StatusOK || !strings.Contains(ev.Body.String(), "event: "+SSEEventError) {
		t.Fatalf("shed SSE = %d %q, want an %s frame", ev.Code, ev.Body.String(), SSEEventError)
	}

	s.adm.release(1, time.Millisecond)
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec := get(h, survivor.Result)
		if rec.Code == http.StatusOK {
			break
		}
		if rec.Code != http.StatusAccepted {
			t.Fatalf("survivor poll = %d: %s", rec.Code, rec.Body.String())
		}
		if time.Now().After(deadline) {
			t.Fatal("survivor never completed after release")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAsyncRefusedWithoutQueue: MaxQueue < 0 disables queueing, so an
// over-budget async submission is refused outright with 503 — and the
// never-disclosed job handle does not linger in the table.
func TestAsyncRefusedWithoutQueue(t *testing.T) {
	s := New(Options{Workers: 2, MaxInflight: 1, MaxQueue: -1})
	h := s.Handler()
	if !s.adm.tryAcquire(1) {
		t.Fatal("could not fill the budget")
	}
	checkShed(t, post(h, `{"kernels":["madgwick"],"archs":"M4","async":true}`), http.StatusServiceUnavailable)
	s.jobs.mu.Lock()
	n := len(s.jobs.m)
	s.jobs.mu.Unlock()
	if n != 0 {
		t.Fatalf("refused submission left %d job handles behind", n)
	}
	s.adm.release(1, time.Millisecond)
}

// TestSweepDeadlineResolution: -maxdeadline caps the request value and
// applies as the default when the request carries none.
func TestSweepDeadlineResolution(t *testing.T) {
	cases := []struct {
		max   time.Duration
		reqMS int
		want  time.Duration
	}{
		{0, 0, 0},
		{0, 100, 100 * time.Millisecond},
		{50 * time.Millisecond, 0, 50 * time.Millisecond},
		{50 * time.Millisecond, 100, 50 * time.Millisecond},
		{time.Second, 100, 100 * time.Millisecond},
	}
	for _, c := range cases {
		s := New(Options{MaxDeadline: c.max})
		req := SweepRequest{DeadlineMS: c.reqMS}
		if got := s.sweepDeadline(req); got != c.want {
			t.Fatalf("sweepDeadline(max=%v, req=%dms) = %v, want %v", c.max, c.reqMS, got, c.want)
		}
	}
}

// TestJobRingRetention: the finished-job ring keeps exactly the
// configured number of handles, evicting oldest first in O(1).
func TestJobRingRetention(t *testing.T) {
	var tbl jobTable
	tbl.init(2)
	a, b, c := tbl.create(StateRunning), tbl.create(StateRunning), tbl.create(StateRunning)
	for _, j := range []*job{a, b, c} {
		tbl.retire(j.id)
	}
	if _, ok := tbl.lookup(a.id); ok {
		t.Fatal("oldest finished job survived past the retention cap")
	}
	for _, j := range []*job{b, c} {
		if _, ok := tbl.lookup(j.id); !ok {
			t.Fatalf("job %s evicted while within the retention cap", j.id)
		}
	}
}

// TestJobRetentionOverHTTP: with -maxjobs 1, finishing a second sweep
// forgets the first — its id answers 404 while the newest stays
// servable.
func TestJobRetentionOverHTTP(t *testing.T) {
	h := New(Options{Workers: 2, MaxFinishedJobs: 1}).Handler()
	first := post(h, `{"kernels":["madgwick"],"archs":"M4"}`)
	if first.Code != http.StatusOK {
		t.Fatalf("first sweep = %d: %s", first.Code, first.Body.String())
	}
	firstID := first.Header().Get(SweepIDHeader)
	second := post(h, `{"kernels":["mahony"],"archs":"M4"}`)
	if second.Code != http.StatusOK {
		t.Fatalf("second sweep = %d: %s", second.Code, second.Body.String())
	}
	secondID := second.Header().Get(SweepIDHeader)

	if rec := get(h, "/v1/sweep/"+firstID); rec.Code != http.StatusNotFound {
		t.Fatalf("evicted job poll = %d, want 404", rec.Code)
	}
	if rec := get(h, "/v1/sweep/"+secondID); rec.Code != http.StatusOK {
		t.Fatalf("retained job poll = %d, want 200", rec.Code)
	}
}

// TestHealthzDegradedAndBack: a persistent cell store flipped read-only
// by disk-full surfaces on /healthz as "degraded" with a reason — still
// 200, the process is alive — and the first successful write probe
// restores "ok".
func TestHealthzDegradedAndBack(t *testing.T) {
	cc, err := report.OpenCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := New(Options{CellCache: cc}).Handler()

	if rec := get(h, "/healthz"); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("healthy healthz = %d %q, want 200 \"ok\\n\"", rec.Code, rec.Body.String())
	}

	cc.Backing().SetProbeInterval(0) // probe on every Put (test speed)
	cc.Backing().SetFaultHook(func(op, key string) error { return syscall.ENOSPC })
	if err := cc.Backing().Put("zz-probe", []byte(`{"v":1}`)); err == nil {
		t.Fatal("disk-full Put succeeded")
	}
	rec := get(h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded healthz status = %d, want 200 (alive, just read-only)", rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if lines[0] != "degraded" || len(lines) < 2 || !strings.HasPrefix(lines[1], "reason: ") {
		t.Fatalf("degraded healthz body = %q, want \"degraded\" + reason lines", rec.Body.String())
	}

	cc.Backing().SetFaultHook(nil)
	if err := cc.Backing().Put("zz-probe", []byte(`{"v":1}`)); err != nil {
		t.Fatalf("recovery probe Put: %v", err)
	}
	if rec := get(h, "/healthz"); rec.Body.String() != "ok\n" {
		t.Fatalf("post-recovery healthz = %q, want \"ok\\n\"", rec.Body.String())
	}
}
