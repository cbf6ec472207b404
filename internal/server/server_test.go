package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/server"
)

// The wire-surface contract: every route answers what docs/server.md
// promises, a served sweep is byte-identical to the CLI export,
// identical concurrent queries execute each kernel once, and
// a fault-injected kernel degrades the report (failures block, 200) —
// never the server (500). Each test builds its own server, so no memo
// or execution table carries over between tests.

// newTestServer builds a handler-under-test around a small worker pool.
func newTestServer() http.Handler {
	return server.New(server.Options{Workers: 4}).Handler()
}

// smallSweepBody is the cheap query most tests use: one kernel on one
// core, ~10 ms instead of the multi-second full grid.
const smallSweepBody = `{"kernels":["madgwick"],"archs":"M4"}`

// postSweep fires one synchronous POST /v1/sweep against h.
func postSweep(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	h := newTestServer()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz = %d %q, want 200 \"ok\\n\"", rec.Code, rec.Body.String())
	}
}

// TestIntrospection: /v1/kernels and /v1/boards mirror the live
// registries — same cardinality, same names, same order.
func TestIntrospection(t *testing.T) {
	h := newTestServer()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/kernels", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("kernels status = %d", rec.Code)
	}
	var kr struct {
		Kernels []server.Kernel `json:"kernels"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &kr); err != nil {
		t.Fatal(err)
	}
	suite := core.Suite()
	if len(kr.Kernels) != len(suite) {
		t.Fatalf("kernels = %d, suite = %d", len(kr.Kernels), len(suite))
	}
	for i, sp := range suite {
		if kr.Kernels[i].Name != sp.Name {
			t.Fatalf("kernel[%d] = %q, want %q", i, kr.Kernels[i].Name, sp.Name)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/boards", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("boards status = %d", rec.Code)
	}
	var br struct {
		Boards []report.JSONBoard `json:"boards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	all := mcu.All()
	if len(br.Boards) != len(all) {
		t.Fatalf("boards = %d, registry = %d", len(br.Boards), len(all))
	}
	for i, a := range all {
		if br.Boards[i].Name != a.Name {
			t.Fatalf("board[%d] = %q, want %q", i, br.Boards[i].Name, a.Name)
		}
	}
}

// TestMetrics: the Prometheus endpoint exports every registered obs
// counter under the entobench_ prefix, and the request counter moves.
func TestMetrics(t *testing.T) {
	h := newTestServer()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, name := range []string{
		"entobench_server_requests",
		"entobench_sweep_cache_hit",
		"entobench_sweep_cache_coalesced",
	} {
		if !strings.Contains(body, "# TYPE "+name+" counter\n") {
			t.Errorf("metrics missing %s", name)
		}
	}
}

// TestSweepBadRequests: resolution and parse failures are 400s with
// the JSON error envelope — never 500s, never empty bodies.
func TestSweepBadRequests(t *testing.T) {
	h := newTestServer()
	cases := []struct {
		name, body string
	}{
		{"unknown-kernel", `{"kernels":["no-such-kernel"]}`},
		{"unknown-arch", `{"archs":"no-such-core"}`},
		{"malformed-json", `{"kernels":`},
		{"unknown-field", `{"kernelz":["madgwick"]}`},
		{"trailing-values", `{"async":true} {"workers":-1} garbage`},
		{"trailing-bracket", `{}]`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := postSweep(t, h, c.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", rec.Code, rec.Body.String())
			}
			var eb server.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("error envelope missing: %q (%v)", rec.Body.String(), err)
			}
		})
	}
}

func TestSweepResultUnknownID(t *testing.T) {
	h := newTestServer()
	for _, path := range []string{"/v1/sweep/s999", "/v1/sweep/s999/events"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, rec.Code)
		}
	}
}

// TestSweepByteIdenticalToCLI: the served report for a query is
// byte-for-byte what `entobench sweep -json` emits for the same query
// (both sides render report.Characterization.WriteJSON over the same
// cached records). Repeated kernel and board names count once, so a
// query that repeats madgwick and M4 is the madgwick-on-M4 query.
func TestSweepByteIdenticalToCLI(t *testing.T) {
	report.InvalidateCharacterization()
	h := newTestServer()

	sp, ok := core.ByName("madgwick")
	if !ok {
		t.Fatal("madgwick left the suite")
	}
	archs, err := mcu.ResolveArchs("M4")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, body string }{
		{"single", smallSweepBody},
		{"repeated-names", `{"kernels":["madgwick","madgwick"],"archs":"M4,M4"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := postSweep(t, h, tc.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
			}
			if rec.Header().Get(server.SweepIDHeader) == "" {
				t.Error("response lost its " + server.SweepIDHeader + " header")
			}
			c, err := report.RunSweepQuery([]core.Spec{sp}, archs, core.SweepOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := c.WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Fatalf("served sweep differs from the CLI export:\nserved %d bytes\ndirect %d bytes",
					rec.Body.Len(), want.Len())
			}
		})
	}
}

// TestSweepCoalesces: each kernel executes once. N identical concurrent
// requests over kernels with a StaticFactory run each static-proxy
// problem and each prepare exactly once — every request sweeps on its
// own (any number may miss the memo) but they share kernel executions
// through the execution table — and every client gets identical bytes.
func TestSweepCoalesces(t *testing.T) { checkExecutesOnce(t, false) }

// TestSweepCoalescesSharedFactory: for kernels without a StaticFactory
// the static job reads the prepare's first Solve, so N identical
// concurrent requests set up each kernel's Factory problem exactly once
// and build no other problem.
func TestSweepCoalescesSharedFactory(t *testing.T) { checkExecutesOnce(t, true) }

func checkExecutesOnce(t *testing.T, shared bool) {
	obs.ResetCounters()
	h := newTestServer()
	a, aStatic, aPrep := countingSpec(t, "coalesce-a", 20*time.Millisecond, shared)
	b, bStatic, bPrep := countingSpec(t, "coalesce-b", 20*time.Millisecond, shared)
	body := `{"kernels":["` + a + `","` + b + `"],"archs":"M4"}`

	const n = 8
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postSweep(t, h, body)
			codes[i] = rec.Code
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: bytes differ from request 0", i)
		}
	}
	wantStatic := int64(1)
	if shared {
		wantStatic = 0
	}
	for _, c := range []struct {
		what string
		n    *atomic.Int64
		want int64
	}{
		{"a static runs", aStatic, wantStatic}, {"a prepares", aPrep, 1},
		{"b static runs", bStatic, wantStatic}, {"b prepares", bPrep, 1},
	} {
		if got := c.n.Load(); got != c.want {
			t.Errorf("%s = %d, want exactly %d for %d identical requests", c.what, got, c.want, n)
		}
	}
	ctrs := obs.Counters()
	if got := ctrs[obs.CounterSweepCacheMiss] + ctrs[obs.CounterSweepCacheHit]; got != n {
		t.Fatalf("memo misses+hits = %d, want %d", got, n)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	name string
	data string
}

// readSSE parses an SSE stream into frames.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestSweepAsyncAndSSE: an async submission is accepted immediately,
// its SSE stream delivers monotone progress frames terminated by one
// done frame, and the result endpoint then serves the full report.
func TestSweepAsyncAndSSE(t *testing.T) {
	ts := httptest.NewServer(newTestServer())
	defer ts.Close()

	// Async submit a fresh (non-cached) query so there is progress to
	// stream: two kernels on two cores.
	body := `{"kernels":["madgwick","mahony"],"archs":"M4,M33","async":true}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc server.SweepAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || acc.ID == "" {
		t.Fatalf("accepted = %d %+v", resp.StatusCode, acc)
	}

	// Stream events until the server closes the stream at completion.
	es, err := http.Get(ts.URL + acc.Events)
	if err != nil {
		t.Fatal(err)
	}
	if ct := es.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	events := readSSE(t, es.Body)
	es.Body.Close()

	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	last := events[len(events)-1]
	if last.name != server.SSEEventDone {
		t.Fatalf("terminal event = %q (%s), want %q", last.name, last.data, server.SSEEventDone)
	}
	var done struct {
		ID         string `json:"id"`
		Datapoints int    `json:"datapoints"`
		Partial    bool   `json:"partial"`
	}
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		t.Fatal(err)
	}
	if done.ID != acc.ID || done.Datapoints == 0 || done.Partial {
		t.Fatalf("done frame = %+v", done)
	}
	// Progress frames are monotone in done+skipped.
	prev := -1
	for _, ev := range events[:len(events)-1] {
		if ev.name != server.SSEEventProgress {
			t.Fatalf("mid-stream event %q, want only progress", ev.name)
		}
		var p struct{ Done, Skipped, Total int }
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatal(err)
		}
		if p.Done+p.Skipped < prev {
			t.Fatalf("progress went backwards: %d after %d", p.Done+p.Skipped, prev)
		}
		prev = p.Done + p.Skipped
	}

	// The result endpoint now serves the report.
	rr, err := http.Get(ts.URL + acc.Result)
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d: %s", rr.StatusCode, rb)
	}
	var rep report.JSONReport
	if err := json.Unmarshal(rb, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Datapoints != done.Datapoints {
		t.Fatalf("report datapoints %d != done frame %d", rep.Datapoints, done.Datapoints)
	}

	// A late SSE attach to the finished job replays the final progress
	// snapshot and terminates immediately.
	es2, err := http.Get(ts.URL + acc.Events)
	if err != nil {
		t.Fatal(err)
	}
	late := readSSE(t, es2.Body)
	es2.Body.Close()
	if len(late) != 2 || late[0].name != server.SSEEventProgress || late[1].name != server.SSEEventDone {
		t.Fatalf("late attach events = %+v, want final progress snapshot + done frame", late)
	}
}

// TestSweepCancellationNoGoroutineLeak: a client that disconnects
// mid-sweep takes down its own run (it was the only subscriber) and
// the server returns to its goroutine baseline — no abandoned workers,
// no stuck SSE fanout.
func TestSweepCancellationNoGoroutineLeak(t *testing.T) {
	ts := httptest.NewServer(newTestServer())
	defer ts.Close()

	base := runtime.NumGoroutine()

	// A full-suite sweep is slow enough to cancel mid-flight.
	req, err := http.NewRequest("POST", ts.URL+"/v1/sweep", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 30 * time.Millisecond}
	if _, err := client.Do(req); err == nil {
		t.Skip("sweep finished before the client timeout; nothing to cancel")
	}

	// The run had one subscriber (the canceled request), so the sweep
	// context cancels and every worker drains.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: baseline %d, now %d — canceled sweep leaked workers",
		base, runtime.NumGoroutine())
}

// TestZZFaultInjectedSweepIs200Partial: a request whose kernel set
// includes a panicking kernel still gets a 200 and a well-formed
// report — the healthy kernel's cells intact, partial:true, and one
// failures entry per lost job.
func TestZZFaultInjectedSweepIs200Partial(t *testing.T) {
	panicker := uniqueName("zz-server-panic")
	if err := core.Register(faultinject.PanickerSpec(panicker)); err != nil {
		t.Fatal(err)
	}
	h := newTestServer()

	rec := postSweep(t, h, `{"kernels":["madgwick","`+panicker+`"],"archs":"M4"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (faults degrade the report, not the server): %s",
			rec.Code, rec.Body.String())
	}
	var rep report.JSONReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Fatal("report not marked partial")
	}
	if len(rep.Failures) == 0 {
		t.Fatal("report lost its failures block")
	}
	for _, f := range rep.Failures {
		if f.Kernel != panicker {
			t.Fatalf("healthy kernel charged with a failure: %+v", f)
		}
	}
	found := false
	for _, k := range rep.Kernels {
		if k.Name == "madgwick" {
			found = true
			if len(k.Cells) == 0 {
				t.Fatal("healthy kernel lost its cells")
			}
		}
	}
	if !found {
		t.Fatal("healthy kernel missing from the partial report")
	}
}
