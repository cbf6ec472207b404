package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/server"
)

// The warm-restart contract of `entobenchd -cachedir`: a second daemon
// pointed at the directory a first daemon populated serves the same
// query byte-identically without recomputing a single cell — the
// in-memory sweep cache died with the "process", the persistent cell
// cache did not.
func TestServerWarmRestartFromCellCache(t *testing.T) {
	dir := t.TempDir()
	newServer := func() http.Handler {
		cc, err := report.OpenCellCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		return server.New(server.Options{Workers: 2, CellCache: cc}).Handler()
	}

	body := `{"kernels":["madgwick","mahony"],"archs":"M4,M33"}`
	post := func(h http.Handler) string {
		req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("sweep = %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}

	first := post(newServer())

	// "Restart": a fresh server over the same directory. Its memo and
	// execution table start empty, so the only warmth left is the
	// on-disk one.
	restarted := newServer()
	before := obs.Counters()
	second := post(restarted)
	after := obs.Counters()

	if first != second {
		t.Fatal("restarted server served different bytes")
	}
	if d := after[obs.CounterSweepCellsComputed] - before[obs.CounterSweepCellsComputed]; d != 0 {
		t.Fatalf("warm restart computed %d cells, want 0", d)
	}
	// 2 kernels × (1 static + 2 archs × 2 cache settings) jobs.
	if d := after[obs.CounterSweepCellsCached] - before[obs.CounterSweepCellsCached]; d != 10 {
		t.Fatalf("warm restart loaded %d cells, want 10", d)
	}
	if d := after[obs.CounterSweepCacheMiss] - before[obs.CounterSweepCacheMiss]; d != 1 {
		t.Fatalf("warm restart had %d in-memory misses, want 1 (the run must really have happened)", d)
	}
}

// Two servers in one process share no memo and no execution table:
// the second server's first answer to a query the first server already
// served is a sweep of its own, and it fills its own -cachedir.
func TestServersKeepSeparateEngines(t *testing.T) {
	const body = `{"kernels":["madgwick","mahony"],"archs":"M4,M33"}`
	var served [2][]byte
	for i := range served {
		cc, err := report.OpenCellCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		h := server.New(server.Options{Workers: 2, CellCache: cc}).Handler()
		before := obs.Counters()[obs.CounterSweepCellsComputed]
		rec := postSweep(t, h, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("server %d: sweep = %d: %s", i, rec.Code, rec.Body.String())
		}
		served[i] = rec.Body.Bytes()
		// 2 kernels × (1 static + 2 archs × 2 cache settings) jobs.
		if d := obs.Counters()[obs.CounterSweepCellsComputed] - before; d != 10 {
			t.Fatalf("server %d computed %d cells, want 10", i, d)
		}
		if n := cc.Backing().Len(); n != 10 {
			t.Fatalf("server %d stored %d cells, want 10", i, n)
		}
	}
	if !bytes.Equal(served[0], served[1]) {
		t.Fatal("the two servers served different bytes")
	}
}
