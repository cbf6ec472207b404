package server_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/server"
)

// BenchmarkServerSweepLoad is the server-path load test: hundreds of
// concurrent sweep requests through the full HTTP stack (real
// listener, real client), measuring steady-state request latency once
// the cache is warm. ns/op is the mean wall-clock per served request —
// the inverse of throughput — under SetParallelism(32)·GOMAXPROCS
// in-flight clients.
//
// "identical" hammers one hot query (every request a cache hit);
// "mixed" spreads requests across four distinct warmed queries plus
// the hot one, exercising LRU promotion under load.
// The recorded numbers and budgets live in BENCH_server_baseline.json,
// enforced by tools/benchguard in CI next to BENCH_baseline.json.
func BenchmarkServerSweepLoad(b *testing.B) {
	ts := httptest.NewServer(server.New(server.Options{Workers: 4}).Handler())
	defer ts.Close()

	queries := []string{
		`{"kernels":["madgwick"],"archs":"M4"}`,
		`{"kernels":["mahony"],"archs":"M4"}`,
		`{"kernels":["fourati"],"archs":"M4"}`,
		`{"kernels":["p3p"],"archs":"M4"}`,
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 512}}
	post := func(q string) error {
		resp, err := client.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(q))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	// Warm every distinct query: the load phase measures the serving
	// path (routing, cache hit, response streaming), not sweep compute.
	for _, q := range queries {
		if err := post(q); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("identical", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(32)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := post(queries[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("mixed", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(32)
		var n atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				q := queries[n.Add(1)%uint64(len(queries))]
				if err := post(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkAdmissionUncontended prices the admission control added in
// front of /v1/sweep on the path that matters: an uncontended server
// serving a warm query. Every request walks the full decision —
// request parsing, sweep-weight computation, the warm-path exemption
// probe, acquire/release — and must stay within noise of the
// pre-admission serving cost. Serial and in-process (no listener, no
// client) so ns/op isolates the handler, not the network stack; the
// budget lives in BENCH_server_baseline.json.
func BenchmarkAdmissionUncontended(b *testing.B) {
	h := server.New(server.Options{Workers: 4}).Handler()
	const q = `{"kernels":["madgwick"],"archs":"M4"}`
	warm := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(q))
	h.ServeHTTP(warm, req)
	if warm.Code != http.StatusOK {
		b.Fatalf("warm-up status %d: %s", warm.Code, warm.Body.String())
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(q))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
