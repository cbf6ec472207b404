package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
)

// GET /metrics: the obs counter registry in Prometheus text exposition
// format, so a scraper pointed at entobenchd sees cache effectiveness
// (memo hits vs misses, shared kernel executions), fault containment
// (cells_failed, panics_recovered, cells_timed_out), and server load
// (requests, sse_clients) without any new instrumentation layer.

// MetricsPrefix namespaces every exported counter. A dotted obs name
// maps to the metric MetricsPrefix + name with dots replaced by
// underscores: sweep.cache.hit -> entobench_sweep_cache_hit.
const MetricsPrefix = "entobench_"

// metricName converts a canonical obs counter name to its Prometheus
// metric name.
func metricName(counter string) string {
	return MetricsPrefix + strings.ReplaceAll(counter, ".", "_")
}

// gaugeCounters are the obs names whose value is a current level, not
// a cumulative total; they export with TYPE gauge.
var gaugeCounters = map[string]bool{
	obs.CounterServerQueueDepth: true,
}

// handleMetrics renders every registered counter, sorted by metric
// name for a stable scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	counters := obs.Counters()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, name := range names {
		m := metricName(name)
		typ := "counter"
		if gaugeCounters[name] {
			typ = "gauge"
		}
		fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", m, typ, m, counters[name])
	}
}
