package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A metric that does not apply to a workload reads 0; README.md
// says which workload each one is meant for.
var perLayer = []struct{ name, unit string }{
	{"dataset.first_setup_ms", "ms"},
	{"harness.setup_ms", "ms"},
	{"harness.solve_ms", "ms"},
	{"harness.validate_ms", "ms"},
	{"harness.static_ms", "ms"},
	{"harness.solve_calls", "count"},
	{"harness.prepare_ms", "ms"},
	{"harness.measure_us.p50", "us"},
	{"profile.overhead_ratio", "ratio"},
	{"core.sweep_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.worker_busy_share", "ratio"},
	{"core.cells_computed", "count"},
	{"core.cells_cached", "count"},
	{"cellstore.get_calls", "count"},
	{"cellstore.get_us.p50", "us"},
	{"cellstore.hit_share", "ratio"},
	{"cellstore.bytes_read", "bytes"},
	{"cellstore.put_calls", "count"},
	{"cellstore.put_us.p50", "us"},
	{"report.export_ms", "ms"},
	{"report.encode_ms", "ms"},
	{"report.bytes_out", "bytes"},
	{"report.memo_hit_share", "ratio"},
	{"report.coalesced", "count"},
	{"server.handler_ms.p50.hot", "ms"},
	{"server.handler_ms.p50.fresh", "ms"},
	{"server.handler_ms.p50.newboard", "ms"},
	{"server.transport_ms", "ms"},
	{"server.shed_total", "count"},
	{"loadgen.late_ms.p90", "ms"},
	{"trace.overhead_share", "ratio"},
}

// counterDelta returns how far every obs counter moved since before.
func counterDelta(before map[string]uint64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range obs.Counters() {
		d[k] = float64(v - before[k])
	}
	return d
}

// pct is percentile p of xs when the samples support it under the
// minTail rule, and 0 otherwise.
func pct(xs []float64, p float64) float64 {
	if !supports(len(xs), p) {
		return 0
	}
	return percentile(sortedCopy(xs), p)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills every per-layer metric the tracer and the counter
// deltas determine, per operation over n traced operations; the rest
// start at 0 for the workload to fill in.
func layerMetrics(tr *tracer, delta map[string]float64, n float64) map[string]metric {
	m := map[string]metric{}
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / n }

	tr.mu.Lock()
	set("dataset.first_setup_ms", float64(tr.firstSetupNS)/1e6)
	set("harness.setup_ms", perOp(tr.sum["harness.setup"]))
	set("harness.solve_ms", perOp(tr.sum["harness.solve"]))
	set("harness.validate_ms", perOp(tr.sum["harness.validate"]))
	set("harness.static_ms", perOp(tr.sum["harness.static"]))
	set("harness.prepare_ms", perOp(tr.sum["harness.prepare"]))
	set("harness.solve_calls", float64(tr.solveN)/n)
	set("harness.measure_us.p50", pct(tr.samples["harness.measure"], 50))
	set("cellstore.get_calls", float64(tr.gets)/n)
	set("cellstore.get_us.p50", pct(tr.samples["cellstore.get"], 50))
	set("cellstore.hit_share", ratio(float64(tr.getHits), float64(tr.gets)))
	set("cellstore.bytes_read", float64(tr.bytesRead)/n)
	set("cellstore.put_calls", float64(tr.puts)/n)
	set("cellstore.put_us.p50", pct(tr.samples["cellstore.put"], 50))
	tr.mu.Unlock()

	set("profile.overhead_ratio", tr.profileOverhead())
	set("core.cells_computed", delta[obs.CounterSweepCellsComputed]/n)
	set("core.cells_cached", delta[obs.CounterSweepCellsCached]/n)
	hit, miss := delta[obs.CounterSweepCacheHit], delta[obs.CounterSweepCacheMiss]
	set("report.memo_hit_share", ratio(hit, hit+miss))
	set("report.coalesced", delta[obs.CounterSweepCacheCoalesced]/n)
	set("server.shed_total", delta[obs.CounterServerShedTotal])
	return m
}

// sumOf is the summed duration in ns of every span called name since
// the last resetAggregates.
func (t *tracer) sumOf(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sum[name]
}

// resetAggregates starts the per-layer totals afresh, keeping the
// spans already kept for the trace file and the first-setup total.
func (t *tracer) resetAggregates() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sum = map[string]int64{}
	t.samples = map[string][]float64{}
	t.children, t.childNS = nil, 0
	t.solveBare = map[string]*[2]int64{}
	t.solveProf = map[string]*[2]int64{}
	t.solveN = 0
	t.gets, t.getHits, t.bytesRead, t.puts = 0, 0, 0, 0
}

// finishTrace writes the Chrome trace of a traced run.
func finishTrace(b *bench, tr *tracer) error {
	path := filepath.Join(b.cfg.workDir, fmt.Sprintf("trace-%s-seed%d.json", b.cfg.workload, b.cfg.seed))
	if err := tr.writeChrome(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: Chrome trace written to %s\n", path)
	return nil
}
