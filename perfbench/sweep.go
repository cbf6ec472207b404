package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
)

// sweepWorkload is cold-sweep and warm-sweep: a closed loop with one
// client whose operation is the full-suite Table IV sweep, its v1
// encode, and a byte check. cold-sweep runs every kernel (no cell
// cache); warm-sweep serves every cell from a cell store seeded during
// set-up. Both invalidate the in-memory sweep memo first, so each
// operation really sweeps.
type sweepWorkload struct {
	warm  bool
	specs []core.Spec
	archs []mcu.Arch
	ref   [sha256.Size]byte
	dir   string
	cache *report.PersistentCellCache

	// Per-op layer accumulators of the traced half.
	selfNS   int64
	busy     float64
	bytesOut int64
}

func (w *sweepWorkload) name() string {
	if w.warm {
		return "warm-sweep"
	}
	return "cold-sweep"
}

// encode renders a characterization as v1 JSON bytes.
func encode(c report.Characterization) ([]byte, error) {
	var buf bytes.Buffer
	err := report.WriteJSONReport(&buf, c.JSONExport())
	return buf.Bytes(), err
}

// checkSweep rejects a partial or failed sweep.
func checkSweep(c report.Characterization, err error) error {
	if err != nil {
		return err
	}
	if c.Partial() {
		return fmt.Errorf("partial sweep: %d failed cells", len(c.Failures()))
	}
	return nil
}

func (w *sweepWorkload) setup(b *bench) error {
	w.specs = core.Suite()
	w.archs = mcu.TableIVSet()
	refSpecs := w.specs
	if b.tr != nil {
		refSpecs = b.tr.tracedSpecs(w.specs)
	}
	// The reference: the uncached serial sweep. In a fresh process it is
	// the first sweep, so it pays dataset-master synthesis.
	recs, err := core.CharacterizeSuiteOpts(refSpecs, w.archs, core.SweepOptions{Workers: 1})
	c := report.Characterization{Records: recs}
	if err := checkSweep(c, err); err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	ref, err := encode(c)
	if err != nil {
		return err
	}
	w.ref = sha256.Sum256(ref)
	if !w.warm {
		return nil
	}
	w.dir, err = os.MkdirTemp(b.cfg.workDir, "store-")
	if err != nil {
		return err
	}
	if w.cache, err = report.OpenCellCache(w.dir); err != nil {
		return err
	}
	recs, err = core.CharacterizeSuiteOpts(w.specs, w.archs, core.SweepOptions{CellCache: w.cache})
	c = report.Characterization{Records: recs}
	if err := checkSweep(c, err); err != nil {
		return fmt.Errorf("seeding the cell store: %w", err)
	}
	return w.check(c)
}

// check encodes c and compares its hash with the reference.
func (w *sweepWorkload) check(c report.Characterization) error {
	out, err := encode(c)
	if err != nil {
		return err
	}
	if sha256.Sum256(out) != w.ref {
		return fmt.Errorf("export bytes differ from the reference")
	}
	return nil
}

func (w *sweepWorkload) opts(cache core.CellCache) core.SweepOptions {
	opts := core.SweepOptions{} // the CLI's default worker count
	if w.warm {
		opts.CellCache = cache
	}
	return opts
}

// op is one untraced operation.
func (w *sweepWorkload) op() error {
	report.InvalidateCharacterization()
	c, err := report.RunSweepQuery(w.specs, w.archs, w.opts(w.cache))
	if err := checkSweep(c, err); err != nil {
		return err
	}
	return w.check(c)
}

// tracedOp is op with every layer call inside a span.
func (w *sweepWorkload) tracedOp(tr *tracer, specs []core.Spec, cache core.CellCache) error {
	opID := tr.newID()
	opStart := tr.now()
	defer func() {
		tr.record(span{id: opID, name: "op", start: opStart, end: tr.now()}, false, false, false)
	}()
	report.InvalidateCharacterization()
	sweepID := tr.newID()
	tr.setParent(sweepID)
	s0 := tr.now()
	c, err := report.RunSweepQuery(specs, w.archs, w.opts(cache))
	s1 := tr.now()
	tr.record(span{id: sweepID, parent: opID, name: "core.sweep", start: s0, end: s1}, false, false, false)
	children, childNS := tr.takeChildren()
	w.selfNS += (s1 - s0) - unionLen(clip(children, s0, s1))
	w.busy += float64(childNS) / float64((s1-s0)*int64(runtime.GOMAXPROCS(0)))
	if err := checkSweep(c, err); err != nil {
		return err
	}
	var rep report.JSONReport
	tr.timed("report.export", opID, func() { rep = c.JSONExport() })
	var buf bytes.Buffer
	tr.timed("report.encode", opID, func() { err = report.WriteJSONReport(&buf, rep) })
	if err != nil {
		return err
	}
	w.bytesOut += int64(buf.Len())
	if sha256.Sum256(buf.Bytes()) != w.ref {
		return fmt.Errorf("traced export bytes differ from the reference")
	}
	return nil
}

func (w *sweepWorkload) measure(b *bench) (result, error) {
	p := closedLoop(float64(b.cfg.seconds), minOpsP90, w.op)
	m, err := endToEnd(w.name(), p, float64(len(p.lat))/p.wall.Seconds())
	if err != nil {
		return result{}, err
	}
	return result{Correct: p.failed == 0, Attempted: len(p.lat), Failed: p.failed, Metrics: m}, nil
}

// traced runs half the time untraced, then half traced with the
// factories and the cell cache wrapped, and reports per-layer metrics
// per operation of the traced half.
func (w *sweepWorkload) traced(b *bench) (result, error) {
	tr := b.tr
	half := float64(b.cfg.seconds) / 2
	plain := closedLoop(half, minOpsP50, w.op)

	specs := tr.tracedSpecs(w.specs)
	var cache core.CellCache
	if w.warm {
		tc := &tracedCache{inner: w.cache, t: tr}
		tc.on.Store(true)
		cache = tc
	}
	tr.resetAggregates()
	before := obs.Counters()
	p := closedLoop(half, minOpsP50, func() error { return w.tracedOp(tr, specs, cache) })
	delta := counterDelta(before)

	n := float64(len(p.lat))
	m := layerMetrics(tr, delta, n)
	m["core.sweep_ms"] = metric{float64(tr.sumOf("core.sweep")) / 1e6 / n, "ms"}
	m["core.self_ms"] = metric{float64(w.selfNS) / 1e6 / n, "ms"}
	m["core.worker_busy_share"] = metric{w.busy / n, "ratio"}
	m["report.export_ms"] = metric{float64(tr.sumOf("report.export")) / 1e6 / n, "ms"}
	m["report.encode_ms"] = metric{float64(tr.sumOf("report.encode")) / 1e6 / n, "ms"}
	m["report.bytes_out"] = metric{float64(w.bytesOut) / n, "bytes"}
	m["trace.overhead_share"] = metric{median(p.lat)/median(plain.lat) - 1, "ratio"}
	if err := finishTrace(b, tr); err != nil {
		return result{}, err
	}
	failed := plain.failed + p.failed
	attempted := len(plain.lat) + len(p.lat)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func (w *sweepWorkload) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
