package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/report"
)

// The traced run times each layer from outside: it wraps the seams the
// engine exposes (Spec.Factory/StaticFactory, SweepOptions.CellCache,
// the server's Handler) and the direct calls the benchmark itself
// makes, and records one span per call in memory. Spans carry a parent
// id; the first keepSpans of them are written out as a Chrome
// trace_event file when the run ends. The measurement backend is never
// wrapped: any value other than harness.SimBackend changes
// harness.BackendSalt and with it the exported bytes.

// keepSpans bounds the spans kept for the Chrome trace file; the
// aggregates below cover every span regardless.
const keepSpans = 50000

type span struct {
	id, parent uint64
	name       string
	start, end int64 // ns since the tracer's epoch
	lane       int
	arg        string
}

// tracer is the in-memory span recorder and per-layer aggregator.
type tracer struct {
	epoch  time.Time
	ids    atomic.Uint64
	parent atomic.Uint64 // span new layer spans attach to: the running sweep or request phase

	mu       sync.Mutex
	kept     []span
	dropped  int
	lanes    []bool
	children []interval // top-level layer spans since the last takeChildren
	childNS  int64      // their summed duration
	sum      map[string]int64
	samples  map[string][]float64 // per-call µs, where a percentile is reported

	seenSetup    map[string]bool
	firstSetupNS int64

	solveBare map[string]*[2]int64 // kernel -> {ns, calls} of validation-rep Solves
	solveProf map[string]*[2]int64 // kernel -> {ns, calls} of Solves inside profile.Collect
	solveN    int64                // every Solve of a measured (non-static) problem

	cellBytes map[string]int64 // payload size per cell identity, for cellstore.bytes_read
	gets      int64
	getHits   int64
	bytesRead int64
	puts      int64
}

func newTracer() *tracer {
	t := &tracer{
		epoch:     time.Now(),
		sum:       map[string]int64{},
		samples:   map[string][]float64{},
		seenSetup: map[string]bool{},
		solveBare: map[string]*[2]int64{},
		solveProf: map[string]*[2]int64{},
		cellBytes: map[string]int64{},
	}
	t.parent.Store(t.newID())
	return t
}

func (t *tracer) now() int64          { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() uint64       { return t.ids.Add(1) }
func (t *tracer) setParent(id uint64) { t.parent.Store(id) }

// lane returns the lowest free display lane; spans that overlap in time
// render on different rows of the trace viewer.
func (t *tracer) lane() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, busy := range t.lanes {
		if !busy {
			t.lanes[i] = true
			return i + 1
		}
	}
	t.lanes = append(t.lanes, true)
	return len(t.lanes)
}

// record stores a finished span. top marks a span directly under the
// running sweep (its interval feeds self time and worker busy share);
// sample adds its duration to the name's percentile samples; release
// frees its lane.
func (t *tracer) record(s span, top, sample, release bool) {
	d := s.end - s.start
	t.mu.Lock()
	t.sum[s.name] += d
	if sample {
		t.samples[s.name] = append(t.samples[s.name], float64(d)/1e3)
	}
	if top {
		t.children = append(t.children, interval{s.start, s.end})
		t.childNS += d
	}
	if release && s.lane > 0 && s.lane <= len(t.lanes) {
		t.lanes[s.lane-1] = false
	}
	if len(t.kept) < keepSpans {
		t.kept = append(t.kept, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// timed runs fn as a span under parent on lane 0, the benchmark's own
// goroutine.
func (t *tracer) timed(name string, parent uint64, fn func()) {
	s := span{id: t.newID(), parent: parent, name: name, start: t.now()}
	fn()
	s.end = t.now()
	t.record(s, false, false, false)
}

// takeChildren returns and clears the top-level layer spans recorded
// since the last call.
func (t *tracer) takeChildren() ([]interval, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ns := t.children, t.childNS
	t.children, t.childNS = nil, 0
	return c, ns
}

// writeChrome writes the kept spans as a Chrome trace_event file
// (chrome://tracing, ui.perfetto.dev).
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":%d},\"traceEvents\":[\n", t.dropped)
	for i, s := range t.kept {
		name, _ := json.Marshal(s.name)
		arg, _ := json.Marshal(s.arg)
		sep := ","
		if i == len(t.kept)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"detail\":%s}}%s\n",
			name, s.lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, arg, sep)
	}
	t.mu.Unlock()
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSpecs returns copies of specs whose factories build traced
// problems. Factories are not part of any cache key, so a sweep over
// the copies has the same SweepKey and CellKeys as one over specs.
func (t *tracer) tracedSpecs(specs []core.Spec) []core.Spec {
	out := make([]core.Spec, len(specs))
	for i, sp := range specs {
		sp := sp
		out[i] = sp
		out[i].Factory = func() harness.Problem {
			return &tracedProblem{Problem: sp.Factory(), t: t, kernel: sp.Name}
		}
		static := sp.StaticFactory
		if static == nil {
			static = sp.Factory
		}
		out[i].StaticFactory = func() harness.Problem {
			return &tracedProblem{Problem: static(), t: t, kernel: sp.Name, static: true}
		}
	}
	return out
}

// tracedProblem times Setup, Solve and Validate of one problem. The
// engine runs a measured problem as Setup, Solves, Validate inside
// harness.PrepareContext, so the outer harness.prepare span runs from
// Setup to Validate; a static-proxy problem runs Setup and one profiled
// Solve, which bound the harness.static span. One goroutine drives a
// problem, so its fields need no lock.
type tracedProblem struct {
	harness.Problem
	t      *tracer
	kernel string
	static bool
	outer  span

	profiledSeen bool
}

func (p *tracedProblem) prefix() string {
	if p.static {
		return "harness.static."
	}
	return "harness."
}

func (p *tracedProblem) Setup() error {
	t := p.t
	name := "harness.prepare"
	if p.static {
		name = "harness.static"
	}
	p.outer = span{id: t.newID(), parent: t.parent.Load(), name: name, start: t.now(), lane: t.lane(), arg: p.kernel}
	s := span{id: t.newID(), parent: p.outer.id, name: p.prefix() + "setup", start: t.now(), lane: p.outer.lane, arg: p.kernel}
	err := p.Problem.Setup()
	s.end = t.now()
	t.record(s, false, false, false)
	t.mu.Lock()
	if !t.seenSetup[p.kernel] {
		t.seenSetup[p.kernel] = true
		t.firstSetupNS += s.end - s.start
	}
	t.mu.Unlock()
	return err
}

func (p *tracedProblem) Solve() {
	t := p.t
	profiled := profile.Active()
	s := span{id: t.newID(), parent: p.outer.id, name: p.prefix() + "solve", start: t.now(), lane: p.outer.lane, arg: p.kernel}
	p.Problem.Solve()
	s.end = t.now()
	if profiled {
		s.arg += " (profiled)"
	}
	t.record(s, false, false, false)
	if p.static {
		p.outer.end = t.now()
		t.record(p.outer, true, false, true)
		return
	}
	t.mu.Lock()
	t.solveN++
	// Solves before the profiled one are warm-up and run on cold
	// caches; the bare baseline is the validation reps after it.
	var m map[string]*[2]int64
	switch {
	case profiled:
		m = t.solveProf
		p.profiledSeen = true
	case p.profiledSeen:
		m = t.solveBare
	}
	if m != nil {
		acc := m[p.kernel]
		if acc == nil {
			acc = new([2]int64)
			m[p.kernel] = acc
		}
		acc[0] += s.end - s.start
		acc[1]++
	}
	t.mu.Unlock()
}

func (p *tracedProblem) Validate() error {
	t := p.t
	s := span{id: t.newID(), parent: p.outer.id, name: "harness.validate", start: t.now(), lane: p.outer.lane, arg: p.kernel}
	err := p.Problem.Validate()
	s.end = t.now()
	t.record(s, false, false, false)
	p.outer.end = t.now()
	t.record(p.outer, true, false, true)
	return err
}

// profileOverhead is Σ Solve time inside profile.Collect over the time
// the same number of bare Solves of the same kernels take, per kernel:
// how much the profiler hooks slow the profiled rep down.
func (t *tracer) profileOverhead() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var prof, bare float64
	for k, p := range t.solveProf {
		b := t.solveBare[k]
		if b == nil || b[1] == 0 {
			continue
		}
		prof += float64(p[0])
		bare += float64(p[1]) * float64(b[0]) / float64(b[1])
	}
	if bare == 0 {
		return 0
	}
	return prof / bare
}

// tracedCache times every call into the persistent cell cache. While
// off it only forwards, so the untraced phase of a traced run keeps the
// server's cache unwrapped in all but one atomic load.
type tracedCache struct {
	inner *report.PersistentCellCache
	t     *tracer
	on    atomic.Bool
}

func (c *tracedCache) get(id string, load func() (any, bool)) bool {
	t := c.t
	s := span{id: t.newID(), parent: t.parent.Load(), name: "cellstore.get", start: t.now(), lane: t.lane(), arg: id}
	v, ok := load()
	s.end = t.now()
	t.record(s, true, true, true)
	// bytes_read counts each served cell's encoded payload; the size is
	// worked out once per cell, outside the lock.
	var n int64
	if ok {
		t.mu.Lock()
		size, seen := t.cellBytes[id]
		t.mu.Unlock()
		if !seen {
			b, _ := json.Marshal(v)
			size = int64(len(b))
		}
		n = size
	}
	t.mu.Lock()
	t.gets++
	if ok {
		t.cellBytes[id] = n
		t.getHits++
		t.bytesRead += n
	}
	t.mu.Unlock()
	return ok
}

func (c *tracedCache) put(id string, store func()) {
	t := c.t
	s := span{id: t.newID(), parent: t.parent.Load(), name: "cellstore.put", start: t.now(), lane: t.lane(), arg: id}
	store()
	s.end = t.now()
	t.record(s, true, true, true)
	t.mu.Lock()
	t.puts++
	t.mu.Unlock()
}

func cellID(spec core.Spec, arch mcu.Arch, cacheOn bool, backend string) string {
	return fmt.Sprintf("%s|%s|%v|%s", spec.Name, arch.Name, cacheOn, backend)
}

// LoadStatic implements core.CellCache.
func (c *tracedCache) LoadStatic(spec core.Spec) (core.StaticCellResult, bool) {
	if !c.on.Load() {
		return c.inner.LoadStatic(spec)
	}
	var res core.StaticCellResult
	ok := c.get(spec.Name+"|static", func() (any, bool) {
		var ok bool
		res, ok = c.inner.LoadStatic(spec)
		return res, ok
	})
	return res, ok
}

// StoreStatic implements core.CellCache.
func (c *tracedCache) StoreStatic(spec core.Spec, res core.StaticCellResult) {
	if !c.on.Load() {
		c.inner.StoreStatic(spec, res)
		return
	}
	c.put(spec.Name+"|static", func() { c.inner.StoreStatic(spec, res) })
}

// LoadCell implements core.CellCache.
func (c *tracedCache) LoadCell(spec core.Spec, arch mcu.Arch, cacheOn bool, backend string) (core.MeasuredCellResult, bool) {
	if !c.on.Load() {
		return c.inner.LoadCell(spec, arch, cacheOn, backend)
	}
	var res core.MeasuredCellResult
	ok := c.get(cellID(spec, arch, cacheOn, backend), func() (any, bool) {
		var ok bool
		res, ok = c.inner.LoadCell(spec, arch, cacheOn, backend)
		return res, ok
	})
	return res, ok
}

// StoreCell implements core.CellCache.
func (c *tracedCache) StoreCell(spec core.Spec, arch mcu.Arch, cacheOn bool, backend string, res core.MeasuredCellResult) {
	if !c.on.Load() {
		c.inner.StoreCell(spec, arch, cacheOn, backend, res)
		return
	}
	c.put(cellID(spec, arch, cacheOn, backend), func() { c.inner.StoreCell(spec, arch, cacheOn, backend, res) })
}
