package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/mcu"
)

// A Backend is one measurement rig: it turns a prepared kernel's
// modeled cost (plus the run configuration) into a Measurement the
// same way the paper swaps native, STM32, and gem5 targets behind one
// harness. The reference SimBackend synthesizes the current trace and
// GPIO events; a TraceBackend replays externally captured ones. Both
// feed the identical Analyze alignment/integration pipeline, so the
// seam changes where the waveform comes from, never how it is read.

// Provenance labels a Measurement carries through reports: a modeled
// cell came from the synthetic simulator, a measured cell from an
// externally captured trace.
const (
	SourceModeled  = "modeled"
	SourceMeasured = "measured"
)

// MeasureRequest is the complete, arch-resolved input of one backend
// measurement: everything MeasureOn knows when it hands off to the rig.
type MeasureRequest struct {
	Kernel  string        // suite kernel name
	Arch    mcu.Arch      // the core being characterized
	Prec    mcu.Precision // arithmetic precision of this run
	CacheOn bool          // I/D cache configuration
	Reps    int           // resolved ROI rep count (autoReps already applied)
	Model   mcu.Estimate  // analytic cost-model output for this cell
	Seed    int64         // deterministic trace-synthesis seed
}

// Backend produces a Measurement for one cell. Implementations must be
// safe for concurrent Measure calls: the sweep fans cells across a
// worker pool.
type Backend interface {
	// Name is the registry identity ("sim", "trace", ...).
	Name() string
	// Source is the provenance label of every cell this backend
	// measures: SourceModeled or SourceMeasured.
	Source() string
	// Fingerprint digests the backend's measurement data (e.g. the
	// loaded trace captures) so cache keys distinguish two backends of
	// the same name carrying different data. The empty fingerprint
	// means the backend is a pure function of the request — true of
	// the simulator — and contributes only its name to cache keys.
	Fingerprint() string
	// Measure turns one cell's request into a Measurement.
	Measure(req MeasureRequest) (Measurement, error)
}

// PartialBackend is a Backend that covers only some cells — a trace
// file rarely captures the whole grid. The sweep asks Covers before
// each cell and falls back to the simulator for the rest, which is how
// one report mixes measured and modeled cells.
type PartialBackend interface {
	Backend
	// Covers reports whether the backend holds measurement data for
	// the (kernel, board, cache) cell.
	Covers(kernel, archName string, cacheOn bool) bool
}

// SimBackend is the reference Backend: the synthetic measurement rig
// the repo has always used, now behind the seam. It renders the
// deterministic current trace and GPIO event log for the request and
// recovers the Measurement through Analyze — a pure function of the
// request, so its Fingerprint is empty and its cells carry no cache-key
// salt (classic sweeps stay byte- and key-identical).
type SimBackend struct{}

// Name implements Backend.
func (SimBackend) Name() string { return "sim" }

// Source implements Backend: every simulated cell is modeled.
func (SimBackend) Source() string { return SourceModeled }

// Fingerprint implements Backend: the simulator carries no data.
func (SimBackend) Fingerprint() string { return "" }

// Measure implements Backend: synthesize the trace + events, then run
// the shared analysis pipeline.
func (SimBackend) Measure(req MeasureRequest) (Measurement, error) {
	trace, events := SynthesizeTrace(req.Model, req.Arch, req.CacheOn, req.Reps, req.Seed)
	return Analyze(trace, events, req.Reps)
}

// The process-wide backend registry, mirroring the board and kernel
// registries: "sim" is built in, trace backends register at load time.
var (
	backendMu  sync.RWMutex
	backends   = map[string]Backend{"sim": SimBackend{}}
	backendOrd = []string{"sim"}
)

// RegisterBackend adds a measurement backend to the registry under its
// Name, resolved case-insensitively like boards and kernels. A nil
// backend, an empty name, an unknown Source label, or a duplicate name
// is rejected.
func RegisterBackend(be Backend) error {
	if be == nil {
		return fmt.Errorf("harness: RegisterBackend: nil backend")
	}
	name := strings.ToLower(strings.TrimSpace(be.Name()))
	if name == "" {
		return fmt.Errorf("harness: RegisterBackend: empty backend name")
	}
	if s := be.Source(); s != SourceModeled && s != SourceMeasured {
		return fmt.Errorf("harness: RegisterBackend: %s: source %q is neither %q nor %q",
			name, s, SourceModeled, SourceMeasured)
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[name]; dup {
		return fmt.Errorf("harness: RegisterBackend: %q already registered", name)
	}
	backends[name] = be
	backendOrd = append(backendOrd, name)
	return nil
}

// BackendByName resolves a registered backend case-insensitively.
func BackendByName(name string) (Backend, bool) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	be, ok := backends[strings.ToLower(strings.TrimSpace(name))]
	return be, ok
}

// BackendNames lists the registered backends, sorted, for error
// vocabulary and the CLI.
func BackendNames() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	out := append([]string(nil), backendOrd...)
	sort.Strings(out)
	return out
}

// ResolveBackend turns a -backend/-tracefile flag pair into a sweep's
// measurement backend, the one resolver every CLI shares. No flags and
// "sim" both mean the classic simulator path (nil, byte-identical to
// pre-backend sweeps); a trace file loads its captures into a
// TraceBackend; any other name resolves through the registry.
func ResolveBackend(name, traceFile string) (Backend, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if traceFile != "" {
		if name != "" && name != "trace" {
			return nil, fmt.Errorf("-tracefile feeds the trace backend and cannot combine with -backend %s", name)
		}
		tb, err := LoadTraceBackend(traceFile)
		if err != nil {
			return nil, err // not a typed-nil Backend
		}
		return tb, nil
	}
	switch name {
	case "", "sim":
		return nil, nil
	case "trace":
		return nil, fmt.Errorf("-backend trace needs -tracefile FILE (the captures to replay)")
	}
	be, ok := BackendByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown backend %q (registered: %s)", name, strings.Join(BackendNames(), ", "))
	}
	return be, nil
}

// BackendSalt is the cache-key contribution of a backend selection: the
// empty string for the classic path (nil, or the canonical simulator),
// otherwise the backend name plus its data fingerprint. Modeled and
// measured cells therefore never collide in the cell store or the keyed
// sweep cache, while classic keys — and every warm cache built before
// the seam existed — stay exactly as they were.
func BackendSalt(be Backend) string {
	if be == nil {
		return ""
	}
	if _, isSim := be.(SimBackend); isSim {
		return ""
	}
	if fp := be.Fingerprint(); fp != "" {
		return be.Name() + "+" + fp
	}
	return be.Name()
}
