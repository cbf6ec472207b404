package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/mcu"
)

// Machine-readable characterization export. Tables III/IV render for
// humans; this schema is the vendor-neutral result format other tooling
// consumes — regression trackers diffing BENCH_*.json across commits,
// plotting scripts, dashboards. The encoding is deliberately boring:
// structs only (no maps, so key order is fixed), units spelled out in
// field names, and a version field governed by the compatibility
// promise in docs/observability.md. Output is deterministic — the same
// suite produces byte-identical JSON at any worker count — and
// round-trips: unmarshal into JSONReport and re-marshal reproduces the
// bytes exactly.

// JSONSchema and JSONVersion identify the export format. Version bumps
// only on breaking changes (renaming/removing a field, changing a unit
// or meaning); adding fields is backwards-compatible and does not bump.
const (
	JSONSchema  = "entobench.characterization"
	JSONVersion = 1
)

// JSONReport is the top-level characterization export. Boards is the
// additive (schema v1-compatible) model-provenance block: one entry per
// core appearing in the cells, carrying where its definition came from
// and the full cost-model parameters, so a result file is
// self-describing even when produced with user board files.
//
// Partial and Failures are the additive (still v1) fault-reporting
// block: a sweep with failed, timed-out, or skipped cells marks the
// export partial and lists every gap with full provenance, so a
// BENCH_*.json produced by an interrupted or partly failed run is
// explicit about what is missing. Clean runs omit both fields, keeping
// their bytes identical to pre-fault-tolerance exports.
// Cache is the additive persistent-cell-cache provenance block: set
// only when the producer opted in (entoreport -cachedir), it records
// how many cells were served from the on-disk store versus computed.
// Producers whose output must stay byte-identical across cold and warm
// runs — entobench sweep, the entobenchd server — never set it.
//
// Backends is the additive measurement-backend provenance block (see
// docs/backends.md): present only on backend-aware sweeps, one entry
// per backend that measured at least one cell, in first-appearance
// order, with its cell count. Classic sweeps omit it, keeping their
// bytes identical to pre-seam exports.
type JSONReport struct {
	Schema     string           `json:"schema"`
	Version    int              `json:"version"`
	Datapoints int              `json:"datapoints"`
	Partial    bool             `json:"partial,omitempty"`
	Boards     []JSONBoard      `json:"boards,omitempty"`
	Backends   []JSONBackend    `json:"backends,omitempty"`
	Failures   []JSONFailure    `json:"failures,omitempty"`
	Cache      *CacheProvenance `json:"cache,omitempty"`
	Kernels    []JSONKernel     `json:"kernels"`
}

// JSONBackend is the measurement provenance of one backend in the
// export: its registry name, the source label its cells carry, and how
// many cells it measured.
type JSONBackend struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Cells  int    `json:"cells"`
}

// JSONFailure is one sweep job that produced no measurement: which
// kernel, where (arch/cache_on are omitted for the static-proxy job),
// how it ended (failed, panicked, timed_out, skipped), and the error;
// a skipped job's is the cancellation's context error.
type JSONFailure struct {
	Kernel  string `json:"kernel"`
	Stage   string `json:"stage"`
	Arch    string `json:"arch,omitempty"`
	CacheOn bool   `json:"cache_on,omitempty"`
	Status  string `json:"status"`
	Error   string `json:"error,omitempty"`
}

// JSONBoard is the model provenance of one core in the export.
type JSONBoard struct {
	Name     string          `json:"name"`
	Board    string          `json:"board,omitempty"`
	ISA      string          `json:"isa,omitempty"`
	ClockMHz float64         `json:"clock_mhz"`
	FPU      string          `json:"fpu"`
	SRAMKB   int             `json:"sram_kb"`
	HasCache bool            `json:"has_cache"`
	Source   string          `json:"source"`
	Model    mcu.ModelParams `json:"model"`
}

// NewJSONBoard is a's model provenance in the export's shape, shared by
// the export's boards block and the daemon's board listing.
func NewJSONBoard(a mcu.Arch) JSONBoard {
	return JSONBoard{Name: a.Name, Board: a.Board, ISA: a.ISA, ClockMHz: a.ClockHz / 1e6, FPU: a.FPU.String(),
		SRAMKB: a.SRAMKB, HasCache: a.HasCache, Source: a.Source, Model: a.Model}
}

// JSONCounts is an F/I/M/B instruction-mix record.
type JSONCounts struct {
	F uint64 `json:"f"`
	I uint64 `json:"i"`
	M uint64 `json:"m"`
	B uint64 `json:"b"`
}

// JSONKernel is the full characterization of one suite kernel.
type JSONKernel struct {
	Name         string     `json:"name"`
	Stage        string     `json:"stage"`
	Category     string     `json:"category"`
	Dataset      string     `json:"dataset"`
	Precision    string     `json:"precision"`
	M7Only       bool       `json:"m7_only,omitempty"`
	ClaimedFLOPs int        `json:"claimed_flops,omitempty"`
	FlashBytes   int        `json:"flash_bytes"`
	Static       JSONCounts `json:"static"`
	Dynamic      JSONCounts `json:"dynamic"`
	Valid        bool       `json:"valid"`
	Error        string     `json:"error,omitempty"`
	Cells        []JSONCell `json:"cells"`
}

// JSONCell is one (arch, cache) measurement cell. Source is the
// per-cell measurement provenance — "modeled" for simulator cells,
// "measured" for externally captured ones — present exactly when the
// sweep ran with an explicit backend; classic exports omit it on every
// cell (additive, still v1).
type JSONCell struct {
	Arch     string          `json:"arch"`
	CacheOn  bool            `json:"cache_on"`
	Source   string          `json:"source,omitempty"`
	Model    JSONModel       `json:"model"`
	Measured JSONMeasurement `json:"measured"`
}

// JSONModel is the analytic cost-model estimate for a cell.
type JSONModel struct {
	Cycles      float64 `json:"cycles"`
	LatencyUS   float64 `json:"latency_us"`
	EnergyUJ    float64 `json:"energy_uj"`
	AvgPowerMW  float64 `json:"avg_power_mw"`
	PeakPowerMW float64 `json:"peak_power_mw"`
}

// JSONMeasurement is what the simulated trace pipeline recovered for a
// cell (per-rep latency and energy, as in Table IV).
type JSONMeasurement struct {
	LatencyUS   float64 `json:"latency_us"`
	EnergyUJ    float64 `json:"energy_uj"`
	AvgPowerMW  float64 `json:"avg_power_mw"`
	PeakPowerMW float64 `json:"peak_power_mw"`
	Reps        int     `json:"reps"`
}

// JSONExport builds the export structure from a characterization. The
// boards block lists every distinct core in the cells in
// first-appearance order; cores with no Source — the zero-valued Arch
// stubs synthetic fixtures use — are skipped, which keeps the original
// v1 golden byte-identical: provenance is strictly additive. Cells that
// did not complete move out of the kernels' cells arrays and into the
// failures block (with partial set), so every number in the export is a
// real measurement.
func (c Characterization) JSONExport() JSONReport {
	rep := JSONReport{
		Schema:     JSONSchema,
		Version:    JSONVersion,
		Datapoints: c.Datapoints(),
		Kernels:    make([]JSONKernel, 0, len(c.Records)),
	}
	for _, f := range c.Failures() {
		jf := JSONFailure{
			Kernel:  f.Kernel,
			Stage:   f.Stage,
			Arch:    f.Arch,
			CacheOn: f.Cache,
			Status:  f.Status.String(),
		}
		if f.Err != nil {
			jf.Error = f.Err.Error()
		}
		rep.Failures = append(rep.Failures, jf)
	}
	rep.Partial = len(rep.Failures) > 0
	seen := map[string]bool{}
	for _, r := range c.Records {
		for _, cell := range r.Cells {
			a := cell.Arch
			if a.Source == "" || seen[a.Name] {
				continue
			}
			seen[a.Name] = true
			rep.Boards = append(rep.Boards, NewJSONBoard(a))
		}
	}
	// The backends block mirrors the boards block: one entry per
	// measurement backend appearing in the cells, first-appearance
	// order. Classic cells carry no backend, so classic exports skip the
	// block entirely.
	beIdx := map[string]int{}
	for _, r := range c.Records {
		for _, cell := range r.Cells {
			if cell.Status != core.CellOK || cell.Backend == "" {
				continue
			}
			i, ok := beIdx[cell.Backend]
			if !ok {
				i = len(rep.Backends)
				beIdx[cell.Backend] = i
				rep.Backends = append(rep.Backends, JSONBackend{Name: cell.Backend, Source: cell.Source})
			}
			rep.Backends[i].Cells++
		}
	}
	for _, r := range c.Records {
		k := JSONKernel{
			Name:         r.Spec.Name,
			Stage:        string(r.Spec.Stage),
			Category:     r.Spec.Category,
			Dataset:      r.Spec.Dataset,
			Precision:    r.Spec.Prec.String(),
			M7Only:       r.Spec.M7Only,
			ClaimedFLOPs: r.Spec.FLOPs,
			FlashBytes:   r.Flash,
			Static:       JSONCounts{F: r.Static.F, I: r.Static.I, M: r.Static.M, B: r.Static.B},
			Dynamic:      JSONCounts{F: r.Dynamic.F, I: r.Dynamic.I, M: r.Dynamic.M, B: r.Dynamic.B},
			Valid:        r.Valid,
			Cells:        make([]JSONCell, 0, len(r.Cells)),
		}
		if r.ValidE != nil {
			k.Error = r.ValidE.Error()
		}
		for _, cell := range r.Cells {
			if cell.Status != core.CellOK {
				continue // listed in the failures block instead
			}
			k.Cells = append(k.Cells, JSONCell{
				Arch:    cell.Arch.Name,
				CacheOn: cell.CacheOn,
				Source:  cell.Source,
				Model: JSONModel{
					Cycles:      cell.Model.Cycles,
					LatencyUS:   cell.Model.LatencyS * 1e6,
					EnergyUJ:    cell.Model.EnergyJ * 1e6,
					AvgPowerMW:  cell.Model.AvgPowerW * 1e3,
					PeakPowerMW: cell.Model.PeakPowerW * 1e3,
				},
				Measured: JSONMeasurement{
					LatencyUS:   cell.Meas.LatencyS * 1e6,
					EnergyUJ:    cell.Meas.EnergyJ * 1e6,
					AvgPowerMW:  cell.Meas.AvgPowerW * 1e3,
					PeakPowerMW: cell.Meas.PeakPowerW * 1e3,
					Reps:        cell.Meas.Reps,
				},
			})
		}
		rep.Kernels = append(rep.Kernels, k)
	}
	return rep
}

// v1Bytes is a memo entry's v1 export, rendered by the first V1 call
// on any characterization the entry handed out.
type v1Bytes struct {
	once sync.Once
	body []byte
	err  error
}

// V1 returns the versioned characterization export, indented, with a
// trailing newline. A characterization from an Engine's memo renders
// once per memo entry, and every later call returns the same slice,
// which callers must not modify; any other renders afresh.
func (c Characterization) V1() ([]byte, error) {
	if c.v1 == nil {
		return c.renderV1()
	}
	c.v1.once.Do(func() { c.v1.body, c.v1.err = c.renderV1() })
	return c.v1.body, c.v1.err
}

// renderV1 encodes the export through WriteJSONReport, counting the
// render.
func (c Characterization) renderV1() ([]byte, error) {
	ctrRendered.Inc()
	var buf bytes.Buffer
	err := WriteJSONReport(&buf, c.JSONExport())
	return buf.Bytes(), err
}

// WriteJSON writes the export V1 returns. The bytes are identical for
// any sweep worker count and re-marshaling a parsed report reproduces
// them exactly.
func (c Characterization) WriteJSON(w io.Writer) error {
	b, err := c.V1()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteJSONReport renders an already-built report — the single encoder
// both the export and the round-trip path share.
func WriteJSONReport(w io.Writer, rep JSONReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadJSONReport parses a characterization export and verifies the
// schema identifier and version, the entry point for cross-run tooling
// (perf-trajectory diffs over BENCH_*.json files).
func ReadJSONReport(r io.Reader) (JSONReport, error) {
	var rep JSONReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return JSONReport{}, fmt.Errorf("report: parse JSON export: %w", err)
	}
	if rep.Schema != JSONSchema {
		return JSONReport{}, fmt.Errorf("report: unknown schema %q (want %q)", rep.Schema, JSONSchema)
	}
	if rep.Version > JSONVersion {
		return JSONReport{}, fmt.Errorf("report: schema version %d is newer than this build supports (%d)", rep.Version, JSONVersion)
	}
	return rep, nil
}
