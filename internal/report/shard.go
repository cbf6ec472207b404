package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/profile"
)

// Distributed sweeps: N processes each run a deterministic 1/N slice
// of the job grid (core.SweepOptions ShardIndex/ShardCount), emit a
// shard bundle, and MergeShards joins the bundles back into one
// Characterization whose v1 JSON export is byte-identical to a
// single-process sweep of the same query. The shard bundle is the wire
// format between those processes: it carries every owned cell's full
// result — including the board definition, so the merger needs no
// registry state — plus the per-kernel record-level fields owned by
// whichever shard ran the static job and the reference cell.
//
// Safety: a bundle is only ever written for a fully healthy shard
// (RunShard refuses partial runs), every bundle names the sweep's
// content key, and the merge verifies that all bundles share one key
// and that together they cover every job slot exactly once — so a
// stale, duplicated, or missing shard is a loud error, never silent
// data corruption.

// ShardSchema and ShardVersion identify the shard bundle format.
const (
	ShardSchema  = "entobench.shard"
	ShardVersion = 1
)

// ShardReport is one shard's bundle: its owned slice of the sweep.
type ShardReport struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// SweepKey is the content key of the whole query (report.SweepKey);
	// only bundles with equal keys merge.
	SweepKey string `json:"sweep_key"`
	// Shard/Of locate this bundle in the partition: shard Shard of Of,
	// 1-based.
	Shard int `json:"shard"`
	Of    int `json:"of"`
	// Kernels lists every kernel of the query, in suite order — also
	// the kernels this shard owns nothing of, so the merge can verify
	// alignment structurally.
	Kernels []ShardKernel `json:"kernels"`
}

// ShardKernel is one kernel's slice of a shard: the descriptor (enough
// to rebuild the Spec for rendering; factories are irrelevant to an
// export), the grid width, and whatever this shard owns of it.
type ShardKernel struct {
	Name      string `json:"name"`
	Stage     string `json:"stage"`
	Category  string `json:"category"`
	Dataset   string `json:"dataset"`
	Precision int    `json:"precision"`
	FLOPs     int    `json:"claimed_flops,omitempty"`
	M7Only    bool   `json:"m7_only,omitempty"`
	MinSRAMKB int    `json:"min_sram_kb,omitempty"`
	// TotalCells is the kernel's full grid width (fitting archs × cache
	// settings) — identical across shards, verified by the merge.
	TotalCells int `json:"total_cells"`
	// Static is present iff this shard owned the kernel's static-proxy
	// job.
	Static *core.StaticCellResult `json:"static,omitempty"`
	// Ref is present iff this shard owned the kernel's reference cell
	// (cell 0), which supplies the record-level dynamic mix and
	// validation verdict.
	Ref *ShardRef `json:"ref,omitempty"`
	// Cells are the measurement cells this shard owns, by grid index.
	Cells []ShardCell `json:"cells"`
}

// descriptor is k without the jobs its shard owns: the part every
// bundle of a set must agree on, since the merge renders it from one.
func (k ShardKernel) descriptor() ShardKernel {
	k.Static, k.Ref, k.Cells = nil, nil, nil
	return k
}

// ShardRef carries the record-level fields the reference cell owns.
type ShardRef struct {
	Counts   JSONCounts `json:"dynamic"`
	Valid    bool       `json:"valid"`
	ValidErr string     `json:"valid_err,omitempty"`
}

// profileCounts converts the wire counts back to the profiler type.
func profileCounts(c JSONCounts) profile.Counts {
	return profile.Counts{F: c.F, I: c.I, M: c.M, B: c.B}
}

// ShardCell is one owned measurement cell, self-contained: the full
// board definition rides along (with its provenance Source, which
// Arch's own JSON encoding deliberately omits) so the merger rebuilds
// the exact ArchRun without any registry lookups.
type ShardCell struct {
	Index   int      `json:"index"`
	CacheOn bool     `json:"cache_on"`
	Arch    mcu.Arch `json:"arch"`
	Source  string   `json:"source,omitempty"`
	// Backend/MeasSource carry the cell's measurement-backend provenance
	// (core.ArchRun Backend/Source). The `source` tag above is taken by
	// the board's definition provenance, hence `meas_source`. Both are
	// empty for classic sweeps, keeping pre-seam bundles byte-identical.
	Backend    string              `json:"backend,omitempty"`
	MeasSource string              `json:"meas_source,omitempty"`
	Model      mcu.Estimate        `json:"model"`
	Meas       harness.Measurement `json:"meas"`
}

// RunShard executes one shard of a sweep — opts.ShardIndex of
// opts.ShardCount — and returns its bundle. The run goes straight to
// the engine (a shard's records are partial by construction, so the
// in-memory sweep cache must not see them); a persistent cell cache in
// opts still applies. Any owned-job failure, timeout, or cancellation
// aborts the shard with an error and no bundle: merge inputs are
// healthy by construction.
func RunShard(specs []core.Spec, archs []mcu.Arch, opts core.SweepOptions) (ShardReport, error) {
	if opts.ShardCount < 1 || opts.ShardIndex < 1 || opts.ShardIndex > opts.ShardCount {
		return ShardReport{}, fmt.Errorf("report: shard %d/%d is not a valid partition slot", opts.ShardIndex, opts.ShardCount)
	}
	recs, err := core.CharacterizeSuiteOpts(specs, archs, opts)
	if err != nil {
		return ShardReport{}, fmt.Errorf("report: shard %d/%d failed: %w", opts.ShardIndex, opts.ShardCount, err)
	}
	sr := ShardReport{
		Schema:   ShardSchema,
		Version:  ShardVersion,
		SweepKey: SweepKey(specs, archs, harness.DefaultConfig(), harness.BackendSalt(opts.Backend)),
		Shard:    opts.ShardIndex,
		Of:       opts.ShardCount,
		Kernels:  make([]ShardKernel, 0, len(recs)),
	}
	for _, r := range recs {
		k := ShardKernel{
			Name:       r.Spec.Name,
			Stage:      string(r.Spec.Stage),
			Category:   r.Spec.Category,
			Dataset:    r.Spec.Dataset,
			Precision:  int(r.Spec.Prec),
			FLOPs:      r.Spec.FLOPs,
			M7Only:     r.Spec.M7Only,
			MinSRAMKB:  r.Spec.MinSRAMKB,
			TotalCells: len(r.Cells),
			Cells:      []ShardCell{},
		}
		if r.StaticStatus == core.CellOK {
			k.Static = &core.StaticCellResult{Static: r.Static, Flash: r.Flash}
		}
		for i, cell := range r.Cells {
			if cell.Status != core.CellOK {
				continue // a foreign shard's slot (skipped, no error)
			}
			if i == 0 {
				ref := &ShardRef{
					Counts: JSONCounts{F: r.Dynamic.F, I: r.Dynamic.I, M: r.Dynamic.M, B: r.Dynamic.B},
					Valid:  r.Valid,
				}
				if r.ValidE != nil {
					ref.ValidErr = r.ValidE.Error()
				}
				k.Ref = ref
			}
			k.Cells = append(k.Cells, ShardCell{
				Index:      i,
				CacheOn:    cell.CacheOn,
				Arch:       cell.Arch,
				Source:     cell.Arch.Source,
				Backend:    cell.Backend,
				MeasSource: cell.Source,
				Model:      cell.Model,
				Meas:       cell.Meas,
			})
		}
		sr.Kernels = append(sr.Kernels, k)
	}
	return sr, nil
}

// WriteShardReport renders a shard bundle, indented, with a trailing
// newline (the same encoder discipline as the v1 export).
func WriteShardReport(w io.Writer, sr ShardReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sr)
}

// ReadShardReport parses and validates a shard bundle's envelope.
func ReadShardReport(r io.Reader) (ShardReport, error) {
	var sr ShardReport
	if err := json.NewDecoder(r).Decode(&sr); err != nil {
		return ShardReport{}, fmt.Errorf("report: parse shard bundle: %w", err)
	}
	if sr.Schema != ShardSchema {
		return ShardReport{}, fmt.Errorf("report: unknown shard schema %q (want %q)", sr.Schema, ShardSchema)
	}
	if sr.Version > ShardVersion {
		return ShardReport{}, fmt.Errorf("report: shard version %d is newer than this build supports (%d)", sr.Version, ShardVersion)
	}
	return sr, nil
}

// MergeShards joins a complete shard set back into one
// Characterization. It verifies that every bundle names the same sweep
// key, that the set is exactly shards 1..N of N, that the kernel lists
// align structurally, and that the union covers every job slot —
// static, reference, and each cell — exactly once. The rebuilt records
// render the same v1 JSON bytes as a single-process sweep of the
// query (the specs carry no factories, which the export never uses).
func MergeShards(shards []ShardReport) (Characterization, error) {
	if len(shards) == 0 {
		return Characterization{}, errors.New("report: merge: no shard bundles")
	}
	of := shards[0].Of
	key := shards[0].SweepKey
	if of != len(shards) {
		return Characterization{}, fmt.Errorf("report: merge: got %d bundles for a %d-way partition", len(shards), of)
	}
	seen := make(map[int]bool, of)
	for _, s := range shards {
		if s.SweepKey != key {
			return Characterization{}, fmt.Errorf("report: merge: shard %d/%d is from a different sweep (key %s != %s)", s.Shard, s.Of, s.SweepKey, key)
		}
		if s.Of != of {
			return Characterization{}, fmt.Errorf("report: merge: shard %d declares a %d-way partition, want %d-way", s.Shard, s.Of, of)
		}
		if s.Shard < 1 || s.Shard > of {
			return Characterization{}, fmt.Errorf("report: merge: shard index %d out of range 1..%d", s.Shard, of)
		}
		if seen[s.Shard] {
			return Characterization{}, fmt.Errorf("report: merge: shard %d/%d appears twice", s.Shard, of)
		}
		seen[s.Shard] = true
		if len(s.Kernels) != len(shards[0].Kernels) {
			return Characterization{}, fmt.Errorf("report: merge: shard %d lists %d kernels, shard %d lists %d", s.Shard, len(s.Kernels), shards[0].Shard, len(shards[0].Kernels))
		}
	}

	// Each kernel's owned cells must fill its grid exactly, checked
	// before the grid is allocated: a hostile total_cells (negative or
	// huge) is an error, not a panic or an unbounded allocation.
	for i, k := range shards[0].Kernels {
		owned := 0
		for _, s := range shards {
			owned += len(s.Kernels[i].Cells)
		}
		if owned != k.TotalCells {
			return Characterization{}, fmt.Errorf("report: merge: kernel %s: shards own %d cells of its %d", k.Name, owned, k.TotalCells)
		}
	}

	nk := len(shards[0].Kernels)
	recs := make([]core.Record, nk)
	cellSeen := make([][]bool, nk)
	staticSeen := make([]bool, nk)
	refSeen := make([]bool, nk)
	for i, k := range shards[0].Kernels {
		recs[i] = core.Record{
			Spec: core.Spec{
				Name:      k.Name,
				Stage:     core.Stage(k.Stage),
				Category:  k.Category,
				Dataset:   k.Dataset,
				Prec:      mcu.Precision(k.Precision),
				FLOPs:     k.FLOPs,
				M7Only:    k.M7Only,
				MinSRAMKB: k.MinSRAMKB,
			},
			Cells: make([]core.ArchRun, k.TotalCells),
		}
		cellSeen[i] = make([]bool, k.TotalCells)
	}

	for _, s := range shards {
		for i, k := range s.Kernels {
			if d, ref := k.descriptor(), shards[0].Kernels[i].descriptor(); !reflect.DeepEqual(d, ref) {
				return Characterization{}, fmt.Errorf("report: merge: shard %d kernel %d is %+v, shard %d has %+v", s.Shard, i, d, shards[0].Shard, ref)
			}
			rec := &recs[i]
			if k.Static != nil {
				if staticSeen[i] {
					return Characterization{}, fmt.Errorf("report: merge: kernel %s: static job owned by two shards", k.Name)
				}
				staticSeen[i] = true
				rec.Static, rec.Flash = k.Static.Static, k.Static.Flash
			}
			if k.Ref != nil {
				if refSeen[i] {
					return Characterization{}, fmt.Errorf("report: merge: kernel %s: reference cell owned by two shards", k.Name)
				}
				refSeen[i] = true
				rec.Dynamic = profileCounts(k.Ref.Counts)
				rec.Valid = k.Ref.Valid
				if k.Ref.ValidErr != "" {
					rec.ValidE = errors.New(k.Ref.ValidErr)
				}
			}
			for _, c := range k.Cells {
				if c.Index < 0 || c.Index >= k.TotalCells {
					return Characterization{}, fmt.Errorf("report: merge: kernel %s: cell index %d out of range 0..%d", k.Name, c.Index, k.TotalCells-1)
				}
				if cellSeen[i][c.Index] {
					return Characterization{}, fmt.Errorf("report: merge: kernel %s: cell %d owned by two shards", k.Name, c.Index)
				}
				cellSeen[i][c.Index] = true
				arch := c.Arch
				arch.Source = c.Source
				rec.Cells[c.Index] = core.ArchRun{
					Arch:    arch,
					CacheOn: c.CacheOn,
					Backend: c.Backend,
					Source:  c.MeasSource,
					Model:   c.Model,
					Meas:    c.Meas,
				}
			}
		}
	}

	for i, k := range shards[0].Kernels {
		if !staticSeen[i] {
			return Characterization{}, fmt.Errorf("report: merge: kernel %s: no shard owns the static job", k.Name)
		}
		if k.TotalCells > 0 && !refSeen[i] {
			return Characterization{}, fmt.Errorf("report: merge: kernel %s: no shard owns the reference cell", k.Name)
		}
		for idx, ok := range cellSeen[i] {
			if !ok {
				return Characterization{}, fmt.Errorf("report: merge: kernel %s: no shard owns cell %d", k.Name, idx)
			}
		}
	}
	return Characterization{Records: recs}, nil
}
