package report

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/profile"
)

// Distributed sweeps: N processes each sweep every N-th kernel of the
// query and emit a shard bundle, and MergeShards joins the bundles into
// one Characterization whose v1 JSON export is byte-identical to a
// single-process sweep. A kernel's record depends on its own execution
// only, so a shard is a plain sweep over a subset of the kernels and a
// set executes each kernel once. A bundle carries its kernels' whole
// records and a table of the boards its cells name, each definition
// once, so the merger needs no registry state. Only healthy shards
// write bundles, and the merge checks the sweep key, the partition and
// each bundle's digest, so a stale, duplicated, missing or corrupted
// shard is an error, never a report.

// ShardSchema and ShardVersion identify the shard bundle format.
// Version 2 partitioned by kernel and carried a digest; version 3
// writes each board once, in the bundle's board table, and its cells
// name their board.
const (
	ShardSchema  = "entobench.shard"
	ShardVersion = 3
)

// ShardReport is one shard's bundle: the kernels it owns.
type ShardReport struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// SweepKey is the content key of the whole query (report.SweepKey);
	// only bundles with equal keys merge.
	SweepKey string `json:"sweep_key"`
	// Shard/Of locate this bundle in the partition: shard Shard of Of,
	// 1-based. Shard owns the kernels whose query index ≡ Shard-1
	// (mod Of).
	Shard int `json:"shard"`
	Of    int `json:"of"`
	// TotalKernels is the number of kernels in the whole query; every
	// bundle of a set declares the same.
	TotalKernels int `json:"total_kernels"`
	// Digest is the hex SHA-256 of the bundle's JSON with Digest
	// empty: it binds the board table and the kernels to the sweep key
	// and the slot.
	Digest string `json:"digest"`
	// Boards are the boards the cells name, once each, in
	// first-appearance order.
	Boards []ShardBoard `json:"boards"`
	// Kernels are the owned kernels in query order (none when Of
	// exceeds the query's kernel count).
	Kernels []ShardKernel `json:"kernels"`
}

// ShardKernel is one owned kernel: its query index, the descriptor
// (enough to rebuild the Spec for rendering; factories are irrelevant
// to an export), and its whole record.
type ShardKernel struct {
	Index     int                   `json:"index"`
	Name      string                `json:"name"`
	Stage     string                `json:"stage"`
	Category  string                `json:"category"`
	Dataset   string                `json:"dataset"`
	Precision int                   `json:"precision"`
	FLOPs     int                   `json:"claimed_flops,omitempty"`
	M7Only    bool                  `json:"m7_only,omitempty"`
	MinSRAMKB int                   `json:"min_sram_kb,omitempty"`
	Static    core.StaticCellResult `json:"static"`
	Dynamic   profile.Counts        `json:"dynamic"`
	Valid     bool                  `json:"valid"`
	ValidErr  string                `json:"valid_err,omitempty"`
	// Cells are the kernel's measurement cells in grid order.
	Cells []ShardCell `json:"cells"`
}

// ShardBoard is one board of a bundle's table: the full definition with
// its provenance Source, which Arch's own JSON encoding deliberately
// omits, so the merger rebuilds the exact ArchRun without any registry
// lookups.
type ShardBoard struct {
	Arch   mcu.Arch `json:"arch"`
	Source string   `json:"source,omitempty"`
}

// ShardCell is one measurement cell; Board names its board in the
// bundle's board table.
type ShardCell struct {
	CacheOn bool   `json:"cache_on"`
	Board   string `json:"board"`
	// Backend/MeasSource are core.ArchRun's Backend/Source; `meas_source`
	// keeps them apart from the board's provenance.
	Backend    string              `json:"backend,omitempty"`
	MeasSource string              `json:"meas_source,omitempty"`
	Model      mcu.Estimate        `json:"model"`
	Meas       harness.Measurement `json:"meas"`
}

// shardDigest is the digest sr should carry: the SHA-256 of its JSON
// encoding with the Digest field empty.
func shardDigest(sr ShardReport) (string, error) {
	sr.Digest = ""
	b, err := json.Marshal(sr)
	if err != nil {
		return "", fmt.Errorf("report: shard %d/%d digest: %w", sr.Shard, sr.Of, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// RunShard sweeps the specs whose index ≡ shard-1 (mod of) and
// returns their bundle. The run goes straight to the engine, so the
// in-memory sweep cache never holds a subset under the whole query's
// key; a cell cache in opts still applies. Any failure, timeout, or
// cancellation aborts the shard with an error and no bundle.
func RunShard(specs []core.Spec, archs []mcu.Arch, shard, of int, opts core.SweepOptions) (ShardReport, error) {
	if of < 1 || shard < 1 || shard > of {
		return ShardReport{}, fmt.Errorf("report: shard %d/%d is not a valid partition slot", shard, of)
	}
	var owned []core.Spec
	for i := shard - 1; i < len(specs); i += of {
		owned = append(owned, specs[i])
	}
	recs, err := core.CharacterizeSuiteOpts(owned, archs, opts)
	if err != nil {
		return ShardReport{}, fmt.Errorf("report: shard %d/%d failed: %w", shard, of, err)
	}
	sr := ShardReport{
		Schema:       ShardSchema,
		Version:      ShardVersion,
		SweepKey:     SweepKey(specs, archs, harness.DefaultConfig(), harness.BackendSalt(opts.Backend)),
		Shard:        shard,
		Of:           of,
		TotalKernels: len(specs),
		Kernels:      make([]ShardKernel, 0, len(recs)),
	}
	inTable := map[string]bool{}
	for i, r := range recs {
		k := ShardKernel{
			Index:     shard - 1 + i*of,
			Name:      r.Spec.Name,
			Stage:     string(r.Spec.Stage),
			Category:  r.Spec.Category,
			Dataset:   r.Spec.Dataset,
			Precision: int(r.Spec.Prec),
			FLOPs:     r.Spec.FLOPs,
			M7Only:    r.Spec.M7Only,
			MinSRAMKB: r.Spec.MinSRAMKB,
			Static:    core.StaticCellResult{Static: r.Static, Flash: r.Flash},
			Dynamic:   r.Dynamic,
			Valid:     r.Valid,
			Cells:     make([]ShardCell, len(r.Cells)),
		}
		if r.ValidE != nil {
			k.ValidErr = r.ValidE.Error()
		}
		for c, cell := range r.Cells {
			if !inTable[cell.Arch.Name] {
				inTable[cell.Arch.Name] = true
				sr.Boards = append(sr.Boards, ShardBoard{Arch: cell.Arch, Source: cell.Arch.Source})
			}
			k.Cells[c] = ShardCell{
				CacheOn:    cell.CacheOn,
				Board:      cell.Arch.Name,
				Backend:    cell.Backend,
				MeasSource: cell.Source,
				Model:      cell.Model,
				Meas:       cell.Meas,
			}
		}
		sr.Kernels = append(sr.Kernels, k)
	}
	if sr.Digest, err = shardDigest(sr); err != nil {
		return ShardReport{}, err
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
	if sr.Version != ShardVersion {
		return ShardReport{}, fmt.Errorf("report: shard version %d is not supported (this build reads version %d only)", sr.Version, ShardVersion)
	}
	return sr, nil
}

// MergeShards joins a complete shard set back into one
// Characterization. It verifies one sweep key, exactly shards 1..N of
// N, each bundle's digest, one declared kernel count, that the bundles
// own each kernel index exactly once, and that every cell names a board
// of its bundle's table, listed once. The records render the v1 JSON
// bytes of a single-process sweep (their specs carry no factories,
// which the export never uses).
func MergeShards(shards []ShardReport) (Characterization, error) {
	if len(shards) == 0 {
		return Characterization{}, errors.New("report: merge: no shard bundles")
	}
	of := shards[0].Of
	key := shards[0].SweepKey
	total := shards[0].TotalKernels
	if of != len(shards) {
		return Characterization{}, fmt.Errorf("report: merge: got %d bundles for a %d-way partition", len(shards), of)
	}
	seen := make(map[int]bool, of)
	owned := 0
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
		if d, err := shardDigest(s); err != nil || d != s.Digest {
			return Characterization{}, fmt.Errorf("report: merge: shard %d/%d digest mismatch: its contents changed after it was written", s.Shard, of)
		}
		if s.TotalKernels != total {
			return Characterization{}, fmt.Errorf("report: merge: shard %d declares %d kernels, shard %d declares %d", s.Shard, s.TotalKernels, shards[0].Shard, total)
		}
		owned += len(s.Kernels)
	}
	// Checked before the records are allocated: a hostile kernel count
	// (negative or huge) is an error, not a panic or an unbounded
	// allocation.
	if owned != total {
		return Characterization{}, fmt.Errorf("report: merge: shards own %d kernels of %d", owned, total)
	}

	// With owned == total, each index in range and none seen twice
	// means every index is owned exactly once.
	recs := make([]core.Record, total)
	placed := make([]bool, total)
	for _, s := range shards {
		boards := make(map[string]mcu.Arch, len(s.Boards))
		for _, b := range s.Boards {
			if _, dup := boards[b.Arch.Name]; dup {
				return Characterization{}, fmt.Errorf("report: merge: shard %d board %q appears twice in its board table", s.Shard, b.Arch.Name)
			}
			arch := b.Arch
			arch.Source = b.Source
			boards[arch.Name] = arch
		}
		for _, k := range s.Kernels {
			if k.Index < 0 || k.Index >= total {
				return Characterization{}, fmt.Errorf("report: merge: shard %d kernel %s: index %d out of range 0..%d", s.Shard, k.Name, k.Index, total-1)
			}
			if placed[k.Index] {
				return Characterization{}, fmt.Errorf("report: merge: kernel %d owned by two shards", k.Index)
			}
			placed[k.Index] = true
			rec := core.Record{
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
				Static:  k.Static.Static,
				Flash:   k.Static.Flash,
				Dynamic: k.Dynamic,
				Valid:   k.Valid,
				Cells:   make([]core.ArchRun, len(k.Cells)),
			}
			if k.ValidErr != "" {
				rec.ValidE = errors.New(k.ValidErr)
			}
			for c, cell := range k.Cells {
				arch, ok := boards[cell.Board]
				if !ok {
					return Characterization{}, fmt.Errorf("report: merge: shard %d kernel %s cell %d names board %q missing from its board table", s.Shard, k.Name, c, cell.Board)
				}
				rec.Cells[c] = core.ArchRun{
					Arch:    arch,
					CacheOn: cell.CacheOn,
					Backend: cell.Backend,
					Source:  cell.MeasSource,
					Model:   cell.Model,
					Meas:    cell.Meas,
				}
			}
			recs[k.Index] = rec
		}
	}
	return Characterization{Records: recs}, nil
}
