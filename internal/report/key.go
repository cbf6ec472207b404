package report

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
)

// Content digests, at two granularities. A characterization is fully
// determined by the kernel set, the board cost models, and the harness
// configuration (which carries the cache flag for single runs; the
// sweep itself measures both cache settings per cell). SweepKey digests
// exactly those inputs for a whole query, so two queries share an
// in-memory cache entry if and only if they would produce
// byte-identical v1 JSON exports. CellKey and StaticCellKey apply the
// same digest scheme to one cell — one (kernel, board, cache setting)
// measurement, or one kernel's static-proxy run — and key the on-disk
// persistent store (internal/cellstore), so overlapping sweeps share
// every cell they have in common.
//
// Kernel identity is by name plus descriptor metadata: the suite
// registry rejects duplicate names, so within one process a name plus
// its (stage, category, dataset, precision, FLOPs, SRAM gate) tuple
// pins one Factory. Across processes sharing a -cachedir the same
// holds by convention — a user who changes a registered kernel's
// implementation without renaming it must point at a fresh cache
// directory (or delete the old one), exactly as with any
// content-by-descriptor build cache. Board identity is the full
// serialized Arch — name, clock, FPU, SRAM, cache, every ModelParams
// field, and the provenance Source (Source appears in the export's
// boards block, so two otherwise-identical boards with different
// provenance must not share bytes).

// cellSchemaVersion salts the per-cell keys with the payload schema
// generation. Bumping it (alongside cellstore.Version) orphans every
// old on-disk record into a clean miss when the cached result's
// meaning changes in a way the inputs do not capture.
const cellSchemaVersion = 1

// hashKernel writes one kernel's identity line into a digest.
func hashKernel(h hash.Hash, s core.Spec) {
	fmt.Fprintf(h, "kernel|%s|%s|%s|%s|%d|%d|%v|%d\n",
		s.Name, s.Stage, s.Category, s.Dataset, s.Prec, s.FLOPs, s.M7Only, s.MinSRAMKB)
}

// hashBoard writes one board's identity line into a digest.
func hashBoard(h hash.Hash, a mcu.Arch) {
	fmt.Fprintf(h, "board|%s|%s|%s|%g|%d|%d|%v|%s|%+v\n",
		a.Name, a.Board, a.ISA, a.ClockHz, a.FPU, a.SRAMKB, a.HasCache, a.Source, a.Model)
}

// hashHarness writes the harness configuration line into a digest.
func hashHarness(h hash.Hash, cfg harness.Config) {
	fmt.Fprintf(h, "harness|%+v\n", cfg)
}

// hashBackend writes the measurement-backend salt line into a digest —
// only when there is one. The classic simulated path contributes
// nothing, so every key minted before the backend seam existed (and
// every warm cache built from them) stays byte-identical.
func hashBackend(h hash.Hash, backend string) {
	if backend != "" {
		fmt.Fprintf(h, "backend|%s\n", backend)
	}
}

// SweepKey returns the cache key of a characterization query:
// "sweep-" plus the hex SHA-256 of the query's content digest. backend
// is the measurement backend's salt (harness.BackendSalt) — empty for
// classic sweeps.
func SweepKey(specs []core.Spec, archs []mcu.Arch, cfg harness.Config, backend string) string {
	h := sha256.New()
	hashBackend(h, backend)
	hashHarness(h, cfg)
	for _, s := range specs {
		hashKernel(h, s)
	}
	for _, a := range archs {
		hashBoard(h, a)
	}
	return "sweep-" + hex.EncodeToString(h.Sum(nil))
}

// CellKey returns the persistent-store key of one (kernel, board,
// cache setting) measurement cell: "cell-" plus the hex SHA-256 of the
// cell's content digest. The digest covers the kernel descriptor, the
// full board model, and the per-cell harness configuration (the sweep
// default with CacheOn set to the cell's setting), plus the payload
// schema version — the same identity the sweep-level key uses, applied
// to one cell. backend is the measurement backend's salt
// (harness.BackendSalt): empty for simulator cells, which therefore
// keep their pre-seam keys; non-empty for externally measured cells,
// so modeled and measured results never collide in the store.
func CellKey(spec core.Spec, arch mcu.Arch, cacheOn bool, backend string) string {
	cfg := harness.DefaultConfig()
	cfg.CacheOn = cacheOn
	h := sha256.New()
	fmt.Fprintf(h, "cellschema|%d\n", cellSchemaVersion)
	hashBackend(h, backend)
	hashHarness(h, cfg)
	hashKernel(h, spec)
	hashBoard(h, arch)
	return "cell-" + hex.EncodeToString(h.Sum(nil))
}

// StaticCellKey returns the persistent-store key of one kernel's
// static-proxy run. The static job is board-independent (it profiles
// the reduced-input solve and models flash from the counts), so the
// digest covers only the kernel descriptor and the schema version.
func StaticCellKey(spec core.Spec) string {
	h := sha256.New()
	fmt.Fprintf(h, "cellschema|%d\nstatic\n", cellSchemaVersion)
	hashKernel(h, spec)
	return "cell-" + hex.EncodeToString(h.Sum(nil))
}
