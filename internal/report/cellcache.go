package report

import (
	"repro/internal/cellstore"
	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/obs"
)

// PersistentCellCache adapts the on-disk content-addressed store
// (internal/cellstore) to the sweep engine's core.CellCache interface:
// every healthy cell a sweep computes is persisted under its content
// key (CellKey / StaticCellKey), and any later sweep — in this process
// or another — that needs a content-identical cell loads it instead of
// recomputing. Loaded cells are byte-identical to recomputation, so a
// warm sweep's v1 JSON export matches a cold one's exactly.
//
// The adapter is safe for concurrent use by pool workers and by
// multiple processes sharing one directory (the store's atomic-rename
// writes and verified reads make cross-process sharing safe). Store
// errors are deliberately swallowed: a cache that cannot persist —
// disk full, read-only directory — degrades to computing every cell,
// never to failing the sweep.
//
// The cache keeps no tallies: what it served a sweep is that sweep's
// sweep.cells_* counts, held by its obs.Recorder (CacheProvenanceOf).
type PersistentCellCache struct {
	store *cellstore.Store
}

// OpenCellCache opens (creating if needed) the persistent cell cache
// rooted at dir — the implementation behind every -cachedir flag.
func OpenCellCache(dir string) (*PersistentCellCache, error) {
	st, err := cellstore.Open(dir)
	if err != nil {
		return nil, err
	}
	return &PersistentCellCache{store: st}, nil
}

// OpenCellCacheQuota is OpenCellCache with a byte-size bound on the
// backing directory (entobenchd -cachequota): past the quota the
// least-recently-used records are garbage-collected. quota <= 0 means
// unbounded.
func OpenCellCacheQuota(dir string, quota int64) (*PersistentCellCache, error) {
	p, err := OpenCellCache(dir)
	if err != nil {
		return nil, err
	}
	p.store.SetQuota(quota)
	return p, nil
}

// Dir returns the cache's root directory.
func (p *PersistentCellCache) Dir() string { return p.store.Dir() }

// Backing exposes the underlying store — the chaos harness's seam for
// fault injection and probe tuning.
func (p *PersistentCellCache) Backing() *cellstore.Store { return p.store }

// Health reports whether the cache is fully operational and, when it is
// not, why. A degraded cache still serves warm cells; entobenchd
// surfaces the state on /healthz.
func (p *PersistentCellCache) Health() (ok bool, reasons []string) {
	if degraded, reason := p.store.Degraded(); degraded {
		return false, []string{reason}
	}
	return true, nil
}

// LoadStatic implements core.CellCache.
func (p *PersistentCellCache) LoadStatic(spec core.Spec) (core.StaticCellResult, bool) {
	payload, ok := p.store.Get(StaticCellKey(spec))
	if !ok {
		return core.StaticCellResult{}, false
	}
	return decodeStaticCell(payload)
}

// StoreStatic implements core.CellCache; store errors are swallowed.
func (p *PersistentCellCache) StoreStatic(spec core.Spec, res core.StaticCellResult) {
	_ = p.store.Put(StaticCellKey(spec), appendStaticCell(make([]byte, 0, staticLen), res))
}

// LoadCell implements core.CellCache. The backend salt is part of the
// content key, so a measured cell can never be served to a modeled
// query or vice versa.
func (p *PersistentCellCache) LoadCell(spec core.Spec, arch mcu.Arch, cacheOn bool, backend string) (core.MeasuredCellResult, bool) {
	payload, ok := p.store.Get(CellKey(spec, arch, cacheOn, backend))
	if !ok {
		return core.MeasuredCellResult{}, false
	}
	return decodeMeasuredCell(payload)
}

// StoreCell implements core.CellCache; store errors are swallowed.
func (p *PersistentCellCache) StoreCell(spec core.Spec, arch mcu.Arch, cacheOn bool, backend string, res core.MeasuredCellResult) {
	payload := make([]byte, 0, measuredFixedLen+len(res.Name)+len(res.ValidErr))
	_ = p.store.Put(CellKey(spec, arch, cacheOn, backend), appendMeasuredCell(payload, res))
}

// CacheProvenance describes how a sweep's cells were obtained when a
// persistent cell cache was in play — the additive JSON cache block
// entoreport emits with -cachedir.
type CacheProvenance struct {
	// Dir is the cache directory the run used.
	Dir string `json:"dir"`
	// CellsCached is how many cells this run loaded from the store.
	CellsCached int `json:"cells_cached"`
	// CellsComputed is how many healthy cells this run computed and
	// offered to the store (a Put that fails on a degraded store still
	// counts).
	CellsComputed int `json:"cells_computed"`
}

// CacheProvenanceOf builds the cache block of the sweep rec recorded
// against the cache at dir: its sweep.cells_cached, and its
// sweep.cells_computed less sweep.cells_failed — the healthy computed
// cells, the ones the engine offers to the store.
func CacheProvenanceOf(dir string, rec *obs.Recorder) CacheProvenance {
	return CacheProvenance{
		Dir:           dir,
		CellsCached:   int(rec.Count(obs.CounterSweepCellsCached)),
		CellsComputed: int(rec.Count(obs.CounterSweepCellsComputed) - rec.Count(obs.CounterSweepCellsFailed)),
	}
}
