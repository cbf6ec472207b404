package report

import (
	"sync/atomic"

	"repro/internal/cellstore"
	"repro/internal/core"
	"repro/internal/mcu"
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
type PersistentCellCache struct {
	store *cellstore.Store

	// Per-instance provenance: how many sweep jobs this cache served
	// from disk and how many it persisted after computation. entoreport
	// surfaces these in the export's cache block.
	hits   atomic.Int64
	stores atomic.Int64
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
	res, ok := decodeStaticCell(payload)
	if ok {
		p.hits.Add(1)
	}
	return res, ok
}

// StoreStatic implements core.CellCache.
func (p *PersistentCellCache) StoreStatic(spec core.Spec, res core.StaticCellResult) {
	p.put(StaticCellKey(spec), appendStaticCell(make([]byte, 0, staticLen), res))
}

// LoadCell implements core.CellCache. The backend salt is part of the
// content key, so a measured cell can never be served to a modeled
// query or vice versa.
func (p *PersistentCellCache) LoadCell(spec core.Spec, arch mcu.Arch, cacheOn bool, backend string) (core.MeasuredCellResult, bool) {
	res, ok := p.ProbeCell(spec, arch, cacheOn, backend)
	if ok {
		p.hits.Add(1)
	}
	return res, ok
}

// ProbeCell is LoadCell without counting a served cell: the sweep's
// rehydration probe reads a kernel's cached cell through it to skip
// executing the kernel, which serves no job of its own.
func (p *PersistentCellCache) ProbeCell(spec core.Spec, arch mcu.Arch, cacheOn bool, backend string) (core.MeasuredCellResult, bool) {
	payload, ok := p.store.Get(CellKey(spec, arch, cacheOn, backend))
	if !ok {
		return core.MeasuredCellResult{}, false
	}
	return decodeMeasuredCell(payload)
}

// StoreCell implements core.CellCache.
func (p *PersistentCellCache) StoreCell(spec core.Spec, arch mcu.Arch, cacheOn bool, backend string, res core.MeasuredCellResult) {
	payload := make([]byte, 0, measuredFixedLen+len(res.Name)+len(res.ValidErr))
	p.put(CellKey(spec, arch, cacheOn, backend), appendMeasuredCell(payload, res))
}

// put persists one encoded payload, swallowing store errors (see the
// type comment).
func (p *PersistentCellCache) put(key string, payload []byte) {
	if p.store.Put(key, payload) == nil {
		p.stores.Add(1)
	}
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
	// persisted.
	CellsComputed int `json:"cells_computed"`
}

// Provenance reports this cache instance's load/store tallies.
func (p *PersistentCellCache) Provenance() CacheProvenance {
	return CacheProvenance{
		Dir:           p.store.Dir(),
		CellsCached:   int(p.hits.Load()),
		CellsComputed: int(p.stores.Load()),
	}
}
