package report_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cellstore"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/report"
)

// cacheTestSpecs returns a small fixed kernel subset, enough to cover
// multiple kernels without paying for the whole suite per test.
func cacheTestSpecs(t *testing.T) []core.Spec {
	t.Helper()
	var specs []core.Spec
	for _, name := range []string{"madgwick", "mahony"} {
		s, ok := core.ByName(name)
		if !ok {
			t.Fatalf("%s missing from suite", name)
		}
		specs = append(specs, s)
	}
	return specs
}

// sweepJSON characterizes specs×archs with the given options and
// renders the v1 JSON export — the byte-level artifact every cache and
// shard invariant is stated against.
func sweepJSON(t *testing.T, specs []core.Spec, archs []mcu.Arch, opts core.SweepOptions) []byte {
	t.Helper()
	recs, err := core.CharacterizeSuiteOpts(specs, archs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (report.Characterization{Records: recs}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The tentpole invariant: a sweep against a cold persistent cache and a
// sweep against the warm cache both produce bytes identical to a plain
// uncached sweep — the cache is invisible in the output, at any worker
// count.
func TestPersistentCacheByteIdentical(t *testing.T) {
	specs := cacheTestSpecs(t)
	archs := mcu.TableIVSet()
	golden := sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1})

	cache, err := report.OpenCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1, CellCache: cache})
	if !bytes.Equal(golden, cold) {
		t.Fatal("cold cached sweep diverged from the uncached sweep")
	}

	for _, workers := range []int{1, 8} {
		before := obs.Counters()
		warm := sweepJSON(t, specs, archs, core.SweepOptions{Workers: workers, CellCache: cache})
		if !bytes.Equal(golden, warm) {
			t.Fatalf("warm cached sweep (j=%d) diverged from the uncached sweep", workers)
		}
		after := obs.Counters()
		if d := after[obs.CounterSweepCellsComputed] - before[obs.CounterSweepCellsComputed]; d != 0 {
			t.Fatalf("warm sweep (j=%d) computed %d cells, want 0", workers, d)
		}
		// 2 kernels × (1 static + 3 archs × 2 cache settings) jobs.
		if d := after[obs.CounterSweepCellsCached] - before[obs.CounterSweepCellsCached]; d != 14 {
			t.Fatalf("warm sweep (j=%d) served %d cells from cache, want 14", workers, d)
		}
	}
}

// The incremental invariant: against a cache warmed on the Table IV
// set, a sweep extended by one novel board computes exactly that
// board's cells — everything else loads, and the kernels themselves are
// never re-executed (the shared prepare rehydrates from a cached cell,
// so harness.reps.host stays flat). Bytes match the uncached sweep of
// the extended selection exactly.
func TestIncrementalSweepComputesOnlyNewCells(t *testing.T) {
	specs := cacheTestSpecs(t)
	base := mcu.TableIVSet()

	novel := mcu.M4
	novel.Name = "M4-novel"
	novel.Board = "synthetic clone for incremental test"
	extended := append(append([]mcu.Arch{}, base...), novel)

	golden := sweepJSON(t, specs, extended, core.SweepOptions{Workers: 1})

	cache, err := report.OpenCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sweepJSON(t, specs, base, core.SweepOptions{Workers: 1, CellCache: cache}) // warm the base grid

	before := obs.Counters()
	got := sweepJSON(t, specs, extended, core.SweepOptions{Workers: 1, CellCache: cache})
	after := obs.Counters()

	if !bytes.Equal(golden, got) {
		t.Fatal("incremental sweep diverged from the uncached extended sweep")
	}
	// The delta is exactly the novel board: 2 kernels × 2 cache settings.
	if d := after[obs.CounterSweepCellsComputed] - before[obs.CounterSweepCellsComputed]; d != 4 {
		t.Fatalf("incremental sweep computed %d cells, want 4 (the novel board's)", d)
	}
	if d := after[obs.CounterSweepCellsCached] - before[obs.CounterSweepCellsCached]; d != 14 {
		t.Fatalf("incremental sweep loaded %d cells, want 14 (the warm base grid)", d)
	}
	if d := after[obs.CounterHarnessHostReps] - before[obs.CounterHarnessHostReps]; d != 0 {
		t.Fatalf("incremental sweep executed %d host reps, want 0 (prepare must rehydrate from cache)", d)
	}
}

// Failed cells must never be persisted: a sweep full of hard failures
// leaves the store empty, and a later sweep over the same cache fails
// identically rather than loading a phantom healthy cell.
func TestFailedCellsNeverPersisted(t *testing.T) {
	specs := []core.Spec{
		faultinject.ErroringSpec("cc-erroring"),
		faultinject.PanickerSpec("cc-panicker"),
	}
	archs := mcu.TableIVSet()
	dir := t.TempDir()
	cache, err := report.OpenCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.CharacterizeSuiteOpts(specs, archs, core.SweepOptions{Workers: 2, CellCache: cache}); err == nil {
		t.Fatal("fault sweep reported no error")
	}
	store, err := cellstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := store.Len(); n != 0 {
		t.Fatalf("store holds %d records after an all-failures sweep, want 0", n)
	}
	// Spot-check the exact keys too: no cell, no static.
	if _, ok := store.Get(report.CellKey(specs[0], archs[0], true, "")); ok {
		t.Fatal("failed cell present under its content key")
	}
	if _, ok := store.Get(report.StaticCellKey(specs[1])); ok {
		t.Fatal("failed static pass present under its content key")
	}

	recs, err := core.CharacterizeSuiteOpts(specs, archs, core.SweepOptions{Workers: 2, CellCache: cache})
	if err == nil {
		t.Fatal("second fault sweep reported no error")
	}
	for _, rec := range recs {
		for _, cell := range rec.Cells {
			if cell.Status == core.CellOK {
				t.Fatalf("%s served a healthy cell from a cache that must be empty", rec.Spec.Name)
			}
		}
	}
}

// Soft validation failures are healthy measurements: their cells are
// persisted, and the warm replay round-trips the Valid=false verdict
// and its rendered error byte-identically.
func TestInvalidKernelCellsPersistAndReplay(t *testing.T) {
	specs := []core.Spec{faultinject.InvalidSpec("cc-invalid")}
	archs := mcu.TableIVSet()
	cache, err := report.OpenCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	golden := sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1})
	cold := sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1, CellCache: cache})
	warm := sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1, CellCache: cache})
	if !bytes.Equal(golden, cold) || !bytes.Equal(golden, warm) {
		t.Fatal("invalid-kernel sweep bytes diverged across cache states")
	}
	if !bytes.Contains(warm, []byte("faultinject: result is NaN/Inf")) {
		t.Fatal("validation error lost in the cached replay")
	}
}

// A corrupted record heals transparently: the sweep discards it,
// recomputes the cell, and still produces identical bytes.
func TestCorruptCellHealsIntoRecompute(t *testing.T) {
	specs := cacheTestSpecs(t)
	archs := mcu.TableIVSet()
	dir := t.TempDir()
	cache, err := report.OpenCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	golden := sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1, CellCache: cache})

	// Flip bits in one cell record and truncate another.
	key := report.CellKey(specs[0], archs[0], true, "")
	path := filepath.Join(dir, key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(dir, report.StaticCellKey(specs[1])+".json")
	sdata, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spath, sdata[:len(sdata)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	before := obs.Counters()
	got := sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1, CellCache: cache})
	after := obs.Counters()
	if !bytes.Equal(golden, got) {
		t.Fatal("sweep over a corrupted cache diverged")
	}
	if d := after[obs.CounterCellstoreCorruptDiscarded] - before[obs.CounterCellstoreCorruptDiscarded]; d != 2 {
		t.Fatalf("corrupt_discarded rose by %d, want 2", d)
	}
	if d := after[obs.CounterSweepCellsComputed] - before[obs.CounterSweepCellsComputed]; d != 2 {
		t.Fatalf("healing sweep computed %d cells, want exactly the 2 corrupted ones", d)
	}
	// And the heal re-persisted both: a third sweep is all-cache again.
	before = obs.Counters()
	sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1, CellCache: cache})
	after = obs.Counters()
	if d := after[obs.CounterSweepCellsComputed] - before[obs.CounterSweepCellsComputed]; d != 0 {
		t.Fatalf("post-heal sweep computed %d cells, want 0", d)
	}
}

// A version-2 record — a JSON payload under an "entobench.cell 2"
// header, as the previous binaries wrote it — reads once as a counted
// miss and is removed; the next store writes a version-3 record that
// serves.
func TestV2RecordReadsOnceAsMiss(t *testing.T) {
	dir := t.TempDir()
	cache, err := report.OpenCellCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := cacheTestSpecs(t)[0]
	cell := core.MeasuredCellResult{
		Model:  mcu.Estimate{Cycles: 1234, LatencyS: 1e-5, AvgPowerW: 0.02, EnergyJ: 2e-7, PeakPowerW: 0.03},
		Meas:   harness.Measurement{LatencyS: 1.1e-5, EnergyJ: 2.1e-7, AvgPowerW: 0.019, PeakPowerW: 0.031, Reps: 10},
		Counts: profile.Counts{F: 1, I: 2, M: 3, B: 4},
		Name:   spec.Name,
		Valid:  true,
	}
	key := report.CellKey(spec, mcu.M4, true, "")
	path := filepath.Join(dir, key+".json")
	payload, err := json.Marshal(cell)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	v2 := fmt.Sprintf("%s 2 %s %x\n%s", cellstore.Format, key, sum, payload)
	if err := os.WriteFile(path, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}

	before := obs.Counters()[obs.CounterCellstoreCorruptDiscarded]
	if got, ok := cache.LoadCell(spec, mcu.M4, true, ""); ok {
		t.Fatalf("v2 record served as %+v", got)
	}
	if d := obs.Counters()[obs.CounterCellstoreCorruptDiscarded] - before; d != 1 {
		t.Fatalf("corrupt_discarded rose by %d, want 1", d)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("v2 record not removed (stat err %v)", err)
	}

	cache.StoreCell(spec, mcu.M4, true, "", cell)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%s 3 %s ", cellstore.Format, key); !bytes.HasPrefix(data, []byte(want)) {
		t.Fatalf("rewritten record starts %q, want %q", data[:len(want)], want)
	}
	if got, ok := cache.LoadCell(spec, mcu.M4, true, ""); !ok || got != cell {
		t.Fatalf("v3 record: ok=%v got %+v, want %+v", ok, got, cell)
	}
}

// Cells whose floats JSON cannot carry — NaN with a payload, ±Inf —
// and the ones it carries lossily or not at all by name (−0, a
// subnormal) persist and load back bit for bit, with the validation
// error intact. Under the JSON payload such cells never persisted.
func TestEdgeValueCellsLoadBitIdentical(t *testing.T) {
	cache, err := report.OpenCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := cacheTestSpecs(t)[0]
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	cell := core.MeasuredCellResult{
		Model: mcu.Estimate{Cycles: nan, LatencyS: math.Inf(1), AvgPowerW: math.Inf(-1),
			EnergyJ: math.Copysign(0, -1), PeakPowerW: math.SmallestNonzeroFloat64},
		Meas: harness.Measurement{LatencyS: math.Float64frombits(0x000f_ffff_ffff_ffff), EnergyJ: nan,
			AvgPowerW: math.Copysign(0, -1), PeakPowerW: math.Inf(1), Reps: -3},
		Counts:   profile.Counts{F: math.MaxUint64, I: 0, M: 1 << 63, B: 7},
		Name:     "edge\x00\xffname",
		Valid:    false,
		ValidErr: "validate: result is NaN/Inf",
	}
	cache.StoreCell(spec, mcu.M7, false, "trace+fp1", cell)
	got, ok := cache.LoadCell(spec, mcu.M7, false, "trace+fp1")
	if !ok {
		t.Fatal("edge-value cell did not persist")
	}
	for i, pair := range [][2]float64{
		{got.Model.Cycles, cell.Model.Cycles}, {got.Model.LatencyS, cell.Model.LatencyS},
		{got.Model.AvgPowerW, cell.Model.AvgPowerW}, {got.Model.EnergyJ, cell.Model.EnergyJ},
		{got.Model.PeakPowerW, cell.Model.PeakPowerW}, {got.Meas.LatencyS, cell.Meas.LatencyS},
		{got.Meas.EnergyJ, cell.Meas.EnergyJ}, {got.Meas.AvgPowerW, cell.Meas.AvgPowerW},
		{got.Meas.PeakPowerW, cell.Meas.PeakPowerW},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Errorf("float %d loaded as %#x, stored %#x", i, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
		}
	}
	if got.Meas.Reps != cell.Meas.Reps || got.Counts != cell.Counts || got.Name != cell.Name ||
		got.Valid != cell.Valid || got.ValidErr != cell.ValidErr {
		t.Errorf("loaded %+v, stored %+v", got, cell)
	}

	static := core.StaticCellResult{Static: profile.Counts{F: math.MaxUint64, B: 1}, Flash: -1}
	cache.StoreStatic(spec, static)
	if gotS, ok := cache.LoadStatic(spec); !ok || gotS != static {
		t.Fatalf("static cell: ok=%v got %+v, want %+v", ok, gotS, static)
	}
}

// Concurrent sweeps sharing one cache directory — distinct cache
// handles, like separate processes — must both succeed and both produce
// the golden bytes, whatever interleaving of puts and gets occurs.
func TestConcurrentSweepsShareOneCacheDir(t *testing.T) {
	specs := cacheTestSpecs(t)
	archs := mcu.TableIVSet()
	golden := sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1})
	dir := t.TempDir()

	var wg sync.WaitGroup
	results := make([][]byte, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cache, err := report.OpenCellCache(dir)
			if err != nil {
				t.Error(err)
				return
			}
			recs, err := core.CharacterizeSuiteOpts(specs, archs, core.SweepOptions{Workers: 2, CellCache: cache})
			if err != nil {
				t.Error(err)
				return
			}
			var buf bytes.Buffer
			if err := (report.Characterization{Records: recs}).WriteJSON(&buf); err != nil {
				t.Error(err)
				return
			}
			results[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if !bytes.Equal(golden, got) {
			t.Fatalf("concurrent sweep %d diverged from the golden bytes", i)
		}
	}
}

// The entoreport -cachedir provenance block is additive: setting
// JSONReport.Cache adds a "cache" object that survives a
// read/re-marshal round trip byte for byte, and leaving it nil emits
// exactly the classic export (so every pre-existing golden holds).
func TestCacheProvenanceBlockRoundTrips(t *testing.T) {
	specs := cacheTestSpecs(t)
	archs := mcu.TableIVSet()
	recs, err := core.CharacterizeSuiteOpts(specs, archs, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := report.Characterization{Records: recs}

	var classic bytes.Buffer
	if err := c.WriteJSON(&classic); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(classic.Bytes(), []byte(`"cache"`)) {
		t.Fatal("classic export grew a cache block")
	}

	rep := c.JSONExport()
	rep.Cache = &report.CacheProvenance{Dir: "/tmp/cells", CellsCached: 10, CellsComputed: 4}
	var first bytes.Buffer
	if err := report.WriteJSONReport(&first, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(first.Bytes(), []byte(`"cells_cached": 10`)) {
		t.Fatalf("provenance block missing from export:\n%s", first.String())
	}
	back, err := report.ReadJSONReport(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := report.WriteJSONReport(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("provenance-carrying export changed across a round trip")
	}
}

// Provenance tallies come from the live counters of the cache handle.
func TestPersistentCacheProvenanceCounts(t *testing.T) {
	specs := cacheTestSpecs(t)
	archs := mcu.TableIVSet()
	cache, err := report.OpenCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1, CellCache: cache})
	sweepJSON(t, specs, archs, core.SweepOptions{Workers: 1, CellCache: cache})
	prov := cache.Provenance()
	if prov.Dir != cache.Dir() {
		t.Fatalf("provenance dir %q != cache dir %q", prov.Dir, cache.Dir())
	}
	// Cold sweep: 14 stores; warm sweep: 14 loads.
	if prov.CellsCached != 14 || prov.CellsComputed != 14 {
		t.Fatalf("provenance = %+v, want 14 cached / 14 computed", prov)
	}
}

// An incremental sweep rehydrates each kernel's prepare from a cached
// cell without counting that read: the provenance block's deltas equal
// the engine's sweep.cells_cached / sweep.cells_computed deltas.
func TestPersistentCacheProvenanceIncremental(t *testing.T) {
	specs := cacheTestSpecs(t)
	cache, err := report.OpenCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sweepJSON(t, specs, []mcu.Arch{mcu.M4}, core.SweepOptions{Workers: 1, CellCache: cache})

	prov0, before := cache.Provenance(), obs.Counters()
	sweepJSON(t, specs, []mcu.Arch{mcu.M4, mcu.M33}, core.SweepOptions{Workers: 1, CellCache: cache})
	prov1, after := cache.Provenance(), obs.Counters()

	cached := after[obs.CounterSweepCellsCached] - before[obs.CounterSweepCellsCached]
	computed := after[obs.CounterSweepCellsComputed] - before[obs.CounterSweepCellsComputed]
	// Cached: 2 static + 2 kernels × 2 M4 cells; computed: the 4 M33 cells.
	if cached != 6 || computed != 4 {
		t.Fatalf("engine deltas = %d cached / %d computed, want 6 / 4", cached, computed)
	}
	if d := prov1.CellsCached - prov0.CellsCached; uint64(d) != cached {
		t.Fatalf("provenance cells_cached delta = %d, engine sweep.cells_cached delta = %d", d, cached)
	}
	if d := prov1.CellsComputed - prov0.CellsComputed; uint64(d) != computed {
		t.Fatalf("provenance cells_computed delta = %d, engine sweep.cells_computed delta = %d", d, computed)
	}
}
