package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/report"
)

func TestSuiteHasAll31Kernels(t *testing.T) {
	suite := core.Suite()
	// The 31 Table III kernels always lead Suite() in this order.
	want := []string{
		"fastbrief", "orb", "sift", "lkof", "iiof", "bbof",
		"mahony", "madgwick", "fourati",
		"fly-ekf (sync)", "fly-ekf (seq)", "fly-ekf (trunc)", "bee-ceekf",
		"p3p", "up2p", "dlt", "absgoldstd",
		"up2pt", "up3pt", "u3pt", "5pt", "8pt", "relgoldstd", "homography",
		"abs-lo-ransac", "rel-lo-ransac",
		"fly-tiny-mpc", "fly-lqr", "bee-mpc", "bee-geom", "bee-smac",
	}
	if len(suite) < len(want) {
		t.Fatalf("suite has %d kernels, want >= %d", len(suite), len(want))
	}
	for i, w := range want {
		if suite[i].Name != w {
			t.Errorf("suite[%d] = %q, want %q (Table III order)", i, suite[i].Name, w)
		}
	}
	// Anything beyond the curated rows must be a registered external
	// (other tests in this binary may add them).
	for _, s := range suite[len(want):] {
		t.Logf("registered external kernel: %s", s.Name)
	}
}

func TestByName(t *testing.T) {
	if _, ok := core.ByName("p3p"); !ok {
		t.Error("ByName(p3p) failed")
	}
	if _, ok := core.ByName("nope"); ok {
		t.Error("ByName(nope) should fail")
	}
}

// Every kernel must run end-to-end through the harness and validate.
func TestEveryKernelRunsAndValidates(t *testing.T) {
	for _, spec := range core.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			arch := mcu.M4
			if spec.M7Only {
				arch = mcu.M7
			}
			cfg := harness.DefaultConfig()
			res, err := harness.Run(spec.Factory(), arch, spec.Prec, cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !res.Valid {
				t.Fatalf("validation: %v", res.ValidErr)
			}
			if res.Counts.Total() == 0 {
				t.Fatal("kernel recorded no operations")
			}
			if res.Model.LatencyS <= 0 {
				t.Fatal("non-positive modeled latency")
			}
		})
	}
}

// characterize runs the sweep engine serially over one kernel: one
// row of Tables III and IV.
func characterize(spec core.Spec, archs []mcu.Arch) (core.Record, error) {
	recs, err := core.CharacterizeSuiteOpts([]core.Spec{spec}, archs, core.SweepOptions{Workers: 1})
	return recs[0], err
}

// A one-kernel sweep must populate every (arch, cache) cell and the
// static proxy, for a representative cheap kernel.
func TestCharacterize(t *testing.T) {
	spec, _ := core.ByName("mahony")
	rec, err := characterize(spec, mcu.TableIVSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(rec.Cells))
	}
	if rec.Static.Total() == 0 {
		t.Error("no static mix")
	}
	if rec.Flash <= 1024 {
		t.Error("implausible flash size")
	}
	if _, ok := rec.Cell("M33", true); !ok {
		t.Error("missing M33 cache-on cell")
	}
	// Cross-arch ordering: M33 energy lowest, M7 fastest (cache on).
	m4, _ := rec.Cell("M4", true)
	m33, _ := rec.Cell("M33", true)
	m7, _ := rec.Cell("M7", true)
	if !(m33.Model.EnergyJ < m4.Model.EnergyJ && m33.Model.EnergyJ < m7.Model.EnergyJ) {
		t.Error("M33 should be the energy champion")
	}
	if !(m7.Model.LatencyS < m4.Model.LatencyS) {
		t.Error("M7 should be faster than M4")
	}
}

func TestM7OnlyKernelSkipsSmallCores(t *testing.T) {
	spec, _ := core.ByName("sift")
	if !spec.M7Only {
		t.Fatal("sift should be M7-only")
	}
}

func TestFLOPClaimsPresent(t *testing.T) {
	// Table VIII rows carry claimed FLOP counts.
	for _, name := range []string{"fly-ekf (sync)", "fly-ekf (trunc)", "bee-ceekf", "fly-lqr", "fly-tiny-mpc"} {
		spec, ok := core.ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if spec.FLOPs == 0 {
			t.Errorf("%s has no claimed FLOPs", name)
		}
	}
}

// The worker pool must be invisible in the data: over the full suite,
// records are deeply identical and the v1 export byte-identical for any
// worker count, and cells stay in serial (arch-major, cache on/off)
// order. A 3-way sharded run merged through report.MergeShards must
// give the same bytes: the merge places each kernel's record by its
// index in kernel order, whichever shard swept it.
func TestCharacterizeSuiteDeterministicAcrossWorkers(t *testing.T) {
	specs := core.Suite()
	archs := mcu.TableIVSet()
	export := func(c report.Characterization) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base, err := core.CharacterizeSuiteOpts(specs, archs, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	golden := export(report.Characterization{Records: base})
	for _, workers := range []int{2, 3, 8} {
		got, err := core.CharacterizeSuiteOpts(specs, archs, core.SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i].Spec.Name != base[i].Spec.Name {
				t.Fatalf("workers=%d: record %d is %s, want %s", workers, i, got[i].Spec.Name, base[i].Spec.Name)
			}
			if got[i].Static != base[i].Static || got[i].Dynamic != base[i].Dynamic ||
				got[i].Flash != base[i].Flash || got[i].Valid != base[i].Valid {
				t.Errorf("workers=%d: %s record-level fields differ", workers, base[i].Spec.Name)
			}
			if len(got[i].Cells) != len(base[i].Cells) {
				t.Fatalf("workers=%d: %s cell count %d vs %d", workers, base[i].Spec.Name, len(got[i].Cells), len(base[i].Cells))
			}
			for j := range base[i].Cells {
				if got[i].Cells[j] != base[i].Cells[j] {
					t.Errorf("workers=%d: %s cell %d differs", workers, base[i].Spec.Name, j)
				}
			}
		}
		if !bytes.Equal(export(report.Characterization{Records: got}), golden) {
			t.Errorf("workers=%d: v1 export differs from the serial sweep's", workers)
		}
	}

	var shards []report.ShardReport
	for i := 1; i <= 3; i++ {
		sr, err := report.RunShard(specs, archs, i, 3, core.SweepOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sr)
	}
	merged, err := report.MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(export(merged), golden) {
		t.Error("3-way shard merge differs from the serial sweep's v1 export")
	}
}

// The reference cell — first arch, cache on — supplies Dynamic/Valid,
// not whichever cell ran last.
func TestCharacterizeReferenceCell(t *testing.T) {
	spec, _ := core.ByName("mahony")
	rec, err := characterize(spec, mcu.TableIVSet())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Valid {
		t.Fatalf("reference cell invalid: %v", rec.ValidE)
	}
	if rec.Dynamic.Total() == 0 {
		t.Fatal("reference cell recorded no dynamic mix")
	}
	if rec.Cells[0].Arch.Name != "M4" || !rec.Cells[0].CacheOn {
		t.Fatalf("reference cell is (%s, cache=%v), want (M4, cache on)",
			rec.Cells[0].Arch.Name, rec.Cells[0].CacheOn)
	}
}
