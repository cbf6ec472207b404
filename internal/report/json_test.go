package report_test

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mat"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/report"
)

var updateFlag = flag.Bool("update", false, "regenerate golden files")

func updateGolden() bool { return *updateFlag }

// syntheticCharacterization builds a tiny fixed-value characterization
// that exercises every schema field: a plain kernel and one with the
// optional fields (m7_only, claimed_flops, error) populated.
func syntheticCharacterization() report.Characterization {
	arch := func(name string) mcu.Arch { return mcu.Arch{Name: name} }
	return report.Characterization{Records: []core.Record{
		{
			Spec: core.Spec{Name: "vvadd", Stage: core.Control, Category: "Example",
				Dataset: "synth-1k", Prec: mcu.PrecF32},
			Static:  profile.Counts{F: 12, I: 34, M: 56, B: 7},
			Flash:   1024,
			Dynamic: profile.Counts{F: 1200, I: 3400, M: 5600, B: 700},
			Valid:   true,
			Cells: []core.ArchRun{
				{
					Arch: arch("M4"), CacheOn: true,
					Model: mcu.Estimate{Cycles: 7014, LatencyS: 41.26e-6, EnergyJ: 5.213e-6,
						AvgPowerW: 0.1263, PeakPowerW: 0.1526},
					Meas: harness.Measurement{LatencyS: 41.26e-6, EnergyJ: 5.213e-6,
						AvgPowerW: 0.1263, PeakPowerW: 0.1526, Reps: 49},
				},
				{
					Arch: arch("M4"), CacheOn: false,
					Model: mcu.Estimate{Cycles: 7475, LatencyS: 43.97e-6, EnergyJ: 5.38e-6,
						AvgPowerW: 0.1224, PeakPowerW: 0.1464},
					Meas: harness.Measurement{LatencyS: 43.97e-6, EnergyJ: 5.38e-6,
						AvgPowerW: 0.1224, PeakPowerW: 0.1464, Reps: 46},
				},
			},
		},
		{
			Spec: core.Spec{Name: "sift", Stage: core.Perception, Category: "Feat. Extr.",
				Dataset: "midd-stereo", Prec: mcu.PrecF32, FLOPs: 250000, M7Only: true},
			Static:  profile.Counts{F: 900, I: 800, M: 700, B: 600},
			Flash:   65536,
			Dynamic: profile.Counts{F: 9e6, I: 8e6, M: 7e6, B: 6e6},
			Valid:   false,
			ValidE:  errors.New("descriptor mismatch"),
			Cells: []core.ArchRun{{
				Arch: arch("M7"), CacheOn: true,
				Model: mcu.Estimate{Cycles: 4534, LatencyS: 16.19e-6, EnergyJ: 2.574e-6,
					AvgPowerW: 0.159, PeakPowerW: 0.2154},
				Meas: harness.Measurement{LatencyS: 16.19e-6, EnergyJ: 2.574e-6,
					AvgPowerW: 0.159, PeakPowerW: 0.2154, Reps: 124},
			}},
		},
	}}
}

const goldenPath = "testdata/json_schema_v1.golden.json"

// TestJSONSchemaGolden pins the exported field set — names, order,
// omitempty behaviour — against a checked-in golden file. If this test
// fails you changed the schema: for a breaking change (rename, removal,
// unit change) bump report.JSONVersion; for an additive change keep the
// version. Either way regenerate with:
//
//	go test ./internal/report -run TestJSONSchemaGolden -update
func TestJSONSchemaGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := syntheticCharacterization().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if updateGolden() {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden regenerated: %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("JSON schema drifted from %s.\nIf the change is breaking, bump report.JSONVersion; regenerate with -update.\ngot:\n%s\nwant:\n%s",
			goldenPath, buf.Bytes(), want)
	}
	// The version-bump rule half of the pin: the golden must carry the
	// version the code claims, so neither can change alone.
	if !bytes.Contains(want, []byte("\"version\": 1")) || report.JSONVersion != 1 {
		t.Fatalf("golden version and report.JSONVersion (%d) out of step", report.JSONVersion)
	}
}

// TestJSONRoundTrips: unmarshal → re-marshal must reproduce the bytes
// exactly, on both the synthetic fixture and the real full sweep.
func TestJSONRoundTrips(t *testing.T) {
	check := func(name string, c report.Characterization) {
		var first bytes.Buffer
		if err := c.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		rep, err := report.ReadJSONReport(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var second bytes.Buffer
		if err := report.WriteJSONReport(&second, rep); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: re-marshal changed the bytes", name)
		}
	}
	check("synthetic", syntheticCharacterization())
	full, err := tableIVSweep(0)
	if err != nil {
		t.Fatal(err)
	}
	check("full sweep", full)
}

// TestJSONParallelByteIdentical: the export of an 8-worker sweep must
// match a serial sweep byte for byte.
func TestJSONParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two uncached full sweeps")
	}
	serial, err := uncachedSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := uncachedSweep(8)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := serial.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("-j1 and -j8 JSON exports differ")
	}
}

// TestJSONReferenceByteIdentical: the export of the optimized sweep —
// arena-backed mat fast paths, batched same-kernel cells, memoized
// dataset masters — must match a sweep over the hooked generic
// reference kernels byte for byte. This is the end-to-end form of the
// count-exactness invariant: any fast path, scratch reuse, or shared
// Prepared state that perturbed a single recorded op or validation
// outcome would shift some exported field and fail here.
func TestJSONReferenceByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two uncached full sweeps")
	}
	fast, err := uncachedSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	prev := mat.SetReferenceKernels(true)
	ref, err := uncachedSweep(1)
	mat.SetReferenceKernels(prev)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := fast.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("optimized and reference-kernel JSON exports differ")
	}
}

func TestReadJSONReportRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"garbage", "not json", "parse"},
		{"wrong schema", `{"schema":"other.format","version":1}`, "unknown schema"},
		{"future version", `{"schema":"entobench.characterization","version":99}`, "newer than"},
	}
	for _, c := range cases {
		_, err := report.ReadJSONReport(strings.NewReader(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
	}
	ok := `{"schema":"entobench.characterization","version":1,"datapoints":0,"kernels":[]}`
	if _, err := report.ReadJSONReport(strings.NewReader(ok)); err != nil {
		t.Errorf("minimal valid report rejected: %v", err)
	}
}
