package report_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/report"
)

// provenanceCharacterization is the boards-block counterpart of
// syntheticCharacterization: its cells carry Source-bearing archs (a
// registry builtin and a file-loaded custom), so the export grows the
// additive model-provenance block.
func provenanceCharacterization() report.Characterization {
	custom := mcu.M4
	custom.Name = "M85"
	custom.Board = "hypothetical Cortex-M85 class part"
	custom.ISA = "ARMv8.1-M"
	custom.ClockHz = 400e6
	custom.FPU = mcu.SPDP
	custom.SRAMKB = 2048
	custom.HasCache = true
	custom.Source = "examples/custom-board/m85.json"
	cell := func(a mcu.Arch, on bool) core.ArchRun {
		return core.ArchRun{
			Arch: a, CacheOn: on,
			Model: mcu.Estimate{Cycles: 1000, LatencyS: 5e-6, EnergyJ: 0.5e-6,
				AvgPowerW: 0.1, PeakPowerW: 0.12},
			Meas: harness.Measurement{LatencyS: 5e-6, EnergyJ: 0.5e-6,
				AvgPowerW: 0.1, PeakPowerW: 0.12, Reps: 10},
		}
	}
	return report.Characterization{Records: []core.Record{{
		Spec: core.Spec{Name: "vvadd", Stage: core.Control, Category: "Example",
			Dataset: "synth-1k", Prec: mcu.PrecF32},
		Static:  profile.Counts{F: 12, I: 34, M: 56, B: 7},
		Flash:   1024,
		Dynamic: profile.Counts{F: 1200, I: 3400, M: 5600, B: 700},
		Valid:   true,
		Cells: []core.ArchRun{
			cell(mcu.M4, true), cell(mcu.M4, false),
			cell(custom, true), cell(custom, false),
		},
	}}}
}

const boardsGoldenPath = "testdata/json_schema_v1_boards.golden.json"

// TestJSONBoardsGolden pins the model-provenance block: field set,
// order, and the rule that it rides schema v1 additively. Regenerate
// with:
//
//	go test ./internal/report -run TestJSONBoardsGolden -update
func TestJSONBoardsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := provenanceCharacterization().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if updateGolden() {
		if err := os.WriteFile(boardsGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden regenerated: %s", boardsGoldenPath)
		return
	}
	want, err := os.ReadFile(boardsGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("boards block drifted from %s; regenerate with -update if intended.\ngot:\n%s\nwant:\n%s",
			boardsGoldenPath, buf.Bytes(), want)
	}
	// Additive means same schema version as the original golden.
	if !bytes.Contains(want, []byte("\"version\": 1")) {
		t.Fatal("boards golden must stay on schema v1 (the block is additive)")
	}
}

// The boards block is strictly additive: source-less archs (synthetic
// fixtures, pre-registry data) produce no block at all, which is what
// keeps the original v1 golden byte-identical.
func TestJSONBoardsOmittedWithoutSource(t *testing.T) {
	var buf bytes.Buffer
	if err := syntheticCharacterization().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"boards"`)) {
		t.Fatal("source-less characterization should omit the boards block")
	}
	rep := provenanceCharacterization().JSONExport()
	if len(rep.Boards) != 2 {
		t.Fatalf("provenance export has %d boards, want 2 (first-appearance order, one per core)", len(rep.Boards))
	}
	if rep.Boards[0].Name != "M4" || rep.Boards[0].Source != mcu.SourceBuiltin {
		t.Errorf("boards[0] = %s/%s, want the builtin M4", rep.Boards[0].Name, rep.Boards[0].Source)
	}
	if rep.Boards[1].Name != "M85" || rep.Boards[1].Source != "examples/custom-board/m85.json" {
		t.Errorf("boards[1] = %s/%s, want the file-loaded custom", rep.Boards[1].Name, rep.Boards[1].Source)
	}
	if rep.Boards[1].FPU != "sp+dp" || rep.Boards[1].ClockMHz != 400 {
		t.Errorf("custom board identity exported wrong: %+v", rep.Boards[1])
	}
}

// Worker-count determinism must survive custom boards: a sweep over
// the default set plus a registered custom produces byte-identical
// JSON at -j1 and -j8, provenance block included.
func TestCustomBoardSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two uncached full sweeps")
	}
	big := mcu.M7
	big.Name = "DetBoard"
	big.Board = "test fixture"
	big.SRAMKB = 4096
	big.Source = ""
	if _, ok := mcu.ByName("DetBoard"); !ok { // registered once per process
		if err := mcu.Register(big); err != nil {
			t.Fatal(err)
		}
	}
	reg, _ := mcu.ByName("DetBoard")
	archs := append(mcu.TableIVSet(), reg)

	// Each render sweeps on a fresh engine: a shared memo would answer
	// the second render with the first one's result.
	render := func(workers int) []byte {
		c, err := report.NewEngine(0).Sweep(core.Suite(), archs, core.SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, parallel := render(1), render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("-j1 and -j8 custom-board exports differ")
	}
	// The export names all four boards with their provenance.
	doc := string(serial)
	for _, want := range []string{`"name": "M4"`, `"name": "DetBoard"`, `"source": "builtin"`, `"source": "registered"`} {
		if !strings.Contains(doc, want) {
			t.Errorf("custom-board export missing %s", want)
		}
	}
}
