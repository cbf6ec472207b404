package ento_test

import (
	"bytes"
	"errors"
	"repro/internal/report"
	"strings"
	"testing"

	"repro/ento"
	"repro/internal/profile"
	"repro/internal/scalar"
)

func TestSuiteAndKernelLookup(t *testing.T) {
	// The 31 curated Table III kernels lead Suite(); kernels other tests
	// register append after them.
	suite := ento.Suite()
	if len(suite) < 31 || suite[0].Name != "fastbrief" || suite[30].Name != "bee-smac" {
		t.Fatalf("suite does not lead with the 31 curated kernels: %d kernels", len(suite))
	}
	if _, ok := ento.Kernel("p3p"); !ok {
		t.Error("Kernel(p3p) not found")
	}
	if _, ok := ento.Kernel("bogus"); ok {
		t.Error("Kernel(bogus) should not resolve")
	}
}

func TestArchs(t *testing.T) {
	// Registry tests in this binary may add custom boards; the four
	// reference cores always lead in registration order.
	archs := ento.Archs()
	if len(archs) < 4 {
		t.Fatalf("Archs = %d, want >= 4", len(archs))
	}
	for i, want := range []string{"M0+", "M4", "M33", "M7"} {
		if archs[i].Name != want {
			t.Errorf("Archs[%d] = %s, want %s", i, archs[i].Name, want)
		}
	}
	if _, ok := ento.ArchByName("m7"); !ok {
		t.Error("ArchByName(m7) failed")
	}
}

func TestRunHappyPath(t *testing.T) {
	res, err := ento.Run("fly-lqr", "M4", true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatalf("validation: %v", res.ValidErr)
	}
	if res.Measured.LatencyS <= 0 || res.Measured.EnergyJ <= 0 {
		t.Error("non-positive measurements")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := ento.Run("bogus", "M4", true); err == nil {
		t.Error("unknown kernel should error")
	}
	if _, err := ento.Run("fly-lqr", "M99", true); err == nil {
		t.Error("unknown arch should error")
	}
	if _, err := ento.Run("sift", "M4", true); err == nil {
		t.Error("sift on M4 should error (SRAM)")
	}
}

func TestCharacterize(t *testing.T) {
	rec, err := ento.Characterize("madgwick")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(rec.Cells))
	}
}

// sq is a minimal custom Problem: squares a vector in place.
type sq struct{ xs []scalar.F32 }

func (s *sq) Name() string { return "sq" }
func (s *sq) Setup() error {
	s.xs = make([]scalar.F32, 64)
	for i := range s.xs {
		s.xs[i] = scalar.F32(i)
	}
	return nil
}
func (s *sq) Solve() {
	for i := range s.xs {
		_ = s.xs[i].Mul(s.xs[i])
	}
	profile.AddM(uint64(len(s.xs)))
}
func (s *sq) Validate() error {
	if len(s.xs) != 64 {
		return errors.New("bad state")
	}
	return nil
}

func TestRunProblemCustomKernel(t *testing.T) {
	res, err := ento.RunProblem(&sq{}, "M33", ento.PrecF32, ento.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.F != 64 {
		t.Errorf("F = %d, want 64", res.Counts.F)
	}
	if !res.Valid {
		t.Error("custom kernel failed validation")
	}
}

func TestWriteTable5(t *testing.T) {
	var buf bytes.Buffer
	ento.WriteTable5(&buf)
	if !strings.Contains(buf.String(), "NUCLEO") {
		t.Error("Table V missing board names")
	}
}

func TestWriteTable7(t *testing.T) {
	var buf bytes.Buffer
	ento.WriteTable7(&buf)
	if !strings.Contains(buf.String(), "q7.24") {
		t.Error("Table VII missing the fixed-point rows")
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := ento.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := report.ReadJSONReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ento.WriteJSON output does not parse back: %v", err)
	}
	if rep.Schema != report.JSONSchema || rep.Version != report.JSONVersion {
		t.Fatalf("envelope = %s v%d", rep.Schema, rep.Version)
	}
	if len(rep.Kernels) != len(ento.Suite()) {
		t.Fatalf("exported %d kernels, suite has %d", len(rep.Kernels), len(ento.Suite()))
	}
	if rep.Datapoints == 0 {
		t.Fatal("datapoint count missing")
	}
}
