package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mcu"
)

// extSpec clones a cheap built-in kernel under a new name — the shape a
// user's external registration has.
func extSpec(t *testing.T, name string) core.Spec {
	t.Helper()
	base, ok := core.ByName("fly-lqr")
	if !ok {
		t.Fatal("fly-lqr missing from suite")
	}
	s := base
	s.Name = name
	s.Category = "External"
	return s
}

func TestRegisterExternalKernel(t *testing.T) {
	s := extSpec(t, "ext-lqr-clone")
	if err := core.Register(s); err != nil {
		t.Fatal(err)
	}
	got, ok := core.ByName("ext-lqr-clone")
	if !ok {
		t.Fatal("registered kernel does not resolve")
	}
	if got.Category != "External" {
		t.Errorf("ByName returned %+v", got)
	}
	suite := core.Suite()
	found := false
	for _, k := range suite {
		if k.Name == "ext-lqr-clone" {
			found = true
		}
	}
	if !found {
		t.Error("registered kernel missing from Suite()")
	}
	// It characterizes through the identical sweep path.
	rec, err := characterize(got, []mcu.Arch{mcu.M4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Cells) != 2 || !rec.Valid {
		t.Errorf("external kernel characterization: %d cells, valid=%v", len(rec.Cells), rec.Valid)
	}
}

func TestRegisterKernelValidation(t *testing.T) {
	cases := []struct {
		mutate func(*core.Spec)
		want   string
	}{
		{func(s *core.Spec) { s.Name = " " }, "no name"},
		{func(s *core.Spec) { s.Stage = "X" }, "unknown stage"},
		{func(s *core.Spec) { s.Factory = nil }, "no Factory"},
		{func(s *core.Spec) { s.FLOPs = -5 }, "negative claimed FLOPs"},
		{func(s *core.Spec) { s.MinSRAMKB = -1 }, "negative MinSRAMKB"},
	}
	for i, c := range cases {
		s := extSpec(t, "ext-never-admitted")
		c.mutate(&s)
		err := core.Register(s)
		if err == nil {
			t.Fatalf("case %d: Register admitted an invalid spec", i)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q does not mention %q", i, err, c.want)
		}
	}
	if _, ok := core.ByName("ext-never-admitted"); ok {
		t.Error("an invalid spec reached the registry")
	}
	if err := core.Register(extSpec(t, "p3p")); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate of a built-in: err = %v", err)
	}
}

// Fits is the data-driven kernel/board gate: an SRAM floor when the
// spec declares one, the legacy M7 name match otherwise.
func TestSpecFits(t *testing.T) {
	sift, ok := core.ByName("sift")
	if !ok {
		t.Fatal("sift missing")
	}
	if sift.MinSRAMKB == 0 {
		t.Fatal("sift should declare an SRAM floor")
	}
	if !sift.Fits(mcu.M7) {
		t.Error("sift must fit the M7 (1432 KB)")
	}
	for _, a := range []mcu.Arch{mcu.M4, mcu.M33, mcu.M0Plus} {
		if sift.Fits(a) {
			t.Errorf("sift should not fit the %s (%d KB)", a.Name, a.SRAMKB)
		}
	}
	// A custom board with enough SRAM fits, whatever its name.
	big := mcu.M4
	big.Name = "FitsBigSRAM"
	big.SRAMKB = 2048
	if !sift.Fits(big) {
		t.Error("sift should fit any board with >= its SRAM floor")
	}
	// Legacy shape: M7Only with no floor matches by name only.
	legacy := core.Spec{M7Only: true}
	if legacy.Fits(big) || !legacy.Fits(mcu.M7) {
		t.Error("M7Only without an SRAM floor should match the M7 by name")
	}
	// Unconstrained kernels fit everything.
	if lqr, _ := core.ByName("fly-lqr"); !lqr.Fits(mcu.M0Plus) {
		t.Error("unconstrained kernel should fit the smallest core")
	}
}

// A sweep over a registered custom board covers every kernel the board
// fits, including the SRAM-gated ones when the board is big enough.
func TestSweepOverCustomBoard(t *testing.T) {
	big := mcu.M7
	big.Name = "SweepBig"
	big.Board = "test fixture"
	big.SRAMKB = 4096
	big.Source = ""
	if err := mcu.Register(big); err != nil {
		t.Fatal(err)
	}
	reg, _ := mcu.ByName("sweepbig")
	recs, err := core.CharacterizeSuiteOpts(core.Suite(), []mcu.Arch{reg}, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Spec.Name == "ext-lqr-clone" {
			continue // may or may not be registered depending on test order
		}
		if len(r.Cells) != 2 {
			t.Errorf("%s: %d cells on the custom board, want 2 (it fits everything)", r.Spec.Name, len(r.Cells))
		}
	}
}
