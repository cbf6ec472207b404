package ento_test

import (
	"strings"
	"testing"

	"repro/ento"
)

// The user-extensibility surface: boards and kernels enter through the
// public API and behave like built-ins everywhere downstream.

func TestRegisterArchAndRun(t *testing.T) {
	base, ok := ento.ArchByName("M33")
	if !ok {
		t.Fatal("M33 missing")
	}
	custom := base
	custom.Name = "SurfBoard"
	custom.Board = "test fixture"
	custom.Source = ""
	if err := ento.RegisterArch(custom); err != nil {
		t.Fatal(err)
	}
	if err := ento.RegisterArch(custom); err == nil {
		t.Error("re-registering the same name should fail")
	}
	got, ok := ento.ArchByName("surfboard")
	if !ok {
		t.Fatal("registered board does not resolve case-insensitively")
	}
	if got.Source == "" {
		t.Error("registry should stamp a provenance source")
	}
	res, err := ento.Run("madgwick", "SurfBoard", true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid || res.Measured.LatencyS <= 0 {
		t.Errorf("custom-board run: valid=%v latency=%g", res.Valid, res.Measured.LatencyS)
	}
	if !containsArch(ento.Archs(), "SurfBoard") {
		t.Error("Archs() missing the registered board")
	}
}

func containsArch(archs []ento.Arch, name string) bool {
	for _, a := range archs {
		if a.Name == name {
			return true
		}
	}
	return false
}

func TestLoadBoardsAndArchSet(t *testing.T) {
	boards, err := ento.LoadBoards("../examples/custom-board/m85.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(boards) != 1 || boards[0].Name != "M85" {
		t.Fatalf("LoadBoards = %v, want the M85", boards)
	}
	if !strings.Contains(boards[0].Source, "m85.json") {
		t.Errorf("loaded board source %q should be the file path", boards[0].Source)
	}
	// The file's declared set resolves through ArchSet, as do names.
	set, err := ento.ArchSet("nextgen")
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0].Name != "M7" || set[1].Name != "M85" {
		t.Errorf("ArchSet(nextgen) = %v", set)
	}
	byNames, err := ento.ArchSet("m85,M4")
	if err != nil || len(byNames) != 2 {
		t.Fatalf("ArchSet(m85,M4) = %v, %v", byNames, err)
	}
	if _, err := ento.ArchSet("not-a-thing"); err == nil {
		t.Error("unknown query should fail")
	}
	// With 2048 KB SRAM the M85 runs the SRAM-gated sift; the smaller
	// references still reject it.
	if _, err := ento.Run("sift", "M85", true); err != nil {
		t.Errorf("sift should fit the M85: %v", err)
	}
	if _, err := ento.Run("sift", "M4", true); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Errorf("sift on the M4 should report the SRAM gate, got %v", err)
	}
}

func TestSweepCustomBoard(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite sweep")
	}
	arch, ok := ento.ArchByName("M85")
	if !ok {
		var err error
		if _, err = ento.LoadBoards("../examples/custom-board/m85.json"); err != nil {
			t.Fatal(err)
		}
		arch, _ = ento.ArchByName("M85")
	}
	c, err := ento.Sweep([]ento.Arch{arch}, ento.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Records) < 31 {
		t.Fatalf("custom-board sweep covered %d kernels, want the full suite", len(c.Records))
	}
	for _, r := range c.Records {
		if len(r.Cells) != 2 {
			t.Errorf("%s: %d cells, want 2 (the M85 fits every kernel)", r.Spec.Name, len(r.Cells))
		}
	}
	rep := c.JSONExport()
	if len(rep.Boards) != 1 || rep.Boards[0].Name != "M85" {
		t.Fatalf("provenance block = %+v, want the M85", rep.Boards)
	}
	if !strings.Contains(rep.Boards[0].Source, "m85.json") {
		t.Errorf("provenance source %q should name the board file", rep.Boards[0].Source)
	}
}

func TestRegisterKernel(t *testing.T) {
	base, ok := ento.Kernel("fly-lqr")
	if !ok {
		t.Fatal("fly-lqr missing")
	}
	s := base
	s.Name = "surf-ext-kernel"
	s.Category = "External"
	if err := ento.RegisterKernel(s); err != nil {
		t.Fatal(err)
	}
	if _, ok := ento.Kernel("surf-ext-kernel"); !ok {
		t.Fatal("registered kernel does not resolve")
	}
	suite := ento.Suite()
	if suite[len(suite)-1].Name != "surf-ext-kernel" {
		t.Errorf("registered kernel should append after the curated suite, got %s last", suite[len(suite)-1].Name)
	}
	res, err := ento.Run("surf-ext-kernel", "M4", true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Errorf("external kernel run invalid: %v", res.ValidErr)
	}
	s.Factory = nil
	s.Name = "surf-bad-kernel"
	if err := ento.RegisterKernel(s); err == nil {
		t.Error("kernel with no factory should be rejected")
	}
}
