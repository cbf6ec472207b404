package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/profile"
)

// builtinSpecs is the curated suite without any kernel a test
// registered.
func builtinSpecs() []Spec {
	var specs []Spec
	specs = append(specs, perceptionSpecs()...)
	specs = append(specs, estimationSpecs()...)
	return append(specs, controlSpecs()...)
}

// errText renders an error for comparison; nil renders empty.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// One execution per kernel rests on three facts about the suite, pinned
// here against the paths they replaced: for every kernel without a
// StaticFactory, the prepare's first Solve yields the static mix a
// separate static-proxy run (a fresh problem, Setup, one profiled
// Solve) measures; for every kernel, Validate right after the ROI
// Solve gives the verdict it gave after two more host Solves; and a
// kernel is marked oneSolve exactly when a prepare without warm-up
// gives the counts, first counts and verdict of one with it.
func TestOneExecutionDifferential(t *testing.T) {
	specs := builtinSpecs()
	if len(specs) != 31 {
		t.Fatalf("%d built-in kernels, want 31", len(specs))
	}
	cfg := harness.DefaultConfig()
	cold := cfg
	cold.Warmup = 0
	shared, single := 0, 0
	for _, spec := range specs {
		pp, err := harness.Prepare(spec.Factory(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if spec.StaticFactory == nil {
			shared++
			proxy := spec.Factory()
			if err := proxy.Setup(); err != nil {
				t.Fatalf("%s: static setup: %v", spec.Name, err)
			}
			want := compressStatic(profile.Collect(proxy.Solve))
			first, ok := pp.FirstCounts()
			if got := compressStatic(first); !ok || got != want {
				t.Errorf("%s: static mix from the first Solve = %+v (ok %v), static-proxy run = %+v", spec.Name, got, ok, want)
			}
		}

		p := spec.Factory()
		if err := p.Setup(); err != nil {
			t.Fatalf("%s: setup: %v", spec.Name, err)
		}
		for i := 0; i < cfg.Warmup; i++ {
			p.Solve()
		}
		profile.Collect(p.Solve)
		p.Solve() // the two validation reps the host used to run
		p.Solve()
		wantErr := p.Validate()
		valid, validE := pp.Valid()
		if valid != (wantErr == nil) || errText(validE) != errText(wantErr) {
			t.Errorf("%s: verdict without validation reps = %v %q, with two = %q", spec.Name, valid, errText(validE), errText(wantErr))
		}

		one, err := harness.Prepare(spec.Factory(), cold)
		if err != nil {
			t.Fatalf("%s: one-Solve prepare: %v", spec.Name, err)
		}
		first, _ := pp.FirstCounts()
		oneFirst, _ := one.FirstCounts()
		oneValid, oneErr := one.Valid()
		repeats := one.Counts() == pp.Counts() && oneFirst == first &&
			oneValid == valid && errText(oneErr) == errText(validE)
		if repeats != spec.oneSolve {
			t.Errorf("%s: oneSolve %v, but without warm-up counts %+v first %+v valid %v %q; with it %+v, %+v, %v %q",
				spec.Name, spec.oneSolve, one.Counts(), oneFirst, oneValid, errText(oneErr), pp.Counts(), first, valid, errText(validE))
		}
		if spec.oneSolve {
			single++
		}
	}
	if shared != 25 {
		t.Errorf("%d kernels without a StaticFactory, want 25", shared)
	}
	if single != 29 {
		t.Errorf("%d kernels marked oneSolve, want 29 (all but bee-mpc and fly-ekf (trunc))", single)
	}
}

// countedProblem counts the Solves of one built problem.
type countedProblem struct {
	harness.Problem
	solves *atomic.Int64
}

func (p countedProblem) Solve() { p.solves.Add(1); p.Problem.Solve() }

// counted wraps f so each problem it builds counts into builds and
// solves.
func counted(f func() harness.Problem, builds, solves *atomic.Int64) func() harness.Problem {
	return func() harness.Problem {
		builds.Add(1)
		return countedProblem{Problem: f(), solves: solves}
	}
}

// An uncached sweep of the curated suite builds one problem per kernel
// plus one per StaticFactory. A measured problem marked oneSolve runs
// one Solve (warm-up, ROI and first Solve at once); bee-mpc and
// fly-ekf (trunc) run a warm-up and their ROI Solve; a static proxy
// runs one.
func TestSweepExecutesEachKernelOnce(t *testing.T) {
	specs := builtinSpecs()
	n := len(specs)
	builds, solves := make([]atomic.Int64, n), make([]atomic.Int64, n)
	proxyBuilds, proxySolves := make([]atomic.Int64, n), make([]atomic.Int64, n)
	withStatic := 0
	for i := range specs {
		specs[i].Factory = counted(specs[i].Factory, &builds[i], &solves[i])
		if specs[i].StaticFactory != nil {
			withStatic++
			specs[i].StaticFactory = counted(specs[i].StaticFactory, &proxyBuilds[i], &proxySolves[i])
		}
	}
	if _, err := CharacterizeSuiteOpts(specs, mcu.TableIVSet(), SweepOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if withStatic != 6 {
		t.Fatalf("%d kernels with a StaticFactory, want 6", withStatic)
	}
	total := 0
	for i, s := range specs {
		want := 2
		if s.oneSolve {
			want = 1
		}
		if b, got := builds[i].Load(), solves[i].Load(); b != 1 || got != int64(want) {
			t.Errorf("%s: built %d measured problems running %d Solves, want 1 running %d", s.Name, b, got, want)
		}
		total += int(solves[i].Load())
		if s.StaticFactory == nil {
			continue
		}
		if b, got := proxyBuilds[i].Load(), proxySolves[i].Load(); b != 1 || got != 1 {
			t.Errorf("%s: built %d static proxies running %d Solves, want 1 running 1", s.Name, b, got)
		}
		total += int(proxySolves[i].Load())
	}
	if total != 39 {
		t.Errorf("the sweep ran %d Solves, want 39 (29 + 2×2 measured, 6 proxies)", total)
	}
}

// regSeq keeps the registered kernel's name unique under -count.
var regSeq atomic.Int64

// Register clears oneSolve: a registered copy of a built-in spec, its
// Factory wrapped by the caller, still runs a warm-up and its ROI Solve.
func TestRegisteredKernelRunsWarmup(t *testing.T) {
	base, ok := ByName("fly-lqr")
	if !ok || !base.oneSolve {
		t.Fatalf("fly-lqr found %v, oneSolve %v; want a built-in marked oneSolve", ok, base.oneSolve)
	}
	var builds, solves atomic.Int64
	s := base
	s.Name = fmt.Sprintf("registered-lqr-%d", regSeq.Add(1))
	s.Factory = counted(base.Factory, &builds, &solves)
	if err := Register(s); err != nil {
		t.Fatal(err)
	}
	reg, ok := ByName(s.Name)
	if !ok || reg.oneSolve {
		t.Fatalf("registered kernel found %v, oneSolve %v; want found and unset", ok, reg.oneSolve)
	}
	if _, err := CharacterizeSuiteOpts([]Spec{reg}, []mcu.Arch{mcu.M4}, SweepOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if b, n := builds.Load(), solves.Load(); b != 1 || n != 2 {
		t.Errorf("built %d problems running %d Solves, want 1 running 2 (warm-up + ROI)", b, n)
	}
}
