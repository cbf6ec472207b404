package core

import (
	"sync"
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

// One execution per kernel rests on two facts about the suite, pinned
// here against the paths they replaced: for every kernel without a
// StaticFactory, the prepare's first Solve yields the static mix a
// separate static-proxy run (a fresh problem, Setup, one profiled
// Solve) measures; and for every kernel, Validate right after the ROI
// Solve gives the verdict it gave after two more host Solves.
func TestOneExecutionDifferential(t *testing.T) {
	specs := builtinSpecs()
	if len(specs) != 31 {
		t.Fatalf("%d built-in kernels, want 31", len(specs))
	}
	cfg := harness.DefaultConfig()
	shared := 0
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
	}
	if shared != 25 {
		t.Errorf("%d kernels without a StaticFactory, want 25", shared)
	}
}

// countedProblem counts the Solves of one built problem.
type countedProblem struct {
	harness.Problem
	solves *int
}

func (p countedProblem) Solve() { *p.solves++; p.Problem.Solve() }

// An uncached sweep of the curated suite builds one problem per kernel
// plus one per StaticFactory, and each measured problem runs its
// warm-up and its ROI Solve: two Solves.
func TestSweepExecutesEachKernelOnce(t *testing.T) {
	var mu sync.Mutex
	var measured, proxies []*int
	count := func(list *[]*int, f func() harness.Problem) func() harness.Problem {
		return func() harness.Problem {
			n := new(int)
			mu.Lock()
			*list = append(*list, n)
			mu.Unlock()
			return countedProblem{Problem: f(), solves: n}
		}
	}
	specs := builtinSpecs()
	withStatic := 0
	for i := range specs {
		specs[i].Factory = count(&measured, specs[i].Factory)
		if specs[i].StaticFactory != nil {
			withStatic++
			specs[i].StaticFactory = count(&proxies, specs[i].StaticFactory)
		}
	}
	if _, err := CharacterizeSuiteOpts(specs, mcu.TableIVSet(), SweepOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if len(measured) != len(specs) || len(proxies) != withStatic || withStatic != 6 {
		t.Fatalf("built %d measured and %d static problems for %d kernels (%d with a StaticFactory); want one each",
			len(measured), len(proxies), len(specs), withStatic)
	}
	for i, n := range measured {
		if *n != 2 {
			t.Errorf("measured problem %d ran %d Solves, want 2 (warm-up + ROI)", i, *n)
		}
	}
}
