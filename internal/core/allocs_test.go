package core_test

// Allocation regression test for the batched sweep's per-cell path.
// After the same-kernel batching, each grid cell beyond the first costs
// one MeasureOn call: pure arithmetic (Estimate, trace synthesis,
// analysis) over the shared Prepared state, with no kernel execution
// and no dataset regeneration. This pins its allocation count so a
// change that quietly reintroduces per-cell problem builds or buffer
// churn fails here instead of only showing up in the benchmarks.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
)

func TestMeasureOnAllocBudget(t *testing.T) {
	spec, ok := core.ByName("fly-lqr")
	if !ok {
		t.Fatal("fly-lqr missing from suite")
	}
	cfg := harness.DefaultConfig()
	pp, err := harness.Prepare(spec.Factory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []mcu.Arch{mcu.M4, mcu.M7} {
		arch := arch
		t.Run(arch.Name, func(t *testing.T) {
			if _, err := pp.MeasureOn(arch, spec.Prec, cfg); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := pp.MeasureOn(arch, spec.Prec, cfg); err != nil {
					t.Fatal(err)
				}
			})
			// Measured at 2 allocs/cell when written (the trace and
			// event buffers); the budget leaves headroom for modest
			// pipeline growth while staying far below the thousands a
			// per-cell problem rebuild would add.
			const budget = 8
			if allocs > budget {
				t.Fatalf("MeasureOn allocates %.0f times per cell, budget is %d", allocs, budget)
			}
		})
	}
}
