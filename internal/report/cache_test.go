package report_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
)

// The keyed sweep cache retains exactly SetSweepCacheCapacity completed
// sweeps and evicts the least recently hit one first: a hit promotes an
// entry, so the oldest surviving entry is the one nobody asked for.
func TestSweepCacheCapacityBound(t *testing.T) {
	defer report.InvalidateCharacterization()
	defer report.SetSweepCacheCapacity(report.DefaultSweepCacheCapacity)
	report.SetSweepCacheCapacity(2)

	m4 := []mcu.Arch{mcu.M4}
	kernel := func(name string) []core.Spec {
		spec, ok := core.ByName(name)
		if !ok {
			t.Fatalf("%s missing from suite", name)
		}
		return []core.Spec{spec}
	}
	madgwick, mahony, lqr := kernel("madgwick"), kernel("mahony"), kernel("fly-lqr")
	query := func(specs []core.Spec) {
		t.Helper()
		if _, err := report.RunSweepQuery(specs, m4, core.SweepOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	evicted := func() uint64 { return obs.Counters()[obs.CounterSweepCacheEvicted] }
	// present re-asks a query and reports whether the memo answered it;
	// a miss re-memoizes it, so callers probe the dropped query last.
	present := func(specs []core.Spec) bool {
		before := obs.Counters()[obs.CounterSweepCacheHit]
		query(specs)
		return obs.Counters()[obs.CounterSweepCacheHit] > before
	}

	for _, tc := range []struct {
		name      string
		hitOldest bool
		kept      [2][]core.Spec
		dropped   []core.Spec
	}{
		// madgwick, mahony, fly-lqr: the first-run madgwick goes.
		{"insertion-order", false, [2][]core.Spec{mahony, lqr}, madgwick},
		// A hit on madgwick before fly-lqr makes mahony the oldest.
		{"hit-promotes", true, [2][]core.Spec{madgwick, lqr}, mahony},
	} {
		t.Run(tc.name, func(t *testing.T) {
			report.InvalidateCharacterization()
			query(madgwick)
			query(mahony)
			if tc.hitOldest {
				query(madgwick)
			}
			before := evicted()
			query(lqr)
			if got := evicted() - before; got != 1 {
				t.Errorf("third query evicted %d entries, want 1", got)
			}
			for _, specs := range tc.kept {
				if !present(specs) {
					t.Errorf("%s was evicted; want the two most recently hit queries kept", specs[0].Name)
				}
			}
			if present(tc.dropped) {
				t.Errorf("%s still retained past capacity 2", tc.dropped[0].Name)
			}
		})
	}
}

// InvalidateCharacterization empties both the memo and the execution
// table: after it a query weighs its full job count again and executes
// its kernel again, however often it ran before.
func TestInvalidateEmptiesMemoAndTable(t *testing.T) {
	defer report.InvalidateCharacterization()
	spec, ok := core.ByName("madgwick")
	if !ok {
		t.Fatal("madgwick missing from suite")
	}
	specs, m4 := []core.Spec{spec}, []mcu.Arch{mcu.M4}
	hostReps := func() uint64 { return obs.Counters()[obs.CounterHarnessHostReps] }
	for i := 0; i < 2; i++ {
		report.InvalidateCharacterization()
		if w := report.AdmissionWeight(specs, m4, nil); w != 3 {
			t.Fatalf("round %d: weight after invalidation = %d, want 3 (nothing retained)", i, w)
		}
		before := hostReps()
		if _, err := report.RunSweepQuery(specs, m4, core.SweepOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if hostReps() == before {
			t.Fatalf("round %d: the query executed no kernel reps after invalidation", i)
		}
		if w := report.AdmissionWeight(specs, m4, nil); w != 0 {
			t.Fatalf("round %d: weight after the query = %d, want 0", i, w)
		}
	}
}
