package report_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
)

// An engine's memo retains exactly its capacity of completed sweeps
// and evicts the least recently hit one first: a hit promotes an
// entry, so the oldest surviving entry is the one nobody asked for.
func TestSweepCacheCapacityBound(t *testing.T) {
	m4 := []mcu.Arch{mcu.M4}
	kernel := func(name string) []core.Spec {
		spec, ok := core.ByName(name)
		if !ok {
			t.Fatalf("%s missing from suite", name)
		}
		return []core.Spec{spec}
	}
	madgwick, mahony, lqr := kernel("madgwick"), kernel("mahony"), kernel("fly-lqr")
	var eng *report.Engine
	query := func(specs []core.Spec) {
		t.Helper()
		if _, err := eng.Sweep(specs, m4, core.SweepOptions{Workers: 1}); err != nil {
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
			eng = report.NewEngine(2)
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

// Invalidate empties both the memo and the execution table: after it a
// query weighs its full job count again and executes its kernel again,
// however often it ran before.
func TestInvalidateEmptiesMemoAndTable(t *testing.T) {
	spec, ok := core.ByName("madgwick")
	if !ok {
		t.Fatal("madgwick missing from suite")
	}
	specs, m4 := []core.Spec{spec}, []mcu.Arch{mcu.M4}
	hostReps := func() uint64 { return obs.Counters()[obs.CounterHarnessHostReps] }
	eng := report.NewEngine(0)
	for i := 0; i < 2; i++ {
		eng.Invalidate()
		if w := eng.Weight(specs, m4, nil); w != 3 {
			t.Fatalf("round %d: weight after invalidation = %d, want 3 (nothing retained)", i, w)
		}
		before := hostReps()
		if _, err := eng.Sweep(specs, m4, core.SweepOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if hostReps() == before {
			t.Fatalf("round %d: the query executed no kernel reps after invalidation", i)
		}
		if w := eng.Weight(specs, m4, nil); w != 0 {
			t.Fatalf("round %d: weight after the query = %d, want 0", i, w)
		}
	}
}

// A memo hit returns before any sweep runs, yet the caller's recorder
// still hears of it: two identical queries, each with its own recorder,
// read one miss and then one hit.
func TestSweepQueryCountsOnCallerRecorder(t *testing.T) {
	eng := report.NewEngine(0)
	spec, ok := core.ByName("mahony")
	if !ok {
		t.Fatal("mahony missing from suite")
	}
	query := func() *obs.Recorder {
		t.Helper()
		rec := obs.NewRecorder()
		opts := core.SweepOptions{Workers: 1, Context: obs.WithRecorder(context.Background(), rec)}
		if _, err := eng.Sweep([]core.Spec{spec}, []mcu.Arch{mcu.M4}, opts); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	first, second := query(), query()
	if miss, hit := first.Count(obs.CounterSweepCacheMiss), first.Count(obs.CounterSweepCacheHit); miss != 1 || hit != 0 {
		t.Errorf("first query's recorder: miss=%d hit=%d, want 1 and 0", miss, hit)
	}
	if miss, hit := second.Count(obs.CounterSweepCacheMiss), second.Count(obs.CounterSweepCacheHit); miss != 0 || hit != 1 {
		t.Errorf("second query's recorder: miss=%d hit=%d, want 0 and 1", miss, hit)
	}
}
