package core_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/obs"
)

// One kernel across the Table IV set: 1 static job + 3 archs × 2 cache
// settings = 7 jobs. The sweep must report progress for every job and,
// with a recorder on its context, record one span per job plus the
// enclosing sweep span, each carrying its identity args. madgwick has no StaticFactory,
// so its 7 jobs are one kernel execution and the sweep starts 1 of the
// 2 workers it may use.
func TestSweepProgressAndSpans(t *testing.T) {
	spec, ok := core.ByName("madgwick")
	if !ok {
		t.Fatal("madgwick missing from suite")
	}

	var mu sync.Mutex
	var dones []int
	gotTotal := 0
	rec := obs.NewRecorder()
	_, err := core.CharacterizeSuiteOpts([]core.Spec{spec}, mcu.TableIVSet(), core.SweepOptions{
		Workers: 2,
		Context: obs.WithRecorder(context.Background(), rec),
		Progress: func(done, skipped, total int) {
			mu.Lock()
			dones = append(dones, done)
			gotTotal = total
			if skipped != 0 {
				t.Errorf("clean sweep reported %d skipped jobs", skipped)
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const wantJobs = 1 + 3*2
	if len(dones) != wantJobs || gotTotal != wantJobs {
		t.Fatalf("progress: %d calls, total %d; want %d and %d", len(dones), gotTotal, wantJobs, wantJobs)
	}
	max := 0
	for _, d := range dones {
		if d > max {
			max = d
		}
	}
	if max != wantJobs {
		t.Fatalf("progress never reached %d/%d (max %d)", wantJobs, wantJobs, max)
	}

	counts := map[string]int{}
	for _, s := range rec.Spans() {
		counts[s.Name]++
		args := map[string]string{}
		for _, a := range s.Args {
			args[a.Key] = a.Val
		}
		switch s.Name {
		case obs.SpanSweepCell:
			if args["kernel"] != "madgwick" {
				t.Errorf("cell kernel = %q", args["kernel"])
			}
			if args["arch"] == "" || (args["cache"] != "on" && args["cache"] != "off") {
				t.Errorf("cell args incomplete: %v", args)
			}
			if args["queue_wait_us"] == "" {
				t.Errorf("cell missing queue_wait_us: %v", args)
			}
			if s.TID < 1 || s.TID > 2 {
				t.Errorf("cell on lane %d, want a worker lane 1..2", s.TID)
			}
		case obs.SpanSweepStatic:
			if args["kernel"] != "madgwick" || args["queue_wait_us"] == "" {
				t.Errorf("static args incomplete: %v", args)
			}
		case obs.SpanSweep:
			if args["jobs"] != "7" || args["workers"] != "1" || args["kernels"] != "1" || args["failed"] != "0" {
				t.Errorf("sweep args = %v", args)
			}
			if s.TID != 0 {
				t.Errorf("sweep span on lane %d, want 0", s.TID)
			}
		}
	}
	if counts[obs.SpanSweep] != 1 || counts[obs.SpanSweepStatic] != 1 || counts[obs.SpanSweepCell] != 6 {
		t.Fatalf("span counts = %v, want 1 sweep, 1 static, 6 cells", counts)
	}
}

// A sweep without a recorder must not change results — the
// instrumented paths are gated, and this pins that a plain sweep still
// works with a progress hook alone.
func TestSweepProgressWithoutTrace(t *testing.T) {
	spec, ok := core.ByName("madgwick")
	if !ok {
		t.Fatal("madgwick missing from suite")
	}
	calls := 0
	recs, err := core.CharacterizeSuiteOpts([]core.Spec{spec}, mcu.TableIVSet(), core.SweepOptions{
		Workers:  1,
		Progress: func(done, skipped, total int) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 7 {
		t.Fatalf("progress calls = %d, want 7", calls)
	}
	if len(recs) != 1 || !recs[0].Valid {
		t.Fatalf("record invalid: %+v", recs[0].ValidE)
	}
}

// Two sweeps running at once, on different kernels, each with its own
// recorder: every recorder holds exactly its own sweep's spans and
// sweep.cells_* tallies, never the other's.
func TestRecordersIsolateConcurrentSweeps(t *testing.T) {
	kernels := []string{"madgwick", "mahony"}
	recs := make([]*obs.Recorder, len(kernels))
	var wg sync.WaitGroup
	for i, name := range kernels {
		spec, ok := core.ByName(name)
		if !ok {
			t.Fatalf("%s missing from suite", name)
		}
		recs[i] = obs.NewRecorder()
		wg.Add(1)
		go func(rec *obs.Recorder) {
			defer wg.Done()
			_, err := core.CharacterizeSuiteOpts([]core.Spec{spec}, mcu.TableIVSet(), core.SweepOptions{
				Workers: 2,
				Context: obs.WithRecorder(context.Background(), rec),
			})
			if err != nil {
				t.Error(err)
			}
		}(recs[i])
	}
	wg.Wait()
	for i, rec := range recs {
		counts := map[string]int{}
		for _, s := range rec.Spans() {
			counts[s.Name]++
			if s.Name == obs.SpanSweep {
				continue
			}
			for _, a := range s.Args {
				if a.Key == "kernel" && a.Val != kernels[i] {
					t.Errorf("%s recorder holds a %s span of %s", kernels[i], s.Name, a.Val)
				}
			}
		}
		if counts[obs.SpanSweep] != 1 || counts[obs.SpanSweepStatic] != 1 || counts[obs.SpanSweepCell] != 6 {
			t.Errorf("%s span counts = %v, want 1 sweep, 1 static, 6 cells", kernels[i], counts)
		}
		if got := rec.Count(obs.CounterSweepCellsComputed); got != 7 {
			t.Errorf("%s sweep.cells_computed = %d, want 7", kernels[i], got)
		}
		if got := rec.Count(obs.CounterSweepCellsCached) + rec.Count(obs.CounterSweepCellsFailed); got != 0 {
			t.Errorf("%s cached+failed = %d, want 0", kernels[i], got)
		}
	}
}
