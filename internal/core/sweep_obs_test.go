package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/obs"
)

// One kernel across the Table IV set: 1 static job + 3 archs × 2 cache
// settings = 7 jobs. The sweep must report progress for every job and,
// under an active trace, emit one span per job plus the enclosing sweep
// span, each carrying its identity args. madgwick has no StaticFactory,
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
	obs.StartTrace()
	_, err := core.CharacterizeSuiteOpts([]core.Spec{spec}, mcu.TableIVSet(), core.SweepOptions{
		Workers: 2,
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
	tr := obs.StopTrace()
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
	for _, s := range tr.Spans {
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
			if args["jobs"] != "7" || args["workers"] != "1" || args["kernels"] != "1" {
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

// Tracing off must not change results — the instrumented paths are
// gated, and this pins that a plain sweep still works with a progress
// hook alone.
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
