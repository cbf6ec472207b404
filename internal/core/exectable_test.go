package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/profile"
)

// The execution table's rules (see ExecTable), one test each.

// valueOf is an execution that yields flash n.
func valueOf(n int) func() (execValue, error) {
	return func() (execValue, error) { return execValue{static: StaticCellResult{Flash: n}}, nil }
}

// blockedLeader starts a leader on key whose run waits for release and
// then returns run's outcome; it returns once the leader is running.
func blockedLeader(tbl *ExecTable, ctx context.Context, key execKey, release <-chan struct{}, run func() (execValue, error)) <-chan error {
	started := make(chan struct{})
	out := make(chan error, 1)
	go func() {
		_, err := tbl.do(ctx, key, func() (execValue, error) {
			close(started)
			<-release
			return run()
		})
		out <- err
	}()
	<-started
	return out
}

// A leader whose own context ends abandons its entry: every live
// waiter retries, exactly one of them leads anew, and all get its
// value, which the table then retains.
func TestExecTableLeaderAbandons(t *testing.T) {
	var tbl ExecTable
	key := keyOf(Spec{Name: "k"}, true)
	leaderCtx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	leader := blockedLeader(&tbl, leaderCtx, key, release, func() (execValue, error) {
		return execValue{}, leaderCtx.Err()
	})

	var runs atomic.Int32
	var wg sync.WaitGroup
	got := make([]int, 3)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := tbl.do(context.Background(), key, func() (execValue, error) {
				runs.Add(1)
				return valueOf(7)()
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			got[i] = v.static.Flash
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the waiters join
	cancel()
	close(release)
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want its own cancellation", err)
	}
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d waiters led anew, want exactly 1", n)
	}
	for i, f := range got {
		if f != 7 {
			t.Fatalf("waiter %d got flash %d, want 7", i, f)
		}
	}
	if v, err := tbl.do(context.Background(), key, valueOf(0)); err != nil || v.static.Flash != 7 {
		t.Fatalf("retained value = %d, %v; want 7 from the new leader", v.static.Flash, err)
	}
}

// Errors and panics reach the waiters of that execution and are never
// retained: the next ask runs again.
func TestExecTableFailuresNotRetained(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (execValue, error)
		want func(error) bool
	}{
		{"error", func() (execValue, error) { return execValue{}, errors.New("boom") },
			func(err error) bool { return err != nil && err.Error() == "boom" }},
		{"panic", func() (execValue, error) { panic("boom") },
			func(err error) bool { return isPanic(err) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tbl ExecTable
			key := keyOf(Spec{Name: "k"}, true)
			release := make(chan struct{})
			leader := blockedLeader(&tbl, context.Background(), key, release, tc.run)
			waiter := make(chan error, 1)
			go func() {
				_, err := tbl.do(context.Background(), key, valueOf(1))
				waiter <- err
			}()
			time.Sleep(20 * time.Millisecond) // let the waiter join
			close(release)
			if err := <-leader; !tc.want(err) {
				t.Fatalf("leader err = %v", err)
			}
			// The waiter either shared the failure or, arriving after it
			// was dropped, ran again and succeeded.
			if err := <-waiter; err != nil && !tc.want(err) {
				t.Fatalf("waiter err = %v", err)
			}
			var runs int
			v, err := tbl.do(context.Background(), key, func() (execValue, error) { runs++; return valueOf(2)() })
			if err != nil || runs != 1 || v.static.Flash != 2 {
				t.Fatalf("after the failure: flash %d, err %v, runs %d; want a fresh run", v.static.Flash, err, runs)
			}
		})
	}
}

// Each cell of a failing kernel is classified on its own: every cell
// of a panicking prepare is CellPanicked with its own CellError.
func TestExecTableFailureClassifiedPerCell(t *testing.T) {
	spec := Spec{Name: "panicker", Stage: Control, Prec: mcu.PrecF32,
		Factory: func() harness.Problem { return panicProblem{} }}
	archs := []mcu.Arch{mcu.M4, mcu.M7}
	recs, err := CharacterizeSuiteOpts([]Spec{spec}, archs, SweepOptions{Workers: 2})
	if len(recs) != 1 || len(recs[0].Cells) != 4 {
		t.Fatalf("records = %+v", recs)
	}
	for _, c := range recs[0].Cells {
		if c.Status != CellPanicked || !isPanic(c.Err) {
			t.Fatalf("cell %s/%v: status %v, err %v; want its own panic", c.Arch.Name, c.CacheOn, c.Status, c.Err)
		}
	}
	if n := len(CellErrors(err)); n != 5 {
		t.Fatalf("%d cell errors, want 5 (static + 4 cells)", n)
	}
}

type panicProblem struct{}

func (panicProblem) Name() string    { return "panicker" }
func (panicProblem) Setup() error    { return nil }
func (panicProblem) Solve()          { panic("deliberate") }
func (panicProblem) Validate() error { return nil }

// Waiters select on their own context: a waiter whose context ends
// returns at once while the leader runs on and its value is retained.
func TestExecTableWaiterOwnContext(t *testing.T) {
	var tbl ExecTable
	key := keyOf(Spec{Name: "k"}, true)
	release := make(chan struct{})
	leader := blockedLeader(&tbl, context.Background(), key, release, valueOf(3))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := tbl.do(ctx, key, valueOf(0)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want its own deadline", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("waiter returned after %v, want promptly at its deadline", took)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if v, err := tbl.do(context.Background(), key, valueOf(0)); err != nil || v.static.Flash != 3 {
		t.Fatalf("retained value = %d, %v; want the leader's 3", v.static.Flash, err)
	}
}

// The table retains executions' outcomes, never the problem instances
// that produced them: once a sweep returns, the one problem it built —
// its prepare also serves the static job — is collectable while the
// table still holds the execution.
func TestExecTableRetainsOutcomeOnly(t *testing.T) {
	var built, collected atomic.Int32
	factory := func() harness.Problem {
		p := &bigProblem{data: make([]float64, 1<<16)}
		built.Add(1)
		runtime.SetFinalizer(p, func(*bigProblem) { collected.Add(1) })
		return p
	}
	spec := Spec{Name: "big", Stage: Control, Prec: mcu.PrecF32, Factory: factory}
	var tbl ExecTable
	archs := []mcu.Arch{mcu.M4}
	if _, err := tbl.Characterize([]Spec{spec}, archs, SweepOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if n := tbl.PendingJobs([]Spec{spec}, archs); n != 0 {
		t.Fatalf("table lost the executions: %d pending jobs", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() < built.Load() && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if c, b := collected.Load(), built.Load(); c != b || b != 1 {
		t.Fatalf("%d of %d problems collected, want the one prepare's", c, b)
	}
	runtime.KeepAlive(&tbl)
}

type bigProblem struct{ data []float64 }

func (p *bigProblem) Name() string    { return "big" }
func (p *bigProblem) Setup() error    { return nil }
func (p *bigProblem) Solve()          { profile.AddF(uint64(len(p.data) / 1024)) }
func (p *bigProblem) Validate() error { return nil }

// Past execTableBound entries the table drops every completed entry
// at once, never one in flight.
func TestExecTableBound(t *testing.T) {
	var tbl ExecTable
	release := make(chan struct{})
	inflight := keyOf(Spec{Name: "in-flight"}, true)
	leader := blockedLeader(&tbl, context.Background(), inflight, release, valueOf(1))
	for i := 0; i < execTableBound-1; i++ {
		if _, err := tbl.do(context.Background(), keyOf(Spec{Name: "k", FLOPs: i}, true), valueOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(tbl.m); n != execTableBound {
		t.Fatalf("at the bound: %d entries, want %d", n, execTableBound)
	}
	last := keyOf(Spec{Name: "one-more"}, true)
	if _, err := tbl.do(context.Background(), last, valueOf(0)); err != nil {
		t.Fatal(err)
	}
	_, kept := tbl.m[inflight]
	if _, ok := tbl.m[keyOf(Spec{Name: "k"}, true)]; ok || !kept || len(tbl.m) > 2 {
		t.Fatalf("past the bound: %d entries (in flight kept: %v); want the completed ones dropped", len(tbl.m), kept)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
}
