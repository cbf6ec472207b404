package faultinject_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/mcu"
	"repro/internal/obs"
	"repro/internal/report"
)

// The containment contract (DESIGN.md §12): a broken kernel costs
// exactly its own cells. Every test here drives the real sweep engine
// with deliberately misbehaving kernels and checks the blast radius —
// run the suite with -race to also prove the watchdog's abandoned
// goroutines never touch sweep state.

// jsonBytes renders records through the canonical export, the byte
// stream the determinism and isolation assertions compare.
func jsonBytes(t *testing.T, recs []core.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (report.Characterization{Records: recs}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// m4 is the single-core board selection the cheap tests sweep.
func m4() []mcu.Arch { return []mcu.Arch{mcu.M4} }

// TestFaultInjectPanicContainment: a panicking kernel loses all of its
// own jobs — and only those. The healthy neighbor's record is
// byte-identical to a sweep that never saw the panicker, the recovered
// panic surfaces as a *core.PanicError with its stack captured, and the
// failure counters account every lost job.
func TestFaultInjectPanicContainment(t *testing.T) {
	obs.ResetCounters()
	good := faultinject.GoodSpec("fi-good")
	specs := []core.Spec{good, faultinject.PanickerSpec("fi-panic")}

	recs, err := core.CharacterizeSuiteOpts(specs, mcu.TableIVSet(), core.SweepOptions{Workers: 4})
	if err == nil {
		t.Fatal("panicking kernel produced no error")
	}

	// The panicker's 7 jobs (static + 3 archs × 2 cache settings) all
	// fail as recovered panics, in serial job order.
	cells := core.CellErrors(err)
	if len(cells) != 7 {
		t.Fatalf("CellErrors = %d, want 7 (static + 6 cells)", len(cells))
	}
	for _, ce := range cells {
		if ce.Kernel != "fi-panic" {
			t.Fatalf("healthy kernel charged with a failure: %v", ce)
		}
		if ce.Status != core.CellPanicked {
			t.Errorf("status = %v, want panicked: %v", ce.Status, ce)
		}
		var pe *core.PanicError
		if !errors.As(ce.Err, &pe) {
			t.Fatalf("no PanicError in chain: %v", ce)
		}
		if len(pe.Stack) == 0 {
			t.Error("recovered panic lost its stack")
		}
		if !strings.Contains(pe.Error(), "deliberate kernel panic") {
			t.Errorf("panic value lost: %v", pe)
		}
	}

	// Blast radius: the good record, rendered through the export, is
	// byte-identical to a clean sweep that never included the panicker.
	cleanRecs, cleanErr := core.CharacterizeSuiteOpts([]core.Spec{good}, mcu.TableIVSet(), core.SweepOptions{})
	if cleanErr != nil {
		t.Fatal(cleanErr)
	}
	if got, want := jsonBytes(t, recs[:1]), jsonBytes(t, cleanRecs); !bytes.Equal(got, want) {
		t.Fatalf("healthy record changed by a neighbor's panic:\n got %s\nwant %s", got, want)
	}

	c := obs.Counters()
	if c[obs.CounterSweepCellsFailed] != 7 || c[obs.CounterSweepPanicsRecovered] != 7 {
		t.Fatalf("counters = failed %d, panics %d; want 7 and 7",
			c[obs.CounterSweepCellsFailed], c[obs.CounterSweepPanicsRecovered])
	}
	if c[obs.CounterSweepCellsTimedOut] != 0 {
		t.Fatalf("spurious timeouts: %d", c[obs.CounterSweepCellsTimedOut])
	}
}

// TestFaultInjectSetupErrorContainment: a kernel whose Setup fails is a
// plain per-cell failure — status failed, not panicked — and the sweep
// still completes the neighbor.
func TestFaultInjectSetupErrorContainment(t *testing.T) {
	specs := []core.Spec{faultinject.ErroringSpec("fi-error"), faultinject.GoodSpec("fi-good2")}
	recs, err := core.CharacterizeSuiteOpts(specs, m4(), core.SweepOptions{Workers: 2})
	if err == nil {
		t.Fatal("erroring kernel produced no error")
	}
	cells := core.CellErrors(err)
	if len(cells) != 3 {
		t.Fatalf("CellErrors = %d, want 3 (static + 2 cells)", len(cells))
	}
	for _, ce := range cells {
		if ce.Kernel != "fi-error" || ce.Status != core.CellFailed {
			t.Fatalf("unexpected cell error: %v", ce)
		}
		if !strings.Contains(ce.Err.Error(), "deliberate setup failure") {
			t.Fatalf("cause lost: %v", ce)
		}
	}
	if recs[0].StaticStatus != core.CellFailed || recs[0].StaticErr == nil {
		t.Fatalf("static slot not marked: %+v", recs[0].StaticStatus)
	}
	if !recs[1].Valid || recs[1].StaticStatus != core.CellOK {
		t.Fatalf("healthy neighbor damaged: valid=%v static=%v", recs[1].Valid, recs[1].StaticStatus)
	}
}

// TestFaultInjectWatchdogTimeout: a kernel that hangs forever loses its
// cells to the per-cell watchdog instead of wedging the sweep. The
// abandoned goroutines drain when the test releases them — under -race
// this also proves a late result can never touch the records.
func TestFaultInjectWatchdogTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	obs.ResetCounters()
	specs := []core.Spec{faultinject.HangerSpec("fi-hang", release), faultinject.GoodSpec("fi-good3")}
	recs, err := core.CharacterizeSuiteOpts(specs, m4(), core.SweepOptions{
		Workers:     2,
		CellTimeout: 40 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("hanging kernel produced no error")
	}
	cells := core.CellErrors(err)
	if len(cells) != 3 {
		t.Fatalf("CellErrors = %d, want 3", len(cells))
	}
	for _, ce := range cells {
		if ce.Kernel != "fi-hang" || ce.Status != core.CellTimedOut {
			t.Fatalf("unexpected cell error: %v", ce)
		}
	}
	for i, cell := range recs[0].Cells {
		if cell.Status != core.CellTimedOut || cell.Err == nil {
			t.Fatalf("cell %d not marked timed out: %+v", i, cell.Status)
		}
	}
	if !recs[1].Valid {
		t.Fatalf("healthy neighbor damaged: %v", recs[1].ValidE)
	}
	if n := obs.Counters()[obs.CounterSweepCellsTimedOut]; n != 3 {
		t.Fatalf("timed-out counter = %d, want 3", n)
	}
}

// TestFaultInjectDeterminism: a sweep containing failing and panicking
// cells still renders byte-identical JSON — and an identical aggregate
// error — at every worker count (satellite of the determinism
// guarantee the engine has always made for clean runs).
func TestFaultInjectDeterminism(t *testing.T) {
	specs := []core.Spec{
		faultinject.GoodSpec("fi-det-good"),
		faultinject.PanickerSpec("fi-det-panic"),
		faultinject.ErroringSpec("fi-det-error"),
	}
	run := func(workers int) ([]byte, string) {
		recs, err := core.CharacterizeSuiteOpts(specs, mcu.TableIVSet(), core.SweepOptions{Workers: workers})
		if err == nil {
			t.Fatal("faulty sweep produced no error")
		}
		return jsonBytes(t, recs), err.Error()
	}
	j1, e1 := run(1)
	j8, e8 := run(8)
	if !bytes.Equal(j1, j8) {
		t.Fatalf("-j1 and -j8 diverge with failures present:\n j1: %s\n j8: %s", j1, j8)
	}
	if e1 != e8 {
		t.Fatalf("aggregate error depends on worker count:\n j1: %s\n j8: %s", e1, e8)
	}
	// The export must declare itself partial and list the failures.
	rep, err := report.ReadJSONReport(bytes.NewReader(j1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial || len(rep.Failures) != 14 {
		t.Fatalf("partial=%v failures=%d, want true and 14 (2 broken kernels × 7 jobs)",
			rep.Partial, len(rep.Failures))
	}
}

// TestFaultInjectCancellationFlushesPartial: canceling the sweep
// context mid-run yields a partial result that still exports as valid,
// parseable JSON with the skipped cells listed — what the CLIs flush on
// SIGINT — and an error that errors.Is-matches context.Canceled.
func TestFaultInjectCancellationFlushesPartial(t *testing.T) {
	specs := []core.Spec{
		faultinject.GoodSpec("fi-cancel-a"),
		faultinject.GoodSpec("fi-cancel-b"),
		faultinject.GoodSpec("fi-cancel-c"),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	recs, err := core.CharacterizeSuiteOpts(specs, mcu.TableIVSet(), core.SweepOptions{
		Workers: 1,
		Context: ctx,
		Progress: func(done, skipped, total int) {
			if done >= 2 {
				cancel() // a couple of cells in: interrupt the run
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	var skipped int
	for _, r := range recs {
		if r.StaticStatus == core.CellSkipped {
			skipped++
		}
		for _, cell := range r.Cells {
			if cell.Status == core.CellSkipped {
				skipped++
			}
		}
	}
	if skipped == 0 {
		t.Fatal("cancellation skipped no cells")
	}
	// The partial characterization still exports and round-trips.
	rep, rerr := report.ReadJSONReport(bytes.NewReader(jsonBytes(t, recs)))
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !rep.Partial || len(rep.Failures) == 0 {
		t.Fatalf("partial export not marked: partial=%v failures=%d", rep.Partial, len(rep.Failures))
	}
	for _, f := range rep.Failures {
		if f.Status != "skipped" {
			t.Fatalf("cancellation produced status %q, want skipped", f.Status)
		}
	}
}

// TestFaultInjectInvalidIsSoftFailure: a kernel that computes NaN and
// fails its own validation is NOT a contained fault — the measurement
// completes, the record carries Valid=false, and the sweep returns no
// error. This pins the boundary between broken kernels and kernels with
// wrong answers.
func TestFaultInjectInvalidIsSoftFailure(t *testing.T) {
	recs, err := core.CharacterizeSuiteOpts(
		[]core.Spec{faultinject.InvalidSpec("fi-invalid")}, m4(), core.SweepOptions{})
	if err != nil {
		t.Fatalf("soft failure escalated to a sweep error: %v", err)
	}
	if recs[0].Valid || recs[0].ValidE == nil {
		t.Fatalf("validation verdict lost: valid=%v err=%v", recs[0].Valid, recs[0].ValidE)
	}
	if c := (report.Characterization{Records: recs}); c.Partial() {
		t.Fatal("invalid result marked the sweep partial")
	}
	for _, cell := range recs[0].Cells {
		if cell.Status != core.CellOK {
			t.Fatalf("soft failure changed cell status: %v", cell.Status)
		}
	}
}

// TestFaultInjectStaticSlotParity: the static job of a kernel without a
// StaticFactory reads its prepare's first Solve, so a broken kernel's
// fault reaches the static slot through the prepare. The slot keeps the
// status a separate static-proxy run earned, and its CellError still
// names the kernel and the static stage; an invalid result stays a soft
// failure that raises none.
func TestFaultInjectStaticSlotParity(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	for _, tc := range []struct {
		spec core.Spec
		want core.CellStatus
	}{
		{faultinject.PanickerSpec("fi-static-panic"), core.CellPanicked},
		{faultinject.ErroringSpec("fi-static-error"), core.CellFailed},
		{faultinject.HangerSpec("fi-static-hang", release), core.CellTimedOut},
		{faultinject.InvalidSpec("fi-static-invalid"), core.CellOK},
	} {
		t.Run(tc.spec.Name, func(t *testing.T) {
			recs, err := core.CharacterizeSuiteOpts([]core.Spec{tc.spec}, m4(), core.SweepOptions{
				Workers:     2,
				CellTimeout: 200 * time.Millisecond,
			})
			if got := recs[0].StaticStatus; got != tc.want {
				t.Fatalf("static status = %v, want %v", got, tc.want)
			}
			var static []*core.CellError
			for _, ce := range core.CellErrors(err) {
				if ce.Stage == core.StageStatic {
					static = append(static, ce)
				}
			}
			if tc.want == core.CellOK {
				if len(static) != 0 || recs[0].StaticErr != nil {
					t.Fatalf("healthy static slot raised %v / %v", static, recs[0].StaticErr)
				}
				return
			}
			if len(static) != 1 {
				t.Fatalf("%d static CellErrors, want 1 (aggregate: %v)", len(static), err)
			}
			if ce := static[0]; ce.Kernel != tc.spec.Name || ce.Status != tc.want || ce.Arch != "" {
				t.Fatalf("static CellError = %+v, want kernel %s, status %v, no arch", ce, tc.spec.Name, tc.want)
			}
			if recs[0].StaticErr == nil {
				t.Fatal("static slot lost its error")
			}
		})
	}
}

// registerPanicker registers the "panic" mode's kernel into the global
// suite once per process: registration is permanent, and a second
// RegisterModes("panic") would fail on the taken name.
var registerPanicker = sync.OnceValue(func() error { return faultinject.RegisterModes("panic") })

// TestFaultInjectZZCacheNeverMemoizesPartial registers a panicker into
// the global suite and asks the memoized characterization twice: both
// calls must actually sweep — the cache may never serve a partial
// result as if it were the full dataset. No other test here sweeps the
// global suite, so the permanent panicker affects none of them.
func TestFaultInjectZZCacheNeverMemoizesPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-suite sweeps")
	}
	if err := registerPanicker(); err != nil {
		t.Fatal(err)
	}
	report.InvalidateCharacterization()
	obs.ResetCounters()
	for i := 0; i < 2; i++ {
		c, err := report.RunSweepQuery(core.Suite(), mcu.TableIVSet(), core.SweepOptions{})
		if err == nil {
			t.Fatalf("call %d: registered panicker produced no error", i)
		}
		if !c.Partial() {
			t.Fatalf("call %d: characterization not marked partial", i)
		}
	}
	ctrs := obs.Counters()
	if hits := ctrs[obs.CounterSweepCacheHit]; hits != 0 {
		t.Fatalf("partial sweep served from cache %d times", hits)
	}
	if misses := ctrs[obs.CounterSweepCacheMiss]; misses != 2 {
		t.Fatalf("cache misses = %d, want 2 (both calls re-sweep)", misses)
	}
	report.InvalidateCharacterization()
}
