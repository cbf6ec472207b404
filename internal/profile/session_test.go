package profile

import (
	"sync"
	"testing"
)

// Sessions on distinct goroutines must not cross-talk: each goroutine
// hammers its own Collect with a distinctive op mix and must get
// exactly its own counts back, even with dozens of sessions live at
// once. Run under -race this is also the data-race proof for the
// parallel characterization engine.
func TestConcurrentCollectIsolation(t *testing.T) {
	const goroutines = 32
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				f := uint64(g + 1)
				i := uint64(2*g + 1)
				m := uint64(3*g + 1)
				b := uint64(it + 1)
				got := Collect(func() {
					AddF(f)
					AddI(i)
					AddM(m)
					AddB(b)
					AddCounts(Counts{F: f})
				})
				want := Counts{F: 2 * f, I: i, M: m, B: b}
				if got != want {
					t.Errorf("goroutine %d iter %d: got %+v, want %+v", g, it, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if m := sessions.Load(); m != nil {
		t.Fatalf("sessions leaked: %d still registered", len(*m))
	}
}

// Nested Collects must stay additive inside each goroutine while many
// goroutines nest concurrently.
func TestConcurrentNestedCollect(t *testing.T) {
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := uint64(g + 1)
			var inner Counts
			outer := Collect(func() {
				AddF(n)
				inner = Collect(func() { AddI(4 * n) })
				AddB(2 * n)
			})
			if inner != (Counts{I: 4 * n}) {
				t.Errorf("goroutine %d: inner = %+v", g, inner)
			}
			if outer != (Counts{F: n, I: 4 * n, B: 2 * n}) {
				t.Errorf("goroutine %d: outer = %+v", g, outer)
			}
		}()
	}
	wg.Wait()
}

// Hooks on a goroutine with no session must stay no-ops while other
// goroutines are mid-session — the "profiling elsewhere" fast path.
func TestHooksIgnoreOtherGoroutinesSessions(t *testing.T) {
	start := make(chan struct{})
	release := make(chan struct{})
	var got Counts
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got = Collect(func() {
			AddF(7)
			close(start)
			<-release
		})
	}()
	<-start
	// This goroutine has no session: nothing may land anywhere.
	AddF(100)
	AddI(100)
	if Active() {
		t.Error("Active() true on a goroutine with no session")
	}
	close(release)
	wg.Wait()
	if got != (Counts{F: 7}) {
		t.Fatalf("foreign hooks leaked into session: %+v", got)
	}
}

// A session must release its registry entry when its Collect returns,
// so the global hook gate returns to its nil fast path.
func TestBeginEndReleasesSession(t *testing.T) {
	rec := Collect(func() { AddM(3) })
	if rec.M != 3 {
		t.Fatalf("rec.M = %d, want 3", rec.M)
	}
	if m := sessions.Load(); m != nil {
		t.Fatalf("registry not emptied: %d sessions still registered", len(*m))
	}
}

// A panic inside Collect must still unwind the session.
func TestCollectUnwindsOnPanic(t *testing.T) {
	func() {
		defer func() { _ = recover() }()
		Collect(func() { panic("kernel exploded") })
	}()
	if m := sessions.Load(); m != nil {
		t.Fatalf("session leaked across panic: %d still registered", len(*m))
	}
	if Active() {
		t.Fatal("Active() true after panicked Collect")
	}
}

// Sessions begin and end continuously on some goroutines while
// long-lived sessions on others keep hooking through every registry
// rebuild: each goroutine must read back exactly its own counts, and
// the registry must empty once all are done. Under -race this is the
// proof that lookups never race the copy-on-write map.
func TestSessionChurnIsolation(t *testing.T) {
	const churners, hookers, iters = 8, 8, 200
	stop := make(chan struct{})
	var hookWG, churnWG sync.WaitGroup
	for g := 0; g < hookers; g++ {
		g := g
		hookWG.Add(1)
		go func() {
			defer hookWG.Done()
			f := uint64(g + 1)
			var n uint64
			rec := Collect(func() {
				for running := true; running; n++ {
					AddF(f)
					AddB(1)
					select {
					case <-stop:
						running = false
					default:
					}
				}
			})
			if want := (Counts{F: n * f, B: n}); rec != want {
				t.Errorf("hooker %d: got %+v, want %+v", g, rec, want)
			}
		}()
	}
	for g := 0; g < churners; g++ {
		g := g
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for it := 0; it < iters; it++ {
				i, m := uint64(g+1), uint64(it+1)
				got := Collect(func() {
					AddI(i)
					AddM(m)
				})
				bulk := Collect(func() { AddCounts(Counts{I: i, B: m}) })
				if got != (Counts{I: i, M: m}) || bulk != (Counts{I: i, B: m}) {
					t.Errorf("churner %d iter %d: hooked %+v, bulk %+v", g, it, got, bulk)
					return
				}
			}
		}()
	}
	churnWG.Wait()
	close(stop)
	hookWG.Wait()
	if m := sessions.Load(); m != nil {
		t.Fatalf("sessions leaked: %d still registered", len(*m))
	}
}
