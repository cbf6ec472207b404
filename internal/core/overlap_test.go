package core_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/mcu"
)

// Kernel executions are independent, so a two-worker sweep of two
// kernels runs them at once: each kernel's Solve waits until the
// other's has begun, which can only happen when the workers take
// different kernels rather than two jobs of the same one.
func TestSweepOverlapsKernelExecutions(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	names := []string{"overlap-a", "overlap-b"}
	began := []chan struct{}{make(chan struct{}), make(chan struct{})}
	var specs []core.Spec
	for i, name := range names {
		own, other := began[i], began[1-i]
		var once sync.Once
		sp := faultinject.GoodSpec(name)
		sp.Factory = func() harness.Problem {
			return faultinject.New(name, faultinject.Hooks{Solve: func() {
				once.Do(func() { close(own) })
				select {
				case <-other:
				case <-ctx.Done():
					t.Errorf("%s: the other kernel's Solve never began while this one ran", name)
				}
			}})
		}
		specs = append(specs, sp)
	}
	recs, err := core.CharacterizeSuiteOpts(specs, []mcu.Arch{mcu.M4}, core.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.StaticStatus != core.CellOK || !r.Valid {
			t.Errorf("%s: static %v, valid %v", r.Spec.Name, r.StaticStatus, r.Valid)
		}
	}
}
