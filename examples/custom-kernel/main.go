// custom-kernel: the artifact appendix's extensibility walkthrough. The
// paper's example benchmark is a vector-vector add that is not part of
// the curated suite; this program defines the same kernel as a Problem,
// registers nothing, and runs it through the identical measurement
// pipeline as the 31 suite kernels — the "Modular and Extensible
// Design" goal in practice.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/ento"
	"repro/internal/profile"
	"repro/internal/scalar"
)

// vvadd is the example kernel: c = a + b over n elements.
type vvadd struct {
	n       int
	a, b, c []scalar.F32
}

func (v *vvadd) Name() string    { return "bench-example (vvadd)" }
func (v *vvadd) Dataset() string { return "synthetic" }

func (v *vvadd) Setup() error {
	v.a = make([]scalar.F32, v.n)
	v.b = make([]scalar.F32, v.n)
	v.c = make([]scalar.F32, v.n)
	for i := range v.a {
		v.a[i] = scalar.F32(i)
		v.b[i] = scalar.F32(3 * i)
	}
	return nil
}

func (v *vvadd) Solve() {
	for i := range v.a {
		v.c[i] = v.a[i].Add(v.b[i])
	}
	// Two loads and a store per element.
	profile.AddM(uint64(3 * v.n))
}

func (v *vvadd) Validate() error {
	for i := range v.c {
		if v.c[i] != scalar.F32(4*i) {
			return errors.New("vvadd: wrong sum")
		}
	}
	return nil
}

func main() {
	fmt.Println("Custom kernel through the EntoBench harness (artifact appendix example)")
	fmt.Println()
	p := &vvadd{n: 1024}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Core\tCache\tCycles\tLatency (µs)\tEnergy (µJ)\tPeak (mW)")
	for _, arch := range ento.Archs() {
		for _, cache := range []bool{true, false} {
			res, err := ento.RunProblem(p, arch.Name, ento.PrecF32, cacheCfg(cache))
			if err != nil {
				log.Fatal(err)
			}
			if !res.Valid {
				log.Fatalf("validation failed: %v", res.ValidErr)
			}
			fmt.Fprintf(tw, "%s\t%v\t%.0f\t%.2f\t%.3f\t%.1f\n",
				arch.Name, cache, res.Model.Cycles,
				res.Measured.LatencyS*1e6, res.Measured.EnergyJ*1e6,
				res.Measured.PeakPowerW*1e3)
		}
	}
	tw.Flush()
	fmt.Println("\nCompare with docs/expected-results in the artifact: same flow,")
	fmt.Println("same GPIO-delimited ROI, same 100 kHz trace analysis.")

	containedFailureDemo()
}

// broken is a deliberately buggy kernel — its Solve panics, the way a
// mat shape mismatch or an out-of-bounds index would in a real port.
type broken struct{}

func (broken) Name() string    { return "custom-broken (demo)" }
func (broken) Setup() error    { return nil }
func (broken) Solve()          { panic("custom-broken: out-of-bounds index (deliberate)") }
func (broken) Validate() error { return nil }

// containedFailureDemo registers the broken kernel next to vvadd and
// sweeps both on the M4: since the engine grew per-cell fault
// containment (DESIGN.md §12), the panic costs only the broken kernel's
// cells — the sweep completes, vvadd's numbers are intact, and the
// aggregate error carries one CellError per lost cell.
func containedFailureDemo() {
	fmt.Println("\nContained failure: a buggy kernel no longer aborts the sweep")
	fmt.Println()
	for _, s := range []ento.Spec{
		{Name: "custom-vvadd", Stage: ento.Control, Category: "Example", Dataset: "synthetic",
			Prec: ento.PrecF32, Factory: func() ento.Problem { return &vvadd{n: 1024} }},
		{Name: "custom-broken", Stage: ento.Control, Category: "Example", Dataset: "synthetic",
			Prec: ento.PrecF32, Factory: func() ento.Problem { return broken{} }},
	} {
		if err := ento.RegisterKernel(s); err != nil {
			log.Fatal(err)
		}
	}
	archs, err := ento.ArchSet("M4")
	if err != nil {
		log.Fatal(err)
	}
	c, err := ento.Sweep(archs, ento.SweepOptions{Workers: 2})
	if err == nil {
		log.Fatal("expected the broken kernel to surface cell errors")
	}
	for _, ce := range ento.CellErrors(err) {
		fmt.Printf("  lost cell: %v\n", ce)
	}
	fmt.Printf("\nSweep still completed: %d healthy datapoints across %d kernels\n",
		c.Datapoints(), len(c.Records))
	for _, r := range c.Records {
		if r.Spec.Name == "custom-vvadd" {
			fmt.Printf("custom-vvadd on M4 (cache on): %.2f µs, %.3f µJ — unaffected by its neighbor\n",
				r.Cells[0].Meas.LatencyS*1e6, r.Cells[0].Meas.EnergyJ*1e6)
		}
	}
}

func cacheCfg(on bool) ento.Config {
	cfg := ento.DefaultConfig()
	cfg.CacheOn = on
	return cfg
}
