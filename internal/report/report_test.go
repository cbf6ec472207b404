package report_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mcu"
	"repro/internal/report"
)

// tableIVSweep is the full-suite Table IV sweep through the keyed cache.
func tableIVSweep(workers int) (report.Characterization, error) {
	return report.RunSweepQuery(core.Suite(), mcu.TableIVSet(), core.SweepOptions{Workers: workers})
}

// uncachedSweep recomputes the full-suite Table IV sweep straight
// through the engine, bypassing and leaving untouched the keyed cache.
func uncachedSweep(workers int) (report.Characterization, error) {
	recs, err := core.CharacterizeSuiteOpts(core.Suite(), mcu.TableIVSet(), core.SweepOptions{Workers: workers})
	return report.Characterization{Records: recs}, err
}

func TestTable5Renders(t *testing.T) {
	var buf bytes.Buffer
	report.WriteTable5(&buf)
	out := buf.String()
	for _, want := range []string{"M0+", "M4", "M33", "M7", "SP FPU", "soft float"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table V missing %q", want)
		}
	}
}

func TestCharacterizationSweep(t *testing.T) {
	c, err := tableIVSweep(0)
	if err != nil {
		t.Fatal(err)
	}
	// The "more than 400 measured datapoints" claim must hold for the
	// full sweep.
	if dp := c.Datapoints(); dp < 400 {
		t.Fatalf("sweep produced %d datapoints, paper claims > 400", dp)
	}
	var t3, t4 bytes.Buffer
	c.WriteTable3(&t3)
	c.WriteTable4(&t4)
	for _, kernel := range []string{"fastbrief", "sift", "mahony", "5pt", "bee-mpc"} {
		if !strings.Contains(t3.String(), kernel) {
			t.Errorf("Table III missing %s", kernel)
		}
		if !strings.Contains(t4.String(), kernel) {
			t.Errorf("Table IV missing %s", kernel)
		}
	}

	// Shape checks against the paper's headline relationships.
	for _, r := range c.Records {
		if len(r.Cells) == 0 {
			continue
		}
		m33on, ok1 := r.Cell("M33", true)
		m4on, ok2 := r.Cell("M4", true)
		m7on, ok3 := r.Cell("M7", true)
		m7off, ok4 := r.Cell("M7", false)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			continue
		}
		if m33on.Model.EnergyJ >= m4on.Model.EnergyJ {
			t.Errorf("%s: M33 energy %.3g >= M4 %.3g", r.Spec.Name, m33on.Model.EnergyJ, m4on.Model.EnergyJ)
		}
		if m7on.Model.LatencyS >= m4on.Model.LatencyS {
			t.Errorf("%s: M7 latency %.3g >= M4 %.3g", r.Spec.Name, m7on.Model.LatencyS, m4on.Model.LatencyS)
		}
		if m7off.Model.LatencyS <= m7on.Model.LatencyS {
			t.Errorf("%s: M7 cache-off latency not worse", r.Spec.Name)
		}
	}
}

func TestCS1Shapes(t *testing.T) {
	r, err := report.RunCS1()
	if err != nil {
		t.Fatal(err)
	}
	// orb costs 1.2-4x fastbrief on every dataset (paper: 1.5-2.5x).
	for _, data := range []string{"midd", "lights", "april"} {
		fb, ok1 := r.Row("fastbrief", data)
		orb, ok2 := r.Row("orb", data)
		if !ok1 || !ok2 {
			t.Fatalf("missing rows for %s", data)
		}
		ratio := orb.EnergyU["M4"] / fb.EnergyU["M4"]
		if ratio < 1.1 || ratio > 4.5 {
			t.Errorf("%s: orb/fastbrief energy ratio %.2f", data, ratio)
		}
	}
	// The sparse lights dataset is cheaper than midd and april.
	for _, kernel := range []string{"fastbrief", "orb"} {
		lights, _ := r.Row(kernel, "lights")
		midd, _ := r.Row(kernel, "midd")
		if lights.EnergyU["M4"] >= midd.EnergyU["M4"] {
			t.Errorf("%s: lights energy >= midd", kernel)
		}
	}
	// bbof-vec saves ~4x over bbof; lkof dwarfs both.
	bb, _ := r.Row("bbof", "midd")
	bv, _ := r.Row("bbof-vec", "midd")
	lk, _ := r.Row("lkof", "midd")
	vr := bb.EnergyU["M4"] / bv.EnergyU["M4"]
	if vr < 2 || vr > 6 {
		t.Errorf("bbof/bbof-vec energy ratio %.2f, want ~4", vr)
	}
	if lk.CyclesK["M4"] < 3*bb.CyclesK["M4"] {
		t.Errorf("lkof should dwarf bbof: %.0fk vs %.0fk cycles", lk.CyclesK["M4"], bb.CyclesK["M4"])
	}
	var buf bytes.Buffer
	r.WriteTable6(&buf)
	r.WriteFig3(&buf)
	if !strings.Contains(buf.String(), "bbof-vec") {
		t.Error("Table VI output missing bbof-vec")
	}
}

func TestCS2Table7Shapes(t *testing.T) {
	r := report.RunCS2Table7()
	if len(r.Rows) != 10 {
		t.Fatalf("Table VII rows = %d, want 10", len(r.Rows))
	}
	// M0+ f32: highest energy despite lowest power (race to idle).
	f32, ok := r.Row("mahony", "IMU", "f32")
	if !ok {
		t.Fatal("missing mahony IMU f32 row")
	}
	if f32.EnergyNJ["M0+"] <= f32.EnergyNJ["M4"] || f32.EnergyNJ["M0+"] <= f32.EnergyNJ["M33"] {
		t.Error("M0+ f32 energy should exceed the FPU cores")
	}
	if f32.PeakMW["M0+"] >= f32.PeakMW["M4"] {
		t.Error("M0+ peak power should be lowest")
	}
	// Fixed point is faster than soft float on the M0+, slower than
	// hardware float on the M4/M33.
	q, ok := r.Row("mahony", "IMU", "q7.24")
	if !ok {
		t.Fatal("missing q7.24 row")
	}
	if q.LatencyUs["M0+"] >= f32.LatencyUs["M0+"] {
		t.Error("fixed point should beat soft float on the M0+")
	}
	if q.LatencyUs["M4"] <= f32.LatencyUs["M4"] {
		t.Error("fixed point should lose to hardware float on the M4")
	}
	// MARG costs more than IMU-only.
	margF, _ := r.Row("mahony", "MARG", "f32")
	if margF.LatencyUs["M4"] <= f32.LatencyUs["M4"] {
		t.Error("MARG should cost more than IMU")
	}
	var buf bytes.Buffer
	r.WriteTable7(&buf)
	if !strings.Contains(buf.String(), "fourati") {
		t.Error("Table VII output missing fourati")
	}
}

func TestFig4FailureCurves(t *testing.T) {
	r := report.RunFig4(2) // even-frac sweep
	if len(r.Points) == 0 {
		t.Fatal("no sweep points")
	}
	// Too few fraction bits: catastrophic quantization. Mid-range
	// formats: near-zero failures on the hover dataset.
	lo, ok1 := r.Rate("bee-hover", "mahony", "IMU", 2)
	mid, ok2 := r.Rate("bee-hover", "mahony", "IMU", 22)
	if !ok1 || !ok2 {
		t.Fatal("missing sweep points")
	}
	if lo < 0.3 {
		t.Errorf("q29.2 failure rate %.2f; expected catastrophic", lo)
	}
	if mid > 0.2 {
		t.Errorf("q9.22 failure rate %.2f; expected near zero", mid)
	}
	// The aggressive steering dataset must fail at formats where the
	// gentle line dataset still works (larger gyro dynamic range needs
	// more integer bits) — the Fig 4 dataset-separation effect.
	worse := 0
	for frac := 24; frac <= 30; frac += 2 {
		line, okA := r.Rate("strider-line", "madgwick", "IMU", frac)
		steer, okB := r.Rate("strider-steer", "madgwick", "IMU", frac)
		if okA && okB && steer > line+0.1 {
			worse++
		}
	}
	if worse == 0 {
		t.Error("steering dataset never failed harder than straight-line at high-frac formats")
	}
	var buf bytes.Buffer
	r.WriteFig4(&buf)
	if !strings.Contains(buf.String(), "strider-steer") {
		t.Error("Fig 4 output missing strider-steer")
	}
}

func TestCS3FLOPGap(t *testing.T) {
	r, err := report.RunCS3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("Table VIII rows = %d, want 5", len(r.Rows))
	}
	// Every kernel must measure more energy than the FLOP estimate —
	// the case study's central finding.
	for _, row := range r.Rows {
		for _, arch := range []string{"M4", "M33", "M7"} {
			if row.MeasEnergy[arch] <= row.EstEnergy[arch] {
				t.Errorf("%s on %s: measured %.3g <= estimated %.3g µJ",
					row.Kernel, arch, row.MeasEnergy[arch], row.EstEnergy[arch])
			}
		}
	}
	// TinyMPC's gap is the largest among the fly kernels (17-33x in the
	// paper).
	tiny, _ := r.Row("fly-tiny-mpc")
	gap := tiny.MeasEnergy["M4"] / tiny.EstEnergy["M4"]
	if gap < 3 {
		t.Errorf("fly-tiny-mpc energy gap %.1fx; expected a large multiple", gap)
	}
	var buf bytes.Buffer
	r.WriteTable8(&buf)
	if !strings.Contains(buf.String(), "bee-ceekf") {
		t.Error("Table VIII output missing bee-ceekf")
	}
}

func TestCS4Shapes(t *testing.T) {
	r, err := report.RunCS4(6) // small batch for test speed
	if err != nil {
		t.Fatal(err)
	}
	// (a) noise degrades accuracy.
	for _, solver := range []string{"u3pt", "8pt-8"} {
		clean, ok1 := r.APoint(solver, "f32", 0.0)
		noisy, ok2 := r.APoint(solver, "f32", 2.0)
		if !ok1 || !ok2 {
			t.Fatalf("missing accuracy points for %s", solver)
		}
		if clean.RotErrDeg >= noisy.RotErrDeg {
			t.Errorf("%s: clean error %.3f >= noisy %.3f", solver, clean.RotErrDeg, noisy.RotErrDeg)
		}
	}
	// (a) 8pt robustness improves with N.
	n8, _ := r.APoint("8pt-8", "f32", 1.0)
	n32, _ := r.APoint("8pt-32", "f32", 1.0)
	if n32.RotErrDeg >= n8.RotErrDeg {
		t.Errorf("8pt-32 error %.3f >= 8pt-8 %.3f at 1px noise", n32.RotErrDeg, n8.RotErrDeg)
	}
	// (b) minimal prior-aware solvers are far cheaper than 5pt and the
	// linear solvers.
	up, _ := r.BCPoint("up2pt", "f32", "M4")
	five, _ := r.BCPoint("5pt", "f32", "M4")
	if five.CyclesK < 5*up.CyclesK {
		t.Errorf("5pt cycles %.0fk < 5x up2pt %.0fk", five.CyclesK, up.CyclesK)
	}
	// (b) doubles cost more than floats on the SP-FPU M4.
	upD, _ := r.BCPoint("up2pt", "f64", "M4")
	if upD.CyclesK <= up.CyclesK {
		t.Error("f64 should cost more than f32 on the M4")
	}
	// (d) 5pt needs more RANSAC iterations than the 2-point solver; (e)
	// and costs far more cycles in total.
	defUp, ok1 := r.DEFPoint("up2pt", "M4")
	def5, ok2 := r.DEFPoint("5pt", "M4")
	if !ok1 || !ok2 {
		t.Fatal("missing DEF points")
	}
	if def5.Iterations <= defUp.Iterations {
		t.Errorf("5pt iterations %.1f <= up2pt %.1f", def5.Iterations, defUp.Iterations)
	}
	if def5.CyclesM <= defUp.CyclesM {
		t.Errorf("5pt RANSAC cycles %.2fM <= up2pt %.2fM", def5.CyclesM, defUp.CyclesM)
	}
	var buf bytes.Buffer
	r.WriteFig5(&buf)
	if !strings.Contains(buf.String(), "up3pt") {
		t.Error("Fig 5 output missing up3pt")
	}
}

// The parallel engine must be invisible in the output: the rendered
// tables are byte-identical for serial and parallel sweeps across
// worker counts (the issue's -j 1/2/8 matrix).
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	render := func(c report.Characterization) string {
		var buf bytes.Buffer
		c.WriteTable3(&buf)
		c.WriteTable4(&buf)
		return buf.String()
	}
	base, err := uncachedSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	want := render(base)
	for _, workers := range []int{2, 8} {
		c, err := uncachedSweep(workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := render(c); got != want {
			t.Fatalf("-j %d output differs from serial sweep", workers)
		}
		if c.Datapoints() != base.Datapoints() {
			t.Fatalf("-j %d datapoints = %d, serial = %d", workers, c.Datapoints(), base.Datapoints())
		}
	}
}

// One process pays for one sweep: repeated identical queries
// must share the memoized records until explicitly invalidated.
func TestSweepCacheMemoizes(t *testing.T) {
	a, err := tableIVSweep(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tableIVSweep(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) == 0 || &a.Records[0] != &b.Records[0] {
		t.Fatal("second call did not reuse the cached sweep records")
	}
	report.InvalidateCharacterization()
	c, err := tableIVSweep(0)
	if err != nil {
		t.Fatal(err)
	}
	if &c.Records[0] == &a.Records[0] {
		t.Fatal("invalidation did not force a fresh sweep")
	}
	// The fresh sweep still agrees with the old one.
	var wasBuf, nowBuf bytes.Buffer
	a.WriteTable4(&wasBuf)
	c.WriteTable4(&nowBuf)
	if wasBuf.String() != nowBuf.String() {
		t.Fatal("re-swept Table IV differs from the cached one")
	}
}
