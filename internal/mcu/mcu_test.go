package mcu_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mcu"
	"repro/internal/profile"
)

// mix is a representative kernel profile: float-and-memory heavy, as the
// estimation kernels are.
var mix = profile.Counts{F: 3000, I: 2000, M: 4000, B: 1000}

func TestByName(t *testing.T) {
	for _, name := range []string{"M4", "m33", "M7", "m0+"} {
		if _, ok := mcu.ByName(name); !ok {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := mcu.ByName("M99"); ok {
		t.Error("ByName(M99) should fail")
	}
}

func TestSetContents(t *testing.T) {
	if got := len(mcu.TableIVSet()); got != 3 {
		t.Errorf("TableIVSet has %d cores", got)
	}
	if got := len(mcu.CaseStudy2Set()); got != 3 {
		t.Errorf("CaseStudy2Set has %d cores", got)
	}
	// Other tests in this binary may register custom boards, so All()
	// is "the four references first, then customs", not "exactly four".
	all := mcu.All()
	if len(all) < 4 {
		t.Fatalf("All has %d cores, want >= 4", len(all))
	}
	for i, want := range []string{"M0+", "M4", "M33", "M7"} {
		if all[i].Name != want {
			t.Errorf("All[%d] = %s, want %s (reference cores lead in registration order)", i, all[i].Name, want)
		}
		if all[i].Source != mcu.SourceBuiltin {
			t.Errorf("All[%d] source = %q, want %q", i, all[i].Source, mcu.SourceBuiltin)
		}
	}
}

// The M33 must be the most energy-efficient core for every representative
// mix — the paper's headline cross-architecture finding.
func TestM33IsEnergyChampion(t *testing.T) {
	for _, cache := range []bool{true, false} {
		e33 := mcu.M33.Estimate(mix, mcu.PrecF32, cache)
		for _, a := range []mcu.Arch{mcu.M4, mcu.M7, mcu.M0Plus} {
			e := a.Estimate(mix, mcu.PrecF32, cache)
			if e.EnergyJ <= e33.EnergyJ {
				t.Errorf("cache=%v: %s energy %.3g <= M33 %.3g", cache, a.Name, e.EnergyJ, e33.EnergyJ)
			}
		}
	}
}

// The M7 must be the fastest core with caches on.
func TestM7IsFastest(t *testing.T) {
	e7 := mcu.M7.Estimate(mix, mcu.PrecF32, true)
	for _, a := range []mcu.Arch{mcu.M4, mcu.M33, mcu.M0Plus} {
		e := a.Estimate(mix, mcu.PrecF32, true)
		if e.LatencyS <= e7.LatencyS {
			t.Errorf("%s latency %.3g <= M7 %.3g", a.Name, e.LatencyS, e7.LatencyS)
		}
	}
}

// Cache sensitivity ordering: M7 >> M33 > M4 (Table IV's "Memory
// Placement" finding).
func TestCacheSensitivityOrdering(t *testing.T) {
	ratio := func(a mcu.Arch) float64 {
		on := a.Estimate(mix, mcu.PrecF32, true)
		off := a.Estimate(mix, mcu.PrecF32, false)
		return off.LatencyS / on.LatencyS
	}
	r4, r33, r7 := ratio(mcu.M4), ratio(mcu.M33), ratio(mcu.M7)
	if !(r7 > r33 && r33 > r4) {
		t.Fatalf("cache ratios M4=%.2f M33=%.2f M7=%.2f, want M7 > M33 > M4", r4, r33, r7)
	}
	if r4 > 1.25 {
		t.Errorf("M4 cache ratio %.2f too large; should be nearly insensitive", r4)
	}
	if r7 < 2 {
		t.Errorf("M7 cache ratio %.2f; the paper sees 2-3x", r7)
	}
}

// M0+ has the lowest power but the highest energy on float work — the
// race-to-idle principle from Case Study #2.
func TestM0PlusRaceToIdle(t *testing.T) {
	e0 := mcu.M0Plus.Estimate(mix, mcu.PrecF32, true)
	for _, a := range []mcu.Arch{mcu.M4, mcu.M33, mcu.M7} {
		e := a.Estimate(mix, mcu.PrecF32, true)
		if e.AvgPowerW <= e0.AvgPowerW {
			t.Errorf("%s power %.4g <= M0+ %.4g", a.Name, e.AvgPowerW, e0.AvgPowerW)
		}
		if e.EnergyJ >= e0.EnergyJ {
			t.Errorf("%s energy %.3g >= M0+ %.3g (soft float should dominate)", a.Name, e.EnergyJ, e0.EnergyJ)
		}
	}
}

// Fixed point wins on the M0+ (no FPU) and loses on FPU cores — Case
// Study #2's central trade-off. An equivalent fixed-point kernel performs
// the same work as I ops, with the multiply-then-shift overhead roughly
// doubling the op count.
func TestFixedPointCrossover(t *testing.T) {
	floatMix := profile.Counts{F: 1000, I: 200, M: 800, B: 200}
	fixedMix := profile.Counts{F: 0, I: 2200, M: 800, B: 200}

	m0Float := mcu.M0Plus.Estimate(floatMix, mcu.PrecF32, true)
	m0Fixed := mcu.M0Plus.Estimate(fixedMix, mcu.PrecFixed, true)
	if m0Fixed.LatencyS >= m0Float.LatencyS {
		t.Errorf("M0+: fixed %.3g >= float %.3g; fixed should win without an FPU", m0Fixed.LatencyS, m0Float.LatencyS)
	}

	m4Float := mcu.M4.Estimate(floatMix, mcu.PrecF32, true)
	m4Fixed := mcu.M4.Estimate(fixedMix, mcu.PrecFixed, true)
	if m4Fixed.LatencyS <= m4Float.LatencyS {
		t.Errorf("M4: fixed %.3g <= float %.3g; hardware float should win", m4Fixed.LatencyS, m4Float.LatencyS)
	}
}

// Doubles are much slower than singles on SP-FPU cores, nearly free on
// the M7's DP FPU (Fig 5's precision comparison).
func TestDoublePenalty(t *testing.T) {
	fOnly := profile.Counts{F: 10000}
	for _, a := range []mcu.Arch{mcu.M4, mcu.M33} {
		s := a.Estimate(fOnly, mcu.PrecF32, true)
		d := a.Estimate(fOnly, mcu.PrecF64, true)
		if d.LatencyS < 5*s.LatencyS {
			t.Errorf("%s double/single = %.1f, want >= 5 (soft double)", a.Name, d.LatencyS/s.LatencyS)
		}
	}
	s := mcu.M7.Estimate(fOnly, mcu.PrecF32, true)
	d := mcu.M7.Estimate(fOnly, mcu.PrecF64, true)
	if d.LatencyS > 2*s.LatencyS {
		t.Errorf("M7 double/single = %.1f, want <= 2 (hardware DP)", d.LatencyS/s.LatencyS)
	}
}

// Peak power rises when caches are enabled on the M7 (the
// energy-vs-peak-power trade-off the paper flags).
func TestPeakPowerBehaviour(t *testing.T) {
	on := mcu.M7.Estimate(mix, mcu.PrecF32, true)
	off := mcu.M7.Estimate(mix, mcu.PrecF32, false)
	if on.PeakPowerW <= off.PeakPowerW {
		t.Errorf("M7 peak on %.4g <= off %.4g; caches should raise peak power", on.PeakPowerW, off.PeakPowerW)
	}
}

// Absolute magnitudes should sit in the paper's measured ranges.
func TestPowerMagnitudes(t *testing.T) {
	checks := []struct {
		arch     mcu.Arch
		loMW     float64
		hiMW     float64
		cacheOn  bool
		whatever string
	}{
		{mcu.M4, 95, 220, true, "M4"},
		{mcu.M33, 25, 50, true, "M33"},
		{mcu.M7, 100, 230, true, "M7 on"},
		{mcu.M7, 100, 160, false, "M7 off"},
		{mcu.M0Plus, 10, 20, true, "M0+"},
	}
	for _, c := range checks {
		e := c.arch.Estimate(mix, mcu.PrecF32, c.cacheOn)
		if p := e.PeakPowerMW(); p < c.loMW || p > c.hiMW {
			t.Errorf("%s peak power %.1f mW outside [%g, %g]", c.whatever, p, c.loMW, c.hiMW)
		}
	}
}

func TestEnergyConsistency(t *testing.T) {
	e := mcu.M4.Estimate(mix, mcu.PrecF32, true)
	if e.LatencyUs() != e.LatencyS*1e6 {
		t.Error("LatencyUs inconsistent")
	}
	if e.EnergyUJ() != e.EnergyJ*1e6 {
		t.Error("EnergyUJ inconsistent")
	}
	if e.EnergyNJ() != e.EnergyJ*1e9 {
		t.Error("EnergyNJ inconsistent")
	}
	if e.PeakPowerMW() != e.PeakPowerW*1e3 {
		t.Error("PeakPowerMW inconsistent")
	}
}

func TestZeroCountsStillPositive(t *testing.T) {
	e := mcu.M4.Estimate(profile.Counts{}, mcu.PrecF32, true)
	if e.Cycles < 1 {
		t.Errorf("Cycles = %g, want >= 1", e.Cycles)
	}
	if e.EnergyJ <= 0 {
		t.Errorf("Energy = %g, want > 0", e.EnergyJ)
	}
}

func TestStaticAdjustAndFlash(t *testing.T) {
	c := profile.Counts{F: 1000, I: 1000, M: 1000, B: 1000}
	m7 := mcu.M7.StaticAdjust(c)
	if m7.I >= c.I || m7.B >= c.B {
		t.Errorf("M7 static adjust should shrink I/B: %+v", m7)
	}
	m4 := mcu.M4.StaticAdjust(c)
	if m4 != c {
		t.Errorf("M4 static adjust should be identity: %+v", m4)
	}
	if f := mcu.FlashBytes(c); f <= 1024 || f > 64*1024 {
		t.Errorf("FlashBytes = %d, implausible", f)
	}
	// Bigger kernels must report more flash.
	if mcu.FlashBytes(profile.Counts{F: 10}) >= mcu.FlashBytes(c) {
		t.Error("FlashBytes not monotone")
	}
}

func TestPrecisionString(t *testing.T) {
	if mcu.PrecF32.String() != "f32" || mcu.PrecF64.String() != "f64" || mcu.PrecFixed.String() != "fixed" {
		t.Error("Precision String values wrong")
	}
}

// randomBoard draws a board that passes Arch.Validate: every model
// parameter within ModelParams.Validate's bounds, in the ranges a
// Cortex-M board file plausibly declares.
func randomBoard(rng *rand.Rand, i int, fpu mcu.FPUKind) mcu.Arch {
	u := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	memOn := u(0.5, 4)
	baseOn := u(0.001, 0.5)
	return mcu.Arch{
		Name: fmt.Sprintf("gen%d", i), ClockHz: u(1e6, 600e6), FPU: fpu, SRAMKB: 1 + rng.Intn(2048),
		Model: mcu.ModelParams{
			CPIF32: u(0.5, 4), CPIF64: u(0.5, 8), CPII: u(0.5, 3), CPIB: u(0.5, 4),
			MemOn: memOn, MemOff: memOn + u(0, 20), BranchOffPenalty: u(0, 10), IPC: u(0.5, 2.5),
			SoftF32: u(1, 60), SoftF64: u(1, 120),
			BasePowerOnW: baseOn, BasePowerOffW: baseOn * u(0.2, 5),
			DynFOnW: u(0, 0.1), DynMOnW: u(0, 0.1), DynFOffW: u(0, 0.1), DynMOffW: u(0, 0.1),
		},
	}
}

// TestCostModelRelationsOnGeneratedBoards checks the relations that
// hold by construction for any valid board, the registered ones and
// seeded random ones: cycles and latency never fall when one op class
// grows, cache-off latency is at least cache-on latency, energy is
// average power times latency, and peak power is at least average
// power. Counts are random, with some classes zero, at every precision
// and FPU kind.
//
// Energy is deliberately not asserted monotone in op counts: Estimate
// weights dynamic power by each class's share of the op count, so
// adding cheap ops can lower energy, as it does on the reference M0+.
// Changing that changes every energy and power byte of the v1 export,
// which is out of scope for this test.
func TestCostModelRelationsOnGeneratedBoards(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	count := func() uint64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return uint64(rng.Int63n(1_000_000))
	}
	fpus := []mcu.FPUKind{mcu.NoFPU, mcu.SPOnly, mcu.SPDP}
	boards := mcu.All()
	for i := 0; i < 60; i++ {
		a := randomBoard(rng, i, fpus[i%len(fpus)])
		if err := a.Validate(); err != nil {
			t.Fatalf("generated board %s is invalid: %v", a.Name, err)
		}
		boards = append(boards, a)
	}
	for _, a := range boards {
		for j := 0; j < 50; j++ {
			c := profile.Counts{F: count(), I: count(), M: count(), B: count()}
			grown := c
			*[]*uint64{&grown.F, &grown.I, &grown.M, &grown.B}[rng.Intn(4)] += 1 + uint64(rng.Int63n(100_000))
			for _, prec := range []mcu.Precision{mcu.PrecF32, mcu.PrecF64, mcu.PrecFixed} {
				at := fmt.Sprintf("board %s (fpu %s) %s %+v", a.Name, a.FPU, prec, c)
				on, off := a.Estimate(c, prec, true), a.Estimate(c, prec, false)
				if off.LatencyS < on.LatencyS {
					t.Errorf("%s: cache-off latency %g < cache-on %g", at, off.LatencyS, on.LatencyS)
				}
				for _, cacheOn := range []bool{true, false} {
					e, g := a.Estimate(c, prec, cacheOn), a.Estimate(grown, prec, cacheOn)
					if g.Cycles < e.Cycles || g.LatencyS < e.LatencyS {
						t.Errorf("%s cache=%v: growing to %+v lowered cycles %g→%g or latency %g→%g",
							at, cacheOn, grown, e.Cycles, g.Cycles, e.LatencyS, g.LatencyS)
					}
					if e.EnergyJ != e.AvgPowerW*e.LatencyS {
						t.Errorf("%s cache=%v: energy %g != avg power × latency %g", at, cacheOn, e.EnergyJ, e.AvgPowerW*e.LatencyS)
					}
					if e.PeakPowerW < e.AvgPowerW {
						t.Errorf("%s cache=%v: peak power %g < avg %g", at, cacheOn, e.PeakPowerW, e.AvgPowerW)
					}
				}
			}
		}
	}
}
