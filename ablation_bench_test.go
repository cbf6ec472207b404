// Ablation benchmarks for the design decisions called out in DESIGN.md
// §5, plus the factor-graph extension kernel:
//
//	BenchmarkAblationGenericEKF — generic framework vs hand-specialized
//	    fly-ekf (the sparsity benefit a generic EKF cannot collect).
//	BenchmarkAblationMemoryTerm — cycle model with vs without the
//	    memory-class term (why FLOP-style counting misleads).
//	BenchmarkAblationTraceEnergy — analytic energy vs the full
//	    trace-synthesis + analysis pipeline.
//	BenchmarkExtensionFactorGraph — the AXLE-style chain smoother the
//	    paper lists as a planned extension.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/cnn"
	"repro/internal/dataset"
	"repro/internal/ekf"
	"repro/internal/factorgraph"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/scalar"
)

// BenchmarkAblationGenericEKF compares the generic sequential fly-ekf
// against the hand-specialized implementation that exploits the
// constant Jacobian and sparse measurement rows.
func BenchmarkAblationGenericEKF(b *testing.B) {
	type F = scalar.F32
	tof, flow, acc := F(0.5), F(0.0), F(0.0)
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		f := ekf.NewFlyEKF(F(0), ekf.Sequential, ekf.DefaultFlyEKFConfig(), 0.5)
		counts := profile.Collect(func() { _ = f.Step(F(0.1), F(9.81), F(0.002), &tof, &flow, &acc) })
		b.ReportMetric(mcu.M4.Cycles(counts, mcu.PrecF32, true), "cycM4")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = f.Step(F(0.1), F(9.81), F(0.002), &tof, &flow, &acc)
		}
	})
	b.Run("specialized", func(b *testing.B) {
		b.ReportAllocs()
		f := ekf.NewFlyEKFFast(F(0), ekf.DefaultFlyEKFConfig(), 0.5)
		counts := profile.Collect(func() { f.Step(F(0.1), F(9.81), F(0.002), &tof, &flow, &acc) })
		b.ReportMetric(mcu.M4.Cycles(counts, mcu.PrecF32, true), "cycM4")
		b.ReportMetric(float64(ekf.FlyEKFFLOPs), "claimedFLOPs")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Step(F(0.1), F(9.81), F(0.002), &tof, &flow, &acc)
		}
	})
}

// BenchmarkAblationMemoryTerm reports the modeled cycles of a
// representative estimation kernel with the memory-class term included
// and dropped — the quantity FLOP counting silently throws away.
func BenchmarkAblationMemoryTerm(b *testing.B) {
	type F = scalar.F32
	b.ReportAllocs()
	tof, flow, acc := F(0.5), F(0.0), F(0.0)
	f := ekf.NewFlyEKF(F(0), ekf.Sequential, ekf.DefaultFlyEKFConfig(), 0.5)
	counts := profile.Collect(func() { _ = f.Step(F(0.1), F(9.81), F(0.002), &tof, &flow, &acc) })
	noMem := counts
	noMem.M = 0
	b.ReportMetric(mcu.M4.Cycles(counts, mcu.PrecF32, true), "cycFull")
	b.ReportMetric(mcu.M4.Cycles(noMem, mcu.PrecF32, true), "cycNoMem")
	for i := 0; i < b.N; i++ {
		_ = f.Step(F(0.1), F(9.81), F(0.002), &tof, &flow, &acc)
	}
}

// BenchmarkAblationTraceEnergy runs the trace-synthesis + analyzer
// pipeline and reports the relative error against the analytic model —
// the self-consistency check of the measurement substitution.
func BenchmarkAblationTraceEnergy(b *testing.B) {
	b.ReportAllocs()
	est := mcu.M7.Estimate(profile.Counts{F: 5000, I: 3000, M: 4000, B: 1000}, mcu.PrecF32, true)
	var relErr float64
	for i := 0; i < b.N; i++ {
		tr, ev := harness.SynthesizeTrace(est, mcu.M7, 100, int64(i))
		m, err := harness.Analyze(tr, ev, 100)
		if err != nil {
			b.Fatal(err)
		}
		relErr = harness.RelError(m.EnergyJ, est.EnergyJ)
	}
	b.ReportMetric(relErr, "energyRelErr")
}

// BenchmarkExtensionFactorGraph measures one Gauss-Newton smoothing
// iteration over a 100-pose chain — the planned AXLE-style extension.
func BenchmarkExtensionFactorGraph(b *testing.B) {
	b.ReportAllocs()
	type F = scalar.F32
	rng := rand.New(rand.NewSource(1))
	odom := make([]factorgraph.Odometry[F], 99)
	for i := range odom {
		odom[i] = factorgraph.Odometry[F]{
			DX: F(0.1 + rng.NormFloat64()*0.01), DY: 0,
			DTheta: F(rng.NormFloat64() * 0.01),
			WX:     1e3, WY: 1e3, WTheta: 1e3,
		}
	}
	chain := factorgraph.NewChain(F(0), odom)
	counts := profile.Collect(func() { chain.Smooth(1) })
	est := mcu.M4.Estimate(counts, mcu.PrecF32, true)
	b.ReportMetric(est.LatencyUs(), "µs/M4")
	b.ReportMetric(est.EnergyUJ(), "µJ/M4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain.Smooth(1)
	}
}

// BenchmarkExtensionDepthNet measures the CNN depth-proxy extension:
// int8 and float inference over a 32×32 crop, with modeled M4 metrics.
func BenchmarkExtensionDepthNet(b *testing.B) {
	net := cnn.NewDepthNet()
	g := dataset.GenImage(dataset.Midd, 32, 32, 3)
	b.Run("float32", func(b *testing.B) {
		b.ReportAllocs()
		counts := profile.Collect(func() { net.Infer(g) })
		est := mcu.M4.Estimate(counts, mcu.PrecF32, true)
		b.ReportMetric(est.LatencyUs(), "µs/M4")
		b.ReportMetric(est.EnergyUJ(), "µJ/M4")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Infer(g)
		}
	})
	b.Run("int8", func(b *testing.B) {
		b.ReportAllocs()
		counts := profile.Collect(func() { net.InferQ(g) })
		est := mcu.M4.Estimate(counts, mcu.PrecFixed, true)
		b.ReportMetric(est.LatencyUs(), "µs/M4")
		b.ReportMetric(est.EnergyUJ(), "µJ/M4")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.InferQ(g)
		}
	})
}
