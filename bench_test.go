// Package repro's benchmark harness: one testing.B benchmark per table
// and figure of the paper. Each benchmark drives the same kernels and
// problem instances as the corresponding generator in internal/report
// and attaches the modeled MCU metrics as custom benchmark units
// (µs/op-on-M4, µJ/op-on-M4, mW-peak-M4), so `go test -bench=.`
// regenerates the paper's quantities kernel by kernel.
//
//	BenchmarkTable3   — static-mix proxy runs (reduced canonical inputs)
//	BenchmarkTable4   — every suite kernel, cache on and off, 3 cores
//	BenchmarkTable6   — perception kernels across scene datasets (CS#1)
//	BenchmarkFig3     — optical-flow kernel spectrum incl. bbof-vec
//	BenchmarkTable7   — attitude filters f32 vs q7.24 (CS#2)
//	BenchmarkFig4     — fixed-point filter updates at swept Q-formats
//	BenchmarkTable8   — FLOP-claimed kernels, measured per update (CS#3)
//	BenchmarkFig5     — relative-pose solvers and LO-RANSAC (CS#4)
package repro

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/attitude"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fixed"
	"repro/internal/harness"
	"repro/internal/imu"
	"repro/internal/mcu"
	"repro/internal/pose"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/scalar"
)

// benchProblem runs p.Solve under the Go benchmark loop and reports the
// modeled metrics for arch as custom units.
func benchProblem(b *testing.B, p harness.Problem, arch mcu.Arch, prec mcu.Precision, cacheOn bool) {
	b.Helper()
	b.ReportAllocs()
	if err := p.Setup(); err != nil {
		b.Fatal(err)
	}
	p.Solve() // warm-up
	counts := profile.Collect(p.Solve)
	est := arch.Estimate(counts, prec, cacheOn)
	b.ReportMetric(est.LatencyUs(), "µs/"+arch.Name)
	b.ReportMetric(est.EnergyUJ(), "µJ/"+arch.Name)
	b.ReportMetric(est.PeakPowerMW(), "mWpeak/"+arch.Name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Solve()
	}
}

// BenchmarkTable3 exercises the reduced canonical problems whose
// dynamic mixes stand in for the static instruction mix.
func BenchmarkTable3(b *testing.B) {
	for _, spec := range core.Suite() {
		sf := spec.StaticFactory
		if sf == nil {
			sf = spec.Factory
		}
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			arch := mcu.M4
			if spec.M7Only {
				arch = mcu.M7
			}
			benchProblem(b, sf(), arch, spec.Prec, true)
		})
	}
}

// BenchmarkTable4 exercises every kernel at its characterization
// configuration, cache on and off, on the three Table IV cores.
func BenchmarkTable4(b *testing.B) {
	for _, spec := range core.Suite() {
		spec := spec
		for _, arch := range mcu.TableIVSet() {
			if spec.M7Only && arch.Name != "M7" {
				continue
			}
			arch := arch
			for _, cache := range []bool{true, false} {
				cache := cache
				tag := "C"
				if !cache {
					tag = "NC"
				}
				b.Run(fmt.Sprintf("%s/%s/%s", spec.Name, arch.Name, tag), func(b *testing.B) {
					benchProblem(b, spec.Factory(), arch, spec.Prec, cache)
				})
			}
		}
	}
}

// BenchmarkTable6 exercises the perception kernels across the three
// scene families plus the vectorized block-matching variant.
func BenchmarkTable6(b *testing.B) {
	kinds := []dataset.ImageKind{dataset.Midd, dataset.Lights, dataset.April}
	for _, kernel := range []string{"fastbrief", "orb"} {
		for _, kind := range kinds {
			kernel, kind := kernel, kind
			b.Run(fmt.Sprintf("%s/%s", kernel, kind), func(b *testing.B) {
				benchProblem(b, core.NewFeatureProblem(kernel, kind), mcu.M4, mcu.PrecF32, true)
			})
		}
	}
	for _, flow := range []struct {
		name string
		vec  bool
	}{{"lkof", false}, {"iiof", false}, {"bbof", false}, {"bbof-vec", true}} {
		flow := flow
		base := flow.name
		if flow.vec {
			base = "bbof"
		}
		b.Run(flow.name+"/midd", func(b *testing.B) {
			benchProblem(b, core.NewFlowProblem(base, dataset.Midd, flow.vec), mcu.M4, mcu.PrecF32, true)
		})
	}
}

// BenchmarkFig3 is the optical-flow cycle-count spectrum of Fig 3b.
func BenchmarkFig3(b *testing.B) {
	for _, flow := range []struct {
		name string
		vec  bool
	}{{"lkof", false}, {"iiof", false}, {"bbof", false}, {"bbof-vec", true}} {
		flow := flow
		base := flow.name
		if flow.vec {
			base = "bbof"
		}
		b.Run(flow.name, func(b *testing.B) {
			b.ReportAllocs()
			p := core.NewFlowProblem(base, dataset.Midd, flow.vec)
			if err := p.Setup(); err != nil {
				b.Fatal(err)
			}
			counts := profile.Collect(p.Solve)
			for _, arch := range mcu.TableIVSet() {
				b.ReportMetric(arch.Cycles(counts, mcu.PrecF32, true)/1e3, "kcyc/"+arch.Name)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Solve()
			}
		})
	}
}

// attitude bench stream, shared by Table VII and Fig 4 benches.
var benchRecs = imu.Simulate(imu.HoverTrajectory(0.12, 0.1, 2), 1, 400, imu.DefaultNoise(), 99)

func benchFilterUpdates[T scalar.Real[T]](b *testing.B, like T, prec mcu.Precision, mk func() attitude.Filter[T]) {
	b.Helper()
	b.ReportAllocs()
	f := mk()
	samples := make([]imu.Sample[T], len(benchRecs))
	for i, r := range benchRecs {
		for k := 0; k < 3; k++ {
			r.Accel[k] /= imu.Gravity
		}
		samples[i] = imu.SampleAs(like, r)
	}
	counts := profile.Collect(func() { f.Update(samples[0]) })
	for _, arch := range mcu.CaseStudy2Set() {
		est := arch.Estimate(counts, prec, true)
		b.ReportMetric(est.LatencyUs(), "µs/"+arch.Name)
		b.ReportMetric(est.EnergyNJ(), "nJ/"+arch.Name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Update(samples[i%len(samples)])
	}
}

// BenchmarkTable7 exercises the attitude filters in f32 and q7.24.
func BenchmarkTable7(b *testing.B) {
	b.Run("mahony-I/f32", func(b *testing.B) {
		benchFilterUpdates(b, scalar.F32(0), mcu.PrecF32, func() attitude.Filter[scalar.F32] {
			return attitude.NewMahony(scalar.F32(0), attitude.IMUOnly, 2.0, 0.02)
		})
	})
	b.Run("mahony-I/q7.24", func(b *testing.B) {
		like := fixed.New(0, 24)
		benchFilterUpdates(b, like, mcu.PrecFixed, func() attitude.Filter[fixed.Num] {
			return attitude.NewMahony(like, attitude.IMUOnly, 2.0, 0.02)
		})
	})
	b.Run("madgwick-I/f32", func(b *testing.B) {
		benchFilterUpdates(b, scalar.F32(0), mcu.PrecF32, func() attitude.Filter[scalar.F32] {
			return attitude.NewMadgwick(scalar.F32(0), attitude.IMUOnly, 0.12)
		})
	})
	b.Run("madgwick-I/q7.24", func(b *testing.B) {
		like := fixed.New(0, 24)
		benchFilterUpdates(b, like, mcu.PrecFixed, func() attitude.Filter[fixed.Num] {
			return attitude.NewMadgwick(like, attitude.IMUOnly, 0.12)
		})
	})
	b.Run("fourati-M/f32", func(b *testing.B) {
		benchFilterUpdates(b, scalar.F32(0), mcu.PrecF32, func() attitude.Filter[scalar.F32] {
			return attitude.NewFourati(scalar.F32(0), 0.8, 1e-3)
		})
	})
	b.Run("fourati-M/q7.24", func(b *testing.B) {
		like := fixed.New(0, 24)
		benchFilterUpdates(b, like, mcu.PrecFixed, func() attitude.Filter[fixed.Num] {
			return attitude.NewFourati(like, 0.8, 1e-3)
		})
	})
}

// BenchmarkFig4 exercises the fixed-point filter at three points of the
// Q-format sweep: a catastrophic, a viable, and a marginal format.
func BenchmarkFig4(b *testing.B) {
	for _, frac := range []uint8{4, 16, 28} {
		frac := frac
		b.Run(fmt.Sprintf("madgwick-q%d.%d", 31-int(frac), frac), func(b *testing.B) {
			like := fixed.New(0, frac)
			benchFilterUpdates(b, like, mcu.PrecFixed, func() attitude.Filter[fixed.Num] {
				return attitude.NewMadgwick(like, attitude.IMUOnly, 0.12)
			})
		})
	}
}

// BenchmarkTable8 exercises the FLOP-claimed kernels per fused update
// and reports the modeled-cycles-to-claimed-FLOPs gap.
func BenchmarkTable8(b *testing.B) {
	for _, name := range []string{"fly-ekf (seq)", "fly-ekf (trunc)", "bee-ceekf", "fly-lqr", "fly-tiny-mpc"} {
		spec, ok := core.ByName(name)
		if !ok {
			b.Fatalf("missing %s", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			p := spec.Factory()
			if err := p.Setup(); err != nil {
				b.Fatal(err)
			}
			p.Solve()
			counts := profile.Collect(p.Solve)
			cycles := mcu.M4.Cycles(counts, spec.Prec, true)
			b.ReportMetric(float64(spec.FLOPs), "claimedFLOPs")
			b.ReportMetric(cycles, "cycM4")
			b.ReportMetric(cycles/float64(spec.FLOPs), "cyc/FLOP")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Solve()
			}
		})
	}
}

// BenchmarkFig5 exercises the relative-pose solver spectrum (panels b/c)
// and the LO-RANSAC composition (panels d/e/f).
func BenchmarkFig5(b *testing.B) {
	type F32 = scalar.F32
	solvers := []struct {
		name    string
		sample  int
		upright bool
		planar  bool
		run     func(c []pose.RelCorrespondence[F32]) error
	}{
		{"up2pt", 2, true, true, func(c []pose.RelCorrespondence[F32]) error {
			_, err := pose.UP2PT(c[:2])
			return err
		}},
		{"up3pt", 3, true, true, func(c []pose.RelCorrespondence[F32]) error {
			_, err := pose.UP3PT(c[:3])
			return err
		}},
		{"u3pt", 3, true, false, func(c []pose.RelCorrespondence[F32]) error {
			_, err := pose.U3PT(c[:3])
			return err
		}},
		{"5pt", 5, false, false, func(c []pose.RelCorrespondence[F32]) error {
			_, err := pose.FivePoint(c[:5])
			return err
		}},
		{"8pt", 8, false, false, func(c []pose.RelCorrespondence[F32]) error {
			_, err := pose.EightPoint(c[:8])
			return err
		}},
	}
	for _, s := range solvers {
		s := s
		b.Run("solver/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			p := dataset.GenRelProblem(dataset.PoseGenConfig{
				N: 12, PixelNoise: 0.1, Upright: s.upright, Planar: s.planar, Seed: 55,
			})
			corrs := dataset.ConvertRel(F32(0), p)
			counts := profile.Collect(func() { _ = s.run(corrs) })
			for _, arch := range mcu.TableIVSet() {
				b.ReportMetric(arch.Cycles(counts, mcu.PrecF32, true)/1e3, "kcyc/"+arch.Name)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.run(corrs)
			}
		})
	}
	// LO-RANSAC composition (the 8pt inner solver is excluded, as in
	// the paper).
	for _, s := range []struct {
		name   string
		sample int
		planar bool
	}{{"up2pt", 2, true}, {"u3pt", 3, false}, {"5pt", 5, false}} {
		s := s
		b.Run("lo-ransac/"+s.name, func(b *testing.B) {
			b.ReportAllocs()
			p := dataset.GenRelProblem(dataset.PoseGenConfig{
				N: 100, PixelNoise: 0.5, OutlierRatio: 0.25,
				Upright: true, Planar: s.planar, Seed: 66,
			})
			corrs := dataset.ConvertRel(F32(0), p)
			inner := func(sample []pose.RelCorrespondence[F32]) ([]pose.Pose[F32], error) {
				switch s.name {
				case "up2pt":
					return pose.UP2PT(sample)
				case "u3pt":
					return pose.U3PT(sample)
				default:
					return pose.FivePoint(sample)
				}
			}
			cfg := pose.DefaultRansacConfig()
			run := func() {
				_, _, _, _ = pose.RelLoRansac(corrs, inner, s.sample, cfg)
			}
			counts := profile.Collect(run)
			b.ReportMetric(mcu.M4.Cycles(counts, mcu.PrecF32, true)/1e6, "McycM4")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkProfileHookOverhead prices the profiling hook on its three
// paths: no session anywhere (the gate check every scalar op pays in
// unprofiled execution), a session on another goroutine only, and a
// session on this goroutine (the profiled ROI itself) — alone, and with
// 1, 15 and 127 other sessions live, as when a parallel sweep or the
// daemon profiles several kernels at once.
func BenchmarkProfileHookOverhead(b *testing.B) {
	b.Run("idle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			profile.AddF(1)
		}
	})
	b.Run("foreign-session", func(b *testing.B) {
		b.ReportAllocs()
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			profile.Collect(func() { <-stop })
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			profile.AddF(1)
		}
		b.StopTimer()
		close(stop)
		<-done
	})
	for _, others := range []int{0, 1, 15, 127} {
		name := "own-session"
		if others > 0 {
			name = fmt.Sprintf("own-session-others-%d", others)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			stop := make(chan struct{})
			var begun, done sync.WaitGroup
			for g := 0; g < others; g++ {
				begun.Add(1)
				done.Add(1)
				go func() {
					defer done.Done()
					profile.Collect(func() {
						begun.Done()
						<-stop
					})
				}()
			}
			begun.Wait()
			rec := profile.Collect(func() {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					profile.AddF(1)
				}
				b.StopTimer()
			})
			close(stop)
			done.Wait()
			if rec.F != uint64(b.N) {
				b.Fatalf("own record F = %d, want %d", rec.F, b.N)
			}
		})
	}
}

// uncachedSweep runs the full Table IV suite sweep straight through the
// engine, bypassing the keyed sweep cache.
func uncachedSweep(opts core.SweepOptions) (report.Characterization, error) {
	recs, err := core.CharacterizeSuiteOpts(core.Suite(), mcu.TableIVSet(), opts)
	return report.Characterization{Records: recs}, err
}

// BenchmarkRunCharacterization times the full >400-datapoint suite
// sweep — the repo's hottest path — serially and across the worker
// pool, so the parallel speedup stays visible in the bench trajectory.
func BenchmarkRunCharacterization(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel-gomaxprocs", 0},
		{"parallel-j8", 8},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := uncachedSweep(core.SweepOptions{Workers: cfg.workers})
				if err != nil {
					b.Fatal(err)
				}
				if c.Datapoints() < 400 {
					b.Fatalf("sweep produced %d datapoints", c.Datapoints())
				}
			}
		})
	}
}

// BenchmarkSweepWarm times the full suite sweep served entirely from a
// warm persistent cell cache (-cachedir): every job loads from disk,
// no kernel executes. The cold/warm ratio against
// BenchmarkRunCharacterization/serial is the headline speedup of the
// content-addressed store.
func BenchmarkSweepWarm(b *testing.B) {
	b.ReportAllocs()
	cache, err := report.OpenCellCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	opts := core.SweepOptions{Workers: 1, CellCache: cache}
	// One cold sweep fills the store; the measured loop is all hits.
	if _, err := uncachedSweep(opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := uncachedSweep(opts)
		if err != nil {
			b.Fatal(err)
		}
		if c.Datapoints() < 400 {
			b.Fatalf("sweep produced %d datapoints", c.Datapoints())
		}
	}
}

// BenchmarkSweepIncremental times the incremental case the cache
// exists for: the Table IV grid is warm, and each iteration sweeps it
// plus one never-seen board, so only that board's cells compute — and
// even those need no kernel execution, because the shared prepare
// rehydrates from the cached reference cells.
func BenchmarkSweepIncremental(b *testing.B) {
	b.ReportAllocs()
	cache, err := report.OpenCellCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	base := mcu.TableIVSet()
	if _, err := core.CharacterizeSuiteOpts(core.Suite(), base, core.SweepOptions{Workers: 1, CellCache: cache}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		novel := mcu.M4
		novel.Name = fmt.Sprintf("M4-inc-%d", i) // fresh content key every iteration
		extended := append(append([]mcu.Arch{}, base...), novel)
		recs, err := core.CharacterizeSuiteOpts(core.Suite(), extended, core.SweepOptions{Workers: 1, CellCache: cache})
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkTraceIngest times the imported-trace path of the backend
// seam (docs/backends.md): parsing a multi-cell capture CSV and
// replaying every capture through the trace analyzer — the per-file
// cost `sweep -backend trace -tracefile FILE` pays over the cells the
// file covers, on top of the sweep itself.
func BenchmarkTraceIngest(b *testing.B) {
	b.ReportAllocs()
	arch, ok := mcu.ByName("M4")
	if !ok {
		b.Fatal("no M4 board")
	}
	cfg := harness.DefaultConfig()
	var captures []harness.TraceCapture
	for _, name := range []string{"madgwick", "mahony", "fourati"} {
		spec, ok := core.ByName(name)
		if !ok {
			b.Fatalf("no kernel %s", name)
		}
		pp, err := harness.Prepare(spec.Factory(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, cacheOn := range []bool{true, false} {
			c := cfg
			c.CacheOn = cacheOn
			captures = append(captures, pp.SynthesizeCapture(arch, spec.Prec, c))
		}
	}
	var buf bytes.Buffer
	if err := harness.WriteTraceCSV(&buf, captures); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		caps, err := harness.ReadTraceCSV(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		tb, err := harness.NewTraceBackend(caps)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range caps {
			m, err := tb.Measure(harness.MeasureRequest{Kernel: c.Kernel, Arch: arch, CacheOn: c.CacheOn})
			if err != nil {
				b.Fatal(err)
			}
			if m.LatencyS <= 0 {
				b.Fatal("replayed capture produced no latency")
			}
		}
	}
}
