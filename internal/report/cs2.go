package report

import (
	"fmt"
	"io"

	"repro/internal/attitude"
	"repro/internal/fixed"
	"repro/internal/geom"
	"repro/internal/imu"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/scalar"
)

// cs2Dataset is one maneuver profile of the attitude study.
type cs2Dataset struct {
	Name string
	Recs []imu.Record
}

// cs2Datasets returns the three maneuver profiles of the attitude study
// in Fig 4's row order.
func cs2Datasets() []cs2Dataset {
	return []cs2Dataset{
		{"bee-hover", cs2BeeHover()},
		{"strider-line", imu.Simulate(imu.StriderLineTrajectory(5, 0.08), 3, 400, imu.DefaultNoise(), 22)},
		{"strider-steer", imu.Simulate(imu.StriderSteerTrajectory(5, 0.08, 12), 3, 400, imu.DefaultNoise(), 23)},
	}
}

// cs2BeeHover is the hover profile, the one Table VII measures.
func cs2BeeHover() []imu.Record {
	return imu.Simulate(imu.HoverTrajectory(0.12, 0.1, 2), 3, 400, imu.DefaultNoise(), 21)
}

// cs2Filters enumerates the filter/mode combinations of Fig 4.
type cs2Filter struct {
	Name string
	Mode attitude.Mode
}

func cs2IMUFilters() []cs2Filter {
	return []cs2Filter{{"mahony", attitude.IMUOnly}, {"madgwick", attitude.IMUOnly}}
}

func cs2MARGFilters() []cs2Filter {
	return []cs2Filter{{"mahony", attitude.MARG}, {"madgwick", attitude.MARG}, {"fourati", attitude.MARG}}
}

func newFilter[T scalar.Real[T]](like T, f cs2Filter) attitude.Filter[T] {
	switch f.Name {
	case "mahony":
		return attitude.NewMahony(like, f.Mode, 2.0, 0.02)
	case "madgwick":
		return attitude.NewMadgwick(like, f.Mode, 0.12)
	default:
		return attitude.NewFourati(like, 0.8, 1e-3)
	}
}

// attitudeRun drives a filter over a record stream and reports per-run
// op counts plus the Fig 4 failure statistics.
type attitudeRun struct {
	Counts      profile.Counts // total over the stream
	Updates     int
	FailureRate float64 // failing updates / total (Fig 4's metric)
	MeanErrDeg  float64
}

func runAttitude[T scalar.Real[T]](like T, f cs2Filter, recs []imu.Record) attitudeRun {
	filter := newFilter(like, f)
	fixed.ResetStatus()
	var run attitudeRun
	var prevDiag attitude.Diag
	var prevFix fixed.Status
	var errSum float64
	var errN int
	counts := profile.Collect(func() {
		for i, r := range recs {
			// Standard fixed-point practice: the accelerometer is
			// prescaled to g units before filtering (the filters use
			// only its direction), so the squared-norm computation does
			// not saturate every format at once. Gyro stays in rad/s —
			// the unbounded unit the paper singles out as the
			// dynamic-range driver.
			scaled := r
			for k := 0; k < 3; k++ {
				scaled.Accel[k] = r.Accel[k] / imu.Gravity
			}
			filter.Update(imu.SampleAs(like, scaled))
			run.Updates++
			failed := false
			// Numeric failure events this update.
			d := filter.Diagnostics()
			if d.EarlyExits > prevDiag.EarlyExits || d.NormDrift > prevDiag.NormDrift {
				failed = true
			}
			prevDiag = d
			fs := fixed.CurrentStatus()
			if fs.Overflows > prevFix.Overflows || fs.ZeroDivides > prevFix.ZeroDivides || fs.SqrtNeg > prevFix.SqrtNeg {
				failed = true
			}
			prevFix = fs
			// Attitude-error failures once past initial convergence.
			if i > len(recs)/4 {
				q := filter.Quat()
				est := geom.QuatFromFloats(scalar.F64(0), q.W.Float(), q.X.Float(), q.Y.Float(), q.Z.Float())
				e := geom.QuatAngleDegrees(est, r.Truth)
				errSum += e
				errN++
				if e > 2.5 {
					failed = true
				}
			}
			if failed {
				run.FailureRate++
			}
		}
	})
	run.Counts = counts
	run.FailureRate /= float64(run.Updates)
	if errN > 0 {
		run.MeanErrDeg = errSum / float64(errN)
	}
	return run
}

// CS2Row is one Table VII row.
type CS2Row struct {
	Filter    string
	Mode      string
	Format    string // "f32" or "q7.24"
	LatencyUs map[string]float64
	EnergyNJ  map[string]float64
	PeakMW    map[string]float64
}

// CS2Result is Case Study #2: the precision-energy frontier.
type CS2Result struct {
	Rows []CS2Row
}

// RunCS2Table7 measures the filters in f32 and q7.24 on the M0+, M4,
// and M33 (per-update metrics).
func RunCS2Table7() CS2Result {
	recs := cs2BeeHover()
	var out CS2Result
	combos := []cs2Filter{
		{"mahony", attitude.IMUOnly}, {"madgwick", attitude.IMUOnly},
		{"mahony", attitude.MARG}, {"madgwick", attitude.MARG},
		{"fourati", attitude.MARG},
	}
	for _, f := range combos {
		for _, format := range []string{"f32", "q7.24"} {
			var run attitudeRun
			prec := mcu.PrecF32
			if format == "f32" {
				run = runAttitude(scalar.F32(0), f, recs)
			} else {
				run = runAttitude(fixed.New(0, 24), f, recs)
				prec = mcu.PrecFixed
			}
			perUpdate := run.Counts.Scale(1 / float64(run.Updates))
			row := CS2Row{
				Filter: f.Name, Mode: f.Mode.String(), Format: format,
				LatencyUs: map[string]float64{},
				EnergyNJ:  map[string]float64{},
				PeakMW:    map[string]float64{},
			}
			for _, arch := range mcu.CaseStudy2Set() {
				est := arch.Estimate(perUpdate, prec, true)
				row.LatencyUs[arch.Name] = est.LatencyUs()
				row.EnergyNJ[arch.Name] = est.EnergyNJ()
				row.PeakMW[arch.Name] = est.PeakPowerMW()
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// Row finds a Table VII row.
func (r CS2Result) Row(filter, mode, format string) (CS2Row, bool) {
	for _, row := range r.Rows {
		if row.Filter == filter && row.Mode == mode && row.Format == format {
			return row, true
		}
	}
	return CS2Row{}, false
}

// WriteTable7 renders the Table VII analogue.
func (r CS2Result) WriteTable7(w io.Writer) {
	header(w, "TABLE VII — ATTITUDE FILTERS: LATENCY (µs), ENERGY (nJ), PEAK POWER (mW)")
	tw := newTab(w)
	fmt.Fprintln(tw, "Filter\tFormat\tlat M0+\tlat M4\tlat M33\tE M0+\tE M4\tE M33\tP M0+\tP M4\tP M33")
	for _, row := range r.Rows {
		mode := "I"
		if row.Mode == "MARG" {
			mode = "M"
		}
		fmt.Fprintf(tw, "%s (%s)\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%.0f\t%.0f\t%.0f\n",
			row.Filter, mode, row.Format,
			fmtSI(row.LatencyUs["M0+"]), fmtSI(row.LatencyUs["M4"]), fmtSI(row.LatencyUs["M33"]),
			fmtSI(row.EnergyNJ["M0+"]), fmtSI(row.EnergyNJ["M4"]), fmtSI(row.EnergyNJ["M33"]),
			row.PeakMW["M0+"], row.PeakMW["M4"], row.PeakMW["M33"])
	}
	tw.Flush()
}

// Fig4Point is one failure-rate sample: (dataset, filter, mode,
// fraction bits) → failure rate.
type Fig4Point struct {
	Dataset  string
	Filter   string
	Mode     string
	FracBits int
	Rate     float64
}

// Fig4Result is the fixed-point failure-rate sweep.
type Fig4Result struct {
	Points []Fig4Point
}

// RunFig4 sweeps the Q-format fraction bits across filters and datasets
// and records failure rates, as in Fig 4 of the paper. The sweep covers
// every viable format q(31-n).n for n in [2, 30] stepped by 2 to bound
// run time; pass step 1 for the full-resolution sweep.
func RunFig4(step int) Fig4Result {
	if step < 1 {
		step = 2
	}
	var out Fig4Result
	for _, ds := range cs2Datasets() {
		for _, filters := range [][]cs2Filter{cs2IMUFilters(), cs2MARGFilters()} {
			for _, f := range filters {
				for frac := 2; frac <= 30; frac += step {
					run := runAttitude(fixed.New(0, uint8(frac)), f, ds.Recs)
					out.Points = append(out.Points, Fig4Point{
						Dataset: ds.Name, Filter: f.Name, Mode: f.Mode.String(),
						FracBits: frac, Rate: run.FailureRate,
					})
				}
			}
		}
	}
	return out
}

// Rate looks up one sweep point.
func (r Fig4Result) Rate(dataset, filter, mode string, frac int) (float64, bool) {
	for _, p := range r.Points {
		if p.Dataset == dataset && p.Filter == filter && p.Mode == mode && p.FracBits == frac {
			return p.Rate, true
		}
	}
	return 0, false
}

// WriteFig4 renders the sweep as per-(dataset, filter) failure-rate
// series.
func (r Fig4Result) WriteFig4(w io.Writer) {
	header(w, "FIG 4 — FIXED-POINT FAILURE RATE vs FRACTION BITS (q(31-n).n)")
	tw := newTab(w)
	fmt.Fprintln(tw, "Dataset\tFilter\tMode\tFrac\tFailure rate")
	for _, p := range r.Points {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.3f\n", p.Dataset, p.Filter, p.Mode, p.FracBits, p.Rate)
	}
	tw.Flush()
}
