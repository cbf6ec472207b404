package report

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/mcu"
)

// CS3Row is one Table VIII row: the claimed static FLOP count against
// measured cycles and energy per update.
type CS3Row struct {
	Kernel     string
	FLOPs      int
	CyclesK    map[string]float64 // kcycles per arch
	EstEnergy  map[string]float64 // µJ predicted from FLOPs + datasheet power
	MeasEnergy map[string]float64 // µJ measured per update
}

// CS3Result is Case Study #3: is FLOP counting a good model?
type CS3Result struct {
	Rows []CS3Row
}

// RunCS3 measures the sensor-fusion and optimal-control kernels whose
// feasibility the literature justified with FLOP counts: it reads each
// kernel's cache-on cells of the Table IV sweep through the default
// engine, so a kernel another sweep already executed is not run again.
func RunCS3() (CS3Result, error) {
	kernels := []string{"fly-ekf (seq)", "fly-ekf (trunc)", "bee-ceekf", "fly-lqr", "fly-tiny-mpc"}
	specs := make([]core.Spec, len(kernels))
	for i, name := range kernels {
		spec, ok := core.ByName(name)
		if !ok {
			return CS3Result{}, fmt.Errorf("report: unknown kernel %s", name)
		}
		specs[i] = spec
	}
	c, err := RunSweepQuery(specs, mcu.TableIVSet(), core.SweepOptions{})
	if err != nil {
		return CS3Result{}, err
	}
	var out CS3Result
	for _, r := range c.Records {
		row := CS3Row{
			Kernel: r.Spec.Name, FLOPs: r.Spec.FLOPs,
			CyclesK:    map[string]float64{},
			EstEnergy:  map[string]float64{},
			MeasEnergy: map[string]float64{},
		}
		for _, cell := range r.Cells {
			if !cell.CacheOn {
				continue
			}
			arch := cell.Arch
			row.CyclesK[arch.Name] = cell.Model.Cycles / 1e3
			row.MeasEnergy[arch.Name] = cell.Meas.EnergyJ * 1e6
			// The FLOP-based estimate assumes one FLOP per cycle at the
			// datasheet's nominal active power — the idealized model the
			// case study interrogates. No memory traffic, no control
			// flow, no workload-dependent power.
			row.EstEnergy[arch.Name] = float64(r.Spec.FLOPs) / arch.ClockHz * arch.NominalPowerW() * 1e6
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Row finds a kernel's record.
func (r CS3Result) Row(kernel string) (CS3Row, bool) {
	for _, row := range r.Rows {
		if row.Kernel == kernel {
			return row, true
		}
	}
	return CS3Row{}, false
}

// WriteTable8 renders the Table VIII analogue.
func (r CS3Result) WriteTable8(w io.Writer) {
	header(w, "TABLE VIII — FLOPs vs MEASURED CYCLES AND ENERGY PER UPDATE")
	tw := newTab(w)
	fmt.Fprintln(tw, "Kernel\tFLOPs\tcyc M4\tcyc M33\tcyc M7\tEst E M4\tEst E M33\tEst E M7\tMeas E M4\tMeas E M33\tMeas E M7")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%sk\t%sk\t%sk\t%.3g\t%.3g\t%.3g\t%.3g\t%.3g\t%.3g\n",
			row.Kernel, row.FLOPs,
			fmtSI(row.CyclesK["M4"]), fmtSI(row.CyclesK["M33"]), fmtSI(row.CyclesK["M7"]),
			row.EstEnergy["M4"], row.EstEnergy["M33"], row.EstEnergy["M7"],
			row.MeasEnergy["M4"], row.MeasEnergy["M33"], row.MeasEnergy["M7"])
	}
	tw.Flush()
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Estimated energy assumes 1 FLOP/cycle at nominal active power (datasheet")
	fmt.Fprintln(w, "method); measured energy is per fused update through the harness.")
}
