package report

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/mcu"
)

// CS1Row is one Table VI row: energy and peak power per core for a
// (kernel, dataset) pair, plus the cycle counts Fig 3 plots.
type CS1Row struct {
	Kernel  string
	Data    string
	EnergyU map[string]float64 // µJ per arch
	PeakMW  map[string]float64
	CyclesK map[string]float64 // kilocycles per arch
}

// CS1Result is Case Study #1: high-resolution exteroception under tight
// energy budgets.
type CS1Result struct {
	Rows []CS1Row
}

// RunCS1 measures the perception kernels across the three scene
// families, including the USADA8-vectorized bbof-vec variant. Each
// (kernel, dataset) problem executes once and is measured on every
// Table IV board, as the sweep does.
func RunCS1() (CS1Result, error) {
	type job struct {
		kernel string
		kinds  []dataset.ImageKind
		vec    bool
		isFeat bool
	}
	jobs := []job{
		{"fastbrief", []dataset.ImageKind{dataset.Midd, dataset.Lights, dataset.April}, false, true},
		{"orb", []dataset.ImageKind{dataset.Midd, dataset.Lights, dataset.April}, false, true},
		{"lkof", []dataset.ImageKind{dataset.Midd}, false, false},
		{"bbof", []dataset.ImageKind{dataset.Midd}, false, false},
		{"bbof-vec", []dataset.ImageKind{dataset.Midd}, true, false},
		{"iiof", []dataset.ImageKind{dataset.Midd}, false, false},
	}
	var out CS1Result
	for _, j := range jobs {
		for _, kind := range j.kinds {
			var p harness.Problem
			if j.isFeat {
				p = core.NewFeatureProblem(j.kernel, kind)
			} else {
				base := j.kernel
				if j.vec {
					base = "bbof"
				}
				p = core.NewFlowProblem(base, kind, j.vec)
			}
			row := CS1Row{
				Kernel:  j.kernel,
				Data:    kind.String(),
				EnergyU: map[string]float64{},
				PeakMW:  map[string]float64{},
				CyclesK: map[string]float64{},
			}
			cfg := harness.DefaultConfig()
			pp, err := harness.Prepare(p, cfg)
			if err != nil {
				return out, err
			}
			for _, arch := range mcu.TableIVSet() {
				res, err := pp.MeasureOn(arch, mcu.PrecF32, cfg)
				if err != nil {
					return out, err
				}
				row.EnergyU[arch.Name] = res.Measured.EnergyJ * 1e6
				row.PeakMW[arch.Name] = res.Measured.PeakPowerW * 1e3
				row.CyclesK[arch.Name] = res.Model.Cycles / 1e3
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Row finds a (kernel, dataset) row.
func (r CS1Result) Row(kernel, data string) (CS1Row, bool) {
	for _, row := range r.Rows {
		if row.Kernel == kernel && row.Data == data {
			return row, true
		}
	}
	return CS1Row{}, false
}

// WriteTable6 renders the Table VI analogue.
func (r CS1Result) WriteTable6(w io.Writer) {
	header(w, "TABLE VI — ENERGY (µJ) AND PEAK POWER (mW) FOR PERCEPTION KERNELS (cache on)")
	tw := newTab(w)
	fmt.Fprintln(tw, "Kernel\tData\tE M4\tE M33\tE M7\tP M4\tP M33\tP M7")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.0f\t%.0f\t%.0f\n",
			row.Kernel, row.Data,
			fmtSI(row.EnergyU["M4"]), fmtSI(row.EnergyU["M33"]), fmtSI(row.EnergyU["M7"]),
			row.PeakMW["M4"], row.PeakMW["M33"], row.PeakMW["M7"])
	}
	tw.Flush()
}

// WriteFig3 renders the Fig 3 series: feature-detection cycles across
// datasets (a) and the optical-flow kernel comparison (b).
func (r CS1Result) WriteFig3(w io.Writer) {
	header(w, "FIG 3a — FEATURE DETECTION CYCLE COUNTS (kcycles) ACROSS DATASETS")
	tw := newTab(w)
	fmt.Fprintln(tw, "Kernel\tData\tM4\tM33\tM7")
	for _, row := range r.Rows {
		if row.Kernel != "fastbrief" && row.Kernel != "orb" {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", row.Kernel, row.Data,
			fmtSI(row.CyclesK["M4"]), fmtSI(row.CyclesK["M33"]), fmtSI(row.CyclesK["M7"]))
	}
	tw.Flush()
	fmt.Fprintln(w)
	header(w, "FIG 3b — OPTICAL FLOW CYCLE COUNTS (kcycles, midd)")
	tw = newTab(w)
	fmt.Fprintln(tw, "Kernel\tM4\tM33\tM7")
	for _, row := range r.Rows {
		switch row.Kernel {
		case "lkof", "bbof", "bbof-vec", "iiof":
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", row.Kernel,
				fmtSI(row.CyclesK["M4"]), fmtSI(row.CyclesK["M33"]), fmtSI(row.CyclesK["M7"]))
		}
	}
	tw.Flush()
}
