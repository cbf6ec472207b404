package report

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/mcu"
)

// Characterization is the full Table III + IV dataset: one record per
// kernel, each holding all (arch, cache) cells. One an Engine returned
// from its memo also carries that entry's v1 bytes, rendered once
// (V1).
type Characterization struct {
	Records []core.Record
	v1      *v1Bytes
}

// The "more than 400 measured datapoints" sweep — every kernel × {M4,
// M33, M7} × {cache on, off} plus the static proxy runs — lives in
// cache.go: an Engine memoizes it and fans the cells across a worker
// pool (core.ExecTable.Characterize).

// Datapoints counts the measurement cells in the sweep. Only healthy
// cells count: a failed, timed-out, or skipped cell produced no
// latency/energy/power triple, and a failed static job produced no
// proxy run.
func (c Characterization) Datapoints() int {
	n := 0
	for _, r := range c.Records {
		for _, cell := range r.Cells {
			if cell.Status == core.CellOK {
				n += 3 // latency, energy, peak power per cell
			}
		}
		if r.StaticStatus == core.CellOK {
			n++ // static proxy run
		}
	}
	return n
}

// Partial reports whether any sweep job failed, timed out, or was
// skipped — i.e. whether the dataset is incomplete and the JSON export
// will carry a failures block.
func (c Characterization) Partial() bool {
	for _, r := range c.Records {
		if r.StaticStatus != core.CellOK {
			return true
		}
		for _, cell := range r.Cells {
			if cell.Status != core.CellOK {
				return true
			}
		}
	}
	return false
}

// Failures lists every job that did not complete, in serial sweep order
// (records order; static before cells), with full provenance — the
// source of both the JSON failures block and the CLI failure summary.
func (c Characterization) Failures() []core.CellError { return core.Failures(c.Records) }

// cellArchs lists the distinct cores appearing in the records' cells in
// first-appearance order — the column set of Tables III and IV. A
// default sweep yields M4, M33, M7; sweeps over user boards grow (or
// replace) the columns with no renderer changes.
func (c Characterization) cellArchs() []mcu.Arch {
	var archs []mcu.Arch
	seen := map[string]bool{}
	for _, r := range c.Records {
		for _, cell := range r.Cells {
			if !seen[cell.Arch.Name] {
				seen[cell.Arch.Name] = true
				archs = append(archs, cell.Arch)
			}
		}
	}
	return archs
}

// WriteTable3 renders the static metrics: flash size and the F/I/M/B
// static instruction-mix proxy per architecture in the sweep.
func (c Characterization) WriteTable3(w io.Writer) {
	header(w, "TABLE III — BENCHMARK SUITE STATIC METRICS (modeled proxy; see DESIGN.md)")
	archs := c.cellArchs()
	tw := newTab(w)
	head := "Stage\tKernel\tCategory\tDataset\tFlash"
	for _, a := range archs {
		head += "\t" + a.Name + " F/I/M/B"
	}
	fmt.Fprintln(tw, head)
	for _, r := range c.Records {
		// A failed static-proxy job has no flash size or mix to show;
		// render the gap explicitly rather than as zeros.
		if r.StaticStatus != core.CellOK {
			row := fmt.Sprintf("%s\t%s\t%s\t%s\t—",
				r.Spec.Stage, r.Spec.Name, r.Spec.Category, r.Spec.Dataset)
			for range archs {
				row += "\t—"
			}
			fmt.Fprintln(tw, row)
			continue
		}
		row := fmt.Sprintf("%s\t%s\t%s\t%s\t%d",
			r.Spec.Stage, r.Spec.Name, r.Spec.Category, r.Spec.Dataset, r.Flash)
		for _, a := range archs {
			m := a.StaticAdjust(r.Static)
			row += fmt.Sprintf("\t%d/%d/%d/%d", m.F, m.I, m.M, m.B)
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()
}

// WriteTable4 renders the dynamic metrics: latency (µs), energy (µJ),
// and peak power (mW) per core in the sweep with caches on (C) and off
// (NC).
func (c Characterization) WriteTable4(w io.Writer) {
	header(w, "TABLE IV — DYNAMIC METRICS: LATENCY, ENERGY, PEAK POWER (cache on C / off NC)")
	archs := c.cellArchs()
	tw := newTab(w)
	head := "Stage\tKernel"
	for _, label := range []string{"lat", "E", "P"} {
		for _, a := range archs {
			head += fmt.Sprintf("\t%s %s C/NC", a.Name, label)
		}
	}
	fmt.Fprintln(tw, head)
	for _, r := range c.Records {
		row := fmt.Sprintf("%s\t%s", r.Spec.Stage, r.Spec.Name)
		for _, metric := range []string{"lat", "energy", "peak"} {
			for _, a := range archs {
				on, okOn := r.Cell(a.Name, true)
				off, okOff := r.Cell(a.Name, false)
				if !okOn || !okOff {
					row += "\t-"
					continue
				}
				// A cell that failed, timed out, or was skipped has no
				// measurement; "—" marks the gap instead of a zero.
				side := func(cell core.ArchRun, v float64) string {
					if cell.Status != core.CellOK {
						return "—"
					}
					return fmtSI(v)
				}
				switch metric {
				case "lat":
					row += fmt.Sprintf("\t%s/%s", side(on, on.Meas.LatencyS*1e6), side(off, off.Meas.LatencyS*1e6))
				case "energy":
					row += fmt.Sprintf("\t%s/%s", side(on, on.Meas.EnergyJ*1e6), side(off, off.Meas.EnergyJ*1e6))
				default:
					row += fmt.Sprintf("\t%s/%s", side(on, on.Meas.PeakPowerW*1e3), side(off, off.Meas.PeakPowerW*1e3))
				}
			}
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()
}

// WriteTable5 renders the architecture inventory.
func WriteTable5(w io.Writer) {
	header(w, "TABLE V — CONSIDERED CORTEX-M ARCHITECTURES")
	tw := newTab(w)
	fmt.Fprintln(tw, "Core\tBoard\tISA\tClock\tFPU\tSRAM\tCaches")
	for _, a := range mcu.All() {
		fpu := "none (soft float)"
		switch a.FPU {
		case mcu.SPOnly:
			fpu = "SP FPU"
		case mcu.SPDP:
			fpu = "SP+DP FPU"
		}
		caches := "flash accelerator"
		if a.HasCache {
			caches = "I/D caches"
		}
		if a.Name == "M0+" {
			caches = "none"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f MHz\t%s\t%d KB\t%s\n",
			a.Name, a.Board, a.ISA, a.ClockHz/1e6, fpu, a.SRAMKB, caches)
	}
	tw.Flush()
}
