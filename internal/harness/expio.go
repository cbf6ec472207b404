package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// ExperimentIO is the measurement-log half of the paper's ExperimentIO
// abstraction (the paper moves data host↔MCU over semihosting and saves
// results to reduce host interaction; here the "measurement logs" output
// of the artifact is a CSV stream).

// csvHeader is the measurement-log column set.
var csvHeader = []string{
	"kernel", "arch", "precision", "cache",
	"ops_f", "ops_i", "ops_m", "ops_b",
	"cycles", "latency_us", "energy_uj", "avg_power_mw", "peak_power_mw",
	"reps", "valid",
}

// WriteResultsCSV streams harness results as a measurement log, led by
// the column line when header is set; an append to a log that already
// has one leaves it out.
func WriteResultsCSV(w io.Writer, results []Result, header bool) error {
	cw := csv.NewWriter(w)
	if header {
		if err := cw.Write(csvHeader); err != nil {
			return err
		}
	}
	for _, r := range results {
		row := []string{
			r.Kernel,
			r.Arch.Name,
			r.Precision.String(),
			strconv.FormatBool(r.CacheOn),
			strconv.FormatUint(r.Counts.F, 10),
			strconv.FormatUint(r.Counts.I, 10),
			strconv.FormatUint(r.Counts.M, 10),
			strconv.FormatUint(r.Counts.B, 10),
			fmt.Sprintf("%.0f", r.Model.Cycles),
			fmt.Sprintf("%.4f", r.Measured.LatencyS*1e6),
			fmt.Sprintf("%.6f", r.Measured.EnergyJ*1e6),
			fmt.Sprintf("%.3f", r.Measured.AvgPowerW*1e3),
			fmt.Sprintf("%.3f", r.Measured.PeakPowerW*1e3),
			strconv.Itoa(r.Measured.Reps),
			strconv.FormatBool(r.Valid),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
