package harness_test

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/mcu"
)

func TestResultsCSVRoundTrip(t *testing.T) {
	p := &vvadd{n: 128}
	var results []harness.Result
	for _, arch := range []mcu.Arch{mcu.M4, mcu.M33} {
		res, err := harness.Run(p, arch, mcu.PrecF32, harness.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	var buf bytes.Buffer
	if err := harness.WriteResultsCSV(&buf, results, true); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	const header = "kernel,arch,precision,cache,ops_f,ops_i,ops_m,ops_b," +
		"cycles,latency_us,energy_uj,avg_power_mw,peak_power_mw,reps,valid"
	if got := strings.Join(recs[0], ","); got != header {
		t.Fatalf("header = %q, want %q", got, header)
	}
	if len(recs) != 3 {
		t.Fatalf("rows = %d, want 2", len(recs)-1)
	}
	for i, row := range recs[1:] {
		r := results[i]
		want := map[int]string{
			0:  "vvadd",
			1:  []string{"M4", "M33"}[i],
			2:  "f32",
			3:  "true",
			4:  strconv.FormatUint(r.Counts.F, 10),
			7:  strconv.FormatUint(r.Counts.B, 10),
			13: strconv.Itoa(r.Measured.Reps),
			14: "true",
		}
		for col, w := range want {
			if row[col] != w {
				t.Errorf("row %d %s = %q, want %q", i, recs[0][col], row[col], w)
			}
		}
		for _, col := range []int{9, 10} { // latency_us, energy_uj
			if v, err := strconv.ParseFloat(row[col], 64); err != nil || v <= 0 {
				t.Errorf("row %d %s = %q, want a positive number", i, recs[0][col], row[col])
			}
		}
	}

	// No results still yields the header.
	buf.Reset()
	if err := harness.WriteResultsCSV(&buf, nil, true); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != header+"\n" {
		t.Errorf("empty log = %q, want the header alone", got)
	}
}
