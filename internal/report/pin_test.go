package report_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/report"
)

// Output digests recorded before the control kernels' host work moved
// off mat.Mat (hook-free Riccati iteration, Mat.TMulVec, closed-form
// LDLT-solve counts). The goldens cover only a synthetic kernel and the
// determinism tests compare two runs of the same code, so without these
// pins a drifted count or a changed low bit in any real kernel would
// pass every test. A deliberate change to a kernel, a cost model or a
// renderer must re-record them in the same commit and say why. The
// Case Study #1 and #2 pins were recorded before fixed point left mat's
// bulk fast paths for the hooked bodies.
const (
	// Uncached full-suite Table IV sweep, v1 JSON export (the bytes of
	// `entobench sweep -json`).
	pinTableIVJSON = "4a54795acf77d598854f368ce87e3adc53c266932efbed51190abda748e4bcef"
	// Table VIII as `entobench table8` renders it.
	pinTable8 = "8a2ba78728a11d8f934be13eec14bf8079ae2dac0d7d396589862e9ab7004f23"
	// Fig 5 at pinFig5N problems per datapoint.
	pinFig5  = "7cf70335cd342715b57ac6994dc410bce6e5016ad321a7194645377eaf7f9312"
	pinFig5N = 10
	// Case Study #1: Table VI and Fig 3.
	pinTable6 = "d0586f90742c7f59984bc1abd09e05fcab2b0c4c97089e63d1e51bfdc480ea84"
	pinFig3   = "206895872112de22f0bcf1d9c9b7531e357176b7de9c9ba35c089b7274c280c4"
	// Case Study #2: Table VII, and Fig 4 at pinFig4Step fraction-bit
	// steps: the suite's only fixed-point linear algebra.
	pinTable7 = "f9af8a55a938c1beb164d42c85df43cd15888b0bd878b3950b36d4c38cb25cb0"
	// Table VII's per-update values at full float64 precision: the
	// rendered table prints two to three digits, which hides a drift of
	// a few ops per update.
	pinTable7Values = "5f2564782cb8d28d26359bd21d532993010d97339c331f99e9d38331358ba502"
	pinFig4         = "f1f9fc7a7ec80575ba143f6af03b9f37012d26213a85ff8e5d8dd86329a9247a"
	pinFig4Step     = 2
)

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestOutputDigestsPinned holds the suite's published outputs to the
// recorded bytes. The digests are amd64's: Go may fuse a multiply and
// an add into one FMA on arm64, ppc64le and s390x, which changes low
// bits of the float64 host math, so other architectures skip.
func TestOutputDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64; %s may fuse multiply-add and round differently", runtime.GOARCH)
	}
	t.Run("table4-json", func(t *testing.T) {
		c, err := uncachedSweep(0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if got := digest(buf.Bytes()); got != pinTableIVJSON {
			t.Errorf("Table IV v1 export digest %s, want %s", got, pinTableIVJSON)
		}
	})
	t.Run("table8", func(t *testing.T) {
		r, err := report.RunCS3()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r.WriteTable8(&buf)
		if got := digest(buf.Bytes()); got != pinTable8 {
			t.Errorf("Table VIII digest %s, want %s\n%s", got, pinTable8, buf.String())
		}
	})
	cs1 := sync.OnceValues(report.RunCS1)
	t.Run("table6", func(t *testing.T) {
		r, err := cs1()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r.WriteTable6(&buf)
		if got := digest(buf.Bytes()); got != pinTable6 {
			t.Errorf("Table VI digest %s, want %s\n%s", got, pinTable6, buf.String())
		}
	})
	t.Run("fig3", func(t *testing.T) {
		r, err := cs1()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r.WriteFig3(&buf)
		if got := digest(buf.Bytes()); got != pinFig3 {
			t.Errorf("Fig 3 digest %s, want %s\n%s", got, pinFig3, buf.String())
		}
	})
	t.Run("table7", func(t *testing.T) {
		var buf bytes.Buffer
		report.RunCS2Table7().WriteTable7(&buf)
		if got := digest(buf.Bytes()); got != pinTable7 {
			t.Errorf("Table VII digest %s, want %s\n%s", got, pinTable7, buf.String())
		}
	})
	t.Run("table7-values", func(t *testing.T) {
		var buf bytes.Buffer
		for _, row := range report.RunCS2Table7().Rows {
			buf.WriteString(row.Filter + " " + row.Mode + " " + row.Format + "\n")
			archs := make([]string, 0, len(row.LatencyUs))
			for a := range row.LatencyUs {
				archs = append(archs, a)
			}
			sort.Strings(archs)
			for _, a := range archs {
				buf.WriteString(a)
				for _, v := range []float64{row.LatencyUs[a], row.EnergyNJ[a], row.PeakMW[a]} {
					buf.WriteString(" " + strconv.FormatFloat(v, 'g', -1, 64))
				}
				buf.WriteString("\n")
			}
		}
		if got := digest(buf.Bytes()); got != pinTable7Values {
			t.Errorf("Table VII values digest %s, want %s\n%s", got, pinTable7Values, buf.String())
		}
	})
	t.Run("fig4", func(t *testing.T) {
		var buf bytes.Buffer
		report.RunFig4(pinFig4Step).WriteFig4(&buf)
		if got := digest(buf.Bytes()); got != pinFig4 {
			t.Errorf("Fig 4 digest %s, want %s", got, pinFig4)
		}
	})
	t.Run("fig5", func(t *testing.T) {
		r, err := report.RunCS4(pinFig5N)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r.WriteFig5(&buf)
		if got := digest(buf.Bytes()); got != pinFig5 {
			t.Errorf("Fig 5 digest %s, want %s", got, pinFig5)
		}
	})
}
