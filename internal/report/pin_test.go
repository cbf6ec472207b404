package report_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/report"
)

// Output digests recorded before the control kernels' host work moved
// off mat.Mat (hook-free Riccati iteration, Mat.TMulVec, closed-form
// LDLT-solve counts). The goldens cover only a synthetic kernel and the
// determinism tests compare two runs of the same code, so without these
// pins a drifted count or a changed low bit in any real kernel would
// pass every test. A deliberate change to a kernel, a cost model or a
// renderer must re-record them in the same commit and say why.
const (
	// Uncached full-suite Table IV sweep, v1 JSON export (the bytes of
	// `entobench sweep -json`).
	pinTableIVJSON = "4a54795acf77d598854f368ce87e3adc53c266932efbed51190abda748e4bcef"
	// Table VIII as `entobench table8` renders it.
	pinTable8 = "8a2ba78728a11d8f934be13eec14bf8079ae2dac0d7d396589862e9ab7004f23"
	// Fig 5 at pinFig5N problems per datapoint.
	pinFig5  = "7cf70335cd342715b57ac6994dc410bce6e5016ad321a7194645377eaf7f9312"
	pinFig5N = 10
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
